#ifndef GLD_CORE_POLICY_H_
#define GLD_CORE_POLICY_H_

#include <memory>
#include <string>

#include "core/code_context.h"
#include "sim/simulator.h"

namespace gld {

/**
 * A leakage-mitigation policy: after each QEC round it observes the round's
 * syndrome (and optionally the MLR leak flags) and schedules LRC gadgets to
 * be applied at the start of the NEXT round (the paper's closed-loop
 * semantics, Fig 2(c)).
 */
class Policy {
  public:
    virtual ~Policy() = default;

    virtual std::string name() const = 0;

    /** Resets per-shot state (histories, round counters). */
    virtual void begin_shot() {}

    /**
     * Consumes round `round`'s result and fills `out` with the LRCs to
     * apply before round `round + 1`.
     */
    virtual void observe(int round, const RoundResult& rr,
                         LrcSchedule* out) = 0;

    /**
     * Gives oracle policies read access to a ground-truth leak oracle.
     * Default: ignored.  The runner calls this per block with a per-lane
     * oracle view — every lane's policy sees only its own shot's truth.
     */
    virtual void set_leak_oracle(const LeakageOracle* /*oracle*/) {}
};

/**
 * IDEAL: oracle speculation — LRCs exactly the currently-leaked qubits.
 * Still pays LRC gadget noise; the paper's Fig 10/14 lower bound.
 */
class IdealPolicy : public Policy {
  public:
    explicit IdealPolicy(const CodeContext& ctx) : ctx_(&ctx) {}
    std::string name() const override { return "IDEAL"; }
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        oracle_ = oracle;
    }
    void observe(int round, const RoundResult& rr,
                 LrcSchedule* out) override;

  private:
    const CodeContext* ctx_;
    const LeakageOracle* oracle_ = nullptr;  ///< the shared driver's truth
};

/**
 * M (MLR-only): no syndrome speculation; LRCs only the ancillas whose
 * multi-level readout flags leakage (Table 2's "M" column).  Data-qubit
 * leakage is never serviced — the paper's motivation for speculation.
 */
class MlrOnlyPolicy : public Policy {
  public:
    explicit MlrOnlyPolicy(const CodeContext& ctx) : ctx_(&ctx) {}
    std::string name() const override { return "M"; }
    void observe(int round, const RoundResult& rr,
                 LrcSchedule* out) override;

  private:
    const CodeContext* ctx_;
};

/** Appends MLR-flagged ancillas to the schedule (the "+M" suffix). */
void append_mlr_checks(const RoundResult& rr, LrcSchedule* out);

}  // namespace gld

#endif  // GLD_CORE_POLICY_H_
