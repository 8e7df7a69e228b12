#ifndef GLD_CORE_POLICY_H_
#define GLD_CORE_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/code_context.h"
#include "core/flag_rule.h"
#include "sim/simulator.h"

namespace gld {

/**
 * One round of a lockstep batch as lane words (bit l is lane l): word c
 * of a per-check array is check c's, word q of a per-qubit array qubit
 * q's.  Bits of inactive lanes are 0.
 */
struct RoundWords {
    LaneMask active = 0;                  ///< the batch's lanes
    const LaneMask* detector = nullptr;   ///< word per check
    const LaneMask* mlr = nullptr;        ///< MLR leak flags, word per check
    /** Word per check; only for LaneAdapterPolicy's per-lane results
     *  (word rules do not read it, and the one-lane wrapper leaves it
     *  null). */
    const LaneMask* meas_flip = nullptr;
    /** Ground-truth leak flags, word per qubit: data first, then
     *  ancillas (BatchSimulator::leaked_words()). */
    const LaneMask* leaked = nullptr;
};

/**
 * A leakage-mitigation policy: after each QEC round it observes the round's
 * syndrome (and optionally the MLR leak flags) and schedules LRC gadgets to
 * be applied at the start of the NEXT round (the paper's closed-loop
 * semantics, Fig 2(c)).
 *
 * Two interfaces: per lane (begin_shot/observe on one shot's bytes) and
 * batched (begin_batch/observe_batch on a whole lockstep batch's words).
 * The runner drives a batched() policy through the word interface and
 * wraps any other in a LaneAdapterPolicy.
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
     * Default: ignored.  Per-lane use only: every lane's policy sees only
     * its own shot's truth (batched policies read RoundWords::leaked).
     */
    virtual void set_leak_oracle(const LeakageOracle* /*oracle*/) {}

    /** True if this policy implements begin_batch/observe_batch. */
    virtual bool batched() const { return false; }

    /**
     * Starts a new shot in every lane of `active`: the batched
     * begin_shot.  Only called when batched().
     */
    virtual void begin_batch(LaneMask /*active*/) {}

    /**
     * The batched observe: consumes round `round` of every active lane
     * and sets, in `out` (sized by LrcWords::reset to the code, and
     * zeroed), the lanes that LRC each qubit before round
     * `round + 1`.  Only active lanes may be set.  Only called when
     * batched().
     */
    virtual void observe_batch(int /*round*/, const RoundWords& /*in*/,
                               LrcWords* /*out*/)
    {
    }
};

/**
 * Base of every in-tree policy: the policy is ONE word rule
 * (begin_batch/observe_batch over a whole batch), and its per-lane
 * begin_shot/observe is this shared one-lane wrapper — the bytes are
 * packed into lane words (bit 0), the rule runs, and the masks are
 * unpacked data-ascending, then checks-ascending.  Each rule is thereby
 * written once and the two interfaces agree by construction.
 */
class WordPolicy : public Policy {
  public:
    bool batched() const final { return true; }
    void begin_shot() final;
    void observe(int round, const RoundResult& rr, LrcSchedule* out) final;
    void set_leak_oracle(const LeakageOracle* oracle) final
    {
        oracle_ = oracle;
    }

  protected:
    /** @param reads_truth the rule reads RoundWords::leaked (IDEAL); the
     *         one-lane wrapper then packs the leak oracle's flags. */
    explicit WordPolicy(const CodeContext& ctx, bool reads_truth = false)
        : ctx_(&ctx), reads_truth_(reads_truth)
    {
    }

    const CodeContext* ctx_;

  private:
    bool reads_truth_;
    const LeakageOracle* oracle_ = nullptr;
};

/**
 * Runs per-lane Policy instances — policies that only implement observe —
 * as one batched policy: it owns one instance per lane and their oracle
 * bindings, transposes each round's words into per-lane RoundResults,
 * calls every lane's observe, and ORs the schedules into lane masks.
 * Schedules are sets: an id out of range, repeated, or out of ascending
 * order throws std::invalid_argument naming the lane and the id.
 */
class LaneAdapterPolicy final : public Policy {
  public:
    using LaneFactory = std::function<std::unique_ptr<Policy>()>;

    /**
     * @param first lane 0's instance (already built).
     * @param make_lane builds each further lane's instance on demand.
     */
    LaneAdapterPolicy(const CodeContext& ctx, std::unique_ptr<Policy> first,
                      LaneFactory make_lane);

    std::string name() const override { return lanes_[0]->name(); }
    /** One lane: forwards to lane 0's instance. */
    void begin_shot() override { lanes_[0]->begin_shot(); }
    void observe(int round, const RoundResult& rr, LrcSchedule* out) override
    {
        lanes_[0]->observe(round, rr, out);
    }
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        lanes_[0]->set_leak_oracle(oracle);
    }

    bool batched() const override { return true; }
    void begin_batch(LaneMask active) override;
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;

    /**
     * Grows to `n_lanes` instances (never shrinks) and binds lane l's
     * oracle to sim.lane_oracle(l), per block.
     */
    void bind(const BatchSimulator& sim, int n_lanes);

  private:
    void ensure_lanes(int n_lanes);

    const CodeContext* ctx_;
    LaneFactory make_lane_;
    std::vector<std::unique_ptr<Policy>> lanes_;
    int n_active_ = 0;  ///< lanes of the current batch
    std::vector<RoundResult> rr_;
    std::vector<LrcSchedule> sched_;
};

/**
 * A per-data-qubit flag table over the qubit's observed pattern (bit i =
 * detector of its i-th observed check): ERASER's popcount threshold and
 * GLADIATOR's class tables, or over a two-round window of it (GLADIATOR-
 * D).  The word rule decides each qubit by its compiled FlagRule, then
 * adds the MLR ancillas for the +M variants.
 */
class FlagTablePolicy : public WordPolicy {
  public:
    FlagTablePolicy(const FlagTablePolicy&) = delete;
    FlagTablePolicy& operator=(const FlagTablePolicy&) = delete;

    /** Clears the two-round window of every lane. */
    void begin_batch(LaneMask active) override;
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;

  protected:
    /**
     * @param two_round a key is (previous round's pattern << k) | this
     *        round's, for k observed checks.  A lane is decided only once
     *        it holds a previous round, and a flagged lane drops its
     *        history: syndromes around the LRC gadget are transient and
     *        must not seed the next decision.
     * Throws std::invalid_argument if a pattern is wider than
     * kMaxPatternBits.
     */
    FlagTablePolicy(const CodeContext& ctx, bool use_mlr,
                    bool two_round = false);

    /** Flags data qubit q by `rule` (keyed by q's observed checks, over
     *  one or two rounds; must outlive the policy).  At most once per
     *  qubit; a qubit never set is never flagged. */
    void set_rule(int q, const FlagRule* rule);

    bool use_mlr_;

  private:
    struct Flagged {
        int q;
        const FlagRule* rule;
        const int* checks;  ///< q's k observed checks
        size_t first;       ///< planes of the earlier qubits' checks
    };

    bool two_round_;
    std::vector<Flagged> flagged_;  ///< in set_rule order
    size_t n_planes_ = 0;           ///< observed checks of flagged_
    // The two-round window as words: the previous round's plane i of
    // flagged_[f] at prev_[first + i], and the lanes holding a previous
    // round at has_prev_[f].
    std::vector<LaneMask> prev_;
    std::vector<LaneMask> has_prev_;
};

/**
 * IDEAL: oracle speculation — LRCs exactly the currently-leaked qubits.
 * Still pays LRC gadget noise; the paper's Fig 10/14 lower bound.
 * Word rule: the truth-leak words.
 */
class IdealPolicy : public WordPolicy {
  public:
    explicit IdealPolicy(const CodeContext& ctx)
        : WordPolicy(ctx, /*reads_truth=*/true)
    {
    }
    std::string name() const override { return "IDEAL"; }
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;
};

/**
 * M (MLR-only): no syndrome speculation; LRCs only the ancillas whose
 * multi-level readout flags leakage (Table 2's "M" column).  Data-qubit
 * leakage is never serviced — the paper's motivation for speculation.
 * Word rule: the MLR words.
 */
class MlrOnlyPolicy : public WordPolicy {
  public:
    explicit MlrOnlyPolicy(const CodeContext& ctx) : WordPolicy(ctx) {}
    std::string name() const override { return "M"; }
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;
};

/** Sets every MLR-flagged ancilla's lanes in `out` (the "+M" suffix). */
void add_mlr_checks(const RoundWords& in, int n_checks, LrcWords* out);

/** Throws std::invalid_argument if a data qubit of `ctx` observes more
 *  than kMaxPatternBits checks (the flag-table rules' pattern width). */
void check_pattern_width(const CodeContext& ctx);

}  // namespace gld

#endif  // GLD_CORE_POLICY_H_
