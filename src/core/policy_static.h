#ifndef GLD_CORE_POLICY_STATIC_H_
#define GLD_CORE_POLICY_STATIC_H_

#include "core/policy.h"

namespace gld {

/** NO-LRC: never mitigates; leakage accumulates (Fig 12's diverging curve). */
class NoLrcPolicy : public WordPolicy {
  public:
    explicit NoLrcPolicy(const CodeContext& ctx) : WordPolicy(ctx) {}
    std::string name() const override { return "NO-LRC"; }
    void observe_batch(int, const RoundWords&, LrcWords*) override {}
};

/**
 * Always-LRC: open-loop, LRCs every qubit every round (ERASER's original
 * baseline, §3.2).
 */
class AlwaysLrcPolicy : public WordPolicy {
  public:
    explicit AlwaysLrcPolicy(const CodeContext& ctx) : WordPolicy(ctx) {}
    std::string name() const override { return "Always-LRC"; }
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;
};

/**
 * Staggered Always-LRC (paper §3.5, this paper's structured open-loop
 * baseline): qubits are colored so that no two qubits sharing a check (or
 * neighbouring through one) share a color, and each color group is LRC'd
 * round-robin.  Spatial staggering avoids the correlated faults of
 * Always-LRC while keeping open-loop simplicity.
 */
class StaggeredLrcPolicy : public WordPolicy {
  public:
    explicit StaggeredLrcPolicy(const CodeContext& ctx);
    std::string name() const override { return "Staggered"; }
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;

    int n_colors() const { return n_colors_; }
    /** Color group per qubit (data [0,n_data), ancillas after). */
    const std::vector<int>& colors() const { return colors_; }

  private:
    std::vector<int> colors_;
    int n_colors_ = 0;
};

}  // namespace gld

#endif  // GLD_CORE_POLICY_STATIC_H_
