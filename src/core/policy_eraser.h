#ifndef GLD_CORE_POLICY_ERASER_H_
#define GLD_CORE_POLICY_ERASER_H_

#include "core/policy.h"

namespace gld {

/**
 * ERASER [Vittal+ MICRO'23], the prior closed-loop heuristic (paper §3.2):
 * a data qubit is flagged as leaked when at least 50% of its adjacent
 * syndrome bits flip in the current round (popcount >= ceil(k/2)); the +M
 * variant additionally LRCs MLR-flagged ancillas.
 *
 * On the surface code this flags 11/16 of the 4-bit patterns; on a color
 * code's 2-bit edge qubits it fires on ANY flip — the poor generalization
 * the paper dissects in §3.3.
 */
class EraserPolicy : public FlagTablePolicy {
  public:
    EraserPolicy(const CodeContext& ctx, bool use_mlr);
    std::string name() const override
    {
        return use_mlr_ ? "ERASER+M" : "ERASER";
    }

    /** The popcount trigger threshold for a pattern of width k. */
    static int threshold(int k) { return (k + 1) / 2; }
    /** Number of k-bit patterns ERASER flags (e.g. 11 of 16 for k = 4). */
    static int flagged_count(int k);
    /** The compiled flag table popcount >= threshold(k), 1 <= k <=
     *  kMaxPatternBits, built once per width and shared. */
    static const FlagRule& rule(int k);
};

}  // namespace gld

#endif  // GLD_CORE_POLICY_ERASER_H_
