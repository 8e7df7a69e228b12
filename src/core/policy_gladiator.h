#ifndef GLD_CORE_POLICY_GLADIATOR_H_
#define GLD_CORE_POLICY_GLADIATOR_H_

#include <memory>

#include "core/pattern_table.h"
#include "core/policy.h"

namespace gld {

/**
 * GLADIATOR (paper §4): online stage of the graph-labeled speculation.
 * Each round, every data qubit's observed pattern is looked up in its
 * class's offline-built table; flagged patterns schedule an LRC for the
 * next round.  The +M variant also LRCs MLR-flagged ancillas.
 */
class GladiatorPolicy : public FlagTablePolicy {
  public:
    /**
     * @param tables single-round tables from PatternTableSet::build(...,
     *        two_round = false).
     */
    GladiatorPolicy(const CodeContext& ctx,
                    std::shared_ptr<const PatternTableSet> tables,
                    bool use_mlr);
    std::string name() const override
    {
        return use_mlr_ ? "GLADIATOR+M" : "GLADIATOR";
    }

    /** The (possibly shared) offline tables driving this policy. */
    const std::shared_ptr<const PatternTableSet>& tables() const
    {
        return tables_;
    }

  private:
    std::shared_ptr<const PatternTableSet> tables_;
};

/**
 * GLADIATOR-D (paper §5.2): deferred speculation over a sliding two-round
 * window.  The decision for a round uses the pair (previous round's
 * pattern, this round's pattern); Pauli faults leave deterministic
 * second-round signatures while leakage stays random, so deferral cuts
 * false positives — crucial for the information-poor color-code patterns.
 */
class GladiatorDPolicy : public WordPolicy {
  public:
    /** @param tables two-round tables (two_round = true). */
    GladiatorDPolicy(const CodeContext& ctx,
                     std::shared_ptr<const PatternTableSet> tables,
                     bool use_mlr);
    std::string name() const override
    {
        return use_mlr_ ? "GLADIATOR-D+M" : "GLADIATOR-D";
    }
    void begin_batch(const LaneMask* active, int n_words) override;
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override;

    /** The (possibly shared) offline tables driving this policy. */
    const std::shared_ptr<const PatternTableSet>& tables() const
    {
        return tables_;
    }

  private:
    std::shared_ptr<const PatternTableSet> tables_;
    bool use_mlr_;
    // The sliding window as words: per data qubit one has-previous-round
    // span and one bit-plane span per observed bit of the previous
    // pattern (plane i of qubit q at (plane_base_[q] + i) * K).
    int n_words_ = 0;
    std::vector<LaneMask> has_prev_;
    std::vector<LaneMask> prev_planes_;
    std::vector<size_t> plane_base_;
};

}  // namespace gld

#endif  // GLD_CORE_POLICY_GLADIATOR_H_
