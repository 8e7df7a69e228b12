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
                    bool use_mlr)
        : GladiatorPolicy(ctx, std::move(tables), use_mlr, false)
    {
    }
    std::string name() const override
    {
        return use_mlr_ ? "GLADIATOR+M" : "GLADIATOR";
    }

    /** The (possibly shared) offline tables driving this policy. */
    const std::shared_ptr<const PatternTableSet>& tables() const
    {
        return tables_;
    }

  protected:
    GladiatorPolicy(const CodeContext& ctx,
                    std::shared_ptr<const PatternTableSet> tables,
                    bool use_mlr, bool two_round);

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
class GladiatorDPolicy : public GladiatorPolicy {
  public:
    /** @param tables two-round tables (two_round = true). */
    GladiatorDPolicy(const CodeContext& ctx,
                     std::shared_ptr<const PatternTableSet> tables,
                     bool use_mlr)
        : GladiatorPolicy(ctx, std::move(tables), use_mlr, true)
    {
    }
    std::string name() const override
    {
        return use_mlr_ ? "GLADIATOR-D+M" : "GLADIATOR-D";
    }
};

}  // namespace gld

#endif  // GLD_CORE_POLICY_GLADIATOR_H_
