#ifndef GLD_CORE_PATTERN_TABLE_H_
#define GLD_CORE_PATTERN_TABLE_H_

#include <cstdint>
#include <vector>

#include "core/flag_rule.h"
#include "core/spec_model.h"

namespace gld {

/**
 * The output of GLADIATOR's offline stage: one leakage-flag lookup table
 * per data-qubit class (paper §4.2: "a lookup table of syndrome patterns
 * that strongly indicate leakage"), single-round (GLADIATOR) or two-round
 * (GLADIATOR-D) keyed.
 *
 * Each distinct table is compiled once, here, into the FlagRule the
 * policies evaluate word-wide (classes with equal tables share one);
 * every policy built from one (shared) set reads the same rules.
 *
 * Recalibration to new noise (the adaptability story of §4.3) is simply
 * `build()` with updated NoiseParams: the graph structure is re-derived
 * from the same circuit, only the edge weights change.
 */
class PatternTableSet {
  public:
    /** Builds the tables for every class of `ctx`. */
    static PatternTableSet build(const CodeContext& ctx,
                                 const NoiseParams& np,
                                 const SpecModelOptions& opt,
                                 bool two_round);

    bool two_round() const { return two_round_; }

    /** Leak flag for a class's pattern key. */
    bool is_leak(int cls, uint32_t pattern_key) const
    {
        return table(cls)[pattern_key] != 0;
    }

    /** Number of flagged patterns in a class's table. */
    int flagged_count(int cls) const;

    /** Pattern width (bits) of a class's table key. */
    int bits(int cls) const { return rule(cls).bits(); }

    const std::vector<uint8_t>& table(int cls) const
    {
        return rule(cls).table();
    }
    /** A class's table compiled for word-wide evaluation. */
    const FlagRule& rule(int cls) const { return rules_[rule_of_[cls]]; }
    int n_classes() const { return static_cast<int>(rule_of_.size()); }

  private:
    bool two_round_ = false;
    std::vector<FlagRule> rules_;  ///< one per distinct table
    std::vector<size_t> rule_of_;  ///< per class
};

}  // namespace gld

#endif  // GLD_CORE_PATTERN_TABLE_H_
