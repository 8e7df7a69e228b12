#include "core/pattern_table.h"

#include <utility>

namespace gld {

PatternTableSet
PatternTableSet::build(const CodeContext& ctx, const NoiseParams& np,
                       const SpecModelOptions& opt, bool two_round)
{
    PatternTableSet out;
    out.two_round_ = two_round;
    out.rules_.reserve(ctx.classes().size());
    for (const PatternClass& cls : ctx.classes()) {
        const PatternWeights w = two_round
                                     ? SpecModel::two_round(cls, np, opt)
                                     : SpecModel::single_round(cls, np, opt);
        std::vector<uint8_t> table = SpecModel::label(w, opt.threshold);
        size_t r = 0;
        while (r < out.rules_.size() &&
               (out.rules_[r].bits() != w.bits ||
                out.rules_[r].table() != table))
            ++r;
        if (r == out.rules_.size())
            out.rules_.emplace_back(std::move(table), w.bits);
        out.rule_of_.push_back(r);
    }
    return out;
}

int
PatternTableSet::flagged_count(int cls) const
{
    int n = 0;
    for (uint8_t f : table(cls))
        n += f;
    return n;
}

}  // namespace gld
