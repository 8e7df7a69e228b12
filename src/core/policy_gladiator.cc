#include "core/policy_gladiator.h"

namespace gld {

GladiatorPolicy::GladiatorPolicy(
    const CodeContext& ctx, std::shared_ptr<const PatternTableSet> tables,
    bool use_mlr, bool two_round)
    : FlagTablePolicy(ctx, use_mlr, two_round), tables_(std::move(tables))
{
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        if (ctx.degree_of(q) > 0)
            set_rule(q, &tables_->rule(ctx.class_of(q)));
    }
}

}  // namespace gld
