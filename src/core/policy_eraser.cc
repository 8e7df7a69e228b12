#include "core/policy_eraser.h"

namespace gld {

EraserPolicy::EraserPolicy(const CodeContext& ctx, bool use_mlr)
    : FlagTablePolicy(ctx, use_mlr)
{
    tables_.resize(static_cast<size_t>(ctx.max_degree()) + 1);
    for (int k = 1; k <= ctx.max_degree(); ++k) {
        std::vector<uint8_t>& t = tables_[static_cast<size_t>(k)];
        t.resize(size_t{1} << k);
        for (uint32_t s = 0; s < t.size(); ++s)
            t[s] = __builtin_popcount(s) >= threshold(k) ? 1 : 0;
    }
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        const int k = ctx.degree_of(q);
        if (k > 0)
            set_table(q, tables_[static_cast<size_t>(k)].data());
    }
}

int
EraserPolicy::flagged_count(int k)
{
    int n = 0;
    for (uint32_t s = 0; s < (1u << k); ++s) {
        if (__builtin_popcount(s) >= threshold(k))
            ++n;
    }
    return n;
}

}  // namespace gld
