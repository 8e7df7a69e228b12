#include "core/policy_eraser.h"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace gld {

EraserPolicy::EraserPolicy(const CodeContext& ctx, bool use_mlr)
    : FlagTablePolicy(ctx, use_mlr)
{
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        const int k = ctx.degree_of(q);
        if (k > 0)
            set_rule(q, &rule(k));
    }
}

const FlagRule&
EraserPolicy::rule(int k)
{
    if (k < 1 || k > kMaxPatternBits)
        throw std::invalid_argument("EraserPolicy::rule: width " +
                                    std::to_string(k) + " outside [1, " +
                                    std::to_string(kMaxPatternBits) + "]");
    // One compiled table per width for the whole process: every ERASER
    // instance of every code shares it.
    static std::once_flag once[kMaxPatternBits + 1];
    static std::unique_ptr<const FlagRule> rules[kMaxPatternBits + 1];
    const size_t ks = static_cast<size_t>(k);
    std::call_once(once[ks], [k, ks] {
        std::vector<uint8_t> t(size_t{1} << k);
        for (uint32_t s = 0; s < t.size(); ++s)
            t[s] = __builtin_popcount(s) >= threshold(k) ? 1 : 0;
        rules[ks] = std::make_unique<const FlagRule>(std::move(t), k);
    });
    return *rules[ks];
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
