#include "core/policy_gladiator.h"

namespace gld {

GladiatorPolicy::GladiatorPolicy(
    const CodeContext& ctx, std::shared_ptr<const PatternTableSet> tables,
    bool use_mlr)
    : FlagTablePolicy(ctx, use_mlr), tables_(std::move(tables))
{
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        if (ctx.degree_of(q) > 0)
            set_table(q, tables_->table(ctx.class_of(q)).data());
    }
}

GladiatorDPolicy::GladiatorDPolicy(
    const CodeContext& ctx, std::shared_ptr<const PatternTableSet> tables,
    bool use_mlr)
    : WordPolicy(ctx), tables_(std::move(tables)), use_mlr_(use_mlr)
{
    check_pattern_width(ctx);
    size_t planes = 0;
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        plane_base_.push_back(planes);
        planes += static_cast<size_t>(ctx.degree_of(q));
    }
    plane_base_.push_back(planes);
    const LaneMask one_lane[1] = {1};
    begin_batch(one_lane, 1);
}

void
GladiatorDPolicy::begin_batch(const LaneMask*, int n_words)
{
    n_words_ = n_words;
    const size_t K = static_cast<size_t>(n_words);
    has_prev_.assign(static_cast<size_t>(ctx_->code().n_data()) * K, 0);
    prev_planes_.assign(plane_base_.back() * K, 0);
}

void
GladiatorDPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    if (in.n_words != n_words_)
        begin_batch(in.active, in.n_words);
    const size_t K = static_cast<size_t>(in.n_words);
    // The decision key of a lane is (previous pattern << k) | this one:
    // planes [0, k) hold this round's detectors, [k, 2k) the previous
    // round's.
    LaneMask key_planes[2 * kMaxPatternBits];
    for (int q = 0; q < ctx_->code().n_data(); ++q) {
        const std::vector<int>& checks = ctx_->observed_checks(q);
        const int k = static_cast<int>(checks.size());
        if (k == 0)
            continue;
        const uint8_t* table = tables_->table(ctx_->class_of(q)).data();
        const size_t qs = static_cast<size_t>(q);
        LaneMask* prev = &prev_planes_[plane_base_[qs] * K];
        for (size_t w = 0; w < K; ++w) {
            LaneMask any = 0;
            for (int i = 0; i < k; ++i) {
                LaneMask& cur = key_planes[i];
                LaneMask& old = prev[static_cast<size_t>(i) * K + w];
                cur = in.detector[static_cast<size_t>(
                                      checks[static_cast<size_t>(i)]) *
                                      K +
                                  w];
                key_planes[k + i] = old;
                any |= cur | old;
                old = cur;  // this round becomes the previous pattern
            }
            // Decided only where a previous round is held.  The post-LRC
            // window restarts: syndromes around the gadget are transient
            // and must not seed the next decision, so a firing lane drops
            // its history (the planes it stores this round are ignored,
            // since a lane without history is not decided).
            LaneMask& has_prev = has_prev_[qs * K + w];
            const LaneMask fire = flagged_lanes(
                table, key_planes, 2 * k,
                has_prev & (table[0] ? in.active[w] : any));
            out->data[qs * K + w] = fire;
            has_prev = in.active[w] & ~fire;
        }
    }
    if (use_mlr_)
        add_mlr_checks(in, ctx_->code().n_checks(), out);
}

}  // namespace gld
