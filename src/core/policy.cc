#include "core/policy.h"

#include <stdexcept>
#include <string>

#include "sim/lane_span.h"

namespace gld {

namespace {

constexpr LaneMask kOneLane[1] = {1};

/** The one-lane wrapper's buffers: the packed round and the masks. */
struct OneLaneScratch {
    std::vector<LaneMask> det, mlr, leaked;
    LrcWords lrc;
};

/** Packs a 0/1 byte vector into one-lane (bit 0) words. */
void
pack_one_lane(const std::vector<uint8_t>& bytes, std::vector<LaneMask>* out)
{
    out->resize(bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i)
        (*out)[i] = bytes[i];
}

}  // namespace

// --- WordPolicy: the one-lane wrapper ---

void
WordPolicy::begin_shot()
{
    begin_batch(kOneLane, 1);
}

void
WordPolicy::observe(int round, const RoundResult& rr, LrcSchedule* out)
{
    const int n_data = ctx_->code().n_data();
    const int n_checks = ctx_->code().n_checks();
    // The buffers are borrowed from the thread, not kept per instance:
    // an adapter holds 64*K instances, and per-instance buffers crowd
    // the cache.  Borrowing (a move, not a reference) keeps a nested
    // call correct — it finds the pool empty and allocates its own.
    thread_local OneLaneScratch pool;
    OneLaneScratch s = std::move(pool);
    pack_one_lane(rr.detector, &s.det);
    pack_one_lane(rr.mlr_flag, &s.mlr);
    RoundWords in;
    in.active = kOneLane;
    in.detector = s.det.data();
    in.mlr = s.mlr.data();
    if (reads_truth_) {
        s.leaked.assign(static_cast<size_t>(ctx_->code().n_qubits()), 0);
        for (int q = 0; oracle_ != nullptr && q < n_data; ++q)
            s.leaked[static_cast<size_t>(q)] = oracle_->data_leaked(q);
        for (int c = 0; oracle_ != nullptr && c < n_checks; ++c)
            s.leaked[static_cast<size_t>(ctx_->code().ancilla_of(c))] =
                oracle_->check_leaked(c);
        in.leaked = s.leaked.data();
    }
    s.lrc.reset(n_data, n_checks, 1);
    observe_batch(round, in, &s.lrc);
    out->clear();
    for (int q = 0; q < n_data; ++q) {
        if (s.lrc.data[static_cast<size_t>(q)] & 1u)
            out->data_qubits.push_back(q);
    }
    for (int c = 0; c < n_checks; ++c) {
        if (s.lrc.checks[static_cast<size_t>(c)] & 1u)
            out->checks.push_back(c);
    }
    pool = std::move(s);
}

// --- LaneAdapterPolicy ---

LaneAdapterPolicy::LaneAdapterPolicy(const CodeContext& ctx,
                                     std::unique_ptr<Policy> first,
                                     LaneFactory make_lane)
    : ctx_(&ctx), make_lane_(std::move(make_lane))
{
    lanes_.push_back(std::move(first));
}

void
LaneAdapterPolicy::ensure_lanes(int n_lanes)
{
    lanes_.reserve(static_cast<size_t>(n_lanes));
    while (static_cast<int>(lanes_.size()) < n_lanes)
        lanes_.push_back(make_lane_());
    if (static_cast<int>(sched_.size()) < n_lanes)
        sched_.resize(static_cast<size_t>(n_lanes));
}

void
LaneAdapterPolicy::bind(const BatchSimulator& sim, int n_lanes)
{
    ensure_lanes(n_lanes);
    for (int l = 0; l < n_lanes; ++l)
        lanes_[static_cast<size_t>(l)]->set_leak_oracle(&sim.lane_oracle(l));
}

void
LaneAdapterPolicy::begin_batch(const LaneMask* active, int n_words)
{
    // Batches are dense lane prefixes: [0, n_active_).
    n_active_ = 0;
    for (int w = 0; w < n_words; ++w)
        n_active_ += __builtin_popcountll(active[w]);
    ensure_lanes(n_active_);
    for (int l = 0; l < n_active_; ++l)
        lanes_[static_cast<size_t>(l)]->begin_shot();
}

void
LaneAdapterPolicy::observe_batch(int round, const RoundWords& in,
                                 LrcWords* out)
{
    const int n_data = ctx_->code().n_data();
    const int n_checks = ctx_->code().n_checks();
    const int K = in.n_words;
    round_words_to_results(in.meas_flip, in.detector, in.mlr, n_checks, K,
                           n_active_, &rr_);
    for (int l = 0; l < n_active_; ++l) {
        const size_t li = static_cast<size_t>(l);
        lanes_[li]->observe(round, rr_[li], &sched_[li]);
        check_lrc_schedule(sched_[li], l, n_data, n_checks);
        out->add_lane(sched_[li], l, K);
    }
}

// --- Word rules ---

void
add_mlr_checks(const RoundWords& in, int n_checks, LrcWords* out)
{
    const size_t K = static_cast<size_t>(in.n_words);
    for (size_t c = 0; c < static_cast<size_t>(n_checks); ++c) {
        for (size_t w = 0; w < K; ++w)
            out->checks[c * K + w] |= in.mlr[c * K + w] & in.active[w];
    }
}

void
check_pattern_width(const CodeContext& ctx)
{
    if (ctx.max_degree() > kMaxPatternBits)
        throw std::invalid_argument(
            "speculation policy: a data qubit observes " +
            std::to_string(ctx.max_degree()) + " checks, more than " +
            std::to_string(kMaxPatternBits));
}

FlagTablePolicy::FlagTablePolicy(const CodeContext& ctx, bool use_mlr,
                                 bool two_round)
    : WordPolicy(ctx), use_mlr_(use_mlr), two_round_(two_round)
{
    check_pattern_width(ctx);
    flagged_.reserve(static_cast<size_t>(ctx.code().n_data()));
}

void
FlagTablePolicy::set_rule(int q, const FlagRule* rule)
{
    const std::vector<int>& checks = ctx_->observed_checks(q);
    const size_t key_bits = checks.size() * (two_round_ ? 2 : 1);
    if (key_bits != static_cast<size_t>(rule->bits()))
        throw std::invalid_argument(
            "FlagTablePolicy: data qubit " + std::to_string(q) + " has a " +
            std::to_string(key_bits) + "-bit key, its rule " +
            std::to_string(rule->bits()));
    flagged_.push_back({q, rule, checks.data(), n_planes_});
    n_planes_ += checks.size();
    n_words_ = 0;  // the window is sized by the next begin_batch
}

void
FlagTablePolicy::begin_batch(const LaneMask*, int n_words)
{
    n_words_ = n_words;
    if (two_round_) {
        const size_t K = static_cast<size_t>(n_words);
        prev_.assign(n_planes_ * K, 0);
        has_prev_.assign(flagged_.size() * K, 0);
    }
}

void
FlagTablePolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    if (in.n_words != n_words_)
        begin_batch(in.active, in.n_words);
    const size_t K = static_cast<size_t>(in.n_words);
    // planes [0, k) hold this round's detectors, [k, 2k) the previous
    // round's.
    LaneMask planes[2 * kMaxPatternBits];
    for (size_t f = 0; f < flagged_.size(); ++f) {
        const Flagged& e = flagged_[f];
        const size_t k = two_round_ ? static_cast<size_t>(e.rule->bits()) / 2
                                    : static_cast<size_t>(e.rule->bits());
        const int* checks = e.checks;
        LaneMask* data = &out->data[static_cast<size_t>(e.q) * K];
        for (size_t w = 0; w < K; ++w) {
            for (size_t i = 0; i < k; ++i)
                planes[i] = in.detector[static_cast<size_t>(checks[i]) * K + w];
            if (!two_round_) {
                data[w] = e.rule->eval(planes, in.active[w]);
                continue;
            }
            for (size_t i = 0; i < k; ++i) {
                LaneMask& old = prev_[(e.first + i) * K + w];
                planes[k + i] = old;
                old = planes[i];  // this round becomes the previous
            }
            LaneMask& has_prev = has_prev_[f * K + w];
            data[w] = e.rule->eval(planes, has_prev);
            has_prev = in.active[w] & ~data[w];
        }
    }
    if (use_mlr_)
        add_mlr_checks(in, ctx_->code().n_checks(), out);
}

void
IdealPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    const CssCode& code = ctx_->code();
    const size_t K = static_cast<size_t>(in.n_words);
    for (size_t q = 0; q < static_cast<size_t>(code.n_data()); ++q) {
        for (size_t w = 0; w < K; ++w)
            out->data[q * K + w] = in.leaked[q * K + w] & in.active[w];
    }
    for (int c = 0; c < code.n_checks(); ++c) {
        const size_t a = static_cast<size_t>(code.ancilla_of(c)) * K;
        for (size_t w = 0; w < K; ++w)
            out->checks[static_cast<size_t>(c) * K + w] =
                in.leaked[a + w] & in.active[w];
    }
}

void
MlrOnlyPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    add_mlr_checks(in, ctx_->code().n_checks(), out);
}

}  // namespace gld
