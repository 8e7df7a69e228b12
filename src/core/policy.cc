#include "core/policy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/lane_span.h"

namespace gld {

namespace {

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
    begin_batch(1);
}

void
WordPolicy::observe(int round, const RoundResult& rr, LrcSchedule* out)
{
    const int n_data = ctx_->code().n_data();
    const int n_checks = ctx_->code().n_checks();
    // The buffers are borrowed from the thread, not kept per instance:
    // an adapter holds 64 instances, and per-instance buffers crowd
    // the cache.  Borrowing (a move, not a reference) keeps a nested
    // call correct — it finds the pool empty and allocates its own.
    thread_local OneLaneScratch pool;
    OneLaneScratch s = std::move(pool);
    pack_one_lane(rr.detector, &s.det);
    pack_one_lane(rr.mlr_flag, &s.mlr);
    RoundWords in;
    in.active = 1;
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
    s.lrc.reset(n_data, n_checks);
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
LaneAdapterPolicy::begin_batch(LaneMask active)
{
    // Batches are dense lane prefixes: [0, n_active_).
    n_active_ = __builtin_popcountll(active);
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
    round_words_to_results(in.meas_flip, in.detector, in.mlr, n_checks,
                           n_active_, &rr_);
    for (int l = 0; l < n_active_; ++l) {
        const size_t li = static_cast<size_t>(l);
        lanes_[li]->observe(round, rr_[li], &sched_[li]);
        check_lrc_schedule(sched_[li], l, n_data, n_checks);
        out->add_lane(sched_[li], l);
    }
}

// --- Word rules ---

void
add_mlr_checks(const RoundWords& in, int n_checks, LrcWords* out)
{
    for (size_t c = 0; c < static_cast<size_t>(n_checks); ++c)
        out->checks[c] |= in.mlr[c] & in.active;
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
    if (two_round_) {
        prev_.resize(n_planes_, 0);
        has_prev_.resize(flagged_.size(), 0);
    }
}

void
FlagTablePolicy::begin_batch(LaneMask)
{
    std::fill(prev_.begin(), prev_.end(), 0);
    std::fill(has_prev_.begin(), has_prev_.end(), 0);
}

void
FlagTablePolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    // planes [0, k) hold this round's detectors, [k, 2k) the previous
    // round's.
    LaneMask planes[2 * kMaxPatternBits];
    for (size_t f = 0; f < flagged_.size(); ++f) {
        const Flagged& e = flagged_[f];
        const size_t k = two_round_ ? static_cast<size_t>(e.rule->bits()) / 2
                                    : static_cast<size_t>(e.rule->bits());
        const int* checks = e.checks;
        LaneMask& data = out->data[static_cast<size_t>(e.q)];
        for (size_t i = 0; i < k; ++i)
            planes[i] = in.detector[static_cast<size_t>(checks[i])];
        if (!two_round_) {
            data = e.rule->eval(planes, in.active);
            continue;
        }
        for (size_t i = 0; i < k; ++i) {
            LaneMask& old = prev_[e.first + i];
            planes[k + i] = old;
            old = planes[i];  // this round becomes the previous
        }
        LaneMask& has_prev = has_prev_[f];
        data = e.rule->eval(planes, has_prev);
        has_prev = in.active & ~data;
    }
    if (use_mlr_)
        add_mlr_checks(in, ctx_->code().n_checks(), out);
}

void
IdealPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    const CssCode& code = ctx_->code();
    for (size_t q = 0; q < static_cast<size_t>(code.n_data()); ++q)
        out->data[q] = in.leaked[q] & in.active;
    for (int c = 0; c < code.n_checks(); ++c)
        out->checks[static_cast<size_t>(c)] =
            in.leaked[static_cast<size_t>(code.ancilla_of(c))] & in.active;
}

void
MlrOnlyPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    add_mlr_checks(in, ctx_->code().n_checks(), out);
}

}  // namespace gld
