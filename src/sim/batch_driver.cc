#include "sim/batch_driver.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gld {

// Every decision site below mirrors sim/leakage_driver.cc (the scalar
// reference implementation) statement for statement: the scalar control
// flow runs per lane and only the state mutation is batched, as
// word-wide masked primitives.  Under lockstep each lane's draws are
// Rng calls on that lane's own stream in the scalar within-shot order.
// When editing, keep the two files side by side — the tier-1
// frame/batch_frame bit-equality gate (at every batch width) fails on
// any divergence.

BatchLeakageDriver::BatchLeakageDriver(const CssCode& code,
                                       const RoundCircuit& rc,
                                       const NoiseParams& np, Rng master,
                                       BatchStatePrimitives* state,
                                       int batch_words,
                                       NoiseSampling noise_sampling)
    : code_(&code), rc_(&rc), np_(np), rate_p_(np.p), rate_pl_(np.pl()),
      rate_mlr_(np.mlr_err()), rate_lrc_depol_(np.lrc_depol()),
      rate_lrc_leak_(np.lrc_leak()), master_rng_(master), words_(batch_words),
      sparse_(noise_sampling == NoiseSampling::kSparse), state_(state)
{
    if (batch_words < 1 || batch_words > kMaxBatchWords)
        throw std::invalid_argument(
            "BatchLeakageDriver: batch_words " +
            std::to_string(batch_words) + " outside [1, " +
            std::to_string(kMaxBatchWords) + "]");
    const size_t W = static_cast<size_t>(words_);
    const size_t nq = static_cast<size_t>(code.n_qubits());
    const size_t nc = static_cast<size_t>(code.n_checks());
    leaked_.assign(nq * W, 0);
    prev_meas_.assign(nc * W, 0);
    meas_flip_.assign(nc * W, 0);
    mlr_flag_.assign(nc * W, 0);
    detector_.assign(nc * W, 0);
    // Same fixed LRC partner per data qubit as the scalar driver.
    lrc_partner_.assign(static_cast<size_t>(code.n_data()), -1);
    for (int q = 0; q < code.n_data(); ++q) {
        if (!code.data_adjacency()[q].empty())
            lrc_partner_[static_cast<size_t>(q)] =
                code.data_adjacency()[q].front();
    }
    const int max_lanes = words_ * kBatchLanes;
    lane_oracles_.resize(static_cast<size_t>(max_lanes));
    for (int l = 0; l < max_lanes; ++l)
        lane_oracles_[static_cast<size_t>(l)].bind(this, l);
    if (state_ == nullptr)
        frame_.assign(nq * 2 * W, 0);
    // The planned sites, in execution order: every data qubit is one p
    // and one pl site; every op is one p site; every CNOT adds a pl pair
    // and every measurement an MLR site.  Resets and measurements draw no
    // payload at their p site, nor does any MLR site: those get event
    // words, the rest are listed.
    p_slot_.assign(static_cast<size_t>(code.n_data()), kListed);
    pl_slot_.assign(static_cast<size_t>(code.n_data()), kListed);
    uint32_t n_p_words = 0;
    for (const Op& op : rc.ops()) {
        const bool payload_free =
            op.type == OpType::kResetZ || op.type == OpType::kMeasure;
        p_slot_.push_back(payload_free ? n_p_words++ : kListed);
        if (op.type == OpType::kCnot)
            pl_slot_.insert(pl_slot_.end(), 2, kListed);
        else if (op.type == OpType::kMeasure)
            mlr_slot_.push_back(static_cast<uint32_t>(mlr_slot_.size()));
        if (runs_.empty() || runs_.back().type != op.type)
            runs_.push_back({op.type, 0});
        ++runs_.back().end;
    }
    for (size_t r = 1; r < runs_.size(); ++r)
        runs_[r].end += runs_[r - 1].end;
    ev_p_.assign(n_p_words * W, 0);
    ev_mlr_.assign(mlr_slot_.size() * W, 0);
    lrc_req_.resize(static_cast<size_t>(code.n_data() + code.n_checks()));
    // Like the scalar driver, shot 0's stream is live from construction
    // (one active lane) so primitive-level probing before any reset works.
    // Sparse mode has no lane streams: its one event stream (armed the
    // same way a first reset_shot_batch would arm it) replaces all
    // per-lane seeding work.
    if (sparse_)
        sparse_reset(0);
    else
        lane_rng_.assign(static_cast<size_t>(max_lanes), master_rng_.split(0));
    active_[0] = 1;
    n_lanes_ = 1;
}

void
BatchLeakageDriver::reset_shot_batch(int n_lanes)
{
    const int max_lanes = words_ * kBatchLanes;
    if (n_lanes < 1 || n_lanes > max_lanes)
        throw std::invalid_argument(
            "reset_shot_batch: n_lanes " + std::to_string(n_lanes) +
            " outside [1, " + std::to_string(max_lanes) + "]");
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    n_lanes_ = n_lanes;
    // Active-lane span: full words below the boundary, a partial word at
    // it, empty words above (the boundary may fall mid-span).
    for (int w = 0; w < words_; ++w) {
        const int base = w * kBatchLanes;
        if (n_lanes - base >= kBatchLanes)
            active_[w] = ~0ull;
        else if (n_lanes - base > 0)
            active_[w] = (1ull << (n_lanes - base)) - 1;
        else
            active_[w] = 0;
    }
    if (sparse_) {
        // One event stream per batch, derived from the same master at the
        // batch's first shot index: events depend only on (seed, stream,
        // block, batch #), so thread counts and shard splits cannot move
        // them.  The geometric countdowns restart with the stream.
        sparse_reset(shots_started_);
    } else {
        // Lane l replays exactly the scalar driver's (shots_started_ +
        // l)-th shot: same master, same split id, same draw order — at
        // every K.
        for (int l = 0; l < n_lanes; ++l)
            lane_rng_[static_cast<size_t>(l)] =
                master_rng_.split(shots_started_ + static_cast<uint64_t>(l));
    }
    shots_started_ += static_cast<uint64_t>(n_lanes);
    reset_state();
}

void
BatchLeakageDriver::reset_for_block(Rng master)
{
    // Mirror of the constructor's tail under the new master — all lanes
    // seeded with split(0), lane 0 active, shot counter 0 — plus
    // explicit scrubbing of everything a previous block may have left:
    // flags, history, the per-check scratch spans (a fresh driver's are
    // zero-initialized), and the backend state.
    master_rng_ = master;
    shots_started_ = 0;
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    std::fill(meas_flip_.begin(), meas_flip_.end(), 0);
    std::fill(mlr_flag_.begin(), mlr_flag_.end(), 0);
    std::fill(detector_.begin(), detector_.end(), 0);
    first_round_ = true;
    if (sparse_)
        sparse_reset(0);
    else
        std::fill(lane_rng_.begin(), lane_rng_.end(), master_rng_.split(0));
    for (int w = 0; w < words_; ++w)
        active_[w] = 0;
    active_[0] = 1;
    n_lanes_ = 1;
    reset_state();
}

void
BatchLeakageDriver::reset_state()
{
    if (state_ != nullptr)
        state_->reset_state();
    else
        std::fill(frame_.begin(), frame_.end(), 0);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::pauli_t(int q, const LaneMask* xs, const LaneMask* zs)
{
    if (state_ != nullptr) {
        state_->apply_pauli(q, xs, zs);
        return;
    }
    const int W = WT > 0 ? WT : words_;
    LaneMask* f = frame(q);
    for (int w = 0; w < W; ++w) {
        f[w] ^= xs[w];
        f[W + w] ^= zs[w];
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::coherent_cnot_t(int control, int target,
                                    const LaneMask* lanes)
{
    if (state_ != nullptr) {
        state_->coherent_cnot(control, target, lanes);
        return;
    }
    // X copies c->t, Z copies t->c — in the selected lanes only.
    const int W = WT > 0 ? WT : words_;
    LaneMask* c = frame(control);
    LaneMask* t = frame(target);
    for (int w = 0; w < W; ++w) {
        t[w] ^= c[w] & lanes[w];
        c[W + w] ^= t[W + w] & lanes[w];
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::hadamard_t(int q, const LaneMask* lanes)
{
    if (state_ != nullptr) {
        state_->hadamard(q, lanes);
        return;
    }
    // Swap the X and Z bits of the selected lanes.
    const int W = WT > 0 ? WT : words_;
    LaneMask* f = frame(q);
    for (int w = 0; w < W; ++w) {
        const LaneMask diff = (f[w] ^ f[W + w]) & lanes[w];
        f[w] ^= diff;
        f[W + w] ^= diff;
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::reset_z_t(int q, const LaneMask* lanes)
{
    if (state_ != nullptr) {
        state_->reset_z(q, lanes);
        return;
    }
    const int W = WT > 0 ? WT : words_;
    LaneMask* f = frame(q);
    for (int w = 0; w < W; ++w) {
        f[w] &= ~lanes[w];
        f[W + w] &= ~lanes[w];
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::measure_z_t(int q, LaneMask* out)
{
    if (state_ != nullptr) {
        state_->measure_z(q, out);
        return;
    }
    // The X-frame words are the outcome flips; reading leaves them be.
    const int W = WT > 0 ? WT : words_;
    const LaneMask* f = frame(q);
    for (int w = 0; w < W; ++w)
        out[w] = f[w];
}

void
BatchLeakageDriver::apply_pauli(int q, const LaneMask* xs,
                                const LaneMask* zs)
{
    pauli_t<0>(q, xs, zs);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::set_leak_t(int q, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask* lw = &leaked_[static_cast<size_t>(q) *
                            static_cast<size_t>(words_)];
    LaneMask rise[kMaxBatchWords];
    LaneMask any = 0;
    for (int w = 0; w < W; ++w) {
        rise[w] = lanes[w] & ~lw[w];
        any |= rise[w];
    }
    if (any == 0)
        return;
    for (int w = 0; w < W; ++w)
        lw[w] |= rise[w];
    if (state_ != nullptr)
        state_->park_leaked(q, rise);
}

void
BatchLeakageDriver::set_leak(int q, const LaneMask* lanes)
{
    set_leak_t<0>(q, lanes);
}

void
BatchLeakageDriver::set_leak_lane(int q, int lane)
{
    LaneMask* lw = &leaked_[static_cast<size_t>(q) *
                            static_cast<size_t>(words_)];
    const int wi = lane >> 6;
    const LaneMask bit = 1ull << (lane & 63);
    if ((lw[wi] & bit) != 0)
        return;
    lw[wi] |= bit;
    if (state_ == nullptr)
        return;
    LaneMask rise[kMaxBatchWords];
    lanes_zero(rise, words_);
    rise[wi] = bit;
    state_->park_leaked(q, rise);
}

int
BatchLeakageDriver::n_data_leaked(int lane) const
{
    const size_t W = static_cast<size_t>(words_);
    const size_t wi = static_cast<size_t>(lane >> 6);
    int n = 0;
    for (int q = 0; q < code_->n_data(); ++q)
        n += static_cast<int>(
            (leaked_[static_cast<size_t>(q) * W + wi] >> (lane & 63)) & 1u);
    return n;
}

int
BatchLeakageDriver::n_check_leaked(int lane) const
{
    const size_t W = static_cast<size_t>(words_);
    const size_t wi = static_cast<size_t>(lane >> 6);
    int n = 0;
    for (int c = 0; c < code_->n_checks(); ++c) {
        const size_t anc = static_cast<size_t>(code_->ancilla_of(c));
        n += static_cast<int>((leaked_[anc * W + wi] >> (lane & 63)) & 1u);
    }
    return n;
}

uint64_t
BatchLeakageDriver::sparse_geometric(const LaneRate& rate)
{
    // u in (2^-53, 1]: the +1 keeps log() finite and makes skip == 0
    // (an immediate event) land exactly on probability p.  floor(log(u)
    // / log(1-p)) is the standard inverse-CDF geometric: the number of
    // quiet (site x lane) positions before the next firing one.
    const double u =
        (static_cast<double>(event_rng_.next_u64() >> 11) + 1.0) *
        0x1.0p-53;
    const double s = __builtin_log(u) * rate.inv_log1mp;
    // Clamp the astronomically-rare huge skip below the double->uint64
    // UB edge; a countdown this long outlives any real work unit anyway.
    if (s >= 9.0e18)
        return static_cast<uint64_t>(9.0e18);
    return static_cast<uint64_t>(s);
}

int
BatchLeakageDriver::kth_set_lane(const LaneMask* mask, int n_words,
                                 uint64_t k)
{
    for (int w = 0; w < n_words; ++w) {
        const uint64_t pc =
            static_cast<uint64_t>(__builtin_popcountll(mask[w]));
        if (k < pc) {
            LaneMask m = mask[w];
            for (uint64_t i = 0; i < k; ++i)
                m &= m - 1;  // clear the k lowest set bits
            return w * kBatchLanes + __builtin_ctzll(m);
        }
        k -= pc;
    }
    return -1;  // unreachable while k < popcount(mask)
}

template <int WT>
LaneMask
BatchLeakageDriver::sparse_bernoulli_mask(LaneRate& rate,
                                          const LaneMask* mask,
                                          LaneMask* out)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask any_mask = 0;
    for (int w = 0; w < W; ++w) {
        out[w] = 0;
        any_mask |= mask[w];
    }
    // Degenerate rates short-circuit with zero draws, like lockstep's
    // (and Rng::bernoulli's) no-draw contract.
    if (rate.never || any_mask == 0)
        return 0;
    if (rate.always) {
        for (int w = 0; w < W; ++w)
            out[w] = mask[w];
        return any_mask;
    }
    uint64_t count = 0;
    for (int w = 0; w < W; ++w)
        count += static_cast<uint64_t>(__builtin_popcountll(mask[w]));
    if (!rate.skip_valid) {
        rate.skip = sparse_geometric(rate);
        rate.skip_valid = true;
    }
    if (rate.skip >= count) {
        // Quiet under a freshly drawn countdown (bernoulli_mask resolves
        // the live-countdown quiet sites inline).
        rate.skip -= count;
        return 0;
    }
    // Walk the events inside this site's candidate positions, ascending
    // global lane order (the deterministic event order the bit-identity
    // gate pins).
    uint64_t k = rate.skip;
    while (k < count) {
        set_lane_bit(out, kth_set_lane(mask, W, k));
        k += 1 + sparse_geometric(rate);
    }
    rate.skip = k - count;
    LaneMask any = 0;
    for (int w = 0; w < W; ++w)
        any |= out[w];
    return any;
}

template <int WT>
__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::bernoulli_mask(LaneRate& rate,
                                   const LaneMask* mask, LaneMask* out)
{
    const int W = WT > 0 ? WT : words_;
    if (sparse_) {
        if (rate.never) {
            lanes_zero(out, W);
            return 0;
        }
        if (rate.skip_valid) {
            uint64_t count = 0;
            for (int w = 0; w < W; ++w)
                count += static_cast<uint64_t>(__builtin_popcountll(mask[w]));
            if (rate.skip >= count) {
                // The quiet site — the overwhelmingly common case at
                // paper noise rates: popcounts and one subtraction, no
                // call and zero RNG work.
                rate.skip -= count;
                lanes_zero(out, W);
                return 0;
            }
        }
        return sparse_bernoulli_mask<WT>(rate, mask, out);
    }
    lanes_zero(out, W);
    for_each_lane(mask, W, [&](int l) {
        if (lane_rng_[static_cast<size_t>(l)].bernoulli(rate.p))
            set_lane_bit(out, l);
    });
    return lanes_any(out, W);
}

void
BatchLeakageDriver::plan_round(LaneRate& rate,
                               const std::vector<uint32_t>& slot,
                               LaneMask* words, RoundPlan* plan)
{
    plan->events.clear();
    if (!rate.never) {
        // Active lanes are always the prefix [0, n_lanes), so a position's
        // lane index is its global lane.  A full batch (64*K lanes, K a
        // power of two) splits a position with a shift, not a division.
        const uint64_t n = static_cast<uint64_t>(n_lanes_);
        const uint64_t total = static_cast<uint64_t>(slot.size()) * n;
        const int shift = (n & (n - 1)) == 0 ? __builtin_ctzll(n) : -1;
        const size_t Ws = static_cast<size_t>(words_);
        uint64_t pos = 0;
        if (!rate.always) {
            if (!rate.skip_valid) {
                rate.skip = sparse_geometric(rate);
                rate.skip_valid = true;
            }
            pos = rate.skip;
        }
        while (pos < total) {
            const uint64_t site = shift >= 0 ? pos >> shift : pos / n;
            const uint64_t lane = pos - site * n;
            const uint32_t s = slot[site];
            if (s == kListed)
                plan->events.push_back({static_cast<uint32_t>(site),
                                        static_cast<uint32_t>(lane)});
            else
                words[s * Ws + (lane >> 6)] |= 1ull << (lane & 63);
            pos += 1 + (rate.always ? 0 : sparse_geometric(rate));
        }
        if (!rate.always)
            rate.skip = pos - total;
    }
    plan->events.push_back({kNoSite, 0});
    plan->next = plan->events.data();
}

template <int WT>
__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::round_site(LaneRate& rate, RoundPlan& plan,
                               uint32_t site, const LaneMask* mask,
                               LaneMask* out)
{
    if (!sparse_)
        return bernoulli_mask<WT>(rate, mask, out);
    const int W = WT > 0 ? WT : words_;
    lanes_zero(out, W);
    // The quiet site: one compare with the next planned event.
    const RoundPlan::Event* e = plan.next;
    if (e->site != site)
        return 0;
    do {
        set_lane_bit(out, static_cast<int>(e->lane));
        ++e;
    } while (e->site == site);
    plan.next = e;
    LaneMask any = 0;
    for (int w = 0; w < W; ++w) {
        out[w] &= mask[w];  // discard events on masked-out lanes
        any |= out[w];
    }
    return any;
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize1(int q, uint32_t site)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (round_site<WT>(rate_p_, plan_p_, site, active_, fired) == 0)
        return;
    LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
    lanes_zero(xs, W);
    lanes_zero(zs, W);
    for_each_lane(fired, W, [&](int l) {
        const uint32_t pauli = 1 + payload_rng(l).uniform_int(3);
        xs[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
        zs[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u) << (l & 63);
    });
    pauli_t<WT>(q, xs, zs);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize2(int q0, int q1, uint32_t site)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (round_site<WT>(rate_p_, plan_p_, site, active_, fired) == 0)
        return;
    LaneMask x0[kMaxBatchWords], z0[kMaxBatchWords];
    LaneMask x1[kMaxBatchWords], z1[kMaxBatchWords];
    lanes_zero(x0, W);
    lanes_zero(z0, W);
    lanes_zero(x1, W);
    lanes_zero(z1, W);
    for_each_lane(fired, W, [&](int l) {
        const uint32_t pauli = 1 + payload_rng(l).uniform_int(15);
        x0[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
        z0[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u) << (l & 63);
        x1[l >> 6] |= static_cast<LaneMask>((pauli >> 2) & 1u) << (l & 63);
        z1[l >> 6] |= static_cast<LaneMask>((pauli >> 3) & 1u) << (l & 63);
    });
    if (lanes_any(x0, W) | lanes_any(z0, W))
        pauli_t<WT>(q0, x0, z0);
    if (lanes_any(x1, W) | lanes_any(z1, W))
        pauli_t<WT>(q1, x1, z1);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::leak_maybe(int q, uint32_t site)
{
    LaneMask leak[kMaxBatchWords];
    if (round_site<WT>(rate_pl_, plan_pl_, site, active_, leak) != 0)
        set_leak_t<WT>(q, leak);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::cnot(int control, int target, uint32_t p_site,
                         uint32_t pl_site)
{
    const int W = WT > 0 ? WT : words_;
    const LaneMask* cl = leaked(control);
    const LaneMask* tl = leaked(target);
    LaneMask clean[kMaxBatchWords], branch[kMaxBatchWords];
    LaneMask any_clean = 0, any_branch = 0;
    for (int w = 0; w < W; ++w) {
        clean[w] = active_[w] & ~cl[w] & ~tl[w];
        any_clean |= clean[w];
        // Exactly-one-leaked lanes take the malfunction/transport
        // branches; both-leaked lanes do nothing observable (scalar
        // semantics).
        branch[w] = active_[w] & (cl[w] ^ tl[w]);
        any_branch |= branch[w];
    }
    if (any_clean != 0)
        coherent_cnot_t<WT>(control, target, clean);

    if (any_branch != 0) {
        // The malfunction shape is lane-independent — whether the
        // disturbed partner is an ancilla is a property of the circuit,
        // not the shot.
        LaneMask transport[kMaxBatchWords];
        LaneMask xs_c[kMaxBatchWords], zs_c[kMaxBatchWords];
        LaneMask xs_t[kMaxBatchWords], zs_t[kMaxBatchWords];
        lanes_zero(transport, W);
        lanes_zero(xs_c, W);
        lanes_zero(zs_c, W);
        lanes_zero(xs_t, W);
        lanes_zero(zs_t, W);
        const bool t_is_anc = target >= code_->n_data();
        const bool c_is_anc = control >= code_->n_data();
        for_each_lane(branch, W, [&](int l) {
            const int wi = l >> 6;
            const LaneMask bit = 1ull << (l & 63);
            if ((cl[wi] & bit) != 0) {
                // Leaked control: transport with prob `mobility`, else
                // the target partner is disturbed.
                if (payload_rng(l).bernoulli(np_.mobility)) {
                    transport[wi] |= bit;
                } else if (t_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT target is Z-measured: 50% X flip.
                    if (payload_rng(l).bit())
                        xs_t[wi] |= bit;
                } else {
                    const uint32_t pauli = payload_rng(l).uniform_int(4);
                    xs_t[wi] |= static_cast<LaneMask>(pauli & 1u)
                                << (l & 63);
                    zs_t[wi] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                                << (l & 63);
                }
            } else {
                // Leaked target: the control partner is disturbed.
                if (c_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT control (X check, between its
                    // Hadamards) is X-measured: 50% Z flip.
                    if (payload_rng(l).bit())
                        zs_c[wi] |= bit;
                } else {
                    const uint32_t pauli = payload_rng(l).uniform_int(4);
                    xs_c[wi] |= static_cast<LaneMask>(pauli & 1u)
                                << (l & 63);
                    zs_c[wi] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                                << (l & 63);
                }
            }
        });
        if (lanes_any(xs_t, W) | lanes_any(zs_t, W))
            pauli_t<WT>(target, xs_t, zs_t);
        if (lanes_any(xs_c, W) | lanes_any(zs_c, W))
            pauli_t<WT>(control, xs_c, zs_c);
        if (lanes_any(transport, W) != 0) {
            set_leak_t<WT>(target, transport);
            clear_leak(control, transport);
        }
    }

    depolarize2<WT>(control, target, p_site);
    leak_maybe<WT>(control, pl_site);
    leak_maybe<WT>(target, pl_site + 1);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::lrc_gadgets(const LrcWords& lrc)
{
    // The scalar apply_lrc_data / apply_lrc_check per lane, word-wide:
    // each lane sees its gadgets data-ascending, then checks-ascending,
    // and within a gadget the scalar order of flag steps and draws.
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);
    const int n_data = code_->n_data();
    const int n_checks = code_->n_checks();
    // The requesting qubits, in gadget order, and their clipped request
    // popcounts: the positions each gadget rate walks this round.
    int* req = lrc_req_.data();
    int n_req_data = 0, n_req = 0;
    uint64_t data_pos = 0, check_pos = 0;
    const auto scan = [&](const LaneMask* words, int n, uint64_t* pos) {
        for (int i = 0; i < n; ++i) {
            LaneMask any = 0;
            for (int w = 0; w < W; ++w) {
                const LaneMask m = words[static_cast<size_t>(i) * Ws +
                                         static_cast<size_t>(w)] &
                                   active_[w];
                any |= m;
                *pos += static_cast<uint64_t>(__builtin_popcountll(m));
            }
            req[n_req] = i;
            n_req += any != 0;
        }
    };
    scan(lrc.data.data(), n_data, &data_pos);
    n_req_data = n_req;
    scan(lrc.checks.data(), n_checks, &check_pos);
    if (n_req == 0)
        return;
    // The quiet round: both countdowns outlast every gadget position, so
    // no site can fire.  Subtracting the counts up front is exactly the
    // per-site quiet path of bernoulli_mask, summed.
    const auto outlasts = [](const LaneRate& rate, uint64_t count) {
        return rate.never || (rate.skip_valid && rate.skip >= count);
    };
    const bool quiet = sparse_ && outlasts(rate_lrc_depol_, data_pos) &&
                       outlasts(rate_lrc_leak_, data_pos + check_pos);
    if (quiet) {
        if (rate_lrc_depol_.skip_valid)
            rate_lrc_depol_.skip -= data_pos;
        if (rate_lrc_leak_.skip_valid)
            rate_lrc_leak_.skip -= data_pos + check_pos;
    }
    LaneMask m[kMaxBatchWords], hit[kMaxBatchWords];
    const auto requested = [&](const LaneMask* words, int i) {
        for (int w = 0; w < W; ++w)
            m[w] = words[static_cast<size_t>(i) * Ws +
                         static_cast<size_t>(w)] &
                   active_[w];
    };
    for (int k = 0; k < n_req_data; ++k) {
        const int q = req[k];
        requested(lrc.data.data(), q);
        // SWAP with the partner ancilla + reset: the flags are
        // exchanged, so a false-positive LRC against a leaked partner
        // pumps the leak IN.
        const int pc = lrc_partner_[static_cast<size_t>(q)];
        if (pc >= 0) {
            const int anc = code_->ancilla_of(pc);
            const LaneMask* la = leaked(anc);
            for (int w = 0; w < W; ++w)
                hit[w] = m[w] & la[w];
            clear_leak(q, m);
            clear_leak(anc, m);
            set_leak_t<WT>(q, hit);
        } else {
            clear_leak(q, m);
        }
        if (quiet)
            continue;
        // Gadget noise: depolarization, then leakage induction.
        if (bernoulli_mask<WT>(rate_lrc_depol_, m, hit) != 0) {
            LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
            lanes_zero(xs, W);
            lanes_zero(zs, W);
            for_each_lane(hit, W, [&](int l) {
                const uint32_t pauli = 1 + payload_rng(l).uniform_int(3);
                xs[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
                zs[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                              << (l & 63);
            });
            pauli_t<WT>(q, xs, zs);
        }
        if (bernoulli_mask<WT>(rate_lrc_leak_, m, hit) != 0)
            set_leak_t<WT>(q, hit);
    }
    for (int k = n_req_data; k < n_req; ++k) {
        const int c = req[k];
        requested(lrc.checks.data(), c);
        const int anc = code_->ancilla_of(c);
        clear_leak(anc, m);
        reset_z_t<WT>(anc, m);
        if (!quiet && bernoulli_mask<WT>(rate_lrc_leak_, m, hit) != 0)
            set_leak_t<WT>(anc, hit);
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::readout(const LaneMask* measured, const LaneMask* lk,
                            const LaneMask* ok, const LaneMask* err,
                            LaneMask* flip)
{
    // Clean lanes see the state's outcome through the readout-error site
    // (drawn by the caller, just before); leaked lanes' outcomes are
    // discarded and replaced by a coin flip.  Every lane draws once
    // across the two, so this is the scalar per-lane order in both modes
    // (sparse flips its coins from the event stream, ascending lane
    // order, after the error site).
    const int W = WT > 0 ? WT : words_;
    LaneMask rnd[kMaxBatchWords];
    lanes_zero(rnd, W);
    for_each_lane(lk, W, [&](int l) {
        if (payload_rng(l).bit())
            set_lane_bit(rnd, l);
    });
    for (int w = 0; w < W; ++w)
        flip[w] = ((measured[w] ^ err[w]) & ok[w]) | (rnd[w] & lk[w]);
}

template <int WT>
void
BatchLeakageDriver::op_handler(const Op& op, uint32_t p_site,
                               uint32_t pl_site, uint32_t mlr_site)
{
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);
    switch (op.type) {
      case OpType::kResetZ: {
        // Reset skips leaked lanes entirely: no state touch, no init-error
        // event (scalar semantics) — hence the masked event words.
        const LaneMask* lq = leaked(op.q0);
        LaneMask ok[kMaxBatchWords];
        LaneMask any_ok = 0;
        for (int w = 0; w < W; ++w) {
            ok[w] = active_[w] & ~lq[w];
            any_ok |= ok[w];
        }
        if (any_ok != 0)
            reset_z_t<WT>(op.q0, ok);
        LaneMask* ev = p_event_words(p_site);
        if (!sparse_)
            bernoulli_mask<WT>(rate_p_, ok, ev);
        LaneMask flip[kMaxBatchWords];
        LaneMask any_flip = 0;
        for (int w = 0; w < W; ++w) {
            flip[w] = ev[w] & ok[w];
            any_flip |= flip[w];
            ev[w] = 0;
        }
        if (any_flip != 0) {
            LaneMask none[kMaxBatchWords];
            lanes_zero(none, W);
            pauli_t<WT>(op.q0, flip, none);
        }
        break;
      }
      case OpType::kH: {
        const LaneMask* lq = leaked(op.q0);
        LaneMask ok[kMaxBatchWords];
        LaneMask any_ok = 0;
        for (int w = 0; w < W; ++w) {
            ok[w] = active_[w] & ~lq[w];
            any_ok |= ok[w];
        }
        if (any_ok != 0)
            hadamard_t<WT>(op.q0, ok);
        depolarize1<WT>(op.q0, p_site);
        break;
      }
      case OpType::kCnot:
        cnot<WT>(op.q0, op.q1, p_site, pl_site);
        break;
      case OpType::kMeasure: {
        const int anc = op.q0;
        const LaneMask* la = leaked(anc);
        LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
        for (int w = 0; w < W; ++w) {
            lk[w] = active_[w] & la[w];
            ok[w] = active_[w] & ~lk[w];
        }
        LaneMask measured[kMaxBatchWords], err[kMaxBatchWords];
        measure_z_t<WT>(anc, measured);
        LaneMask* ev = p_event_words(p_site);
        if (!sparse_)
            bernoulli_mask<WT>(rate_p_, ok, ev);
        for (int w = 0; w < W; ++w) {
            err[w] = ev[w] & ok[w];
            ev[w] = 0;
        }
        readout<WT>(measured, lk, ok, err,
                    &meas_flip_[static_cast<size_t>(op.mslot) * Ws]);
        // MLR leak flag with symmetric misclassification.
        LaneMask* mev = mlr_event_words(mlr_site);
        if (!sparse_)
            bernoulli_mask<WT>(rate_mlr_, active_, mev);
        LaneMask* mlrw = &mlr_flag_[static_cast<size_t>(op.mslot) * Ws];
        for (int w = 0; w < W; ++w) {
            mlrw[w] = lk[w] ^ (mev[w] & active_[w]);
            mev[w] = 0;
        }
        break;
      }
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::run_ops(bool inline_frame)
{
    // Op i is p site n_data+i; the pl and MLR site ids advance in
    // execution order.  Each run is one op type: on the inline frame a
    // quiet op is its clean-lane word op below, and an op with a listed
    // event or (CNOT, measurement) a leaked active lane takes the
    // handler.  Resets and H need no handler for leaked lanes: their
    // masked word op is exact, and a reset's init errors are event words.
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);
    const Op* ops = rc_->ops().data();
    const uint32_t n_data = static_cast<uint32_t>(code_->n_data());
    uint32_t i = 0;
    uint32_t pl_site = n_data;
    uint32_t mlr_site = 0;
    for (const OpRun& run : runs_) {
        switch (run.type) {
          case OpType::kResetZ:
            for (; i < run.end; ++i) {
                const uint32_t p_site = n_data + i;
                if (!inline_frame) {
                    op_handler<WT>(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                const int q = ops[i].q0;
                const LaneMask* lq = leaked(q);
                LaneMask* f = frame(q);
                LaneMask* ev = p_event_words(p_site);
                for (int w = 0; w < W; ++w) {
                    const LaneMask ok = active_[w] & ~lq[w];
                    f[w] = (f[w] & ~ok) ^ (ev[w] & ok);
                    f[W + w] &= ~ok;
                    ev[w] = 0;
                }
            }
            break;
          case OpType::kH:
            for (; i < run.end; ++i) {
                const uint32_t p_site = n_data + i;
                if (!inline_frame || plan_p_.next->site == p_site) {
                    op_handler<WT>(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                const LaneMask* lq = leaked(ops[i].q0);
                LaneMask* f = frame(ops[i].q0);
                for (int w = 0; w < W; ++w) {
                    const LaneMask diff =
                        (f[w] ^ f[W + w]) & active_[w] & ~lq[w];
                    f[w] ^= diff;
                    f[W + w] ^= diff;
                }
            }
            break;
          case OpType::kCnot:
            for (; i < run.end; ++i, pl_site += 2) {
                const uint32_t p_site = n_data + i;
                if (!inline_frame || plan_p_.next->site == p_site ||
                    plan_pl_.next->site <= pl_site + 1) {
                    op_handler<WT>(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                const LaneMask* cl = leaked(ops[i].q0);
                const LaneMask* tl = leaked(ops[i].q1);
                LaneMask branch = 0;
                for (int w = 0; w < W; ++w)
                    branch |= active_[w] & (cl[w] ^ tl[w]);
                if (branch != 0) {
                    op_handler<WT>(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                // X copies c->t, Z copies t->c, on the lanes with
                // neither qubit leaked.
                LaneMask* c = frame(ops[i].q0);
                LaneMask* t = frame(ops[i].q1);
                for (int w = 0; w < W; ++w) {
                    const LaneMask clean = active_[w] & ~cl[w] & ~tl[w];
                    t[w] ^= c[w] & clean;
                    c[W + w] ^= t[W + w] & clean;
                }
            }
            break;
          case OpType::kMeasure:
            for (; i < run.end; ++i, ++mlr_site) {
                const uint32_t p_site = n_data + i;
                const int anc = ops[i].q0;
                const LaneMask* la = leaked(anc);
                LaneMask lk = 0;
                for (int w = 0; w < W; ++w)
                    lk |= active_[w] & la[w];
                if (!inline_frame || lk != 0) {
                    op_handler<WT>(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                // No lane leaked: the readout is the X frame through the
                // readout-error words, and MLR is the misclassification.
                const LaneMask* f = frame(anc);
                LaneMask* ev = p_event_words(p_site);
                LaneMask* mev = mlr_event_words(mlr_site);
                const size_t slot = static_cast<size_t>(ops[i].mslot) * Ws;
                for (int w = 0; w < W; ++w) {
                    meas_flip_[slot + static_cast<size_t>(w)] =
                        (f[w] ^ ev[w]) & active_[w];
                    mlr_flag_[slot + static_cast<size_t>(w)] =
                        mev[w] & active_[w];
                    ev[w] = 0;
                    mev[w] = 0;
                }
            }
            break;
        }
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::run_round_t(const LrcWords& lrc)
{
    const int n_checks = code_->n_checks();
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);

    // 1. Scheduled LRC gadgets (decided by the policy last round).
    lrc_gadgets<WT>(lrc);

    // Sparse: plan the round's p, pl and MLR events up front.
    if (sparse_) {
        plan_round(rate_p_, p_slot_, ev_p_.data(), &plan_p_);
        plan_round(rate_pl_, pl_slot_, nullptr, &plan_pl_);
        plan_round(rate_mlr_, mlr_slot_, ev_mlr_.data(), &plan_mlr_);
    }

    // 2. Round-start data noise: depolarization + environment leakage,
    //    per data qubit in order.  Sparse visits only the qubits with a
    //    listed event (a quiet qubit makes no call in either order).
    const uint32_t n_data = static_cast<uint32_t>(code_->n_data());
    if (sparse_) {
        for (;;) {
            const uint32_t q =
                std::min(plan_p_.next->site, plan_pl_.next->site);
            if (q >= n_data)
                break;
            depolarize1<WT>(static_cast<int>(q), q);
            leak_maybe<WT>(static_cast<int>(q), q);
        }
    } else {
        for (uint32_t q = 0; q < n_data; ++q) {
            depolarize1<WT>(static_cast<int>(q), q);
            leak_maybe<WT>(static_cast<int>(q), q);
        }
    }

    // 3. The scheduled extraction circuit, word-wide.
    run_ops<WT>(sparse_ && state_ == nullptr);
    // Every planned event was consumed: no listed site was skipped, and
    // every event word was read and zeroed by its site.
    assert(!sparse_ || (plan_p_.next->site == kNoSite &&
                        plan_pl_.next->site == kNoSite &&
                        plan_mlr_.next->site == kNoSite));
    assert(std::all_of(ev_p_.begin(), ev_p_.end(),
                       [](LaneMask m) { return m == 0; }) &&
           std::all_of(ev_mlr_.begin(), ev_mlr_.end(),
                       [](LaneMask m) { return m == 0; }));

    // 4. Detector words (also advances prev_meas_): together with the
    //    meas-flip and MLR words, the round's live word views.
    for (int c = 0; c < n_checks; ++c) {
        const bool zero_det =
            first_round_ && code_->check(c).type == CheckType::kX;
        for (int w = 0; w < W; ++w) {
            const size_t i = static_cast<size_t>(c) * Ws +
                             static_cast<size_t>(w);
            const LaneMask meas = meas_flip_[i];
            detector_[i] = zero_det ? 0 : meas ^ prev_meas_[i];
            prev_meas_[i] = meas;
        }
    }
    first_round_ = false;
}

// One words_ dispatch per round (not per op) picks a compile-time-width
// body: the W loops unroll away, and at the common W=1 every span op
// degenerates to single-word straight-line code.
void
BatchLeakageDriver::run_round_batch(const LrcWords& lrc)
{
    switch (words_) {
      case 1: run_round_t<1>(lrc); break;
      case 2: run_round_t<2>(lrc); break;
      case 4: run_round_t<4>(lrc); break;
      case 8: run_round_t<8>(lrc); break;
      default: run_round_t<0>(lrc); break;
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::final_measure_t(std::vector<std::vector<uint8_t>>* out)
{
    const int W = WT > 0 ? WT : words_;
    out->resize(static_cast<size_t>(n_lanes_));
    for (int l = 0; l < n_lanes_; ++l)
        (*out)[static_cast<size_t>(l)].assign(
            static_cast<size_t>(code_->n_data()), 0);
    for (int q = 0; q < code_->n_data(); ++q) {
        const LaneMask* lq = leaked(q);
        LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
        for (int w = 0; w < W; ++w) {
            lk[w] = active_[w] & lq[w];
            ok[w] = active_[w] & ~lk[w];
        }
        LaneMask measured[kMaxBatchWords], err[kMaxBatchWords];
        measure_z_t<WT>(q, measured);
        bernoulli_mask<WT>(rate_p_, ok, err);
        LaneMask flip[kMaxBatchWords];
        readout<WT>(measured, lk, ok, err, flip);
        for (int l = 0; l < n_lanes_; ++l)
            (*out)[static_cast<size_t>(l)][static_cast<size_t>(q)] =
                static_cast<uint8_t>((flip[l >> 6] >> (l & 63)) & 1u);
    }
}

void
BatchLeakageDriver::final_data_measure_batch(
    std::vector<std::vector<uint8_t>>* out)
{
    switch (words_) {
      case 1: final_measure_t<1>(out); break;
      case 2: final_measure_t<2>(out); break;
      case 4: final_measure_t<4>(out); break;
      case 8: final_measure_t<8>(out); break;
      default: final_measure_t<0>(out); break;
    }
}

// --- BatchLeakageDriverSim scalar adapters. ---

RoundResult
BatchLeakageDriverSim::run_round(const LrcSchedule& lrcs)
{
    one_lrcs_[0] = lrcs;
    run_round_batch(one_lrcs_, &one_round_);
    return one_round_[0];
}

std::vector<uint8_t>
BatchLeakageDriverSim::final_data_measure()
{
    driver_.final_data_measure_batch(&one_flips_);
    return one_flips_[0];
}

}  // namespace gld
