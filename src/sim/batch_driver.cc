#include "sim/batch_driver.h"

#include <algorithm>
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
    state_->reset_state();
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
    state_->reset_state();
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

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize1(int q)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) == 0)
        return;
    LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
    lanes_zero(xs, W);
    lanes_zero(zs, W);
    for_each_lane(fired, W, [&](int l) {
        const uint32_t pauli = 1 + payload_rng(l).uniform_int(3);
        xs[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
        zs[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u) << (l & 63);
    });
    state_->apply_pauli(q, xs, zs);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize2(int q0, int q1)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) == 0)
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
        state_->apply_pauli(q0, x0, z0);
    if (lanes_any(x1, W) | lanes_any(z1, W))
        state_->apply_pauli(q1, x1, z1);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::leak_maybe(int q)
{
    LaneMask leak[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_pl_, active_, leak) != 0)
        set_leak_t<WT>(q, leak);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::cnot(int control, int target)
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
        state_->coherent_cnot(control, target, clean);

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
            state_->apply_pauli(target, xs_t, zs_t);
        if (lanes_any(xs_c, W) | lanes_any(zs_c, W))
            state_->apply_pauli(control, xs_c, zs_c);
        if (lanes_any(transport, W) != 0) {
            set_leak_t<WT>(target, transport);
            clear_leak(control, transport);
        }
    }

    depolarize2<WT>(control, target);
    leak_maybe<WT>(control);
    leak_maybe<WT>(target);
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
    LaneMask m[kMaxBatchWords], hit[kMaxBatchWords];
    const auto requested = [&](const LaneMask* req) {
        LaneMask any = 0;
        for (int w = 0; w < W; ++w) {
            m[w] = req[w] & active_[w];
            any |= m[w];
        }
        return any;
    };
    for (int q = 0; q < code_->n_data(); ++q) {
        if (requested(&lrc.data[static_cast<size_t>(q) * Ws]) == 0)
            continue;
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
            state_->apply_pauli(q, xs, zs);
        }
        if (bernoulli_mask<WT>(rate_lrc_leak_, m, hit) != 0)
            set_leak_t<WT>(q, hit);
    }
    for (int c = 0; c < code_->n_checks(); ++c) {
        if (requested(&lrc.checks[static_cast<size_t>(c) * Ws]) == 0)
            continue;
        const int anc = code_->ancilla_of(c);
        clear_leak(anc, m);
        state_->reset_z(anc, m);
        if (bernoulli_mask<WT>(rate_lrc_leak_, m, hit) != 0)
            set_leak_t<WT>(anc, hit);
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::readout(const LaneMask* measured, const LaneMask* lk,
                            const LaneMask* ok, LaneMask* flip)
{
    // Clean lanes see the state's outcome through the readout-error site;
    // leaked lanes' outcomes are discarded and replaced by a coin flip.
    // Every lane draws once here, so this is the scalar per-lane order in
    // both modes (sparse flips its coins from the event stream, ascending
    // lane order, after the error site).
    const int W = WT > 0 ? WT : words_;
    LaneMask err[kMaxBatchWords], rnd[kMaxBatchWords];
    bernoulli_mask<WT>(rate_p_, ok, err);
    lanes_zero(rnd, W);
    for_each_lane(lk, W, [&](int l) {
        if (payload_rng(l).bit())
            set_lane_bit(rnd, l);
    });
    for (int w = 0; w < W; ++w)
        flip[w] = ((measured[w] ^ err[w]) & ok[w]) | (rnd[w] & lk[w]);
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

    // 2. Round-start data noise: depolarization + environment leakage.
    for (int q = 0; q < code_->n_data(); ++q) {
        depolarize1<WT>(q);
        leak_maybe<WT>(q);
    }

    // 3. The scheduled extraction circuit, word-wide.
    for (const Op& op : rc_->ops()) {
        switch (op.type) {
          case OpType::kResetZ: {
            // Reset skips leaked lanes entirely: no state touch, no
            // init-error draw (scalar semantics) — hence the masked site.
            const LaneMask* lq = leaked(op.q0);
            LaneMask ok[kMaxBatchWords];
            LaneMask any_ok = 0;
            for (int w = 0; w < W; ++w) {
                ok[w] = active_[w] & ~lq[w];
                any_ok |= ok[w];
            }
            if (any_ok != 0) {
                state_->reset_z(op.q0, ok);
                LaneMask flip[kMaxBatchWords];
                if (bernoulli_mask<WT>(rate_p_, ok, flip) != 0) {
                    LaneMask none[kMaxBatchWords];
                    lanes_zero(none, W);
                    state_->apply_pauli(op.q0, flip, none);
                }
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
                state_->hadamard(op.q0, ok);
            depolarize1<WT>(op.q0);
            break;
          }
          case OpType::kCnot:
            cnot<WT>(op.q0, op.q1);
            break;
          case OpType::kMeasure: {
            const int anc = op.q0;
            const LaneMask* la = leaked(anc);
            LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
            for (int w = 0; w < W; ++w) {
                lk[w] = active_[w] & la[w];
                ok[w] = active_[w] & ~lk[w];
            }
            LaneMask measured[kMaxBatchWords];
            state_->measure_z(anc, measured);
            readout<WT>(measured, lk, ok,
                        &meas_flip_[static_cast<size_t>(op.mslot) * Ws]);
            // MLR leak flag with symmetric misclassification.
            LaneMask* mlrw =
                &mlr_flag_[static_cast<size_t>(op.mslot) * Ws];
            LaneMask mlrt[kMaxBatchWords];
            bernoulli_mask<WT>(rate_mlr_, active_, mlrt);
            for (int w = 0; w < W; ++w)
                mlrw[w] = lk[w] ^ mlrt[w];
            break;
          }
        }
    }

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
        LaneMask measured[kMaxBatchWords];
        state_->measure_z(q, measured);
        LaneMask flip[kMaxBatchWords];
        readout<WT>(measured, lk, ok, flip);
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
