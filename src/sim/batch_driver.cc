#include "sim/batch_driver.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/lane_span.h"

namespace gld {

// Every decision site below mirrors sim/leakage_driver.cc (the scalar
// reference implementation) statement for statement: the scalar control
// flow runs per lane and only the state mutation is batched, as
// word-wide masked frame ops.  Under lockstep each lane's draws are
// Rng calls on that lane's own stream in the scalar within-shot order.
// When editing, keep the two files side by side — the tier-1
// frame/batch_frame bit-equality gate fails on any divergence.

BatchLeakageDriver::BatchLeakageDriver(const CssCode& code,
                                       const RoundCircuit& rc,
                                       const NoiseParams& np, Rng master,
                                       NoiseSampling noise_sampling)
    : code_(&code), rc_(&rc), np_(np), rate_p_(np.p), rate_pl_(np.pl()),
      rate_mlr_(np.mlr_err()), rate_lrc_depol_(np.lrc_depol()),
      rate_lrc_leak_(np.lrc_leak()), master_rng_(master),
      sparse_(noise_sampling == NoiseSampling::kSparse)
{
    const size_t nq = static_cast<size_t>(code.n_qubits());
    const size_t nc = static_cast<size_t>(code.n_checks());
    leaked_.assign(nq, 0);
    prev_meas_.assign(nc, 0);
    meas_flip_.assign(nc, 0);
    mlr_flag_.assign(nc, 0);
    detector_.assign(nc, 0);
    // Same fixed LRC partner per data qubit as the scalar driver.
    lrc_partner_.assign(static_cast<size_t>(code.n_data()), -1);
    for (int q = 0; q < code.n_data(); ++q) {
        if (!code.data_adjacency()[q].empty())
            lrc_partner_[static_cast<size_t>(q)] =
                code.data_adjacency()[q].front();
    }
    lane_oracles_.resize(kBatchLanes);
    for (int l = 0; l < kBatchLanes; ++l)
        lane_oracles_[static_cast<size_t>(l)].bind(this, l);
    frame_.assign(nq * 2, 0);
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
    ev_p_.assign(n_p_words, 0);
    ev_mlr_.assign(mlr_slot_.size(), 0);
    lrc_req_.resize(static_cast<size_t>(code.n_data() + code.n_checks()));
    // Like the scalar driver, shot 0's stream is live from construction
    // (one active lane) so primitive-level probing before any reset works.
    // Sparse mode has no lane streams: its one event stream (armed the
    // same way a first reset_shot_batch would arm it) replaces all
    // per-lane seeding work.
    if (sparse_)
        sparse_reset(0);
    else
        lane_rng_.assign(kBatchLanes, master_rng_.split(0));
    active_ = 1;
    n_lanes_ = 1;
}

void
BatchLeakageDriver::reset_shot_batch(int n_lanes)
{
    if (n_lanes < 1 || n_lanes > kBatchLanes)
        throw std::invalid_argument(
            "reset_shot_batch: n_lanes " + std::to_string(n_lanes) +
            " outside [1, " + std::to_string(kBatchLanes) + "]");
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    n_lanes_ = n_lanes;
    active_ = n_lanes == kBatchLanes ? ~0ull : (1ull << n_lanes) - 1;
    if (sparse_) {
        // One event stream per batch, derived from the same master at the
        // batch's first shot index: events depend only on (seed, stream,
        // block, batch #), so thread counts and shard splits cannot move
        // them.  The geometric countdowns restart with the stream.
        sparse_reset(shots_started_);
    } else {
        // Lane l replays exactly the scalar driver's (shots_started_ +
        // l)-th shot: same master, same split id, same draw order.
        for (int l = 0; l < n_lanes; ++l)
            lane_rng_[static_cast<size_t>(l)] =
                master_rng_.split(shots_started_ + static_cast<uint64_t>(l));
    }
    shots_started_ += static_cast<uint64_t>(n_lanes);
    std::fill(frame_.begin(), frame_.end(), 0);
}

void
BatchLeakageDriver::reset_for_block(Rng master)
{
    // Mirror of the constructor's tail under the new master — all lanes
    // seeded with split(0), lane 0 active, shot counter 0 — plus
    // explicit scrubbing of everything a previous block may have left:
    // flags, history, the per-check scratch words (a fresh driver's are
    // zero-initialized), and the frame.
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
    active_ = 1;
    n_lanes_ = 1;
    std::fill(frame_.begin(), frame_.end(), 0);
}

int
BatchLeakageDriver::n_data_leaked(int lane) const
{
    int n = 0;
    for (int q = 0; q < code_->n_data(); ++q)
        n += data_leaked(lane, q);
    return n;
}

int
BatchLeakageDriver::n_check_leaked(int lane) const
{
    int n = 0;
    for (int c = 0; c < code_->n_checks(); ++c)
        n += check_leaked(lane, c);
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

LaneMask
BatchLeakageDriver::sparse_bernoulli_mask(LaneRate& rate, LaneMask mask)
{
    // Degenerate rates short-circuit with zero draws, like lockstep's
    // (and Rng::bernoulli's) no-draw contract.
    if (rate.never || mask == 0)
        return 0;
    if (rate.always)
        return mask;
    const uint64_t count = static_cast<uint64_t>(__builtin_popcountll(mask));
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
    // lane order (the deterministic event order the bit-identity gate
    // pins).
    LaneMask out = 0;
    uint64_t k = rate.skip;
    while (k < count) {
        LaneMask m = mask;
        for (uint64_t i = 0; i < k; ++i)
            m &= m - 1;  // clear the k lowest set bits
        out |= m & -m;   // the k-th set lane
        k += 1 + sparse_geometric(rate);
    }
    rate.skip = k - count;
    return out;
}

__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::bernoulli_mask(LaneRate& rate, LaneMask mask)
{
    if (sparse_) {
        if (rate.never)
            return 0;
        if (rate.skip_valid) {
            const uint64_t count =
                static_cast<uint64_t>(__builtin_popcountll(mask));
            if (rate.skip >= count) {
                // The quiet site — the overwhelmingly common case at
                // paper noise rates: a popcount and one subtraction, no
                // call and zero RNG work.
                rate.skip -= count;
                return 0;
            }
        }
        return sparse_bernoulli_mask(rate, mask);
    }
    LaneMask out = 0;
    for_each_lane(mask, [&](int l) {
        if (lane_rng_[static_cast<size_t>(l)].bernoulli(rate.p))
            out |= 1ull << l;
    });
    return out;
}

void
BatchLeakageDriver::plan_round(LaneRate& rate,
                               const std::vector<uint32_t>& slot,
                               LaneMask* words, RoundPlan* plan)
{
    plan->events.clear();
    if (!rate.never) {
        // Active lanes are always the prefix [0, n_lanes), so a position's
        // lane index is its lane.  A full batch (64 lanes) splits a
        // position with a shift, not a division.
        const uint64_t n = static_cast<uint64_t>(n_lanes_);
        const uint64_t total = static_cast<uint64_t>(slot.size()) * n;
        const int shift = (n & (n - 1)) == 0 ? __builtin_ctzll(n) : -1;
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
                words[s] |= 1ull << lane;
            pos += 1 + (rate.always ? 0 : sparse_geometric(rate));
        }
        if (!rate.always)
            rate.skip = pos - total;
    }
    plan->events.push_back({kNoSite, 0});
    plan->next = plan->events.data();
}

__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::round_site(LaneRate& rate, RoundPlan& plan,
                               uint32_t site, LaneMask mask)
{
    if (!sparse_)
        return bernoulli_mask(rate, mask);
    // The quiet site: one compare with the next planned event.
    const RoundPlan::Event* e = plan.next;
    if (e->site != site)
        return 0;
    LaneMask out = 0;
    do {
        out |= 1ull << e->lane;
        ++e;
    } while (e->site == site);
    plan.next = e;
    return out & mask;  // discard events on masked-out lanes
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize1(int q, uint32_t site)
{
    const LaneMask fired = round_site(rate_p_, plan_p_, site, active_);
    if (fired == 0)
        return;
    LaneMask xs = 0, zs = 0;
    for_each_lane(fired, [&](int l) {
        const uint32_t pauli = 1 + payload_rng(l).uniform_int(3);
        xs |= static_cast<LaneMask>(pauli & 1u) << l;
        zs |= static_cast<LaneMask>((pauli >> 1) & 1u) << l;
    });
    apply_pauli(q, xs, zs);
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize2(int q0, int q1, uint32_t site)
{
    const LaneMask fired = round_site(rate_p_, plan_p_, site, active_);
    if (fired == 0)
        return;
    LaneMask x0 = 0, z0 = 0, x1 = 0, z1 = 0;
    for_each_lane(fired, [&](int l) {
        const uint32_t pauli = 1 + payload_rng(l).uniform_int(15);
        x0 |= static_cast<LaneMask>(pauli & 1u) << l;
        z0 |= static_cast<LaneMask>((pauli >> 1) & 1u) << l;
        x1 |= static_cast<LaneMask>((pauli >> 2) & 1u) << l;
        z1 |= static_cast<LaneMask>((pauli >> 3) & 1u) << l;
    });
    if (x0 | z0)
        apply_pauli(q0, x0, z0);
    if (x1 | z1)
        apply_pauli(q1, x1, z1);
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::leak_maybe(int q, uint32_t site)
{
    const LaneMask leak = round_site(rate_pl_, plan_pl_, site, active_);
    if (leak != 0)
        set_leak(q, leak);
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::cnot(int control, int target, uint32_t p_site,
                         uint32_t pl_site)
{
    const LaneMask cl = leaked(control);
    const LaneMask tl = leaked(target);
    const LaneMask clean = active_ & ~cl & ~tl;
    // Exactly-one-leaked lanes take the malfunction/transport branches;
    // both-leaked lanes do nothing observable (scalar semantics).
    const LaneMask branch = active_ & (cl ^ tl);
    if (clean != 0)
        frame_cnot(control, target, clean);

    if (branch != 0) {
        // The malfunction shape is lane-independent — whether the
        // disturbed partner is an ancilla is a property of the circuit,
        // not the shot.
        LaneMask transport = 0, xs_c = 0, zs_c = 0, xs_t = 0, zs_t = 0;
        const bool t_is_anc = target >= code_->n_data();
        const bool c_is_anc = control >= code_->n_data();
        for_each_lane(branch, [&](int l) {
            const LaneMask bit = 1ull << l;
            if ((cl & bit) != 0) {
                // Leaked control: transport with prob `mobility`, else
                // the target partner is disturbed.
                if (payload_rng(l).bernoulli(np_.mobility)) {
                    transport |= bit;
                } else if (t_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT target is Z-measured: 50% X flip.
                    if (payload_rng(l).bit())
                        xs_t |= bit;
                } else {
                    const uint32_t pauli = payload_rng(l).uniform_int(4);
                    xs_t |= static_cast<LaneMask>(pauli & 1u) << l;
                    zs_t |= static_cast<LaneMask>((pauli >> 1) & 1u) << l;
                }
            } else {
                // Leaked target: the control partner is disturbed.
                if (c_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT control (X check, between its
                    // Hadamards) is X-measured: 50% Z flip.
                    if (payload_rng(l).bit())
                        zs_c |= bit;
                } else {
                    const uint32_t pauli = payload_rng(l).uniform_int(4);
                    xs_c |= static_cast<LaneMask>(pauli & 1u) << l;
                    zs_c |= static_cast<LaneMask>((pauli >> 1) & 1u) << l;
                }
            }
        });
        if (xs_t | zs_t)
            apply_pauli(target, xs_t, zs_t);
        if (xs_c | zs_c)
            apply_pauli(control, xs_c, zs_c);
        if (transport != 0) {
            set_leak(target, transport);
            clear_leak(control, transport);
        }
    }

    depolarize2(control, target, p_site);
    leak_maybe(control, pl_site);
    leak_maybe(target, pl_site + 1);
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::lrc_gadgets(const LrcWords& lrc)
{
    // The scalar apply_lrc_data / apply_lrc_check per lane, word-wide:
    // each lane sees its gadgets data-ascending, then checks-ascending,
    // and within a gadget the scalar order of flag steps and draws.
    const int n_data = code_->n_data();
    const int n_checks = code_->n_checks();
    // The requesting qubits, in gadget order, and their clipped request
    // popcounts: the positions each gadget rate walks this round.
    int* req = lrc_req_.data();
    int n_req_data = 0, n_req = 0;
    uint64_t data_pos = 0, check_pos = 0;
    const auto scan = [&](const LaneMask* words, int n, uint64_t* pos) {
        for (int i = 0; i < n; ++i) {
            const LaneMask m = words[i] & active_;
            *pos += static_cast<uint64_t>(__builtin_popcountll(m));
            req[n_req] = i;
            n_req += m != 0;
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
    for (int k = 0; k < n_req_data; ++k) {
        const int q = req[k];
        const LaneMask m = lrc.data[static_cast<size_t>(q)] & active_;
        // SWAP with the partner ancilla + reset: the flags are
        // exchanged, so a false-positive LRC against a leaked partner
        // pumps the leak IN.
        const int pc = lrc_partner_[static_cast<size_t>(q)];
        if (pc >= 0) {
            const int anc = code_->ancilla_of(pc);
            const LaneMask hit = m & leaked(anc);
            clear_leak(q, m);
            clear_leak(anc, m);
            set_leak(q, hit);
        } else {
            clear_leak(q, m);
        }
        if (quiet)
            continue;
        // Gadget noise: depolarization, then leakage induction.
        const LaneMask depol = bernoulli_mask(rate_lrc_depol_, m);
        if (depol != 0) {
            LaneMask xs = 0, zs = 0;
            for_each_lane(depol, [&](int l) {
                const uint32_t pauli = 1 + payload_rng(l).uniform_int(3);
                xs |= static_cast<LaneMask>(pauli & 1u) << l;
                zs |= static_cast<LaneMask>((pauli >> 1) & 1u) << l;
            });
            apply_pauli(q, xs, zs);
        }
        const LaneMask leak = bernoulli_mask(rate_lrc_leak_, m);
        if (leak != 0)
            set_leak(q, leak);
    }
    for (int k = n_req_data; k < n_req; ++k) {
        const int c = req[k];
        const LaneMask m = lrc.checks[static_cast<size_t>(c)] & active_;
        const int anc = code_->ancilla_of(c);
        clear_leak(anc, m);
        frame_reset_z(anc, m);
        if (quiet)
            continue;
        const LaneMask leak = bernoulli_mask(rate_lrc_leak_, m);
        if (leak != 0)
            set_leak(anc, leak);
    }
}

__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::readout(LaneMask measured, LaneMask lk, LaneMask ok,
                            LaneMask err)
{
    // Clean lanes see the state's outcome through the readout-error site
    // (drawn by the caller, just before); leaked lanes' outcomes are
    // discarded and replaced by a coin flip.  Every lane draws once
    // across the two, so this is the scalar per-lane order in both modes
    // (sparse flips its coins from the event stream, ascending lane
    // order, after the error site).
    LaneMask rnd = 0;
    for_each_lane(lk, [&](int l) {
        if (payload_rng(l).bit())
            rnd |= 1ull << l;
    });
    return ((measured ^ err) & ok) | (rnd & lk);
}

void
BatchLeakageDriver::op_handler(const Op& op, uint32_t p_site,
                               uint32_t pl_site, uint32_t mlr_site)
{
    switch (op.type) {
      case OpType::kResetZ: {
        // Reset skips leaked lanes entirely: no state touch, no init-error
        // event (scalar semantics) — hence the masked event word.
        const LaneMask ok = active_ & ~leaked(op.q0);
        if (ok != 0)
            frame_reset_z(op.q0, ok);
        LaneMask& ev = p_event(p_site);
        if (!sparse_)
            ev = bernoulli_mask(rate_p_, ok);
        const LaneMask flip = ev & ok;
        ev = 0;
        if (flip != 0)
            apply_pauli(op.q0, flip, 0);
        break;
      }
      case OpType::kH: {
        const LaneMask ok = active_ & ~leaked(op.q0);
        if (ok != 0)
            frame_hadamard(op.q0, ok);
        depolarize1(op.q0, p_site);
        break;
      }
      case OpType::kCnot:
        cnot(op.q0, op.q1, p_site, pl_site);
        break;
      case OpType::kMeasure: {
        const int anc = op.q0;
        const LaneMask lk = active_ & leaked(anc);
        const LaneMask ok = active_ & ~lk;
        const LaneMask measured = frame(anc)[0];
        LaneMask& ev = p_event(p_site);
        if (!sparse_)
            ev = bernoulli_mask(rate_p_, ok);
        const LaneMask err = ev & ok;
        ev = 0;
        meas_flip_[static_cast<size_t>(op.mslot)] =
            readout(measured, lk, ok, err);
        // MLR leak flag with symmetric misclassification.
        LaneMask& mev = mlr_event(mlr_site);
        if (!sparse_)
            mev = bernoulli_mask(rate_mlr_, active_);
        mlr_flag_[static_cast<size_t>(op.mslot)] = lk ^ (mev & active_);
        mev = 0;
        break;
      }
    }
}

__attribute__((always_inline)) inline void
BatchLeakageDriver::run_ops(bool typed)
{
    // Op i is p site n_data+i; the pl and MLR site ids advance in
    // execution order.  Each run is one op type: a quiet op is its
    // clean-lane word op below, and an op with a listed event or (CNOT,
    // measurement) a leaked active lane takes the handler.  Resets and H
    // need no handler for leaked lanes: their masked word op is exact,
    // and a reset's init errors are event words.
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
                if (!typed) {
                    op_handler(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                const int q = ops[i].q0;
                const LaneMask ok = active_ & ~leaked(q);
                LaneMask& ev = p_event(p_site);
                frame_reset_z(q, ok);
                frame(q)[0] ^= ev & ok;
                ev = 0;
            }
            break;
          case OpType::kH:
            for (; i < run.end; ++i) {
                const uint32_t p_site = n_data + i;
                if (!typed || plan_p_.next->site == p_site) {
                    op_handler(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                frame_hadamard(ops[i].q0, active_ & ~leaked(ops[i].q0));
            }
            break;
          case OpType::kCnot:
            for (; i < run.end; ++i, pl_site += 2) {
                const uint32_t p_site = n_data + i;
                if (!typed || plan_p_.next->site == p_site ||
                    plan_pl_.next->site <= pl_site + 1) {
                    op_handler(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                const LaneMask cl = leaked(ops[i].q0);
                const LaneMask tl = leaked(ops[i].q1);
                if ((active_ & (cl ^ tl)) != 0) {
                    op_handler(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                // The lanes with neither qubit leaked.
                frame_cnot(ops[i].q0, ops[i].q1, active_ & ~cl & ~tl);
            }
            break;
          case OpType::kMeasure:
            for (; i < run.end; ++i, ++mlr_site) {
                const uint32_t p_site = n_data + i;
                const int anc = ops[i].q0;
                if (!typed || (active_ & leaked(anc)) != 0) {
                    op_handler(ops[i], p_site, pl_site, mlr_site);
                    continue;
                }
                // No lane leaked: the readout is the X frame through the
                // readout-error word, and MLR is the misclassification.
                LaneMask& ev = p_event(p_site);
                LaneMask& mev = mlr_event(mlr_site);
                const size_t slot = static_cast<size_t>(ops[i].mslot);
                meas_flip_[slot] = (frame(anc)[0] ^ ev) & active_;
                mlr_flag_[slot] = mev & active_;
                ev = 0;
                mev = 0;
            }
            break;
        }
    }
}

void
BatchLeakageDriver::run_round_batch(const LrcWords& lrc)
{
    // 1. Scheduled LRC gadgets (decided by the policy last round).
    lrc_gadgets(lrc);

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
            depolarize1(static_cast<int>(q), q);
            leak_maybe(static_cast<int>(q), q);
        }
    } else {
        for (uint32_t q = 0; q < n_data; ++q) {
            depolarize1(static_cast<int>(q), q);
            leak_maybe(static_cast<int>(q), q);
        }
    }

    // 3. The scheduled extraction circuit, word-wide.
    run_ops(sparse_);
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
    for (int c = 0; c < code_->n_checks(); ++c) {
        const size_t i = static_cast<size_t>(c);
        const bool zero_det =
            first_round_ && code_->check(c).type == CheckType::kX;
        detector_[i] = zero_det ? 0 : meas_flip_[i] ^ prev_meas_[i];
        prev_meas_[i] = meas_flip_[i];
    }
    first_round_ = false;
}

void
BatchLeakageDriver::final_data_measure_batch(
    std::vector<std::vector<uint8_t>>* out)
{
    out->resize(static_cast<size_t>(n_lanes_));
    for (int l = 0; l < n_lanes_; ++l)
        (*out)[static_cast<size_t>(l)].assign(
            static_cast<size_t>(code_->n_data()), 0);
    for (int q = 0; q < code_->n_data(); ++q) {
        const LaneMask lk = active_ & leaked(q);
        const LaneMask ok = active_ & ~lk;
        const LaneMask measured = frame(q)[0];
        const LaneMask err = bernoulli_mask(rate_p_, ok);
        const LaneMask flip = readout(measured, lk, ok, err);
        for (int l = 0; l < n_lanes_; ++l)
            (*out)[static_cast<size_t>(l)][static_cast<size_t>(q)] =
                static_cast<uint8_t>((flip >> l) & 1u);
    }
}

BatchLeakageDriverSim::BatchLeakageDriverSim(const CssCode& code,
                                             const RoundCircuit& rc,
                                             const NoiseParams& np,
                                             uint64_t seed,
                                             NoiseSampling noise_sampling)
    : BatchSimulator(code.n_data(), code.n_checks()),
      driver_(code, rc, np, Rng(seed), noise_sampling)
{
}

void
BatchLeakageDriverSim::run_round_words(const LrcWords& lrc)
{
    driver_.run_round_batch(lrc);
}

}  // namespace gld
