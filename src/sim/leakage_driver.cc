#include "sim/leakage_driver.h"

namespace gld {

LeakageDriver::LeakageDriver(const CssCode& code, const RoundCircuit& rc,
                             const NoiseParams& np, Rng noise_rng,
                             StatePrimitives* state)
    : code_(&code), rc_(&rc), np_(np), master_rng_(noise_rng),
      rng_(noise_rng.split(0)), state_(state)
{
    const int nq = code.n_qubits();
    leaked_.assign(static_cast<size_t>(nq), 0);
    prev_meas_.assign(static_cast<size_t>(code.n_checks()), 0);
    // Fixed LRC partner per data qubit: its first adjacent check's ancilla.
    // Identical across backends by construction, so LRC-induced leak flow
    // (the pump-in mechanism of §3.3) matches everywhere.
    lrc_partner_.assign(static_cast<size_t>(code.n_data()), -1);
    for (int q = 0; q < code.n_data(); ++q) {
        if (!code.data_adjacency()[q].empty())
            lrc_partner_[static_cast<size_t>(q)] =
                code.data_adjacency()[q].front();
    }
}

void
LeakageDriver::reset_shot()
{
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    // Shot k draws from its own split of the master, so a shot's draw
    // sequence depends only on (master seed, k) — never on the draw count
    // of the shots before it.  The batch driver relies on this to replay
    // 64 shots in lockstep bit-identically (lane k == shot k).
    rng_ = master_rng_.split(shot_index_++);
    state_->reset_state();
}

void
LeakageDriver::reset_for_block(Rng noise_rng)
{
    // Mirror of the constructor's RNG state (master + split(0) current
    // stream, shot counter 0) plus an explicit backend-state reset — a
    // fresh driver gets a fresh backend for free, a reused one must
    // scrub whatever the previous block left.
    master_rng_ = noise_rng;
    rng_ = master_rng_.split(0);
    shot_index_ = 0;
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    state_->reset_state();
}

void
LeakageDriver::set_leak(int q)
{
    if (leaked_[static_cast<size_t>(q)])
        return;
    leaked_[static_cast<size_t>(q)] = 1;
    state_->park_leaked(q);
}

int
LeakageDriver::n_data_leaked() const
{
    int n = 0;
    for (int q = 0; q < code_->n_data(); ++q)
        n += static_cast<int>(leaked_[static_cast<size_t>(q)]);
    return n;
}

int
LeakageDriver::n_check_leaked() const
{
    int n = 0;
    for (int c = 0; c < code_->n_checks(); ++c)
        n += static_cast<int>(
            leaked_[static_cast<size_t>(code_->ancilla_of(c))]);
    return n;
}

void
LeakageDriver::depolarize1(int q)
{
    if (!rng_.bernoulli(np_.p))
        return;
    state_->apply_pauli(q, 1 + rng_.uniform_int(3));
}

void
LeakageDriver::depolarize2(int q0, int q1)
{
    if (!rng_.bernoulli(np_.p))
        return;
    // One of the 15 non-identity two-qubit Paulis, uniformly.
    const uint32_t pauli = 1 + rng_.uniform_int(15);
    state_->apply_pauli(q0, pauli & 3u);
    state_->apply_pauli(q1, (pauli >> 2) & 3u);
}

void
LeakageDriver::leak_maybe(int q)
{
    if (rng_.bernoulli(np_.pl()))
        set_leak(q);
}

void
LeakageDriver::cnot(int control, int target)
{
    const bool cl = leaked(control);
    const bool tl = leaked(target);
    if (!cl && !tl) {
        state_->coherent_cnot(control, target);
    } else if (cl && !tl) {
        // Leaked control: transport with prob `mobility` (the leakage
        // population moves to the target), else the gate malfunctions and
        // the target is disturbed (paper §2.3).
        if (rng_.bernoulli(np_.mobility)) {
            set_leak(target);
            clear_leak(control);
        } else {
            malfunction(target, /*is_control=*/false);
        }
    } else if (!cl && tl) {
        // Leaked target: the control is disturbed.
        malfunction(control, /*is_control=*/true);
    }
    // Both leaked: gate does nothing observable in the subspace.

    // Gate-induced depolarizing and leakage on both operands.
    depolarize2(control, target);
    leak_maybe(control);
    leak_maybe(target);
}

void
LeakageDriver::malfunction(int partner, bool is_control)
{
    const bool partner_is_ancilla = partner >= code_->n_data();
    if (partner_is_ancilla && !np_.leaked_gate_backaction) {
        // IBM characterization (§2.3): the malfunction manifests as an
        // independent 50% flip of the ancilla's measured bit.  A Z-check
        // ancilla (CNOT target) is measured in Z: flip via X.  An X-check
        // ancilla (CNOT control, conjugated by H) is measured in X between
        // its Hadamards: flip via Z.  Neither component propagates through
        // the ancilla's remaining CNOTs.
        if (rng_.bit())
            state_->apply_pauli(partner, is_control ? kPauliZ : kPauliX);
        return;
    }
    // Full back-action: a uniformly random Pauli on the partner.
    state_->apply_pauli(partner, rng_.uniform_int(4));
}

void
LeakageDriver::apply_lrc_data(int q)
{
    // SWAP with the partner ancilla + reset: exchanges the leak flags,
    // then the ancilla side is reset (cleared).  What happens to the
    // computational state is the backend's approximation — a frame
    // backend preserves the frame through the gadget (state swapped back
    // after the ancilla reset), an exact backend rejoins with the parked
    // collapsed state — but the flag dynamics are the driver's alone.
    const int pc = lrc_partner_[static_cast<size_t>(q)];
    if (pc >= 0) {
        const int anc = code_->ancilla_of(pc);
        const bool anc_was_leaked = leaked(anc);
        clear_leak(q);
        clear_leak(anc);
        if (anc_was_leaked)
            set_leak(q);  // false-positive LRC pumps the partner's leak IN
    } else {
        clear_leak(q);
    }
    // Gadget noise: ~3 CNOTs of depolarizing + leakage induction.
    if (rng_.bernoulli(np_.lrc_depol()))
        state_->apply_pauli(q, 1 + rng_.uniform_int(3));
    if (rng_.bernoulli(np_.lrc_leak()))
        set_leak(q);
}

void
LeakageDriver::apply_lrc_check(int c)
{
    const int anc = code_->ancilla_of(c);
    clear_leak(anc);
    state_->reset_z(anc);
    if (rng_.bernoulli(np_.lrc_leak()))
        set_leak(anc);
}

RoundResult
LeakageDriver::run_round(const LrcSchedule& lrcs)
{
    const int n_checks = code_->n_checks();
    check_lrc_schedule(lrcs, 0, code_->n_data(), n_checks);
    RoundResult out;
    out.meas_flip.assign(static_cast<size_t>(n_checks), 0);
    out.detector.assign(static_cast<size_t>(n_checks), 0);
    out.mlr_flag.assign(static_cast<size_t>(n_checks), 0);

    // 1. Scheduled LRC gadgets (decided by the policy last round).
    for (int q : lrcs.data_qubits)
        apply_lrc_data(q);
    for (int c : lrcs.checks)
        apply_lrc_check(c);

    // 2. Round-start data noise: depolarization + environment leakage.
    for (int q = 0; q < code_->n_data(); ++q) {
        depolarize1(q);
        leak_maybe(q);
    }

    // 3. Execute the scheduled extraction circuit; gates skip leaked
    //    operands (their coherent action malfunctions instead).
    for (const Op& op : rc_->ops()) {
        switch (op.type) {
          case OpType::kResetZ:
            // Reset does not clear leakage, and a reset pulse has no
            // effect on a parked |2> state (no init-error draw either:
            // the draw sequence is leak-trajectory-dependent, identically
            // on every backend).
            if (!leaked(op.q0)) {
                state_->reset_z(op.q0);
                if (rng_.bernoulli(np_.p))
                    state_->apply_pauli(op.q0, kPauliX);  // flips to |1>
            }
            break;
          case OpType::kH:
            if (!leaked(op.q0))
                state_->hadamard(op.q0);
            depolarize1(op.q0);
            break;
          case OpType::kCnot:
            cnot(op.q0, op.q1);
            break;
          case OpType::kMeasure: {
            const int anc = op.q0;
            uint8_t flip;
            if (leaked(anc)) {
                // Two-level readout of a leaked qubit: random outcome.
                flip = rng_.bit() ? 1 : 0;
            } else {
                flip = state_->measure_z(anc);
                if (rng_.bernoulli(np_.p))
                    flip ^= 1;
            }
            out.meas_flip[static_cast<size_t>(op.mslot)] = flip;
            // MLR leak flag with symmetric misclassification.
            uint8_t leak_flag = leaked(anc) ? 1 : 0;
            if (rng_.bernoulli(np_.mlr_err()))
                leak_flag ^= 1;
            out.mlr_flag[static_cast<size_t>(op.mslot)] = leak_flag;
            break;
          }
        }
    }

    // 4. Detector bits.
    for (int c = 0; c < n_checks; ++c) {
        if (first_round_ && code_->check(c).type == CheckType::kX) {
            // Round-0 X-check outcomes are random projections in a Z-basis
            // memory; they carry no detector information.
            out.detector[static_cast<size_t>(c)] = 0;
        } else {
            out.detector[static_cast<size_t>(c)] =
                out.meas_flip[static_cast<size_t>(c)] ^
                prev_meas_[static_cast<size_t>(c)];
        }
    }
    prev_meas_ = out.meas_flip;
    first_round_ = false;
    return out;
}

std::vector<uint8_t>
LeakageDriver::final_data_measure()
{
    std::vector<uint8_t> flips(static_cast<size_t>(code_->n_data()), 0);
    for (int q = 0; q < code_->n_data(); ++q) {
        uint8_t flip;
        if (leaked(q)) {
            flip = rng_.bit() ? 1 : 0;
        } else {
            flip = state_->measure_z(q);
            if (rng_.bernoulli(np_.p))
                flip ^= 1;
        }
        flips[static_cast<size_t>(q)] = flip;
    }
    return flips;
}

void
LeakageDriverSim::run_round_words(const LrcWords& lrc)
{
    lane0_.clear();
    for (size_t q = 0; q < lrc.data.size(); ++q) {
        if (lrc.data[q] & 1u)
            lane0_.data_qubits.push_back(static_cast<int>(q));
    }
    for (size_t c = 0; c < lrc.checks.size(); ++c) {
        if (lrc.checks[c] & 1u)
            lane0_.checks.push_back(static_cast<int>(c));
    }
    run_round(lane0_);
}

RoundResult
LeakageDriverSim::run_round(const LrcSchedule& lrcs)
{
    RoundResult rr = driver_.run_round(lrcs);
    for (size_t c = 0; c < rr.meas_flip.size(); ++c) {
        meas_flip_words_[c] = rr.meas_flip[c];
        detector_words_[c] = rr.detector[c];
        mlr_words_[c] = rr.mlr_flag[c];
    }
    return rr;
}

}  // namespace gld
