#ifndef GLD_SIM_LEAKAGE_DRIVER_H_
#define GLD_SIM_LEAKAGE_DRIVER_H_

#include <cstdint>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gld {

/**
 * The narrow quantum-state interface a simulation backend provides to the
 * shared LeakageDriver.  A backend owns ONLY the computational-subspace
 * representation (Pauli frame, CHP tableau, ...); every classical
 * leak-flag decision — what malfunctions, what transports, what an LRC
 * does, which noise draw happens when — lives in the driver, so the
 * semantics of the paper cannot drift between backends.
 *
 * Determinism contract: the driver performs every noise draw from its own
 * RNG.  A primitive may consume its own backend-private randomness (e.g. a
 * tableau measurement of a qubit not in a Z eigenstate) but must never
 * touch the driver's stream, so the driver's draw sequence is identical
 * across backends given the same leak-flag trajectory.
 */
class StatePrimitives {
  public:
    virtual ~StatePrimitives() = default;

    /** Re-initializes the whole state to |0...0> for a new shot. */
    virtual void reset_state() = 0;

    /** Applies a Pauli (kPauli* encoding) to qubit q. */
    virtual void apply_pauli(int q, uint32_t pauli) = 0;

    /** The coherent CNOT action (both operands in the subspace). */
    virtual void coherent_cnot(int control, int target) = 0;

    /** The coherent Hadamard action. */
    virtual void hadamard(int q) = 0;

    /** Noiseless reset of one qubit to |0> (init error is the driver's). */
    virtual void reset_z(int q) = 0;

    /**
     * Z-basis readout of a non-leaked qubit: returns the outcome as a flip
     * vs the noiseless reference (classical readout error is the
     * driver's).  An exact backend may collapse state here and may return
     * genuinely random projection values — the driver only ever combines
     * outcomes into detector/parity bits, where the reference cancels.
     */
    virtual uint8_t measure_z(int q) = 0;

    /**
     * Hook fired when qubit q's leak flag rises 0 -> 1: the qubit leaves
     * the computational subspace until an LRC clears it.  A frame backend
     * simply freezes the frame (no-op); an exact backend collapses the
     * departing qubit so the remaining stabilizer state stays
     * well-defined.
     */
    virtual void park_leaked(int q) = 0;
};

/**
 * The backend-agnostic classical-leakage round driver — the single home of
 * the paper's leakage semantics (§2.3/§2.4/§6), executed over any
 * StatePrimitives provider:
 *
 *  - CNOT with a leaked operand does not perform its coherent action; the
 *    non-leaked partner receives a uniformly random Pauli (an ancilla
 *    partner: an independent 50% flip of its measured bit, unless
 *    `leaked_gate_backaction`).  If the control is leaked, the leakage is
 *    instead transported to the target with probability `mobility`.
 *  - Two-level readout of a leaked qubit returns a uniformly random
 *    outcome; MLR reports the true leak flag with symmetric error mlr*p.
 *  - Measurement + reset do NOT clear leakage (a reset pulse has no
 *    effect on a parked |2> state); only LRC gadgets do.
 *  - A data-qubit LRC is a SWAP with a designated partner ancilla followed
 *    by reset: it *exchanges* leakage with the partner (a false-positive
 *    LRC against a leaked ancilla pumps leakage INTO the data qubit), then
 *    applies gadget noise.  An ancilla LRC resets the ancilla.
 *
 * The driver owns the leak flags, the previous-round measurement record,
 * and the noise RNG; it implements the ground-truth LeakageOracle that
 * oracle policies and the runner's speculation accounting read.
 */
class LeakageDriver final : public LeakageOracle {
  public:
    /**
     * @param noise_rng the shot-MASTER stream: shot k of this driver
     *        draws from noise_rng.split(k), re-derived at every
     *        reset_shot() (the first shot's stream, split(0), is active
     *        from construction).  Per-shot streams are what make the
     *        bit-packed batch driver possible — lane k of a batch replays
     *        exactly shot k's draw sequence, independent of how many
     *        draws the other shots consumed (sim/batch_driver.h).
     * @param state the backend's primitives; must outlive the driver.
     */
    LeakageDriver(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, Rng noise_rng,
                  StatePrimitives* state);

    // Non-copyable: the driver holds a pointer to its backend's
    // primitives (typically the enclosing simulator itself), so a copy
    // would drive the ORIGINAL object's quantum state.  This also makes
    // every LeakageDriverSim backend non-copyable, which is the point.
    LeakageDriver(const LeakageDriver&) = delete;
    LeakageDriver& operator=(const LeakageDriver&) = delete;

    /**
     * Clears flags, measurement history and the backend state, and
     * advances the noise stream to the next shot's split of the master
     * (shot k draws from master.split(k) regardless of how many draws
     * earlier shots made).
     */
    void reset_shot();

    /**
     * Restores the driver to its just-constructed state under a NEW
     * master stream: flags/history cleared, the shot counter rewound to
     * 0, the current stream re-derived as noise_rng.split(0) (exactly
     * the post-construction state), and the backend state
     * re-initialized.  The simulator-reuse path resets a cached driver
     * per scheduler block with the block's own master, making reuse
     * bit-identical to fresh construction.
     */
    void reset_for_block(Rng noise_rng);

    /** Raises qubit q's leak flag (fires park_leaked on 0 -> 1). */
    void set_leak(int q);
    /** Raises the leak flag of check c's ancilla. */
    void set_check_leak(int c) { set_leak(code_->ancilla_of(c)); }
    /** Clears a qubit's leak flag (tests). */
    void clear_leak(int q) { leaked_[q] = 0; }
    /** Leak flag of any qubit (data or ancilla index). */
    bool leaked(int q) const { return leaked_[q] != 0; }

    // --- LeakageOracle (ground truth). ---
    bool data_leaked(int q) const override { return leaked_[q] != 0; }
    bool check_leaked(int c) const override
    {
        return leaked_[code_->ancilla_of(c)] != 0;
    }
    int n_data_leaked() const override;
    int n_check_leaked() const override;

    /**
     * The flag array itself, one 0/1 word per qubit (data qubits first,
     * then ancillas): exactly a one-lane batch's leak-word span, so
     * LeakageDriverSim hands it out as its live leaked_words() view.
     */
    const LaneMask* leaked_words() const { return leaked_.data(); }

    /**
     * Applies the scheduled LRC gadgets (start-of-round semantics), then
     * executes one noisy syndrome-extraction round over the primitives.
     * A schedule that is not an ascending set of in-range ids throws
     * std::invalid_argument (as lane 0) before anything runs.
     */
    RoundResult run_round(const LrcSchedule& lrcs);

    /**
     * Transversal Z-basis readout of all data qubits; leaked qubits read
     * out randomly, the rest via the measure_z primitive + readout error.
     */
    std::vector<uint8_t> final_data_measure();

    /** The LRC partner ancilla (check index) used for data qubit q. */
    int lrc_partner(int q) const { return lrc_partner_[q]; }

    Rng& rng() { return rng_; }
    const NoiseParams& noise() const { return np_; }

  private:
    void apply_lrc_data(int q);
    void apply_lrc_check(int c);
    void depolarize1(int q);
    void depolarize2(int q0, int q1);
    void leak_maybe(int q);
    void cnot(int control, int target);
    void malfunction(int partner, bool is_control);

    const CssCode* code_;
    const RoundCircuit* rc_;
    NoiseParams np_;
    Rng master_rng_;        ///< per-shot streams split off this
    Rng rng_;               ///< the CURRENT shot's stream
    uint64_t shot_index_ = 0;  ///< shots started (next reset_shot id)
    StatePrimitives* state_;

    std::vector<LaneMask> leaked_;  ///< leak flag (0/1) per qubit
    std::vector<uint8_t> prev_meas_;
    std::vector<int> lrc_partner_;
    bool first_round_ = true;
};

/**
 * A one-lane BatchSimulator implemented as a LeakageDriver over this
 * object's own StatePrimitives: derive, implement the primitives plus
 * name(), and the entire leakage semantics comes along.  Both scalar
 * backends are built this way, which is what keeps them semantically
 * identical by construction: a new backend is a primitives provider, not
 * a re-implementation of the round dynamics.
 *
 * Lane 0 is the driver's current shot, so the runner drives scalar and
 * packed backends through the same block path.  The word round entry
 * unpacks bit 0 of the LRC masks into an ascending schedule for the
 * driver's run_round.
 */
class LeakageDriverSim : public BatchSimulator, protected StatePrimitives {
  public:
    int batch_width() const final { return 1; }
    void reset_shot_batch(int /*n_lanes == 1*/) final
    {
        driver_.reset_shot();
    }
    int n_lanes() const final { return 1; }
    void inject_data_leak_lane(int /*lane == 0*/, int q) final
    {
        driver_.set_leak(q);
    }
    void inject_check_leak_lane(int /*lane == 0*/, int c) final
    {
        driver_.set_check_leak(c);
    }
    void inject_pauli_lane(int /*lane == 0*/, int q, uint32_t pauli) final
    {
        apply_pauli(q, pauli);
    }
    const LeakageOracle& lane_oracle(int /*lane == 0*/) const final
    {
        return driver_;
    }
    const LaneMask* leaked_words() const final
    {
        return driver_.leaked_words();
    }
    const LaneMask* meas_flip_words() const final
    {
        return meas_flip_words_.data();
    }
    const LaneMask* detector_words() const final
    {
        return detector_words_.data();
    }
    const LaneMask* mlr_words() const final { return mlr_words_.data(); }
    void final_data_measure_batch(
        std::vector<std::vector<uint8_t>>* out) final
    {
        out->resize(1);
        (*out)[0] = driver_.final_data_measure();
    }

    /**
     * Default reuse reset for backends whose only randomness is the
     * driver's (the frame backend): fresh construction passes Rng(seed)
     * as the driver master, so resetting the driver with Rng(seed)
     * reproduces it exactly.  A backend with private randomness
     * (tableau projections) overrides this to re-derive BOTH streams
     * from the seed, mirroring its constructor.
     */
    void reset_for_block(uint64_t seed) override
    {
        driver_.reset_for_block(Rng(seed));
    }

    /** The LRC partner ancilla (check index) used for data qubit q. */
    int lrc_partner(int q) const { return driver_.lrc_partner(q); }

    /** The shared round driver (tests: drift gate, semantics probes). */
    const LeakageDriver& driver() const { return driver_; }

  protected:
    /**
     * @param noise_rng the driver's noise stream; a backend with private
     *        randomness (e.g. tableau projections) must derive both from
     *        its seed so one seed still fixes the whole shot sequence.
     */
    LeakageDriverSim(const CssCode& code, const RoundCircuit& rc,
                     const NoiseParams& np, Rng noise_rng)
        : BatchSimulator(code.n_data(), code.n_checks()),
          driver_(code, rc, np, noise_rng, this),
          meas_flip_words_(static_cast<size_t>(code.n_checks()), 0),
          detector_words_(static_cast<size_t>(code.n_checks()), 0),
          mlr_words_(static_cast<size_t>(code.n_checks()), 0)
    {
    }

    /** One driver round, packed into the one-lane word views (bit 0). */
    void run_round_words(const LrcWords& lrc) final;

    LeakageDriver driver_;

  private:
    LrcSchedule lane0_;  ///< lane 0's LRCs, unpacked from the masks
    // The last round as one-lane word spans (one 0/1 word per check).
    std::vector<LaneMask> meas_flip_words_;
    std::vector<LaneMask> detector_words_;
    std::vector<LaneMask> mlr_words_;
};

}  // namespace gld

#endif  // GLD_SIM_LEAKAGE_DRIVER_H_
