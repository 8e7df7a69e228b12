#ifndef GLD_SIM_SIMULATOR_H_
#define GLD_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"

namespace gld {

/** Outcome of one QEC round, as seen by the controller. */
struct RoundResult {
    /** Measurement flip (vs the noiseless reference) per check. */
    std::vector<uint8_t> meas_flip;
    /** Detector bits: meas_flip XOR previous round's meas_flip. */
    std::vector<uint8_t> detector;
    /** Noisy multi-level-readout leak flags per check ancilla. */
    std::vector<uint8_t> mlr_flag;
};

/** LRCs requested by a policy, applied at the start of the next round. */
struct LrcSchedule {
    std::vector<int> data_qubits;
    std::vector<int> checks;  ///< ancillas, identified by check index
    void clear()
    {
        data_qubits.clear();
        checks.clear();
    }
    bool empty() const { return data_qubits.empty() && checks.empty(); }
};

/**
 * Ground-truth view of the classical leakage state: the scalar
 * LeakageDriver itself, or one lane of the batch driver (its LaneOracle),
 * so what the accounting and the IDEAL policy read is a driver's flags.
 */
class LeakageOracle {
  public:
    virtual ~LeakageOracle() = default;

    virtual bool data_leaked(int q) const = 0;
    virtual bool check_leaked(int c) const = 0;
    /** Number of currently-leaked data qubits. */
    virtual int n_data_leaked() const = 0;
    /** Number of currently-leaked ancilla qubits. */
    virtual int n_check_leaked() const = 0;
};

/** Pauli encoding shared by the drivers and every backend: bit0 = X,
 *  bit1 = Z (both = Y up to the global phase, which no stabilizer
 *  statistic observes).  0 is the identity. */
constexpr uint32_t kPauliI = 0;
constexpr uint32_t kPauliX = 1;
constexpr uint32_t kPauliZ = 2;
constexpr uint32_t kPauliY = 3;

/** Lanes per batch word: 64 Monte-Carlo shots packed one per bit. */
constexpr int kBatchLanes = 64;

/**
 * One bit per lane: bit l set means "lane l participates".  A batch is
 * one word wide, so every per-qubit or per-check lane set is one word.
 */
using LaneMask = uint64_t;

/**
 * A batch's LRC decisions as lane masks: bit l of qubit q's word set
 * means "LRC q in lane l before the next round".  Masks are sets; every
 * lane applies its LRCs data-ascending, then checks-ascending.  Bits of
 * lanes outside the batch are ignored.
 */
struct LrcWords {
    std::vector<LaneMask> data;    ///< word per data qubit
    std::vector<LaneMask> checks;  ///< word per check (its ancilla)

    /** Sizes both to one word per qubit and zeroes every lane. */
    void reset(int n_data, int n_checks)
    {
        data.assign(static_cast<size_t>(n_data), 0);
        checks.assign(static_cast<size_t>(n_checks), 0);
    }

    /** Sets lane `lane` in the word of every id `s` schedules. */
    void add_lane(const LrcSchedule& s, int lane);
};

/**
 * The simulation backend of the closed-loop memory experiment: the
 * scheduled syndrome-extraction circuit of one code, run round by round
 * over a batch of shots in lockstep.  The packed backend (batch_frame)
 * holds 64 lanes, one word; the scalar backends (frame, tableau) are
 * one-lane batches, so there is exactly one block path and one
 * speculation-accounting implementation for all of them.  A lone shot is
 * a one-lane batch: reset_shot_batch(1), then lane 0 of every entry.
 * The classical leakage dynamics live in the shared LeakageDriver
 * (sim/leakage_driver.h) and its lockstep twin (sim/batch_driver.h).
 *
 * Contract shared by every backend:
 *  - a round applies the scheduled LRCs first, then one noisy extraction
 *    round; detector bits are meas-XOR-previous with round-0 X-check
 *    detectors forced to 0.
 *  - All randomness comes from the constructor seed (per backend:
 *    different backends agree only statistically, except frame and
 *    lockstep batch_frame, which agree bit for bit).
 *  - Fault injection (inject_*_lane) is exact and deterministic, so
 *    noiseless detector signatures are comparable ACROSS backends.
 *
 * The production round entry is run_round_batch(const LrcWords&): the
 * policy's lane masks go into the simulator as they are, and a batch
 * backend runs each gadget word-wide.  The per-lane
 * run_round_batch(schedules, out) is a packer onto it for tests, benches
 * and tools that hold one LrcSchedule per lane.
 */
class BatchSimulator {
  public:
    virtual ~BatchSimulator() = default;

    /** Human-readable backend name ("frame", "tableau", "batch_frame"). */
    virtual std::string name() const = 0;

    /**
     * Re-seeds and fully resets this simulator so everything it does from
     * here on is BIT-identical to a freshly constructed
     * make_simulator(backend, code, rc, np, seed) with the same shape
     * arguments (code/circuit/noise/sampling) and this seed.  This is the
     * per-worker reuse hook of the scheduler's zero-allocation steady
     * state: a worker keeps one simulator per config shape and resets it
     * per (stream, block) — one 64-shot block, so one 64-lane batch or
     * 64 one-lane batches — instead of reconstructing.  No observable
     * difference is permitted (the reuse ≡ fresh determinism gate pins
     * this per backend).
     */
    virtual void reset_for_block(uint64_t seed) = 0;

    /** Max shots one batch holds (64 for packed backends, else 1). */
    virtual int batch_width() const = 0;

    /** Starts a batch of n_lanes shots (see BatchLeakageDriver). */
    virtual void reset_shot_batch(int n_lanes) = 0;

    /** Shots in the current batch (reset_shot_batch's n_lanes). */
    virtual int n_lanes() const = 0;

    /** Forces lane `lane`'s data qubit q into the leaked state. */
    virtual void inject_data_leak_lane(int lane, int q) = 0;
    /** Forces lane `lane`'s ancilla of check c into the leaked state. */
    virtual void inject_check_leak_lane(int lane, int c) = 0;
    /** Applies `pauli` (kPauli*) to qubit q in lane `lane`. */
    virtual void inject_pauli_lane(int lane, int q, uint32_t pauli) = 0;

    /**
     * Ground-truth oracle of one lane's shot: a per-lane vestige that the
     * per-lane policy adapter and paperbench still read (ROADMAP 1(d)).
     */
    virtual const LeakageOracle& lane_oracle(int lane) const = 0;

    /**
     * Ground-truth leak-flag words, one per qubit (bit l = lane l) —
     * the whole batch's truth in one read, so the runner's per-round
     * speculation accounting is popcounts over words instead of
     * per-lane oracle walks.  Entry q is qubit q's word (data qubits
     * first, then ancillas).  A live
     * view: the pointer stays valid across rounds and shots, and its
     * words always hold the current flags — the runner reads it both
     * before and after run_round_batch.
     */
    virtual const LaneMask* leaked_words() const = 0;

    /**
     * One lockstep round over every active lane: the LRC gadgets of
     * `lrc` (each lane data-ascending, then checks-ascending; bits of
     * lanes outside the batch change nothing and draw nothing), then
     * one noisy extraction round.  Read the round through the word views
     * below.  `lrc` must hold n_data data words and n_checks check
     * words, else std::invalid_argument before anything runs.
     */
    void run_round_batch(const LrcWords& lrc);

    /**
     * The per-lane entry, packed onto run_round_batch(const LrcWords&);
     * a vestige kept while paperbench drives it (ROADMAP 1(d)):
     * `lane_lrcs` needs an entry per active lane, each an ascending set
     * of in-range ids, else std::invalid_argument naming the lane and
     * the id before anything runs.  A non-null `out` receives one
     * RoundResult per active lane (the word views transposed); nullptr
     * skips the transposes.
     */
    void run_round_batch(const std::vector<LrcSchedule>& lane_lrcs,
                         std::vector<RoundResult>* out);

    /**
     * Live word views of the last round, one word per CHECK (entry c):
     * measurement flips, detector bits and MLR flags.  Bits of inactive lanes are 0.
     * Valid after run_round_batch, rewritten by the next round.
     */
    virtual const LaneMask* meas_flip_words() const = 0;
    virtual const LaneMask* detector_words() const = 0;
    virtual const LaneMask* mlr_words() const = 0;

    /** Lockstep final Z readout: out[l] is lane l's flip per data qubit. */
    virtual void final_data_measure_batch(
        std::vector<std::vector<uint8_t>>* out) = 0;

  protected:
    BatchSimulator(int n_data, int n_checks)
        : n_data_(n_data), n_checks_(n_checks)
    {
    }

    /** run_round_batch(const LrcWords&) after its shape check. */
    virtual void run_round_words(const LrcWords& lrc) = 0;

  private:
    int n_data_;
    int n_checks_;
    LrcWords packed_;  ///< the per-lane entry's masks
};

/** The old name, kept while paperbench spells it (ROADMAP 1(d)). */
using Simulator = BatchSimulator;

/**
 * Rejects an LRC schedule that is not an ascending set of in-range ids
 * (data qubits in [0, n_data), checks in [0, n_checks)): throws
 * std::invalid_argument naming the lane and the id.  Every per-lane
 * round entry runs it first.
 */
void check_lrc_schedule(const LrcSchedule& sched, int lane, int n_data,
                        int n_checks);

/**
 * The available backends.  kBatchFrame, ExperimentConfig's default and
 * the engine paperbench times, packs 64 shots into one word per qubit
 * and runs them in lockstep through the batch driver.  kFrame is the
 * paper's one-lane Pauli-frame engine (samples Pauli noise exactly), kept
 * as the bit-exact oracle: kBatchFrame under lockstep noise sampling must
 * give bit-identical Metrics.  kTableau drives the exact CHP stabilizer
 * tableau through the same round circuit (slower by O(n^2) per
 * measurement; exact-stabilizer states) and is the referee's exact
 * reference.  All share the one LeakageDriver semantics for every
 * classical-leakage decision.
 */
enum class SimBackend : uint8_t {
    kFrame = 0,
    kTableau = 1,
    kBatchFrame = 2,
};

/** Canonical backend name ("frame" / "tableau" / "batch_frame"). */
const char* backend_name(SimBackend backend);

/** Every known backend, in enum order (the factory's dispatch set). */
const std::vector<SimBackend>& known_backends();

/** Comma-separated canonical names, for error messages and --help text. */
std::string known_backend_names();

/**
 * Inverse of backend_name; throws std::runtime_error naming the unknown
 * input AND listing every known backend.
 */
SimBackend backend_from_name(const std::string& name);

/**
 * The backend selected by the GLD_BACKEND environment variable — the one
 * resolution point benches and examples share.  Unset/empty means
 * ExperimentConfig's default; an unknown name throws, naming the variable
 * and the known backends.
 */
SimBackend backend_from_env();

/**
 * How the batch backends sample their Bernoulli noise sites.
 *
 * kSparse (the production engine, ExperimentConfig's default) is
 * event-driven: one dedicated scalar event stream per (stream, block)
 * work unit draws geometric skips over the flattened (site x lane)
 * position space of a round and touches only the lanes that actually
 * fire — quiet sites cost zero RNG work.  The draw sequence legitimately
 * differs from the scalar backends', so sparse batch backends register
 * their own backend_rng_contract values and are qualified STATISTICALLY
 * by `gld_campaign verify` (pooled z-tests), not by bit-diff.
 *
 * kLockstep is the scalar-aligned reference: every lane of a batch owns
 * a plain Rng stream and makes exactly the scalar driver's calls on it,
 * so lane k replays the scalar backend's shot k draw for draw — the
 * basis of the frame/batch_frame bit-equality gates.
 *
 * Scalar backends ignore the knob entirely.
 * RESULT-AFFECTING on batch backends: serialized and config-hashed when
 * != kLockstep (absence reads as lockstep).
 */
enum class NoiseSampling : uint8_t {
    kLockstep = 0,
    kSparse = 1,
};

/** Canonical mode name ("lockstep" / "sparse"). */
const char* noise_sampling_name(NoiseSampling sampling);

/** Comma-separated canonical names, for error messages and --help text. */
std::string known_noise_sampling_names();

/**
 * Inverse of noise_sampling_name; throws std::runtime_error naming the
 * unknown input AND listing every known mode.
 */
NoiseSampling noise_sampling_from_name(const std::string& name);

/**
 * The noise sampling mode selected by the GLD_NOISE_SAMPLING environment
 * variable — the one resolution point benches, tests and the demo share.
 * Unset/empty means ExperimentConfig's default; an unknown name throws,
 * naming the variable and the known modes.
 */
NoiseSampling noise_sampling_from_env();

/**
 * RNG contract group of `backend` running under `sampling` (from the one
 * backend table).  Two backends with the SAME contract id replay
 * identical (seed, stream, block) draw sequences, so any config's Metrics
 * must be BIT-identical between them — the contract behind
 * frame/batch_frame equality and the verify referee's bit-exact mode.
 * Backends with different ids draw independent randomness and agree only
 * statistically.  At kSparse the batch backends move to their own
 * contract ids (their event-driven draw sequence matches no lockstep
 * engine), while the scalar backends — which ignore the knob — keep
 * their lockstep ids.
 */
int backend_rng_contract(SimBackend backend, NoiseSampling sampling);

/**
 * Builds a backend over a code's scheduled round circuit.  Every batch
 * backend is 64 lanes wide.  `noise_sampling` selects the batch
 * backends' Bernoulli draw contract (lockstep or event-driven sparse);
 * scalar backends ignore it.  `batch_words` is a vestige that only
 * paperbench still passes (ROADMAP 1(d) deletes it): any value but 1
 * throws std::invalid_argument for every backend.
 */
std::unique_ptr<BatchSimulator> make_simulator(
    SimBackend backend, const CssCode& code, const RoundCircuit& rc,
    const NoiseParams& np, uint64_t seed, int batch_words = 1,
    NoiseSampling noise_sampling = NoiseSampling::kLockstep);

}  // namespace gld

#endif  // GLD_SIM_SIMULATOR_H_
