#ifndef GLD_RUNTIME_EXPERIMENT_H_
#define GLD_RUNTIME_EXPERIMENT_H_

#include <functional>
#include <memory>

#include "core/code_context.h"
#include "core/policy.h"
#include "core/spec_model.h"
#include "decode/union_find.h"
#include "noise/noise_model.h"
#include "runtime/metrics.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace gld {

/** Configuration of one memory experiment (code x policy x noise). */
struct ExperimentConfig {
    NoiseParams np;
    int rounds = 10;
    int shots = 100;
    uint64_t seed = 0x5EED5EEDull;
    /**
     * Leakage sampling (paper §6): start every shot with at least one
     * leaked data qubit so long-horizon DLP statistics converge with
     * 100x fewer shots.
     */
    bool leakage_sampling = false;
    /** Decode for LER (surface code / memory-Z only). */
    bool compute_ler = false;
    /** Record the per-round DLP series (Fig 10/11). */
    bool record_dlp_series = false;
    int threads = 1;
    /**
     * Number of independent RNG streams the shots are partitioned into.
     * Results depend on this value but NOT on `threads`: the same
     * (seed, rng_streams, backend) gives bit-identical Metrics for any
     * thread count.
     */
    int rng_streams = 32;
    /**
     * Simulation backend executing the round circuit (frame = fast
     * Pauli-frame engine, tableau = exact CHP stabilizer engine).
     * Result-affecting: serialized and part of the config hash.
     */
    SimBackend backend = SimBackend::kFrame;
    /**
     * Vestige of the removed block multiplier, kept only because
     * paperbench still reads it (ROADMAP 1(d) deletes it): a scheduler
     * block is always ExperimentRunner::kShotBlock shots.  Not settable,
     * not serialized; a document carrying "batch_words" is refused.
     */
    static constexpr int batch_words = 1;
    /**
     * The batch backends' Bernoulli draw contract (sim/simulator.h):
     * kSparse, the default, draws geometric event skips from one
     * per-(stream, block) stream and touches only firing lanes; kLockstep
     * is the scalar-aligned reference, a plain per-lane Rng in the scalar
     * draw order, behind the frame/batch_frame bit-equality gates.
     * RESULT-AFFECTING on the batch backends — sparse draws a different
     * (statistically equivalent, verify-qualified) sequence — so it is
     * serialized and config-hashed when != kLockstep: documents without
     * the field read as lockstep and keep their hashes byte for byte.
     * The scalar backends ignore it entirely.  This is
     * the one place the default is written: CampaignSpec and
     * noise_sampling_from_env() read it from here.
     */
    NoiseSampling noise_sampling = NoiseSampling::kSparse;
    /**
     * Reuse per-worker simulator/policy/decoder state across (stream,
     * block) work units (the zero-allocation steady state) instead of
     * reconstructing per block.  NEVER result-affecting: a reused
     * simulator is reset_for_block()-ed with exactly the seed a fresh
     * construction would get, so Metrics are bit-identical either way
     * (the reuse ≡ fresh determinism gate pins this per backend and
     * thread count).  Not serialized and not config-hashed, like
     * `threads`.  The `false` arm exists for that gate and for
     * allocation-sensitivity triage.
     */
    bool reuse_worker_state = true;
};

/**
 * Builds a policy.  The runner calls it lazily — once per (executor
 * slot, config) when worker-state reuse is on, once per (RNG stream,
 * shot block) work unit with reuse off — and reuses the instance across
 * blocks, with begin_batch() as the per-shot reset point.  A batched()
 * policy decides for the whole lockstep batch; any other is built once
 * per lane more and run behind a LaneAdapterPolicy, with begin_shot()
 * as its reset point.  A policy must therefore not carry state across
 * shots except through observe/begin_shot (or their batched forms), and
 * must not derive result-affecting state from `seed` (every in-tree
 * policy ignores it); that is what keeps the build count
 * schedule-irrelevant.
 */
using PolicyFactory = std::function<std::unique_ptr<Policy>(
    const CodeContext& ctx, uint64_t seed)>;

/**
 * The memory-experiment runner: per shot it replays `rounds` noisy QEC
 * rounds, feeding each round's syndrome + MLR to the policy and applying
 * the scheduled LRCs at the start of the following round (closed-loop
 * semantics), while accounting speculation accuracy against the
 * simulator's ground-truth leakage state.  Optionally decodes the Z
 * detectors with union-find for the logical error rate.
 *
 * Every backend runs through one block path: a shot block is driven as
 * lockstep batches over the BatchSimulator interface (one lane per batch
 * on the scalar backends, 64 on the packed ones), so there is a single
 * implementation of every accounting rule.  The policy reads each
 * round's detector/MLR/leak words and answers with LRC lane masks; the
 * accounting is popcounts over those masks, and no per-lane RoundResult
 * is built.
 */
class ExperimentRunner {
  public:
    ExperimentRunner(const CodeContext& ctx, const ExperimentConfig& cfg);

    /** Runs the experiment under the given policy. */
    Metrics run(const PolicyFactory& factory) const;

    /**
     * Runs only the requested RNG streams and returns one Metrics partial
     * per stream, in the order requested.  This is the sharding hook: a
     * remote shard computes the partials for its stream subset, and
     * merging ALL streams' partials in ascending stream order reproduces
     * run() bit-identically (same per-stream shot partition, same
     * left-to-right double summation).  Stream ids must lie in
     * [0, n_streams(config())).
     */
    std::vector<Metrics> run_partials(const PolicyFactory& factory,
                                      const std::vector<int>& streams) const;

    /**
     * The effective RNG stream count of a config: rng_streams clamped to
     * [1, shots] exactly as run() partitions it (0 when shots <= 0).
     */
    static int n_streams(const ExperimentConfig& cfg);

    /** Shots assigned to `stream` under run()'s fixed partition. */
    static int stream_shots(const ExperimentConfig& cfg, int stream);

    /**
     * Shots per scheduler work unit: one 64-lane word, a constant.  Each
     * stream's shots are chunked into blocks of this size, and (stream,
     * block) units are what the worker threads pull.  Part of the
     * determinism contract — every block draws from its own RNG streams
     * derived from (seed, stream, block), so the result is independent
     * of which thread runs which unit.  Aligned with the bit-packed batch
     * width (sim/batch_driver.h): batch_frame runs a block as one
     * lockstep batch (a partial block with its trailing lanes masked
     * off), frame and tableau as up to 64 one-lane batches.
     */
    static constexpr int kShotBlock = 64;

    /** Number of shot blocks of `stream` (ceil(shots/kShotBlock)). */
    static int stream_blocks(const ExperimentConfig& cfg, int stream);

    /**
     * Total scheduler work units of a full run(): the parallelism cap.
     * At the default config this comfortably exceeds the old
     * one-unit-per-stream scheduler's 8.
     */
    static long n_work_units(const ExperimentConfig& cfg);

    const CodeContext& ctx() const { return *ctx_; }
    const ExperimentConfig& config() const { return cfg_; }

    /**
     * Attaches a telemetry collector observing subsequent run() /
     * run_partials() calls (nullptr detaches).  Pure side channel
     * (src/telemetry/telemetry.h): stage timers, counters and the
     * optional leakage heatmap are recorded per (stream, block) work
     * unit WITHOUT touching any RNG draw or result-bearing sum, so
     * Metrics are bit-identical with or without a collector — enforced
     * by the telemetry drift gate in tests/test_telemetry.cc.
     */
    void set_telemetry(telemetry::Collector* col) { telemetry_ = col; }

  private:
    /**
     * One executor slot's reusable block state — simulator, policies,
     * decoder and all per-block scratch (defined in experiment.cc).
     * Each slot of a run_partials call owns one instance; a worker
     * resets the cached objects per block instead of reconstructing.
     */
    struct BlockResources;

    Metrics run_block(const PolicyFactory& factory, int stream, int block,
                      const DecodingGraph* graph, telemetry::Record* telem,
                      BlockResources* res) const;

    const CodeContext* ctx_;
    ExperimentConfig cfg_;
    std::shared_ptr<DecodingGraph> graph_;  ///< built once if compute_ler
    std::vector<int> z_checks_;  ///< Z-check ids, built if compute_ler
    telemetry::Collector* telemetry_ = nullptr;  ///< optional side channel
};

/** Convenience: factories for every policy the paper evaluates. */
struct PolicyZoo {
    static PolicyFactory no_lrc();
    static PolicyFactory always_lrc();
    static PolicyFactory staggered();
    static PolicyFactory mlr_only();
    static PolicyFactory ideal();
    static PolicyFactory eraser(bool use_mlr);
    /** Builds (and shares) the single-round tables at first use. */
    static PolicyFactory gladiator(bool use_mlr, const NoiseParams& np,
                                   SpecModelOptions opt = {});
    static PolicyFactory gladiator_d(bool use_mlr, const NoiseParams& np,
                                     SpecModelOptions opt = {});
};

}  // namespace gld

#endif  // GLD_RUNTIME_EXPERIMENT_H_
