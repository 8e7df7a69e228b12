// Reproducibility contract (ROADMAP tier-1 gate): the same
// ExperimentConfig::seed must give bit-identical Metrics across repeated
// runs and across thread counts.  ExperimentRunner partitions shots into
// a fixed set of RNG streams and merges them in stream order, so neither
// scheduling nor cross-thread reduction order can leak into the result.
//
// The contract is per backend, and this suite honours GLD_BACKEND: CI
// runs it once per backend (the default batch engine, then tableau, then
// frame), so the non-default engines are gated by the same bit-exactness
// suite on every PR, not only by the dedicated cross-backend tests.

#include <gtest/gtest.h>

#include "codes/bpc_code.h"
#include "codes/color_code.h"
#include "codes/hgp_code.h"
#include "codes/surface_code.h"
#include "io/serialize.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

Metrics
run_with_threads(const CodeContext& ctx, ExperimentConfig cfg, int threads,
                 const PolicyFactory& factory)
{
    cfg.threads = threads;
    ExperimentRunner runner(ctx, cfg);
    return runner.run(factory);
}

/** The backend under test: GLD_BACKEND, default batch_frame; noise sampling
 *  from GLD_NOISE_SAMPLING, default sparse — so CI gates the lockstep
 *  reference with this same bit-exactness suite by exporting one
 *  variable. */
ExperimentConfig
base_config()
{
    ExperimentConfig cfg;
    cfg.backend = backend_from_env();
    cfg.noise_sampling = noise_sampling_from_env();
    return cfg;
}

void
check_code(const CssCode& code, bool compute_ler)
{
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 10;
    cfg.shots = 30;
    cfg.seed = 0xD00D5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = compute_ler;

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    EXPECT_EQ(base.shots, cfg.shots);

    // Repeated single-threaded run: same seed, same bits.
    expect_metrics_identical(base, run_with_threads(ctx, cfg, 1, factory));

    // Thread count must not change the result.
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(base,
                                 run_with_threads(ctx, cfg, threads, factory));
    }
}

TEST(Determinism, SurfaceCodeBitIdenticalAcrossThreads)
{
    check_code(SurfaceCode::make(3), /*compute_ler=*/true);
}

TEST(Determinism, ColorCodeBitIdenticalAcrossThreads)
{
    check_code(ColorCode::make(5), /*compute_ler=*/false);
}

TEST(Determinism, HgpCodeBitIdenticalAcrossThreads)
{
    check_code(HgpCode::make_hamming(), /*compute_ler=*/false);
}

// The default BPC code's decoding graph has no boundary edges, so a shot
// can leave an odd cluster that never settles; LER decoding must still
// return, with the same bits at every thread count.
TEST(Determinism, BpcCodeLerTerminatesBitIdenticalAcrossThreads)
{
    const CssCode code = BpcCode::make_default();
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 5;
    cfg.shots = 256;
    cfg.compute_ler = true;
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    EXPECT_EQ(base.decoded_shots, cfg.shots);
    expect_metrics_identical(base, run_with_threads(ctx, cfg, 2, factory));
}

// Sharding extension of the same contract: the per-stream partials
// exposed for the campaign subsystem, computed shard-by-shard (stream s
// on "shard" s % 3) at different thread counts, merged in ascending
// stream order, must be bit-identical to run().
TEST(Determinism, ShardedPartialsMergeBitIdenticalToRun)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 10;
    cfg.shots = 30;
    cfg.seed = 0xD00D5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics base = run_with_threads(ctx, cfg, 1, factory);

    const int n_streams = ExperimentRunner::n_streams(cfg);
    ASSERT_GT(n_streams, 1);
    for (int threads : {1, 2}) {
        SCOPED_TRACE(threads);
        cfg.threads = threads;
        const ExperimentRunner runner(ctx, cfg);
        std::vector<Metrics> by_stream(static_cast<size_t>(n_streams));
        for (int shard = 0; shard < 3; ++shard) {
            std::vector<int> streams;
            for (int s = shard; s < n_streams; s += 3)
                streams.push_back(s);
            const std::vector<Metrics> parts =
                runner.run_partials(factory, streams);
            for (size_t i = 0; i < streams.size(); ++i)
                by_stream[static_cast<size_t>(streams[i])] = parts[i];
        }
        Metrics merged;
        for (const Metrics& part : by_stream)
            merged.merge(part);
        expect_metrics_identical(base, merged);
    }
}

// The chunked scheduler ships (stream, shot-block) work units to however
// many threads are available; at the raised default of 32 RNG streams the
// result must stay bit-exact well past the old 8-worker plateau.
TEST(Determinism, StreamCount32BitIdenticalAtThreads1_8_16)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 5;
    cfg.shots = 100;
    cfg.seed = 0x32D00D5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 32;
    ASSERT_EQ(ExperimentRunner::n_streams(cfg), 32);
    // More independently schedulable units than the old one-per-stream
    // scheduler could ever give 8 workers.
    ASSERT_GT(ExperimentRunner::n_work_units(cfg), 8);

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    EXPECT_EQ(base.shots, cfg.shots);
    for (int threads : {8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(base,
                                 run_with_threads(ctx, cfg, threads, factory));
    }
}

// Streams wider than one shot block: the per-stream partial is a fold of
// several block partials, and that fold must be schedule-independent too
// (and identical whether reached via run() or run_partials()).
TEST(Determinism, MultiBlockStreamsBitIdenticalAcrossThreads)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 4;
    cfg.seed = 0xB10C5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 2;
    // 2 streams x (block + 16) shots: one full scheduler block plus a
    // 16-shot partial each.
    cfg.shots = 2 * (ExperimentRunner::kShotBlock + 16);
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 2);
    // The final block is partial: on the batch backend it runs as a
    // 16-lane batch with the trailing 48 lanes masked off.
    ASSERT_NE(ExperimentRunner::stream_shots(cfg, 0) %
                  ExperimentRunner::kShotBlock,
              0);

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(base,
                                 run_with_threads(ctx, cfg, threads, factory));
    }
    // Per-stream partials (the sharding unit) are block folds as well.
    cfg.threads = 4;
    const ExperimentRunner runner(ctx, cfg);
    const std::vector<Metrics> parts = runner.run_partials(factory, {0, 1});
    Metrics merged = parts[0];
    merged.merge(parts[1]);
    expect_metrics_identical(base, merged);
}

// The default config must expose more concurrently useful work units
// than the pre-refactor scheduler's hard 8 (ROADMAP "thread scaling").
TEST(Determinism, DefaultConfigSchedulesMoreThan8WorkUnits)
{
    const ExperimentConfig cfg;
    EXPECT_EQ(cfg.rng_streams, 32);
    EXPECT_GE(ExperimentRunner::n_streams(cfg), 16);
    EXPECT_GT(ExperimentRunner::n_work_units(cfg), 8);

    // Big runs keep scaling: units grow with shots, not just streams.
    ExperimentConfig big = cfg;
    big.shots = 10000;
    EXPECT_GT(ExperimentRunner::n_work_units(big),
              static_cast<long>(big.rng_streams));
}

// The bit-packed backend's contract is stronger than per-backend
// determinism: its Metrics must equal the scalar frame backend's BIT for
// BIT (lane k of a batch replays shot k draw for draw), at any thread
// count, including multi-block streams and a partial final batch.  This
// runs regardless of GLD_BACKEND — it IS the cross-backend gate, in the
// reproducibility suite where a scheduler regression would surface.
TEST(Determinism, BatchFrameBitIdenticalToFrameAcrossThreads)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg;
    cfg.noise_sampling = NoiseSampling::kLockstep;  // the bit-exact mode
    cfg.np = NoiseParams::standard(2e-3, 0.5);
    cfg.rounds = 6;
    cfg.shots = 150;  // 2 streams x 75: blocks of 64 + a partial 11-lane
    cfg.seed = 0xBA7C4DE7ull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 2;
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 2);
    ASSERT_NE(ExperimentRunner::stream_shots(cfg, 0) %
                  ExperimentRunner::kShotBlock,
              0);

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    cfg.backend = SimBackend::kFrame;
    const Metrics frame = run_with_threads(ctx, cfg, 1, factory);
    cfg.backend = SimBackend::kBatchFrame;
    for (int threads : {1, 8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            frame, run_with_threads(ctx, cfg, threads, factory));
    }
}

// Streams that cross 64-shot block boundaries, with one stream: 65 shots
// run a full block and a one-lane partial; 127 a full block and a
// partial with a single masked-off lane at the top; 129 two full blocks
// and a one-lane third — the same slot's simulator reset from a full
// batch into a nearly dead one, which the span kernels must not
// misindex.
TEST(Determinism, BatchFramePartialBlocksCrossWordBoundaries)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (int shots : {65, 127, 129}) {
        SCOPED_TRACE(shots);
        ExperimentConfig cfg;
        cfg.noise_sampling = NoiseSampling::kLockstep;  // the bit-exact mode
        cfg.np = NoiseParams::standard(2e-3, 0.5);
        cfg.rounds = 6;
        cfg.shots = shots;
        cfg.seed = 0x77A1D5EEDull;
        cfg.leakage_sampling = true;
        cfg.record_dlp_series = true;
        cfg.compute_ler = true;
        cfg.rng_streams = 1;

        cfg.backend = SimBackend::kFrame;
        const Metrics frame = run_with_threads(ctx, cfg, 1, factory);
        EXPECT_EQ(frame.shots, shots);
        cfg.backend = SimBackend::kBatchFrame;
        for (int threads : {1, 4}) {
            SCOPED_TRACE(threads);
            expect_metrics_identical(
                frame, run_with_threads(ctx, cfg, threads, factory));
        }
    }
}

// The sparse event sampler draws a DIFFERENT sequence from lockstep (it
// is qualified statistically by `gld_campaign verify`, not by bit-diff
// against frame), but its own determinism contract is the same as every
// backend's: events are derived from (seed, stream, block) alone, so the
// result is bit-identical across repeated runs, across thread counts,
// and sharded-vs-single — including multi-block streams with a partial
// trailing block, where the per-batch event stream reseeds from the
// block master at each shot batch.
TEST(Determinism, SparseSamplingBitIdenticalAcrossThreadsAndShards)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    ExperimentConfig cfg;
    cfg.backend = SimBackend::kBatchFrame;
    cfg.noise_sampling = NoiseSampling::kSparse;
    cfg.np = NoiseParams::standard(2e-3, 0.5);
    cfg.rounds = 6;
    cfg.seed = 0x5BA85E5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 2;
    // One full block + a 17-shot partial per stream: the partial
    // batch's event space still spans site x lane over the full
    // block width, with dead lanes masked out of the event masks.
    cfg.shots = 2 * (ExperimentRunner::kShotBlock + 17);
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 2);

    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    EXPECT_EQ(base.shots, cfg.shots);
    expect_metrics_identical(base,
                             run_with_threads(ctx, cfg, 1, factory));
    for (int threads : {2, 8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            base, run_with_threads(ctx, cfg, threads, factory));
    }

    // Sharded-vs-single: per-stream partials merged in stream order
    // reproduce the same bits.
    cfg.threads = 4;
    const ExperimentRunner runner(ctx, cfg);
    const std::vector<Metrics> parts =
        runner.run_partials(factory, {0, 1});
    Metrics merged = parts[0];
    merged.merge(parts[1]);
    expect_metrics_identical(base, merged);
}

// Flipping the mode must actually change the batch backends' draws (the
// two contracts are distinct), while the scalar backends ignore the knob
// entirely — the two halves of the config-hash story: sparse documents
// hash differently because the results differ; scalar results stay
// byte-identical because the mode never reaches them.
TEST(Determinism, SparseChangesBatchDrawsButNotScalarDraws)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.5);
    cfg.rounds = 6;
    cfg.shots = 150;
    cfg.seed = 0xBA7C4DE7ull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 2;

    cfg.backend = SimBackend::kBatchFrame;
    cfg.noise_sampling = NoiseSampling::kLockstep;
    const Metrics lockstep = run_with_threads(ctx, cfg, 1, factory);
    cfg.noise_sampling = NoiseSampling::kSparse;
    const Metrics sparse = run_with_threads(ctx, cfg, 1, factory);
    EXPECT_NE(io::metrics_to_json(lockstep).dump(),
              io::metrics_to_json(sparse).dump());

    cfg.backend = SimBackend::kFrame;
    cfg.noise_sampling = NoiseSampling::kLockstep;
    const Metrics frame_lockstep = run_with_threads(ctx, cfg, 1, factory);
    cfg.noise_sampling = NoiseSampling::kSparse;
    expect_metrics_identical(frame_lockstep,
                             run_with_threads(ctx, cfg, 1, factory));
}

// The speculation policies draw from their own seeded RNG streams; make
// sure a stateful table-driven policy is covered too, not just ERASER.
TEST(Determinism, GladiatorSurfaceBitIdenticalAcrossThreads)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 8;
    cfg.shots = 24;
    cfg.seed = 0xFACEFEEDull;
    cfg.leakage_sampling = true;

    const PolicyFactory factory =
        PolicyZoo::gladiator(/*use_mlr=*/true, cfg.np);
    const Metrics base = run_with_threads(ctx, cfg, 1, factory);
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(base,
                                 run_with_threads(ctx, cfg, threads, factory));
    }
}

// Per-worker simulator/policy/decoder reuse (the zero-allocation steady
// state) must be invisible: reuse_worker_state = false reproduces the
// fresh construct-per-block path, and both arms must agree bit for bit
// at every thread count — per backend, via the same GLD_BACKEND env axis
// as the rest of this suite.  (tests/test_worker_reuse.cc sweeps all
// backends explicitly.)
TEST(Determinism, WorkerStateReuseBitIdenticalToFresh)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));

    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 6;
    cfg.rng_streams = 2;
    // 2 blocks per stream, trailing block partial: a slot reuses its
    // cached state across full-after-partial and cross-stream blocks.
    cfg.shots = 2 * ExperimentRunner::kShotBlock + 17;
    cfg.seed = 0xFEED5A5Aull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    ExperimentConfig fresh_cfg = cfg;
    fresh_cfg.reuse_worker_state = false;
    const Metrics fresh = run_with_threads(ctx, fresh_cfg, 1, factory);
    EXPECT_EQ(fresh.shots, cfg.shots);
    for (int threads : {1, 8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(fresh,
                                 run_with_threads(ctx, cfg, threads, factory));
    }
}

}  // namespace
}  // namespace gld
