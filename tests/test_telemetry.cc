// The telemetry side channel's two contracts (src/telemetry/telemetry.h):
//
// 1. DRIFT GATE — attaching a collector (heatmap included) must leave the
//    runner's Metrics bit-identical to a run with no collector, on every
//    backend and at any thread count.  Telemetry never draws RNG and never
//    reorders a result-bearing sum; this suite is what pins that.
//
// 2. DETERMINISTIC AGGREGATES — every non-time telemetry field (shots,
//    rounds, blocks, leak histogram, heatmap) is a u64 count merged in
//    ascending (stream, block) order, so it inherits the Metrics
//    reproducibility contract: identical across thread counts and for
//    sharded-vs-single-process runs.  Stage times are wall-clock and
//    deliberately excluded from every comparison.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "codes/surface_code.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "telemetry/telemetry.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

ExperimentConfig
small_config(SimBackend backend)
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 5;
    cfg.shots = 96;  // 8 streams x 12: several units, all partial blocks
    cfg.seed = 0x7E1E5EEDull;
    cfg.leakage_sampling = true;  // guarantees non-empty heatmap/histogram
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;  // exercise the decode stage too
    cfg.rng_streams = 8;
    cfg.backend = backend;
    return cfg;
}

/** Runs cfg with an attached collector and returns (metrics, record). */
Metrics
run_collected(const CodeContext& ctx, const ExperimentConfig& cfg,
              const PolicyFactory& factory, bool heatmap,
              telemetry::Record* out_rec)
{
    ExperimentRunner runner(ctx, cfg);
    telemetry::Collector::Options opt;
    opt.heatmap = heatmap;
    telemetry::Collector col(std::move(opt));
    runner.set_telemetry(&col);
    const Metrics m = runner.run(factory);
    if (out_rec != nullptr)
        *out_rec = col.merged();
    return m;
}

/** All deterministic Record fields equal; stage_ns deliberately ignored. */
void
expect_deterministic_fields_eq(const telemetry::Record& a,
                               const telemetry::Record& b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.leak_hist, b.leak_hist);
    EXPECT_EQ(a.heatmap.rounds, b.heatmap.rounds);
    EXPECT_EQ(a.heatmap.n_data, b.heatmap.n_data);
    EXPECT_EQ(a.heatmap.n_checks, b.heatmap.n_checks);
    EXPECT_EQ(a.heatmap.counts, b.heatmap.counts);
}

// Contract 1: telemetry on (with heatmap) vs off — Metrics bit-identical,
// all three backends, threads 1 and 8.
TEST(TelemetryDriftGate, MetricsBitIdenticalWithAndWithoutCollector)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend :
         {SimBackend::kFrame, SimBackend::kTableau, SimBackend::kBatchFrame,
          SimBackend::kBatchTableau}) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = small_config(backend);
        for (int threads : {1, 8}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;
            const Metrics bare = ExperimentRunner(ctx, cfg).run(factory);
            const Metrics observed =
                run_collected(ctx, cfg, factory, /*heatmap=*/true, nullptr);
            expect_metrics_identical(bare, observed);
        }
    }
}

// The drift gate again at a two-batch block: the heatmap popcounts and
// the FN/DLP accounting summed over a block's batches must be
// side-channel clean too (same bits with and without a collector
// attached).
TEST(TelemetryDriftGate, MetricsBitIdenticalAtWideBatchWidth)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend :
         {SimBackend::kBatchFrame, SimBackend::kBatchTableau}) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = small_config(backend);
        cfg.batch_words = 2;
        cfg.rng_streams = 1;  // 96 shots: a 128-shot block, 64 + 32 lanes
        for (int threads : {1, 4}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;
            const Metrics bare = ExperimentRunner(ctx, cfg).run(factory);
            const Metrics observed =
                run_collected(ctx, cfg, factory, /*heatmap=*/true, nullptr);
            expect_metrics_identical(bare, observed);
        }
    }
}

// The drift gate at sparse noise sampling: the event sampler's quiet-
// round fast paths skip whole fused sweeps, so the telemetry hooks (per-
// block stage timers, heatmap popcounts) must still see every block and
// must not perturb the event stream — same bits with and without a
// collector attached, on both batch backends.
TEST(TelemetryDriftGate, MetricsBitIdenticalAtSparseSampling)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend :
         {SimBackend::kBatchFrame, SimBackend::kBatchTableau}) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = small_config(backend);
        cfg.noise_sampling = NoiseSampling::kSparse;
        for (int threads : {1, 4}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;
            const Metrics bare = ExperimentRunner(ctx, cfg).run(factory);
            const Metrics observed =
                run_collected(ctx, cfg, factory, /*heatmap=*/true, nullptr);
            expect_metrics_identical(bare, observed);
        }
    }
}

// The drift gate crossed with worker-state reuse: telemetry attachment
// and per-worker simulator/policy/decoder reuse are BOTH pure
// implementation details, so all four {collector on/off} x {reuse
// on/off} arms must produce one bit pattern — a collector must not
// perturb the reuse path (the Record rides per work unit while the
// slot's caches ride per worker) and vice versa.
TEST(TelemetryDriftGate, MetricsBitIdenticalAcrossReuseAndCollectorArms)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend : {SimBackend::kFrame, SimBackend::kBatchFrame}) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = small_config(backend);
        cfg.threads = 8;
        ExperimentConfig fresh_cfg = cfg;
        fresh_cfg.reuse_worker_state = false;
        const Metrics base = ExperimentRunner(ctx, fresh_cfg).run(factory);
        expect_metrics_identical(base, ExperimentRunner(ctx, cfg).run(factory));
        expect_metrics_identical(
            base,
            run_collected(ctx, fresh_cfg, factory, /*heatmap=*/true, nullptr));
        expect_metrics_identical(
            base, run_collected(ctx, cfg, factory, /*heatmap=*/true, nullptr));
    }
}

// Contract 2a: the deterministic aggregates are thread-count independent,
// per backend.
TEST(TelemetryDeterminism, AggregatesIdenticalAcrossThreadCounts)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend :
         {SimBackend::kFrame, SimBackend::kTableau, SimBackend::kBatchFrame,
          SimBackend::kBatchTableau}) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = small_config(backend);
        cfg.threads = 1;
        telemetry::Record base;
        run_collected(ctx, cfg, factory, /*heatmap=*/true, &base);
        cfg.threads = 8;
        telemetry::Record wide;
        run_collected(ctx, cfg, factory, /*heatmap=*/true, &wide);
        expect_deterministic_fields_eq(base, wide);
    }
}

// Contract 2b: a sharded run (each shard its own collector over its
// stream subset via run_partials) merges to the single-process record.
TEST(TelemetryDeterminism, ShardedCollectorsMergeToSingleRunRecord)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    ExperimentConfig cfg = small_config(SimBackend::kFrame);
    cfg.threads = 2;
    telemetry::Record base;
    run_collected(ctx, cfg, factory, /*heatmap=*/true, &base);

    const int n_streams = ExperimentRunner::n_streams(cfg);
    ASSERT_GT(n_streams, 2);
    telemetry::Record merged;
    for (int shard = 0; shard < 3; ++shard) {
        std::vector<int> streams;
        for (int s = shard; s < n_streams; s += 3)
            streams.push_back(s);
        ExperimentRunner runner(ctx, cfg);
        telemetry::Collector::Options opt;
        opt.heatmap = true;
        telemetry::Collector col(std::move(opt));
        runner.set_telemetry(&col);
        (void)runner.run_partials(factory, streams);
        merged.merge(col.merged());
    }
    expect_deterministic_fields_eq(base, merged);
}

// Internal consistency of one run's record: the histogram and the heatmap
// are two projections of the same leakage trajectories.
TEST(TelemetryDeterminism, RecordInvariantsHold)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    const ExperimentConfig cfg = small_config(SimBackend::kBatchFrame);
    telemetry::Record rec;
    run_collected(ctx, cfg, factory, /*heatmap=*/true, &rec);

    EXPECT_EQ(rec.shots, static_cast<uint64_t>(cfg.shots));
    EXPECT_EQ(rec.rounds, static_cast<uint64_t>(cfg.shots) *
                              static_cast<uint64_t>(cfg.rounds));
    EXPECT_EQ(rec.blocks, static_cast<uint64_t>(
                              ExperimentRunner::n_work_units(cfg)));

    // The histogram covers every (shot, round) pair exactly once.
    ASSERT_EQ(rec.leak_hist.size(),
              static_cast<size_t>(code.n_data()) + 1);
    const uint64_t hist_total = std::accumulate(
        rec.leak_hist.begin(), rec.leak_hist.end(), uint64_t{0});
    EXPECT_EQ(hist_total, rec.rounds);

    // With leakage sampling every shot starts leaked, so bucket 0 cannot
    // hold everything and the heatmap cannot be all-zero.
    EXPECT_LT(rec.leak_hist[0], rec.rounds);

    // Heatmap dimensions match the experiment, and its data columns sum
    // to the histogram's first moment (both count leaked data
    // qubit-rounds).
    ASSERT_TRUE(rec.heatmap.enabled());
    EXPECT_EQ(rec.heatmap.rounds, cfg.rounds);
    EXPECT_EQ(rec.heatmap.n_data, code.n_data());
    EXPECT_EQ(rec.heatmap.n_checks, code.n_checks());
    uint64_t data_occupancy = 0;
    for (int r = 0; r < rec.heatmap.rounds; ++r)
        for (int q = 0; q < rec.heatmap.n_data; ++q)
            data_occupancy += rec.heatmap.at(r, q);
    uint64_t hist_moment = 0;
    for (size_t k = 0; k < rec.leak_hist.size(); ++k)
        hist_moment += static_cast<uint64_t>(k) * rec.leak_hist[k];
    EXPECT_EQ(data_occupancy, hist_moment);
    EXPECT_GT(data_occupancy, 0u);
}

// The same two-projection invariants at a two-batch block: the heatmap's
// per-(round, qubit) occupancy now comes from popcounts summed over the
// block's batches, and it must still tile every (shot, round) pair
// exactly once — a batch counted twice or skipped breaks the
// histogram/heatmap moment identity immediately.
TEST(TelemetryDeterminism, RecordInvariantsHoldAtWideBatchWidth)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    ExperimentConfig cfg = small_config(SimBackend::kBatchFrame);
    cfg.batch_words = 2;
    cfg.rng_streams = 1;  // 96 shots: one partial 128-shot block
    telemetry::Record rec;
    run_collected(ctx, cfg, factory, /*heatmap=*/true, &rec);

    EXPECT_EQ(rec.shots, static_cast<uint64_t>(cfg.shots));
    EXPECT_EQ(rec.rounds, static_cast<uint64_t>(cfg.shots) *
                              static_cast<uint64_t>(cfg.rounds));
    const uint64_t hist_total = std::accumulate(
        rec.leak_hist.begin(), rec.leak_hist.end(), uint64_t{0});
    EXPECT_EQ(hist_total, rec.rounds);

    ASSERT_TRUE(rec.heatmap.enabled());
    uint64_t data_occupancy = 0;
    for (int r = 0; r < rec.heatmap.rounds; ++r)
        for (int q = 0; q < rec.heatmap.n_data; ++q)
            data_occupancy += rec.heatmap.at(r, q);
    uint64_t hist_moment = 0;
    for (size_t k = 0; k < rec.leak_hist.size(); ++k)
        hist_moment += static_cast<uint64_t>(k) * rec.leak_hist[k];
    EXPECT_EQ(data_occupancy, hist_moment);
    EXPECT_GT(data_occupancy, 0u);
}

// Heatmap collection is opt-in: the default collector records counters
// and the histogram but no heatmap.
TEST(TelemetryDeterminism, HeatmapOffLeavesHeatmapEmpty)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    const ExperimentConfig cfg = small_config(SimBackend::kFrame);
    telemetry::Record rec;
    run_collected(ctx, cfg, factory, /*heatmap=*/false, &rec);
    EXPECT_FALSE(rec.heatmap.enabled());
    EXPECT_EQ(rec.shots, static_cast<uint64_t>(cfg.shots));
    EXPECT_FALSE(rec.leak_hist.empty());
}

// --- Pure data-structure tests (no runner; run even with telemetry
// compiled out — the library itself always exists). ---

TEST(TelemetryRecord, JsonRoundTripPreservesAllFields)
{
    telemetry::Record rec;
    rec.shots = 123;
    rec.rounds = 615;
    rec.blocks = 7;
    rec.stage_ns[telemetry::kSim] = 1111;
    rec.stage_ns[telemetry::kPolicy] = 222;
    rec.stage_ns[telemetry::kDecode] = 33;
    rec.stage_ns[telemetry::kAccounting] = 4;
    rec.leak_hist = {600, 10, 5, 0, 0};
    rec.heatmap.init(2, 3, 2);
    for (size_t i = 0; i < rec.heatmap.counts.size(); ++i)
        rec.heatmap.counts[i] = i * i;

    const telemetry::Record back =
        telemetry::Record::from_json(rec.to_json());
    EXPECT_EQ(back.shots, rec.shots);
    EXPECT_EQ(back.rounds, rec.rounds);
    EXPECT_EQ(back.blocks, rec.blocks);
    for (int s = 0; s < telemetry::kStageCount; ++s)
        EXPECT_EQ(back.stage_ns[s], rec.stage_ns[s]) << "stage " << s;
    EXPECT_EQ(back.leak_hist, rec.leak_hist);
    EXPECT_EQ(back.heatmap.rounds, rec.heatmap.rounds);
    EXPECT_EQ(back.heatmap.n_data, rec.heatmap.n_data);
    EXPECT_EQ(back.heatmap.n_checks, rec.heatmap.n_checks);
    EXPECT_EQ(back.heatmap.counts, rec.heatmap.counts);

    // No heatmap -> no "heatmap" key -> round-trips to disabled.
    telemetry::Record bare;
    bare.shots = 1;
    bare.leak_hist = {1};
    const telemetry::Record bare_back =
        telemetry::Record::from_json(bare.to_json());
    EXPECT_FALSE(bare_back.heatmap.enabled());
    EXPECT_EQ(bare_back.leak_hist, bare.leak_hist);
}

TEST(TelemetryRecord, MergeSumsEverythingAndGrowsHistogram)
{
    telemetry::Record a;
    a.shots = 10;
    a.rounds = 50;
    a.blocks = 1;
    a.stage_ns[telemetry::kSim] = 100;
    a.leak_hist = {40, 10};
    telemetry::Record b;
    b.shots = 5;
    b.rounds = 25;
    b.blocks = 2;
    b.stage_ns[telemetry::kSim] = 7;
    b.leak_hist = {20, 3, 2};  // wider than a's: merge must grow

    a.merge(b);
    EXPECT_EQ(a.shots, 15u);
    EXPECT_EQ(a.rounds, 75u);
    EXPECT_EQ(a.blocks, 3u);
    EXPECT_EQ(a.stage_ns[telemetry::kSim], 107u);
    EXPECT_EQ(a.leak_hist, (std::vector<uint64_t>{60, 13, 2}));
}

TEST(TelemetryHeatmap, MergeRejectsDimensionMismatch)
{
    telemetry::Heatmap a;
    a.init(2, 3, 2);
    telemetry::Heatmap b;
    b.init(2, 4, 2);
    EXPECT_THROW(a.merge(b), std::runtime_error);

    // Merging into/from an empty heatmap is the benign no-op/copy case.
    telemetry::Heatmap empty;
    a.counts[3] = 9;
    telemetry::Heatmap into;
    into.merge(a);
    EXPECT_EQ(into.at(1, 0), a.at(1, 0));
    into.merge(empty);  // no-op
    EXPECT_EQ(into.counts, a.counts);
}

TEST(TelemetryCollector, MergedFoldsInStreamBlockOrder)
{
    telemetry::Collector col;
    // Park units out of order; merged() must still fold 3 blocks and sum
    // the counts regardless of arrival order.
    for (const auto& sb :
         std::vector<std::pair<int, int>>{{1, 0}, {0, 1}, {0, 0}}) {
        telemetry::Record rec;
        rec.shots = 2;
        rec.rounds = 4;
        rec.blocks = 1;
        rec.leak_hist = {3, 1};
        col.record_unit(sb.first, sb.second, std::move(rec));
    }
    EXPECT_EQ(col.shots_done(), 6u);
    const telemetry::Record merged = col.merged();
    EXPECT_EQ(merged.shots, 6u);
    EXPECT_EQ(merged.rounds, 12u);
    EXPECT_EQ(merged.blocks, 3u);
    EXPECT_EQ(merged.leak_hist, (std::vector<uint64_t>{9, 3}));
}

TEST(TelemetryCollector, OnBlockHookSeesMonotonicShotCounts)
{
    telemetry::Collector::Options opt;
    std::vector<uint64_t> seen;
    opt.on_block = [&seen](uint64_t done) { seen.push_back(done); };
    telemetry::Collector col(std::move(opt));
    for (int i = 0; i < 3; ++i) {
        telemetry::Record rec;
        rec.shots = 10;
        col.record_unit(0, i, std::move(rec));
    }
    EXPECT_EQ(seen, (std::vector<uint64_t>{10, 20, 30}));
}

TEST(TelemetryExport, AddsWallClockAndThroughput)
{
    telemetry::Record rec;
    rec.shots = 1000;
    rec.leak_hist = {1};
    const io::Json j =
        telemetry::export_to_json(rec, /*wall_ns=*/500000000ull,
                                  /*threads=*/4);
    EXPECT_EQ(j["wall_ns"].as_int(), 500000000);
    EXPECT_EQ(j["threads"].as_int(), 4);
    EXPECT_NEAR(j["shots_per_second"].as_double(), 2000.0, 1e-6);
    // Zero wall time must not divide by zero.
    const io::Json j0 = telemetry::export_to_json(rec, 0, 1);
    EXPECT_EQ(j0["shots_per_second"].as_double(), 0.0);
}

}  // namespace
}  // namespace gld
