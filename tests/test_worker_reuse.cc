// Per-worker state reuse (the zero-allocation steady state) must be
// invisible in the results: a slot's cached simulator/policies/decoder,
// reset_for_block()-ed per (stream, block), produces Metrics
// BIT-identical to fresh per-block construction — on every backend and
// at every thread count (slots run different
// unit interleavings at different thread counts, so this also pins that
// no block leaks state into the next block a slot happens to run).
//
// The fresh arm is cfg.reuse_worker_state = false, which reproduces the
// pre-reuse construct-per-block path exactly.

#include <gtest/gtest.h>

#include "codes/surface_code.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

Metrics
run_cfg(const CodeContext& ctx, ExperimentConfig cfg, bool reuse,
        int threads, const PolicyFactory& factory)
{
    cfg.reuse_worker_state = reuse;
    cfg.threads = threads;
    ExperimentRunner runner(ctx, cfg);
    return runner.run(factory);
}

/**
 * Shots that force the reuse machinery through every shape: 2 streams x
 * 2 blocks each, the trailing block partial, so a single slot at
 * threads=1 runs 4 consecutive units — full-after-partial and
 * cross-stream resets included.
 */
ExperimentConfig
stress_config(SimBackend backend)
{
    ExperimentConfig cfg;
    cfg.backend = backend;
    cfg.np = NoiseParams::standard(2e-3, 0.1);
    cfg.rounds = 4;
    cfg.rng_streams = 2;
    cfg.shots = 2 * ExperimentRunner::kShotBlock + 17;
    cfg.seed = 0xC0FFEE5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    return cfg;
}

class WorkerReuse : public ::testing::TestWithParam<SimBackend> {};

TEST_P(WorkerReuse, BitIdenticalToFreshAtEveryThreadCount)
{
    const CssCode& code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    const ExperimentConfig cfg = stress_config(GetParam());
    for (int threads : {1, 8, 16}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const Metrics fresh = run_cfg(ctx, cfg, false, threads, factory);
        const Metrics reused = run_cfg(ctx, cfg, true, threads, factory);
        EXPECT_EQ(fresh.shots, cfg.shots);
        expect_metrics_identical(fresh, reused);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WorkerReuse,
                         ::testing::ValuesIn(known_backends()),
                         [](const auto& pinfo) {
                             return std::string(backend_name(pinfo.param));
                         });

TEST(WorkerReuse, SameRunnerTwiceIsBitIdentical)
{
    // Back-to-back runs on ONE runner share the persistent pool (and,
    // within each run, per-slot caches): the second run must replay the
    // first bit for bit on every backend.
    const CssCode& code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    for (SimBackend backend : known_backends()) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = stress_config(backend);
        cfg.threads = 8;
        ExperimentRunner runner(ctx, cfg);
        const Metrics first = runner.run(factory);
        expect_metrics_identical(first, runner.run(factory));
    }
}

TEST(WorkerReuse, InterleavedConfigsLeaveNoStaleState)
{
    // Different codes, backends and shot counts interleaved on the one
    // process-wide pool: re-running a config after foreign work must
    // reproduce its first result exactly, for every backend.
    const CssCode& d3 = SurfaceCode::make(3);
    const RoundCircuit rc3(d3);
    const CodeContext ctx3(d3, rc3, CodeContext::default_scope(d3));
    const CssCode& d5 = SurfaceCode::make(5);
    const RoundCircuit rc5(d5);
    const CodeContext ctx5(d5, rc5, CodeContext::default_scope(d5));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    std::vector<Metrics> first;
    for (SimBackend backend : known_backends()) {
        ExperimentConfig cfg = stress_config(backend);
        first.push_back(run_cfg(ctx3, cfg, true, 8, factory));
        // Foreign interleaved work: another code, another shot count.
        ExperimentConfig other = stress_config(backend);
        other.shots = ExperimentRunner::kShotBlock + 3;
        run_cfg(ctx5, other, true, 8, factory);
    }
    size_t i = 0;
    for (SimBackend backend : known_backends()) {
        SCOPED_TRACE(backend_name(backend));
        ExperimentConfig cfg = stress_config(backend);
        expect_metrics_identical(first[i++],
                                 run_cfg(ctx3, cfg, true, 8, factory));
    }
}

TEST(WorkerReuse, RunnerLoopsNeverRespawnWorkers)
{
    // The allocation-free steady state includes threads: however many
    // runner loops execute, the pool spawns nothing new.
    const CssCode& code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);

    ExperimentConfig cfg = stress_config(SimBackend::kBatchFrame);
    run_cfg(ctx, cfg, true, 8, factory);  // warm the pool
    const long created = ThreadPool::instance().workers_created();
    for (int rep = 0; rep < 3; ++rep)
        run_cfg(ctx, cfg, true, 8, factory);
    EXPECT_EQ(ThreadPool::instance().workers_created(), created);
}

}  // namespace
}  // namespace gld
