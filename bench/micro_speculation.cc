// Microbenchmarks (google-benchmark): online classification latency on
// captured rounds, table construction, simulator round throughput, and
// union-find decoding — the performance claims behind §4.4's "a few
// nanoseconds per syndrome".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/pattern_table.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "sim/frame_sim.h"
#include "sim/lane_span.h"

using namespace gld;
using namespace gld::bench;

namespace {

const CodeBundle&
surface7()
{
    static CodeBundle bundle(SurfaceCode::make(7));
    return bundle;
}

void
BM_TableBuildSingleRound(benchmark::State& state)
{
    const CodeBundle& b = surface7();
    const NoiseParams np = NoiseParams::standard();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            PatternTableSet::build(b.ctx, np, {}, false));
    }
}
BENCHMARK(BM_TableBuildSingleRound);

void
BM_TableBuildTwoRound(benchmark::State& state)
{
    const CodeBundle& b = surface7();
    const NoiseParams np = NoiseParams::standard();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            PatternTableSet::build(b.ctx, np, {}, true));
    }
}
BENCHMARK(BM_TableBuildTwoRound);

void
BM_SimulatorRound(benchmark::State& state)
{
    const CodeBundle& b = surface7();
    LeakFrameSim sim(b.code, b.rc, NoiseParams::standard(), 1);
    LrcSchedule none;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run_round(none));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorRound);

void
BM_BackendThroughput(benchmark::State& state)
{
    // Shots/second per (backend, threads, noise sampling, decode) on a
    // d=5 surface-code memory config — the honest measurement behind
    // the batch backends' campaign cost factors.  Args: (backend enum,
    // threads, noise_sampling enum, compute_ler).  The single-thread
    // rows keep the exact config of earlier recorded trajectory points;
    // threads>1 rows scale shots/streams so every thread has work.  The
    // @sparse rows measure the event-driven sampler against the lockstep
    // rows of the SAME record; the @ler row turns the union-find decoder
    // on so the decode stage is visible in the recorded stage split
    // instead of rounding to zero.  Run with
    // --benchmark_filter=BackendThroughput.
    static CodeBundle bundle5(SurfaceCode::make(5));
    const CodeBundle& b = bundle5;
    const int threads = static_cast<int>(state.range(1));
    const auto sampling = static_cast<NoiseSampling>(state.range(2));
    const bool with_ler = state.range(3) != 0;
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 10;
    cfg.shots = 1024 * threads;
    cfg.rng_streams = cfg.shots / ExperimentRunner::shot_block(cfg);
    cfg.leakage_sampling = false;  // natural leakage, as a memory run
    cfg.threads = threads;
    cfg.backend = static_cast<SimBackend>(state.range(0));
    cfg.noise_sampling = sampling;
    cfg.compute_ler = with_ler;
    ExperimentRunner runner(b.ctx, cfg);
    // Telemetry rides along (pure side channel — the drift gate pins that
    // the measured Metrics are bit-identical with it attached) so the
    // recorded trajectory carries the sim/policy/decode/accounting wall
    // split, not just one shots/s number.
    telemetry::Collector collector;
    runner.set_telemetry(&collector);
    const PolicyFactory factory = PolicyZoo::no_lrc();
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(factory));
    state.SetItemsProcessed(state.iterations() * cfg.shots);
    // Plain backend name at T=1/lockstep so the recorded trajectory's
    // labels stay comparable across PRs; decorated otherwise.  @sparse
    // and @ler fold into the trajectory's backend key
    // (scripts/bench_record.sh) so these rows never shadow the lockstep
    // ones.
    std::string label = backend_name(cfg.backend);
    if (threads > 1)
        label += "@t" + std::to_string(threads);
    if (sampling != NoiseSampling::kLockstep)
        label += std::string("@") + noise_sampling_name(sampling);
    if (with_ler)
        label += "@ler";
    state.SetLabel(label);
    const telemetry::Record rec = collector.merged();
    const double total = static_cast<double>(rec.total_stage_ns());
    if (total > 0.0) {
        for (int s = 0; s < telemetry::kStageCount; ++s)
            state.counters[std::string("frac_") + telemetry::stage_name(s)] =
                benchmark::Counter(
                    static_cast<double>(rec.stage_ns[s]) / total);
    }
}
// The plain (arg 2 = 0) rows run the lockstep reference: a plain per-lane
// Rng in the scalar draw order, kept for the frame == batch_frame
// bit-exact gates rather than for speed.  Their labels are unchanged so
// the recorded trajectory stays comparable; the @sparse rows measure the
// production engine in the same record.
BENCHMARK(BM_BackendThroughput)
    ->Args({static_cast<int>(SimBackend::kFrame), 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kFrame), 8, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 8, 0, 0})
    // The sparse event sampler vs the lockstep rows (same record, same
    // host): the production configuration.
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1,
            static_cast<int>(NoiseSampling::kSparse), 0})
    // Decode on (union-find per shot): the decode stage's wall share is
    // real in campaign configs with compute_ler, and this row keeps it
    // visible in the recorded stage split.
    ->Args({static_cast<int>(SimBackend::kBatchFrame), 1, 0, 1})
    ->Args({static_cast<int>(SimBackend::kTableau), 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchTableau), 1, 0, 0})
    ->Args({static_cast<int>(SimBackend::kBatchTableau), 1,
            static_cast<int>(NoiseSampling::kSparse), 0})
    ->Args({static_cast<int>(SimBackend::kBatchTableau), 8, 0, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_RunnerThreadScaling(benchmark::State& state)
{
    // The chunked (stream x shot-block) scheduler's wall-clock vs thread
    // count at the default 32-stream config: items/s should keep rising
    // well past 8 threads (the old one-unit-per-stream scheduler's
    // plateau).  Run with --benchmark_filter=RunnerThreadScaling.
    const CodeBundle& b = surface7();
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 10;
    cfg.shots = 512;
    cfg.leakage_sampling = true;
    cfg.threads = static_cast<int>(state.range(0));
    const ExperimentRunner runner(b.ctx, cfg);
    const PolicyFactory factory = PolicyZoo::eraser(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(factory));
    state.SetItemsProcessed(state.iterations() * cfg.shots);
}
BENCHMARK(BM_RunnerThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

/**
 * One batch_frame batch of 64 shots captured at a paper LER config
 * (10*d rounds, p = 1e-3, lr = 0.1, LER on), driven the way the runner
 * drives it: the batched policy decides from the round's words, and its
 * lane masks go back to the simulator.  Kept: every round's words (the
 * policy inputs) and each shot's decoder input (fired Z detectors as
 * node r*nz + zi, then the final-readout row).
 */
struct PaperCapture {
    int rounds = 0;
    int lanes = 0;
    LaneMask active = ~0ull;
    std::vector<std::vector<LaneMask>> det, mlr, meas, leaked;  ///< [round]
    std::unique_ptr<DecodingGraph> graph;
    std::vector<std::vector<int>> defects;  ///< per shot, ascending

    RoundWords words(int r) const
    {
        RoundWords in;
        in.active = active;
        in.detector = det[static_cast<size_t>(r)].data();
        in.mlr = mlr[static_cast<size_t>(r)].data();
        in.meas_flip = meas[static_cast<size_t>(r)].data();
        in.leaked = leaked[static_cast<size_t>(r)].data();
        return in;
    }
};

const NoiseParams kPaperNoise = NoiseParams::standard(1e-3, 0.1);

PaperCapture
capture_paper(const CodeBundle& b, const PolicyFactory& factory, int rounds,
              uint64_t seed)
{
    PaperCapture out;
    out.rounds = rounds;
    const std::unique_ptr<Policy> policy = factory(b.ctx, 0);
    const std::unique_ptr<BatchSimulator> sim = make_simulator(
        SimBackend::kBatchFrame, b.code, b.rc, kPaperNoise, seed);
    out.lanes = sim->batch_width();
    const size_t lanes = static_cast<size_t>(out.lanes);
    const int nc = b.code.n_checks();
    const std::vector<int> z = b.code.checks_of_type(CheckType::kZ);
    const int nz = static_cast<int>(z.size());
    out.graph = std::make_unique<DecodingGraph>(
        DemBuilder(b.code, b.rc, kPaperNoise, out.rounds).build());
    out.defects.resize(lanes);
    LrcWords lrc;
    lrc.reset(b.code.n_data(), nc);
    sim->reset_shot_batch(out.lanes);
    policy->begin_batch(out.active);
    for (int r = 0; r < out.rounds; ++r) {
        sim->run_round_batch(lrc);
        out.det.emplace_back(sim->detector_words(),
                             sim->detector_words() + nc);
        out.mlr.emplace_back(sim->mlr_words(), sim->mlr_words() + nc);
        out.meas.emplace_back(sim->meas_flip_words(),
                              sim->meas_flip_words() + nc);
        out.leaked.emplace_back(sim->leaked_words(),
                                sim->leaked_words() + b.code.n_qubits());
        lrc.reset(b.code.n_data(), nc);
        policy->observe_batch(r, out.words(r), &lrc);
        for (int zi = 0; zi < nz; ++zi)
            for_each_lane(out.det.back()[static_cast<size_t>(z[zi])],
                          [&](int l) {
                              out.defects[static_cast<size_t>(l)].push_back(
                                  r * nz + zi);
                          });
    }
    std::vector<std::vector<uint8_t>> flips;
    sim->final_data_measure_batch(&flips);
    for (size_t l = 0; l < lanes; ++l) {
        for (int zi = 0; zi < nz; ++zi) {
            uint8_t det = static_cast<uint8_t>(
                (out.meas.back()[static_cast<size_t>(z[zi])] >> l) & 1u);
            for (int q : b.code.check(z[zi]).support)
                det ^= flips[l][static_cast<size_t>(q)];
            if (det)
                out.defects[l].push_back(out.rounds * nz + zi);
        }
    }
    return out;
}

/** The d = 7 headline config: 70 rounds, GLADIATOR+M. */
const PaperCapture&
paper_d7_capture()
{
    static const PaperCapture cap = capture_paper(
        surface7(), PolicyZoo::gladiator(true, kPaperNoise), 70, 7);
    return cap;
}

/** The decode-heavy d = 11 config: 110 rounds, ERASER+M. */
const PaperCapture&
paper_d11_capture()
{
    static const CodeBundle bundle11(SurfaceCode::make(11));
    static const PaperCapture cap =
        capture_paper(bundle11, PolicyZoo::eraser(true), 110, 11);
    return cap;
}

/** The HGP Hamming [[58, 16]] code: 8-bit single-round keys. */
const CodeBundle&
hgp_bundle()
{
    static const CodeBundle bundle(HgpCode::make_hamming());
    return bundle;
}

/** 30 rounds of HGP Hamming under ERASER+M. */
const PaperCapture&
hgp_capture()
{
    static const PaperCapture cap =
        capture_paper(hgp_bundle(), PolicyZoo::eraser(true), 30, 5);
    return cap;
}

void
BM_PolicyObserve(benchmark::State& state)
{
    // Online speculation on real rounds: one iteration replays every
    // captured round of the 64-lane batch through one policy's word rule
    // (the runner's path).  Args: policy (0 ERASER+M, 1 GLADIATOR+M,
    // 2 GLADIATOR-D+M); code (0 the d = 7 surface capture, 70 rounds;
    // 1 the HGP Hamming capture, 30 rounds); per_lane (1 drives the rule
    // through the per-lane adapter: 64 one-lane observe calls per round,
    // what a policy without a word rule costs).  per_lane_round (printed
    // in seconds, e.g. "40ns") is the paper's "nanoseconds per syndrome"
    // figure for the whole code.
    const bool hgp = state.range(1) == 1;
    const CodeBundle& b = hgp ? hgp_bundle() : surface7();
    const PaperCapture& cap = hgp ? hgp_capture() : paper_d7_capture();
    const PolicyFactory factory =
        state.range(0) == 0   ? PolicyZoo::eraser(true)
        : state.range(0) == 1 ? PolicyZoo::gladiator(true, kPaperNoise)
                              : PolicyZoo::gladiator_d(true, kPaperNoise);
    std::unique_ptr<Policy> policy = factory(b.ctx, 0);
    state.SetLabel(policy->name() + (hgp ? " hgp" : " d7") +
                   (state.range(2) == 1 ? " per-lane" : ""));
    if (state.range(2) == 1) {
        policy = std::make_unique<LaneAdapterPolicy>(
            b.ctx, std::move(policy),
            [&] { return factory(b.ctx, 0); });
    }
    LrcWords lrc;
    size_t lrcs = 0;
    for (auto _ : state) {
        policy->begin_batch(cap.active);
        for (int r = 0; r < cap.rounds; ++r) {
            lrc.reset(b.code.n_data(), b.code.n_checks());
            policy->observe_batch(r, cap.words(r), &lrc);
            for (LaneMask m : lrc.data)
                lrcs += static_cast<size_t>(__builtin_popcountll(m));
        }
    }
    benchmark::DoNotOptimize(lrcs);
    const double lane_rounds = static_cast<double>(cap.rounds) *
                               static_cast<double>(cap.lanes) *
                               static_cast<double>(state.iterations());
    state.counters["per_lane_round"] = benchmark::Counter(
        lane_rounds,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PolicyObserve)
    ->ArgNames({"policy", "code", "per_lane"})
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({2, 0, 0})
    ->Args({1, 0, 1})
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({2, 1, 0});

/**
 * The Fig 1(b) setup's LRC masks for one full sparse batch_frame batch:
 * surface d = 11, 200 rounds, paper noise, one sampled data leak per
 * shot, GLADIATOR+M deciding from the round's words.  Kept: each lane's
 * injected qubit and the masks each round applied, so a replay through
 * run_round_batch alone reproduces the captured run exactly.
 */
struct SimCapture {
    int rounds = 0;
    int lanes = 0;
    uint64_t seed = 0;
    std::vector<int> leak_qubit;  ///< per lane
    std::vector<LrcWords> lrc;    ///< per round, as applied
};

const CodeBundle&
surface11()
{
    static const CodeBundle bundle(SurfaceCode::make(11));
    return bundle;
}

SimCapture
capture_sim()
{
    const CodeBundle& b = surface11();
    SimCapture out;
    out.rounds = 200;
    out.seed = 11;
    const std::unique_ptr<BatchSimulator> sim =
        make_simulator(SimBackend::kBatchFrame, b.code, b.rc, kPaperNoise,
                       out.seed, 1, NoiseSampling::kSparse);
    const std::unique_ptr<Policy> policy =
        PolicyZoo::gladiator(true, kPaperNoise)(b.ctx, 0);
    out.lanes = sim->batch_width();
    const int n_data = b.code.n_data();
    const int nc = b.code.n_checks();
    sim->reset_shot_batch(out.lanes);
    policy->begin_batch(~0ull);
    Rng shot_rng(out.seed);
    for (int l = 0; l < out.lanes; ++l) {
        out.leak_qubit.push_back(static_cast<int>(
            shot_rng.uniform_int(static_cast<uint32_t>(n_data))));
        sim->inject_data_leak_lane(l, out.leak_qubit.back());
    }
    LrcWords lrc;
    lrc.reset(n_data, nc);
    for (int r = 0; r < out.rounds; ++r) {
        out.lrc.push_back(lrc);
        sim->run_round_batch(lrc);
        RoundWords in;
        in.active = ~0ull;
        in.detector = sim->detector_words();
        in.mlr = sim->mlr_words();
        in.meas_flip = sim->meas_flip_words();
        in.leaked = sim->leaked_words();
        lrc.reset(n_data, nc);
        policy->observe_batch(r, in, &lrc);
    }
    return out;
}

void
BM_SimRound(benchmark::State& state)
{
    // The simulator alone on the Fig 1(b) workload: one iteration
    // replays a captured GLADIATOR+M batch (200 rounds of d = 11) through
    // run_round_batch with the captured LRC masks, sparse sampling, on a
    // reused simulator reset to the capture's seed.  per_shot_round
    // (printed in seconds, e.g. "150ns") is the sim stage cost per
    // (shot, round), free of policy and accounting.
    static const SimCapture cap = capture_sim();
    const CodeBundle& b = surface11();
    const std::unique_ptr<BatchSimulator> sim =
        make_simulator(SimBackend::kBatchFrame, b.code, b.rc, kPaperNoise,
                       cap.seed, 1, NoiseSampling::kSparse);
    LaneMask leaked = 0;
    for (auto _ : state) {
        sim->reset_for_block(cap.seed);
        sim->reset_shot_batch(cap.lanes);
        for (int l = 0; l < cap.lanes; ++l)
            sim->inject_data_leak_lane(l,
                                       cap.leak_qubit[static_cast<size_t>(l)]);
        for (int r = 0; r < cap.rounds; ++r)
            sim->run_round_batch(cap.lrc[static_cast<size_t>(r)]);
        leaked |= sim->leaked_words()[0];
    }
    benchmark::DoNotOptimize(leaked);
    state.counters["per_shot_round"] = benchmark::Counter(
        static_cast<double>(cap.rounds) * static_cast<double>(cap.lanes) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimRound);

void
BM_UnionFindDecode(benchmark::State& state)
{
    // One decode per iteration, cycling through real captured syndromes
    // rather than i.i.d. bits, so growth and peeling see the cluster
    // shapes the runner does (defects_per_shot reports their size).
    // Arg d: 7 replays GLADIATOR+M captures, 11 ERASER+M captures.
    const PaperCapture& cap =
        state.range(0) == 7 ? paper_d7_capture() : paper_d11_capture();
    UnionFindDecoder uf(*cap.graph);
    size_t i = 0;
    size_t defects = 0;
    for (auto _ : state) {
        const std::vector<int>& s = cap.defects[i];
        benchmark::DoNotOptimize(uf.decode_defects(s));
        defects += s.size();
        i = i + 1 == cap.defects.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["defects_per_shot"] = benchmark::Counter(
        static_cast<double>(defects) /
        static_cast<double>(std::max<int64_t>(1, state.iterations())));
}
BENCHMARK(BM_UnionFindDecode)->ArgName("d")->Arg(7)->Arg(11);

void
BM_DemBuild(benchmark::State& state)
{
    const CodeBundle& b = surface7();
    for (auto _ : state) {
        DemBuilder dem(b.code, b.rc, NoiseParams::standard(), 21);
        benchmark::DoNotOptimize(dem.build());
    }
}
BENCHMARK(BM_DemBuild);

}  // namespace

BENCHMARK_MAIN();
