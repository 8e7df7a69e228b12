// Microbenchmarks (google-benchmark): online classification latency on
// captured rounds, table construction, simulator round throughput, and
// union-find decoding — the performance claims behind §4.4's "a few
// nanoseconds per syndrome".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/pattern_table.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "sim/frame_sim.h"
#include "sim/lane_span.h"
#include "../tests/reference_union_find.h"

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
 * policy inputs).
 */
struct PaperCapture {
    int rounds = 0;
    int lanes = 0;
    LaneMask active = ~0ull;
    std::vector<std::vector<LaneMask>> det, mlr, meas, leaked;  ///< [round]

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

/**
 * Runs one 64-lane batch of `rounds` rounds on `sim` the runner's way.
 * Appends each shot's decoder input to `defects` (fired Z detectors as
 * node r*nz + zi, then the final-readout row, ascending) and, when
 * `words` is set, every round's words to it.
 */
void
run_paper_batch(const CodeBundle& b, Policy& policy, BatchSimulator& sim,
                int rounds, std::vector<std::vector<int>>& defects,
                PaperCapture* words)
{
    const int lanes = sim.batch_width();
    const LaneMask active = ~0ull;
    const int nc = b.code.n_checks();
    const std::vector<int> z = b.code.checks_of_type(CheckType::kZ);
    const int nz = static_cast<int>(z.size());
    const size_t first = defects.size();
    defects.resize(first + static_cast<size_t>(lanes));
    std::vector<LaneMask> last_meas;
    LrcWords lrc;
    lrc.reset(b.code.n_data(), nc);
    sim.reset_shot_batch(lanes);
    policy.begin_batch(active);
    for (int r = 0; r < rounds; ++r) {
        sim.run_round_batch(lrc);
        RoundWords in;
        in.active = active;
        in.detector = sim.detector_words();
        in.mlr = sim.mlr_words();
        in.meas_flip = sim.meas_flip_words();
        in.leaked = sim.leaked_words();
        if (words != nullptr) {
            words->det.emplace_back(in.detector, in.detector + nc);
            words->mlr.emplace_back(in.mlr, in.mlr + nc);
            words->meas.emplace_back(in.meas_flip, in.meas_flip + nc);
            words->leaked.emplace_back(in.leaked,
                                       in.leaked + b.code.n_qubits());
            in = words->words(r);
        }
        for (int zi = 0; zi < nz; ++zi)
            for_each_lane(in.detector[static_cast<size_t>(z[zi])],
                          [&](int l) {
                              defects[first + static_cast<size_t>(l)]
                                  .push_back(r * nz + zi);
                          });
        if (r + 1 == rounds)
            last_meas.assign(in.meas_flip, in.meas_flip + nc);
        lrc.reset(b.code.n_data(), nc);
        policy.observe_batch(r, in, &lrc);
    }
    std::vector<std::vector<uint8_t>> flips;
    sim.final_data_measure_batch(&flips);
    for (int l = 0; l < lanes; ++l) {
        for (int zi = 0; zi < nz; ++zi) {
            uint8_t det = static_cast<uint8_t>(
                (last_meas[static_cast<size_t>(z[zi])] >> l) & 1u);
            for (int q : b.code.check(z[zi]).support)
                det ^= flips[static_cast<size_t>(l)][static_cast<size_t>(q)];
            if (det)
                defects[first + static_cast<size_t>(l)].push_back(
                    rounds * nz + zi);
        }
    }
}

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
    std::vector<std::vector<int>> defects;
    run_paper_batch(b, *policy, *sim, rounds, defects, &out);
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

/**
 * Decoder inputs of `batches` full 64-lane batches at a paper LER config
 * (as PaperCapture, one simulator and policy across the batches), with
 * the graph they index.
 */
struct DecodeCapture {
    std::unique_ptr<DecodingGraph> graph;
    std::vector<std::vector<int>> defects;  ///< per shot, ascending
};

/**
 * The capture for surface distance d at `rounds` rounds: GLADIATOR+M at
 * d = 7 (the per-core headline workload's policy), ERASER+M otherwise
 * (the decode-heavy one's).  Eight batches, so one pass over the shots
 * does not fit in cache the way a single batch of 64 does.
 */
const DecodeCapture&
decode_capture(int d, int rounds)
{
    static std::map<std::pair<int, int>, DecodeCapture> cache;
    DecodeCapture& out = cache[{d, rounds}];
    if (out.graph)
        return out;
    constexpr int kBatches = 8;
    const CodeBundle b(SurfaceCode::make(d));
    const std::unique_ptr<Policy> policy =
        (d == 7 ? PolicyZoo::gladiator(true, kPaperNoise)
                : PolicyZoo::eraser(true))(b.ctx, 0);
    const std::unique_ptr<BatchSimulator> sim =
        make_simulator(SimBackend::kBatchFrame, b.code, b.rc, kPaperNoise,
                       static_cast<uint64_t>(d));
    for (int batch = 0; batch < kBatches; ++batch)
        run_paper_batch(b, *policy, *sim, rounds, out.defects, nullptr);
    out.graph = std::make_unique<DecodingGraph>(
        DemBuilder(b.code, b.rc, kPaperNoise, rounds).build());
    return out;
}

void
BM_UnionFindDecode(benchmark::State& state)
{
    // One decode per iteration, cycling through real captured syndromes
    // rather than i.i.d. bits, so growth and peeling see the cluster
    // shapes the runner does.  Args: distance, rounds.  Counters:
    // defects_per_shot (cluster sizes), ns_per_defect and ns_per_round
    // (whether decode cost per round grows with the history), and from
    // the decoder's own counters growth_rounds (passes over the odd
    // clusters per decode), clusters_per_defect (frontier walks per
    // defect) and replay_share (decodes that replayed growth to peel).
    const int rounds = static_cast<int>(state.range(1));
    const DecodeCapture& cap =
        decode_capture(static_cast<int>(state.range(0)), rounds);
    UnionFindDecoder uf(*cap.graph);
    size_t i = 0;
    size_t defects = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        const std::vector<int>& s = cap.defects[i];
        benchmark::DoNotOptimize(uf.decode_defects(s));
        defects += s.size();
        i = i + 1 == cap.defects.size() ? 0 : i + 1;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const double shots = std::max<double>(1.0, state.iterations());
    const double n_defects = std::max<double>(1.0, defects);
    const UnionFindDecoder::Stats& st = uf.stats();
    const double decodes = std::max<double>(1.0, st.decodes);
    state.SetItemsProcessed(state.iterations());
    state.counters["defects_per_shot"] = static_cast<double>(defects) / shots;
    state.counters["ns_per_defect"] = ns / n_defects;
    state.counters["ns_per_round"] = ns / (shots * rounds);
    state.counters["growth_rounds"] = st.growth_rounds / decodes;
    state.counters["clusters_per_defect"] = st.clusters_grown / n_defects;
    state.counters["replay_share"] = st.replays / decodes;
}
BENCHMARK(BM_UnionFindDecode)
    ->ArgNames({"d", "rounds"})
    ->Args({7, 70})
    ->Args({11, 110})
    ->Args({11, 1100})
    ->Args({17, 1700});

void
BM_UnionFindVsReference(benchmark::State& state)
{
    // A yardstick that survives host drift: each iteration decodes every
    // captured shot with the production decoder (decode_defects, as the
    // runner calls it) and with the dense-array reference in
    // tests/reference_union_find.h (decode on the byte syndrome, its only
    // entry point), in alternating order.  prod_over_ref is the ratio of
    // their total times, so a claimed decoder gain can be checked as a
    // ratio on a busy host.  mismatches counts differing predictions or
    // residuals (0 by the exactness contract).  Args: distance, rounds.
    const DecodeCapture& cap = decode_capture(
        static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
    const DecodingGraph& graph = *cap.graph;
    std::vector<std::vector<uint8_t>> bytes;
    for (const std::vector<int>& s : cap.defects) {
        bytes.emplace_back(static_cast<size_t>(graph.n_nodes()), 0);
        for (int v : s)
            bytes.back()[static_cast<size_t>(v)] = 1;
    }
    UnionFindDecoder uf(graph);
    testing_ref::ReferenceUnionFind ref(graph);
    double prod_ns = 0.0;
    double ref_ns = 0.0;
    size_t mismatches = 0;
    bool prod_first = true;
    auto timed = [](auto&& pass) {
        const auto t0 = std::chrono::steady_clock::now();
        pass();
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<uint8_t> prod_out(cap.defects.size());
    std::vector<int> prod_res(cap.defects.size());
    auto prod_pass = [&] {
        for (size_t i = 0; i < cap.defects.size(); ++i) {
            prod_out[i] = uf.decode_defects(cap.defects[i]);
            prod_res[i] = uf.last_residual();
        }
    };
    auto ref_pass = [&] {
        for (size_t i = 0; i < bytes.size(); ++i) {
            mismatches += ref.decode(bytes[i]) != (prod_out[i] != 0) ||
                          ref.last_residual() != prod_res[i];
        }
    };
    prod_pass();  // fills prod_out before the first reference pass
    for (auto _ : state) {
        if (prod_first) {
            prod_ns += timed(prod_pass);
            ref_ns += timed(ref_pass);
        } else {
            ref_ns += timed(ref_pass);
            prod_ns += timed(prod_pass);
        }
        prod_first = !prod_first;
    }
    const double shots = std::max<double>(
        1.0, static_cast<double>(state.iterations()) * cap.defects.size());
    state.counters["prod_ns_per_shot"] = prod_ns / shots;
    state.counters["ref_ns_per_shot"] = ref_ns / shots;
    state.counters["prod_over_ref"] = prod_ns / std::max(1.0, ref_ns);
    state.counters["mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_UnionFindVsReference)
    ->ArgNames({"d", "rounds"})
    ->Args({7, 70})
    ->Args({11, 110})
    ->Unit(benchmark::kMillisecond);

/**
 * The decoding graph from scratch (template, tiles, DecodingGraph) at
 * the two LER workloads' shapes and at Fig 14's d = 17 x 1700 rounds.
 * Args: distance, rounds.  Counters: nodes and edges of the graph, and
 * stored_edges, the edge records its tiles actually hold.
 */
void
BM_DemBuild(benchmark::State& state)
{
    const CssCode code = SurfaceCode::make(static_cast<int>(state.range(0)));
    const RoundCircuit rc(code);
    const int rounds = static_cast<int>(state.range(1));
    int nodes = 0;
    size_t edges = 0;
    size_t stored = 0;
    for (auto _ : state) {
        DemBuilder dem(code, rc, kPaperNoise, rounds);
        const DecodingGraph g = dem.build();
        nodes = g.n_nodes();
        edges = g.edges().size();
        stored = g.stored_edges();
        benchmark::DoNotOptimize(g);
    }
    state.counters["nodes"] = nodes;
    state.counters["edges"] = static_cast<double>(edges);
    state.counters["stored_edges"] = static_cast<double>(stored);
}
BENCHMARK(BM_DemBuild)
    ->ArgNames({"d", "rounds"})
    ->Args({7, 70})
    ->Args({11, 110})
    ->Args({17, 1700})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
