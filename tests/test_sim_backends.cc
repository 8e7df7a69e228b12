// The Simulator interface contract, exercised identically against both
// backends (frame and tableau) THROUGH the interface — never through the
// concrete classes: noiseless syndrome determinism, injected-Pauli
// detector signatures, the classical leak-oracle semantics, and a full
// closed-loop experiment on the tableau backend via ExperimentRunner::run.
// The SparsePlan tests at the end pin the sparse sampler's planned round
// streams: statistically through ExperimentRunner, and directly on the
// batch driver over a recording BatchStatePrimitives double.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "codes/color_code.h"
#include "codes/surface_code.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "sim/batch_driver.h"
#include "sim/simulator.h"
#include "stats/stats.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

constexpr SimBackend kBackends[] = {SimBackend::kFrame,
                                    SimBackend::kTableau,
                                    SimBackend::kBatchFrame,
                                    SimBackend::kBatchTableau};

NoiseParams
noiseless()
{
    NoiseParams np;
    np.p = 0.0;
    np.leak_ratio = 0.0;
    np.lrc_leak_prob = 0.0;
    return np;
}

struct Harness {
    CssCode code;
    RoundCircuit rc;

    explicit Harness(CssCode c) : code(std::move(c)), rc(code) {}
};

TEST(SimBackends, NamesRoundTrip)
{
    EXPECT_EQ(backend_from_name("frame"), SimBackend::kFrame);
    EXPECT_EQ(backend_from_name("tableau"), SimBackend::kTableau);
    EXPECT_EQ(backend_from_name("batch_frame"), SimBackend::kBatchFrame);
    EXPECT_EQ(backend_from_name("batch_tableau"),
              SimBackend::kBatchTableau);
    for (SimBackend b : kBackends)
        EXPECT_EQ(backend_from_name(backend_name(b)), b);
    EXPECT_THROW(backend_from_name("stim"), std::runtime_error);

    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 1);
        EXPECT_EQ(sim->name(), backend_name(b));
    }
}

TEST(SimBackends, KnownBackendsCoverTheEnumAndTheNameList)
{
    const std::vector<SimBackend>& all = known_backends();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_NE(std::find(all.begin(), all.end(), SimBackend::kBatchFrame),
              all.end());
    EXPECT_NE(std::find(all.begin(), all.end(), SimBackend::kBatchTableau),
              all.end());
    for (SimBackend b : kBackends)
        EXPECT_NE(std::find(all.begin(), all.end(), b), all.end());
    const std::string names = known_backend_names();
    for (SimBackend b : all)
        EXPECT_NE(names.find(backend_name(b)), std::string::npos)
            << names;
}

TEST(SimBackends, UnknownNameErrorListsTheKnownBackends)
{
    // The unhelpful-failure-mode fix: a typo'd backend name must name the
    // bad input AND every accepted name, wherever it enters the system.
    try {
        backend_from_name("stim");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"stim\""), std::string::npos) << what;
        EXPECT_NE(what.find("known backends"), std::string::npos) << what;
        for (SimBackend b : kBackends)
            EXPECT_NE(what.find(backend_name(b)), std::string::npos)
                << what;
    }
}

TEST(SimBackends, BackendFromEnvNamesTheVariableOnBadValues)
{
    // Restore the caller's selection afterwards: CI runs whole test
    // binaries under GLD_BACKEND=tableau, and clobbering the variable
    // here would silently de-gate every later env-honouring test.
    const char* prev_raw = std::getenv("GLD_BACKEND");
    const std::string prev = prev_raw != nullptr ? prev_raw : "";

    ASSERT_EQ(setenv("GLD_BACKEND", "no-such-engine", /*overwrite=*/1), 0);
    try {
        backend_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("GLD_BACKEND"), std::string::npos) << what;
        EXPECT_NE(what.find("no-such-engine"), std::string::npos) << what;
        EXPECT_NE(what.find("known backends"), std::string::npos) << what;
    }
    ASSERT_EQ(unsetenv("GLD_BACKEND"), 0);
    EXPECT_EQ(backend_from_env(), SimBackend::kFrame);  // unset = default

    if (prev_raw != nullptr) {
        ASSERT_EQ(setenv("GLD_BACKEND", prev.c_str(), 1), 0);
    }
}

TEST(SimBackends, NoiseSamplingNamesEnvAndContracts)
{
    // Name mapping round-trips, with the same helpful-failure contract
    // as the backend names.
    EXPECT_EQ(noise_sampling_from_name("lockstep"),
              NoiseSampling::kLockstep);
    EXPECT_EQ(noise_sampling_from_name("sparse"), NoiseSampling::kSparse);
    EXPECT_STREQ(noise_sampling_name(NoiseSampling::kLockstep), "lockstep");
    EXPECT_STREQ(noise_sampling_name(NoiseSampling::kSparse), "sparse");
    try {
        noise_sampling_from_name("dense");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"dense\""), std::string::npos) << what;
        EXPECT_NE(what.find("lockstep"), std::string::npos) << what;
        EXPECT_NE(what.find("sparse"), std::string::npos) << what;
    }

    // GLD_NOISE_SAMPLING: unset = the library default (sparse); bad values
    // name the variable.
    const char* prev_raw = std::getenv("GLD_NOISE_SAMPLING");
    const std::string prev = prev_raw != nullptr ? prev_raw : "";
    ASSERT_EQ(unsetenv("GLD_NOISE_SAMPLING"), 0);
    EXPECT_EQ(noise_sampling_from_env(), NoiseSampling::kSparse);
    ASSERT_EQ(setenv("GLD_NOISE_SAMPLING", "dense", 1), 0);
    try {
        noise_sampling_from_env();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("GLD_NOISE_SAMPLING"),
                  std::string::npos)
            << e.what();
    }
    if (prev_raw != nullptr)
        ASSERT_EQ(setenv("GLD_NOISE_SAMPLING", prev.c_str(), 1), 0);
    else
        ASSERT_EQ(unsetenv("GLD_NOISE_SAMPLING"), 0);

    // RNG contracts: sparse moves ONLY the batch backends to new,
    // distinct contracts; the scalar backends ignore the mode — which is
    // exactly what makes (sparse grid, frame reference, batch candidate)
    // a statistical comparison against a genuine lockstep reference.
    const NoiseSampling L = NoiseSampling::kLockstep;
    const NoiseSampling S = NoiseSampling::kSparse;
    EXPECT_EQ(backend_rng_contract(SimBackend::kFrame, S),
              backend_rng_contract(SimBackend::kFrame, L));
    EXPECT_EQ(backend_rng_contract(SimBackend::kTableau, S),
              backend_rng_contract(SimBackend::kTableau, L));
    EXPECT_NE(backend_rng_contract(SimBackend::kBatchFrame, S),
              backend_rng_contract(SimBackend::kBatchFrame, L));
    EXPECT_NE(backend_rng_contract(SimBackend::kBatchTableau, S),
              backend_rng_contract(SimBackend::kBatchTableau, L));
    EXPECT_NE(backend_rng_contract(SimBackend::kBatchFrame, S),
              backend_rng_contract(SimBackend::kBatchTableau, S));
    // The one-arg form is the lockstep contract (unchanged call sites).
    for (SimBackend b : kBackends)
        EXPECT_EQ(backend_rng_contract(b), backend_rng_contract(b, L));
}

TEST(SimBackends, MakeSimulatorRejectsBadBatchWidths)
{
    // The block multiplier is validated uniformly at the factory for
    // every backend — a bad config fails the same way whether or not the
    // backend actually packs lanes.
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        for (int words : {0, -1, kMaxBatchWords + 1})
            EXPECT_THROW(
                make_simulator(b, h.code, h.rc, noiseless(), 1, words),
                std::invalid_argument);
        // Every in-range block multiplier constructs, and no batch
        // backend is wider than one 64-lane word at any of them.
        for (int words = 1; words <= kMaxBatchWords; ++words) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 1, words);
            EXPECT_EQ(sim->name(), backend_name(b));
            if (b == SimBackend::kBatchFrame ||
                b == SimBackend::kBatchTableau) {
                EXPECT_EQ(sim->batch_width(), kBatchLanes) << words;
            }
        }
    }
}

TEST(SimBackends, NoiselessSyndromesAreDeterministicOnBothBackends)
{
    const Harness h(SurfaceCode::make(3));
    const LrcSchedule none;
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 7);
        RoundResult rr;
        for (int r = 0; r < 4; ++r) {
            rr = sim->run_round(none);
            for (int c = 0; c < h.code.n_checks(); ++c)
                EXPECT_EQ(rr.detector[c], 0) << "round " << r << " check "
                                             << c;
        }
        // Final transversal readout: individual outcomes may be random
        // on an exact-stabilizer backend (X-check projections), but the
        // parities the runner decodes from are deterministic — every
        // Z-check support parity matches the last ancilla measurement
        // (quiet final detector) and the logical-Z parity is 0 (|0_L>).
        const std::vector<uint8_t> flips = sim->final_data_measure();
        for (int c = 0; c < h.code.n_checks(); ++c) {
            if (h.code.check(c).type != CheckType::kZ)
                continue;
            uint8_t parity = rr.meas_flip[c];
            for (int q : h.code.check(c).support)
                parity ^= flips[q];
            EXPECT_EQ(parity, 0) << "check " << c;
        }
        uint8_t logical = 0;
        for (int q : h.code.logical_z())
            logical ^= flips[q];
        EXPECT_EQ(logical, 0);
    }
}

/** One noiseless round; returns the detector vector. */
std::vector<uint8_t>
quiet_round(Simulator* sim)
{
    const LrcSchedule none;
    return sim->run_round(none).detector;
}

TEST(SimBackends, InjectedXSignatureAgreesAcrossBackends)
{
    const Harness h(SurfaceCode::make(3));
    for (int q = 0; q < h.code.n_data(); ++q) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 11);
            quiet_round(sim.get());
            sim->inject_x(q);
            sig.push_back(quiet_round(sim.get()));
            // The signature is a one-round event: the next round is
            // quiet again (the flip is permanent, the detector XOR
            // cancels).
            for (uint8_t d : quiet_round(sim.get()))
                EXPECT_EQ(d, 0);
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, InjectedZSignatureAgreesAcrossBackends)
{
    // Z faults show up on X checks — also covers the Hadamard paths.
    const Harness h(SurfaceCode::make(3));
    for (int q = 0; q < h.code.n_data(); ++q) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 13);
            quiet_round(sim.get());
            sim->inject_z(q);
            sig.push_back(quiet_round(sim.get()));
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, InjectedXSignatureAgreesOnColorCode)
{
    // A self-dual code with a different scheduled circuit shape.
    const Harness h(ColorCode::make(5));
    for (int q = 0; q < h.code.n_data(); q += 3) {
        SCOPED_TRACE(q);
        std::vector<std::vector<uint8_t>> sig;
        for (SimBackend b : kBackends) {
            const auto sim =
                make_simulator(b, h.code, h.rc, noiseless(), 17);
            quiet_round(sim.get());
            sim->inject_x(q);
            sig.push_back(quiet_round(sim.get()));
        }
        for (size_t i = 1; i < sig.size(); ++i)
            EXPECT_EQ(sig[0], sig[i]) << "backend " << backend_name(kBackends[i]);
    }
}

TEST(SimBackends, LeakOracleSemanticsAgreeAcrossBackends)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 19);
        EXPECT_EQ(sim->n_data_leaked(), 0);
        EXPECT_EQ(sim->n_check_leaked(), 0);

        sim->inject_data_leak(2);
        EXPECT_TRUE(sim->data_leaked(2));
        EXPECT_EQ(sim->n_data_leaked(), 1);

        sim->inject_check_leak(1);
        EXPECT_TRUE(sim->check_leaked(1));
        EXPECT_EQ(sim->n_check_leaked(), 1);

        // Measurement + reset rounds do NOT clear leakage (noiseless,
        // zero mobility: nothing can move or clear the flags)...
        quiet_round(sim.get());
        EXPECT_TRUE(sim->data_leaked(2));
        EXPECT_TRUE(sim->check_leaked(1));

        // ...but the LRC gadgets do.
        LrcSchedule lrcs;
        lrcs.data_qubits = {2};
        lrcs.checks = {1};
        sim->run_round(lrcs);
        EXPECT_FALSE(sim->data_leaked(2));
        EXPECT_FALSE(sim->check_leaked(1));
        EXPECT_EQ(sim->n_data_leaked(), 0);
        EXPECT_EQ(sim->n_check_leaked(), 0);

        // reset_shot clears everything.
        sim->inject_data_leak(0);
        sim->reset_shot();
        EXPECT_EQ(sim->n_data_leaked(), 0);
    }
}

TEST(SimBackends, LeakedDataRandomizesAdjacentChecksOnBothBackends)
{
    // A leaked data qubit malfunctions its CNOTs: adjacent checks see
    // random flips (~50% per §2.3), so over many rounds each backend must
    // fire SOME detector events — the behaviour speculation policies key
    // on, here observed through the shared interface.
    const Harness h(SurfaceCode::make(3));
    NoiseParams np = noiseless();
    np.mobility = 0.0;  // keep the leak parked on the data qubit
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        const auto sim = make_simulator(b, h.code, h.rc, np, 23);
        quiet_round(sim.get());
        sim->inject_data_leak(4);
        int events = 0;
        for (int r = 0; r < 20; ++r) {
            for (uint8_t d : quiet_round(sim.get()))
                events += d;
        }
        EXPECT_GT(events, 0);
        EXPECT_TRUE(sim->data_leaked(4));
    }
}

// --- Closed loop through ExperimentRunner::run() on the tableau backend. ---

ExperimentConfig
tableau_cfg()
{
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 6;
    cfg.shots = 24;
    cfg.seed = 0x7AB1EA05EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 8;  // small run: keep a few shots per stream
    cfg.backend = SimBackend::kTableau;
    return cfg;
}

TEST(SimBackends, TableauClosedLoopRunsUnderEraserPolicy)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const ExperimentConfig cfg = tableau_cfg();
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(/*use_mlr=*/true));
    EXPECT_EQ(m.shots, cfg.shots);
    EXPECT_EQ(m.decoded_shots, cfg.shots);
    EXPECT_GT(m.lrc_check_total + m.lrc_data_total, 0.0);
    // Leakage sampling guarantees ground-truth leakage to account.
    EXPECT_GT(m.dlp_total, 0.0);

    // Determinism contract holds per backend: bit-identical across
    // thread counts.
    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        ExperimentConfig c = cfg;
        c.threads = threads;
        const ExperimentRunner r2(ctx, c);
        expect_metrics_identical(m, r2.run(PolicyZoo::eraser(true)));
    }
}

TEST(SimBackends, TableauOracleFeedsIdealPolicyThroughInterface)
{
    // IDEAL reads the ground-truth oracle through the Simulator base —
    // with the tableau backend this only works if set_leak_oracle is wired
    // through the interface, which is exactly what this pins.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg = tableau_cfg();
    cfg.compute_ler = false;
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::ideal());
    // The oracle policy never misses and never misfires.
    EXPECT_DOUBLE_EQ(m.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
    EXPECT_GT(m.tp_total, 0.0);
}

TEST(SimBackends, NoiselessTableauLerIsZero)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg = tableau_cfg();
    cfg.np = noiseless();
    cfg.leakage_sampling = false;
    const ExperimentRunner runner(ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_EQ(m.decoded_shots, cfg.shots);
    EXPECT_EQ(m.logical_errors, 0);
}

// --- The batch gate: frame vs batch_frame must be BIT-identical. ---
//
// The bit-packed backend's whole correctness story is that lane k of a
// batch replays the scalar frame backend's shot k draw for draw, so the
// aggregated Metrics of any config must match frame's exactly — not
// statistically, bitwise.  Every noisy code path is exercised: LRC-heavy
// policies, the oracle policy (per-lane oracle views), MLR, decoding,
// leakage sampling, multi-block streams and a partial final batch.

Metrics
run_backend(const CodeContext& ctx, ExperimentConfig cfg, SimBackend b,
            const PolicyFactory& factory, int threads = 1)
{
    cfg.backend = b;
    cfg.threads = threads;
    cfg.noise_sampling = NoiseSampling::kLockstep;  // the bit-exact mode
    return ExperimentRunner(ctx, cfg).run(factory);
}

TEST(BatchFrameBitEquality, SurfaceEraserWithLerAndSeries)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 0.5);  // busy leak dynamics
    cfg.rounds = 8;
    cfg.shots = 100;  // streams of 12/13 shots: every batch is partial
    cfg.seed = 0xBA7C4F5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.compute_ler = true;
    cfg.rng_streams = 8;

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, factory);
    EXPECT_GT(frame.dlp_total, 0.0);
    EXPECT_GT(frame.lrc_data_total + frame.lrc_check_total, 0.0);
    for (int threads : {1, 8, 16}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            frame, run_backend(ctx, cfg, SimBackend::kBatchFrame, factory,
                               threads));
    }
}

TEST(BatchFrameBitEquality, MultiBlockStreamsAndPartialFinalBatch)
{
    // One stream of 150 shots: batches of 64, 64 and 22 — the padded
    // final batch must not perturb the active lanes.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 1.0);
    cfg.rounds = 5;
    cfg.shots = 150;
    cfg.seed = 0xB10C64B17ull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 1;
    ASSERT_EQ(ExperimentRunner::stream_blocks(cfg, 0), 3);
    ASSERT_NE(cfg.shots % ExperimentRunner::kShotBlock, 0);

    const PolicyFactory factory = PolicyZoo::eraser(/*use_mlr=*/true);
    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, factory);
    for (int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        expect_metrics_identical(
            frame, run_backend(ctx, cfg, SimBackend::kBatchFrame, factory,
                               threads));
    }
}

TEST(BatchFrameBitEquality, IdealOracleReadsPerLaneTruth)
{
    // The oracle policy on the batch path reads a per-lane oracle view;
    // a lane seeing any other lane's truth breaks FN/FP == frame.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(2e-3, 1.0);
    cfg.rounds = 6;
    cfg.shots = 96;
    cfg.seed = 0x1DEA15EEDull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 1;  // one 64-lane batch + one 32-lane batch

    const Metrics frame =
        run_backend(ctx, cfg, SimBackend::kFrame, PolicyZoo::ideal());
    const Metrics batch = run_backend(ctx, cfg, SimBackend::kBatchFrame,
                                      PolicyZoo::ideal());
    EXPECT_DOUBLE_EQ(batch.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(batch.fp_total, 0.0);
    EXPECT_GT(batch.tp_total, 0.0);
    expect_metrics_identical(frame, batch);
}

TEST(BatchFrameBitEquality, ColorCodeGladiatorPolicy)
{
    // A different circuit shape (self-dual color code) and the stateful
    // table-driven policy, 64 instances of which run lane-parallel.
    const CssCode code = ColorCode::make(5);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.5);
    cfg.rounds = 6;
    cfg.shots = 80;
    cfg.seed = 0xC0104B17ull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 4;

    const PolicyFactory factory =
        PolicyZoo::gladiator(/*use_mlr=*/true, cfg.np);
    expect_metrics_identical(
        run_backend(ctx, cfg, SimBackend::kFrame, factory),
        run_backend(ctx, cfg, SimBackend::kBatchFrame, factory, 4));
}

TEST(BatchFrameBitEquality, ScalarInterfaceCallsMatchFrameDrawForDraw)
{
    // Through the scalar Simulator API a batch sim runs one-lane batches;
    // with the same seed the per-round results must equal frame's exactly
    // (same master stream, same split-per-shot derivation).
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    const auto frame =
        make_simulator(SimBackend::kFrame, h.code, h.rc, np, 99);
    const auto batch =
        make_simulator(SimBackend::kBatchFrame, h.code, h.rc, np, 99);
    const LrcSchedule none;
    for (int shot = 0; shot < 4; ++shot) {
        frame->reset_shot();
        batch->reset_shot();
        for (int r = 0; r < 6; ++r) {
            const RoundResult a = frame->run_round(none);
            const RoundResult b = batch->run_round(none);
            EXPECT_EQ(a.meas_flip, b.meas_flip);
            EXPECT_EQ(a.detector, b.detector);
            EXPECT_EQ(a.mlr_flag, b.mlr_flag);
        }
        EXPECT_EQ(frame->final_data_measure(),
                  batch->final_data_measure());
        EXPECT_EQ(frame->n_data_leaked(), batch->n_data_leaked());
        EXPECT_EQ(frame->n_check_leaked(), batch->n_check_leaked());
    }
}

TEST(SimBackends, BackendsAgreeStatisticallyOnDlp)
{
    // Same config, different backends: the leak-flag dynamics are
    // identical machinery, so the DLP rates must agree statistically
    // (the tableau engines draw independent measurement randomness).
    // Refereed by the SAME stats:: pipeline gld_campaign verify uses — a
    // pooled two-proportion z-test on Metrics::dlp_sample — instead of
    // the arbitrary 0.5x..2x ratio bounds this test shipped with.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 1.0);  // leak-rich
    cfg.rounds = 12;
    cfg.shots = 160;
    cfg.seed = 0xA9EEB05EEDull;
    cfg.leakage_sampling = true;
    cfg.rng_streams = 8;

    cfg.backend = SimBackend::kFrame;
    const Metrics frame = ExperimentRunner(ctx, cfg).run(PolicyZoo::no_lrc());
    ASSERT_GT(frame.dlp_mean(), 0.0);
    const int n_data = code.n_data();
    for (SimBackend b :
         {SimBackend::kTableau, SimBackend::kBatchTableau}) {
        SCOPED_TRACE(backend_name(b));
        cfg.backend = b;
        const Metrics tab =
            ExperimentRunner(ctx, cfg).run(PolicyZoo::no_lrc());
        ASSERT_GT(tab.dlp_mean(), 0.0);
        const stats::TwoProportionResult r = stats::two_proportion_z(
            frame.dlp_sample(n_data), tab.dlp_sample(n_data));
        // One pinned-seed test = one draw from the null; alpha 0.001
        // keeps the false-failure budget negligible while catching any
        // real divergence (a broken backend shifts DLP by far more than
        // 3 sigma).
        EXPECT_GE(r.p_value, 0.001)
            << "dlp " << frame.dlp_mean() << " vs " << tab.dlp_mean()
            << " (z=" << r.z << ")";
    }
}

TEST(BatchFrameBitEquality, ScalarInterfaceAtWideBatchStillMatchesFrame)
{
    // The scalar Simulator adapters run one-lane batches regardless of
    // the constructed batch width: lane 0's RNG stream is derived from
    // the same per-shot split at any K, so a K=4 batch sim driven
    // through the scalar API must still equal frame draw for draw.
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    const auto frame =
        make_simulator(SimBackend::kFrame, h.code, h.rc, np, 99);
    const auto batch = make_simulator(SimBackend::kBatchFrame, h.code,
                                      h.rc, np, 99, /*batch_words=*/4);
    const LrcSchedule none;
    for (int shot = 0; shot < 4; ++shot) {
        frame->reset_shot();
        batch->reset_shot();
        for (int r = 0; r < 6; ++r) {
            const RoundResult a = frame->run_round(none);
            const RoundResult b = batch->run_round(none);
            EXPECT_EQ(a.meas_flip, b.meas_flip);
            EXPECT_EQ(a.detector, b.detector);
            EXPECT_EQ(a.mlr_flag, b.mlr_flag);
        }
        EXPECT_EQ(frame->final_data_measure(),
                  batch->final_data_measure());
    }
}


// --- The sparse sampler's planned round streams. ---
//
// Under sparse sampling each round draws its p, pl and MLR events up
// front over (site x active lane) positions, and a masked site (reset
// init error, readout error) drops the events on its leaked lanes.  The
// tests below pin that contract: statistical agreement with the lockstep
// reference where leakage is heavy (so masked sites discard often), the
// degenerate rates, and partial batches.

TEST(SparsePlan, AgreesWithLockstepAtLeakHeavyNoise)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const int n_data = code.n_data();
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(5e-3, 1.0);
    cfg.rounds = 10;
    cfg.seed = 0x5BA25E91A7ull;
    cfg.compute_ler = true;
    cfg.threads = 2;

    // batch_tableau costs ~20x batch_frame per shot: fewer shots keep the
    // suite inside the tier-1 timeout under TSan.
    const std::pair<SimBackend, int> backends[] = {
        {SimBackend::kBatchFrame, 20000}, {SimBackend::kBatchTableau, 5000}};
    const std::pair<const char*, PolicyFactory> policies[] = {
        {"NoLRC", PolicyZoo::no_lrc()},
        {"GLADIATOR+M", PolicyZoo::gladiator(/*use_mlr=*/true, cfg.np)}};
    // 2 backends x 2 policies x {LER, FN, FP, DLP}.
    const double alpha = stats::sidak_alpha(1e-6, 16);
    for (const auto& [b, shots] : backends) {
        for (const auto& [name, factory] : policies) {
            SCOPED_TRACE(std::string(backend_name(b)) + " " + name);
            cfg.backend = b;
            cfg.shots = shots;
            cfg.noise_sampling = NoiseSampling::kLockstep;
            const Metrics lock = ExperimentRunner(ctx, cfg).run(factory);
            cfg.noise_sampling = NoiseSampling::kSparse;
            const Metrics sparse = ExperimentRunner(ctx, cfg).run(factory);
            ASSERT_GT(lock.dlp_mean(), 0.0);
            const std::pair<const char*, std::pair<stats::RateSample,
                                                   stats::RateSample>>
                samples[] = {
                    {"ler", {lock.ler_sample(), sparse.ler_sample()}},
                    {"fn",
                     {lock.fn_sample(n_data), sparse.fn_sample(n_data)}},
                    {"fp",
                     {lock.fp_sample(n_data), sparse.fp_sample(n_data)}},
                    {"dlp",
                     {lock.dlp_sample(n_data), sparse.dlp_sample(n_data)}}};
            for (const auto& [metric, ab] : samples) {
                const stats::TwoProportionResult r =
                    stats::two_proportion_z(ab.first, ab.second);
                EXPECT_GE(r.p_value, alpha)
                    << metric << " lockstep " << r.rate1 << " vs sparse "
                    << r.rate2 << " (z=" << r.z << ")";
            }
        }
    }
}

/**
 * BatchStatePrimitives that records every call the driver makes, with
 * the lane words it passed.  measure_z reports every lane flipped, so a
 * readout on a padding lane would show.
 */
struct RecordingBatchState final : BatchStatePrimitives {
    struct Call {
        std::string op;
        int q = -1;
        LaneMask a = 0, b = 0;  ///< the call's words (xs/zs, lanes)
    };
    std::vector<Call> calls;

    void reset_state() override { calls.push_back({"reset_state", -1}); }
    void apply_pauli(int q, LaneMask xs, LaneMask zs) override
    {
        calls.push_back({"pauli", q, xs, zs});
    }
    void coherent_cnot(int control, int /*target*/, LaneMask lanes) override
    {
        calls.push_back({"cnot", control, lanes});
    }
    void hadamard(int q, LaneMask lanes) override
    {
        calls.push_back({"h", q, lanes});
    }
    void reset_z(int q, LaneMask lanes) override
    {
        calls.push_back({"reset_z", q, lanes});
    }
    LaneMask measure_z(int q) override
    {
        calls.push_back({"measure", q, ~0ull});
        return ~0ull;
    }
    void park_leaked(int q, LaneMask lanes) override
    {
        calls.push_back({"park", q, lanes});
    }
};

/** A sparse driver over a recorder, surface d=3. */
struct SparseRig {
    CssCode code = SurfaceCode::make(3);
    RoundCircuit rc{code};
    RecordingBatchState state;
    BatchLeakageDriver driver;
    LrcWords lrc;

    explicit SparseRig(const NoiseParams& np, uint64_t seed = 7)
        : driver(code, rc, np, Rng(seed), &state, NoiseSampling::kSparse)
    {
        lrc.reset(code.n_data(), code.n_checks());
    }
};

NoiseParams
rates(double p, double leak_ratio, double mlr_ratio)
{
    NoiseParams np;
    np.p = p;
    np.leak_ratio = leak_ratio;
    np.mlr_ratio = mlr_ratio;
    np.lrc_leak_prob = 0.0;
    np.mobility = 0.0;
    return np;
}

TEST(SparsePlan, ResetInitErrorsSkipLeakedLanes)
{
    // Half the lanes start with every ancilla leaked and nothing moves a
    // leak (pl = 0, mobility 0, no LRC).  The init-error flip that
    // follows each reset may only touch the lanes the reset served.
    SparseRig rig(rates(0.3, 0.0, 0.0));
    rig.driver.reset_shot_batch(64);
    const LaneMask leaked_lanes = 0xF0F0F0F0F0F0F0F0ull;
    for (int c = 0; c < rig.code.n_checks(); ++c)
        rig.driver.set_check_leak(c, leaked_lanes);
    rig.state.calls.clear();
    for (int r = 0; r < 20; ++r)
        rig.driver.run_round_batch(rig.lrc);
    int flips = 0;
    const auto& calls = rig.state.calls;
    for (size_t i = 1; i < calls.size(); ++i) {
        if (calls[i].op != "pauli" || calls[i - 1].op != "reset_z" ||
            calls[i].q != calls[i - 1].q)
            continue;
        ++flips;
        EXPECT_EQ(calls[i - 1].a & leaked_lanes, 0u);
        EXPECT_EQ(calls[i].a & ~calls[i - 1].a, 0u)
            << "init error on a lane the reset skipped, qubit "
            << calls[i].q;
        EXPECT_EQ(calls[i].b, 0u);
    }
    EXPECT_GT(flips, 20);
}

TEST(SparsePlan, RateOneFiresEveryActiveLaneAtEverySite)
{
    // p = 1 (pl = 1, MLR error 1): every planned site fires on every
    // active lane, with no draw deciding it.
    SparseRig rig(rates(1.0, 1.0, 1.0));
    rig.driver.reset_shot_batch(64);
    rig.state.calls.clear();
    rig.driver.run_round_batch(rig.lrc);
    const auto& calls = rig.state.calls;
    const int n_data = rig.code.n_data();
    // The data prelude: each qubit depolarizes on all 64 lanes (a
    // nonidentity Pauli per lane), then leaks on all of them.
    ASSERT_GE(calls.size(), static_cast<size_t>(2 * n_data));
    for (int q = 0; q < n_data; ++q) {
        const auto& c = calls[static_cast<size_t>(2 * q)];
        EXPECT_EQ(c.op, "pauli");
        EXPECT_EQ(c.q, q);
        EXPECT_EQ(c.a | c.b, ~0ull);
        EXPECT_EQ(calls[static_cast<size_t>(2 * q + 1)].op, "park");
        EXPECT_EQ(calls[static_cast<size_t>(2 * q + 1)].a, ~0ull);
    }
    for (int q = 0; q < rig.code.n_qubits(); ++q)
        EXPECT_EQ(rig.driver.leaked(q), ~0ull) << q;
    // Every measured ancilla is leaked, so MLR reads leaked ^ error = 0.
    for (int c = 0; c < rig.code.n_checks(); ++c)
        EXPECT_EQ(rig.driver.mlr_words()[c], 0u) << c;
}

TEST(SparsePlan, RateZeroFiresNothing)
{
    SparseRig rig(rates(0.0, 1.0, 1.0));
    rig.driver.reset_shot_batch(64);
    rig.state.calls.clear();
    for (int r = 0; r < 10; ++r)
        rig.driver.run_round_batch(rig.lrc);
    for (const auto& c : rig.state.calls) {
        EXPECT_NE(c.op, "pauli");
        EXPECT_NE(c.op, "park");
    }
    for (int c = 0; c < rig.code.n_checks(); ++c) {
        EXPECT_EQ(rig.driver.detector_words()[c], 0u);
        EXPECT_EQ(rig.driver.mlr_words()[c], 0u);
    }
}

TEST(SparsePlan, PartialBatchesNeverFirePaddingLanes)
{
    // 37 of 64 lanes.  Heavy noise, every LRC requested on every lane
    // including the padding: no primitive may see a padding lane, and no
    // round word may carry one.
    const int n_lanes = 37;
    NoiseParams np = rates(0.4, 0.5, 1.0);
    np.lrc_leak_prob = 0.3;
    np.mobility = 0.5;
    SparseRig rig(np);
    rig.driver.reset_shot_batch(n_lanes);
    const LaneMask pad = ~rig.driver.active();
    ASSERT_EQ(pad, ~0ull << n_lanes);
    const auto no_padding = [&](const LaneMask* m, int n,
                                const std::string& what) {
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(m[i] & pad, 0u) << what << " word " << i;
    };
    std::fill(rig.lrc.data.begin(), rig.lrc.data.end(), ~0ull);
    std::fill(rig.lrc.checks.begin(), rig.lrc.checks.end(), ~0ull);
    LrcWords none;
    none.reset(rig.code.n_data(), rig.code.n_checks());
    for (int r = 0; r < 12; ++r) {
        rig.state.calls.clear();
        // Alternate gadget rounds and plain rounds so leaks build up.
        rig.driver.run_round_batch(r % 3 == 2 ? rig.lrc : none);
        for (const auto& c : rig.state.calls) {
            if (c.op != "measure") {
                EXPECT_EQ(c.a & pad, 0u) << c.op;
                EXPECT_EQ(c.b & pad, 0u) << c.op;
            }
        }
        const int nc = rig.code.n_checks();
        no_padding(rig.driver.meas_flip_words(), nc, "meas_flip");
        no_padding(rig.driver.detector_words(), nc, "detector");
        no_padding(rig.driver.mlr_words(), nc, "mlr");
        no_padding(rig.driver.leaked_words(), rig.code.n_qubits(), "leaked");
    }
    std::vector<std::vector<uint8_t>> flips;
    rig.driver.final_data_measure_batch(&flips);
    EXPECT_EQ(flips.size(), static_cast<size_t>(n_lanes));
}

}  // namespace
}  // namespace gld
