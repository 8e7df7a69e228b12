// The Simulator interface contract, exercised identically against both
// backends (frame and tableau) THROUGH the interface — never through the
// concrete classes: noiseless syndrome determinism, injected-Pauli
// detector signatures, the classical leak-oracle semantics, and a full
// closed-loop experiment on the tableau backend via ExperimentRunner::run.
// The SparsePlan tests at the end pin the sparse sampler's planned round
// streams: statistically through ExperimentRunner, and directly on the
// batch driver's Pauli frame words.

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
                                    SimBackend::kBatchFrame};

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
    ASSERT_EQ(all.size(), 3u);
    EXPECT_NE(std::find(all.begin(), all.end(), SimBackend::kBatchFrame),
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
    // A deleted backend's name is as unknown as a typo.
    for (const std::string bad : {"stim", "batch_tableau"}) {
        try {
            backend_from_name(bad);
            FAIL() << "expected std::runtime_error for " << bad;
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("\"" + bad + "\""), std::string::npos)
                << what;
            EXPECT_NE(what.find("known backends"), std::string::npos)
                << what;
            for (SimBackend b : kBackends)
                EXPECT_NE(what.find(backend_name(b)), std::string::npos)
                    << what;
        }
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
    // The default is written once, in ExperimentConfig: the batch engine.
    // Unset or empty, the variable reads it.
    EXPECT_EQ(ExperimentConfig{}.backend, SimBackend::kBatchFrame);
    ASSERT_EQ(unsetenv("GLD_BACKEND"), 0);
    EXPECT_EQ(backend_from_env(), ExperimentConfig{}.backend);
    ASSERT_EQ(setenv("GLD_BACKEND", "", 1), 0);
    EXPECT_EQ(backend_from_env(), ExperimentConfig{}.backend);
    ASSERT_EQ(unsetenv("GLD_BACKEND"), 0);

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
    for (SimBackend b : kBackends)
        EXPECT_NE(backend_rng_contract(SimBackend::kBatchFrame, S),
                  backend_rng_contract(b, L))
            << backend_name(b);
}

TEST(SimBackends, MakeSimulatorRejectsBadBatchWidths)
{
    // The factory's vestigial block multiplier accepts only 1, for every
    // backend, and the batch backend is one 64-lane word wide.
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : kBackends) {
        SCOPED_TRACE(backend_name(b));
        for (int words : {0, -1, 2, 8})
            EXPECT_THROW(
                make_simulator(b, h.code, h.rc, noiseless(), 1, words),
                std::invalid_argument);
        const auto sim = make_simulator(b, h.code, h.rc, noiseless(), 1, 1);
        EXPECT_EQ(sim->name(), backend_name(b));
        if (b == SimBackend::kBatchFrame) {
            EXPECT_EQ(sim->batch_width(), kBatchLanes);
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
    // (the tableau engine draws independent measurement randomness).
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
    cfg.backend = SimBackend::kTableau;
    const Metrics tab = ExperimentRunner(ctx, cfg).run(PolicyZoo::no_lrc());
    ASSERT_GT(tab.dlp_mean(), 0.0);
    const stats::TwoProportionResult r = stats::two_proportion_z(
        frame.dlp_sample(n_data), tab.dlp_sample(n_data));
    // One pinned-seed test = one draw from the null; alpha 0.001 keeps
    // the false-failure budget negligible while catching any real
    // divergence (a broken backend shifts DLP by far more than 3 sigma).
    EXPECT_GE(r.p_value, 0.001)
        << "dlp " << frame.dlp_mean() << " vs " << tab.dlp_mean()
        << " (z=" << r.z << ")";
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

    cfg.backend = SimBackend::kBatchFrame;
    cfg.shots = 20000;
    const std::pair<const char*, PolicyFactory> policies[] = {
        {"NoLRC", PolicyZoo::no_lrc()},
        {"GLADIATOR+M", PolicyZoo::gladiator(/*use_mlr=*/true, cfg.np)}};
    // 2 policies x {LER, FN, FP, DLP}.
    const double alpha = stats::sidak_alpha(1e-6, 8);
    for (const auto& [name, factory] : policies) {
        SCOPED_TRACE(name);
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

/**
 * A sparse batch driver on surface d=3, read through its Pauli frame
 * words and its round words.
 */
struct SparseRig {
    CssCode code = SurfaceCode::make(3);
    RoundCircuit rc{code};
    BatchLeakageDriver driver;
    LrcWords lrc;

    explicit SparseRig(const NoiseParams& np, uint64_t seed = 7)
        : driver(code, rc, np, Rng(seed), NoiseSampling::kSparse)
    {
        lrc.reset(code.n_data(), code.n_checks());
    }

    /** Qubit q's X frame word (its readout flips) and Z frame word. */
    LaneMask x(int q) const { return driver.frame_words()[2 * q]; }
    LaneMask z(int q) const { return driver.frame_words()[2 * q + 1]; }
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
    // leak (pl = 0, mobility 0, no LRC).  A reset skips those lanes, and
    // no coherent gate reaches them either, so their ancilla frames
    // freeze.  Frame linearity shows it: a twin with the same seed whose
    // leaked lanes start with an X (half of them) or a Z (the other half)
    // on every ancilla draws the same events, so the twins' frames differ
    // by exactly that preload, every round.  A reset, Hadamard or CNOT
    // that touched a leaked lane would clear, swap or spread it.  An
    // init error that a reset
    // wrongly lets through to a leaked lane is the same in both twins and
    // cancels here; the leak-heavy pins of test_sparse_pins catch it.
    const LaneMask leaked_lanes = 0xF0F0F0F0F0F0F0F0ull;
    const LaneMask xs = leaked_lanes & 0xAAAAAAAAAAAAAAAAull;
    const LaneMask zs = leaked_lanes & 0x5555555555555555ull;
    SparseRig a(rates(0.01, 0.0, 0.0));
    SparseRig b(rates(0.01, 0.0, 0.0));
    for (SparseRig* rig : {&a, &b}) {
        rig->driver.reset_shot_batch(64);
        for (int c = 0; c < rig->code.n_checks(); ++c)
            rig->driver.set_check_leak(c, leaked_lanes);
    }
    for (int c = 0; c < b.code.n_checks(); ++c)
        b.driver.apply_pauli(b.code.ancilla_of(c), xs, zs);
    for (int r = 0; r < 20; ++r) {
        a.driver.run_round_batch(a.lrc);
        b.driver.run_round_batch(b.lrc);
        for (int q = 0; q < a.code.n_qubits(); ++q) {
            const bool anc = q >= a.code.n_data();
            EXPECT_EQ(a.x(q) ^ b.x(q), anc ? xs : 0u)
                << "round " << r << " qubit " << q;
            EXPECT_EQ(a.z(q) ^ b.z(q), anc ? zs : 0u)
                << "round " << r << " qubit " << q;
        }
    }
    for (int c = 0; c < a.code.n_checks(); ++c)
        EXPECT_EQ(a.driver.leaked(a.code.ancilla_of(c)), leaked_lanes);
}

TEST(SparsePlan, RateOneFiresEveryActiveLaneAtEverySite)
{
    // p = 1 (pl = 1, MLR error 1): every planned site fires on every
    // active lane, with no draw deciding it.  Every qubit leaks within
    // the round, and every measured ancilla is leaked, so MLR reads
    // leaked ^ error = 0.
    SparseRig leaky(rates(1.0, 1.0, 1.0));
    leaky.driver.reset_shot_batch(64);
    leaky.driver.run_round_batch(leaky.lrc);
    for (int q = 0; q < leaky.code.n_qubits(); ++q)
        EXPECT_EQ(leaky.driver.leaked(q), ~0ull) << q;
    for (int c = 0; c < leaky.code.n_checks(); ++c)
        EXPECT_EQ(leaky.driver.mlr_words()[c], 0u) << c;

    // pl = 0: no qubit leaks, so every measurement takes the typed run,
    // where the readout-error and MLR event words fire on every lane:
    // each flip word is the complement of its ancilla's X frame word
    // (nothing touches an ancilla after its readout), and each MLR word
    // is all ones.  The final readout's error site fires everywhere too.
    SparseRig clean(rates(1.0, 0.0, 1.0));
    clean.driver.reset_shot_batch(64);
    for (int r = 0; r < 3; ++r) {
        clean.driver.run_round_batch(clean.lrc);
        for (int c = 0; c < clean.code.n_checks(); ++c) {
            EXPECT_EQ(clean.driver.meas_flip_words()[c],
                      ~clean.x(clean.code.ancilla_of(c)))
                << "round " << r << " check " << c;
            EXPECT_EQ(clean.driver.mlr_words()[c], ~0ull) << c;
        }
    }
    std::vector<std::vector<uint8_t>> flips;
    clean.driver.final_data_measure_batch(&flips);
    ASSERT_EQ(flips.size(), 64u);
    for (int q = 0; q < clean.code.n_data(); ++q) {
        for (int l = 0; l < 64; ++l) {
            EXPECT_EQ(flips[static_cast<size_t>(l)][static_cast<size_t>(q)],
                      (~clean.x(q) >> l) & 1u)
                << "qubit " << q << " lane " << l;
        }
    }
}

TEST(SparsePlan, RateZeroFiresNothing)
{
    // Every op takes its quiet typed-run word op: the frame stays zero.
    SparseRig rig(rates(0.0, 1.0, 1.0));
    rig.driver.reset_shot_batch(64);
    for (int r = 0; r < 10; ++r)
        rig.driver.run_round_batch(rig.lrc);
    for (int q = 0; q < rig.code.n_qubits(); ++q) {
        EXPECT_EQ(rig.x(q), 0u) << q;
        EXPECT_EQ(rig.z(q), 0u) << q;
        EXPECT_EQ(rig.driver.leaked(q), 0u) << q;
    }
    for (int c = 0; c < rig.code.n_checks(); ++c) {
        EXPECT_EQ(rig.driver.meas_flip_words()[c], 0u);
        EXPECT_EQ(rig.driver.detector_words()[c], 0u);
        EXPECT_EQ(rig.driver.mlr_words()[c], 0u);
    }
}

TEST(SparsePlan, PartialBatchesNeverFirePaddingLanes)
{
    // 37 of 64 lanes.  Heavy noise, every LRC requested on every lane
    // including the padding: no frame word and no round word may ever
    // carry a padding lane.
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
        // Alternate gadget rounds and plain rounds so leaks build up.
        rig.driver.run_round_batch(r % 3 == 2 ? rig.lrc : none);
        const int nc = rig.code.n_checks();
        const int nq = rig.code.n_qubits();
        no_padding(rig.driver.frame_words(), 2 * nq, "frame");
        no_padding(rig.driver.meas_flip_words(), nc, "meas_flip");
        no_padding(rig.driver.detector_words(), nc, "detector");
        no_padding(rig.driver.mlr_words(), nc, "mlr");
        no_padding(rig.driver.leaked_words(), nq, "leaked");
    }
    std::vector<std::vector<uint8_t>> flips;
    rig.driver.final_data_measure_batch(&flips);
    EXPECT_EQ(flips.size(), static_cast<size_t>(n_lanes));
}

}  // namespace
}  // namespace gld
