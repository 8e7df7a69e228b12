#include "runtime/experiment.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "codes/surface_code.h"
#include "telemetry/telemetry.h"

namespace gld {
namespace {

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(int d)
        : code(SurfaceCode::make(d)), rc(code),
          ctx(code, rc, PatternScope::kBothTypes)
    {
    }
};

TEST(ExperimentRunner, DeterministicForSameSeed)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 20;
    cfg.shots = 30;
    cfg.seed = 42;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics a = runner.run(PolicyZoo::eraser(true));
    const Metrics b = runner.run(PolicyZoo::eraser(true));
    EXPECT_DOUBLE_EQ(a.fn_total, b.fn_total);
    EXPECT_DOUBLE_EQ(a.fp_total, b.fp_total);
    EXPECT_DOUBLE_EQ(a.lrc_data_total, b.lrc_data_total);
    EXPECT_DOUBLE_EQ(a.dlp_total, b.dlp_total);
}

// --- Hand-computed goldens, pinned on every backend. ---
//
// All backends share one block path and one accounting implementation,
// so these goldens are what pins that implementation: a one-lane scalar
// backend and a packed 64-lane backend must both reproduce them.

class ExperimentGolden : public ::testing::TestWithParam<SimBackend> {
  protected:
    ExperimentConfig base_config() const
    {
        ExperimentConfig cfg;
        cfg.backend = GetParam();
        return cfg;
    }

    /** Noiseless, immobile, one sampled leak per shot (no LRC policy). */
    ExperimentConfig leak_sampling_config() const
    {
        ExperimentConfig cfg = base_config();
        cfg.np.p = 0;
        cfg.np.leak_ratio = 0;
        cfg.np.mobility = 0;  // keep the injected leak on the data qubit
        cfg.rounds = 1;
        cfg.shots = 20;
        cfg.leakage_sampling = true;
        cfg.record_dlp_series = true;
        return cfg;
    }
};

TEST_P(ExperimentGolden, IdealPolicyHasNoFalseNegatives)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 1.0);
    cfg.rounds = 30;
    cfg.shots = 50;
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::ideal());
    EXPECT_DOUBLE_EQ(m.fn_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
    EXPECT_GT(m.tp_total, 0.0);
}

TEST_P(ExperimentGolden, NoLrcPolicyAppliesNoLrcs)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.rounds = 10;
    cfg.shots = 10;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_DOUBLE_EQ(m.lrc_data_total, 0.0);
    EXPECT_DOUBLE_EQ(m.lrc_check_total, 0.0);
    EXPECT_DOUBLE_EQ(m.fp_total, 0.0);
}

TEST_P(ExperimentGolden, AlwaysLrcCountsEveryQubitEveryRound)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np.p = 0.0;
    cfg.np.leak_ratio = 0.0;
    cfg.rounds = 5;
    cfg.shots = 2;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::always_lrc());
    // First round has no scheduled LRCs (decisions lag one round).
    EXPECT_DOUBLE_EQ(m.lrc_data_total, 2.0 * 4 * h.code.n_data());
    EXPECT_DOUBLE_EQ(m.lrc_check_total, 2.0 * 4 * h.code.n_checks());
}

TEST_P(ExperimentGolden, LeakageSamplingStartsLeaked)
{
    Harness h(3);
    const ExperimentConfig cfg = leak_sampling_config();
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    // With zero noise and no mitigation the injected leak persists:
    // DLP = 1/n_data every round.
    EXPECT_NEAR(m.dlp_mean(), 1.0 / h.code.n_data(), 1e-12);
}

TEST_P(ExperimentGolden, LeakageSamplingTelemetryCountsOneLeakPerShotRound)
{
    Harness h(3);
    ExperimentConfig cfg = leak_sampling_config();
    cfg.rounds = 3;  // several heatmap rows
    ExperimentRunner runner(h.ctx, cfg);
    telemetry::Collector::Options opt;
    opt.heatmap = true;
    telemetry::Collector col(std::move(opt));
    runner.set_telemetry(&col);
    runner.run(PolicyZoo::no_lrc());
    const telemetry::Record rec = col.merged();

    // Exactly one leaked data qubit in every (shot, round).
    const uint64_t shots = static_cast<uint64_t>(cfg.shots);
    ASSERT_EQ(rec.leak_hist.size(),
              static_cast<size_t>(h.code.n_data()) + 1);
    EXPECT_EQ(rec.leak_hist[1], shots * static_cast<uint64_t>(cfg.rounds));

    // Every round's data columns hold one leaked qubit per shot; no
    // ancilla ever leaks (pl = 0, immobile leaks).
    ASSERT_TRUE(rec.heatmap.enabled());
    ASSERT_EQ(rec.heatmap.rounds, cfg.rounds);
    for (int r = 0; r < rec.heatmap.rounds; ++r) {
        SCOPED_TRACE(r);
        uint64_t data = 0;
        for (int q = 0; q < rec.heatmap.n_data; ++q)
            data += rec.heatmap.at(r, q);
        EXPECT_EQ(data, shots);
        uint64_t checks = 0;
        for (int c = 0; c < rec.heatmap.n_checks; ++c)
            checks += rec.heatmap.at(r, rec.heatmap.n_data + c);
        EXPECT_EQ(checks, 0u);
    }
}

TEST_P(ExperimentGolden, DlpSeriesMatchesTotals)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-3, 1.0);
    cfg.rounds = 15;
    cfg.shots = 20;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(true));
    ASSERT_EQ(static_cast<int>(m.dlp_series.size()), cfg.rounds);
    double sum = 0;
    for (double v : m.dlp_series)
        sum += v;
    EXPECT_NEAR(sum, m.dlp_total, 1e-9);
}

// One accounting pass feeds both the Metrics and the heatmap: each leak
// population is an integer count divided once by its qubit count, so with
// one stream and one block (no cross-block sum) they agree bit for bit.
TEST_P(ExperimentGolden, LeakPopulationsAreHeatmapCountsOverQubitCount)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np = NoiseParams::standard(1e-2, 1.0);  // checks leak too
    cfg.rounds = 12;
    cfg.shots = 40;  // < shot_block: one block
    cfg.rng_streams = 1;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    ExperimentRunner runner(h.ctx, cfg);
    ASSERT_EQ(ExperimentRunner::n_work_units(cfg), 1);
    telemetry::Collector::Options opt;
    opt.heatmap = true;
    telemetry::Collector col(std::move(opt));
    runner.set_telemetry(&col);
    const Metrics m = runner.run(PolicyZoo::eraser(true));
    const telemetry::Record rec = col.merged();
    ASSERT_TRUE(rec.heatmap.enabled());
    ASSERT_EQ(static_cast<int>(m.dlp_series.size()), cfg.rounds);

    const int n_data = h.code.n_data();
    const int n_checks = h.code.n_checks();
    uint64_t data = 0;
    uint64_t checks = 0;
    for (int r = 0; r < cfg.rounds; ++r) {
        SCOPED_TRACE(r);
        uint64_t row = 0;
        for (int q = 0; q < n_data; ++q)
            row += rec.heatmap.at(r, q);
        for (int c = 0; c < n_checks; ++c)
            checks += rec.heatmap.at(r, n_data + c);
        EXPECT_EQ(m.dlp_series[static_cast<size_t>(r)],
                  static_cast<double>(row) / n_data);
        data += row;
    }
    EXPECT_GT(checks, 0u);
    EXPECT_EQ(m.dlp_total, static_cast<double>(data) / n_data);
    EXPECT_EQ(m.check_leak_total, static_cast<double>(checks) / n_checks);

    uint64_t hist = 0;
    for (uint64_t v : rec.leak_hist)
        hist += v;
    EXPECT_EQ(hist, static_cast<uint64_t>(cfg.shots) *
                        static_cast<uint64_t>(cfg.rounds));
}

TEST_P(ExperimentGolden, NoiselessLerIsZero)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np.p = 0;
    cfg.np.leak_ratio = 0;
    cfg.rounds = 5;
    cfg.shots = 50;
    cfg.compute_ler = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::no_lrc());
    EXPECT_EQ(m.decoded_shots, 50);
    EXPECT_EQ(m.logical_errors, 0);
}

// FN stamps must not leak between the shots of one block: a policy that
// scheduled a qubit at round r in an EARLIER shot must not mask a later
// shot's unserviced leak at the same round index.  The shot index comes
// from a counter shared by every policy the factory builds: begin_shot
// runs once per shot in shot order, whether one policy serves the shots
// in turn (one-lane backends) or each lane has its own (packed ones).
class StampOnceInFirstShotPolicy : public Policy {
  public:
    StampOnceInFirstShotPolicy(const CodeContext& ctx,
                               std::shared_ptr<int> shots_begun)
        : ctx_(&ctx), shots_begun_(std::move(shots_begun))
    {
    }
    std::string name() const override { return "stamp-once"; }
    void begin_shot() override { shot_ = (*shots_begun_)++; }
    void observe(int round, const RoundResult&, LrcSchedule* out) override
    {
        out->clear();
        if (shot_ == 0 && round == 1) {
            for (int q = 0; q < ctx_->code().n_data(); ++q)
                out->data_qubits.push_back(q);
        }
    }

  private:
    const CodeContext* ctx_;
    std::shared_ptr<int> shots_begun_;
    int shot_ = -1;
};

TEST_P(ExperimentGolden, FalseNegativeStampsDoNotLeakAcrossShots)
{
    Harness h(3);
    ExperimentConfig cfg = base_config();
    cfg.np.p = 0;
    cfg.np.leak_ratio = 0;
    cfg.np.mobility = 0;       // the sampled leak stays where injected
    cfg.np.lrc_leak_prob = 0;  // the shot-0 LRC wave is noiseless
    cfg.rounds = 3;
    cfg.shots = 4;
    cfg.rng_streams = 1;  // all shots in one block: stamps could alias
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    auto shots_begun = std::make_shared<int>(0);
    const Metrics m = runner.run(
        [shots_begun](const CodeContext& ctx,
                      uint64_t) -> std::unique_ptr<Policy> {
            return std::make_unique<StampOnceInFirstShotPolicy>(ctx,
                                                                shots_begun);
        });
    ASSERT_EQ(*shots_begun, cfg.shots);
    // Shot 0: the sampled leak is missed at round 0, serviced by the
    // round-1 all-qubit wave (applied/cleared at round 2) => 1 FN.
    // Shots 1..3: never serviced => one FN per round, INCLUDING round 1
    // — with stale stamps those three FNs vanish (7 instead of 10).
    EXPECT_DOUBLE_EQ(m.fn_total, 1.0 + 3.0 * cfg.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ExperimentGolden, ::testing::ValuesIn(known_backends()),
    [](const ::testing::TestParamInfo<SimBackend>& p) {
        return std::string(backend_name(p.param));
    });

TEST(ExperimentRunner, LerDecodingRunsAndIsBounded)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 6;
    cfg.shots = 200;
    cfg.compute_ler = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::gladiator(true, cfg.np));
    EXPECT_EQ(m.decoded_shots, 200);
    EXPECT_LT(m.ler(), 0.30);  // far below random guessing
}

TEST(ExperimentRunner, GladiatorFlagsFewerFalsePositivesThanEraser)
{
    // The paper's central claim (Fig 9) at test scale.
    Harness h(5);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard();
    cfg.rounds = 40;
    cfg.shots = 120;
    cfg.leakage_sampling = true;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics er = runner.run(PolicyZoo::eraser(true));
    const Metrics gl = runner.run(PolicyZoo::gladiator(true, cfg.np));
    EXPECT_LT(gl.fp_total, er.fp_total);
    EXPECT_LT(gl.lrc_data_total, er.lrc_data_total);
}

TEST(ExperimentRunner, ThreadedRunMergesAllShots)
{
    Harness h(3);
    ExperimentConfig cfg;
    cfg.rounds = 10;
    cfg.shots = 40;
    cfg.threads = 4;
    ExperimentRunner runner(h.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::eraser(true));
    EXPECT_EQ(m.shots, 40);
}

}  // namespace
}  // namespace gld
