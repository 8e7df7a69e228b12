// Word-wide speculation gate.  Every in-tree policy is one word rule over a
// whole lockstep batch; its per-lane observe is a one-lane wrapper of the
// same rule, and per-lane-only policies run behind LaneAdapterPolicy.
//  (a) Unit level: on rounds captured from a surface, a color and an HGP
//      code, the batched decisions of every lane AND the one-lane
//      decisions must equal an independent per-lane reference (the
//      pre-word rules).
//  (b) Runner level: Metrics must be bit-identical between a policy's own
//      (batched) factory and a decorator hiding batched() (the adapter),
//      on every backend, lockstep and sparse.
// Plus the schedule contract: the simulators' per-lane packer and the
// adapter reject ids out of range, repeated or unordered, and the word
// entry rejects misshaped masks (padding-lane bits are inert); and the
// flag-table rules reject patterns wider than their key.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/color_code.h"
#include "codes/hgp_code.h"
#include "codes/surface_code.h"
#include "core/pattern_table.h"
#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "metrics_test_util.h"
#include "runtime/experiment.h"
#include "util/rng.h"

namespace gld {
namespace {

using test::expect_metrics_identical;

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(CssCode c)
        : code(std::move(c)), rc(code), ctx(code, rc,
                                            CodeContext::default_scope(code))
    {
    }
};

NoiseParams
busy_noise()
{
    // Noisy enough that every rule fires often in a few rounds.
    NoiseParams np = NoiseParams::standard(5e-3, 0.5);
    np.mobility = 0.2;
    return np;
}

/** Rounds of one batch: the words and the per-lane results. */
struct Capture {
    int n_lanes = 0;
    LaneMask active = 0;
    std::vector<std::vector<LaneMask>> det, mlr, meas, leaked;  ///< [round]
    std::vector<std::vector<RoundResult>> rr;                   ///< [round]

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

/**
 * Runs `rounds` rounds of a batch of up to `n_lanes` lanes (a partial one
 * on the packed backends) with sampled leaks and periodic LRC waves,
 * recording the word views and the per-lane RoundResults of every round.
 */
Capture
capture(const Harness& h, SimBackend backend, int n_lanes, int rounds)
{
    const NoiseParams np = busy_noise();
    auto sim = make_simulator(backend, h.code, h.rc, np, 0xC0FFEEull);
    Capture cap;
    cap.n_lanes = std::min(n_lanes, sim->batch_width());
    cap.active = ~0ull >> (kBatchLanes - cap.n_lanes);
    sim->reset_shot_batch(cap.n_lanes);
    for (int l = 0; l < cap.n_lanes; l += 3)
        sim->inject_data_leak_lane(l, (7 * l) % h.code.n_data());
    std::vector<LrcSchedule> scheds(static_cast<size_t>(cap.n_lanes));
    const size_t check_words = static_cast<size_t>(h.code.n_checks());
    const size_t qubit_words = static_cast<size_t>(h.code.n_qubits());
    for (int r = 0; r < rounds; ++r) {
        // Every fourth round, LRC data qubit r in the even lanes.
        for (int l = 0; l < cap.n_lanes; ++l) {
            LrcSchedule& s = scheds[static_cast<size_t>(l)];
            s.clear();
            if (r % 4 == 3 && l % 2 == 0)
                s.data_qubits.push_back(r % h.code.n_data());
        }
        std::vector<RoundResult> rr;
        sim->run_round_batch(scheds, &rr);
        cap.det.emplace_back(sim->detector_words(),
                             sim->detector_words() + check_words);
        cap.mlr.emplace_back(sim->mlr_words(), sim->mlr_words() + check_words);
        cap.meas.emplace_back(sim->meas_flip_words(),
                              sim->meas_flip_words() + check_words);
        cap.leaked.emplace_back(sim->leaked_words(),
                                sim->leaked_words() + qubit_words);
        cap.rr.push_back(std::move(rr));
    }
    return cap;
}

// --- The independent per-lane reference (the rules as written before
// --- the word interface, on one shot's bytes). ---

enum class Kind {
    kNoLrc,
    kAlways,
    kStaggered,
    kMlr,
    kIdeal,
    kEraser,
    kGladiator,
    kGladiatorD,
};

struct Case {
    std::string name;
    Kind kind;
    bool use_mlr;
};

const std::vector<Case>&
all_cases()
{
    static const std::vector<Case> cases = {
        {"NoLrc", Kind::kNoLrc, false},
        {"Always", Kind::kAlways, false},
        {"Staggered", Kind::kStaggered, false},
        {"M", Kind::kMlr, true},
        {"IDEAL", Kind::kIdeal, false},
        {"ERASER", Kind::kEraser, false},
        {"ERASER+M", Kind::kEraser, true},
        {"GLADIATOR", Kind::kGladiator, false},
        {"GLADIATOR+M", Kind::kGladiator, true},
        {"GLADIATOR-D", Kind::kGladiatorD, false},
        {"GLADIATOR-D+M", Kind::kGladiatorD, true},
    };
    return cases;
}

struct Reference {
    const Harness* h;
    Case c;
    const PatternTableSet* tables;  ///< one- or two-round, per kind
    std::vector<int> colors;
    int n_colors = 1;
    std::vector<uint32_t> prev;
    std::vector<uint8_t> has_prev;

    void begin_shot()
    {
        prev.assign(static_cast<size_t>(h->code.n_data()), 0);
        has_prev.assign(static_cast<size_t>(h->code.n_data()), 0);
    }

    LrcSchedule observe(int round, const RoundResult& rr,
                        const std::vector<uint8_t>& truth)
    {
        const CssCode& code = h->code;
        const CodeContext& ctx = h->ctx;
        LrcSchedule out;
        for (int q = 0; q < code.n_data(); ++q) {
            const int k = ctx.degree_of(q);
            bool lrc = false;
            switch (c.kind) {
              case Kind::kAlways: lrc = true; break;
              case Kind::kStaggered: lrc = colors[q] == (round + 1) % n_colors;
                                     break;
              case Kind::kIdeal: lrc = truth[q] != 0; break;
              case Kind::kEraser:
                lrc = k > 0 && __builtin_popcount(ctx.pattern_of(
                                   q, rr.detector)) >= (k + 1) / 2;
                break;
              case Kind::kGladiator:
                lrc = k > 0 && tables->is_leak(ctx.class_of(q),
                                               ctx.pattern_of(q, rr.detector));
                break;
              case Kind::kGladiatorD: {
                if (k == 0)
                    break;
                const uint32_t pat = ctx.pattern_of(q, rr.detector);
                if (has_prev[q] &&
                    tables->is_leak(ctx.class_of(q), (prev[q] << k) | pat)) {
                    lrc = true;
                    has_prev[q] = 0;  // the post-LRC window restart
                    break;
                }
                prev[q] = pat;
                has_prev[q] = 1;
                break;
              }
              default: break;
            }
            if (lrc)
                out.data_qubits.push_back(q);
        }
        for (int c2 = 0; c2 < code.n_checks(); ++c2) {
            const int anc = code.ancilla_of(c2);
            bool lrc = c.use_mlr && rr.mlr_flag[c2];
            if (c.kind == Kind::kAlways)
                lrc = true;
            if (c.kind == Kind::kStaggered)
                lrc = colors[anc] == (round + 1) % n_colors;
            if (c.kind == Kind::kIdeal)
                lrc = truth[anc] != 0;
            if (lrc)
                out.checks.push_back(c2);
        }
        return out;
    }
};

/** The in-tree policy of a case. */
std::unique_ptr<Policy>
make_policy(const Harness& h, const Case& c,
            const std::shared_ptr<const PatternTableSet>& one_round,
            const std::shared_ptr<const PatternTableSet>& two_round)
{
    switch (c.kind) {
      case Kind::kNoLrc: return std::make_unique<NoLrcPolicy>(h.ctx);
      case Kind::kAlways: return std::make_unique<AlwaysLrcPolicy>(h.ctx);
      case Kind::kStaggered:
        return std::make_unique<StaggeredLrcPolicy>(h.ctx);
      case Kind::kMlr: return std::make_unique<MlrOnlyPolicy>(h.ctx);
      case Kind::kIdeal: return std::make_unique<IdealPolicy>(h.ctx);
      case Kind::kEraser:
        return std::make_unique<EraserPolicy>(h.ctx, c.use_mlr);
      case Kind::kGladiator:
        return std::make_unique<GladiatorPolicy>(h.ctx, one_round,
                                                 c.use_mlr);
      case Kind::kGladiatorD:
        return std::make_unique<GladiatorDPolicy>(h.ctx, two_round,
                                                  c.use_mlr);
    }
    return nullptr;
}

/** One lane's truth bytes (per qubit) out of a round's leak words. */
std::vector<uint8_t>
lane_truth(const Capture& cap, int r, int lane)
{
    const std::vector<LaneMask>& lw = cap.leaked[static_cast<size_t>(r)];
    std::vector<uint8_t> t(lw.size());
    for (size_t q = 0; q < lw.size(); ++q)
        t[q] = (lw[q] >> lane) & 1u;
    return t;
}

/** A LeakageOracle replaying one lane's captured truth bytes. */
class ReplayOracle final : public LeakageOracle {
  public:
    explicit ReplayOracle(const CssCode& code) : code_(&code) {}
    std::vector<uint8_t> truth;
    bool data_leaked(int q) const override { return truth[q] != 0; }
    bool check_leaked(int c) const override
    {
        return truth[code_->ancilla_of(c)] != 0;
    }
    int n_data_leaked() const override { return 0; }
    int n_check_leaked() const override { return 0; }

  private:
    const CssCode* code_;
};

/** Lane `lane`'s schedule out of the masks (ascending, like the runner). */
LrcSchedule
unpack(const LrcWords& lrc, int lane)
{
    LrcSchedule s;
    for (size_t q = 0; q < lrc.data.size(); ++q) {
        if ((lrc.data[q] >> lane) & 1u)
            s.data_qubits.push_back(static_cast<int>(q));
    }
    for (size_t c = 0; c < lrc.checks.size(); ++c) {
        if ((lrc.checks[c] >> lane) & 1u)
            s.checks.push_back(static_cast<int>(c));
    }
    return s;
}

std::string
describe(const LrcSchedule& s)
{
    std::string out = "data{";
    for (int q : s.data_qubits)
        out += std::to_string(q) + ",";
    out += "} checks{";
    for (int c : s.checks)
        out += std::to_string(c) + ",";
    return out + "}";
}

void
check_rules_on(const Harness& h)
{
    const int kRounds = 16;
    const Capture cap = capture(h, SimBackend::kBatchFrame, 50, kRounds);
    const NoiseParams np = busy_noise();
    const auto one_round = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, false));
    const auto two_round = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, true));
    const StaggeredLrcPolicy stagger(h.ctx);

    for (const Case& c : all_cases()) {
        SCOPED_TRACE(c.name);
        Reference ref{&h, c,
                      c.kind == Kind::kGladiatorD ? two_round.get()
                                                  : one_round.get(),
                      stagger.colors(), stagger.n_colors(), {}, {}};
        // expected[l][r]
        std::vector<std::vector<LrcSchedule>> expected(
            static_cast<size_t>(cap.n_lanes));
        size_t fired = 0;
        for (int l = 0; l < cap.n_lanes; ++l) {
            ref.begin_shot();
            for (int r = 0; r < kRounds; ++r) {
                expected[l].push_back(ref.observe(
                    r, cap.rr[r][l], lane_truth(cap, r, l)));
                fired += expected[l].back().data_qubits.size();
            }
        }
        if (c.kind != Kind::kNoLrc && c.kind != Kind::kMlr) {
            EXPECT_GT(fired, 0u) << "vacuous capture";
        }

        // Batched: one rule instance over the whole batch.
        auto batched = make_policy(h, c, one_round, two_round);
        ASSERT_TRUE(batched->batched());
        batched->begin_batch(cap.active);
        int mismatches = 0;
        std::string first;
        LrcWords lrc;
        for (int r = 0; r < kRounds; ++r) {
            lrc.reset(h.code.n_data(), h.code.n_checks());
            batched->observe_batch(r, cap.words(r), &lrc);
            for (int l = 0; l < cap.n_lanes; ++l) {
                const LrcSchedule got = unpack(lrc, l);
                const LrcSchedule& want = expected[l][r];
                if (got.data_qubits != want.data_qubits ||
                    got.checks != want.checks) {
                    if (mismatches++ == 0)
                        first = "batched lane " + std::to_string(l) +
                                " round " + std::to_string(r) + ": " +
                                describe(got) + " vs " + describe(want);
                }
            }
            // Lanes outside the batch are never scheduled.
            for (int l = cap.n_lanes; l < kBatchLanes; ++l)
                EXPECT_TRUE(unpack(lrc, l).empty());
        }

        // One-lane: the per-lane observe of a fresh instance, shot by shot.
        auto lane_policy = make_policy(h, c, one_round, two_round);
        ReplayOracle oracle(h.code);
        lane_policy->set_leak_oracle(&oracle);
        LrcSchedule got;
        for (int l = 0; l < cap.n_lanes; ++l) {
            lane_policy->begin_shot();
            for (int r = 0; r < kRounds; ++r) {
                oracle.truth = lane_truth(cap, r, l);
                lane_policy->observe(r, cap.rr[r][l], &got);
                const LrcSchedule& want = expected[l][r];
                if (got.data_qubits != want.data_qubits ||
                    got.checks != want.checks) {
                    if (mismatches++ == 0)
                        first = "one-lane lane " + std::to_string(l) +
                                " round " + std::to_string(r) + ": " +
                                describe(got) + " vs " + describe(want);
                }
            }
        }
        EXPECT_EQ(mismatches, 0) << first;
    }
}

TEST(PolicyBatch, WordRulesMatchPerLaneReferenceOnSurfaceCode)
{
    const Harness h(SurfaceCode::make(5));
    ASSERT_EQ(h.ctx.scope(), PatternScope::kBothTypes);
    check_rules_on(h);
}

TEST(PolicyBatch, WordRulesMatchPerLaneReferenceOnColorCode)
{
    const Harness h(ColorCode::make(5));
    ASSERT_EQ(h.ctx.scope(), PatternScope::kZOnly);
    check_rules_on(h);
}

TEST(PolicyBatch, WordRulesMatchPerLaneReferenceOnHgpCode)
{
    // 8-bit single-round keys (cubes) and 16-bit two-round keys (the
    // lookup): the widest tables the rules evaluate.
    const Harness h(HgpCode::make_hamming());
    ASSERT_EQ(h.ctx.max_degree(), 8);
    check_rules_on(h);
}

TEST(PolicyBatch, WordViewsMatchPerLaneRoundResults)
{
    // The words the runner reads and the RoundResults per-lane policies
    // read are the same round, on every backend, full batch or partial.
    const Harness h(SurfaceCode::make(3));
    const auto bit = [](LaneMask w, int l) { return (w >> l) & 1u; };
    for (SimBackend b : known_backends()) {
        for (int n_lanes : {50, kBatchLanes}) {
            SCOPED_TRACE(std::string(backend_name(b)) + " lanes=" +
                         std::to_string(n_lanes));
            const Capture cap = capture(h, b, n_lanes, 6);
            for (size_t r = 0; r < cap.rr.size(); ++r) {
                ASSERT_EQ(cap.rr[r].size(), static_cast<size_t>(cap.n_lanes));
                for (int l = 0; l < cap.n_lanes; ++l) {
                    const RoundResult& rr = cap.rr[r][l];
                    for (size_t c = 0; c < rr.detector.size(); ++c) {
                        ASSERT_EQ(rr.detector[c], bit(cap.det[r][c], l));
                        ASSERT_EQ(rr.mlr_flag[c], bit(cap.mlr[r][c], l));
                        ASSERT_EQ(rr.meas_flip[c], bit(cap.meas[r][c], l));
                    }
                }
            }
        }
    }
}

TEST(PolicyBatch, FlagTableRulesRejectPatternsWiderThanTheirKey)
{
    const std::vector<Check> checks(
        static_cast<size_t>(kMaxPatternBits) + 1,
        Check{CheckType::kZ, {0, 1}});
    const Harness h(CssCode("wide", 2, checks));
    ASSERT_GT(h.ctx.max_degree(), kMaxPatternBits);
    EXPECT_THROW(EraserPolicy(h.ctx, false), std::invalid_argument);
    EXPECT_THROW(GladiatorPolicy(h.ctx, nullptr, true),
                 std::invalid_argument);
    EXPECT_THROW(GladiatorDPolicy(h.ctx, nullptr, true),
                 std::invalid_argument);
}

TEST(PolicyBatch, GladiatorRulesRejectTablesOfTheOtherWindow)
{
    // A two-round rule keys 2k bits, a single-round one k: handing a
    // policy the other kind's tables is refused, not misread.
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const auto one_round = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, false));
    const auto two_round = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, true));
    EXPECT_THROW(GladiatorDPolicy(h.ctx, one_round, true),
                 std::invalid_argument);
    EXPECT_THROW(GladiatorPolicy(h.ctx, two_round, true),
                 std::invalid_argument);
}

/** A word rule that runs another policy's per-lane observe first: the
 *  nested one-lane wrapper must not clobber the outer call's round. */
class NestedRule final : public WordPolicy {
  public:
    NestedRule(const CodeContext& ctx, RoundResult probe)
        : WordPolicy(ctx), inner_(ctx, true), probe_(std::move(probe))
    {
    }
    std::string name() const override { return "nested"; }
    void observe_batch(int round, const RoundWords& in,
                       LrcWords* out) override
    {
        LrcSchedule ignored;
        inner_.observe(round, probe_, &ignored);
        add_mlr_checks(in, ctx_->code().n_checks(), out);
    }

  private:
    EraserPolicy inner_;
    RoundResult probe_;
};

TEST(PolicyBatch, OneLaneWrapperSurvivesANestedCall)
{
    const Harness h(SurfaceCode::make(3));
    const size_t nc = static_cast<size_t>(h.code.n_checks());
    RoundResult quiet;
    quiet.meas_flip.assign(nc, 0);
    quiet.detector.assign(nc, 0);
    quiet.mlr_flag.assign(nc, 0);
    RoundResult flagged = quiet;
    flagged.mlr_flag[3] = 1;
    NestedRule policy(h.ctx, quiet);
    LrcSchedule out;
    policy.observe(0, flagged, &out);
    EXPECT_EQ(out.checks, std::vector<int>{3});
    EXPECT_TRUE(out.data_qubits.empty());
}

// --- (b) Runner level: batched ≡ adapter. ---

/** Forwards the per-lane interface only, hiding batched(). */
class PerLaneOnly final : public Policy {
  public:
    explicit PerLaneOnly(std::unique_ptr<Policy> inner)
        : inner_(std::move(inner))
    {
    }
    std::string name() const override { return inner_->name(); }
    void begin_shot() override { inner_->begin_shot(); }
    void observe(int round, const RoundResult& rr, LrcSchedule* out) override
    {
        inner_->observe(round, rr, out);
    }
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        inner_->set_leak_oracle(oracle);
    }

  private:
    std::unique_ptr<Policy> inner_;
};

PolicyFactory
per_lane_only(PolicyFactory inner)
{
    return [inner](const CodeContext& ctx,
                   uint64_t seed) -> std::unique_ptr<Policy> {
        return std::make_unique<PerLaneOnly>(inner(ctx, seed));
    };
}

TEST(PolicyBatch, RunnerMetricsIdenticalThroughTheLaneAdapter)
{
    const Harness h(SurfaceCode::make(3));
    const NoiseParams np = busy_noise();
    const std::vector<std::pair<std::string, PolicyFactory>> zoo = {
        {"NoLrc", PolicyZoo::no_lrc()},
        {"Always", PolicyZoo::always_lrc()},
        {"Staggered", PolicyZoo::staggered()},
        {"M", PolicyZoo::mlr_only()},
        {"IDEAL", PolicyZoo::ideal()},
        {"ERASER", PolicyZoo::eraser(false)},
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR", PolicyZoo::gladiator(false, np)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
        {"GLADIATOR-D", PolicyZoo::gladiator_d(false, np)},
        {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, np)},
    };
    for (SimBackend b : known_backends()) {
        for (NoiseSampling ns :
             {NoiseSampling::kLockstep, NoiseSampling::kSparse}) {
            ExperimentConfig cfg;
            cfg.np = np;
            cfg.rounds = 6;
            cfg.shots = 2 * 64 + 37;  // a partial trailing batch
            cfg.rng_streams = 2;
            cfg.leakage_sampling = true;
            cfg.compute_ler = true;
            cfg.record_dlp_series = true;
            cfg.backend = b;
            cfg.noise_sampling = ns;
            const ExperimentRunner runner(h.ctx, cfg);
            for (const auto& [name, factory] : zoo) {
                SCOPED_TRACE(std::string(backend_name(b)) + " " +
                             noise_sampling_name(ns) + " " + name);
                const Metrics batched = runner.run(factory);
                const Metrics adapted = runner.run(per_lane_only(factory));
                expect_metrics_identical(batched, adapted);
                EXPECT_EQ(batched.shots, cfg.shots);
            }
        }
    }
}

// --- The schedule contract. ---

/** Schedules a fixed list on every lane in round 0. */
class FixedSchedulePolicy final : public Policy {
  public:
    FixedSchedulePolicy(std::vector<int> data, std::vector<int> checks)
        : data_(std::move(data)), checks_(std::move(checks))
    {
    }
    std::string name() const override { return "fixed"; }
    void observe(int round, const RoundResult&, LrcSchedule* out) override
    {
        out->clear();
        if (round == 0) {
            out->data_qubits = data_;
            out->checks = checks_;
        }
    }

  private:
    std::vector<int> data_, checks_;
};

std::string
run_error(const Harness& h, SimBackend b, std::vector<int> data,
          std::vector<int> checks)
{
    ExperimentConfig cfg;
    cfg.rounds = 3;
    cfg.shots = 5;
    cfg.backend = b;
    const ExperimentRunner runner(h.ctx, cfg);
    try {
        runner.run([&](const CodeContext&, uint64_t) {
            return std::make_unique<FixedSchedulePolicy>(data, checks);
        });
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(PolicyBatch, AdapterRejectsSchedulesThatAreNotAscendingSets)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : known_backends()) {
        SCOPED_TRACE(backend_name(b));
        EXPECT_EQ(run_error(h, b, {1, 4}, {0, 2}), "");
        const std::string unordered = run_error(h, b, {4, 1}, {});
        EXPECT_NE(unordered.find("lane 0"), std::string::npos) << unordered;
        EXPECT_NE(unordered.find("data qubit 1"), std::string::npos)
            << unordered;
        const std::string twice = run_error(h, b, {}, {2, 2});
        EXPECT_NE(twice.find("check 2"), std::string::npos) << twice;
        const std::string range = run_error(h, b, {h.code.n_data()}, {});
        EXPECT_NE(range.find("outside"), std::string::npos) << range;
        EXPECT_NE(run_error(h, b, {}, {-1}).find("check -1"),
                  std::string::npos);
    }
}

TEST(PolicyBatch, SimulatorsRejectOutOfRangeLrcIds)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : known_backends()) {
        SCOPED_TRACE(backend_name(b));
        auto sim = make_simulator(b, h.code, h.rc, NoiseParams::standard(),
                                  1, 1);
        const int lanes = std::min(3, sim->batch_width());
        const int bad_lane = lanes - 1;
        sim->reset_shot_batch(lanes);
        std::vector<LrcSchedule> scheds(static_cast<size_t>(lanes));
        scheds[bad_lane].data_qubits = {0, h.code.n_data()};
        try {
            sim->run_round_batch(scheds, nullptr);
            ADD_FAILURE() << "data qubit " << h.code.n_data() << " accepted";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("lane " + std::to_string(bad_lane)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(h.code.n_data())),
                      std::string::npos)
                << what;
        }
        scheds[bad_lane].data_qubits.clear();
        scheds[bad_lane].checks = {-1};
        EXPECT_THROW(sim->run_round_batch(scheds, nullptr),
                     std::invalid_argument);
        std::vector<LrcSchedule> one(1);
        one[0].checks = {h.code.n_checks()};
        sim->reset_shot_batch(1);
        EXPECT_THROW(sim->run_round_batch(one, nullptr),
                     std::invalid_argument);
        sim->reset_shot_batch(lanes);
        // A valid schedule still runs after the rejections.
        scheds[bad_lane].checks = {h.code.n_checks() - 1};
        EXPECT_NO_THROW(sim->run_round_batch(scheds, nullptr));
    }
}


// --- The word round entry and its per-lane packer. ---

/** Random LRC masks over every lane of the word, padding lanes too. */
LrcWords
random_masks(const CssCode& code, Rng& rng)
{
    LrcWords lrc;
    lrc.reset(code.n_data(), code.n_checks());
    // Sparse enough that most lanes LRC a few qubits, dense enough that
    // the gadget sites fire at busy noise.
    for (LaneMask& w : lrc.data)
        w = rng.next_u64() & rng.next_u64() & rng.next_u64();
    for (LaneMask& w : lrc.checks)
        w = rng.next_u64() & rng.next_u64() & rng.next_u64();
    return lrc;
}

std::vector<LaneMask>
words_of(const LaneMask* p, size_t n)
{
    return std::vector<LaneMask>(p, p + n);
}

TEST(PolicyBatch, PackerAndWordEntryAgree)
{
    // The same masks through run_round_batch(LrcWords) and through the
    // per-lane packer give the same rounds, word for word.  The word
    // side also sets every padding lane (>= n_lanes): those bits must
    // change nothing and draw nothing (under sparse, one stray draw
    // would shift the batch's shared event stream).
    const Harness h(SurfaceCode::make(3));
    NoiseParams np = NoiseParams::standard(2e-2, 0.5);
    np.mobility = 0.2;
    const size_t nq = static_cast<size_t>(h.code.n_qubits());
    const size_t nc = static_cast<size_t>(h.code.n_checks());
    for (SimBackend b : known_backends()) {
        for (NoiseSampling ns :
             {NoiseSampling::kLockstep, NoiseSampling::kSparse}) {
            SCOPED_TRACE(std::string(backend_name(b)) + " " +
                         noise_sampling_name(ns));
            auto word = make_simulator(b, h.code, h.rc, np, 77, 1, ns);
            auto packed = make_simulator(b, h.code, h.rc, np, 77, 1, ns);
            // A partial batch on the packed backends.
            const int lanes = std::max(1, word->batch_width() - 27);
            const LaneMask active = ~0ull >> (kBatchLanes - lanes);
            word->reset_shot_batch(lanes);
            packed->reset_shot_batch(lanes);
            for (int l = 0; l < lanes; l += 5) {
                word->inject_data_leak_lane(l, l % h.code.n_data());
                packed->inject_data_leak_lane(l, l % h.code.n_data());
            }
            Rng rng(0x5EEDull);
            std::vector<LrcSchedule> scheds(static_cast<size_t>(lanes));
            for (int r = 0; r < 12; ++r) {
                const LrcWords lrc = random_masks(h.code, rng);
                for (int l = 0; l < lanes; ++l)
                    scheds[static_cast<size_t>(l)] = unpack(lrc, l);
                word->run_round_batch(lrc);
                packed->run_round_batch(scheds, nullptr);
                ASSERT_EQ(words_of(word->leaked_words(), nq),
                          words_of(packed->leaked_words(), nq))
                    << "round " << r;
                ASSERT_EQ(words_of(word->detector_words(), nc),
                          words_of(packed->detector_words(), nc))
                    << "round " << r;
                ASSERT_EQ(words_of(word->mlr_words(), nc),
                          words_of(packed->mlr_words(), nc))
                    << "round " << r;
                ASSERT_EQ(words_of(word->meas_flip_words(), nc),
                          words_of(packed->meas_flip_words(), nc))
                    << "round " << r;
                // No padding lane ever leaks.
                for (size_t i = 0; i < nq; ++i)
                    ASSERT_EQ(word->leaked_words()[i] & ~active, 0u);
            }
            std::vector<std::vector<uint8_t>> fw, fp;
            word->final_data_measure_batch(&fw);
            packed->final_data_measure_batch(&fp);
            EXPECT_EQ(fw, fp);
        }
    }
}

TEST(PolicyBatch, PackerRejectsSchedulesThatAreNotAscendingSets)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : known_backends()) {
        SCOPED_TRACE(backend_name(b));
        auto sim = make_simulator(b, h.code, h.rc, NoiseParams::standard(),
                                  1, 1);
        const int lanes = std::min(3, sim->batch_width());
        const int bad_lane = lanes - 1;
        sim->reset_shot_batch(lanes);
        std::vector<LrcSchedule> scheds(static_cast<size_t>(lanes));
        const auto error = [&] {
            try {
                sim->run_round_batch(scheds, nullptr);
            } catch (const std::invalid_argument& e) {
                return std::string(e.what());
            }
            return std::string();
        };
        scheds[bad_lane].data_qubits = {3, 1};
        std::string what = error();
        EXPECT_NE(what.find("lane " + std::to_string(bad_lane)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("data qubit 1"), std::string::npos) << what;
        scheds[bad_lane].data_qubits = {2, 2};
        what = error();
        EXPECT_NE(what.find("data qubit 2"), std::string::npos) << what;
        scheds[bad_lane].data_qubits.clear();
        scheds[bad_lane].checks = {0, 4, 4};
        what = error();
        EXPECT_NE(what.find("check 4"), std::string::npos) << what;
        // A valid schedule still runs after the rejections.
        scheds[bad_lane].checks = {0, 4};
        EXPECT_EQ(error(), "");
        // A one-lane batch keeps the same contract.
        sim->reset_shot_batch(1);
        std::vector<LrcSchedule> one(1);
        one[0].checks = {2, 1};
        try {
            sim->run_round_batch(one, nullptr);
            ADD_FAILURE() << "descending checks accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("check 1"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PolicyBatch, WordEntryRejectsMisshapedMasks)
{
    const Harness h(SurfaceCode::make(3));
    for (SimBackend b : known_backends()) {
        SCOPED_TRACE(backend_name(b));
        auto sim = make_simulator(b, h.code, h.rc, NoiseParams::standard(),
                                  1, 1);
        sim->reset_shot_batch(1);
        LrcWords lrc;
        lrc.reset(h.code.n_data(), h.code.n_checks());
        EXPECT_NO_THROW(sim->run_round_batch(lrc));
        lrc.data.push_back(0);
        EXPECT_THROW(sim->run_round_batch(lrc), std::invalid_argument);
        lrc.reset(h.code.n_data(), h.code.n_checks());
        lrc.checks.pop_back();
        EXPECT_THROW(sim->run_round_batch(lrc), std::invalid_argument);
        // Two words per qubit are misshaped too.
        lrc.data.assign(2 * static_cast<size_t>(h.code.n_data()), 0);
        lrc.checks.assign(2 * static_cast<size_t>(h.code.n_checks()), 0);
        EXPECT_THROW(sim->run_round_batch(lrc), std::invalid_argument);
    }
}

}  // namespace
}  // namespace gld
