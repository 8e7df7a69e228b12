#include <gtest/gtest.h>

#include "codes/color_code.h"
#include "codes/surface_code.h"
#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "runtime/experiment.h"
#include "sim/frame_sim.h"

namespace gld {
namespace {

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(CssCode c, PatternScope scope)
        : code(std::move(c)), rc(code), ctx(code, rc, scope)
    {
    }
};

RoundResult
quiet_round(const CssCode& code)
{
    RoundResult rr;
    rr.meas_flip.assign(code.n_checks(), 0);
    rr.detector.assign(code.n_checks(), 0);
    rr.mlr_flag.assign(code.n_checks(), 0);
    return rr;
}

TEST(EraserPolicy, FlaggedCountsMatchPaper)
{
    EXPECT_EQ(EraserPolicy::flagged_count(4), 11);  // §1: 11/16
    EXPECT_EQ(EraserPolicy::flagged_count(3), 4);   // §5.2: 4/8
    EXPECT_EQ(EraserPolicy::flagged_count(2), 3);   // any flip fires
    EXPECT_EQ(EraserPolicy::flagged_count(8), 163);  // sum C(8,4..8)
}

TEST(EraserPolicy, TriggersOnHalfFlips)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    const int q = SurfaceCode::data_index(5, 2, 2);
    const auto& checks = h.ctx.observed_checks(q);
    ASSERT_EQ(checks.size(), 4u);
    rr.detector[checks[0]] = 1;
    rr.detector[checks[3]] = 1;  // 2/4 flips: at threshold
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
    EXPECT_TRUE(out.checks.empty());  // no MLR
}

TEST(EraserPolicy, SingleFlipDoesNotTriggerBulk)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    const int q = SurfaceCode::data_index(5, 2, 2);
    rr.detector[h.ctx.observed_checks(q)[1]] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_EQ(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
}

TEST(EraserPolicy, DegeneratesOnColorCodeCorners)
{
    // §3.3: on 1-2 bit patterns ERASER fires on any flip — nearly
    // Always-LRC behaviour.
    Harness h(ColorCode::make(5), PatternScope::kZOnly);
    EraserPolicy policy(h.ctx, false);
    RoundResult rr = quiet_round(h.code);
    int corner = -1;
    for (int q = 0; q < h.code.n_data(); ++q) {
        if (h.ctx.degree_of(q) == 1)
            corner = q;
    }
    ASSERT_GE(corner, 0);
    rr.detector[h.ctx.observed_checks(corner)[0]] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(),
                        corner),
              out.data_qubits.end());
}

TEST(EraserPolicy, MlrVariantSchedulesAncillas)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    EraserPolicy policy(h.ctx, true);
    RoundResult rr = quiet_round(h.code);
    rr.mlr_flag[3] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 3);
}

TEST(GladiatorPolicy, MatchesTableLookup)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    const NoiseParams np = NoiseParams::standard();
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, np, {}, false));
    GladiatorPolicy policy(h.ctx, tables, false);

    // Construct a detector vector and verify per-qubit agreement.
    RoundResult rr = quiet_round(h.code);
    for (int c = 0; c < h.code.n_checks(); c += 3)
        rr.detector[c] = 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    for (int q = 0; q < h.code.n_data(); ++q) {
        const bool scheduled =
            std::find(out.data_qubits.begin(), out.data_qubits.end(), q) !=
            out.data_qubits.end();
        const bool expected = tables->is_leak(
            h.ctx.class_of(q), h.ctx.pattern_of(q, rr.detector));
        EXPECT_EQ(scheduled, expected) << "qubit " << q;
    }
}

TEST(GladiatorPolicy, QuietSyndromeSchedulesNothing)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, NoiseParams::standard(), {}, false));
    GladiatorPolicy policy(h.ctx, tables, true);
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    EXPECT_TRUE(out.empty());
}

TEST(GladiatorDPolicy, NeedsTwoRoundsBeforeFiring)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(h.ctx, NoiseParams::standard(), {}, true));
    GladiatorDPolicy policy(h.ctx, tables, false);
    policy.begin_shot();
    // Find a two-round-flagged key for the bulk class to construct input.
    const int q = SurfaceCode::data_index(5, 2, 2);
    const int cls = h.ctx.class_of(q);
    const int k = h.ctx.degree_of(q);
    uint32_t key = 0;
    for (uint32_t s = 0; s < (1u << (2 * k)); ++s) {
        if (tables->is_leak(cls, s) && (s >> k) != 0 &&
            (s & ((1u << k) - 1)) != 0) {
            key = s;
            break;
        }
    }
    ASSERT_NE(key, 0u);
    const uint32_t s1 = key >> k, s2 = key & ((1u << k) - 1);

    RoundResult rr = quiet_round(h.code);
    const auto& checks = h.ctx.observed_checks(q);
    for (int i = 0; i < k; ++i)
        rr.detector[checks[i]] = (s1 >> i) & 1;
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_TRUE(out.data_qubits.empty());  // first round: only history

    for (int i = 0; i < k; ++i)
        rr.detector[checks[i]] = (s2 >> i) & 1;
    policy.observe(1, rr, &out);
    EXPECT_NE(std::find(out.data_qubits.begin(), out.data_qubits.end(), q),
              out.data_qubits.end());
}

TEST(StaggeredPolicy, ColoringIsProperAndCoversAllQubits)
{
    Harness h(SurfaceCode::make(5), PatternScope::kBothTypes);
    StaggeredLrcPolicy policy(h.ctx);
    EXPECT_GE(policy.n_colors(), 2);
    // No two qubits sharing a check share a color.
    for (int c = 0; c < h.code.n_checks(); ++c) {
        const auto& sup = h.code.check(c).support;
        const int anc = h.code.ancilla_of(c);
        for (size_t i = 0; i < sup.size(); ++i) {
            EXPECT_NE(policy.colors()[sup[i]], policy.colors()[anc]);
            for (size_t j = i + 1; j < sup.size(); ++j)
                EXPECT_NE(policy.colors()[sup[i]], policy.colors()[sup[j]]);
        }
    }
    // Round-robin covers every qubit within n_colors rounds.
    std::vector<int> covered(h.code.n_qubits(), 0);
    LrcSchedule out;
    const RoundResult rr = quiet_round(h.code);
    for (int r = 0; r < policy.n_colors(); ++r) {
        policy.observe(r, rr, &out);
        for (int q : out.data_qubits)
            covered[q] += 1;
        for (int c : out.checks)
            covered[h.code.ancilla_of(c)] += 1;
    }
    for (int q = 0; q < h.code.n_qubits(); ++q)
        EXPECT_EQ(covered[q], 1) << "qubit " << q;
}

TEST(AlwaysLrcPolicy, SchedulesEverything)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    AlwaysLrcPolicy policy(h.ctx);
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    EXPECT_EQ(static_cast<int>(out.data_qubits.size()), h.code.n_data());
    EXPECT_EQ(static_cast<int>(out.checks.size()), h.code.n_checks());
}

TEST(IdealPolicy, SchedulesExactlyGroundTruth)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    NoiseParams np;
    np.p = 0;
    np.leak_ratio = 0;
    LeakFrameSim sim(h.code, h.rc, np, 3);
    sim.inject_data_leak_lane(0, 2);
    sim.inject_check_leak_lane(0, 1);
    IdealPolicy policy(h.ctx);
    policy.set_leak_oracle(&sim.lane_oracle(0));
    LrcSchedule out;
    policy.observe(0, quiet_round(h.code), &out);
    ASSERT_EQ(out.data_qubits.size(), 1u);
    EXPECT_EQ(out.data_qubits[0], 2);
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 1);
}

TEST(MlrOnlyPolicy, SchedulesOnlyFlaggedAncillas)
{
    Harness h(SurfaceCode::make(3), PatternScope::kBothTypes);
    MlrOnlyPolicy policy(h.ctx);
    RoundResult rr = quiet_round(h.code);
    rr.mlr_flag[5] = 1;
    rr.detector[0] = 1;  // syndrome activity must be ignored
    LrcSchedule out;
    policy.observe(0, rr, &out);
    EXPECT_TRUE(out.data_qubits.empty());
    ASSERT_EQ(out.checks.size(), 1u);
    EXPECT_EQ(out.checks[0], 5);
}

TEST(GladiatorFactory, SharesOneTableSetPerContext)
{
    // ROADMAP satellite: every policy a factory builds for the same
    // context shares ONE immutable PatternTableSet (one offline build per
    // run(), not one per RNG stream) — while different codes through the
    // same factory still get their own tables.
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const PolicyFactory factory = PolicyZoo::gladiator(true, np);

    const CssCode surf = SurfaceCode::make(3);
    const RoundCircuit surf_rc(surf);
    const CodeContext surf_ctx(surf, surf_rc,
                               CodeContext::default_scope(surf));
    const auto p1 = factory(surf_ctx, 1);
    const auto p2 = factory(surf_ctx, 2);
    const auto* g1 = dynamic_cast<const GladiatorPolicy*>(p1.get());
    const auto* g2 = dynamic_cast<const GladiatorPolicy*>(p2.get());
    ASSERT_NE(g1, nullptr);
    ASSERT_NE(g2, nullptr);
    EXPECT_EQ(g1->tables().get(), g2->tables().get());

    const CssCode color = ColorCode::make(3);
    const RoundCircuit color_rc(color);
    const CodeContext color_ctx(color, color_rc,
                                CodeContext::default_scope(color));
    const auto p3 = factory(color_ctx, 3);
    const auto* g3 = dynamic_cast<const GladiatorPolicy*>(p3.get());
    ASSERT_NE(g3, nullptr);
    EXPECT_NE(g3->tables().get(), g1->tables().get());

    // A RECREATED context with the same class structure may share the
    // cached tables: they are identical by construction.
    const CodeContext surf_ctx2(surf, surf_rc,
                                CodeContext::default_scope(surf));
    const auto p4 = factory(surf_ctx2, 4);
    const auto* g4 = dynamic_cast<const GladiatorPolicy*>(p4.get());
    ASSERT_NE(g4, nullptr);
    EXPECT_EQ(g4->tables().get(), g1->tables().get());

    // Each factory instance has its own cache (np may differ).
    const PolicyFactory other = PolicyZoo::gladiator(true, np);
    const auto p5 = other(surf_ctx, 5);
    const auto* g5 = dynamic_cast<const GladiatorPolicy*>(p5.get());
    ASSERT_NE(g5, nullptr);
    EXPECT_NE(g5->tables().get(), g1->tables().get());
}

}  // namespace
}  // namespace gld
