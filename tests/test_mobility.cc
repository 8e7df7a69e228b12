#include "core/mobility.h"

#include <gtest/gtest.h>

#include "codes/surface_code.h"
#include "core/policy_gladiator.h"
#include "one_lane.h"
#include "runtime/experiment.h"

namespace gld {
namespace {

using test::lane0_round;

TEST(MobilityEstimator, CountsConditionalRate)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, PatternScope::kBothTypes);
    MobilityEstimator est(ctx);
    RoundResult rr;
    rr.mlr_flag.assign(code.n_checks(), 0);
    rr.mlr_flag[ctx.observed_checks(4)[0]] = 1;
    est.observe({4}, rr);       // flagged qubit with a leaked neighbour
    est.observe({0}, rr);       // flagged qubit; neighbour flags depend
    EXPECT_EQ(est.samples(), 2);
    EXPECT_GE(est.conditional_rate(), 0.5);
    est.reset();
    EXPECT_EQ(est.samples(), 0);
}

TEST(MobilityEstimator, HigherMobilityRaisesEstimate)
{
    // End-to-end: run short experiments at two mobility settings and
    // confirm the conditional rate orders correctly (the basis of the
    // paper's Table 6 classifier).
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, PatternScope::kBothTypes);

    auto measure = [&](double mobility) {
        NoiseParams np = NoiseParams::standard(1e-3, 1.0);
        np.mobility = mobility;
        auto tables = std::make_shared<const PatternTableSet>(
            PatternTableSet::build(ctx, np, {}, false));
        MobilityEstimator est(ctx);
        LeakFrameSim sim(code, rc, np, 2024);
        GladiatorPolicy policy(ctx, tables, true);
        LrcSchedule sched;
        for (int shot = 0; shot < 60; ++shot) {
            sim.reset_shot_batch(1);
            sim.inject_data_leak_lane(0, shot % code.n_data());
            for (int r = 0; r < 30; ++r) {
                const RoundResult rr = lane0_round(sim, sched);
                policy.observe(r, rr, &sched);
                est.observe(sched.data_qubits, rr);
            }
        }
        return est.conditional_rate();
    };

    const double low = measure(0.01);
    const double high = measure(0.30);
    EXPECT_GT(high, low);
}

}  // namespace
}  // namespace gld
