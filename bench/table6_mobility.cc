// Table 6: leakage-mobility regime classification via GLADIATOR's
// speculative flags + MLR co-occurrence.  The decision threshold is
// calibrated at the 5% mobility boundary (after Camps et al. [13]), so
// accuracy is ~50% exactly at the boundary and high away from it.

#include "bench_common.h"
#include "core/mobility.h"
#include "sim/frame_sim.h"

using namespace gld;
using namespace gld::bench;

namespace {

double
measure_conditional(const CodeBundle& bundle, double mobility, uint64_t seed)
{
    NoiseParams np = NoiseParams::standard(1e-3, 1.0);
    np.mobility = mobility;
    auto tables = std::make_shared<const PatternTableSet>(
        PatternTableSet::build(bundle.ctx, np, {}, false));
    GladiatorPolicy policy(bundle.ctx, tables, true);
    MobilityEstimator est(bundle.ctx);
    LeakFrameSim sim(bundle.code, bundle.rc, np, seed);
    Rng shot_rng(seed ^ 0xABCD);
    std::vector<LrcSchedule> sched(1);
    std::vector<RoundResult> results;
    for (int shot = 0; shot < 40; ++shot) {
        sim.reset_shot_batch(1);
        policy.begin_shot();
        sched[0].clear();
        sim.inject_data_leak_lane(
            0, static_cast<int>(shot_rng.uniform_int(bundle.code.n_data())));
        for (int r = 0; r < 40; ++r) {
            sim.run_round_batch(sched, &results);
            const RoundResult& rr = results[0];
            policy.observe(r, rr, &sched[0]);
            est.observe(sched[0].data_qubits, rr);
        }
    }
    return est.conditional_rate();
}

}  // namespace

int
main()
try {
    banner("Table 6 - Leakage mobility classification",
           "regime accuracy at mobility 1 / 2.5 / 5 / 6 / 9 %");

    auto bundle = surface(5);
    const int trials = BenchConfig::shots(20);

    // Calibration: the decision threshold is the median estimate at the 5%
    // boundary.
    std::vector<double> cal;
    for (int t = 0; t < trials; ++t)
        cal.push_back(measure_conditional(*bundle, 0.05, 1000 + t));
    std::sort(cal.begin(), cal.end());
    const double threshold = cal[cal.size() / 2];
    std::printf("Calibrated decision threshold (median at 5%% mobility): "
                "%.4f\n\n",
                threshold);

    TablePrinter t({"Mobility (%)", "True Regime", "Accuracy (%)",
                    "mean estimate"});
    for (double mob : {0.01, 0.025, 0.05, 0.06, 0.09}) {
        const bool truth_high = mob >= 0.05;
        int correct = 0;
        double mean = 0;
        for (int trial = 0; trial < trials; ++trial) {
            const double est =
                measure_conditional(*bundle, mob, 77000 + trial * 13);
            mean += est;
            const bool high = est > threshold;
            correct += high == truth_high;
        }
        t.add_row({TablePrinter::fmt(mob * 100, 1),
                   truth_high ? "High" : "Low",
                   TablePrinter::fmt(100.0 * correct / trials, 0),
                   TablePrinter::fmt(mean / trials, 4)});
    }
    t.print();
    std::printf("\nPaper Table 6: 100%% accuracy away from the boundary, "
                "50%% at exactly 5%% (the calibration point).\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("table6_mobility", e);
}
