// Figure 3: leakage-injection characterization.  The paper ran these on IBM
// hardware via Qiskit Pulse (since retired); here the same circuits run on
// the simulator's calibrated gate-malfunction model (DESIGN.md
// substitution table): (a) a single CNOT with a leaked control produces
// ~50% bit flips on the target; (c) repeated CNOTs accumulate leakage when
// it is injected and stay clean when it is not.

#include "bench_common.h"
#include "sim/frame_sim.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Figure 3 - Leakage injection experiment",
           "leaked-CNOT bit-flip probability and leakage growth, 10k shots");

    // A minimal two-qubit 'code': one Z check so the round circuit is a
    // single CNOT + measure, mirroring the hardware experiment.
    CssCode pair("cnot_pair", 1, {{CheckType::kZ, {0}}});
    RoundCircuit rc(pair);

    const int shots = BenchConfig::shots(10000);

    // (a) One CNOT with the control leaked: target outcome distribution.
    {
        NoiseParams np;
        np.p = 0;
        np.leak_ratio = 0;
        np.mobility = 0.0;
        LeakFrameSim sim(pair, rc, np, 2025);
        const std::vector<LrcSchedule> none(1);
        std::vector<RoundResult> rr;
        int flips = 0;
        for (int s = 0; s < shots; ++s) {
            sim.reset_shot_batch(1);
            sim.inject_data_leak_lane(0, 0);
            sim.run_round_batch(none, &rr);
            flips += rr[0].meas_flip[0];
        }
        TablePrinter t({"Experiment", "P(target flipped)", "Paper"});
        t.add_row({"CNOT, control leaked",
                   TablePrinter::fmt(static_cast<double>(flips) / shots, 3),
                   "~0.50"});
        t.print();
    }

    // (c) K repeated CNOTs: leakage population with and without injection.
    {
        NoiseParams np = NoiseParams::standard(1e-3, 1.0);
        np.mobility = 0.1;
        std::printf("\nLeakage population after K CNOT rounds (10k shots):\n");
        TablePrinter t({"K", "with injection", "without injection"});
        const std::vector<LrcSchedule> none(1);
        for (int k : {1, 5, 10, 20, 40}) {
            int leaked_inj = 0, leaked_no = 0;
            LeakFrameSim sim(pair, rc, np, 7);
            const LeakageOracle& truth = sim.lane_oracle(0);
            for (int s = 0; s < shots / 10; ++s) {
                sim.reset_shot_batch(1);
                sim.inject_data_leak_lane(0, 0);
                for (int r = 0; r < k; ++r)
                    sim.run_round_batch(none, nullptr);
                leaked_inj += truth.n_data_leaked() + truth.n_check_leaked() > 0;
                sim.reset_shot_batch(1);
                for (int r = 0; r < k; ++r)
                    sim.run_round_batch(none, nullptr);
                leaked_no += truth.n_data_leaked() + truth.n_check_leaked() > 0;
            }
            const double n = shots / 10;
            t.add_row({std::to_string(k),
                       TablePrinter::fmt(leaked_inj / n, 3),
                       TablePrinter::fmt(leaked_no / n, 3)});
        }
        t.print();
        std::printf("\nPaper Fig 3(c): injected leakage persists/grows over "
                    "rounds; without injection the population stays low.\n");
    }
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig03_injection", e);
}
