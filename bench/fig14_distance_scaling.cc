// Figure 14: total leakage events and total LRCs vs code distance
// (paper: d = 7, 11, 13, 17 for 100d cycles; defaults reduced for
// wall-clock — scale with GLD_SHOTS_SCALE / GLD_MAX_D).

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
{
    const int max_d = env_int("GLD_MAX_D", 13, 3);
    banner("Figure 14 - Scaling with code distance",
           "total leakage and LRC counts for d up to " +
               std::to_string(max_d) + ", 20d rounds (paper: 100d)");

    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    std::vector<NamedPolicy> policies = {
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
        {"IDEAL", PolicyZoo::ideal()},
    };

    TablePrinter leaks({"d", "ER+M leak-rounds/shot", "GL+M", "IDEAL"});
    TablePrinter lrcs({"d", "ER+M LRCs/shot", "GL+M", "IDEAL",
                       "ER/GL ratio"});
    for (int d = 7; d <= max_d; d += d < 11 ? 4 : 2) {
        auto bundle = surface(d);
        ExperimentConfig cfg;
        cfg.np = np;
        cfg.rounds = 20 * d;
        cfg.shots = BenchConfig::shots(d <= 7 ? 60 : 25);
        cfg.leakage_sampling = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);
        std::vector<double> leak_tot, lrc_tot;
        for (const auto& pol : policies) {
            const Metrics m = runner.run(pol.factory);
            // Total leakage exposure: leaked-qubit-rounds per shot.
            leak_tot.push_back(m.dlp_mean() * bundle->code.n_data() *
                               cfg.rounds);
            lrc_tot.push_back(m.lrc_per_shot());
        }
        leaks.add_row({std::to_string(d), TablePrinter::fmt(leak_tot[0], 1),
                       TablePrinter::fmt(leak_tot[1], 1),
                       TablePrinter::fmt(leak_tot[2], 1)});
        lrcs.add_row({std::to_string(d), TablePrinter::fmt(lrc_tot[0], 1),
                      TablePrinter::fmt(lrc_tot[1], 1),
                      TablePrinter::fmt(lrc_tot[2], 1),
                      TablePrinter::fmt(lrc_tot[0] / lrc_tot[1], 2) + "x"});
    }
    std::printf("(a) Total leakage exposure:\n");
    leaks.print();
    std::printf("\n(b) Total LRCs utilized:\n");
    lrcs.print();
    std::printf("\nPaper Fig 14: total leakage grows with d even under the "
                "ideal policy (quadratic qubit/gate count); the ER-vs-GL "
                "LRC gap widens with distance.\n");
    return 0;
}
