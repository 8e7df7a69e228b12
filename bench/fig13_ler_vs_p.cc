// Figure 13: logical error rate and LRC usage at p = 1e-3 vs p = 1e-4
// (surface d=5; LER at p=1e-4 needs many shots — scale up for precision).

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Figure 13 - Sensitivity to physical error rate",
           "LER + LRC usage at p=1e-3 and p=1e-4, surface d=5, lr=0.1");

    for (double p : {1e-3, 1e-4}) {
        const NoiseParams np = NoiseParams::standard(p, 0.1);
        auto bundle = surface(5);
        ExperimentConfig cfg;
        cfg.np = np;
        cfg.rounds = 50;
        cfg.shots = BenchConfig::shots(p < 5e-4 ? 2000 : 800);
        cfg.compute_ler = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);

        std::printf("-- p = %.0e --\n", p);
        TablePrinter t({"Policy", "LER", "LRC/round", "Spec.inaccuracy"});
        std::vector<NamedPolicy> policies = {
            {"Always-LRC", PolicyZoo::always_lrc()},
            {"ERASER+M", PolicyZoo::eraser(true)},
            {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
            {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, np)},
        };
        for (const auto& pol : policies) {
            const Metrics m = runner.run(pol.factory);
            t.add_row({pol.name, TablePrinter::sci(m.ler(), 2),
                       TablePrinter::fmt(m.lrc_per_shot() / cfg.rounds, 3),
                       TablePrinter::sci(m.spec_inaccuracy(), 2)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Paper Fig 13: both LER and LRC usage drop as p decreases; "
                "GLADIATOR adapts its table and keeps the LRC advantage at "
                "both error rates.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig13_ler_vs_p", e);
}
