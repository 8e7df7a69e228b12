// Figure 4(b): logical error rate of open-loop policies (Always-LRC,
// Staggered Always-LRC) vs the closed-loop ERASER+M across code distances.

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Figure 4(b) - Open-loop vs closed-loop LER",
           "LER for Always-LRC / Staggered / ERASER+M, surface d=3,5,7");

    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    std::vector<NamedPolicy> policies = {
        {"Always-LRC", PolicyZoo::always_lrc()},
        {"Staggered", PolicyZoo::staggered()},
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
    };

    TablePrinter t({"d", "Always-LRC", "Staggered", "ERASER+M",
                    "GLADIATOR+M"});
    for (int d : {3, 5, 7}) {
        auto bundle = surface(d);
        ExperimentConfig cfg;
        cfg.np = np;
        cfg.rounds = 10 * d;
        cfg.shots = BenchConfig::shots(d <= 5 ? 1500 : 600);
        cfg.compute_ler = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);
        std::vector<std::string> row = {std::to_string(d)};
        for (const auto& pol : policies)
            row.push_back(TablePrinter::sci(runner.run(pol.factory).ler(), 2));
        t.add_row(row);
    }
    t.print();
    std::printf("\nPaper Fig 4(b): Staggered narrows the open-loop gap but "
                "closed-loop (ERASER+M) stays ahead; Always-LRC is worst.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig04_open_loop_ler", e);
}
