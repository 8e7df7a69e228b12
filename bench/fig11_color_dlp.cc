// Figure 11: color-code data-leakage population and LRC usage over 100 QEC
// cycles (paper uses d=19; default here d=11 for wall-clock, scale with
// GLD_SHOTS_SCALE and GLD_COLOR_D).

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    const int d = env_int("GLD_COLOR_D", 11, 3);
    banner("Figure 11 - Color-code DLP and LRC usage",
           "color code d=" + std::to_string(d) +
               " (paper: d=19; set GLD_COLOR_D=19), 100 QEC cycles");

    auto bundle = color(d);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 100;
    cfg.shots = BenchConfig::shots(100);
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    apply_env(&cfg);
    ExperimentRunner runner(bundle->ctx, cfg);

    std::vector<NamedPolicy> policies = {
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, cfg.np)},
        {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, cfg.np)},
    };
    std::vector<Metrics> results;
    for (const auto& pol : policies)
        results.push_back(runner.run(pol.factory));

    TablePrinter t({"round", "ER+M DLP", "GL+M DLP", "GL-D+M DLP"});
    for (int r = 10; r <= 100; r += 10) {
        t.add_row({std::to_string(r),
                   TablePrinter::sci(results[0].dlp_curve()[r - 1], 2),
                   TablePrinter::sci(results[1].dlp_curve()[r - 1], 2),
                   TablePrinter::sci(results[2].dlp_curve()[r - 1], 2)});
    }
    t.print();

    TablePrinter u({"Policy", "LRC/round", "DLP mean", "vs ERASER+M"});
    for (size_t i = 0; i < policies.size(); ++i) {
        u.add_row({policies[i].name,
                   TablePrinter::fmt(results[i].lrc_per_shot() / cfg.rounds,
                                     3),
                   TablePrinter::sci(results[i].dlp_mean(), 2),
                   TablePrinter::fmt(results[0].lrc_per_shot() /
                                         results[i].lrc_per_shot(),
                                     2) +
                       "x fewer LRCs"});
    }
    u.print();
    std::printf("\nPaper Fig 11: the ER+M vs GL+M DLP gap widens with rounds "
                "on color codes; GLADIATOR uses ~1.5x fewer LRCs.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig11_color_dlp", e);
}
