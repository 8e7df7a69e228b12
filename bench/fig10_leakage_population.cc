// Figure 10 (and Fig 1(c)): data-leakage population vs QEC rounds for
// ERASER+M / GLADIATOR+M / GLADIATOR-D+M / IDEAL with leakage sampling.

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

namespace {

void
run_panel(int d, double lr, int rounds, int shots)
{
    std::printf("-- surface d=%d, lr=%.2g, %d rounds --\n", d, lr, rounds);
    auto bundle = surface(d);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, lr);
    cfg.rounds = rounds;
    cfg.shots = shots;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    apply_env(&cfg);
    ExperimentRunner runner(bundle->ctx, cfg);

    std::vector<NamedPolicy> policies = {
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, cfg.np)},
        {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, cfg.np)},
        {"IDEAL", PolicyZoo::ideal()},
    };
    TablePrinter t({"round", policies[0].name, policies[1].name,
                    policies[2].name, policies[3].name});
    std::vector<std::vector<double>> curves;
    std::vector<double> final_dlp;
    for (const auto& pol : policies) {
        const Metrics m = runner.run(pol.factory);
        curves.push_back(m.dlp_curve());
        final_dlp.push_back(m.dlp_equilibrium());
    }
    for (int r = rounds / 10; r <= rounds; r += rounds / 10) {
        std::vector<std::string> row = {std::to_string(r)};
        for (const auto& c : curves)
            row.push_back(TablePrinter::sci(c[r - 1], 2));
        t.add_row(row);
    }
    t.print();
    std::printf("Equilibrium DLP: ER+M %.3e, GL+M %.3e (%.2fx), GL-D+M %.3e "
                "(%.2fx), IDEAL %.3e\n\n",
                final_dlp[0], final_dlp[1], final_dlp[0] / final_dlp[1],
                final_dlp[2], final_dlp[0] / final_dlp[2], final_dlp[3]);
}

}  // namespace

int
main()
try {
    banner("Figure 10 / 1(c) - Data leakage population vs rounds",
           "DLP for ER+M / GL+M / GL-D+M / IDEAL; d=7 & d=11, lr=0.1 & 1");

    run_panel(7, 0.1, 300, BenchConfig::shots(120));
    run_panel(7, 1.0, 300, BenchConfig::shots(120));
    run_panel(11, 0.1, 500, BenchConfig::shots(40));

    std::printf("Paper Fig 10: GLADIATOR variants hold the population below "
                "ERASER+M (1.47-1.73x at d=11 over 100d rounds); IDEAL is "
                "the floor; at lr=1 a crossover appears at 100-200 rounds.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig10_leakage_population", e);
}
