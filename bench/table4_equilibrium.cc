// Table 4: leakage population at equilibrium across leakage ratios, and
// speculation inaccuracy across physical error rates (paper: d=11;
// default d=7 here — set GLD_T4_D=11).

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
{
    const int d = env_int("GLD_T4_D", 7, 3);
    banner("Table 4 - Equilibrium leakage and speculation inaccuracy",
           "surface d=" + std::to_string(d) + " (paper: d=11)");

    auto bundle = surface(d);

    std::printf("Leakage equilibrium (DLP, tail average):\n");
    TablePrinter t({"Method", "lr=0.01", "lr=0.1", "lr=1.0"});
    std::vector<std::string> gl_row = {"GLADIATOR+M"}, er_row = {"ERASER+M"};
    for (double lr : {0.01, 0.1, 1.0}) {
        ExperimentConfig cfg;
        cfg.np = NoiseParams::standard(1e-3, lr);
        cfg.rounds = 40 * d;
        cfg.shots = BenchConfig::shots(40);
        cfg.leakage_sampling = true;
        cfg.record_dlp_series = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);
        const Metrics gl = runner.run(PolicyZoo::gladiator(true, cfg.np));
        const Metrics er = runner.run(PolicyZoo::eraser(true));
        gl_row.push_back(TablePrinter::sci(gl.dlp_equilibrium(), 2));
        er_row.push_back(TablePrinter::sci(er.dlp_equilibrium(), 2));
    }
    t.add_row(gl_row);
    t.add_row(er_row);
    t.print();

    std::printf("\nSpeculation inaccuracy ((FN+FP) per qubit-round):\n");
    TablePrinter u({"Method", "p=1e-3", "p=1e-4"});
    std::vector<std::string> gl2 = {"GLADIATOR+M"}, er2 = {"ERASER+M"};
    for (double p : {1e-3, 1e-4}) {
        ExperimentConfig cfg;
        cfg.np = NoiseParams::standard(p, 0.1);
        cfg.rounds = 10 * d;
        cfg.shots = BenchConfig::shots(150);
        cfg.leakage_sampling = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);
        gl2.push_back(TablePrinter::sci(
            runner.run(PolicyZoo::gladiator(true, cfg.np))
                .spec_inaccuracy(),
            2));
        er2.push_back(TablePrinter::sci(
            runner.run(PolicyZoo::eraser(true)).spec_inaccuracy(), 2));
    }
    u.add_row(gl2);
    u.add_row(er2);
    u.print();
    std::printf("\nPaper Table 4: GLADIATOR+M's equilibrium is ~1.2-1.9x "
                "below ERASER+M at every lr, and its inaccuracy ~2-3x lower "
                "at both error rates.\n");
    return 0;
}
