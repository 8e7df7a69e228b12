// Figure 12: logical error rate vs code distance (d = 3, 5, 7 by default;
// the paper shows 5, 7, 9 — set GLD_MAX_D=9) for NO-LRC / Always-LRC /
// ERASER+M / GLADIATOR+M, plus the suppression factor Lambda.

#include <map>

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    const int max_d = env_int("GLD_MAX_D", 7, 3);
    banner("Figure 12 - LER vs code distance",
           "LER for NO-LRC / Always-LRC / ERASER+M / GLADIATOR+M, 10d "
           "rounds, p=1e-3, lr=0.1");

    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    std::vector<NamedPolicy> policies = {
        {"NO-LRC", PolicyZoo::no_lrc()},
        {"Always-LRC", PolicyZoo::always_lrc()},
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
    };

    TablePrinter t({"d", "NO-LRC", "Always-LRC", "ERASER+M", "GLADIATOR+M"});
    std::map<std::string, std::map<int, double>> ler;
    for (int d = 3; d <= max_d; d += 2) {
        auto bundle = surface(d);
        ExperimentConfig cfg;
        cfg.np = np;
        cfg.rounds = 10 * d;
        // One whole 64-lane batch per RNG stream (32 streams).
        cfg.shots = BenchConfig::shots(2048);
        cfg.compute_ler = true;
        apply_env(&cfg);
        ExperimentRunner runner(bundle->ctx, cfg);
        std::vector<std::string> row = {std::to_string(d)};
        for (const auto& pol : policies) {
            const double e = runner.run(pol.factory).ler();
            ler[pol.name][d] = e;
            row.push_back(TablePrinter::sci(e, 2));
        }
        t.add_row(row);
    }
    t.print();

    std::printf("\nSuppression factor Lambda = LER(d) / LER(d+2):\n");
    TablePrinter l({"policy", "Lambda (avg)"});
    for (const auto& pol : policies) {
        double acc = 0;
        int n = 0;
        for (int d = 3; d + 2 <= max_d; d += 2) {
            const double a = ler[pol.name][d], b = ler[pol.name][d + 2];
            if (b > 0) {
                acc += a / b;
                ++n;
            }
        }
        l.add_row({pol.name, n > 0 ? TablePrinter::fmt(acc / n, 2) : "-"});
    }
    l.print();
    std::printf("\nPaper Fig 12: LER falls with d for all mitigated "
                "policies (Lambda ~3.7 for GLADIATOR+M vs 3.38 ERASER+M); "
                "NO-LRC *rises* with d as leakage accumulates.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig12_ler_vs_distance", e);
}
