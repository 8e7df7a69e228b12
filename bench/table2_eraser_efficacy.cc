// Table 2: leakage detection efficacy across the policy lineup — FN/FP/LRC
// rates plus the leakage population after 70 and 700 rounds.

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Table 2 - Leakage detection efficacy",
           "FN/FP/LRC rates + Leak-70 / Leak-700, surface d=7");

    auto bundle = surface(7);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);

    std::vector<NamedPolicy> policies = {
        {"Always-LRC", PolicyZoo::always_lrc()},
        {"ERASER", PolicyZoo::eraser(false)},
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"M", PolicyZoo::mlr_only()},
        {"Staggered", PolicyZoo::staggered()},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
    };

    // Short horizon (70 rounds) for the rate metrics + Leak-70.
    ExperimentConfig cfg70;
    cfg70.np = np;
    cfg70.rounds = 70;
    cfg70.shots = BenchConfig::shots(250);
    cfg70.leakage_sampling = true;
    cfg70.record_dlp_series = true;
    apply_env(&cfg70);
    ExperimentRunner short_runner(bundle->ctx, cfg70);

    // Long horizon for Leak-700.
    ExperimentConfig cfg700 = cfg70;
    cfg700.rounds = 700;
    cfg700.shots = BenchConfig::shots(60);
    ExperimentRunner long_runner(bundle->ctx, cfg700);

    TablePrinter t({"Metric", "Always", "ER", "ER+M", "M", "Staggered",
                    "Ours"});
    std::vector<Metrics> m70, m700;
    for (const auto& pol : policies) {
        m70.push_back(short_runner.run(pol.factory));
        m700.push_back(long_runner.run(pol.factory));
    }
    auto row = [&](const std::string& name, auto getter) {
        std::vector<std::string> cells = {name};
        for (const Metrics& m : m70)
            cells.push_back(TablePrinter::fmt(getter(m), 3));
        t.add_row(cells);
    };
    row("FN /qubit/round x1e2",
        [](const Metrics& m) { return m.fn_per_round() * 100; });
    row("FP /qubit/round x1e2",
        [](const Metrics& m) { return m.fp_per_round() * 100; });
    row("LRCs /qubit/round x1e2",
        [](const Metrics& m) { return m.lrc_data_per_round() * 100; });
    {
        std::vector<std::string> cells = {"Leak-70 (x1e-3)"};
        for (const Metrics& m : m70)
            cells.push_back(TablePrinter::fmt(m.dlp_equilibrium() * 1e3, 2));
        t.add_row(cells);
        cells = {"Leak-700 (x1e-3)"};
        for (const Metrics& m : m700)
            cells.push_back(TablePrinter::fmt(m.dlp_equilibrium() * 1e3, 2));
        t.add_row(cells);
    }
    t.print();
    std::printf("\nPaper Table 2 shape: M has the worst FN (no data-qubit "
                "speculation); Staggered has the worst FP; Ours has the "
                "lowest FP/LRC and the lowest long-horizon leakage among "
                "speculative policies.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("table2_eraser_efficacy", e);
}
