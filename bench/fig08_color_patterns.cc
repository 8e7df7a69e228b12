// Figure 8: color-code LRC distribution across 3-bit patterns for
// ERASER+M, GLADIATOR+M and GLADIATOR-D+M, plus the flagged-pattern
// fractions of §5.2.

#include <map>

#include "bench_common.h"
#include "core/pattern_table.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Figure 8 - Color-code pattern distributions",
           "3-bit pattern LRCs + flagged counts, color code d=5");

    auto bundle = color(5);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);

    // Flagged-pattern table comparison (§5.2).
    {
        const PatternTableSet single =
            PatternTableSet::build(bundle->ctx, np, {}, false);
        const PatternTableSet two =
            PatternTableSet::build(bundle->ctx, np, {}, true);
        TablePrinter t({"class width k", "ERASER (>=ceil(k/2)) of 2^k",
                        "GLADIATOR of 2^k", "GLADIATOR-D of 4^k"});
        for (int c = 0; c < bundle->ctx.n_classes(); ++c) {
            const int k = bundle->ctx.classes()[c].k_obs;
            t.add_row({std::to_string(k),
                       std::to_string(EraserPolicy::flagged_count(k)),
                       std::to_string(single.flagged_count(c)),
                       std::to_string(two.flagged_count(c))});
        }
        t.print();
        std::printf("Paper §5.2: 3-bit: ERASER flags 4/8, GLADIATOR 3; "
                    "two-round: GLADIATOR-D 11/64 vs ERASER 16/64.\n\n");
    }

    // Simulated LRC usage per policy on the color code.
    ExperimentConfig cfg;
    cfg.np = np;
    cfg.rounds = 100;
    cfg.shots = BenchConfig::shots(150);
    cfg.leakage_sampling = true;
    apply_env(&cfg);
    ExperimentRunner runner(bundle->ctx, cfg);
    TablePrinter t({"Policy", "LRC/shot", "FP/shot", "FN/shot"});
    std::vector<NamedPolicy> policies = {
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
        {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, np)},
    };
    for (const auto& pol : policies) {
        const Metrics m = runner.run(pol.factory);
        t.add_row({pol.name, TablePrinter::fmt(m.lrc_per_shot(), 2),
                   TablePrinter::fmt(m.fp_per_shot(), 2),
                   TablePrinter::fmt(m.fn_per_shot(), 2)});
    }
    t.print();
    std::printf("\nPaper Fig 8: deferred speculation (GLADIATOR-D) cuts the "
                "over-triggering that ERASER's heuristic suffers on the "
                "information-poor color-code patterns.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig08_color_patterns", e);
}
