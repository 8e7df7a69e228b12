// Figure 1(b): headline comparison of GLADIATOR vs ERASER on the d=11
// surface code — false positives, false negatives, LRC utilization, and
// the resulting data-leakage population ratio of Fig 1(c).

#include "bench_common.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Figure 1(b) - GLADIATOR vs ERASER headline",
           "FP/FN/LRC + DLP ratios, surface code d=11, p=1e-3, lr=0.1");

    auto bundle = surface(11);
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 200;
    cfg.shots = BenchConfig::shots(60);
    cfg.leakage_sampling = true;
    apply_env(&cfg);
    ExperimentRunner runner(bundle->ctx, cfg);

    const Metrics er = runner.run(PolicyZoo::eraser(true));
    const Metrics gl = runner.run(PolicyZoo::gladiator(true, cfg.np));

    TablePrinter t({"Metric", "ERASER+M", "GLADIATOR+M", "Ratio (ER/GL)"});
    auto row = [&](const std::string& name, double e, double g) {
        t.add_row({name, TablePrinter::fmt(e, 3), TablePrinter::fmt(g, 3),
                   g > 0 ? TablePrinter::fmt(e / g, 2) + "x" : "-"});
    };
    row("FP per shot", er.fp_per_shot(), gl.fp_per_shot());
    row("FN per shot", er.fn_per_shot(), gl.fn_per_shot());
    row("LRCs per shot", er.lrc_per_shot(), gl.lrc_per_shot());
    row("DLP (mean)", er.dlp_mean() * 1e3, gl.dlp_mean() * 1e3);
    row("Spec. inaccuracy x1e3", er.spec_inaccuracy() * 1e3,
        gl.spec_inaccuracy() * 1e3);
    t.print();
    std::printf("\nPaper: 1.91x FP reduction, 1.73x lower data leakage "
                "population, ~2x fewer LRCs (d=11).\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("fig01_headline", e);
}
