// Ablation bench for the offline-model design choices called out in
// DESIGN.md: labeling threshold theta, persistence prior, prior-round
// Pauli tails, and the second-order event cutoff — each evaluated by its
// effect on flagged-set size and simulated FP/FN.

#include "bench_common.h"
#include "core/pattern_table.h"

using namespace gld;
using namespace gld::bench;

namespace {

void
run_point(const CodeBundle& bundle, const NoiseParams& np,
          const SpecModelOptions& opt, const std::string& label,
          TablePrinter* t)
{
    const PatternTableSet tables =
        PatternTableSet::build(bundle.ctx, np, opt, false);
    int bulk_class = 0;
    for (int c = 0; c < bundle.ctx.n_classes(); ++c) {
        if (bundle.ctx.classes()[c].k_obs >
            bundle.ctx.classes()[bulk_class].k_obs)
            bulk_class = c;
    }
    ExperimentConfig cfg;
    cfg.np = np;
    cfg.rounds = 70;
    cfg.shots = BenchConfig::shots(150);
    cfg.leakage_sampling = true;
    apply_env(&cfg);
    ExperimentRunner runner(bundle.ctx, cfg);
    const Metrics m = runner.run(PolicyZoo::gladiator(true, np, opt));
    t->add_row({label,
                std::to_string(tables.flagged_count(bulk_class)) + "/16",
                TablePrinter::fmt(m.fp_per_shot(), 2),
                TablePrinter::fmt(m.fn_per_shot(), 2),
                TablePrinter::fmt(m.lrc_per_shot(), 1)});
}

}  // namespace

int
main()
try {
    banner("Ablation - offline model design choices",
           "theta / persistence prior / prior tails / event order, "
           "surface d=7");

    auto bundle = surface(7);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);

    std::printf("Labeling threshold theta (W_L > theta * W_NL):\n");
    TablePrinter t1({"theta", "flagged(bulk)", "FP/shot", "FN/shot",
                     "LRC/shot"});
    for (double theta : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        SpecModelOptions opt;
        opt.threshold = theta;
        run_point(*bundle, np, opt, TablePrinter::fmt(theta, 2), &t1);
    }
    t1.print();

    std::printf("\nPersistence prior (expected leaked lifetime, rounds):\n");
    TablePrinter t2({"lifetime", "flagged(bulk)", "FP/shot", "FN/shot",
                     "LRC/shot"});
    for (double life : {0.5, 2.0, 10.0, 50.0}) {
        SpecModelOptions opt;
        opt.persist_lifetime = life;
        run_point(*bundle, np, opt, TablePrinter::fmt(life, 1), &t2);
    }
    t2.print();

    std::printf("\nPrior-round Pauli tails in the single-round graph:\n");
    TablePrinter t3({"tails", "flagged(bulk)", "FP/shot", "FN/shot",
                     "LRC/shot"});
    for (bool tails : {false, true}) {
        SpecModelOptions opt;
        opt.include_prior_tails = tails;
        run_point(*bundle, np, opt, tails ? "on" : "off", &t3);
    }
    t3.print();

    std::printf("\nEvent-order cutoff (1st only vs 1st+2nd):\n");
    TablePrinter t4({"max order", "flagged(bulk)", "FP/shot", "FN/shot",
                     "LRC/shot"});
    for (int order : {1, 2}) {
        SpecModelOptions opt;
        opt.max_order = order;
        run_point(*bundle, np, opt, std::to_string(order), &t4);
    }
    t4.print();

    std::printf("\nReading: theta and the persistence prior trade FP vs FN "
                "around the default operating point; second-order events "
                "protect frequent two-error patterns from being flagged.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("ablation_model", e);
}
