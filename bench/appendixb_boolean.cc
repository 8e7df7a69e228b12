// Appendix B: minimized Boolean leakage-detection patterns.  Regenerates
// the DNF expressions for the surface-code 5-bit checker, the color code
// (3-bit + tag), the BPC code (7-bit tagged), and the color code with
// GLADIATOR-D, using the index-tagging + Quine-McCluskey methodology of
// Appendix B.1.

#include "bench_common.h"
#include "core/pattern_table.h"
#include "core/qm_minimizer.h"
#include "hw/lut_model.h"
#include "util/prefix_code.h"

using namespace gld;
using namespace gld::bench;

namespace {

void
emit(const std::string& title, const CodeBundle& bundle,
     const NoiseParams& np, bool two_round)
{
    const PatternTableSet tables =
        PatternTableSet::build(bundle.ctx, np, {}, two_round);
    const int max_bits =
        two_round ? 2 * bundle.ctx.max_degree() : bundle.ctx.max_degree();
    PrefixTagCodec codec(max_bits);
    std::vector<uint32_t> onset, dontcare;
    std::vector<uint8_t> used(1u << codec.tagged_bits(), 0);
    int flagged = 0, total = 0;
    for (int c = 0; c < bundle.ctx.n_classes(); ++c) {
        const int k = tables.bits(c);
        for (uint32_t pat = 0; pat < (1u << k); ++pat) {
            const uint32_t tagged = codec.encode(pat, k);
            if (used[tagged])
                continue;
            used[tagged] = 1;
            ++total;
            if (tables.is_leak(c, pat)) {
                onset.push_back(tagged);
                ++flagged;
            }
        }
    }
    for (uint32_t x = 0; x < (1u << codec.tagged_bits()); ++x) {
        if (!used[x])
            dontcare.push_back(x);
    }
    const auto cubes =
        QmMinimizer::minimize(codec.tagged_bits(), onset, dontcare);
    std::printf("-- %s --\n", title.c_str());
    std::printf("flagged %d of %d tagged patterns; %zu product terms; "
                "%d LUT6s\n",
                flagged, total, cubes.size(),
                LutModel::dnf_luts(cubes, codec.tagged_bits()));
    std::printf("%s\n\n",
                QmMinimizer::to_string(cubes, codec.tagged_bits()).c_str());
}

}  // namespace

int
main()
try {
    banner("Appendix B - Boolean patterns for leakage detection",
           "minimized DNF for surface / color / BPC / color+GLADIATOR-D");

    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    {
        auto b = surface(5);
        emit("Surface code, 5-bit tagged checker (Sec. 4.4)", *b, np, false);
    }
    {
        auto b = color(5);
        emit("Color code, 4-bit tagged checker (Appendix B.3)", *b, np,
             false);
    }
    {
        CodeBundle b(BpcCode::make_default());
        emit("BPC code, 7-bit tagged checker (Appendix B.2)", b, np, false);
    }
    {
        auto b = color(5);
        emit("Color code + GLADIATOR-D, two-round checker (Appendix B.4)",
             *b, np, true);
    }
    std::printf("Note: expressions differ in detail from the paper's "
                "(schedule- and calibration-dependent) but share the "
                "structure: small DNFs excluding weight-1 and "
                "consecutive-suffix patterns.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("appendixb_boolean", e);
}
