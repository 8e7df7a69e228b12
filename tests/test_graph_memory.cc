// Decode memory at the paper's scale (Fig 14: surface d = 17, 1,700
// rounds): building the decoding graph and one union-find decoder, then
// decoding a few syndromes, must raise the process's peak resident set
// (VmHWM) by less than 15 MB.  A graph that stored every layer's edges
// and CSR, or a decoder with 48-byte nodes, needs about 71 MB here.
//
// Its own executable, so the high-water mark starts from a fresh
// process.  Skipped under ASan and TSan (their shadow memory inflates
// RSS) and where /proc/self/status has no VmHWM line.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "codes/surface_code.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GLD_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GLD_SHADOW_MEMORY 1
#endif
#endif

namespace gld {
namespace {

/** VmHWM of this process in kB, or -1 where it cannot be read. */
long
vm_hwm_kb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

TEST(GraphMemory, PaperScaleGraphAndDecoderStayUnder15MB)
{
#ifdef GLD_SHADOW_MEMORY
    GTEST_SKIP() << "ASan/TSan shadow memory inflates the resident set";
#endif
    const CssCode code = SurfaceCode::make(17);
    const RoundCircuit rc(code);
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const long before = vm_hwm_kb();
    if (before < 0)
        GTEST_SKIP() << "no VmHWM line in /proc/self/status";

    DemBuilder dem(code, rc, np, 1700);
    const DecodingGraph graph = dem.build();
    ASSERT_EQ(graph.n_nodes(), 1701 * 144);
    UnionFindDecoder decoder(graph);

    // Syndromes of i.i.d. graph faults at the edges' own probabilities
    // (about 5,000 defects each): clusters of the runner's shapes.
    Rng rng(17);
    std::vector<uint8_t> syndrome(static_cast<size_t>(graph.n_nodes()));
    for (int shot = 0; shot < 3; ++shot) {
        std::fill(syndrome.begin(), syndrome.end(), 0);
        int flips = 0;
        for (const GraphEdge& e : graph.edges()) {
            if (!rng.bernoulli(e.prob))
                continue;
            ++flips;
            syndrome[static_cast<size_t>(e.u)] ^= 1;
            if (e.v != GraphEdge::kBoundary)
                syndrome[static_cast<size_t>(e.v)] ^= 1;
        }
        ASSERT_GT(flips, 1000);
        decoder.decode(syndrome);
        EXPECT_EQ(decoder.last_residual(), 0) << "shot " << shot;
    }

    const long rise_kb = vm_hwm_kb() - before;
    RecordProperty("vm_hwm_rise_kb", std::to_string(rise_kb));
    EXPECT_LT(rise_kb, 15 * 1024)
        << "VmHWM rose by " << rise_kb / 1024.0 << " MB";
}

}  // namespace
}  // namespace gld
