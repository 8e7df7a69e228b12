#include "decode/union_find.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "codes/surface_code.h"
#include "decode/dem_builder.h"
#include "util/rng.h"

namespace gld {
namespace {

TEST(UnionFindDecoder, EmptySyndromeIsTrivial)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    EXPECT_FALSE(uf.decode(syndrome));
    EXPECT_EQ(uf.last_residual(), 0);
}

class SingleFaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(SingleFaultSweep, EverySingleGraphFaultDecodesCorrectly)
{
    // The defining property of a distance-respecting decoder: for every
    // edge in the detector error model (a single fault), decoding that
    // fault's syndrome must reproduce its logical flip.
    const int d = GetParam();
    const CssCode code = SurfaceCode::make(d);
    const RoundCircuit rc(code);
    const int rounds = d;
    DemBuilder dem(code, rc, NoiseParams::standard(), rounds);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    for (const GraphEdge& e : g.edges()) {
        syndrome[e.u] ^= 1;
        if (e.v != GraphEdge::kBoundary)
            syndrome[e.v] ^= 1;
        const bool predicted = uf.decode(syndrome);
        EXPECT_EQ(predicted, e.logical)
            << "edge " << e.u << "-" << e.v;
        EXPECT_EQ(uf.last_residual(), 0);
        syndrome[e.u] ^= 1;
        if (e.v != GraphEdge::kBoundary)
            syndrome[e.v] ^= 1;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SingleFaultSweep,
                         ::testing::Values(3, 5));

TEST(UnionFindDecoder, RandomPairsOfFaultsMostlyDecode)
{
    // Weight-2 errors are correctable at d = 5 by a matching decoder; UF
    // with unweighted growth should succeed on the vast majority.
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 5);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(31);
    const auto& edges = g.edges();
    int ok = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        bool logical = false;
        for (int j = 0; j < 2; ++j) {
            const GraphEdge& e =
                edges[rng.uniform_int(static_cast<uint32_t>(edges.size()))];
            syndrome[e.u] ^= 1;
            if (e.v != GraphEdge::kBoundary)
                syndrome[e.v] ^= 1;
            logical ^= e.logical;
        }
        ok += uf.decode(syndrome) == logical;
    }
    EXPECT_GT(ok, trials * 95 / 100);
}

TEST(UnionFindDecoder, ResidualIsZeroOnRandomSyndromes)
{
    // Whatever the syndrome, peeling must consume every defect (boundary
    // absorbs odd clusters).
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    Rng rng(8);
    for (int t = 0; t < 100; ++t) {
        std::vector<uint8_t> syndrome(g.n_nodes(), 0);
        for (int v = 0; v < g.n_nodes(); ++v)
            syndrome[v] = rng.bernoulli(0.05);
        uf.decode(syndrome);
        EXPECT_EQ(uf.last_residual(), 0);
    }
}

TEST(UnionFindDecoder, ReusableAcrossCalls)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    const GraphEdge& e = g.edges().front();
    std::vector<uint8_t> syndrome(g.n_nodes(), 0);
    syndrome[e.u] ^= 1;
    if (e.v != GraphEdge::kBoundary)
        syndrome[e.v] ^= 1;
    const bool first = uf.decode(syndrome);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(uf.decode(syndrome), first);
}

TEST(UnionFindDecoder, RejectsMalformedInput)
{
    // A short syndrome used to be read out of bounds in release builds
    // (the length check was an assert); both entry points now throw
    // before touching any state, and the decoder stays usable.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    UnionFindDecoder uf(g);
    const int n = g.n_nodes();
    EXPECT_THROW(uf.decode(std::vector<uint8_t>(n - 1, 0)),
                 std::invalid_argument);
    EXPECT_THROW(uf.decode(std::vector<uint8_t>(n + 1, 0)),
                 std::invalid_argument);
    EXPECT_THROW(uf.decode_defects({n}), std::invalid_argument);
    EXPECT_THROW(uf.decode_defects({-1}), std::invalid_argument);
    EXPECT_THROW(uf.decode_defects({3, 2}), std::invalid_argument);
    EXPECT_THROW(uf.decode_defects({2, 2}), std::invalid_argument);

    const GraphEdge& e = g.edges().front();
    std::vector<uint8_t> syndrome(n, 0);
    syndrome[e.u] = 1;
    if (e.v != GraphEdge::kBoundary)
        syndrome[e.v] = 1;
    EXPECT_EQ(uf.decode(syndrome), e.logical);
    EXPECT_EQ(uf.last_residual(), 0);
}

}  // namespace
}  // namespace gld
