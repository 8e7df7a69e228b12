#include "decode/union_find.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "codes/bpc_code.h"
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
    const GraphEdge& e = g.edges()[0];
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

    const GraphEdge& e = g.edges()[0];
    std::vector<uint8_t> syndrome(n, 0);
    syndrome[e.u] = 1;
    if (e.v != GraphEdge::kBoundary)
        syndrome[e.v] = 1;
    EXPECT_EQ(uf.decode(syndrome), e.logical);
    EXPECT_EQ(uf.last_residual(), 0);
}

TEST(UnionFindDecoder, StalledClusterWithoutBoundaryTerminates)
{
    // No boundary edges: a triangle (0, 1, 2), a separate edge (3, 4) and
    // an isolated node 5.  An odd cluster on the triangle grows over its
    // whole component and can still never pair up; it stalls, and the
    // peel leaves its defect as residual.  Decoding never loops.
    const DecodingGraph g(6, {{0, 1, false, 0.1},
                              {1, 2, true, 0.1},
                              {0, 2, true, 0.1},
                              {3, 4, true, 0.1}});
    ASSERT_FALSE(g.potential().empty());
    UnionFindDecoder uf(g);
    EXPECT_FALSE(uf.decode_defects({0}));
    EXPECT_EQ(uf.last_residual(), 1);
    // A settled cluster beside the stalled one still gets its parity.
    EXPECT_TRUE(uf.decode_defects({0, 3, 4}));
    EXPECT_EQ(uf.last_residual(), 1);
    EXPECT_FALSE(uf.decode_defects({5}));
    EXPECT_EQ(uf.last_residual(), 1);
    // Pairs (0, 2) and (3, 4) each flip the logical; 5 stalls.
    EXPECT_FALSE(uf.decode_defects({0, 2, 3, 4, 5}));
    EXPECT_EQ(uf.last_residual(), 1);
    EXPECT_TRUE(uf.decode_defects({1, 2}));  // even: settles, no stall
    EXPECT_EQ(uf.last_residual(), 0);

    // The same stall on a graph without a potential (odd-logical cycle).
    const DecodingGraph odd(3, {{0, 1, true, 0.1},
                                {1, 2, false, 0.1},
                                {0, 2, false, 0.1}});
    ASSERT_TRUE(odd.potential().empty());
    UnionFindDecoder uf_odd(odd);
    // The peel roots the tree at node 0 (the first grown edge's first
    // end) and moves the defect there over the logical edge (0, 1).
    EXPECT_TRUE(uf_odd.decode_defects({1}));
    EXPECT_EQ(uf_odd.last_residual(), 1);
}

TEST(UnionFindDecoder, BoundarylessBpcGraphTerminates)
{
    // The default BPC code's graph has no boundary edges, so a single
    // defect is a cluster that can never settle.
    const CssCode code = BpcCode::make_default();
    const RoundCircuit rc(code);
    const DecodingGraph g =
        DemBuilder(code, rc, NoiseParams::standard(), 5).build();
    for (const GraphEdge& e : g.edges())
        ASSERT_NE(e.v, GraphEdge::kBoundary);
    UnionFindDecoder uf(g);
    uf.decode_defects({0});
    EXPECT_EQ(uf.last_residual(), 1);
}

TEST(DecodingGraph, SurfaceCodePotentialSatisfiesEveryEdge)
{
    for (int d : {3, 5, 7}) {
        const CssCode code = SurfaceCode::make(d);
        const RoundCircuit rc(code);
        const DecodingGraph g =
            DemBuilder(code, rc, NoiseParams::standard(), d).build();
        const std::vector<uint8_t>& phi = g.potential();
        ASSERT_EQ(phi.size(), static_cast<size_t>(g.n_nodes())) << "d=" << d;
        for (uint8_t p : phi)
            ASSERT_LE(p, 1);
        for (const GraphEdge& e : g.edges()) {
            if (e.v == GraphEdge::kBoundary)
                continue;
            EXPECT_EQ(phi[static_cast<size_t>(e.u)] ^
                          phi[static_cast<size_t>(e.v)],
                      static_cast<int>(e.logical))
                << "d=" << d << " edge " << e.u << "-" << e.v;
        }
    }
}

TEST(DecodingGraph, OddLogicalCycleHasNoPotential)
{
    // Boundary edges never constrain phi; one odd-logical cycle rules it
    // out even when another component is consistent.
    const DecodingGraph ok(4, {{0, 1, true, 0.1},
                               {1, 2, true, 0.1},
                               {0, 2, false, 0.1},
                               {0, GraphEdge::kBoundary, true, 0.1},
                               {2, GraphEdge::kBoundary, false, 0.1}});
    ASSERT_EQ(ok.potential().size(), 4u);
    EXPECT_EQ(ok.potential()[0], 0);
    EXPECT_EQ(ok.potential()[1], 1);
    EXPECT_EQ(ok.potential()[2], 0);
    const DecodingGraph bad(5, {{0, 1, true, 0.1},
                                {3, 4, false, 0.1},
                                {2, 3, true, 0.1},
                                {2, 4, false, 0.1}});
    EXPECT_TRUE(bad.potential().empty());
}

}  // namespace
}  // namespace gld
