// The production DemBuilder (one backward pass over the round, tiled
// layer edges) against the propagate-and-hash reference builder: same
// template faults, same edge multiset, same dropped count, all bit for
// bit — and the production edges in canonical (u, v) order, boundary
// last.  Surface codes at four distances, the color code and a qLDPC
// (bivariate-polynomial) code, each at 1, 2, 3 and 10 rounds, so layer 0,
// the bulk tile and the final layer meet in every combination.
//
// The same configs also hold the tiled graph to itself stored flat: the
// graph DemBuilder hands over as three tiles, rebuilt as one segment of
// one layer from its edges() view, must give every node the same
// incident edge ids and arc codes (global far ends) and the same
// potential.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "codes/bpc_code.h"
#include "codes/color_code.h"
#include "codes/surface_code.h"
#include "decode/dem_builder.h"
#include "reference_dem.h"

namespace gld {
namespace {

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** (u, v) with the boundary after every node: the canonical edge key. */
std::tuple<int, int64_t>
edge_key(const GraphEdge& e)
{
    return {e.u, e.v == GraphEdge::kBoundary ? INT64_MAX : e.v};
}

struct CodeCase {
    std::string name;
    CssCode (*make)();
};

const CodeCase kCodes[] = {
    {"surface d=3", [] { return SurfaceCode::make(3); }},
    {"surface d=5", [] { return SurfaceCode::make(5); }},
    {"surface d=7", [] { return SurfaceCode::make(7); }},
    {"surface d=11", [] { return SurfaceCode::make(11); }},
    {"color d=5", [] { return ColorCode::make(5); }},
    {"bpc default", [] { return BpcCode::make_default(); }},
};

TEST(DemEquivalence, MatchesTheReferenceBuilderBitForBit)
{
    const NoiseParams np = NoiseParams::standard(3e-3, 0.1);
    for (const CodeCase& cc : kCodes) {
        const CssCode code = cc.make();
        const RoundCircuit rc(code);
        for (const int rounds : {1, 2, 3, 10}) {
            SCOPED_TRACE(cc.name + ", rounds=" + std::to_string(rounds));
            testing_ref::ReferenceDemBuilder ref(code, rc, np, rounds);
            DemBuilder dem(code, rc, np, rounds);
            ASSERT_EQ(dem.n_nodes(), ref.n_nodes());

            const auto& want = ref.template_faults();
            const auto& got = dem.template_faults();
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].dets, want[i].dets) << "fault " << i;
                EXPECT_EQ(got[i].logical, want[i].logical) << "fault " << i;
                EXPECT_EQ(bits(got[i].prob), bits(want[i].prob))
                    << "fault " << i;
            }

            std::vector<GraphEdge> want_edges = ref.build_edges();
            const DecodingGraph g = dem.build();
            EXPECT_EQ(dem.dropped_hyperedges(), ref.dropped_hyperedges());
            const std::vector<GraphEdge> edges(g.edges().begin(),
                                               g.edges().end());
            for (size_t i = 1; i < edges.size(); ++i) {
                ASSERT_LT(edge_key(edges[i - 1]), edge_key(edges[i]))
                    << "edges " << i - 1 << " and " << i
                    << " out of canonical order";
            }
            // Both sides hold each (u, v) once, so sorting the
            // reference's edges must give exactly the production list.
            std::sort(want_edges.begin(), want_edges.end(),
                      [](const GraphEdge& a, const GraphEdge& b) {
                          return edge_key(a) < edge_key(b);
                      });
            ASSERT_EQ(edges.size(), want_edges.size());
            for (size_t i = 0; i < edges.size(); ++i) {
                EXPECT_EQ(edges[i].u, want_edges[i].u) << "edge " << i;
                EXPECT_EQ(edges[i].v, want_edges[i].v) << "edge " << i;
                EXPECT_EQ(edges[i].logical, want_edges[i].logical)
                    << "edge " << i;
                EXPECT_EQ(bits(edges[i].prob), bits(want_edges[i].prob))
                    << "edge " << i;
            }
        }
    }
}

TEST(DemEquivalence, TiledGraphMatchesItsOneSegmentCopy)
{
    const NoiseParams np = NoiseParams::standard(3e-3, 0.1);
    for (const CodeCase& cc : kCodes) {
        const CssCode code = cc.make();
        const RoundCircuit rc(code);
        for (const int rounds : {1, 2, 3, 10}) {
            SCOPED_TRACE(cc.name + ", rounds=" + std::to_string(rounds));
            const DecodingGraph tiled =
                DemBuilder(code, rc, np, rounds).build();
            const DecodingGraph flat(
                tiled.n_nodes(),
                std::vector<GraphEdge>(tiled.edges().begin(),
                                       tiled.edges().end()));
            ASSERT_EQ(tiled.n_nodes(), flat.n_nodes());
            ASSERT_EQ(tiled.edges().size(), flat.edges().size());
            EXPECT_LE(tiled.stored_edges(), flat.stored_edges());
            EXPECT_EQ(tiled.potential(), flat.potential());
            for (int v = 0; v < tiled.n_nodes(); ++v) {
                const std::vector<DecodingGraph::Arc> want =
                    flat.incidence(v);
                const std::vector<DecodingGraph::Arc> got =
                    tiled.incidence(v);
                ASSERT_EQ(got.size(), want.size()) << "node " << v;
                for (size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].edge, want[i].edge)
                        << "node " << v << " entry " << i;
                    EXPECT_EQ(got[i].code, want[i].code)
                        << "node " << v << " entry " << i;
                }
            }
        }
    }
}

}  // namespace
}  // namespace gld
