#include "decode/dem_builder.h"

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codes/surface_code.h"

namespace gld {
namespace {

TEST(DemBuilder, NodeLayout)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 5);
    EXPECT_EQ(dem.nz(), 4);             // (d^2-1)/2 Z checks
    EXPECT_EQ(dem.n_nodes(), 6 * 4);    // 5 syndrome layers + final
    EXPECT_EQ(dem.node_id(2, 3), 11);
}

TEST(DemBuilder, TemplateFaultsAreGraphlike)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    int hyper = 0;
    for (const auto& tf : dem.template_faults()) {
        EXPECT_LE(tf.dets.size(), 6u);
        for (const auto& [layer, zi] : tf.dets) {
            EXPECT_GE(layer, 0);
            EXPECT_LE(layer, 1);
            EXPECT_GE(zi, 0);
            EXPECT_LT(zi, dem.nz());
        }
        hyper += tf.dets.size() > 2;
    }
    // Hooks exist but are a small minority of fault locations.
    EXPECT_LT(hyper, static_cast<int>(dem.template_faults().size()) / 4);
}

TEST(DemBuilder, DataXFaultFootprint)
{
    // A round-start X fault on a bulk data qubit flips its adjacent
    // Z checks across layers r/r+1 with total multiplicity 2.
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    // The first 3 template faults are X/Z/Y on data qubit 0 at round start.
    const auto& faults = dem.template_faults();
    const auto& x0 = faults[0];
    // Data qubit 0 is a corner: exactly one adjacent Z check -> the X
    // fault flips that column once across the two layers (boundary edge).
    size_t nz_flips = x0.dets.size();
    EXPECT_GE(nz_flips, 1u);
    EXPECT_LE(nz_flips, 2u);
}

TEST(DemBuilder, GraphEdgesAreDeduplicatedAndValid)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    EXPECT_GT(static_cast<int>(g.edges().size()), 0);
    std::set<std::pair<int, int>> seen;
    for (const GraphEdge& e : g.edges()) {
        EXPECT_GE(e.u, 0);
        EXPECT_LT(e.u, g.n_nodes());
        if (e.v != GraphEdge::kBoundary) {
            EXPECT_LT(e.v, g.n_nodes());
            EXPECT_LT(e.u, e.v);  // canonical order
        }
        EXPECT_GT(e.prob, 0.0);
        EXPECT_TRUE(seen.insert({e.u, e.v}).second) << "duplicate edge";
    }
}

TEST(DemBuilder, EveryNodeHasEdges)
{
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 6);
    const DecodingGraph g = dem.build();
    for (int v = 0; v < g.n_nodes(); ++v)
        EXPECT_FALSE(g.incidence(v).empty()) << "isolated node " << v;
}

/** Node v's incident edge ids, in incidence order. */
std::vector<int>
edge_ids(const DecodingGraph& g, int v)
{
    std::vector<int> ids;
    for (const DecodingGraph::Arc& a : g.incidence(v))
        ids.push_back(a.edge);
    return ids;
}

/** Node v's global arc codes, in incidence order. */
std::vector<int>
codes(const DecodingGraph& g, int v)
{
    std::vector<int> out;
    for (const DecodingGraph::Arc& a : g.incidence(v))
        out.push_back(a.code);
    return out;
}

TEST(DecodingGraph, IncidenceIsInEdgeOrderAndRejectsBadEndpoints)
{
    // Boundary edges appear at u only; each node lists its edges in
    // ascending edge id.
    const DecodingGraph g(3, {{0, 1, false, 0.1},
                              {1, GraphEdge::kBoundary, true, 0.1},
                              {1, 2, false, 0.1}});
    EXPECT_EQ(edge_ids(g, 0), std::vector<int>({0}));
    EXPECT_EQ(edge_ids(g, 1), std::vector<int>({0, 1, 2}));
    EXPECT_EQ(edge_ids(g, 2), std::vector<int>({2}));
    EXPECT_EQ(g.width(), 3);
    EXPECT_EQ(g.stored_edges(), 3u);
    EXPECT_THROW(DecodingGraph(3, {{0, 3, false, 0.1}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph(3, {{-1, 2, false, 0.1}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph(DecodingGraph::kMaxNodes + 1,
                               std::vector<GraphEdge>{}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph(-1, std::vector<GraphEdge>{}),
                 std::invalid_argument);
}

TEST(DecodingGraph, ArcCodesEncodeFarEndOrLogical)
{
    // An inner arc reads (far << 1) | (this node is v); a boundary arc
    // reads ~logical, with or without a potential (the decoder adds
    // phi of its node).  A self-loop lists itself twice at its node.
    const DecodingGraph g(3, {{0, 1, false, 0.1},
                              {1, GraphEdge::kBoundary, true, 0.1},
                              {1, 2, false, 0.1},
                              {2, 2, false, 0.1}});
    EXPECT_EQ(codes(g, 0), std::vector<int>({1 << 1}));
    EXPECT_EQ(codes(g, 1), std::vector<int>({(0 << 1) | 1, ~1, 2 << 1}));
    EXPECT_EQ(codes(g, 2),
              std::vector<int>({(1 << 1) | 1, 2 << 1, (2 << 1) | 1}));
    const DecodingGraph odd(2, {{0, 1, true, 0.1},
                                {0, 1, false, 0.1},
                                {1, GraphEdge::kBoundary, true, 0.1},
                                {0, GraphEdge::kBoundary, false, 0.1}});
    ASSERT_TRUE(odd.potential().empty());
    EXPECT_EQ(codes(odd, 1)[2], ~1);
    EXPECT_EQ(codes(odd, 0)[2], ~0);
}

TEST(DecodingGraph, LayeredSegmentsMapIdsByArithmetic)
{
    // Width 2, layers [A x1, B x2, C x1]: tile endpoints are relative to
    // the tile's layer, [2, 4) reaching into the next one.
    const int b = GraphEdge::kBoundary;
    const DecodingGraph g = DecodingGraph::layered(
        2, {{{{0, 2, false, 0.1}, {1, b, true, 0.2}}, 1},
            {{{0, 1, true, 0.3}, {0, 2, false, 0.4}, {1, 3, false, 0.5}},
             2},
            {{{0, 1, true, 0.6}}, 1}});
    EXPECT_EQ(g.n_nodes(), 8);
    EXPECT_EQ(g.width(), 2);
    EXPECT_EQ(g.stored_edges(), 6u);
    const std::vector<GraphEdge> want{
        {0, 2, false, 0.1}, {1, b, true, 0.2},   // layer 0
        {2, 3, true, 0.3},  {2, 4, false, 0.4},  // layer 1
        {3, 5, false, 0.5}, {4, 5, true, 0.3},   // layer 1, layer 2
        {4, 6, false, 0.4}, {5, 7, false, 0.5},  // layer 2
        {6, 7, true, 0.6}};                      // layer 3
    const DecodingGraph::EdgeView edges = g.edges();
    ASSERT_EQ(edges.size(), want.size());
    size_t i = 0;
    for (const GraphEdge& e : edges) {
        EXPECT_EQ(e.u, want[i].u) << "edge " << i;
        EXPECT_EQ(e.v, want[i].v) << "edge " << i;
        EXPECT_EQ(e.logical, want[i].logical) << "edge " << i;
        EXPECT_EQ(e.prob, want[i].prob) << "edge " << i;
        EXPECT_EQ(edges[i].u, want[i].u) << "edge " << i;
        ++i;
    }
    // Node 4 = (2, 0): edge 3 from the tile below, then 5 and 6 of its
    // own; node 2 = (1, 0): edge 0 from layer 0's tile, then 2 and 3.
    EXPECT_EQ(edge_ids(g, 4), std::vector<int>({3, 5, 6}));
    EXPECT_EQ(codes(g, 4), std::vector<int>({(2 << 1) | 1, 5 << 1, 6 << 1}));
    EXPECT_EQ(edge_ids(g, 2), std::vector<int>({0, 2, 3}));
    EXPECT_EQ(edge_ids(g, 7), std::vector<int>({7, 8}));
    // Layer 2's kind (bulk over bulk) is based at the layer below: node
    // (2, 0)'s arcs read edge 3 as 1 after edge_base 2, far end 5 as 3
    // after node_base 2.  Layer 0's kind has no tile below.
    const DecodingGraph::ArcSlice s2 = g.node_arcs(g.kind_of(2), 2, 0);
    EXPECT_EQ(s2.layer, 1);
    EXPECT_EQ(s2.node_base, 2);
    EXPECT_EQ(s2.edge_base, 2);
    ASSERT_EQ(s2.size(), 3);
    EXPECT_EQ(s2.first[0].edge, 1);
    EXPECT_EQ(s2.first[1].code, 3 << 1);
    const DecodingGraph::ArcSlice s0 = g.node_arcs(g.kind_of(0), 0, 1);
    EXPECT_EQ(s0.layer, 0);
    EXPECT_EQ(s0.node_base, 0);
    EXPECT_EQ(s0.edge_base, 0);
    ASSERT_EQ(s0.size(), 1);
    EXPECT_EQ(s0.first[0].code, ~1);
    // Kinds: layer 0 (A), 1 (B over A), 2 (B over B), 3 (C over B).
    EXPECT_EQ(g.kind_of(0), 0);
    EXPECT_EQ(g.kind_of(1), 1);
    EXPECT_EQ(g.kind_of(2), 2);
    EXPECT_EQ(g.kind_of(3), 3);
    EXPECT_EQ(g.near_kind(2, 3), 3);
    EXPECT_EQ(g.near_kind(1, 0), 0);
    EXPECT_EQ(g.near_kind(2, 2), 2);
    EXPECT_EQ(g.node_arcs(g.kind_of(3), 3, 1).size(), 2);
    EXPECT_EQ(g.node_arcs(g.kind_of(0), 0, 0).size(), 1);
    // Potential: the logical inner edges (2, 3), (4, 5) and (6, 7) flip
    // it; node 1 has only a boundary edge and is its own component.
    EXPECT_EQ(g.potential(),
              std::vector<uint8_t>({0, 0, 0, 1, 0, 1, 0, 1}));
}

TEST(DecodingGraph, LayeredRejectsBadSegments)
{
    const int b = GraphEdge::kBoundary;
    // No layer above the last segment's last layer.
    EXPECT_THROW(DecodingGraph::layered(2, {{{{0, 2, false, 0.1}}, 1}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph::layered(
                     2, {{{{0, 4, false, 0.1}}, 1}, {{{0, b, false, 0.1}}, 1}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph::layered(2, {{{{0, b, false, 0.1}}, 0}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph::layered(-1, {}), std::invalid_argument);
    // Counts pass the limits: thrown before anything is allocated.
    EXPECT_THROW(DecodingGraph::layered(
                     1000, {{{{0, 1000, false, 0.1}}, 2000000},
                            {{{0, b, false, 0.1}}, 1}}),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph::layered(
                     1, std::vector<DecodingGraph::Segment>(
                            DecodingGraph::kMaxSegments + 1, {{}, 1})),
                 std::invalid_argument);
    EXPECT_THROW(DecodingGraph::layered(DecodingGraph::kMaxLayeredWidth + 1,
                                        {{{}, 2}}),
                 std::invalid_argument);
    std::vector<GraphEdge> wide(2000, {0, 1, false, 0.1});
    EXPECT_THROW(
        DecodingGraph::layered(2, {{wide, 2000000}, {{{0, b, false, 0.1}}, 1}}),
        std::invalid_argument);
}

/** Whether constructing and building a DemBuilder at `rounds` throws
 *  std::invalid_argument naming rounds. */
bool
throws_naming_rounds(const CssCode& code, const RoundCircuit& rc,
                     int rounds)
{
    try {
        DemBuilder dem(code, rc, NoiseParams::standard(), rounds);
        const DecodingGraph g = dem.build();
    } catch (const std::invalid_argument& e) {
        return std::string(e.what()).find("rounds = " +
                                          std::to_string(rounds)) !=
               std::string::npos;
    }
    return false;
}

TEST(DemBuilder, HugeRoundCountsThrowBeforeAllocating)
{
    // d = 11 has 60 Z columns: 36,000,000 rounds is 2.16e9 nodes, past
    // both kMaxNodes and int; 10,000,000 rounds fits the nodes (6e8)
    // but not the int edge-id range (over 300 edges per bulk layer), so
    // build() must refuse it from the tile sizes alone.
    const CssCode code = SurfaceCode::make(11);
    const RoundCircuit rc(code);
    EXPECT_TRUE(throws_naming_rounds(code, rc, 36000000));
    EXPECT_TRUE(throws_naming_rounds(code, rc, INT_MAX));
    EXPECT_TRUE(throws_naming_rounds(code, rc, 10000000));
    EXPECT_TRUE(throws_naming_rounds(code, rc, -1));
    // The largest round count whose nodes fit constructs fine.
    const int fit = DecodingGraph::kMaxNodes / 60 - 1;
    DemBuilder dem(code, rc, NoiseParams::standard(), fit);
    EXPECT_EQ(dem.n_nodes(), (fit + 1) * 60);
}

TEST(DemBuilder, TimeEdgesFromMeasurementFlips)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 4);
    const DecodingGraph g = dem.build();
    // Every Z column must have a time-like edge (r, zi)-(r+1, zi).
    for (int zi = 0; zi < dem.nz(); ++zi) {
        bool found = false;
        for (const GraphEdge& e : g.edges()) {
            if (e.u == dem.node_id(1, zi) && e.v == dem.node_id(2, zi))
                found = true;
        }
        EXPECT_TRUE(found) << "no time edge for column " << zi;
    }
}

TEST(DemBuilder, LogicalEdgesExist)
{
    const CssCode code = SurfaceCode::make(3);
    const RoundCircuit rc(code);
    DemBuilder dem(code, rc, NoiseParams::standard(), 3);
    const DecodingGraph g = dem.build();
    int logical_edges = 0;
    for (const GraphEdge& e : g.edges())
        logical_edges += e.logical;
    // X faults on the logical-Z row produce logical boundary edges.
    EXPECT_GT(logical_edges, 0);
}

}  // namespace
}  // namespace gld
