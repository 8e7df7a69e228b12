#include "decode/decoding_graph.h"

#include <cassert>
#include <climits>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace gld {

DecodingGraph::DecodingGraph(int n_nodes, std::vector<GraphEdge> edges)
    : DecodingGraph(Layered{}, n_nodes, [&] {
          if (n_nodes < 0 || n_nodes > kMaxNodes)
              throw std::invalid_argument(
                  "DecodingGraph: node count " + std::to_string(n_nodes) +
                  " outside [0, " + std::to_string(kMaxNodes) + "]");
          std::vector<Segment> one;
          one.push_back({std::move(edges), 1});
          return one;
      }())
{
}

DecodingGraph
DecodingGraph::layered(int width, std::vector<Segment> segments)
{
    return DecodingGraph(Layered{}, width, std::move(segments));
}

DecodingGraph::DecodingGraph(Layered, int width,
                             std::vector<Segment> segments)
    : width_(width)
{
    // Counts in 64 bits before anything is allocated.
    if (width < 0)
        throw std::invalid_argument("DecodingGraph: layer width " +
                                    std::to_string(width) + " is negative");
    if (segments.size() > static_cast<size_t>(kMaxSegments))
        throw std::invalid_argument(
            "DecodingGraph: " + std::to_string(segments.size()) +
            " segments, more than " + std::to_string(kMaxSegments));
    long long layers = 0;
    long long edges = 0;
    for (const Segment& s : segments) {
        if (s.layers < 1)
            throw std::invalid_argument(
                "DecodingGraph: a segment covers " +
                std::to_string(s.layers) + " layers, fewer than one");
        layers += s.layers;
        edges += static_cast<long long>(s.layers) *
                 static_cast<long long>(s.tile.size());
    }
    const long long nodes = layers * width;
    if (nodes > kMaxNodes)
        throw std::invalid_argument(
            "DecodingGraph: " + std::to_string(nodes) +
            " nodes, more than " + std::to_string(kMaxNodes));
    if (edges > INT_MAX)
        throw std::invalid_argument(
            "DecodingGraph: " + std::to_string(edges) +
            " edges, more than the int edge-id range");
    if (layers > 1 && width > kMaxLayeredWidth)
        throw std::invalid_argument(
            "DecodingGraph: layer width " + std::to_string(width) +
            " above " + std::to_string(kMaxLayeredWidth) +
            " with more than one layer");
    n_nodes_ = static_cast<int>(nodes);
    n_edges_ = static_cast<int>(edges);

    runs_.resize(segments.size());
    int layer = 0;
    int edge_base = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
        Run& r = runs_[i];
        r.edges = std::move(segments[i].tile);
        r.tile_edges = static_cast<int>(r.edges.size());
        r.first_layer = layer;
        r.end_layer = layer + segments[i].layers;
        r.edge_base = edge_base;
        r.edge_end = edge_base + segments[i].layers * r.tile_edges;
        layer = r.end_layer;
        edge_base = r.edge_end;
        // The last layer of all has no layer above it.
        const int limit = i + 1 == segments.size() ? width : 2 * width;
        auto check = [&](int node, size_t e) {
            if (node < 0 || node >= limit)
                throw std::invalid_argument(
                    "DecodingGraph: edge " + std::to_string(e) +
                    " endpoint " + std::to_string(node) + " outside [0, " +
                    std::to_string(limit) + ")");
        };
        for (size_t e = 0; e < r.edges.size(); ++e) {
            check(r.edges[e].u, e);
            if (r.edges[e].v != GraphEdge::kBoundary)
                check(r.edges[e].v, e);
        }
    }
    // A segment's first layer sees the previous segment's tile below it
    // (none for the first); its other layers see its own.
    std::vector<uint8_t> arc_logical;
    for (size_t i = 0; i < runs_.size(); ++i) {
        const Run& r = runs_[i];
        add_kind(i > 0 ? &runs_[i - 1] : nullptr, r, r.first_layer,
                 r.first_layer + 1, arc_logical);
        if (r.end_layer > r.first_layer + 1)
            add_kind(&r, r, r.first_layer + 1, r.end_layer, arc_logical);
    }
    find_potential(arc_logical);
}

void
DecodingGraph::add_kind(const Run* below, const Run& own, int first_layer,
                        int end_layer, std::vector<uint8_t>& arc_logical)
{
    const int w = width_;
    Kind k{};
    k.first_layer = first_layer;
    k.end_layer = end_layer;
    k.has_below = below != nullptr;
    k.edge_base = below != nullptr
                      ? below->edge_base +
                            (first_layer - 1 - below->first_layer) *
                                below->tile_edges
                      : own.edge_base +
                            (first_layer - own.first_layer) * own.tile_edges;
    k.edge_stride = own.tile_edges;
    kinds_.push_back(k);

    // The entries of local node z: the tile below's at its width + z,
    // then the own tile's at z, each relative to the kind's bases.
    const int own_edge = below != nullptr ? below->tile_edges : 0;
    const int own_node = below != nullptr ? w : 0;
    auto for_each_entry = [&](auto&& visit) {
        if (below != nullptr) {
            for (int e = 0; e < below->tile_edges; ++e) {
                const GraphEdge& ge = below->edges[static_cast<size_t>(e)];
                if (ge.u >= w)
                    visit(ge.u - w, e, ge.v == GraphEdge::kBoundary
                                           ? ~static_cast<int>(ge.logical)
                                           : ge.v << 1,
                          ge.logical);
                if (ge.v != GraphEdge::kBoundary && ge.v >= w)
                    visit(ge.v - w, e, (ge.u << 1) | 1, ge.logical);
            }
        }
        for (int e = 0; e < own.tile_edges; ++e) {
            const GraphEdge& ge = own.edges[static_cast<size_t>(e)];
            if (ge.u < w)
                visit(ge.u, own_edge + e,
                      ge.v == GraphEdge::kBoundary
                          ? ~static_cast<int>(ge.logical)
                          : (own_node + ge.v) << 1,
                      ge.logical);
            if (ge.v != GraphEdge::kBoundary && ge.v < w)
                visit(ge.v, own_edge + e, ((own_node + ge.u) << 1) | 1,
                      ge.logical);
        }
    };
    // Counting pass, prefix sums, then a fill in entry order.
    std::vector<int> fill(static_cast<size_t>(w) + 1, 0);
    for_each_entry([&](int z, int, int, bool) {
        ++fill[static_cast<size_t>(z) + 1];
    });
    degrees_.insert(degrees_.end(), fill.begin() + 1, fill.end());
    fill[0] = static_cast<int>(arcs_.size());
    for (size_t z = 1; z < fill.size(); ++z)
        fill[z] += fill[z - 1];
    offsets_.insert(offsets_.end(), fill.begin(), fill.end());
    arcs_.resize(static_cast<size_t>(fill.back()));
    arc_logical.resize(arcs_.size());
    for_each_entry([&](int z, int edge, int code, bool logical) {
        const size_t at = static_cast<size_t>(fill[static_cast<size_t>(z)]++);
        arcs_[at] = {edge, code};
        arc_logical[at] = logical;
    });
}

size_t
DecodingGraph::stored_edges() const
{
    size_t n = 0;
    for (const Run& r : runs_)
        n += r.edges.size();
    return n;
}

GraphEdge
DecodingGraph::edge(size_t e) const
{
    assert(e < static_cast<size_t>(n_edges_));
    const Run* s = runs_.data();
    while (static_cast<int>(e) >= s->edge_end)
        ++s;
    const int rel = static_cast<int>(e) - s->edge_base;
    const int k = rel / s->tile_edges;
    const GraphEdge& t =
        s->edges[static_cast<size_t>(rel - k * s->tile_edges)];
    const int base = (s->first_layer + k) * width_;
    return {base + t.u, t.v == GraphEdge::kBoundary ? t.v : base + t.v,
            t.logical, t.prob};
}

std::vector<DecodingGraph::Arc>
DecodingGraph::incidence(int v) const
{
    const int layer = v / width_;
    const ArcSlice s = node_arcs(kind_of(layer), layer, v - layer * width_);
    std::vector<Arc> out;
    for (const Arc* a = s.first; a != s.last; ++a)
        out.push_back({s.edge_base + a->edge,
                       a->code < 0 ? a->code
                                   : ((s.node_base + (a->code >> 1)) << 1) |
                                         (a->code & 1)});
    return out;
}

void
DecodingGraph::find_potential(const std::vector<uint8_t>& arc_logical)
{
    // Depth-first over the non-boundary edges, one tree per component;
    // any edge closing an odd-logical cycle rules the potential out.
    constexpr uint8_t kUnset = 2;
    potential_.assign(static_cast<size_t>(n_nodes_), kUnset);
    std::vector<int> stack;
    for (int s = 0; s < n_nodes_; ++s) {
        if (potential_[static_cast<size_t>(s)] != kUnset)
            continue;
        potential_[static_cast<size_t>(s)] = 0;
        stack.push_back(s);
        while (!stack.empty()) {
            const int v = stack.back();
            stack.pop_back();
            const int layer = v / width_;
            const ArcSlice sl =
                node_arcs(kind_of(layer), layer, v - layer * width_);
            for (const Arc* a = sl.first; a != sl.last; ++a) {
                if (a->code < 0)
                    continue;
                const int w = sl.node_base + (a->code >> 1);
                const uint8_t want = static_cast<uint8_t>(
                    potential_[static_cast<size_t>(v)] ^
                    arc_logical[static_cast<size_t>(a - arcs_.data())]);
                uint8_t& phi_w = potential_[static_cast<size_t>(w)];
                if (phi_w == kUnset) {
                    phi_w = want;
                    stack.push_back(w);
                } else if (phi_w != want) {
                    potential_ = {};
                    return;
                }
            }
        }
    }
}

}  // namespace gld
