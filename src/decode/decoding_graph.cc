#include <cstddef>
#include "decode/decoding_graph.h"

#include <stdexcept>
#include <string>

namespace gld {

DecodingGraph::DecodingGraph(int n_nodes, std::vector<GraphEdge> edges)
    : n_nodes_(n_nodes), edges_(std::move(edges))
{
    if (n_nodes_ < 0 || n_nodes_ > kMaxNodes)
        throw std::invalid_argument("DecodingGraph: node count " +
                                    std::to_string(n_nodes_) +
                                    " outside [0, " +
                                    std::to_string(kMaxNodes) + "]");
    auto check = [this](int node, size_t e) {
        if (node < 0 || node >= n_nodes_)
            throw std::invalid_argument(
                "DecodingGraph: edge " + std::to_string(e) + " endpoint " +
                std::to_string(node) + " outside [0, " +
                std::to_string(n_nodes_) + ")");
    };
    // Counting pass, prefix sums, then a fill in edge order — each node's
    // slice lists its edge ids ascending.
    offsets_.assign(static_cast<size_t>(n_nodes_) + 1, 0);
    for (size_t e = 0; e < edges_.size(); ++e) {
        const GraphEdge& ge = edges_[e];
        check(ge.u, e);
        ++offsets_[static_cast<size_t>(ge.u) + 1];
        if (ge.v != GraphEdge::kBoundary) {
            check(ge.v, e);
            ++offsets_[static_cast<size_t>(ge.v) + 1];
        }
    }
    for (size_t v = 0; v < static_cast<size_t>(n_nodes_); ++v)
        offsets_[v + 1] += offsets_[v];
    incidence_.resize(static_cast<size_t>(offsets_.back()));
    std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t e = 0; e < edges_.size(); ++e) {
        const GraphEdge& ge = edges_[e];
        incidence_[static_cast<size_t>(fill[static_cast<size_t>(ge.u)]++)] =
            static_cast<int>(e);
        if (ge.v != GraphEdge::kBoundary)
            incidence_[static_cast<size_t>(
                fill[static_cast<size_t>(ge.v)]++)] = static_cast<int>(e);
    }
    find_potential();
    encode_arcs();
}

void
DecodingGraph::find_potential()
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
            for (int e : incident_edges(v)) {
                const GraphEdge& ge = edges_[static_cast<size_t>(e)];
                if (ge.v == GraphEdge::kBoundary)
                    continue;
                const int w = ge.u == v ? ge.v : ge.u;
                const uint8_t want = static_cast<uint8_t>(
                    potential_[static_cast<size_t>(v)] ^ ge.logical);
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

void
DecodingGraph::encode_arcs()
{
    // Same fill order as the incidence pass, so code i at a node sits
    // beside edge id i; a self-loop's first entry is its u end.
    arc_codes_.resize(incidence_.size());
    std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
    for (const GraphEdge& ge : edges_) {
        int& at_u = arc_codes_[static_cast<size_t>(
            fill[static_cast<size_t>(ge.u)]++)];
        if (ge.v == GraphEdge::kBoundary) {
            const int side =
                potential_.empty()
                    ? 0
                    : ge.logical ^ potential_[static_cast<size_t>(ge.u)];
            at_u = ~side;
            continue;
        }
        at_u = ge.v << 1;
        arc_codes_[static_cast<size_t>(fill[static_cast<size_t>(ge.v)]++)] =
            (ge.u << 1) | 1;
    }
}

}  // namespace gld
