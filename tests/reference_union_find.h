// Test-only reference: the union-find decoder as it stood before the
// CSR graph, touched-only state and defect-list entry point, kept
// verbatim in behaviour (dense per-node init, vector<vector> incidence,
// frontiers and peeling adjacency).  tests/test_decoder_equivalence.cc
// requires the production decoder to match it bit for bit.

#ifndef GLD_TESTS_REFERENCE_UNION_FIND_H_
#define GLD_TESTS_REFERENCE_UNION_FIND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "decode/decoding_graph.h"

namespace gld {
namespace testing_ref {

class ReferenceUnionFind {
  public:
    explicit ReferenceUnionFind(const DecodingGraph& graph) : graph_(&graph)
    {
        const int n = graph.n_nodes();
        const std::vector<GraphEdge>& edges = graph.edges();
        incidence_.assign(static_cast<size_t>(n), {});
        for (size_t e = 0; e < edges.size(); ++e) {
            incidence_[static_cast<size_t>(edges[e].u)].push_back(
                static_cast<int>(e));
            if (edges[e].v != GraphEdge::kBoundary)
                incidence_[static_cast<size_t>(edges[e].v)].push_back(
                    static_cast<int>(e));
        }
        parent_.resize(n);
        size_.resize(n);
        parity_.resize(n);
        boundary_.resize(n);
        in_cluster_.resize(n);
        frontier_.resize(n);
        edge_added_.assign(edges.size(), 0);
        adj_.resize(static_cast<size_t>(n) + 1);
        visited_.assign(static_cast<size_t>(n) + 1, 0);
        parent_edge_.assign(static_cast<size_t>(n) + 1, -1);
        parent_node_.assign(static_cast<size_t>(n) + 1, -1);
        defect_.resize(static_cast<size_t>(n) + 1);
    }

    bool decode(const std::vector<uint8_t>& syndrome)
    {
        const auto& edges = graph_->edges();
        const int n = graph_->n_nodes();

        bool quiet = true;
        for (int v = 0; v < n; ++v) {
            if (syndrome[v] != 0) {
                quiet = false;
                break;
            }
        }
        if (quiet) {
            residual_ = 0;
            return false;
        }

        defects_.clear();
        for (int v = 0; v < n; ++v) {
            parent_[v] = v;
            size_[v] = 1;
            parity_[v] = syndrome[v];
            boundary_[v] = 0;
            in_cluster_[v] = syndrome[v];
            frontier_[v].clear();
            if (syndrome[v]) {
                defects_.push_back(v);
                frontier_[v] = incidence_[v];
            }
        }
        added_edges_.clear();

        odd_ = defects_;
        while (!odd_.empty()) {
            next_.clear();
            for (int r : odd_) {
                r = find(r);
                if (!parity_[r] || boundary_[r])
                    continue;
                std::vector<int> fr = std::move(frontier_[r]);
                frontier_[r].clear();
                for (int e : fr) {
                    if (edge_added_[e])
                        continue;
                    const GraphEdge& ge = edges[e];
                    edge_added_[e] = 1;
                    added_edges_.push_back(e);
                    if (ge.v == GraphEdge::kBoundary) {
                        boundary_[find(ge.u)] |= 1;
                        continue;
                    }
                    for (int w : {ge.u, ge.v}) {
                        if (!in_cluster_[w]) {
                            in_cluster_[w] = 1;
                            frontier_[w] = incidence_[w];
                        }
                    }
                    unite(ge.u, ge.v);
                }
                const int r2 = find(r);
                if (parity_[r2] && !boundary_[r2])
                    next_.push_back(r2);
            }
            std::sort(next_.begin(), next_.end());
            next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
            still_.clear();
            for (int r : next_) {
                if (find(r) == r && parity_[r] && !boundary_[r])
                    still_.push_back(r);
            }
            odd_.swap(still_);
        }

        for (int e : added_edges_) {
            const GraphEdge& ge = edges[e];
            const int v = ge.v == GraphEdge::kBoundary ? n : ge.v;
            adj_[ge.u].emplace_back(v, e);
            adj_[v].emplace_back(ge.u, e);
        }
        order_.clear();
        bfs(n);
        for (int e : added_edges_) {
            const GraphEdge& ge = edges[e];
            if (!visited_[ge.u])
                bfs(ge.u);
            if (ge.v != GraphEdge::kBoundary && !visited_[ge.v])
                bfs(ge.v);
        }

        for (int v = 0; v < n; ++v)
            defect_[v] = syndrome[v];
        defect_[n] = 0;
        bool logical = false;
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
            const int v = *it;
            if (v == n || !defect_[v])
                continue;
            const int e = parent_edge_[v];
            if (e < 0)
                continue;
            defect_[v] = 0;
            defect_[parent_node_[v]] ^= 1;
            if (edges[e].logical)
                logical = !logical;
        }
        residual_ = 0;
        for (int v = 0; v < n; ++v)
            residual_ += defect_[v];

        for (int v : order_) {
            visited_[v] = 0;
            parent_edge_[v] = -1;
            parent_node_[v] = -1;
        }
        for (int e : added_edges_) {
            const GraphEdge& ge = edges[e];
            edge_added_[e] = 0;
            adj_[ge.u].clear();
            adj_[ge.v == GraphEdge::kBoundary ? n : ge.v].clear();
        }
        return logical;
    }

    int last_residual() const { return residual_; }

  private:
    int find(int v)
    {
        while (parent_[v] != v) {
            parent_[v] = parent_[parent_[v]];
            v = parent_[v];
        }
        return v;
    }

    void unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (size_[a] < size_[b])
            std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
        parity_[a] ^= parity_[b];
        boundary_[a] |= boundary_[b];
        if (frontier_[a].size() < frontier_[b].size())
            frontier_[a].swap(frontier_[b]);
        frontier_[a].insert(frontier_[a].end(), frontier_[b].begin(),
                            frontier_[b].end());
        frontier_[b].clear();
    }

    void bfs(int root)
    {
        visited_[root] = 1;
        queue_.clear();
        queue_.push_back(root);
        size_t head = 0;
        while (head < queue_.size()) {
            const int v = queue_[head++];
            order_.push_back(v);
            for (const auto& [w, e] : adj_[v]) {
                if (!visited_[w]) {
                    visited_[w] = 1;
                    parent_edge_[w] = e;
                    parent_node_[w] = v;
                    queue_.push_back(w);
                }
            }
        }
    }

    const DecodingGraph* graph_;
    std::vector<std::vector<int>> incidence_;
    std::vector<int> parent_;
    std::vector<int> size_;
    std::vector<uint8_t> parity_;
    std::vector<uint8_t> boundary_;
    std::vector<uint8_t> in_cluster_;
    std::vector<std::vector<int>> frontier_;
    std::vector<uint8_t> edge_added_;
    std::vector<std::vector<std::pair<int, int>>> adj_;
    std::vector<uint8_t> visited_;
    std::vector<int> parent_edge_;
    std::vector<int> parent_node_;
    std::vector<uint8_t> defect_;
    std::vector<int> defects_;
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> still_;
    std::vector<int> added_edges_;
    std::vector<int> order_;
    std::vector<int> queue_;
    int residual_ = 0;
};

}  // namespace testing_ref
}  // namespace gld

#endif  // GLD_TESTS_REFERENCE_UNION_FIND_H_
