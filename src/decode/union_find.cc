#include <cstddef>
#include "decode/union_find.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gld {

namespace {

/**
 * Whether a cluster's logical parity depends on its spanning tree: it
 * touches both boundary sides, or it is odd and stalled with no boundary
 * (its unmatched defect is for the peel to report).
 */
bool
needs_peel(uint8_t boundary, uint8_t parity)
{
    return boundary == 3 || (parity && !boundary);
}

}  // namespace

UnionFindDecoder::UnionFindDecoder(const DecodingGraph& graph)
    : graph_(&graph), n_(graph.n_nodes())
{
    nodes_.resize(static_cast<size_t>(n_) + 1);
    edge_added_.assign((graph.edges().size() + 63) / 64, 0);
}

int
UnionFindDecoder::find(int v)
{
    while (nodes_[v].parent != v) {
        nodes_[v].parent = nodes_[nodes_[v].parent].parent;
        v = nodes_[v].parent;
    }
    return v;
}

void
UnionFindDecoder::join(int v, uint8_t defect)
{
    Node& x = nodes_[v];
    x.parent = v;
    x.size = 1;
    x.parity = defect;
    x.boundary = 0;
    x.defect = defect;
    x.in_cluster = 1;
    // A joining node brings its whole incidence slice onto the frontier.
    x.fr_head = v;
    x.fr_tail = v;
    x.fr_next = -1;
    x.fr_edges = static_cast<int>(graph_->incident_edges(v).size());
    touched_.push_back(v);
}

int
UnionFindDecoder::link(int a, int b)
{
    if (nodes_[a].size < nodes_[b].size)
        std::swap(a, b);
    Node& ra = nodes_[a];
    Node& rb = nodes_[b];
    rb.parent = a;
    ra.size += rb.size;
    ra.parity ^= rb.parity;
    ra.boundary |= rb.boundary;
    // The frontier with more edges goes first, the surviving root's on a
    // tie: the reference decoder's edge order, which exactness rests on.
    if (rb.fr_head < 0)
        return a;
    if (ra.fr_head < 0) {
        ra.fr_head = rb.fr_head;
        ra.fr_tail = rb.fr_tail;
    } else if (ra.fr_edges < rb.fr_edges) {
        nodes_[rb.fr_tail].fr_next = ra.fr_head;
        ra.fr_head = rb.fr_head;
    } else {
        nodes_[ra.fr_tail].fr_next = rb.fr_head;
        ra.fr_tail = rb.fr_tail;
    }
    ra.fr_edges += rb.fr_edges;
    return a;
}

bool
UnionFindDecoder::claim(int e)
{
    uint64_t& word = edge_added_[static_cast<size_t>(e) >> 6];
    const uint64_t bit = 1ull << (e & 63);
    if (word & bit)
        return false;
    word |= bit;
    added_edges_.push_back(e);
    return true;
}

int
UnionFindDecoder::grow(int r, int x)
{
    // The frontier's nodes are on no other list, so their fr_next links
    // stay put while merges splice the lists of nodes that join meanwhile.
    int root = r;
    for (; x >= 0; x = nodes_[x].fr_next) {
        const EdgeIdRange es = graph_->incident_edges(x);
        const int* code = graph_->arc_codes(x);
        for (size_t i = 0; i < es.size(); ++i) {
            assert(find(x) == root && "tracked root is stale");
            if (!claim(es.first[i]))
                continue;
            const int c = code[i];
            if (c < 0) {
                nodes_[root].boundary |= static_cast<uint8_t>(1u << ~c);
                continue;
            }
            const int y = c >> 1;
            int ry = y;
            if (!nodes_[y].in_cluster)
                join(y, 0);
            else if ((ry = find(y)) == root)
                continue;
            root = (c & 1) ? link(ry, root) : link(root, ry);
        }
    }
    return root;
}

void
UnionFindDecoder::bfs(int root)
{
    size_t head = order_.size();
    nodes_[root].visited = 1;
    nodes_[root].parent_edge = -1;
    order_.push_back(root);
    while (head < order_.size()) {
        const int v = order_[head++];
        for (int i = nodes_[v].adj_begin; i < nodes_[v].adj_end; ++i) {
            const Arc arc = adj_[static_cast<size_t>(i)];
            Node& w = nodes_[arc.node];
            if (!w.visited) {
                w.visited = 1;
                w.parent_edge = arc.edge;
                w.parent_node = v;
                order_.push_back(arc.node);
            }
        }
    }
}

bool
UnionFindDecoder::decode(const std::vector<uint8_t>& syndrome)
{
    if (syndrome.size() != static_cast<size_t>(n_))
        throw std::invalid_argument(
            "UnionFindDecoder::decode: syndrome has " +
            std::to_string(syndrome.size()) + " entries, graph has " +
            std::to_string(n_) + " nodes");
    // Eight bytes at a time: syndromes are sparse, so most words are 0.
    syndrome_defects_.clear();
    const uint8_t* bytes = syndrome.data();
    int v = 0;
    for (; v + 8 <= n_; v += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + v, sizeof(word));
        if (word == 0)
            continue;
        for (int i = v; i < v + 8; ++i) {
            if (bytes[i] != 0)
                syndrome_defects_.push_back(i);
        }
    }
    for (; v < n_; ++v) {
        if (bytes[v] != 0)
            syndrome_defects_.push_back(v);
    }
    return decode_defects(syndrome_defects_);
}

bool
UnionFindDecoder::decode_defects(const std::vector<int>& defects)
{
    int prev = -1;
    for (int v : defects) {
        if (v <= prev || v >= n_)
            throw std::invalid_argument(
                "UnionFindDecoder::decode_defects: defect " +
                std::to_string(v) + " after " + std::to_string(prev) +
                " is out of range or out of order (graph has " +
                std::to_string(n_) + " nodes)");
        prev = v;
    }
    residual_ = 0;
    if (defects.empty())
        return false;

    const std::vector<GraphEdge>& edges = graph_->edges();
    const std::vector<uint8_t>& phi = graph_->potential();
    touched_.clear();
    added_edges_.clear();
    for (int v : defects)
        join(v, 1);

    // --- Growth. ---
    odd_ = defects;
    while (!odd_.empty()) {
        next_.clear();
        for (int r : odd_) {
            r = find(r);
            if (!nodes_[r].parity || nodes_[r].boundary)
                continue;
            // Detach the frontier, then walk it.  An empty frontier means
            // every edge at the cluster has grown: it can never change
            // again, so it stalls and is left to the peel.
            const int x = nodes_[r].fr_head;
            if (x < 0)
                continue;
            nodes_[r].fr_head = -1;
            nodes_[r].fr_tail = -1;
            nodes_[r].fr_edges = 0;
            const int r2 = grow(r, x);
            if (nodes_[r2].parity && !nodes_[r2].boundary)
                next_.push_back(r2);
        }
        std::sort(next_.begin(), next_.end());
        next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
        // Remove entries that merged into satisfied clusters.
        still_.clear();
        for (int r : next_) {
            if (find(r) == r && nodes_[r].parity && !nodes_[r].boundary)
                still_.push_back(r);
        }
        odd_.swap(still_);
    }

    // --- Closed form: each settled cluster's logical parity. ---
    unsigned logical = 0;
    bool peel = phi.empty();
    if (!peel) {
        for (int v : defects) {
            const Node& root = nodes_[find(v)];
            if (needs_peel(root.boundary, root.parity)) {
                peel = true;
                continue;
            }
            logical ^= phi[static_cast<size_t>(v)] ^ (root.boundary == 2);
            nodes_[v].defect = 0;
        }
    }

    // --- Peeling over the grown edges of the remaining clusters. ---
    if (peel) {
        const std::vector<int>* grown = &added_edges_;
        if (!phi.empty()) {
            peel_edges_.clear();
            for (int e : added_edges_) {
                const Node& root =
                    nodes_[find(edges[static_cast<size_t>(e)].u)];
                if (needs_peel(root.boundary, root.parity))
                    peel_edges_.push_back(e);
            }
            grown = &peel_edges_;
        }
        logical ^= peel_forest(*grown);
    }

    // Residual count and cleanup in one pass: every defect and every
    // visited node other than the boundary is a touched node.
    for (int v : touched_) {
        Node& x = nodes_[v];
        residual_ += x.defect;
        x.in_cluster = 0;
        x.visited = 0;
    }
    nodes_[n_].visited = 0;
    for (int e : added_edges_)
        edge_added_[static_cast<size_t>(e) >> 6] = 0;
    return logical != 0;
}

unsigned
UnionFindDecoder::peel_forest(const std::vector<int>& grown)
{
    // CSR adjacency over the touched nodes and the boundary node, each
    // node's arcs in `grown` order: count, offset, fill.
    const std::vector<GraphEdge>& edges = graph_->edges();
    Node& bnode = nodes_[n_];
    bnode.adj_end = 0;
    bnode.defect = 0;
    for (int v : touched_)
        nodes_[v].adj_end = 0;
    for (int e : grown) {
        const GraphEdge& ge = edges[static_cast<size_t>(e)];
        ++nodes_[ge.u].adj_end;
        ++nodes_[ge.v == GraphEdge::kBoundary ? n_ : ge.v].adj_end;
    }
    int offset = 0;
    auto place = [&](Node& x) {
        x.adj_begin = offset;
        offset += x.adj_end;
        x.adj_end = x.adj_begin;
    };
    place(bnode);
    for (int v : touched_)
        place(nodes_[v]);
    adj_.resize(static_cast<size_t>(offset));
    for (int e : grown) {
        const GraphEdge& ge = edges[static_cast<size_t>(e)];
        const int v = ge.v == GraphEdge::kBoundary ? n_ : ge.v;
        adj_[static_cast<size_t>(nodes_[ge.u].adj_end++)] = {v, e};
        adj_[static_cast<size_t>(nodes_[v].adj_end++)] = {ge.u, e};
    }
    order_.clear();
    bfs(n_);  // clusters touching the boundary root at the boundary
    for (int e : grown) {
        const GraphEdge& ge = edges[static_cast<size_t>(e)];
        if (!nodes_[ge.u].visited)
            bfs(ge.u);
        if (ge.v != GraphEdge::kBoundary && !nodes_[ge.v].visited)
            bfs(ge.v);
    }

    unsigned logical = 0;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const int v = *it;
        if (v == n_ || !nodes_[v].defect)
            continue;
        const int e = nodes_[v].parent_edge;
        if (e < 0)
            continue;  // unmatched defect (counted as residual)
        nodes_[v].defect = 0;
        nodes_[nodes_[v].parent_node].defect ^= 1;
        logical ^= edges[static_cast<size_t>(e)].logical;
    }
    return logical;
}

}  // namespace gld
