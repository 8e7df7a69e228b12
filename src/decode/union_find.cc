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
    : graph_(&graph),
      n_(graph.n_nodes()),
      width_(graph.width()),
      phi_(graph.potential().empty() ? nullptr : graph.potential().data())
{
    nodes_.resize(static_cast<size_t>(n_));
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
UnionFindDecoder::join(int v, int layer, int kind, uint8_t defect)
{
    Node& x = nodes_[v];
    x.parent = v;
    x.size = 1;
    x.layer = layer;
    x.kind = static_cast<uint8_t>(kind);
    x.parity = defect;
    x.boundary = 0;
    x.in_cluster = 1;
    // A joining node brings its whole incidence onto the frontier.
    x.fr_head = v;
    x.fr_tail = v;
    x.fr_next = -1;
    x.fr_edges = graph_->node_arcs(kind, layer, v - layer * width_).size();
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
    return true;
}

int
UnionFindDecoder::grow(int r, int x)
{
    // The frontier's nodes are on no other list, so their fr_next links
    // stay put while merges splice the lists of nodes that join meanwhile.
    int root = r;
    for (; x >= 0; x = nodes_[x].fr_next) {
        const int layer = nodes_[x].layer;
        const int kind = nodes_[x].kind;
        const DecodingGraph::ArcSlice s =
            graph_->node_arcs(kind, layer, x - layer * width_);
        for (const DecodingGraph::Arc* a = s.first; a != s.last; ++a) {
            assert(find(x) == root && "tracked root is stale");
            const int e = s.edge_base + a->edge;
            if (!claim(e))
                continue;
            // Grown records are written field by field in place: one
            // built by value and copied in stalls store forwarding.
            Grown& g = grown_.emplace_back();
            g.edge = e;
            const int c = a->code;
            if (c < 0) {
                const int side = phi_ ? (~c ^ phi_[x]) : 0;
                nodes_[root].boundary |= static_cast<uint8_t>(1u << side);
                g.u = x;
                g.v = n_;
                continue;
            }
            const int far = c >> 1;
            const int y = s.node_base + far;
            g.u = (c & 1) ? y : x;
            g.v = (c & 1) ? x : y;
            int ry = y;
            if (!nodes_[y].in_cluster) {
                const int ly =
                    s.layer + (far >= width_) + (far >= 2 * width_);
                join(y, ly, graph_->near_kind(kind, ly), 0);
            } else if ((ry = find(y)) == root) {
                continue;
            }
            root = (c & 1) ? link(ry, root) : link(root, ry);
        }
    }
    return root;
}

void
UnionFindDecoder::bfs(int root)
{
    size_t head = order_.size();
    peel_[static_cast<size_t>(root)].visited = 1;
    peel_[static_cast<size_t>(root)].parent_edge = -1;
    order_.push_back(root);
    while (head < order_.size()) {
        const int v = order_[head++];
        const PeelNode& pv = peel_[static_cast<size_t>(v)];
        for (int i = pv.adj_begin; i < pv.adj_end; ++i) {
            const Arc arc = adj_[static_cast<size_t>(i)];
            PeelNode& w = peel_[static_cast<size_t>(arc.slot)];
            if (!w.visited) {
                w.visited = 1;
                w.parent_edge = arc.edge;
                w.parent = v;
                order_.push_back(arc.slot);
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

    touched_.clear();
    grown_.clear();
    for (int v : defects) {
        const int layer = v / width_;
        join(v, layer, graph_->kind_of(layer), 1);
    }

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
    bool peel = phi_ == nullptr;
    if (!peel) {
        for (int v : defects) {
            const Node& root = nodes_[find(v)];
            if (needs_peel(root.boundary, root.parity)) {
                peel = true;
                continue;
            }
            logical ^= phi_[v] ^ (root.boundary == 2);
        }
    }

    // --- Peeling over the grown edges of the remaining clusters. ---
    if (peel) {
        const std::vector<Grown>* grown = &grown_;
        if (phi_) {
            peel_edges_.clear();
            for (const Grown& g : grown_) {
                const Node& root = nodes_[find(g.u)];
                if (needs_peel(root.boundary, root.parity))
                    peel_edges_.push_back(g);
            }
            grown = &peel_edges_;
        }
        logical ^= peel_forest(*grown, defects);
    }

    // Cleanup: every node that joined a cluster, every grown edge.
    for (int v : touched_)
        nodes_[v].in_cluster = 0;
    for (const Grown& g : grown_)
        edge_added_[static_cast<size_t>(g.edge) >> 6] = 0;
    return logical != 0;
}

unsigned
UnionFindDecoder::peel_forest(const std::vector<Grown>& grown,
                              const std::vector<int>& defects)
{
    // Peel state per touched node, in join order, then the boundary; a
    // node finds its slot through Node::slot (growth is over, so the
    // cluster size it shares a field with is no longer read).
    const int b = static_cast<int>(touched_.size());
    peel_.assign(static_cast<size_t>(b) + 1, PeelNode{0, 0, -1, -1, 0, 0});
    for (int i = 0; i < b; ++i)
        nodes_[touched_[static_cast<size_t>(i)]].slot = i;
    for (int v : defects) {
        const Node& root = nodes_[find(v)];
        if (!phi_ || needs_peel(root.boundary, root.parity))
            peel_[static_cast<size_t>(nodes_[v].slot)].defect = 1;
    }
    auto slot = [&](int v) { return v == n_ ? b : nodes_[v].slot; };

    // CSR adjacency over the slots, each one's arcs in `grown` order:
    // count, offset (boundary first, then join order), fill.
    for (const Grown& g : grown) {
        ++peel_[static_cast<size_t>(slot(g.u))].adj_end;
        ++peel_[static_cast<size_t>(slot(g.v))].adj_end;
    }
    int offset = 0;
    auto place = [&](PeelNode& x) {
        x.adj_begin = offset;
        offset += x.adj_end;
        x.adj_end = x.adj_begin;
    };
    place(peel_[static_cast<size_t>(b)]);
    for (int i = 0; i < b; ++i)
        place(peel_[static_cast<size_t>(i)]);
    adj_.resize(static_cast<size_t>(offset));
    for (const Grown& g : grown) {
        const int su = slot(g.u);
        const int sv = slot(g.v);
        adj_[static_cast<size_t>(peel_[static_cast<size_t>(su)].adj_end++)] =
            {sv, g.edge};
        adj_[static_cast<size_t>(peel_[static_cast<size_t>(sv)].adj_end++)] =
            {su, g.edge};
    }
    order_.clear();
    bfs(b);  // clusters touching the boundary root at the boundary
    for (const Grown& g : grown) {
        if (!peel_[static_cast<size_t>(slot(g.u))].visited)
            bfs(slot(g.u));
        if (g.v != n_ && !peel_[static_cast<size_t>(slot(g.v))].visited)
            bfs(slot(g.v));
    }

    unsigned logical = 0;
    const DecodingGraph::EdgeView edges = graph_->edges();
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        PeelNode& x = peel_[static_cast<size_t>(*it)];
        if (*it == b || !x.defect)
            continue;
        if (x.parent_edge < 0)
            continue;  // unmatched defect (counted as residual)
        x.defect = 0;
        peel_[static_cast<size_t>(x.parent)].defect ^= 1;
        logical ^= edges[static_cast<size_t>(x.parent_edge)].logical;
    }
    for (int i = 0; i < b; ++i)
        residual_ += peel_[static_cast<size_t>(i)].defect;
    return logical;
}

}  // namespace gld
