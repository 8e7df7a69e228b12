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
    parent_.resize(static_cast<size_t>(n_));
    edge_added_.assign((graph.edges().size() + 63) / 64, 0);
}

int
UnionFindDecoder::find(int v)
{
    while (parent_[v] != v) {
        parent_[v] = parent_[parent_[v]];
        v = parent_[v];
    }
    return v;
}

template <bool kRecord>
void
UnionFindDecoder::join(int v, int layer, int kind, int degree,
                       uint8_t defect)
{
    Node& x = nodes_[v];
    x.stamp = epoch_;
    x.size = 1;
    x.layer = layer;
    x.kind = static_cast<uint8_t>(kind);
    x.parity = defect;
    x.boundary = 0;
    // A joining node brings its whole incidence onto the frontier.
    x.fr_head = v;
    x.fr_tail = v;
    x.fr_next = -1;
    x.fr_edges = degree;
    parent_[v] = v;
    if (kRecord)
        touched_.push_back(v);
}

int
UnionFindDecoder::link(int a, int b)
{
    if (nodes_[a].size < nodes_[b].size)
        std::swap(a, b);
    Node& ra = nodes_[a];
    Node& rb = nodes_[b];
    parent_[b] = a;
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

template <bool kRecord>
int
UnionFindDecoder::grow(int r, int x)
{
    // Locals, not members: the byte stores below may alias any member,
    // which would reload each of them per arc.
    Node* const nodes = nodes_.data();
    int* const parent = parent_.data();
    const uint32_t epoch = epoch_;
    const int w = width_;
    const uint8_t* const phi = phi_;
    const DecodingGraph& graph = *graph_;
    // The frontier's nodes are on no other list, so their fr_next links
    // stay put while merges splice the lists of nodes that join meanwhile.
    int root = r;
    for (; x >= 0; x = nodes[x].fr_next) {
        const int layer = nodes[x].layer;
        const int kind = nodes[x].kind;
        const DecodingGraph::ArcSlice s =
            graph.node_arcs(kind, layer, x - layer * w);
        for (const DecodingGraph::Arc* a = s.first; a != s.last; ++a) {
            assert(find(x) == root && "tracked root is stale");
            if (kRecord) {
                // Claim the edge: its second arc (from the far end, or a
                // self-loop's twin) must not list it again.
                const int e = s.edge_base + a->edge;
                uint64_t& word = edge_added_[static_cast<size_t>(e) >> 6];
                const uint64_t bit = 1ull << (e & 63);
                if (word & bit)
                    continue;
                word |= bit;
                grown_.push_back(e);
            }
            const int c = a->code;
            if (c < 0) {
                const int side = phi ? (~c ^ phi[x]) : 0;
                nodes[root].boundary |= static_cast<uint8_t>(1u << side);
                continue;
            }
            const int far = c >> 1;
            const int y = s.node_base + far;
            if (nodes[y].stamp == epoch) {
                const int ry = find(y);
                if (ry != root)
                    root = (c & 1) ? link(ry, root) : link(root, ry);
                continue;
            }
            const int up = (far >= w) + (far >= 2 * w);
            const int ly = s.layer + up;
            const int ky = graph.near_kind(kind, ly);
            const int degree = graph.degree(ky, far - up * w);
            Node& rr = nodes[root];
            if ((c & 1) && rr.size == 1) {
                // A tie of two lone nodes over the edge's v end: the far
                // end, at u, survives.
                join<kRecord>(y, ly, ky, degree, 0);
                root = link(y, root);
                continue;
            }
            // Join y and link it under root in one step: the link of a
            // lone, even node with a nonempty frontier of `degree` edges.
            Node& ny = nodes[y];
            ny.stamp = epoch;
            ny.layer = ly;
            ny.kind = static_cast<uint8_t>(ky);
            parent[y] = root;
            ++rr.size;
            if (rr.fr_head < 0) {
                ny.fr_next = -1;
                rr.fr_head = y;
                rr.fr_tail = y;
            } else if (rr.fr_edges < degree) {
                ny.fr_next = rr.fr_head;
                rr.fr_head = y;
            } else {
                ny.fr_next = -1;
                nodes[rr.fr_tail].fr_next = y;
                rr.fr_tail = y;
            }
            rr.fr_edges += degree;
            if (kRecord)
                touched_.push_back(y);
        }
    }
    return root;
}

template <bool kRecord>
void
UnionFindDecoder::grow_all(const std::vector<int>& defects, bool count)
{
    if (epoch_ == kLastEpoch) {
        for (Node& x : nodes_)
            x.stamp = 0;
        epoch_ = 0;
    }
    ++epoch_;
    if (kRecord) {
        touched_.clear();
        grown_.clear();
    }
    // Defects ascend, so their layers (and kinds) follow by stepping.
    int layer = 0;
    int kind = graph_->kind_of(0);
    int base = 0;
    for (int v : defects) {
        while (v - base >= width_) {
            base += width_;
            kind = graph_->near_kind(kind, ++layer);
        }
        join<kRecord>(v, layer, kind, graph_->degree(kind, v - base), 1);
    }

    uint64_t rounds = 0;
    uint64_t grown = 0;
    odd_ = defects;
    while (!odd_.empty()) {
        ++rounds;
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
            ++grown;
            const int r2 = grow<kRecord>(r, x);
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
    if (kRecord) {
        for (int e : grown_)
            edge_added_[static_cast<size_t>(e) >> 6] = 0;
    }
    if (count) {
        stats_.growth_rounds += rounds;
        stats_.clusters_grown += grown;
    }
}

void
UnionFindDecoder::bfs(int root)
{
    size_t head = order_.size();
    peel_[static_cast<size_t>(root)].visited = 1;
    order_.push_back(root);
    while (head < order_.size()) {
        const int v = order_[head++];
        const PeelNode& pv = peel_[static_cast<size_t>(v)];
        for (int i = pv.adj_begin; i < pv.adj_end; ++i) {
            const int arc = adj_[static_cast<size_t>(i)];
            PeelNode& w = peel_[static_cast<size_t>(arc >> 1)];
            if (!w.visited) {
                w.visited = 1;
                w.parent = v;
                w.logical = static_cast<uint8_t>(arc & 1);
                order_.push_back(arc >> 1);
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
    ++stats_.decodes;

    // Without a potential every cluster is peeled: record from the start.
    if (!phi_) {
        grow_all<true>(defects, true);
        return peel_forest(defects) != 0;
    }

    // --- Growth, unrecorded; closed form per settled cluster. ---
    grow_all<false>(defects, true);
    unsigned logical = 0;
    peel_defects_.clear();
    for (int v : defects) {
        const Node& root = nodes_[find(v)];
        if (needs_peel(root.boundary, root.parity))
            peel_defects_.push_back(v);
        else
            logical ^= phi_[v] ^ (root.boundary == 2);
    }
    if (peel_defects_.empty())
        return logical != 0;

    // --- Replay the peeled clusters' growth recording, then peel. ---
    ++stats_.replays;
    grow_all<true>(peel_defects_, false);
    return (logical ^ peel_forest(peel_defects_)) != 0;
}

unsigned
UnionFindDecoder::peel_forest(const std::vector<int>& defects)
{
    // Peel state per touched node, in join order, then the boundary; a
    // node finds its slot through Node::slot (growth is over, so the
    // cluster size it shares a field with is no longer read).
    const int b = static_cast<int>(touched_.size());
    peel_.assign(static_cast<size_t>(b) + 1, PeelNode{0, 0, -1, 0, 0, 0});
    for (int i = 0; i < b; ++i)
        nodes_[touched_[static_cast<size_t>(i)]].slot = i;
    for (int v : defects)
        peel_[static_cast<size_t>(nodes_[v].slot)].defect = 1;

    // A grown edge's endpoint slots and logical, read from the graph.
    const DecodingGraph::EdgeView edges = graph_->edges();
    auto slots = [&](int e, int& su, int& sv) {
        const GraphEdge g = edges[static_cast<size_t>(e)];
        su = nodes_[g.u].slot;
        sv = g.v == GraphEdge::kBoundary ? b : nodes_[g.v].slot;
        return static_cast<int>(g.logical);
    };

    // CSR adjacency over the slots, each one's arcs in grown_ order:
    // count, offset (boundary first, then join order), fill.
    int su;
    int sv;
    for (int e : grown_) {
        slots(e, su, sv);
        ++peel_[static_cast<size_t>(su)].adj_end;
        ++peel_[static_cast<size_t>(sv)].adj_end;
    }
    int offset = 0;
    size_t with_arcs = 1;  // the boundary, always a BFS root
    auto place = [&](PeelNode& x) {
        x.adj_begin = offset;
        offset += x.adj_end;
        x.adj_end = x.adj_begin;
    };
    place(peel_[static_cast<size_t>(b)]);
    for (int i = 0; i < b; ++i) {
        with_arcs += peel_[static_cast<size_t>(i)].adj_end != 0;
        place(peel_[static_cast<size_t>(i)]);
    }
    adj_.resize(static_cast<size_t>(offset));
    for (int e : grown_) {
        const int logical = slots(e, su, sv);
        adj_[static_cast<size_t>(peel_[static_cast<size_t>(su)].adj_end++)] =
            sv << 1 | logical;
        adj_[static_cast<size_t>(peel_[static_cast<size_t>(sv)].adj_end++)] =
            su << 1 | logical;
    }
    order_.clear();
    bfs(b);  // clusters touching the boundary root at the boundary
    // The rest root at their first grown edge's first unvisited end, in
    // grown order; skipped when the boundary's BFS reached every node.
    for (size_t i = 0; i < grown_.size() && order_.size() < with_arcs; ++i) {
        slots(grown_[i], su, sv);
        if (!peel_[static_cast<size_t>(su)].visited)
            bfs(su);
        if (sv != b && !peel_[static_cast<size_t>(sv)].visited)
            bfs(sv);
    }

    unsigned logical = 0;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        PeelNode& x = peel_[static_cast<size_t>(*it)];
        if (*it == b || !x.defect)
            continue;
        if (x.parent < 0)
            continue;  // unmatched defect (counted as residual)
        x.defect = 0;
        peel_[static_cast<size_t>(x.parent)].defect ^= 1;
        logical ^= x.logical;
    }
    for (int i = 0; i < b; ++i)
        residual_ += peel_[static_cast<size_t>(i)].defect;
    return logical;
}

}  // namespace gld
