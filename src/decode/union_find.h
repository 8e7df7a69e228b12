#ifndef GLD_DECODE_UNION_FIND_H_
#define GLD_DECODE_UNION_FIND_H_

#include <cstdint>
#include <vector>

#include "decode/decoding_graph.h"

namespace gld {

/**
 * Union-find decoder (Delfosse-Nickerson style, unweighted growth):
 * odd-parity clusters grow by absorbing their frontier edges until every
 * cluster has even defect parity or touches the boundary; the logical
 * parity of a correction inside each cluster is the prediction.
 *
 * Near-matching accuracy at a fraction of MWPM's cost — and the paper's
 * LER comparisons are relative across leakage policies, which this
 * preserves.
 *
 * Closed form.  When the graph has a node potential phi
 * (DecodingGraph::potential()), each boundary edge b = (u, boundary) has
 * a side beta(b) = logical(b) ^ phi(u), and growth ORs 1 << beta(b) into
 * its cluster's boundary byte (side 0 for every edge when there is no
 * potential).  Take a cluster C with defects D that is even with no
 * boundary, or whose grown boundary edges all share one side beta.  Every
 * correction F inside C with dF = D (up to the boundary) has
 * logical(F) = XOR of phi over D, plus beta if |D| is odd: the phi terms
 * of F's inner edges cancel at every node F meets an even number of
 * times, which is every node outside D, and F uses an odd number of
 * boundary edges exactly when |D| is odd.  So the peel's answer does not
 * depend on its spanning tree, and the decoder adds
 * phi(v) ^ (boundary == side 1) per defect instead, residual 0.
 *
 * Peel.  The spanning-forest peel (Delfosse-Zemor) still runs for
 * clusters that touched both sides, for odd clusters that stalled, and
 * for every cluster when there is no potential.  It runs over those
 * clusters' grown edges only, in growth order.  Clusters share no edges,
 * so a BFS from the boundary restricted to one cluster visits its nodes
 * in the same relative order, with the same parents, as the BFS over all
 * grown edges; the peel's answer for that cluster is unchanged.
 *
 * Stall.  An odd cluster without boundary whose frontier is empty when
 * it is next grown has grown every edge at its nodes: it is a whole
 * component without boundary edges and can never change.  Growth drops
 * it instead of re-queueing it forever, and the peel leaves its defect
 * unmatched, counted in last_residual().  Only syndromes on which the
 * dense-array reference decoder (below) never returns reach this rule.
 *
 * Two passes.  Growth needs no record of the edges it grew.  Each node
 * is walked at most once (a frontier is detached before its walk), so an
 * inner edge is met at most twice, once from each end, and the second
 * time both ends are already in one cluster: the walk finds the far
 * end's root equal to its own and moves on, as it does for a self-loop.
 * So the grown-edge bitset only de-duplicates the peel's edge list, and
 * the common decode grows without it and keeps no list at all.  A decode
 * records only when it has to: from the start when the graph has no
 * potential, and otherwise when the closed form finds a cluster that
 * needs the peel.  Then growth is replayed from scratch in recording
 * mode, which claims each edge in the bitset and lists it, from the
 * defects of the clusters that need the peel only.  That repeats those
 * clusters' history exactly: no walk of a final cluster met a node of
 * another (they would have merged), so its joins, merges, ties and
 * frontier splices involve its own parts only, and each growth round
 * takes its odd parts in the same relative order.  The replay's list is
 * therefore the one-pass decoder's list filtered to the peeled clusters,
 * in the same order.  Recording is a template flag on one growth
 * routine, so every prediction and residual is bit-identical.  On the
 * paper's workloads 4-6% of decodes replay.
 *
 * A decode costs what it touches, not the graph size: a node's state is
 * initialized when it first joins a cluster, a frontier is an intrusive
 * list of cluster nodes (each contributing its whole incidence) that
 * concatenates in O(1) on a merge, and the peeling adjacency is CSR over
 * the grown edges.  Growth and peeling visit edges in the same order as
 * the dense-array reference decoder in tests/reference_union_find.h, so
 * every prediction and residual is bit-identical to it
 * (tests/test_decoder_equivalence.cc pins that).  Working state keeps
 * its capacity across calls, so one cached decoder per scheduler worker
 * allocates nothing per shot.  Not thread-safe; one instance per thread.
 *
 * Memory.  The graph is tiled (DecodingGraph), so the decoder's own
 * state dominates: 36 bytes per graph node, a 32-byte Node of growth
 * state and a 4-byte union-find parent in a dense array.  Membership is
 * an epoch stamp in the Node: a node is in a cluster when its stamp is
 * the current pass's epoch, so nothing is reset after a pass (all stamps
 * are cleared once when the 32-bit epoch wraps).  A recording pass adds
 * one bit per edge, cleared after it, a 4-byte id per grown edge and the
 * joined nodes in join order.  The peel reads a grown edge's endpoints
 * and logical from the graph.  Its state (adjacency range, BFS parent,
 * the logical of the edge to it, visited flag and defect bit) lives in
 * arrays indexed by join order, and each adjacency entry is one int, the
 * neighbour's slot and the edge's logical; a node finds its slot through
 * the Node field that holds its cluster size during growth.  At surface
 * d = 17 x 1,700 rounds the graph and one decoder take about 10 MB on
 * i.i.d. faults, and under 20 MB on a syndrome that percolates.
 *
 * Growth kernel.  An arc costs a few word operations in the common
 * pass, in the reference's order:
 *  - Layer arithmetic (DecodingGraph::node_arcs()): a node records its
 *    layer and the layer's kind when it joins, so growth finds its
 *    incidence in the kind's table by arithmetic.  An arc's far end is a
 *    base plus code >> 1, and the far end's layer and kind follow by
 *    comparing (DecodingGraph::near_kind()).  Nothing divides: defects
 *    find their layers by stepping along the ascending list.  A boundary
 *    arc's side is its logical (~code) XOR phi of this node.
 *  - Fused join: a far end not yet in a cluster that links under the
 *    growing cluster's root (always on the edge's u side; on the v side
 *    unless the root is a lone node, which the tie hands to the far
 *    end) is joined and linked in one step, its degree read from the
 *    kind's degree table (DecodingGraph::degree()).
 *  - Root tracking: every node on a detached frontier belongs to the
 *    cluster being grown, so its root is that cluster's current root,
 *    kept in a local and updated by each merge.  find() runs only on a
 *    far endpoint already in a cluster.  A merge links the two roots in
 *    the edge's own (u, v) orientation, so the size tie-break (u's root
 *    survives) and the frontier splice order are the reference's.
 */
class UnionFindDecoder {
  public:
    explicit UnionFindDecoder(const DecodingGraph& graph);

    /**
     * Decodes one syndrome, one byte per node (nonzero = defect): a thin
     * wrapper over decode_defects().
     * @throws std::invalid_argument if syndrome.size() != n_nodes().
     * @return the predicted logical-observable flip.
     */
    bool decode(const std::vector<uint8_t>& syndrome);

    /**
     * Decodes the syndrome whose defect node ids are `defects`, strictly
     * ascending (the growth order depends on it).  No defects is the
     * trivial decode: no growth, an empty forest and a false return.
     * @throws std::invalid_argument on an id outside [0, n_nodes()) or
     *         an order that is not strictly ascending.
     * @return the predicted logical-observable flip.
     */
    bool decode_defects(const std::vector<int>& defects);

    /** Number of defects left unmatched by the last decode (0 = clean). */
    int last_residual() const { return residual_; }

    /**
     * Work counters since construction, over decodes with at least one
     * defect.  Rounds and grown clusters count each decode's first
     * growth pass only (a replay repeats it); each is updated once per
     * grown cluster or per decode, never per arc.
     */
    struct Stats {
        uint64_t decodes = 0;
        uint64_t growth_rounds = 0;   ///< passes over the odd clusters
        uint64_t clusters_grown = 0;  ///< frontier walks
        uint64_t replays = 0;         ///< decodes that grew twice
    };
    const Stats& stats() const { return stats_; }

  private:
    /** Tests set the stamp epoch through it to check its wrap. */
    friend struct UnionFindDecoderTestPeer;

    /**
     * Per-node growth state (32 bytes), valid only while `stamp` is the
     * current epoch.  Frontier fields are meaningful on cluster roots
     * only.
     */
    struct Node {
        uint32_t stamp = 0;  ///< epoch of the pass that joined the node
        union {
            int size = 0;  ///< cluster size (roots), during growth
            int slot;      ///< index in touched_, during the peel
        };
        int fr_head = -1;   ///< first node of the frontier list, -1 = empty
        int fr_tail = -1;
        int fr_next = -1;   ///< next node on the list holding this node
        int fr_edges = 0;   ///< edges on the frontier (sum of degrees)
        int layer = 0;      ///< the node's layer: id / graph width
        uint8_t kind = 0;   ///< the layer's kind (DecodingGraph::kind_of)
        uint8_t parity = 0;
        uint8_t boundary = 0;  ///< bit beta(b) per grown boundary edge b
    };

    /** Peel state of the touched node in one slot (the last: boundary). */
    struct PeelNode {
        int adj_begin;  ///< peeling adjacency: adj_[adj_begin, adj_end)
        int adj_end;
        int parent;  ///< BFS forest: slot of the parent, -1 at a root
        uint8_t visited;
        uint8_t defect;
        uint8_t logical;  ///< the logical of the edge to the parent
    };

    int find(int v);
    /** Makes v a one-node cluster of the current pass. */
    template <bool kRecord>
    void join(int v, int layer, int kind, int degree, uint8_t defect);
    /**
     * Merges the clusters rooted at `a` (the edge's u end) and `b` (its
     * v end), a != b, and returns the surviving root.
     */
    int link(int a, int b);
    /**
     * Grows every odd cluster from the defects (strictly ascending) until
     * none can grow, in a fresh epoch.  kRecord: also claim and list the
     * grown edges in grown_ and the joined nodes in touched_.  Adds to
     * stats_ when `count` is set.
     */
    template <bool kRecord>
    void grow_all(const std::vector<int>& defects, bool count);
    /** Grows cluster r along its detached frontier x; returns its root. */
    template <bool kRecord>
    int grow(int r, int x);
    void bfs(int root);
    /**
     * Peels a BFS spanning forest of the grown edges in grown_ (rooted at
     * the boundary first), matching `defects`, the recording pass's, and
     * returns its correction's logical parity; the defects it cannot
     * match are counted in residual_.
     */
    unsigned peel_forest(const std::vector<int>& defects);

    /** The last epoch before the stamps wrap. */
    static constexpr uint32_t kLastEpoch = UINT32_MAX;

    const DecodingGraph* graph_;
    int n_;
    int width_;
    const uint8_t* phi_;  ///< the graph's potential, or null
    std::vector<Node> nodes_;
    std::vector<int> parent_;  ///< union-find parent, valid with the stamp
    uint32_t epoch_ = 0;       ///< the current pass's stamp
    std::vector<uint64_t> edge_added_;  ///< bit per edge, 0 between passes
    // Per-decode lists (contents meaningless between decodes).
    std::vector<int> touched_;  ///< recording: joined nodes, join order
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> still_;
    std::vector<int> grown_;      ///< recording: grown edge ids, in order
    std::vector<PeelNode> peel_;  ///< per touched_ slot, then boundary
    /** Peeling adjacency: each entry (neighbour slot << 1) | logical. */
    std::vector<int> adj_;
    std::vector<int> order_;  ///< BFS order (slots), doubling as its queue
    std::vector<int> peel_defects_;  ///< defects of the peeled clusters
    std::vector<int> syndrome_defects_;  ///< decode()'s extracted defects
    int residual_ = 0;
    Stats stats_;
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
