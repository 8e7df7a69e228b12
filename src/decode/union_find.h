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
 * clusters' grown edges only, filtered in growth order.  Clusters share
 * no edges, so a BFS from the boundary restricted to one cluster visits
 * its nodes in the same relative order, with the same parents, as the
 * BFS over all grown edges; the peel's answer for that cluster is
 * unchanged.
 *
 * Stall.  An odd cluster without boundary whose frontier is empty when
 * it is next grown has grown every edge at its nodes: it is a whole
 * component without boundary edges and can never change.  Growth drops
 * it instead of re-queueing it forever, and the peel leaves its defect
 * unmatched, counted in last_residual().  Only syndromes on which the
 * dense-array reference decoder (below) never returns reach this rule.
 *
 * A decode costs what it touches, not the graph size: per-node state is
 * initialized when a node first joins a cluster and reset afterwards for
 * exactly those nodes, a frontier is an intrusive list of cluster nodes
 * (each contributing its whole incidence) that concatenates in O(1) on a
 * merge, and the peeling adjacency is CSR over the grown edges.  Growth
 * and peeling visit edges in the same order as the dense-array reference
 * decoder in tests/reference_union_find.h, so every prediction and
 * residual is bit-identical to it (tests/test_decoder_equivalence.cc
 * pins that).  Working state keeps its capacity across calls, so one
 * cached decoder per scheduler worker allocates nothing per shot.  Not
 * thread-safe; one instance per thread.
 *
 * Memory.  The graph is tiled (DecodingGraph), so the decoder's own
 * state dominates: a 32-byte Node per graph node, growth state only, and
 * one bit per edge.  The peel's state (adjacency range, BFS parent,
 * visited flag and defect bit) lives in arrays indexed by join order and
 * sized by the nodes the decode touched; a node finds its entry through
 * the Node field that holds its cluster size during growth.  At surface
 * d = 17 x 1,700 rounds the graph and one decoder take about 10 MB.
 *
 * Growth kernel.  Two things keep an arc to a few word operations
 * without changing that order:
 *  - Layer arithmetic (DecodingGraph::node_arcs()): a node records its
 *    layer and the layer's kind when it joins, so growth finds its
 *    incidence in the kind's table by arithmetic.  An arc's global edge
 *    id is a base plus its relative id, its far end a base plus
 *    code >> 1, and the far end's layer and kind follow by comparing
 *    (DecodingGraph::near_kind()).  Nothing on the growth path divides;
 *    only each defect's layer, at join, does.  A boundary arc's side is
 *    its logical (~code) XOR phi of this node.  Grown edges are marked in
 *    a bitset and listed with their global endpoints for the peel.
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

  private:
    /**
     * Per-node growth state (32 bytes), valid only while `in_cluster` is
     * set in the current decode; it is 0 between decodes.  Frontier
     * fields are meaningful on cluster roots only.
     */
    struct Node {
        int parent = 0;
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
        uint8_t in_cluster = 0;
    };

    /** A grown edge: its global id and endpoints (v = n_ at the boundary). */
    struct Grown {
        int edge;
        int u;
        int v;
    };

    /** Peel state of the touched node in one slot (the last: boundary). */
    struct PeelNode {
        int adj_begin;  ///< peeling adjacency: adj_[adj_begin, adj_end)
        int adj_end;
        int parent_edge;  ///< BFS forest, -1 at a root
        int parent;       ///< slot of the BFS parent
        uint8_t visited;
        uint8_t defect;
    };

    /** A peeling-adjacency entry: the neighbour's slot and the edge. */
    struct Arc {
        int slot;
        int edge;
    };

    int find(int v);
    void join(int v, int layer, int kind, uint8_t defect);
    /**
     * Merges the clusters rooted at `a` (the edge's u end) and `b` (its
     * v end), a != b, and returns the surviving root.
     */
    int link(int a, int b);
    /** Sets edge e's grown bit; false if it was already set. */
    bool claim(int e);
    /** Grows cluster r along its detached frontier x; returns its root. */
    int grow(int r, int x);
    void bfs(int root);
    /**
     * Peels a BFS spanning forest of the `grown` edges (rooted at the
     * boundary first) and returns its correction's logical parity.  The
     * defects to match are those of `defects` in clusters that need the
     * peel (all of them without a potential); the ones it cannot match
     * are counted in residual_.
     */
    unsigned peel_forest(const std::vector<Grown>& grown,
                         const std::vector<int>& defects);

    const DecodingGraph* graph_;
    int n_;
    int width_;
    const uint8_t* phi_;  ///< the graph's potential, or null
    std::vector<Node> nodes_;
    std::vector<uint64_t> edge_added_;  ///< bit per edge, 0 between decodes
    // Per-decode lists (contents meaningless between decodes).
    std::vector<int> touched_;  ///< nodes that joined a cluster, join order
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> still_;
    std::vector<Grown> grown_;       ///< grown edges, growth order
    std::vector<Grown> peel_edges_;  ///< grown_ of the peeled clusters
    std::vector<PeelNode> peel_;     ///< per touched_ slot, then boundary
    std::vector<Arc> adj_;
    std::vector<int> order_;  ///< BFS order (slots), doubling as its queue
    std::vector<int> syndrome_defects_;  ///< decode()'s extracted defects
    int residual_ = 0;
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
