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
 * (each contributing its whole CSR incidence slice) that concatenates in
 * O(1) on a merge, and the peeling adjacency is CSR over the grown edges.
 * Growth and peeling visit edges in the same order as the dense-array
 * reference decoder in tests/reference_union_find.h, so every prediction
 * and residual is bit-identical to it (tests/test_decoder_equivalence.cc
 * pins that).  Working state keeps its capacity across calls, so one
 * cached decoder per scheduler worker allocates nothing per shot.  Not
 * thread-safe; one instance per thread.
 *
 * Growth kernel.  Two things keep an arc to a few word operations
 * without changing that order:
 *  - Arc codes (DecodingGraph::arc_codes()): growth reads the edge id
 *    and one int per arc (far endpoint and which end this node is, or a
 *    boundary edge's side), never the GraphEdge, and marks grown edges
 *    in a bitset.
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
     * Per-node state, valid only while `in_cluster` (growth) or `visited`
     * (peeling) is set in the current decode; both flags are 0 between
     * decodes.  Frontier fields are meaningful on cluster roots only.
     */
    struct Node {
        int parent = 0;
        int size = 0;
        int fr_head = -1;   ///< first node of the frontier list, -1 = empty
        int fr_tail = -1;
        int fr_next = -1;   ///< next node on the list holding this node
        int fr_edges = 0;   ///< edges on the frontier (sum of degrees)
        int adj_begin = 0;  ///< peeling adjacency: adj_[adj_begin, adj_end)
        int adj_end = 0;
        int parent_edge = -1;  ///< peeling forest
        int parent_node = -1;
        uint8_t parity = 0;
        uint8_t boundary = 0;  ///< bit beta(b) per grown boundary edge b
        uint8_t defect = 0;
        uint8_t in_cluster = 0;
        uint8_t visited = 0;
    };

    /** A peeling-adjacency entry: the neighbour and the edge reaching it. */
    struct Arc {
        int node;
        int edge;
    };

    int find(int v);
    void join(int v, uint8_t defect);
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
     * boundary first) and returns its correction's logical parity;
     * defects it cannot match stay set for the residual count.
     */
    unsigned peel_forest(const std::vector<int>& grown);

    const DecodingGraph* graph_;
    int n_;
    // Node n_ is the virtual boundary node of the peeling forest.
    std::vector<Node> nodes_;
    std::vector<uint64_t> edge_added_;  ///< bit per edge, 0 between decodes
    // Per-decode lists (contents meaningless between decodes).
    std::vector<int> touched_;  ///< nodes that joined a cluster, join order
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> still_;
    std::vector<int> added_edges_;
    std::vector<int> peel_edges_;  ///< added_edges_ of the peeled clusters
    std::vector<Arc> adj_;
    std::vector<int> order_;  ///< BFS order, doubling as the BFS queue
    std::vector<int> syndrome_defects_;  ///< decode()'s extracted defects
    int residual_ = 0;
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
