#ifndef GLD_DECODE_UNION_FIND_H_
#define GLD_DECODE_UNION_FIND_H_

#include <cstdint>
#include <vector>

#include "decode/decoding_graph.h"

namespace gld {

/**
 * Union-find decoder (Delfosse-Nickerson style, unweighted growth):
 * odd-parity clusters grow by absorbing their frontier edges until every
 * cluster has even defect parity or touches the boundary; a spanning-forest
 * peeling pass then selects a correction and returns its logical parity.
 *
 * Near-matching accuracy at a fraction of MWPM's cost — and the paper's
 * LER comparisons are relative across leakage policies, which this
 * preserves.
 *
 * A decode costs what it touches, not the graph size: per-node state is
 * initialized when a node first joins a cluster and reset afterwards for
 * exactly those nodes, a frontier is an intrusive list of cluster nodes
 * (each contributing its whole CSR incidence slice) that concatenates in
 * O(1) on a merge, and the peeling adjacency is CSR over the grown edges.
 * Growth and peeling visit edges in the same order as the dense-array
 * reference decoder in tests/reference_union_find.h, so every prediction
 * and residual is bit-identical to it (tests/test_decoder_equivalence.cc
 * pins that).  Working state
 * keeps its capacity across calls, so one cached decoder per scheduler
 * worker allocates nothing per shot.  Not thread-safe; one instance per
 * thread.
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
        uint8_t boundary = 0;
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
    void unite(int a, int b);
    void bfs(int root);

    const DecodingGraph* graph_;
    int n_;
    // Node n_ is the virtual boundary node of the peeling forest.
    std::vector<Node> nodes_;
    std::vector<uint8_t> edge_added_;  ///< all zero between decodes
    // Per-decode lists (contents meaningless between decodes).
    std::vector<int> touched_;  ///< nodes that joined a cluster, join order
    std::vector<int> odd_;
    std::vector<int> next_;
    std::vector<int> still_;
    std::vector<int> added_edges_;
    std::vector<Arc> adj_;
    std::vector<int> order_;  ///< BFS order, doubling as the BFS queue
    std::vector<int> syndrome_defects_;  ///< decode()'s extracted defects
    int residual_ = 0;
};

}  // namespace gld

#endif  // GLD_DECODE_UNION_FIND_H_
