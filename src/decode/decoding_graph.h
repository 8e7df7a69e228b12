#ifndef GLD_DECODE_DECODING_GRAPH_H_
#define GLD_DECODE_DECODING_GRAPH_H_

#include <cstddef>
#include <vector>

namespace gld {

/**
 * One edge of the space-time decoding graph.  `v == kBoundary` marks a
 * boundary edge (the fault flips a single detector).  `logical` records
 * whether the underlying fault flips the logical observable.
 */
struct GraphEdge {
    int u;
    int v;
    bool logical;
    double prob;

    static constexpr int kBoundary = -1;
};

/** A node's incident edge ids: a view into the graph's CSR arrays. */
struct EdgeIdRange {
    const int* first;
    const int* last;

    const int* begin() const { return first; }
    const int* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    bool empty() const { return first == last; }
};

/**
 * Space-time decoding graph over Z-type detectors for a memory-Z
 * experiment: node (r, zc) = r * n_z + zc for syndrome rounds r in
 * [0, rounds) plus one final layer (r = rounds) comparing the last
 * syndrome measurements with the transversal data readout.
 *
 * Incidence is stored as CSR (one offsets array, one flat edge-id
 * array); each node lists its edges in ascending edge id.
 */
class DecodingGraph {
  public:
    /** Throws std::invalid_argument on an endpoint outside [0, n_nodes). */
    DecodingGraph(int n_nodes, std::vector<GraphEdge> edges);

    int n_nodes() const { return n_nodes_; }
    const std::vector<GraphEdge>& edges() const { return edges_; }
    /** Edge ids incident to node v (boundary edges appear at u only). */
    EdgeIdRange incident_edges(int v) const
    {
        const int* base = incidence_.data();
        return {base + offsets_[static_cast<size_t>(v)],
                base + offsets_[static_cast<size_t>(v) + 1]};
    }

  private:
    int n_nodes_;
    std::vector<GraphEdge> edges_;
    std::vector<int> offsets_;    ///< n_nodes + 1 entries
    std::vector<int> incidence_;  ///< edge ids, node-major
};

}  // namespace gld

#endif  // GLD_DECODE_DECODING_GRAPH_H_
