#ifndef GLD_DECODE_DECODING_GRAPH_H_
#define GLD_DECODE_DECODING_GRAPH_H_

#include <cstddef>
#include <cstdint>
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
 *
 * The constructor also looks for a node potential (see potential()) with
 * one traversal per connected component, O(E), then encodes each
 * incidence entry as an arc code (see arc_codes()).  Immutable after
 * construction, so one graph is shared by every worker's decoder.
 */
class DecodingGraph {
  public:
    /**
     * Throws std::invalid_argument on an endpoint outside [0, n_nodes),
     * or on more than kMaxNodes nodes.
     */
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
    /**
     * Arc codes of node v, parallel to incident_edges(v): entry i
     * describes edge incident_edges(v)[i] as seen from v, so growth can
     * walk a frontier without loading a GraphEdge.
     *  - Inner edge e: (far << 1) | bit, where far is e's other endpoint
     *    and the bit is 1 when v is e.v (0 at e.u).  A self-loop's two
     *    entries at v read far = v with bits 0, then 1.  Always >= 0.
     *  - Boundary edge e (listed at e.u == v only): ~side, i.e. -1 or
     *    -2, with side = e.logical ^ phi(v) (0 when there is no
     *    potential).
     */
    const int* arc_codes(int v) const
    {
        return arc_codes_.data() + offsets_[static_cast<size_t>(v)];
    }
    /** Largest node count the arc-code encoding can hold. */
    static constexpr int kMaxNodes = (1 << 30) - 1;
    /**
     * Node potential phi: one entry (0 or 1) per node with
     * phi[u] ^ phi[v] == logical on every non-boundary edge (u, v).  The
     * logical parity of any edge set F is then the XOR of phi over the
     * nodes F meets an odd number of times, plus the side
     * logical(b) ^ phi[u] of each boundary edge b = (u, boundary) in F.
     * Each component's lowest node gets 0.  Empty when no such phi
     * exists: some cycle has odd logical parity, and a decoder must then
     * follow its correction edge by edge.
     */
    const std::vector<uint8_t>& potential() const { return potential_; }

  private:
    void find_potential();
    void encode_arcs();

    int n_nodes_;
    std::vector<GraphEdge> edges_;
    std::vector<int> offsets_;    ///< n_nodes + 1 entries
    std::vector<int> incidence_;  ///< edge ids, node-major
    std::vector<int> arc_codes_;  ///< parallel to incidence_
    std::vector<uint8_t> potential_;  ///< n_nodes entries, or none
};

}  // namespace gld

#endif  // GLD_DECODE_DECODING_GRAPH_H_
