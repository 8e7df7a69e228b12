#ifndef GLD_DECODE_DECODING_GRAPH_H_
#define GLD_DECODE_DECODING_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/**
 * Space-time decoding graph over Z-type detectors for a memory-Z
 * experiment, stored as tiles: node (L, z) = L * width + z for layers
 * L = 0, 1, ... of `width` nodes each.
 *
 * Segments.  The layers form a short list of segments, each one tile
 * repeated over consecutive layers.  A tile holds the edges whose lower
 * end lies in its layer, endpoints relative to that layer: [0, width) is
 * the layer itself, [width, 2 width) the next one.  Edge ids run layer
 * by layer, each layer's in tile order, so layer L's first edge id is
 * the sum of the earlier layers' tile sizes.  A DEM graph of R rounds is
 * [layer 0 x1, bulk x(R - 1), final layer x1] (see DemBuilder); a
 * hand-built graph is one segment of one layer, width = n_nodes.
 *
 * Layer kinds.  A node's incidence draws on two tiles: the one below its
 * layer (edges reaching up into it) and its own.  Layers with the same
 * pair share a kind: a segment's first layer is one kind, its other
 * layers another, so a DEM graph has at most four.  Each kind keeps one
 * CSR over `width` local nodes with every incident edge once (boundary
 * edges at u only, a self-loop twice), the tile below's entries first:
 * ascending global edge id.  Each entry is an Arc (edge id and arc code,
 * both relative to the kind's bases), so the decoder finds a node's
 * incidence, its edge ids and its far ends by arithmetic.  A degree
 * table per kind gives a node's entry count in one load.
 *
 * So the graph costs O(width) per tile and kind plus one potential byte
 * per node, whatever the round count.  The constructor also looks for
 * that potential (see potential()) with one traversal per connected
 * component, O(E).  Immutable after construction, so one graph is
 * shared by every worker's decoder.
 */
class DecodingGraph {
  public:
    /** A tile (endpoints relative to its layer) and the layers it covers. */
    struct Segment {
        std::vector<GraphEdge> tile;
        int layers;
    };

    /**
     * One incidence entry, as seen from its node.  Relative to a slice's
     * bases (see ArcSlice):
     *  - `edge`: global id minus edge_base.
     *  - `code` of an inner edge: (far << 1) | bit, far the other
     *    endpoint minus node_base (so far / width is the far end's layer
     *    after the slice's `layer`), bit 1 when this node is the edge's
     *    v end (0 at u).  A self-loop's two entries read far = this
     *    node, bits 0 then 1.  Always >= 0.
     *  - `code` of a boundary edge (listed at its u only): ~logical,
     *    i.e. -1 or -2.
     */
    struct Arc {
        int edge;
        int code;
    };

    /** A node's incidence, with the bases that make it global. */
    struct ArcSlice {
        const Arc* first;
        const Arc* last;
        int edge_base;
        int node_base;
        int layer;  ///< node_base's layer: the node's, or the one below

        int size() const { return static_cast<int>(last - first); }
    };

    /** Read-only view of every edge in id order, global endpoints. */
    class EdgeView {
      public:
        class iterator {
          public:
            using iterator_category = std::input_iterator_tag;
            using value_type = GraphEdge;
            using difference_type = std::ptrdiff_t;
            using pointer = void;
            using reference = GraphEdge;

            iterator(const DecodingGraph* g, size_t e) : g_(g), e_(e) {}
            GraphEdge operator*() const { return g_->edge(e_); }
            iterator& operator++()
            {
                ++e_;
                return *this;
            }
            bool operator==(const iterator& o) const { return e_ == o.e_; }
            bool operator!=(const iterator& o) const { return e_ != o.e_; }

          private:
            const DecodingGraph* g_;
            size_t e_;
        };

        explicit EdgeView(const DecodingGraph* g) : g_(g) {}
        size_t size() const { return static_cast<size_t>(g_->n_edges_); }
        GraphEdge operator[](size_t e) const { return g_->edge(e); }
        iterator begin() const { return {g_, 0}; }
        iterator end() const { return {g_, size()}; }

      private:
        const DecodingGraph* g_;
    };

    /**
     * One segment of one layer holding `edges` (global endpoints).
     * Throws std::invalid_argument on an endpoint outside [0, n_nodes),
     * or on more than kMaxNodes nodes.
     */
    DecodingGraph(int n_nodes, std::vector<GraphEdge> edges);

    /**
     * The graph of `segments` over layers of `width` nodes.  Throws
     * std::invalid_argument, before allocating, on more than
     * kMaxSegments segments or a segment of fewer than one layer, on more than kMaxNodes nodes or INT_MAX edges in
     * all, and on a width above kMaxLayeredWidth when there is more than
     * one layer; then on a tile endpoint outside [0, 2 width), or
     * outside [0, width) in the last segment, whose last layer has none
     * above it.
     */
    static DecodingGraph layered(int width, std::vector<Segment> segments);

    int n_nodes() const { return n_nodes_; }
    /** Nodes per layer. */
    int width() const { return width_; }
    /** Every edge in id order, global endpoints, built on access. */
    EdgeView edges() const { return EdgeView(this); }
    /** Edge records actually stored: the tiles' sizes summed. */
    size_t stored_edges() const;

    /**
     * The kind of `layer`: the index of the layer range holding it,
     * found by comparing, no division.  At most 2 * kMaxSegments kinds.
     */
    int kind_of(int layer) const
    {
        int k = 0;
        while (layer >= kinds_[static_cast<size_t>(k)].end_layer)
            ++k;
        return k;
    }
    /** The kind of `layer`, given the kind of a layer next to it. */
    int near_kind(int kind, int layer) const
    {
        const Kind& k = kinds_[static_cast<size_t>(kind)];
        return kind + (layer >= k.end_layer) - (layer < k.first_layer);
    }
    /**
     * Node (layer, z)'s incidence, `kind` the layer's kind: arithmetic
     * on the kind's table, no division.  Global edge id = edge_base +
     * arc.edge; an inner edge's far end = node_base + far, far =
     * arc.code >> 1, in layer `layer` + (far >= width) + (far >= 2
     * width) of the slice.
     */
    ArcSlice node_arcs(int kind, int layer, int z) const
    {
        const Kind& k = kinds_[static_cast<size_t>(kind)];
        const int* off = offsets_.data() + kind * (width_ + 1) + z;
        const Arc* arcs = arcs_.data();
        return {arcs + off[0], arcs + off[1],
                k.edge_base + (layer - k.first_layer) * k.edge_stride,
                (layer - k.has_below) * width_, layer - k.has_below};
    }
    /**
     * The degree of node (layer, z), `kind` the layer's kind: its
     * node_arcs() size, read from the kind's degree table in one load.
     */
    int degree(int kind, int z) const
    {
        return degrees_[static_cast<size_t>(kind * width_ + z)];
    }
    /**
     * Node v's incidence in global terms, ascending edge id: each entry's
     * edge id and its arc code with the far end as a global node id.
     * Cold path (tests, tools); the decoder reads node_arcs().
     */
    std::vector<Arc> incidence(int v) const;

    /** Largest node count the arc-code encoding can hold. */
    static constexpr int kMaxNodes = (1 << 30) - 1;
    /** Most segments a graph may have (a decoder keeps kinds in a byte). */
    static constexpr int kMaxSegments = 127;
    /**
     * Largest width of a graph with more than one layer: a kind's codes
     * reach 3 * width nodes above its base.
     */
    static constexpr int kMaxLayeredWidth = kMaxNodes / 3;
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
    /** A segment as stored: its tile and where its layers and ids lie. */
    struct Run {
        std::vector<GraphEdge> edges;  ///< layer-relative endpoints
        int tile_edges = 0;            ///< edges.size()
        int first_layer = 0;
        int end_layer = 0;  ///< one past the segment's last layer
        int edge_base = 0;  ///< global id of the first layer's edge 0
        int edge_end = 0;   ///< one past the last layer's last edge id
    };
    /** Layers [first_layer, end_layer) sharing one incidence CSR. */
    struct Kind {
        int first_layer;
        int end_layer;
        int edge_base;    ///< slice edge_base at first_layer
        int edge_stride;  ///< its step per layer
        int has_below;    ///< 1 when node_base is the layer below
    };

    struct Layered {};
    DecodingGraph(Layered, int width, std::vector<Segment> segments);

    /**
     * Appends the kind of layers [first_layer, end_layer), whose tile is
     * `own` and whose tile below is `below` (null: none), and each new
     * entry's edge logical to `arc_logical` (parallel to arcs_).
     */
    void add_kind(const Run* below, const Run& own, int first_layer,
                  int end_layer, std::vector<uint8_t>& arc_logical);
    GraphEdge edge(size_t e) const;
    void find_potential(const std::vector<uint8_t>& arc_logical);

    int width_ = 0;
    int n_nodes_ = 0;
    int n_edges_ = 0;
    std::vector<Run> runs_;
    std::vector<Kind> kinds_;
    std::vector<int> offsets_;  ///< width + 1 CSR offsets per kind, in order
    std::vector<Arc> arcs_;     ///< every kind's entries, concatenated
    std::vector<int> degrees_;  ///< width entry counts per kind, in order
    std::vector<uint8_t> potential_;  ///< n_nodes entries, or none
};

}  // namespace gld

#endif  // GLD_DECODE_DECODING_GRAPH_H_
