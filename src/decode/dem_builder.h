#ifndef GLD_DECODE_DEM_BUILDER_H_
#define GLD_DECODE_DEM_BUILDER_H_

#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "decode/decoding_graph.h"
#include "noise/noise_model.h"

namespace gld {

/**
 * Detector-error-model builder: enumerates the single Pauli faults of the
 * noisy syndrome-extraction circuit and assembles the space-time decoding
 * graph over Z-type detectors for a memory-Z experiment.
 *
 * Data frames are static after a round, so one template round plus the
 * steady-state parity determines every fault's space-time footprint.
 * The template comes from one backward pass over the round's ops (as
 * Stim builds its detector error model), keeping per qubit the set of
 * outputs an X or a Z there would flip; a fault's footprint is the XOR
 * of the sets its Pauli picks.  The graph is tiled: layer 0, the bulk
 * layers and the final layer each get their edge list once, sorted by
 * (u, v) with the boundary last, and build() hands the three tiles to
 * DecodingGraph as the segments [layer 0 x1, bulk x(rounds - 1), final
 * x1].  Nothing is emitted per round: cost O(ops * W + tile edges), W
 * the words of a 2 * nz + 1 output bitset, and the graph's size does
 * not grow with the round count beyond one potential byte per node.
 *
 * Faults flipping one detector become boundary edges, two an internal
 * edge; rarer hook faults flipping more are dropped (counted in
 * dropped_hyperedges()) — the union-find decoder operates on graph edges,
 * as is standard.  Leakage is deliberately NOT modeled: the decoder is
 * leakage-unaware (the paper's premise), leakage enters only through the
 * corrupted syndromes the simulator produces.
 */
class DemBuilder {
  public:
    /**
     * Throws std::invalid_argument naming `rounds` when it is negative
     * or the node count (rounds + 1) * nz passes DecodingGraph::kMaxNodes
     * (checked in 64 bits, before anything is allocated).
     */
    DemBuilder(const CssCode& code, const RoundCircuit& rc,
               const NoiseParams& np, int rounds);

    /** Number of Z-type checks (detector columns). */
    int nz() const { return static_cast<int>(z_checks_.size()); }
    /** Total detector nodes: `rounds` syndrome layers + 1 final layer. */
    int n_nodes() const { return (rounds_ + 1) * nz(); }
    /** Node id of Z-detector column zidx at layer (round) `layer`. */
    int node_id(int layer, int zidx) const { return layer * nz() + zidx; }
    /** Z-column of check c, or -1 if c is an X check. */
    int z_index(int check) const { return z_index_[check]; }

    /**
     * Builds the deduplicated decoding graph, edges sorted by (u, v) with
     * boundary edges last at their u.  Each edge's probability sums its
     * faults round by round in template order, then the final readout.
     * Throws std::invalid_argument naming `rounds` when the edge count
     * (or the dropped-fault count) passes the int range; the counts are
     * taken from the three tiles, before the graph is allocated.
     */
    DecodingGraph build();

    int dropped_hyperedges() const { return dropped_; }

    /**
     * A single fault's footprint on the Z-detector template: flips at
     * (layer offset 0/1, z column), plus the logical-observable flip.
     */
    struct TemplateFault {
        std::vector<std::pair<int, int>> dets;
        bool logical;
        double prob;
    };
    /** The per-round fault templates (exposed for tests). */
    const std::vector<TemplateFault>& template_faults();

  private:
    void enumerate_template();
    /**
     * The tile of one layer: the edges whose lower end lies in it, with
     * endpoints relative to it, sorted, from the faults of the round
     * before it (prev_round), of its own round (own_round) and the given
     * final-readout faults.
     */
    std::vector<GraphEdge> layer_edges(
        bool prev_round, bool own_round,
        const std::vector<TemplateFault>& readout) const;

    const CssCode* code_;
    const RoundCircuit* rc_;
    NoiseParams np_;
    int rounds_;
    std::vector<int> z_checks_;
    std::vector<int> z_index_;
    std::vector<uint8_t> logical_mask_;
    std::vector<TemplateFault> template_faults_;
    bool template_built_ = false;
    int dropped_ = 0;
};

}  // namespace gld

#endif  // GLD_DECODE_DEM_BUILDER_H_
