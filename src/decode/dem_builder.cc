#include "decode/dem_builder.h"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace gld {

namespace {

// Pauli encoding for injections: bit 0 = X component, bit 1 = Z component.
constexpr int kPauliX = 1;
constexpr int kPauliZ = 2;
constexpr int kPauliY = 3;

/** Faults the graph cannot hold: hyperedges and undetectable logicals. */
bool
is_dropped(size_t n_dets, bool logical)
{
    return n_dets > 2 || (n_dets == 0 && logical);
}

}  // namespace

DemBuilder::DemBuilder(const CssCode& code, const RoundCircuit& rc,
                       const NoiseParams& np, int rounds)
    : code_(&code), rc_(&rc), np_(np), rounds_(rounds)
{
    z_index_.assign(code.n_checks(), -1);
    for (int c = 0; c < code.n_checks(); ++c) {
        if (code.check(c).type == CheckType::kZ) {
            z_index_[c] = static_cast<int>(z_checks_.size());
            z_checks_.push_back(c);
        }
    }
    // The node count in 64 bits: (rounds + 1) * nz must fit the graph.
    const long long nodes =
        (static_cast<long long>(rounds) + 1) * static_cast<long long>(nz());
    if (rounds < 0 || nodes > DecodingGraph::kMaxNodes)
        throw std::invalid_argument(
            "DemBuilder: rounds = " + std::to_string(rounds) + " gives " +
            std::to_string(nodes) + " nodes, outside [0, " +
            std::to_string(DecodingGraph::kMaxNodes) + "]");
    logical_mask_.assign(code.n_data(), 0);
    for (int q : code.logical_z())
        logical_mask_[q] ^= 1;
}

void
DemBuilder::enumerate_template()
{
    if (template_built_)
        return;
    template_built_ = true;
    const auto& ops = rc_->ops();
    const double p = np_.p;

    // The outputs a fault can flip, as one bitset of w words: words
    // [0, wm) the Z checks' measurements m, words [wm, 2 wm) their
    // steady-state parities s (what every later round measures), word
    // 2 wm bit 0 the logical.  Detector (0, zi) reads m, (1, zi) m ^ s.
    const size_t wm = (z_checks_.size() + 63) / 64;
    const size_t w = 2 * wm + 1;
    // sx / sz: per qubit, the outputs an X / Z there flips from the
    // current point of the round on.  At the round's end that is the
    // Z checks' parities and the logical for an X on a data qubit.
    std::vector<uint64_t> sx(static_cast<size_t>(code_->n_qubits()) * w, 0);
    std::vector<uint64_t> sz(sx.size(), 0);
    auto set_of = [w](std::vector<uint64_t>& s, int q) {
        return s.data() + static_cast<size_t>(q) * w;
    };
    auto flip = [](uint64_t* set, size_t bit) {
        set[bit / 64] ^= uint64_t{1} << (bit % 64);
    };
    for (size_t zi = 0; zi < z_checks_.size(); ++zi) {
        for (int q : code_->check(z_checks_[zi]).support)
            flip(set_of(sx, q), wm * 64 + zi);
    }
    for (int q = 0; q < code_->n_data(); ++q) {
        if (logical_mask_[q])
            flip(set_of(sx, q), 2 * wm * 64);
    }

    // One w-word footprint per fault.  The walk runs backwards, so op i's
    // faults land in spans[i]; spans[ops.size()] holds the round start's.
    std::vector<uint64_t> rows;
    std::vector<double> probs;
    std::vector<std::pair<size_t, size_t>> spans(ops.size() + 1);
    auto fault = [&](int q, int pauli, double prob) {
        const uint64_t* x = set_of(sx, q);
        const uint64_t* z = set_of(sz, q);
        for (size_t k = 0; k < w; ++k)
            rows.push_back((pauli & kPauliX ? x[k] : 0) ^
                           (pauli & kPauliZ ? z[k] : 0));
        probs.push_back(prob);
    };
    for (size_t i = ops.size(); i-- > 0;) {
        const Op& op = ops[i];
        const size_t first = probs.size();
        // Faults just after op i: the sets stand between ops i and i + 1.
        switch (op.type) {
          case OpType::kResetZ:
            fault(op.q0, kPauliX, p);
            break;
          case OpType::kH:
            for (int pauli : {kPauliX, kPauliZ, kPauliY})
                fault(op.q0, pauli, p / 3.0);
            break;
          case OpType::kCnot:
            // Marginal single-qubit components of the two-qubit
            // depolarizing channel (4/15 each); correlated pairs are left
            // to the simulator and absorbed as independent edges.
            for (int pauli : {kPauliX, kPauliZ, kPauliY}) {
                fault(op.q0, pauli, 4.0 * p / 15.0);
                fault(op.q1, pauli, 4.0 * p / 15.0);
            }
            break;
          case OpType::kMeasure: {
            const int zi = z_index_[op.mslot];
            if (zi >= 0) {
                rows.resize(rows.size() + w, 0);
                flip(rows.data() + rows.size() - w, static_cast<size_t>(zi));
                probs.push_back(p);
            }
            break;
          }
        }
        spans[i] = {first, probs.size()};
        // Step the sets back across op i.
        uint64_t* x0 = set_of(sx, op.q0);
        uint64_t* z0 = set_of(sz, op.q0);
        switch (op.type) {
          case OpType::kResetZ:
            std::fill_n(x0, w, 0);
            std::fill_n(z0, w, 0);
            break;
          case OpType::kH:
            std::swap_ranges(x0, x0 + w, z0);
            break;
          case OpType::kCnot: {
            const uint64_t* xt = set_of(sx, op.q1);
            uint64_t* zt = set_of(sz, op.q1);
            for (size_t k = 0; k < w; ++k) {
                x0[k] ^= xt[k];
                zt[k] ^= z0[k];
            }
            break;
          }
          case OpType::kMeasure:
            if (z_index_[op.mslot] >= 0)
                flip(x0, static_cast<size_t>(z_index_[op.mslot]));
            break;
        }
    }
    // Round-start data depolarization.
    const size_t first = probs.size();
    for (int q = 0; q < code_->n_data(); ++q) {
        for (int pauli : {kPauliX, kPauliZ, kPauliY})
            fault(q, pauli, p / 3.0);
    }
    spans[ops.size()] = {first, probs.size()};

    // Emit in forward order (round start, then op by op), dropping
    // no-op faults.
    auto emit = [&](std::pair<size_t, size_t> span) {
        for (size_t f = span.first; f < span.second; ++f) {
            const uint64_t* row = rows.data() + f * w;
            TemplateFault tf;
            tf.prob = probs[f];
            tf.logical = (row[2 * wm] & 1) != 0;
            for (size_t k = 0; k < wm; ++k) {
                for (uint64_t b = row[k]; b != 0; b &= b - 1)
                    tf.dets.emplace_back(
                        0, static_cast<int>(k * 64) + __builtin_ctzll(b));
            }
            for (size_t k = 0; k < wm; ++k) {
                for (uint64_t b = row[k] ^ row[wm + k]; b != 0; b &= b - 1)
                    tf.dets.emplace_back(
                        1, static_cast<int>(k * 64) + __builtin_ctzll(b));
            }
            if (!tf.dets.empty() || tf.logical)
                template_faults_.push_back(std::move(tf));
        }
    };
    emit(spans[ops.size()]);
    for (size_t i = 0; i < ops.size(); ++i)
        emit(spans[i]);
}

const std::vector<DemBuilder::TemplateFault>&
DemBuilder::template_faults()
{
    enumerate_template();
    return template_faults_;
}

std::vector<GraphEdge>
DemBuilder::layer_edges(bool prev_round, bool own_round,
                        const std::vector<TemplateFault>& readout) const
{
    // Nodes relative to layer L: [0, nz) is layer L, [nz, 2 nz) layer
    // L + 1, 2 nz the boundary (so it sorts last).  Layer L holds the
    // edges whose lower end is in it: round L - 1's faults that flip only
    // layer L, then round L's faults, then the final readout — the order
    // in which each edge's probability is summed.
    const int nz = this->nz();
    const int boundary = 2 * nz;
    std::vector<GraphEdge> hits;
    auto add = [&](const TemplateFault& tf, int shift) {
        int u = tf.dets[0].first * nz + tf.dets[0].second - shift;
        int v = tf.dets.size() == 2
                    ? tf.dets[1].first * nz + tf.dets[1].second - shift
                    : boundary;
        if (u > v)
            std::swap(u, v);
        hits.push_back({u, v, tf.logical, tf.prob});
    };
    for (const bool from_prev : {true, false}) {
        if (!(from_prev ? prev_round : own_round))
            continue;
        for (const TemplateFault& tf : template_faults_) {
            if (tf.dets.empty() || tf.dets.size() > 2)
                continue;
            // dets are sorted, so the first one says whether the fault
            // reaches offset 0 of its round.
            if ((tf.dets[0].first == 1) == from_prev)
                add(tf, from_prev ? nz : 0);
        }
    }
    for (const TemplateFault& tf : readout) {
        if (!tf.dets.empty() && tf.dets.size() <= 2)
            add(tf, 0);
    }

    // Sum each edge's hits in arrival order, split by logical parity.
    std::stable_sort(hits.begin(), hits.end(),
                     [](const GraphEdge& a, const GraphEdge& b) {
                         return a.u != b.u ? a.u < b.u : a.v < b.v;
                     });
    std::vector<GraphEdge> edges;
    for (size_t i = 0; i < hits.size();) {
        double plain = 0.0;
        double logical = 0.0;
        size_t j = i;
        for (; j < hits.size() && hits[j].u == hits[i].u &&
               hits[j].v == hits[i].v;
             ++j)
            (hits[j].logical ? logical : plain) += hits[j].prob;
        // Keep the more probable logical attribution for this edge.
        edges.push_back({hits[i].u,
                         hits[i].v == boundary ? GraphEdge::kBoundary
                                               : hits[i].v,
                         logical > plain, plain + logical});
        i = j;
    }
    return edges;
}

DecodingGraph
DemBuilder::build()
{
    enumerate_template();

    // Final transversal-readout flips, at offset 0 of the final layer.
    std::vector<TemplateFault> readout(code_->n_data());
    for (int q = 0; q < code_->n_data(); ++q) {
        TemplateFault& tf = readout[q];
        for (int c : code_->data_adjacency()[q]) {
            if (z_index_[c] >= 0)
                tf.dets.emplace_back(0, z_index_[c]);
        }
        tf.logical = logical_mask_[q] != 0;
        tf.prob = np_.p;
    }
    long long per_round = 0;
    for (const TemplateFault& tf : template_faults_)
        per_round += is_dropped(tf.dets.size(), tf.logical);
    long long dropped = rounds_ * per_round;
    for (const TemplateFault& tf : readout)
        dropped += is_dropped(tf.dets.size(), tf.logical);

    // Layer 0 has no earlier round, the final layer no round of its own;
    // every bulk layer is the same tile.  Nothing here grows with rounds.
    const std::vector<TemplateFault> none;
    std::vector<DecodingGraph::Segment> segments;
    if (rounds_ > 0)
        segments.push_back({layer_edges(false, true, none), 1});
    if (rounds_ > 1)
        segments.push_back({layer_edges(true, true, none), rounds_ - 1});
    segments.push_back({layer_edges(rounds_ > 0, false, readout), 1});

    long long edges = 0;
    for (const DecodingGraph::Segment& s : segments)
        edges += static_cast<long long>(s.layers) *
                 static_cast<long long>(s.tile.size());
    if (edges > INT_MAX || dropped > INT_MAX)
        throw std::invalid_argument(
            "DemBuilder: rounds = " + std::to_string(rounds_) + " gives " +
            std::to_string(edges) + " edges and " + std::to_string(dropped) +
            " dropped faults, more than the int id range");
    dropped_ = static_cast<int>(dropped);
    return DecodingGraph::layered(nz(), std::move(segments));
}

}  // namespace gld
