// Test-only reference: the detector-error-model builder as it stood
// before the one-pass backward template and the tiled edge emission,
// kept verbatim in behaviour (one forward walk per template fault, every
// fault of every round summed into a hash map keyed by (u, v)).
// tests/test_dem_equivalence.cc requires the production DemBuilder to
// match its template faults, its edge multiset and its dropped count bit
// for bit.  Its edges come out in hash-table order; the production
// builder's come out sorted by (u, v), boundary last.

#ifndef GLD_TESTS_REFERENCE_DEM_H_
#define GLD_TESTS_REFERENCE_DEM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "decode/decoding_graph.h"
#include "decode/dem_builder.h"
#include "noise/noise_model.h"

namespace gld {
namespace testing_ref {

class ReferenceDemBuilder {
  public:
    using TemplateFault = DemBuilder::TemplateFault;

    ReferenceDemBuilder(const CssCode& code, const RoundCircuit& rc,
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
        logical_mask_.assign(code.n_data(), 0);
        for (int q : code.logical_z())
            logical_mask_[q] ^= 1;
        fx_.assign(code.n_qubits(), 0);
        fz_.assign(code.n_qubits(), 0);
        enumerate_template();
    }

    int nz() const { return static_cast<int>(z_checks_.size()); }
    int n_nodes() const { return (rounds_ + 1) * nz(); }
    int node_id(int layer, int zidx) const { return layer * nz() + zidx; }
    int dropped_hyperedges() const { return dropped_; }
    const std::vector<TemplateFault>& template_faults() const
    {
        return template_faults_;
    }

    /** The graph's edges, in the hash map's iteration order. */
    std::vector<GraphEdge> build_edges()
    {
        dropped_ = 0;
        // (u, v) -> prob by logical parity; v == n_nodes() is boundary.
        std::unordered_map<uint64_t, std::pair<double, double>> acc;
        auto add_fault = [&](const std::vector<int>& nodes, bool logical,
                             double prob) {
            if (nodes.empty()) {
                if (logical)
                    ++dropped_;
                return;
            }
            if (nodes.size() > 2) {
                ++dropped_;
                return;
            }
            int u = nodes[0];
            int v = nodes.size() == 2 ? nodes[1] : n_nodes();
            if (u > v)
                std::swap(u, v);
            const uint64_t key =
                (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
            auto& slot = acc[key];
            if (logical)
                slot.second += prob;
            else
                slot.first += prob;
        };

        std::vector<int> nodes;
        for (int r = 0; r < rounds_; ++r) {
            for (const TemplateFault& tf : template_faults_) {
                nodes.clear();
                for (const auto& [layer, zi] : tf.dets)
                    nodes.push_back(node_id(r + layer, zi));
                add_fault(nodes, tf.logical, tf.prob);
            }
        }
        for (int q = 0; q < code_->n_data(); ++q) {
            nodes.clear();
            for (int c : code_->data_adjacency()[q]) {
                if (z_index_[c] >= 0)
                    nodes.push_back(node_id(rounds_, z_index_[c]));
            }
            add_fault(nodes, logical_mask_[q] != 0, np_.p);
        }

        std::vector<GraphEdge> edges;
        edges.reserve(acc.size());
        for (const auto& [key, probs] : acc) {
            const int u = static_cast<int>(key >> 32);
            const int v = static_cast<int>(key & 0xFFFFFFFFu);
            GraphEdge e;
            e.u = u;
            e.v = v == n_nodes() ? GraphEdge::kBoundary : v;
            e.logical = probs.second > probs.first;
            e.prob = probs.first + probs.second;
            edges.push_back(e);
        }
        return edges;
    }

  private:
    static constexpr int kPauliX = 1;
    static constexpr int kPauliZ = 2;
    static constexpr int kPauliY = 3;

    TemplateFault propagate(const std::vector<std::pair<int, int>>& inject,
                            size_t start_op, double prob)
    {
        for (int q : touched_) {
            fx_[q] = 0;
            fz_[q] = 0;
        }
        touched_.clear();
        auto touch = [&](int q) { touched_.push_back(q); };

        for (const auto& [q, pauli] : inject) {
            fx_[q] ^= pauli & 1;
            fz_[q] ^= (pauli >> 1) & 1;
            touch(q);
        }

        std::vector<std::pair<int, uint8_t>> mflips;  // (check, flip)
        const auto& ops = rc_->ops();
        for (size_t i = start_op; i < ops.size(); ++i) {
            const Op& op = ops[i];
            switch (op.type) {
              case OpType::kResetZ:
                fx_[op.q0] = 0;
                fz_[op.q0] = 0;
                break;
              case OpType::kH:
                std::swap(fx_[op.q0], fz_[op.q0]);
                break;
              case OpType::kCnot:
                if (fx_[op.q0]) {
                    fx_[op.q1] ^= 1;
                    touch(op.q1);
                }
                if (fz_[op.q1]) {
                    fz_[op.q0] ^= 1;
                    touch(op.q0);
                }
                break;
              case OpType::kMeasure:
                if (fx_[op.q0])
                    mflips.emplace_back(op.mslot, 1);
                break;
            }
        }

        TemplateFault out;
        out.prob = prob;
        out.logical = false;
        std::vector<std::pair<int, int>> acc;  // (layer, zidx), multiset
        for (const auto& [check, flip] : mflips) {
            if (flip && z_index_[check] >= 0) {
                acc.emplace_back(0, z_index_[check]);
                acc.emplace_back(1, z_index_[check]);
            }
        }
        for (size_t zi = 0; zi < z_checks_.size(); ++zi) {
            uint8_t parity = 0;
            for (int q : code_->check(z_checks_[zi]).support)
                parity ^= fx_[q];
            if (parity)
                acc.emplace_back(1, static_cast<int>(zi));
        }
        for (int q = 0; q < code_->n_data(); ++q) {
            if (fx_[q] && logical_mask_[q])
                out.logical = !out.logical;
        }
        std::sort(acc.begin(), acc.end());
        for (size_t i = 0; i < acc.size();) {
            size_t j = i;
            while (j < acc.size() && acc[j] == acc[i])
                ++j;
            if ((j - i) % 2 == 1)
                out.dets.push_back(acc[i]);
            i = j;
        }
        return out;
    }

    void enumerate_template()
    {
        const auto& ops = rc_->ops();
        const double p = np_.p;
        for (int q = 0; q < code_->n_data(); ++q) {
            for (int pauli : {kPauliX, kPauliZ, kPauliY})
                template_faults_.push_back(
                    propagate({{q, pauli}}, 0, p / 3.0));
        }
        for (size_t i = 0; i < ops.size(); ++i) {
            const Op& op = ops[i];
            switch (op.type) {
              case OpType::kResetZ:
                template_faults_.push_back(
                    propagate({{op.q0, kPauliX}}, i + 1, p));
                break;
              case OpType::kH:
                for (int pauli : {kPauliX, kPauliZ, kPauliY}) {
                    template_faults_.push_back(
                        propagate({{op.q0, pauli}}, i + 1, p / 3.0));
                }
                break;
              case OpType::kCnot:
                for (int pauli : {kPauliX, kPauliZ, kPauliY}) {
                    template_faults_.push_back(propagate(
                        {{op.q0, pauli}}, i + 1, 4.0 * p / 15.0));
                    template_faults_.push_back(propagate(
                        {{op.q1, pauli}}, i + 1, 4.0 * p / 15.0));
                }
                break;
              case OpType::kMeasure: {
                const int zi = z_index_[op.mslot];
                if (zi >= 0) {
                    TemplateFault tf;
                    tf.prob = p;
                    tf.logical = false;
                    tf.dets = {{0, zi}, {1, zi}};
                    template_faults_.push_back(tf);
                }
                break;
              }
            }
        }
        template_faults_.erase(
            std::remove_if(template_faults_.begin(), template_faults_.end(),
                           [](const TemplateFault& tf) {
                               return tf.dets.empty() && !tf.logical;
                           }),
            template_faults_.end());
    }

    const CssCode* code_;
    const RoundCircuit* rc_;
    NoiseParams np_;
    int rounds_;
    std::vector<int> z_checks_;
    std::vector<int> z_index_;
    std::vector<uint8_t> logical_mask_;
    std::vector<TemplateFault> template_faults_;
    int dropped_ = 0;
    std::vector<uint8_t> fx_, fz_;
    std::vector<int> touched_;
};

}  // namespace testing_ref
}  // namespace gld

#endif  // GLD_TESTS_REFERENCE_DEM_H_
