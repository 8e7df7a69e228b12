#include "core/policy_static.h"

#include <algorithm>

#include "circuit/schedule.h"

namespace gld {

void
AlwaysLrcPolicy::observe_batch(int, const RoundWords& in, LrcWords* out)
{
    std::fill(out->data.begin(), out->data.end(), in.active);
    std::fill(out->checks.begin(), out->checks.end(), in.active);
}

StaggeredLrcPolicy::StaggeredLrcPolicy(const CodeContext& ctx)
    : WordPolicy(ctx)
{
    const CssCode& code = ctx.code();
    const int n = code.n_qubits();
    // Conflict graph: qubits interacting through a common check — the
    // check's ancilla with each of its data qubits, and the data qubits of
    // a check pairwise ("adjacent or diagonally neighbouring", §3.5).
    std::vector<std::pair<int, int>> edges;
    for (int c = 0; c < code.n_checks(); ++c) {
        const auto& sup = code.check(c).support;
        const int anc = code.ancilla_of(c);
        for (size_t i = 0; i < sup.size(); ++i) {
            edges.emplace_back(anc, sup[i]);
            for (size_t j = i + 1; j < sup.size(); ++j)
                edges.emplace_back(sup[i], sup[j]);
        }
    }
    colors_ = GreedyVertexColoring::color(n, edges, &n_colors_);
}

void
StaggeredLrcPolicy::observe_batch(int round, const RoundWords& in,
                                  LrcWords* out)
{
    // The group LRC'd at the START of round (round + 1).
    const int group = (round + 1) % n_colors_;
    const CssCode& code = ctx_->code();
    for (int q = 0; q < code.n_data(); ++q) {
        if (colors_[static_cast<size_t>(q)] == group)
            out->data[static_cast<size_t>(q)] = in.active;
    }
    for (int c = 0; c < code.n_checks(); ++c) {
        if (colors_[static_cast<size_t>(code.ancilla_of(c))] == group)
            out->checks[static_cast<size_t>(c)] = in.active;
    }
}

}  // namespace gld
