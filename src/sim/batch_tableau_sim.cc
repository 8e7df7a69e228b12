#include "sim/batch_tableau_sim.h"

namespace gld {

BatchTableauSim::BatchTableauSim(const CssCode& code, const RoundCircuit& rc,
                                 const NoiseParams& np, uint64_t seed,
                                 int batch_words, NoiseSampling noise_sampling)
    // Same seed derivation shape as TableauLeakSim: the driver's noise
    // draws come from split(0) of the one seed, the tableaux's random
    // projection outcomes from per-lane splits under split(1) — disjoint
    // streams, one seed fixes the whole batch sequence.
    : BatchLeakageDriverSim(code, rc, np,
                            Rng(Rng(seed).split(0).next_u64()), this,
                            batch_words, noise_sampling)
{
    const int max_lanes = driver().n_words() * kBatchLanes;
    Rng tab_master = Rng(seed).split(1);
    tabs_.reserve(static_cast<size_t>(max_lanes));
    for (int l = 0; l < max_lanes; ++l)
        tabs_.emplace_back(
            code.n_qubits(),
            tab_master.split(static_cast<uint64_t>(l)).next_u64());
}

void
BatchTableauSim::reset_for_block(uint64_t seed)
{
    // Driver first (its reset_state pass re-identities the tableaux but
    // keeps their streams), then reseed each lane's projection stream —
    // after both, every lane is exactly a fresh construction's.
    driver_.reset_for_block(Rng(Rng(seed).split(0).next_u64()));
    Rng tab_master = Rng(seed).split(1);
    for (size_t l = 0; l < tabs_.size(); ++l)
        tabs_[l].reseed(tab_master.split(static_cast<uint64_t>(l)).next_u64());
}

void
BatchTableauSim::reset_state()
{
    // reset_all keeps each lane's projection stream running (scalar
    // contract), so a sequence of batches is deterministic from the seed.
    // Every lane resets — including padding lanes of a partial batch —
    // so lane l's tableau history depends only on the batch count, never
    // on earlier batches' widths.
    for (TableauSim& t : tabs_)
        t.reset_all();
}

void
BatchTableauSim::apply_pauli(int q, const LaneMask* xs, const LaneMask* zs)
{
    const int W = driver().n_words();
    for_each_lane(xs, W, [&](int l) { tabs_[static_cast<size_t>(l)].x(q); });
    for_each_lane(zs, W, [&](int l) { tabs_[static_cast<size_t>(l)].z(q); });
}

void
BatchTableauSim::coherent_cnot(int control, int target,
                               const LaneMask* lanes)
{
    for_each_lane(lanes, driver().n_words(), [&](int l) {
        tabs_[static_cast<size_t>(l)].cnot(control, target);
    });
}

void
BatchTableauSim::hadamard(int q, const LaneMask* lanes)
{
    for_each_lane(lanes, driver().n_words(),
                  [&](int l) { tabs_[static_cast<size_t>(l)].h(q); });
}

void
BatchTableauSim::reset_z(int q, const LaneMask* lanes)
{
    for_each_lane(lanes, driver().n_words(),
                  [&](int l) { tabs_[static_cast<size_t>(l)].reset_z(q); });
}

void
BatchTableauSim::measure_z(int q, LaneMask* out)
{
    // Measure EVERY active lane — the contract permits collapsing lanes
    // whose outcome the driver will discard (leaked lanes), and measuring
    // unconditionally keeps each lane's projection-stream draw count a
    // function of the circuit alone.
    const int W = driver().n_words();
    const int n = driver().n_lanes();
    for (int w = 0; w * kBatchLanes < n; ++w) {
        const int base = w * kBatchLanes;
        const int lim =
            n - base < kBatchLanes ? n - base : kBatchLanes;
        LaneMask m = 0;
        for (int b = 0; b < lim; ++b) {
            if (tabs_[static_cast<size_t>(base + b)].measure_z(q))
                m |= 1ull << b;
        }
        out[w] = m;
    }
    for (int w = (n + kBatchLanes - 1) / kBatchLanes; w < W; ++w)
        out[w] = 0;
}

void
BatchTableauSim::park_leaked(int q, const LaneMask* lanes)
{
    // Collapse the departing qubit in Z per lane, exactly like the scalar
    // exact backend, so each remaining stabilizer state stays well-defined
    // while the qubit sits in |2>.
    for_each_lane(lanes, driver().n_words(), [&](int l) {
        tabs_[static_cast<size_t>(l)].measure_z(q);
    });
}

}  // namespace gld
