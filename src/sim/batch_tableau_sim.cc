#include "sim/batch_tableau_sim.h"

#include "sim/lane_span.h"

namespace gld {

BatchTableauSim::BatchTableauSim(const CssCode& code, const RoundCircuit& rc,
                                 const NoiseParams& np, uint64_t seed,
                                 NoiseSampling noise_sampling)
    // Same seed derivation shape as TableauLeakSim: the driver's noise
    // draws come from split(0) of the one seed, the tableaux's random
    // projection outcomes from per-lane splits under split(1) — disjoint
    // streams, one seed fixes the whole batch sequence.
    : BatchLeakageDriverSim(code, rc, np,
                            Rng(Rng(seed).split(0).next_u64()), this,
                            noise_sampling)
{
    Rng tab_master = Rng(seed).split(1);
    tabs_.reserve(kBatchLanes);
    for (int l = 0; l < kBatchLanes; ++l)
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
BatchTableauSim::apply_pauli(int q, LaneMask xs, LaneMask zs)
{
    for_each_lane(xs, [&](int l) { tabs_[static_cast<size_t>(l)].x(q); });
    for_each_lane(zs, [&](int l) { tabs_[static_cast<size_t>(l)].z(q); });
}

void
BatchTableauSim::coherent_cnot(int control, int target, LaneMask lanes)
{
    for_each_lane(lanes, [&](int l) {
        tabs_[static_cast<size_t>(l)].cnot(control, target);
    });
}

void
BatchTableauSim::hadamard(int q, LaneMask lanes)
{
    for_each_lane(lanes, [&](int l) { tabs_[static_cast<size_t>(l)].h(q); });
}

void
BatchTableauSim::reset_z(int q, LaneMask lanes)
{
    for_each_lane(lanes,
                  [&](int l) { tabs_[static_cast<size_t>(l)].reset_z(q); });
}

LaneMask
BatchTableauSim::measure_z(int q)
{
    // Measure EVERY active lane — the contract permits collapsing lanes
    // whose outcome the driver will discard (leaked lanes), and measuring
    // unconditionally keeps each lane's projection-stream draw count a
    // function of the circuit alone.
    LaneMask m = 0;
    for (int l = 0; l < driver().n_lanes(); ++l) {
        if (tabs_[static_cast<size_t>(l)].measure_z(q))
            m |= 1ull << l;
    }
    return m;
}

void
BatchTableauSim::park_leaked(int q, LaneMask lanes)
{
    // Collapse the departing qubit in Z per lane, exactly like the scalar
    // exact backend, so each remaining stabilizer state stays well-defined
    // while the qubit sits in |2>.
    for_each_lane(lanes, [&](int l) {
        tabs_[static_cast<size_t>(l)].measure_z(q);
    });
}

}  // namespace gld
