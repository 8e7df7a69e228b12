#ifndef GLD_SIM_BATCH_TABLEAU_SIM_H_
#define GLD_SIM_BATCH_TABLEAU_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/batch_driver.h"
#include "sim/tableau_sim.h"
#include "util/rng.h"

namespace gld {

/**
 * Lockstep exact-stabilizer backend: kBatchLanes (64) independent CHP
 * tableaux behind the BatchLeakageDriver, one per lane.
 *
 * The per-measurement cost is still the tableau's O(n^2) per lane — the
 * state itself cannot be bit-packed across shots — but the whole per-round
 * noise machinery (the noise sampler, the leak-plane masks, the tile
 * transpose, the scheduler's word-wide FN/DLP accounting) is amortized
 * over the batch exactly as for batch_frame, so exact-mode campaigns batch
 * too.
 *
 * Semantics notes (mirroring TableauLeakSim, the scalar exact backend):
 *  - measure_z reports ACTUAL measurement outcomes per lane.  The masked
 *    measure_z contract explicitly permits collapsing every lane — leaked
 *    lanes' outcomes are discarded by the driver, but the collapse is
 *    harmless and keeps all lanes in lockstep.
 *  - park_leaked collapses the departing qubit in Z, per selected lane.
 *  - Like tableau vs frame, batch_tableau draws its projection randomness
 *    from per-lane tableau streams, so it agrees with the other backends
 *    statistically (and on noiseless/injected-fault signatures), never
 *    bit-for-bit — its own RNG contract group in the backend table.
 */
class BatchTableauSim final : public BatchLeakageDriverSim,
                              private BatchStatePrimitives {
  public:
    BatchTableauSim(const CssCode& code, const RoundCircuit& rc,
                    const NoiseParams& np, uint64_t seed,
                    NoiseSampling noise_sampling = NoiseSampling::kLockstep);

    std::string name() const override { return "batch_tableau"; }

    /** Reuse reset: re-derive the driver master from split(0) and every
     *  lane's projection stream from per-lane splits under split(1),
     *  exactly the constructor's derivation. */
    void reset_for_block(uint64_t seed) override;

    /** Lane l's tableau (tests: stabilizer-group assertions). */
    TableauSim& tableau(int lane)
    {
        return tabs_[static_cast<size_t>(lane)];
    }

  private:
    // --- BatchStatePrimitives over one CHP tableau per lane. ---
    void reset_state() override;
    void apply_pauli(int q, LaneMask xs, LaneMask zs) override;
    void coherent_cnot(int control, int target, LaneMask lanes) override;
    void hadamard(int q, LaneMask lanes) override;
    void reset_z(int q, LaneMask lanes) override;
    LaneMask measure_z(int q) override;
    void park_leaked(int q, LaneMask lanes) override;

    std::vector<TableauSim> tabs_;  ///< one exact tableau per lane
};

}  // namespace gld

#endif  // GLD_SIM_BATCH_TABLEAU_SIM_H_
