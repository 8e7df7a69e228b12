#ifndef GLD_SIM_BATCH_FRAME_SIM_H_
#define GLD_SIM_BATCH_FRAME_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/batch_driver.h"
#include "util/rng.h"

namespace gld {

/**
 * Bit-packed Pauli-frame backend: batch_words * kBatchLanes Monte-Carlo
 * shots per batch, one K-word X/Z frame span per qubit, driven in
 * lockstep by the BatchLeakageDriver.
 *
 * Each primitive is a K-word strip of AND/XOR operations serving up to
 * 64*K shots at once — the classic batch frame-simulator speedup.  Under
 * lockstep sampling the per-lane noise streams keep every lane
 * bit-identical to the scalar `frame` backend's corresponding shot (same
 * master Rng(seed), same split-per-shot derivation, at every K), so
 * `Metrics` produced through the scheduler's batch path are bit-identical
 * to the scalar frame backend's — the tier-1 cross-backend gate.  Under
 * the default sparse sampling they agree statistically (the verify
 * referee).
 *
 * Frame semantics per primitive match LeakFrameSim lane for lane:
 * measure_z reads the X-frame words without disturbing them, park_leaked
 * is a no-op (a leaked lane's frame freezes because the driver stops
 * routing coherent gates at it), and an LRC preserves the serviced lane's
 * frame.
 */
class BatchFrameSim final : public BatchLeakageDriverSim {
  public:
    BatchFrameSim(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, uint64_t seed, int batch_words = 1,
                  NoiseSampling noise_sampling = NoiseSampling::kLockstep);

    std::string name() const override { return "batch_frame"; }

  private:
    // --- BatchStatePrimitives over the packed X/Z frame spans. ---
    void reset_state() override;
    void apply_pauli(int q, const LaneMask* xs, const LaneMask* zs) override;
    void coherent_cnot(int control, int target,
                       const LaneMask* lanes) override;
    void hadamard(int q, const LaneMask* lanes) override;
    void reset_z(int q, const LaneMask* lanes) override;
    void measure_z(int q, LaneMask* out) override;
    void park_leaked(int q, const LaneMask* lanes) override;

    int words_;                 ///< span width (driver().n_words())
    std::vector<LaneMask> fx_;  ///< X-frame span per qubit (entry q*W+w)
    std::vector<LaneMask> fz_;  ///< Z-frame span per qubit
};

}  // namespace gld

#endif  // GLD_SIM_BATCH_FRAME_SIM_H_
