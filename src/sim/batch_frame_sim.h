#ifndef GLD_SIM_BATCH_FRAME_SIM_H_
#define GLD_SIM_BATCH_FRAME_SIM_H_

#include <cstdint>
#include <string>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/batch_driver.h"
#include "util/rng.h"

namespace gld {

/**
 * Bit-packed Pauli-frame backend: kBatchLanes (64) Monte-Carlo shots per
 * batch, one X and one Z frame word per qubit, driven in lockstep by the
 * BatchLeakageDriver.
 *
 * The frame is the driver's own: built without primitives, the driver
 * runs each state update as a few AND/XOR word operations inside its
 * round (no virtual call), serving 64 shots at once — the classic batch
 * frame-simulator speedup.  Under lockstep sampling the per-lane noise
 * streams keep every lane bit-identical to the scalar `frame` backend's
 * corresponding shot (same master Rng(seed), same split-per-shot
 * derivation), so `Metrics`
 * produced through the scheduler's batch path are bit-identical to the
 * scalar frame backend's — the tier-1 cross-backend gate.  Under the
 * default sparse sampling they agree statistically (the verify referee).
 *
 * Frame semantics match LeakFrameSim lane for lane: measure_z reads the
 * X-frame words without disturbing them, park_leaked is a no-op (a
 * leaked lane's frame freezes because the driver stops routing coherent
 * gates at it), and an LRC preserves the serviced lane's frame.
 */
class BatchFrameSim final : public BatchLeakageDriverSim {
  public:
    BatchFrameSim(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, uint64_t seed,
                  NoiseSampling noise_sampling = NoiseSampling::kLockstep);

    std::string name() const override { return "batch_frame"; }
};

}  // namespace gld

#endif  // GLD_SIM_BATCH_FRAME_SIM_H_
