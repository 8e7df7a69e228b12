#include "sim/batch_frame_sim.h"

namespace gld {

BatchFrameSim::BatchFrameSim(const CssCode& code, const RoundCircuit& rc,
                             const NoiseParams& np, uint64_t seed,
                             NoiseSampling noise_sampling)
    // Same master stream as LeakFrameSim(seed): under lockstep sampling
    // lane l of batch b is bit-identical to the scalar frame backend's
    // shot 64*b + l.  Sparse sampling derives
    // its event stream from the same master but draws a different
    // sequence (its own RNG contract; qualified statistically).  No
    // primitives: the driver runs its inline Pauli frame.
    : BatchLeakageDriverSim(code, rc, np, Rng(seed), nullptr,
                            noise_sampling)
{
}

}  // namespace gld
