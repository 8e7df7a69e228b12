#ifndef GLD_TESTS_ONE_LANE_H_
#define GLD_TESTS_ONE_LANE_H_

// A lone shot is a one-lane batch: these run lane 0 of a simulator's
// current batch through the per-lane entries and hand back lane 0's
// result, so a single-shot test reads as one call per round.

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace gld {
namespace test {

/** One round of lane 0 with `sched` (none by default). */
inline RoundResult
lane0_round(BatchSimulator& sim, const LrcSchedule& sched = {})
{
    std::vector<RoundResult> out;
    sim.run_round_batch({sched}, &out);
    return out[0];
}

/** Lane 0's final transversal readout flips. */
inline std::vector<uint8_t>
lane0_readout(BatchSimulator& sim)
{
    std::vector<std::vector<uint8_t>> out;
    sim.final_data_measure_batch(&out);
    return out[0];
}

}  // namespace test
}  // namespace gld

#endif  // GLD_TESTS_ONE_LANE_H_
