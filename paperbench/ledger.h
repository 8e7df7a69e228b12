#ifndef GLD_PAPERBENCH_LEDGER_H_
#define GLD_PAPERBENCH_LEDGER_H_

// The traced run: the per-layer ledger of one workload.  Every number is
// taken from outside the library, around calls to each layer's public
// functions — the runner with a telemetry::Collector attached and a
// timing decorator around the PolicyFactory, plus replays of captured
// rounds, schedules and syndromes through Policy::observe,
// BatchSimulator::run_round_batch and UnionFindDecoder::decode alone.

#include <string>
#include <vector>

#include "workload.h"

namespace paperbench {

/** One named measurement with its unit. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct LedgerResult {
    std::vector<Metric> metrics;
    /** Metrics of every repetition (warm-up first), for the identity
     *  check. */
    std::vector<gld::Metrics> reps;
    /** Empty when replayed policy decisions reproduce the captured
     *  schedules exactly; otherwise what differed. */
    std::string replay_mismatch;
};

/** Runs the traced measurements of `w` within about `seconds`. */
LedgerResult run_ledger(const Workload& w, const gld::ExperimentConfig& cfg,
                        double seconds);

}  // namespace paperbench

#endif  // GLD_PAPERBENCH_LEDGER_H_
