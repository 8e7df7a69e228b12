#ifndef GLD_PAPERBENCH_WORKLOAD_H_
#define GLD_PAPERBENCH_WORKLOAD_H_

// The paper-workload benchmark's shared layer: the workload table, the
// resolved ExperimentConfig of each workload, the timed setup, and the
// correctness checks every run applies to its Metrics.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "codes/surface_code.h"
#include "io/json.h"
#include "runtime/experiment.h"

namespace paperbench {

/** One benchmark workload: a paper configuration plus its timing size. */
struct Workload {
    const char* name;
    int distance;
    int rounds;
    bool eraser;  ///< ERASER+M; otherwise GLADIATOR+M
    bool compute_ler;
    bool leakage_sampling;
    bool record_dlp_series;
    int threads;
    int shots;  ///< shots per timed repetition
};

/** Data qubits of the workload's rotated surface code. */
inline int
n_data(const Workload& w)
{
    return w.distance * w.distance;
}

/** The workload table (README.md explains each choice). */
const std::vector<Workload>& workloads();
/** Looks a workload up by name; nullptr when unknown. */
const Workload* find_workload(const std::string& name);

/** CPUs this process may run on (sched_getaffinity). */
int usable_cpus();

/**
 * The workload's resolved config.  Built here from library defaults only:
 * no GLD_* variable is consulted, so backend, K, noise sampling and
 * threads are exactly what the table and the library say.
 */
gld::ExperimentConfig make_config(const Workload& w, uint64_t seed);

/** Policy name as the paper writes it. */
const char* policy_name(const Workload& w);
gld::PolicyFactory make_factory(const Workload& w, const gld::NoiseParams& np);

/** Code + circuit + context, heap-pinned (members point at each other). */
struct CodeBundle {
    gld::CssCode code;
    gld::RoundCircuit rc;
    gld::CodeContext ctx;

    explicit CodeBundle(gld::CssCode c)
        : code(std::move(c)), rc(code),
          ctx(code, rc, gld::CodeContext::default_scope(code))
    {
    }
};

/** Everything a timed run needs, built by the timed setup. */
struct Prepared {
    std::unique_ptr<CodeBundle> bundle;
    gld::PolicyFactory factory;
    std::unique_ptr<gld::ExperimentRunner> runner;
};

/**
 * The benchmark's set-up: code, circuit and context build, the policy
 * factory with its pattern tables built up front (GLADIATOR builds them
 * lazily at first use otherwise), and runner construction (the DEM when
 * LER is on).
 */
Prepared prepare(const Workload& w, const gld::ExperimentConfig& cfg);

/** Monotonic seconds. */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of a non-empty sample (copied). */
double median(std::vector<double> v);

/**
 * The q-quantile (0 <= q <= 1) of a non-empty sample (copied), linearly
 * interpolated between order statistics.
 */
double quantile(std::vector<double> v, double q);

/**
 * Reference agreement: LER, FN, FP and DLP of `m` against the rates
 * recorded for this workload in reference.json, by pooled two-proportion
 * z-tests with a Šidák-corrected family-wise alpha.  `detail` receives one
 * line per test.  Returns true when no test rejects.
 */
bool matches_reference(const gld::Metrics& m, const gld::io::Json& ref,
                       int n_data, std::string* detail);

/** `m` with its FN, FP, DLP and logical-error totals scaled by `factor`. */
gld::Metrics perturbed(const gld::Metrics& m, double factor);

/** The reference samples of `m`, as reference.json stores them. */
gld::io::Json reference_entry(const gld::Metrics& m, int n_data);

}  // namespace paperbench

#endif  // GLD_PAPERBENCH_WORKLOAD_H_
