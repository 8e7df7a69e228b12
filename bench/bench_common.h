#ifndef GLD_BENCH_BENCH_COMMON_H_
#define GLD_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "codes/bpc_code.h"
#include "codes/color_code.h"
#include "codes/hgp_code.h"
#include "codes/surface_code.h"
#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "hw/timing_model.h"
#include "runtime/experiment.h"
#include "util/config.h"
#include "util/table.h"

namespace gld {
namespace bench {

/** A code + circuit + context bundle, kept alive together. */
struct CodeBundle {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit CodeBundle(CssCode c)
        : code(std::move(c)), rc(code),
          ctx(code, rc, CodeContext::default_scope(code))
    {
    }
};

inline std::unique_ptr<CodeBundle>
surface(int d)
{
    return std::make_unique<CodeBundle>(SurfaceCode::make(d));
}

inline std::unique_ptr<CodeBundle>
color(int d)
{
    return std::make_unique<CodeBundle>(ColorCode::make(d));
}

/** Prints the standard bench banner with shot scaling info. */
void banner(const std::string& title, const std::string& paper_ref);

/**
 * Applies the environment knobs every generator honours to a config:
 * threads from GLD_THREADS (default: hardware concurrency, so the bench
 * gates exercise the chunked scheduler at full width), the backend from
 * GLD_BACKEND (backend_from_env()), the batch width from
 * GLD_BATCH_WORDS (batch_words_from_env()) and the noise sampling mode
 * from GLD_NOISE_SAMPLING (noise_sampling_from_env()).  Shot counts stay
 * per-bench (BenchConfig::shots).
 */
void apply_env(ExperimentConfig* cfg);

/** Named policy entry for sweep tables. */
struct NamedPolicy {
    std::string name;
    PolicyFactory factory;
};

/** The standard policy lineup at a given noise point. */
std::vector<NamedPolicy> paper_policies(const NoiseParams& np);

}  // namespace bench
}  // namespace gld

#endif  // GLD_BENCH_BENCH_COMMON_H_
