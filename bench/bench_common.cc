#include "bench_common.h"

#include <cstdio>

namespace gld {
namespace bench {

void
banner(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("Shot scale: GLD_SHOTS_SCALE=%.2f (raise for tighter "
                "statistics); backend: GLD_BACKEND=%s; threads: "
                "GLD_THREADS=%d; noise sampling: GLD_NOISE_SAMPLING=%s\n\n",
                BenchConfig::scale(), backend_name(backend_from_env()),
                BenchConfig::threads(),
                noise_sampling_name(noise_sampling_from_env()));
}

void
apply_env(ExperimentConfig* cfg)
{
    cfg->threads = BenchConfig::threads();
    cfg->backend = backend_from_env();
    cfg->noise_sampling = noise_sampling_from_env();
}

std::vector<NamedPolicy>
paper_policies(const NoiseParams& np)
{
    return {
        {"Always-LRC", PolicyZoo::always_lrc()},
        {"Staggered", PolicyZoo::staggered()},
        {"M", PolicyZoo::mlr_only()},
        {"ERASER", PolicyZoo::eraser(false)},
        {"ERASER+M", PolicyZoo::eraser(true)},
        {"GLADIATOR+M", PolicyZoo::gladiator(true, np)},
        {"GLADIATOR-D+M", PolicyZoo::gladiator_d(true, np)},
        {"IDEAL", PolicyZoo::ideal()},
    };
}

}  // namespace bench
}  // namespace gld
