// Quickstart: build a surface code, attach GLADIATOR+M leakage
// speculation, run a noisy memory experiment and print the headline
// metrics.  This is the 60-second tour of the public API.

#include <cstdio>

#include "codes/surface_code.h"
#include "runtime/experiment.h"
#include "util/config.h"

using namespace gld;

int
main()
try {
    // 1. Pick a code and build its scheduled syndrome-extraction circuit.
    const CssCode code = SurfaceCode::make(5);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    std::printf("Code: %s — %d data qubits, %d checks, %d CNOTs/round\n",
                code.name().c_str(), code.n_data(), code.n_checks(),
                rc.n_cnots());

    // 2. Describe the device noise (paper defaults: p=1e-3, lr=0.1).
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);

    // 3. Configure a memory experiment: 50 rounds, decode for LER.
    ExperimentConfig cfg;
    cfg.np = np;
    cfg.rounds = 50;
    cfg.shots = BenchConfig::shots(400);
    cfg.threads = BenchConfig::threads();
    cfg.backend = backend_from_env();
    cfg.noise_sampling = noise_sampling_from_env();
    cfg.compute_ler = true;
    cfg.leakage_sampling = true;
    ExperimentRunner runner(ctx, cfg);

    // 4. Run it under three policies and compare.
    struct Row {
        const char* name;
        PolicyFactory factory;
    };
    const Row rows[] = {
        {"NO-LRC (unmitigated)", PolicyZoo::no_lrc()},
        {"ERASER+M (prior work)", PolicyZoo::eraser(true)},
        {"GLADIATOR+M (this work)", PolicyZoo::gladiator(true, np)},
    };
    std::printf("\n%-26s %10s %10s %10s %12s\n", "policy", "LER",
                "FP/shot", "FN/shot", "LRCs/shot");
    for (const Row& row : rows) {
        const Metrics m = runner.run(row.factory);
        std::printf("%-26s %10.2e %10.2f %10.2f %12.1f\n", row.name,
                    m.ler(), m.fp_per_shot(), m.fn_per_shot(),
                    m.lrc_per_shot());
    }
    std::printf("\nGLADIATOR speculates leakage from syndrome patterns via "
                "an offline code-aware error graph, cutting false-positive "
                "LRCs relative to ERASER's 50%%-flip heuristic.\n");
    return 0;
} catch (const std::exception& e) {
    return report_failure("quickstart", e);
}
