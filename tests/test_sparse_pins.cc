// Golden pins of the sparse (default) noise engine.  The bit-exact gates
// elsewhere compare backends under lockstep sampling, so none of them sees
// the sparse round kernel of the batch driver; these pins do.  Each case
// runs one full experiment under NoiseSampling::kSparse and pins the
// FNV-1a hash of its canonical Metrics JSON (io::metrics_to_json(m).dump(),
// its version field fixed) — every field, the DLP series included, bit
// for bit.
//
// The grid covers the batch backend at two surface distances, leak-heavy
// noise (so leaked lanes reach every masked site), both speculating
// policies with MLR, and a shot count that leaves a partial trailing
// batch.  A kernel change that moves any
// event, any payload draw or any readout fails here with the case named.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "codes/surface_code.h"
#include "io/serialize.h"
#include "runtime/experiment.h"

namespace gld {
namespace {

struct Pin {
    SimBackend backend;
    int distance;
    bool gladiator;  ///< GLADIATOR+M, else ERASER+M
    uint64_t hash;   ///< fnv1a64(metrics_to_json(m).dump())
};

// Each case runs 1000 shots (15 full batches + 40 lanes).
constexpr Pin kPins[] = {
    {SimBackend::kBatchFrame, 3, true, 0x664e2b8b45a652a0ull},
    {SimBackend::kBatchFrame, 3, false, 0x2c803b815cb25fcfull},
    {SimBackend::kBatchFrame, 5, true, 0xa08db7cfe911e4d3ull},
    {SimBackend::kBatchFrame, 5, false, 0x73b4f98c6673e042ull},
};

/** The serialize version the pinned Metrics JSON was captured under. */
constexpr int kPinnedFormatVersion = 4;

std::string
pin_name(const Pin& pin)
{
    return std::string(backend_name(pin.backend)) + " d=" +
           std::to_string(pin.distance) +
           (pin.gladiator ? " GLADIATOR+M" : " ERASER+M");
}

TEST(SparsePins, MetricsJsonIsPinnedOnTheBatchBackend)
{
    const NoiseParams np = NoiseParams::standard(5e-3, 1.0);
    for (const int d : {3, 5}) {
        const CssCode code = SurfaceCode::make(d);
        const RoundCircuit rc(code);
        const CodeContext ctx(code, rc, CodeContext::default_scope(code));
        for (const Pin& pin : kPins) {
            if (pin.distance != d)
                continue;
            SCOPED_TRACE(pin_name(pin));
            ExperimentConfig cfg;
            cfg.backend = pin.backend;
            cfg.noise_sampling = NoiseSampling::kSparse;
            cfg.np = np;
            cfg.rounds = 2 * d;
            cfg.shots = 1000;
            cfg.seed = 0x5EED0000ull + static_cast<uint64_t>(d);
            // One stream: its 64-shot blocks run as full 64-lane
            // batches before the partial tail.
            cfg.rng_streams = 1;
            cfg.leakage_sampling = true;
            cfg.record_dlp_series = true;
            cfg.compute_ler = true;
            const PolicyFactory factory =
                pin.gladiator ? PolicyZoo::gladiator(/*use_mlr=*/true, np)
                              : PolicyZoo::eraser(/*use_mlr=*/true);
            const Metrics m = ExperimentRunner(ctx, cfg).run(factory);
            ASSERT_EQ(m.shots, cfg.shots);
            // The pins hash the Metrics, not the file format: the
            // document's version field stays at the version the pins
            // were captured under, so a format-version bump that moves
            // no Metrics bit leaves them green.
            io::Json j = io::metrics_to_json(m);
            j.set("gld_version", io::Json::integer(kPinnedFormatVersion));
            const std::string dump = j.dump();
            const uint64_t hash = io::fnv1a64(dump);
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", hash);
            EXPECT_EQ(hash, pin.hash) << "got " << hex << " for\n" << dump;
        }
    }
}

}  // namespace
}  // namespace gld
