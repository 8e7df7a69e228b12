// Golden pins of the sparse (default) noise engine.  The bit-exact gates
// elsewhere compare backends under lockstep sampling, so none of them sees
// the sparse round kernel of the batch driver; these pins do.  Each case
// runs one full experiment under NoiseSampling::kSparse and pins the
// FNV-1a hash of its canonical Metrics JSON (io::metrics_to_json(m).dump())
// — every field, the DLP series included, bit for bit.
//
// The grid covers both batch backends at every compiled batch width, two
// surface distances, leak-heavy noise (so leaked lanes reach every masked
// site), both speculating policies with MLR, and shot counts that leave a
// partial trailing batch at every width.  A kernel change that moves any
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
    int batch_words;
    int distance;
    bool gladiator;  ///< GLADIATOR+M, else ERASER+M
    uint64_t hash;   ///< fnv1a64(metrics_to_json(m).dump())
};

// batch_frame runs 1000 shots (15 full words + 40 lanes at K = 1, a 488-
// lane tail at K = 8); batch_tableau, about 20x dearer per shot, runs 300
// (4 full words + 44 lanes at K = 1, 256 + 44 lanes at K = 4, and one
// partial batch at K = 8).
constexpr Pin kPins[] = {
    {SimBackend::kBatchFrame, 1, 3, true, 0x664e2b8b45a652a0ull},
    {SimBackend::kBatchFrame, 1, 3, false, 0x2c803b815cb25fcfull},
    {SimBackend::kBatchFrame, 1, 5, true, 0x30a8b80351ec9474ull},
    {SimBackend::kBatchFrame, 1, 5, false, 0x73b4f98c6673e042ull},
    {SimBackend::kBatchFrame, 2, 3, true, 0x624dad6276501367ull},
    {SimBackend::kBatchFrame, 2, 3, false, 0x2fa2641d65e65d7dull},
    {SimBackend::kBatchFrame, 2, 5, true, 0xc6a72f85eeb01f5full},
    {SimBackend::kBatchFrame, 2, 5, false, 0x337b26be3716f72aull},
    {SimBackend::kBatchFrame, 4, 3, true, 0x67ec70663388adaaull},
    {SimBackend::kBatchFrame, 4, 3, false, 0x6df16618f807b897ull},
    {SimBackend::kBatchFrame, 4, 5, true, 0x6bd97299f158ed06ull},
    {SimBackend::kBatchFrame, 4, 5, false, 0x107615ee05293c2eull},
    {SimBackend::kBatchFrame, 8, 3, true, 0x5bd34ca69d020d2full},
    {SimBackend::kBatchFrame, 8, 3, false, 0xe7a75f270725eb60ull},
    {SimBackend::kBatchFrame, 8, 5, true, 0xb9926a6a2d686c52ull},
    {SimBackend::kBatchFrame, 8, 5, false, 0xe0f4c293400900b1ull},
    {SimBackend::kBatchTableau, 1, 3, true, 0xb70f7c6507c96585ull},
    {SimBackend::kBatchTableau, 1, 3, false, 0x74162eff6e462ddbull},
    {SimBackend::kBatchTableau, 1, 5, true, 0x118400bf5f1ebfc6ull},
    {SimBackend::kBatchTableau, 1, 5, false, 0x9f6920382dbc86b5ull},
    {SimBackend::kBatchTableau, 2, 3, true, 0x29586fb2a73419a5ull},
    {SimBackend::kBatchTableau, 2, 3, false, 0x8c4a76390bc4743eull},
    {SimBackend::kBatchTableau, 2, 5, true, 0xc578ed75a3541c5eull},
    {SimBackend::kBatchTableau, 2, 5, false, 0xcbd1f977aa79bf32ull},
    {SimBackend::kBatchTableau, 4, 3, true, 0xd996eab0cccbb3b8ull},
    {SimBackend::kBatchTableau, 4, 3, false, 0x8c63b4654ddf3b17ull},
    {SimBackend::kBatchTableau, 4, 5, true, 0x3675eb00c6483441ull},
    {SimBackend::kBatchTableau, 4, 5, false, 0x8dcdb974e9236016ull},
    {SimBackend::kBatchTableau, 8, 3, true, 0x3b994d12b6b42b49ull},
    {SimBackend::kBatchTableau, 8, 3, false, 0x7c02e51141c4bea5ull},
    {SimBackend::kBatchTableau, 8, 5, true, 0x6df0e3997c012294ull},
    {SimBackend::kBatchTableau, 8, 5, false, 0x436c822dcdf5c7beull},
};

std::string
pin_name(const Pin& pin)
{
    return std::string(backend_name(pin.backend)) + " K=" +
           std::to_string(pin.batch_words) + " d=" +
           std::to_string(pin.distance) +
           (pin.gladiator ? " GLADIATOR+M" : " ERASER+M");
}

TEST(SparsePins, MetricsJsonIsPinnedOnEveryBatchBackendAndWidth)
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
            cfg.batch_words = pin.batch_words;
            cfg.noise_sampling = NoiseSampling::kSparse;
            cfg.np = np;
            cfg.rounds = 2 * d;
            cfg.shots =
                pin.backend == SimBackend::kBatchFrame ? 1000 : 300;
            cfg.seed = 0x5EED0000ull + static_cast<uint64_t>(d);
            // One stream: the block is the whole shot count, so full
            // 64*K-lane batches run before the partial tail.
            cfg.rng_streams = 1;
            cfg.leakage_sampling = true;
            cfg.record_dlp_series = true;
            cfg.compute_ler = true;
            const PolicyFactory factory =
                pin.gladiator ? PolicyZoo::gladiator(/*use_mlr=*/true, np)
                              : PolicyZoo::eraser(/*use_mlr=*/true);
            const Metrics m = ExperimentRunner(ctx, cfg).run(factory);
            ASSERT_EQ(m.shots, cfg.shots);
            const std::string dump = io::metrics_to_json(m).dump();
            const uint64_t hash = io::fnv1a64(dump);
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull", hash);
            EXPECT_EQ(hash, pin.hash) << "got " << hex << " for\n" << dump;
        }
    }
}

}  // namespace
}  // namespace gld
