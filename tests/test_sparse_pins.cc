// Golden pins of the sparse (default) noise engine.  The bit-exact gates
// elsewhere compare backends under lockstep sampling, so none of them sees
// the sparse round kernel of the batch driver; these pins do.  Each case
// runs one full experiment under NoiseSampling::kSparse and pins the
// FNV-1a hash of its canonical Metrics JSON (io::metrics_to_json(m).dump(),
// its version field fixed) — every field, the DLP series included, bit
// for bit.
//
// The grid covers both batch backends at block multipliers K = 1, 2, 4
// and 8 (blocks of K 64-lane batches), two surface distances, leak-heavy
// noise (so leaked lanes reach every masked site), both speculating
// policies with MLR, and shot counts that leave a partial trailing batch
// at every K.  A kernel change that moves any
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

// batch_frame runs 1000 shots (15 full batches + 40 lanes; at K = 8 a
// 512-shot block and a 488-shot one); batch_tableau, about 20x dearer per
// shot, runs 300 (4 full batches + 44 lanes; at K = 8 one partial
// block).
constexpr Pin kPins[] = {
    {SimBackend::kBatchFrame, 1, 3, true, 0x664e2b8b45a652a0ull},
    {SimBackend::kBatchFrame, 1, 3, false, 0x2c803b815cb25fcfull},
    {SimBackend::kBatchFrame, 1, 5, true, 0x30a8b80351ec9474ull},
    {SimBackend::kBatchFrame, 1, 5, false, 0x73b4f98c6673e042ull},
    {SimBackend::kBatchFrame, 2, 3, true, 0x78f1040b9e220203ull},
    {SimBackend::kBatchFrame, 2, 3, false, 0x6d88601cbbe6ccfcull},
    {SimBackend::kBatchFrame, 2, 5, true, 0x241f9877c9604386ull},
    {SimBackend::kBatchFrame, 2, 5, false, 0xf6e764ffbb275f8full},
    {SimBackend::kBatchFrame, 4, 3, true, 0x0c95959c08619638ull},
    {SimBackend::kBatchFrame, 4, 3, false, 0x102e758ef25bb72eull},
    {SimBackend::kBatchFrame, 4, 5, true, 0x1802ca464c744cb0ull},
    {SimBackend::kBatchFrame, 4, 5, false, 0x6b688715ac315cd0ull},
    {SimBackend::kBatchFrame, 8, 3, true, 0x9891537c102c46d2ull},
    {SimBackend::kBatchFrame, 8, 3, false, 0x67de9d9dba3745ddull},
    {SimBackend::kBatchFrame, 8, 5, true, 0x3c3c0d1f2ae9d19full},
    {SimBackend::kBatchFrame, 8, 5, false, 0xe0076c0e322dbf1eull},
    {SimBackend::kBatchTableau, 1, 3, true, 0xb70f7c6507c96585ull},
    {SimBackend::kBatchTableau, 1, 3, false, 0x74162eff6e462ddbull},
    {SimBackend::kBatchTableau, 1, 5, true, 0x118400bf5f1ebfc6ull},
    {SimBackend::kBatchTableau, 1, 5, false, 0x9f6920382dbc86b5ull},
    {SimBackend::kBatchTableau, 2, 3, true, 0xa10b85570a9399c1ull},
    {SimBackend::kBatchTableau, 2, 3, false, 0xdefcb90798986b8eull},
    {SimBackend::kBatchTableau, 2, 5, true, 0x51b402ff262d519bull},
    {SimBackend::kBatchTableau, 2, 5, false, 0xa8d05e28d791788dull},
    {SimBackend::kBatchTableau, 4, 3, true, 0xe7e465a0e3eea230ull},
    {SimBackend::kBatchTableau, 4, 3, false, 0xc2c68397ee7c49b1ull},
    {SimBackend::kBatchTableau, 4, 5, true, 0x6f0ee6e5a9a0e342ull},
    {SimBackend::kBatchTableau, 4, 5, false, 0x14fedb749c1c7776ull},
    {SimBackend::kBatchTableau, 8, 3, true, 0xf17fe229bb5ea977ull},
    {SimBackend::kBatchTableau, 8, 3, false, 0xb8eb16e4ad22d37full},
    {SimBackend::kBatchTableau, 8, 5, true, 0x58302848688fcee1ull},
    {SimBackend::kBatchTableau, 8, 5, false, 0x88f8a232c0188170ull},
};

/** The serialize version the pinned Metrics JSON was captured under. */
constexpr int kPinnedFormatVersion = 4;

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
            // One stream: its 64*K-shot blocks run as full 64-lane
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
