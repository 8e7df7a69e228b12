// The union-find decoder's exactness contract: on every syndrome, the
// production decoder (CSR graph, touched-only state, defect-list entry
// point, closed-form parity where the graph has a node potential) returns
// the same prediction and the same last_residual() as the dense-array
// decoder it replaced, kept verbatim as a test-only reference in
// reference_union_find.h — through both decode() and decode_defects().
//
// Corpora: syndromes captured from the batch_frame simulator under the
// paper's LER configs (surface d = 5 and 7, 10*d rounds, p = 1e-3,
// lr = 0.1, ERASER+M and GLADIATOR+M, 512 shots each), random syndromes
// at densities 0.01, 0.05 and 0.2, dense syndromes on surface d = 3 and
// 5 (clusters that reach both boundary sides, so the peel runs beside
// the closed form), random syndromes on the color d = 5 graph (no
// potential: every cluster is peeled) and the Hamming HGP graph, and the
// single-fault sweep.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "codes/color_code.h"
#include "codes/hgp_code.h"
#include "codes/surface_code.h"
#include "core/code_context.h"
#include "decode/dem_builder.h"
#include "decode/union_find.h"
#include "reference_union_find.h"
#include "runtime/experiment.h"
#include "sim/lane_span.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gld {
namespace {

/** Defect lists (ascending node ids) plus the graph they index. */
struct Corpus {
    DecodingGraph graph;
    std::vector<std::vector<int>> defects;
};

/**
 * Runs `batches` full batch_frame batches the way the runner does (the
 * batched policy decides from each round's words and its lane masks go
 * back to the simulator; no leakage sampling) and records each shot's
 * decoder input: round r's fired Z detectors as r*nz + zi, then the
 * final-readout row (last measurement flips XOR the data readout).
 */
Corpus
capture(int d, bool eraser, int batches, uint64_t seed)
{
    const CssCode code = SurfaceCode::make(d);
    const RoundCircuit rc(code);
    const CodeContext ctx(code, rc, CodeContext::default_scope(code));
    const NoiseParams np = NoiseParams::standard(1e-3, 0.1);
    const int rounds = 10 * d;
    const std::unique_ptr<Policy> policy =
        (eraser ? PolicyZoo::eraser(true)
                : PolicyZoo::gladiator(true, np))(ctx, 0);
    const std::unique_ptr<BatchSimulator> sim =
        make_simulator(SimBackend::kBatchFrame, code, rc, np, seed);
    const int lanes = sim->batch_width();
    const LaneMask active[1] = {~0ull};
    const int nc = code.n_checks();
    const std::vector<int> z_checks = code.checks_of_type(CheckType::kZ);
    const int nz = static_cast<int>(z_checks.size());

    Corpus out{DemBuilder(code, rc, np, rounds).build(), {}};
    LrcWords lrc;
    std::vector<std::vector<uint8_t>> flips;
    for (int b = 0; b < batches; ++b) {
        sim->reset_shot_batch(lanes);
        policy->begin_batch(active, 1);
        lrc.reset(code.n_data(), nc, 1);
        std::vector<std::vector<int>> defects(static_cast<size_t>(lanes));
        for (int r = 0; r < rounds; ++r) {
            sim->run_round_batch(lrc);
            RoundWords in;
            in.active = active;
            in.detector = sim->detector_words();
            in.mlr = sim->mlr_words();
            in.meas_flip = sim->meas_flip_words();
            in.leaked = sim->leaked_words();
            lrc.reset(code.n_data(), nc, 1);
            policy->observe_batch(r, in, &lrc);
            for (int zi = 0; zi < nz; ++zi)
                for_each_lane(
                    in.detector[static_cast<size_t>(
                        z_checks[static_cast<size_t>(zi)])],
                    [&](int l) {
                        defects[static_cast<size_t>(l)].push_back(r * nz +
                                                                  zi);
                    });
        }
        const std::vector<LaneMask> last_meas(sim->meas_flip_words(),
                                              sim->meas_flip_words() + nc);
        sim->final_data_measure_batch(&flips);
        for (size_t l = 0; l < static_cast<size_t>(lanes); ++l) {
            for (int zi = 0; zi < nz; ++zi) {
                const int zc = z_checks[static_cast<size_t>(zi)];
                uint8_t det = static_cast<uint8_t>(
                    (last_meas[static_cast<size_t>(zc)] >> l) & 1u);
                for (int q : code.check(zc).support)
                    det ^= flips[l][static_cast<size_t>(q)];
                if (det)
                    defects[l].push_back(rounds * nz + zi);
            }
            out.defects.push_back(std::move(defects[l]));
        }
    }
    return out;
}

/**
 * Decodes every defect list with the reference (byte syndrome) and with
 * one reused production decoder through both entry points; expects zero
 * prediction or residual mismatches and reports the first one.
 */
void
expect_equivalent(const Corpus& corpus, const std::string& what)
{
    const int n = corpus.graph.n_nodes();
    testing_ref::ReferenceUnionFind ref(corpus.graph);
    UnionFindDecoder uf(corpus.graph);
    size_t mismatches = 0;
    std::string first;
    for (size_t i = 0; i < corpus.defects.size(); ++i) {
        const std::vector<int>& defects = corpus.defects[i];
        std::vector<uint8_t> syndrome(static_cast<size_t>(n), 0);
        for (int v : defects)
            syndrome[static_cast<size_t>(v)] = 1;
        const bool want = ref.decode(syndrome);
        const int want_res = ref.last_residual();
        const bool by_bytes = uf.decode(syndrome);
        const int res_bytes = uf.last_residual();
        const bool by_list = uf.decode_defects(defects);
        const int res_list = uf.last_residual();
        if (by_bytes != want || by_list != want || res_bytes != want_res ||
            res_list != want_res) {
            if (mismatches++ == 0)
                first = "shot " + std::to_string(i) + " (" +
                        std::to_string(defects.size()) +
                        " defects): reference " + std::to_string(want) +
                        "/" + std::to_string(want_res) + ", decode " +
                        std::to_string(by_bytes) + "/" +
                        std::to_string(res_bytes) + ", decode_defects " +
                        std::to_string(by_list) + "/" +
                        std::to_string(res_list);
        }
    }
    EXPECT_EQ(mismatches, 0u) << what << ": first mismatch " << first;
}

struct CaptureCase {
    int d;
    bool eraser;
};

class CapturedSyndromes : public ::testing::TestWithParam<CaptureCase> {};

TEST_P(CapturedSyndromes, MatchReferenceDecoder)
{
    const CaptureCase c = GetParam();
    // 8 batches x 64 lanes = 512 shots.
    const Corpus corpus =
        capture(c.d, c.eraser, 8, 1000u + static_cast<uint64_t>(c.d));
    ASSERT_EQ(corpus.defects.size(), 512u);
    size_t total = 0;
    for (const std::vector<int>& s : corpus.defects)
        total += s.size();
    // The paper's regime: no shot is quiet, so growth and peeling run.
    EXPECT_GT(total, corpus.defects.size() * 10);
    expect_equivalent(corpus, "d=" + std::to_string(c.d) +
                                  (c.eraser ? " ERASER+M" : " GLADIATOR+M"));
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, CapturedSyndromes,
    ::testing::Values(CaptureCase{5, true}, CaptureCase{5, false},
                      CaptureCase{7, true}, CaptureCase{7, false}),
    [](const ::testing::TestParamInfo<CaptureCase>& p) {
        return "d" + std::to_string(p.param.d) +
               (p.param.eraser ? "_eraser_m" : "_gladiator_m");
    });

/** `shots` i.i.d. syndromes on `graph`'s nodes at `density`. */
std::vector<std::vector<int>>
random_defects(const DecodingGraph& graph, double density, int shots,
               Rng& rng)
{
    std::vector<std::vector<int>> out;
    for (int t = 0; t < shots; ++t) {
        std::vector<int> defects;
        for (int v = 0; v < graph.n_nodes(); ++v) {
            if (rng.bernoulli(density))
                defects.push_back(v);
        }
        out.push_back(std::move(defects));
    }
    return out;
}

/** The DEM graph of `code` at standard noise over `rounds` rounds. */
DecodingGraph
dem_graph(const CssCode& code, int rounds)
{
    const RoundCircuit rc(code);
    return DemBuilder(code, rc, NoiseParams::standard(), rounds).build();
}

TEST(DecoderEquivalence, RandomSyndromesAtSeveralDensities)
{
    Corpus corpus{dem_graph(SurfaceCode::make(5), 10), {}};
    Rng rng(77);
    for (double density : {0.01, 0.05, 0.2}) {
        corpus.defects = random_defects(corpus.graph, density, 1000, rng);
        expect_equivalent(corpus, "density " + std::to_string(density));
    }
}

TEST(DecoderEquivalence, DenseSyndromesSpanBothBoundarySides)
{
    // Dense enough that clusters merge across the patch and reach both
    // boundary sides: those clusters take the peel, the rest the closed
    // form, in the same decode.
    for (int d : {3, 5}) {
        Corpus corpus{dem_graph(SurfaceCode::make(d), d), {}};
        ASSERT_FALSE(corpus.graph.potential().empty());
        Rng rng(500u + static_cast<uint64_t>(d));
        for (double density : {0.3, 0.5}) {
            corpus.defects =
                random_defects(corpus.graph, density, 500, rng);
            expect_equivalent(corpus, "d=" + std::to_string(d) +
                                          " density " +
                                          std::to_string(density));
        }
    }
}

TEST(DecoderEquivalence, OtherCodeFamilies)
{
    // The color code's graph has odd-logical cycles, so it has no
    // potential and every cluster goes through the peel.
    Corpus color{dem_graph(ColorCode::make(5), 5), {}};
    EXPECT_TRUE(color.graph.potential().empty());
    Corpus hgp{dem_graph(HgpCode::make_hamming(), 4), {}};
    Rng rng(91);
    for (double density : {0.005, 0.02, 0.1}) {
        color.defects = random_defects(color.graph, density, 500, rng);
        expect_equivalent(color, "color d=5 density " +
                                     std::to_string(density));
        hgp.defects = random_defects(hgp.graph, density, 500, rng);
        expect_equivalent(hgp, "hgp hamming density " +
                                   std::to_string(density));
    }
}

TEST(DecoderEquivalence, SingleFaultSweep)
{
    for (int d : {3, 5}) {
        Corpus corpus{dem_graph(SurfaceCode::make(d), d), {}};
        for (const GraphEdge& e : corpus.graph.edges()) {
            // Edges are stored canonically (u < v), so this is ascending.
            std::vector<int> defects{e.u};
            if (e.v != GraphEdge::kBoundary)
                defects.push_back(e.v);
            corpus.defects.push_back(std::move(defects));
        }
        expect_equivalent(corpus, "single faults d=" + std::to_string(d));
    }
}

}  // namespace
}  // namespace gld
