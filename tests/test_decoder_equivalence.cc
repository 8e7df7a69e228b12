// The union-find decoder's exactness contract: on every syndrome, the
// production decoder (CSR graph, touched-only state, defect-list entry
// point, closed-form parity where the graph has a node potential) returns
// the same prediction and the same last_residual() as the dense-array
// decoder it replaced, kept verbatim as a test-only reference in
// reference_union_find.h — through both decode() and decode_defects().
//
// Corpora: syndromes captured from the batch_frame simulator under the
// paper's LER configs (surface d = 5 and 7, 10*d rounds, p = 1e-3,
// lr = 0.1, ERASER+M and GLADIATOR+M, 512 shots each; d = 11 ERASER+M,
// 128 shots, the benchmark's decode-heavy workload), random syndromes
// at densities 0.01, 0.05 and 0.2, dense syndromes on surface d = 3 and
// 5 (clusters that reach both boundary sides, so the peel runs beside
// the closed form), random syndromes on the color d = 5 graph (no
// potential: every cluster is peeled) and the Hamming HGP graph, the
// single-fault sweep, and every syndrome on small hand-built graphs with
// shapes the DEM never emits (parallel edges, self-loops, a node with
// boundary edges on both sides, edges stored v < u) plus random
// multigraphs of that kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
    const LaneMask active = ~0ull;
    const int nc = code.n_checks();
    const std::vector<int> z_checks = code.checks_of_type(CheckType::kZ);
    const int nz = static_cast<int>(z_checks.size());

    Corpus out{DemBuilder(code, rc, np, rounds).build(), {}};
    LrcWords lrc;
    std::vector<std::vector<uint8_t>> flips;
    for (int b = 0; b < batches; ++b) {
        sim->reset_shot_batch(lanes);
        policy->begin_batch(active);
        lrc.reset(code.n_data(), nc);
        std::vector<std::vector<int>> defects(static_cast<size_t>(lanes));
        for (int r = 0; r < rounds; ++r) {
            sim->run_round_batch(lrc);
            RoundWords in;
            in.active = active;
            in.detector = sim->detector_words();
            in.mlr = sim->mlr_words();
            in.meas_flip = sim->meas_flip_words();
            in.leaked = sim->leaked_words();
            lrc.reset(code.n_data(), nc);
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
 * one reused production decoder (`uf` if given) through both entry
 * points; expects zero prediction or residual mismatches and reports the
 * first one.
 */
void
expect_equivalent(const Corpus& corpus, const std::string& what,
                  UnionFindDecoder* reused = nullptr)
{
    const int n = corpus.graph.n_nodes();
    testing_ref::ReferenceUnionFind ref(corpus.graph);
    UnionFindDecoder own(corpus.graph);
    UnionFindDecoder& uf = reused ? *reused : own;
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
    int batches;  ///< of 64 shots
};

class CapturedSyndromes : public ::testing::TestWithParam<CaptureCase> {};

TEST_P(CapturedSyndromes, MatchReferenceDecoder)
{
    const CaptureCase c = GetParam();
    const Corpus corpus = capture(c.d, c.eraser, c.batches,
                                  1000u + static_cast<uint64_t>(c.d));
    ASSERT_EQ(corpus.defects.size(), static_cast<size_t>(c.batches) * 64);
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
    ::testing::Values(CaptureCase{5, true, 8}, CaptureCase{5, false, 8},
                      CaptureCase{7, true, 8}, CaptureCase{7, false, 8},
                      CaptureCase{11, true, 2}),
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


/** Every defect set on `graph`'s nodes (n <= 12), ascending ids. */
std::vector<std::vector<int>>
all_defect_sets(const DecodingGraph& graph)
{
    const int n = graph.n_nodes();
    std::vector<std::vector<int>> out;
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
        std::vector<int> defects;
        for (int v = 0; v < n; ++v) {
            if (bits >> v & 1u)
                defects.push_back(v);
        }
        out.push_back(std::move(defects));
    }
    return out;
}

constexpr int kB = GraphEdge::kBoundary;

/** Exhaustive equivalence on a hand-built graph (connected to a boundary,
 *  so the reference decoder always returns). */
void
expect_exhaustive(std::vector<GraphEdge> edges, int n, bool has_potential,
                  const std::string& what)
{
    Corpus corpus{DecodingGraph(n, std::move(edges)), {}};
    EXPECT_EQ(corpus.graph.potential().empty(), !has_potential) << what;
    corpus.defects = all_defect_sets(corpus.graph);
    expect_equivalent(corpus, what);
}

TEST(DecoderEquivalence, ParallelEdgesBetweenDefectAndNeighbour)
{
    // Node 1 reaches node 0 over three parallel edges; a lone defect at
    // 0 or 1 claims them all and merges once.  Equal logicals keep the
    // potential; one flipped logical closes an odd cycle.
    for (bool odd : {false, true}) {
        expect_exhaustive({{0, kB, false, 0.1},
                           {0, 1, false, 0.1},
                           {0, 1, odd, 0.1},
                           {1, 0, false, 0.1},
                           {1, 2, true, 0.1},
                           {2, 3, false, 0.1},
                           {2, 3, false, 0.1},
                           {3, kB, true, 0.1}},
                          4, !odd,
                          odd ? "parallel, odd cycle" : "parallel");
    }
}

TEST(DecoderEquivalence, SelfLoops)
{
    // A self-loop lists its edge twice at one node.  Logical 0 keeps the
    // potential; logical 1 is an odd cycle.
    for (bool logical : {false, true}) {
        expect_exhaustive({{0, 0, logical, 0.1},
                           {0, 1, false, 0.1},
                           {1, 1, false, 0.1},
                           {1, 2, true, 0.1},
                           {2, kB, false, 0.1},
                           {2, 2, logical, 0.1},
                           {0, kB, true, 0.1}},
                          3, !logical,
                          logical ? "self-loops, odd" : "self-loops");
    }
}

TEST(DecoderEquivalence, LoneDefectOnBothBoundarySides)
{
    // Node 0's boundary edges have sides 0 and 1, so a lone defect there
    // settles touching both sides and its cluster is peeled; node 3's
    // neighbours lead to each side too.
    expect_exhaustive({{0, kB, false, 0.1},
                       {0, kB, true, 0.1},
                       {0, 1, false, 0.1},
                       {1, 2, false, 0.1},
                       {2, 3, true, 0.1},
                       {3, 4, false, 0.1},
                       {4, kB, true, 0.1},
                       {1, kB, false, 0.1}},
                      5, true, "both sides");
}

TEST(DecoderEquivalence, DefectNextToGrownCluster)
{
    // Defects {0, 2}: 0 grows first and absorbs 1, so 2's growth meets
    // a neighbour in a grown cluster (a find, not a join); longer chains
    // give later defects grown neighbours at every distance.
    std::vector<GraphEdge> edges;
    const int n = 9;
    for (int v = 0; v + 1 < n; ++v)
        edges.push_back({v, v + 1, v % 3 == 0, 0.1});
    edges.push_back({0, kB, false, 0.1});
    edges.push_back({n - 1, kB, true, 0.1});
    edges.push_back({2, 5, false, 0.1});
    edges.push_back({4, 8, true, 0.1});
    expect_exhaustive(edges, n, false, "chain with chords");
    edges.pop_back();
    edges.pop_back();
    expect_exhaustive(edges, n, true, "chain");
}

TEST(DecoderEquivalence, MergeTiesInBothOrientations)
{
    // Equal-size merges keep the edge's u end's root, and the survivor's
    // id orders the next growth round.  In the first graph the defects
    // {3, 4} need 4's first growth to hand its first merge, a tie of two
    // lone nodes over edge (2, 4), to 2; in the second, {2, 3, 5} need a
    // tie between two grown clusters to go the edge's way.  Each runs as
    // stored and with every edge reversed.
    const std::vector<GraphEdge> lone_tie = {
        {0, 1, true, 0.1},  {2, 1, true, 0.1},  {3, 1, true, 0.1},
        {2, 4, true, 0.1},  {5, 4, true, 0.1},  {0, 4, true, 0.1},
        {0, kB, false, 0.1}, {5, kB, true, 0.1}};
    const std::vector<GraphEdge> cluster_tie = {
        {1, 0, false, 0.1}, {1, 2, true, 0.1},  {3, 0, false, 0.1},
        {4, 3, false, 0.1}, {5, 2, true, 0.1},  {5, 3, false, 0.1},
        {3, 0, false, 0.1}, {0, kB, false, 0.1}, {5, kB, true, 0.1}};
    for (const auto* graph : {&lone_tie, &cluster_tie}) {
        for (bool reversed : {false, true}) {
            std::vector<GraphEdge> edges = *graph;
            for (GraphEdge& e : edges) {
                if (reversed && e.v != kB)
                    std::swap(e.u, e.v);
            }
            const std::string name =
                graph == &lone_tie ? "lone-node tie" : "cluster tie";
            expect_exhaustive(edges, 6, true,
                              name + (reversed ? ", reversed" : ""));
        }
    }
}

TEST(DecoderEquivalence, RandomMultigraphs)
{
    // Connected random multigraphs with parallel edges, self-loops,
    // either storage orientation and boundary edges of both logicals.
    Rng rng(2024);
    for (int g = 0; g < 40; ++g) {
        const int n = 6 + static_cast<int>(rng.uniform_int(7));
        std::vector<GraphEdge> edges;
        for (int v = 1; v < n; ++v) {
            const int w = static_cast<int>(rng.uniform_int(
                static_cast<uint32_t>(v)));
            edges.push_back(rng.bernoulli(0.5)
                                ? GraphEdge{v, w, rng.bernoulli(0.3), 0.1}
                                : GraphEdge{w, v, rng.bernoulli(0.3), 0.1});
        }
        const int extra = static_cast<int>(rng.uniform_int(
            static_cast<uint32_t>(2 * n)));
        for (int i = 0; i < extra; ++i) {
            const int a = static_cast<int>(
                rng.uniform_int(static_cast<uint32_t>(n)));
            const int b = rng.bernoulli(0.25)
                              ? kB
                              : static_cast<int>(rng.uniform_int(
                                    static_cast<uint32_t>(n)));
            edges.push_back({a, b, rng.bernoulli(0.3), 0.1});
        }
        edges.push_back(
            {static_cast<int>(rng.uniform_int(static_cast<uint32_t>(n))),
             kB, rng.bernoulli(0.5), 0.1});
        Corpus corpus{DecodingGraph(n, std::move(edges)), {}};
        corpus.defects = all_defect_sets(corpus.graph);
        expect_equivalent(corpus, "random multigraph " + std::to_string(g));
    }
}

TEST(DecoderEquivalence, ReplayedAndClosedFormDecodesInterleave)
{
    // A decode replays its growth (recording) when a cluster needs the
    // peel, and otherwise ends at the closed form.  One decoder instance
    // must stay exact across any mix, each kind following the other:
    // replays for clusters on both boundary sides (dense syndromes) and
    // for a stalled odd cluster, and closed-form decodes (sparse
    // syndromes).  The graph is the surface d = 5 DEM graph over 5 rounds
    // plus a three-node path without boundary edges, where one defect
    // stalls.  The reference never returns on a stall, so those draws
    // are held to a fresh decoder and to a residual of one instead.
    const DecodingGraph dem = dem_graph(SurfaceCode::make(5), 5);
    const int n_dem = dem.n_nodes();
    std::vector<GraphEdge> edges(dem.edges().begin(), dem.edges().end());
    edges.push_back({n_dem, n_dem + 1, true, 0.1});
    edges.push_back({n_dem + 1, n_dem + 2, false, 0.1});
    const DecodingGraph graph(n_dem + 3, std::move(edges));
    ASSERT_FALSE(graph.potential().empty());

    // Draws of three kinds (sparse, dense, sparse plus a stall), sorted
    // into replayed and closed-form ones by a probe decoder's counter.
    Rng rng(4242);
    UnionFindDecoder probe(graph);
    std::vector<std::vector<int>> replayed;
    std::vector<std::vector<int>> closed;
    for (int t = 0; t < 600; ++t) {
        std::vector<int> defects;
        for (int v = 0; v < n_dem; ++v) {
            if (rng.bernoulli(t % 3 == 1 ? 0.4 : 0.01))
                defects.push_back(v);
        }
        if (t % 3 == 2)
            defects.push_back(n_dem + 1);
        const uint64_t before = probe.stats().replays;
        probe.decode_defects(defects);
        (probe.stats().replays > before ? replayed : closed)
            .push_back(std::move(defects));
    }
    ASSERT_GE(replayed.size(), 300u);
    ASSERT_GE(closed.size(), 100u);

    testing_ref::ReferenceUnionFind ref(graph);
    std::vector<uint8_t> syndrome(static_cast<size_t>(graph.n_nodes()));
    for (bool replay_first : {true, false}) {
        UnionFindDecoder uf(graph);
        size_t decodes = 0;
        size_t nonempty = 0;
        size_t stalls = 0;
        for (size_t i = 0; i < std::min(replayed.size(), closed.size());
             ++i) {
            for (const std::vector<int>* d :
                 {replay_first ? &replayed[i] : &closed[i],
                  replay_first ? &closed[i] : &replayed[i]}) {
                bool want;
                int want_res;
                if (!d->empty() && d->back() == n_dem + 1) {
                    UnionFindDecoder fresh(graph);
                    want = fresh.decode_defects(*d);
                    want_res = fresh.last_residual();
                    EXPECT_EQ(want_res, 1);
                    ++stalls;
                } else {
                    std::fill(syndrome.begin(), syndrome.end(), 0);
                    for (int v : *d)
                        syndrome[static_cast<size_t>(v)] = 1;
                    want = ref.decode(syndrome);
                    want_res = ref.last_residual();
                }
                ASSERT_EQ(uf.decode_defects(*d), want)
                    << "decode " << decodes
                    << (replay_first ? ", replay first" : ", closed first");
                ASSERT_EQ(uf.last_residual(), want_res) << "decode " << decodes;
                ++decodes;
                nonempty += !d->empty();
            }
        }
        EXPECT_GT(stalls, 50u);
        EXPECT_EQ(uf.stats().decodes, nonempty);  // empty ones do no work
        EXPECT_EQ(uf.stats().replays, decodes / 2);
    }
}

}  // namespace

/** Test-only access to the decoder's stamp epoch (a friend). */
struct UnionFindDecoderTestPeer {
    static constexpr uint32_t kLastEpoch = UnionFindDecoder::kLastEpoch;
    static uint32_t epoch(const UnionFindDecoder& d) { return d.epoch_; }
    static void set_epoch(UnionFindDecoder& d, uint32_t e) { d.epoch_ = e; }
};

namespace {

TEST(DecoderEquivalence, StampEpochWrapStaysExact)
{
    // Membership is a 32-bit epoch stamp per node; when the epoch wraps,
    // every stamp is cleared, or a node stamped long ago would read as a
    // member again.  A dense syndrome stamps most nodes at the first few
    // epochs.  The epoch is then set near its last value, and a corpus
    // starting with 20 sparse syndromes runs through the wrap, so those
    // few epochs come round again while the dense decode's stamps stand.
    // A stale member can hide behind the replay (a replay starts clean
    // and its peel gives the same parity), so the decoder's work
    // counters must also equal a fresh decoder's on the same corpus.
    const DecodingGraph graph = dem_graph(SurfaceCode::make(5), 5);
    Rng rng(31);
    const Corpus dense{graph, random_defects(graph, 0.4, 1, rng)};
    Corpus mixed{graph, {}};
    for (int t = 0; t < 60; ++t)
        mixed.defects.push_back(random_defects(
            graph, t >= 20 && t % 4 == 3 ? 0.4 : 0.02, 1, rng)[0]);
    UnionFindDecoder fresh(graph);
    expect_equivalent(mixed, "fresh decoder", &fresh);
    for (uint32_t lead : {0u, 1u, 2u}) {
        UnionFindDecoder uf(graph);
        expect_equivalent(dense, "before the wrap", &uf);
        ASSERT_GT(uf.stats().replays, 0u);
        const UnionFindDecoder::Stats s0 = uf.stats();
        UnionFindDecoderTestPeer::set_epoch(
            uf, UnionFindDecoderTestPeer::kLastEpoch - lead);
        const std::string what =
            "through the wrap, lead " + std::to_string(lead);
        expect_equivalent(mixed, what, &uf);
        EXPECT_LT(UnionFindDecoderTestPeer::epoch(uf), 1000u)
            << "the epoch did not wrap";
        const UnionFindDecoder::Stats& s = uf.stats();
        EXPECT_EQ(s.growth_rounds - s0.growth_rounds,
                  fresh.stats().growth_rounds) << what;
        EXPECT_EQ(s.clusters_grown - s0.clusters_grown,
                  fresh.stats().clusters_grown) << what;
        EXPECT_EQ(s.replays - s0.replays, fresh.stats().replays) << what;
    }
}

}  // namespace
}  // namespace gld
