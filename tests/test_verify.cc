// The cross-backend referee (campaign verify): arm-spec derivation,
// compare-mode selection, candidate resolution, and the three
// end-to-end properties the tool is trusted for —
//
//  1. CALIBRATION: under the null (same backend, disjoint seeds) the
//     referee passes at the configured family-wise alpha;
//  2. POWER: a deliberately injected rate delta is flagged;
//  3. DISTRIBUTION: sharded verify runs merge bit-identically to a
//     single-process verify of the same grid.

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/verify.h"
#include "metrics_test_util.h"

namespace gld {
namespace campaign {
namespace {

using test::expect_metrics_identical;

std::string
fresh_dir(const std::string& tag)
{
    // Unique per test-binary execution: checkpoints persist by design,
    // so reusing a stale directory would resume where these tests
    // assert a cold start.
    return ::testing::TempDir() + "gld_verify_" +
           std::to_string(::getpid()) + "_" + tag;
}

/** A grid small enough to referee in well under a second. */
CampaignSpec
tiny_grid(const std::string& name, uint64_t seed)
{
    CampaignSpec grid;
    grid.name = name;
    grid.seed = seed;
    grid.shots = 192;
    grid.rounds = 6;
    grid.rng_streams = 4;
    grid.leakage_sampling = true;
    grid.compute_ler = true;
    grid.record_dlp_series = true;
    grid.codes = {"surface:3"};
    grid.policies = {"eraser_m"};
    grid.noise = {NoiseParams::standard(2e-3, 0.5)};
    return grid;
}

// ------------------------------------------------------- Arm specs.

TEST(VerifyArmSpec, ReferenceArmOnlyRenamesAndRetargets)
{
    const CampaignSpec grid = tiny_grid("g", 77);
    VerifyOptions opt;
    opt.independent_seeds = true;    // must NOT touch the reference
    opt.inject_noise_scale = 3.0;    // must NOT touch the reference
    const CampaignSpec arm =
        verify_arm_spec(grid, SimBackend::kTableau, true, opt);
    EXPECT_EQ("g.ref.tableau", arm.name);
    EXPECT_EQ(SimBackend::kTableau, arm.backend);
    EXPECT_EQ(grid.seed, arm.seed);
    EXPECT_DOUBLE_EQ(grid.noise[0].p, arm.noise[0].p);
    EXPECT_EQ(grid.shots, arm.shots);
}

TEST(VerifyArmSpec, CandidateArmSaltsSeedOnlyWithIndependentSeeds)
{
    const CampaignSpec grid = tiny_grid("g", 77);
    VerifyOptions opt;
    const CampaignSpec paired =
        verify_arm_spec(grid, SimBackend::kBatchFrame, false, opt);
    EXPECT_EQ("g.cand.batch_frame", paired.name);
    EXPECT_EQ(grid.seed, paired.seed);  // paired design: same job seeds

    opt.independent_seeds = true;
    const CampaignSpec salted =
        verify_arm_spec(grid, SimBackend::kBatchFrame, false, opt);
    EXPECT_NE(grid.seed, salted.seed);
    // Deterministic: every process derives the identical arm.
    const CampaignSpec again =
        verify_arm_spec(grid, SimBackend::kBatchFrame, false, opt);
    EXPECT_EQ(salted.seed, again.seed);
    // The salt depends on the arm name, so two candidate arms of one
    // verify run draw distinct randomness.
    const CampaignSpec other =
        verify_arm_spec(grid, SimBackend::kTableau, false, opt);
    EXPECT_NE(salted.seed, other.seed);
}

TEST(VerifyArmSpec, CandidateArmScalesEveryNoisePoint)
{
    CampaignSpec grid = tiny_grid("g", 77);
    grid.noise.push_back(NoiseParams::standard(1e-3, 0.1));
    VerifyOptions opt;
    opt.inject_noise_scale = 3.0;
    const CampaignSpec arm =
        verify_arm_spec(grid, SimBackend::kFrame, false, opt);
    ASSERT_EQ(2u, arm.noise.size());
    EXPECT_DOUBLE_EQ(3.0 * grid.noise[0].p, arm.noise[0].p);
    EXPECT_DOUBLE_EQ(3.0 * grid.noise[1].p, arm.noise[1].p);
    // Ratios (leak, MLR) ride along unscaled.
    EXPECT_DOUBLE_EQ(grid.noise[0].leak_ratio, arm.noise[0].leak_ratio);
}

// ----------------------------------------------------- Compare mode.

TEST(VerifyCompareMode, FollowsRngContractUnlessPerturbed)
{
    VerifyOptions opt;  // reference = frame
    // frame and batch_frame share the scalar-replay RNG contract.
    EXPECT_EQ(CompareMode::kBitExact,
              verify_compare_mode(SimBackend::kBatchFrame, opt));
    // tableau draws independent measurement randomness.
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kTableau, opt));
    // Against a tableau reference batch_frame is statistical too.
    VerifyOptions tab_ref = opt;
    tab_ref.reference = SimBackend::kTableau;
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kBatchFrame, tab_ref));

    // Any deliberate perturbation downgrades to statistical.
    VerifyOptions seeds = opt;
    seeds.independent_seeds = true;
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kBatchFrame, seeds));
    VerifyOptions inject = opt;
    inject.inject_noise_scale = 2.0;
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kBatchFrame, inject));
}

TEST(VerifyCompareMode, SparseSamplingMovesBatchBackendsToStatistical)
{
    VerifyOptions opt;  // reference = frame
    // Under sparse draws the batch backends leave the scalar-replay
    // contract: batch_frame vs frame becomes the qualification
    // comparison — statistical, against a genuine lockstep reference.
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kBatchFrame, opt,
                                  NoiseSampling::kSparse));
    // Scalar backends ignore the knob: tableau keeps its own contract
    // and frame-vs-tableau stays statistical exactly as at lockstep.
    EXPECT_EQ(CompareMode::kStatistical,
              verify_compare_mode(SimBackend::kTableau, opt,
                                  NoiseSampling::kSparse));
    // Two sparse batch arms still share ONE sparse contract per backend:
    // batch_frame refereed against a batch_frame reference stays
    // bit-exact even at sparse (same event stream derivation).
    VerifyOptions bf_ref = opt;
    bf_ref.reference = SimBackend::kBatchFrame;
    EXPECT_EQ(CompareMode::kBitExact,
              verify_compare_mode(SimBackend::kBatchFrame, bf_ref,
                                  NoiseSampling::kSparse));
}

// ------------------------------------------------------- Candidates.

TEST(VerifyCandidates, DefaultIsEveryOtherBackend)
{
    VerifyOptions opt;  // reference = frame, candidates empty
    const std::vector<SimBackend> c = verify_candidates(opt);
    ASSERT_EQ(2u, c.size());
    EXPECT_EQ(SimBackend::kTableau, c[0]);
    EXPECT_EQ(SimBackend::kBatchFrame, c[1]);
}

TEST(VerifyCandidates, SelfCandidateNeedsIndependentSeeds)
{
    VerifyOptions opt;
    opt.candidates = {SimBackend::kFrame};
    EXPECT_THROW(verify_candidates(opt), std::runtime_error);
    opt.independent_seeds = true;  // the null-calibration mode
    EXPECT_EQ(1u, verify_candidates(opt).size());
}

TEST(VerifyCandidates, RejectsDuplicates)
{
    VerifyOptions opt;
    opt.candidates = {SimBackend::kTableau, SimBackend::kTableau};
    EXPECT_THROW(verify_candidates(opt), std::runtime_error);
}

// ------------------------------------------------- The referee runs.

TEST(RunVerify, BitExactArmPassesAndRecordsNoChecks)
{
    CampaignSpec grid = tiny_grid("bitexact", 0xB17E8Au);
    grid.noise_sampling = NoiseSampling::kLockstep;  // the bit-exact mode
    VerifyOptions opt;
    opt.candidates = {SimBackend::kBatchFrame};
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("bitexact"));
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_EQ(CompareMode::kBitExact, report.points[0].mode);
    EXPECT_TRUE(report.points[0].bit_mismatches.empty());
    EXPECT_TRUE(report.points[0].checks.empty());
    EXPECT_EQ(0, report.n_stat_tests);
}

TEST(RunVerify, BatchFrameAgreesStatisticallyWithTableauReference)
{
    // The exact engine as referee: the tableau backend judges the
    // production batch frame.  Different RNG contracts make this a
    // statistical comparison, and the Pauli frame must agree with the
    // exact stabilizer engine on every refereed rate.
    const CampaignSpec grid = tiny_grid("battab", 0xBA77ABu);
    VerifyOptions opt;
    opt.reference = SimBackend::kTableau;
    opt.candidates = {SimBackend::kBatchFrame};
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("battab"));
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_EQ(CompareMode::kStatistical, report.points[0].mode);
    EXPECT_GT(report.n_stat_tests, 0);
}

TEST(RunVerify, NullCalibrationPassesAtAlpha)
{
    // Same backend, disjoint seeds: everything the referee flags here
    // is by construction a false positive.  One fixed seed is one draw
    // from the null; the 20-seed sweep behind the trial-unit choice in
    // Metrics (see metrics.h) showed z std <= 1 for every clustered
    // metric, so a family-alpha=0.01 pass is the overwhelmingly likely
    // outcome and a regression that breaks calibration (or the sample
    // definitions) flips it.
    const CampaignSpec grid = tiny_grid("nullcal", 0xA11CEu);
    VerifyOptions opt;
    opt.candidates = {SimBackend::kFrame};
    opt.independent_seeds = true;
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("nullcal"));
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_EQ(CompareMode::kStatistical, report.points[0].mode);
    ASSERT_EQ(4u, report.points[0].checks.size());  // ler, fn, fp, dlp
    EXPECT_EQ(4, report.n_stat_tests);
    EXPECT_LT(report.per_test_alpha, report.alpha);
}

TEST(RunVerify, InjectedRateDeltaIsFlagged)
{
    // 3x physical error rate on the candidate arm: the FP rate roughly
    // doubles (z ~ -5 at 192 shots under the trajectory trial unit), so
    // the referee must fail — this is the power half of calibration.
    const CampaignSpec grid = tiny_grid("inject", 0xA11CEu);
    VerifyOptions opt;
    opt.candidates = {SimBackend::kFrame};
    opt.independent_seeds = true;
    opt.inject_noise_scale = 3.0;
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("inject"));
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_FALSE(report.points[0].pass);
    bool some_check_failed = false;
    for (const RateCheck& c : report.points[0].checks)
        some_check_failed |= !c.pass;
    EXPECT_TRUE(some_check_failed);
}

TEST(RunVerify, SparseBatchFrameAgreesStatisticallyWithFrameReference)
{
    // THE sparse qualification gate: a sparse batch_frame candidate is
    // refereed against the lockstep scalar frame reference.  The event
    // sampler draws a completely different randomness sequence, so the
    // comparison is statistical by contract — and the sampler is only
    // correct if every refereed rate agrees.
    CampaignSpec grid = tiny_grid("sparse", 0x5BA85Eu);
    grid.noise_sampling = NoiseSampling::kSparse;
    VerifyOptions opt;
    opt.candidates = {SimBackend::kBatchFrame};
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("sparse"));
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_EQ(CompareMode::kStatistical, report.points[0].mode);
    EXPECT_GT(report.n_stat_tests, 0);
}

TEST(RunVerify, SparseNullCalibrationPassesAtAlpha)
{
    // Null calibration WITHIN sparse mode: same backend (batch_frame),
    // same sparse sampler, disjoint seeds.  Anything flagged here is a
    // false positive, so a family-alpha=0.01 pass is the overwhelmingly
    // likely outcome — and a sparse-sampler bug that skews the draw
    // distribution between seeds flips it.
    CampaignSpec grid = tiny_grid("sparsenull", 0x5BA85EA11u);
    grid.noise_sampling = NoiseSampling::kSparse;
    VerifyOptions opt;
    opt.reference = SimBackend::kBatchFrame;
    opt.candidates = {SimBackend::kBatchFrame};
    opt.independent_seeds = true;
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("sparsenull"));
    EXPECT_TRUE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_EQ(CompareMode::kStatistical, report.points[0].mode);
    ASSERT_EQ(4u, report.points[0].checks.size());  // ler, fn, fp, dlp
}

TEST(RunVerify, SparseInjectedRateDeltaIsFlagged)
{
    // Power at sparse: 3x physical error rate on the sparse candidate
    // arm must be flagged against the lockstep frame reference — the
    // referee keeps its teeth when the sampler changes.
    CampaignSpec grid = tiny_grid("sparseinject", 0xA11CEu);
    grid.noise_sampling = NoiseSampling::kSparse;
    VerifyOptions opt;
    opt.candidates = {SimBackend::kBatchFrame};
    opt.inject_noise_scale = 3.0;
    opt.threads = 2;
    const VerifyReport report =
        run_verify(grid, opt, 1, fresh_dir("sparseinject"));
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(1u, report.points.size());
    EXPECT_FALSE(report.points[0].pass);
}

TEST(RunVerify, RejectsBadOptions)
{
    const CampaignSpec grid = tiny_grid("bad", 1);
    VerifyOptions opt;
    opt.alpha = 0.0;
    EXPECT_THROW(run_verify(grid, opt, 1, fresh_dir("bad_alpha")),
                 std::runtime_error);
    VerifyOptions scale;
    scale.inject_noise_scale = -1.0;
    EXPECT_THROW(run_verify(grid, scale, 1, fresh_dir("bad_scale")),
                 std::runtime_error);
}

TEST(RunVerify, ShardedRunMergesBitIdenticallyToSingleProcess)
{
    // The acceptance contract: verify_run_shard x3 (a simulated fleet)
    // then run_verify over the same out_dir RESUMES those checkpoints,
    // and every arm's merged Metrics — and the verdict document itself —
    // is bit-identical to a fresh single-process verify.
    const CampaignSpec grid = tiny_grid("shards", 0x5AAD5u);
    VerifyOptions opt;
    opt.candidates = {SimBackend::kTableau, SimBackend::kBatchFrame};
    opt.threads = 2;

    const std::string fleet_dir = fresh_dir("fleet");
    const int n_shards = 3;
    for (int s = 0; s < n_shards; ++s)
        verify_run_shard(grid, opt, s, n_shards, fleet_dir);
    const VerifyReport fleet = run_verify(grid, opt, n_shards, fleet_dir);

    const std::string solo_dir = fresh_dir("solo");
    const VerifyReport solo = run_verify(grid, opt, 1, solo_dir);

    EXPECT_TRUE(fleet.pass);
    EXPECT_TRUE(solo.pass);
    // The verdict documents agree bit-for-bit (rates, z, p-values, CIs
    // all serialize doubles exactly).
    EXPECT_EQ(solo.to_json().dump(2), fleet.to_json().dump(2));

    // And so does every arm's merged Metrics, dlp_series included.
    std::vector<CampaignSpec> arms = {
        verify_arm_spec(grid, opt.reference, true, opt)};
    for (SimBackend cand : verify_candidates(opt))
        arms.push_back(verify_arm_spec(grid, cand, false, opt));
    for (const CampaignSpec& arm : arms) {
        const std::vector<Metrics> a = load_merged(arm, fleet_dir);
        const std::vector<Metrics> b = load_merged(arm, solo_dir);
        ASSERT_EQ(a.size(), b.size()) << arm.name;
        for (size_t i = 0; i < a.size(); ++i)
            expect_metrics_identical(a[i], b[i]);
    }
}

}  // namespace
}  // namespace campaign
}  // namespace gld
