// Campaign subsystem: grid expansion, shard planning, checkpoint/resume,
// and the acceptance contract — plan/run over 3 shards + merge is
// BIT-identical to the equivalent single-process ExperimentRunner::run().

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/registry.h"
#include "io/serialize.h"
#include "metrics_test_util.h"
#include "util/config.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace gld {
namespace campaign {
namespace {

using test::expect_bits_eq;
using test::expect_metrics_identical;

CampaignSpec
small_spec(const std::string& name)
{
    CampaignSpec spec;
    spec.name = name;
    spec.seed = 0xCAFE5EED1234ull;
    spec.shots = 45;  // not divisible by rng_streams: exercises the
    spec.rounds = 7;  // uneven per-stream shot partition
    spec.rng_streams = 8;
    spec.leakage_sampling = true;
    spec.compute_ler = true;
    spec.record_dlp_series = true;
    spec.codes = {"surface:3"};
    spec.policies = {"eraser_m", "gladiator_m"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1)};
    return spec;
}

std::string
fresh_dir(const std::string& tag)
{
    // Unique per test-binary execution: checkpoint files persist on disk
    // by design, so a rerun reusing yesterday's directory would resume
    // (valid results!) where these tests assert a cold start.
    return ::testing::TempDir() + "gld_campaign_" +
           std::to_string(::getpid()) + "_" + tag;
}

/** Rewrites a shard result file with `edit` applied to the Metrics of
 *  its first stream entry. */
void
edit_first_stream_metrics(const std::string& path, void (*edit)(Metrics*))
{
    const io::Json j = io::Json::parse(io::read_file(path));
    io::Json out = io::Json::object();
    for (const auto& [key, value] : j.items()) {
        if (key != "streams") {
            out.set(key, value);
            continue;
        }
        io::Json streams = io::Json::array();
        for (size_t i = 0; i < value.size(); ++i) {
            io::Json entry = io::Json::object();
            for (const auto& [ek, ev] : value.at(i).items()) {
                if (i == 0 && ek == "metrics") {
                    Metrics m = io::metrics_from_json(ev);
                    edit(&m);
                    entry.set(ek, io::metrics_to_json(m));
                } else {
                    entry.set(ek, ev);
                }
            }
            streams.push(std::move(entry));
        }
        out.set(key, std::move(streams));
    }
    io::write_file_atomic(path, out.dump(2) + "\n");
}

TEST(CampaignSpec, ExpandIsDeterministicWithDistinctSeeds)
{
    CampaignSpec spec = small_spec("expand");
    spec.codes = {"surface:3", "color:5"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1),
                  NoiseParams::standard(2e-3, 0.1)};
    const std::vector<JobSpec> a = spec.expand();
    const std::vector<JobSpec> b = spec.expand();
    ASSERT_EQ(a.size(), 2u * 2u * 2u);
    std::set<uint64_t> seeds;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, static_cast<int>(i));
        EXPECT_EQ(a[i].code, b[i].code);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(a[i].cfg.seed, b[i].cfg.seed);
        EXPECT_EQ(a[i].cfg.seed, spec.job_seed(a[i].index));
        seeds.insert(a[i].cfg.seed);
    }
    // Default paired design: every policy at a (code, noise) grid point
    // shares one seed (identical noise realizations), and the seeds of
    // different grid points are pairwise distinct.
    EXPECT_EQ(seeds.size(), a.size() / spec.policies.size());
    EXPECT_EQ(a[0].cfg.seed, a[1].cfg.seed);
    EXPECT_NE(a[0].cfg.seed, a[2].cfg.seed);
    // Unpaired: every job gets its own seed.
    spec.pair_policy_seeds = false;
    const std::vector<JobSpec> u = spec.expand();
    std::set<uint64_t> useeds;
    for (const JobSpec& job : u)
        useeds.insert(job.cfg.seed);
    EXPECT_EQ(useeds.size(), u.size());
    // Grid order contract: codes outer, noise middle, policies inner.
    EXPECT_EQ(a[0].code, "surface:3");
    EXPECT_EQ(a[0].policy, "eraser_m");
    EXPECT_EQ(a[1].policy, "gladiator_m");
    expect_bits_eq(a[2].cfg.np.p, 2e-3, "noise grid order");
    EXPECT_EQ(a[4].code, "color:5");
}

TEST(CampaignSpec, JsonRoundTripPreservesJobsAndHashes)
{
    CampaignSpec spec = small_spec("json");
    spec.codes = {"surface:3", "hgp_hamming"};
    const CampaignSpec back =
        CampaignSpec::from_json(io::Json::parse(spec.to_json().dump(2)));
    const std::vector<JobSpec> a = spec.expand();
    const std::vector<JobSpec> b = back.expand();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].code, b[i].code);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(io::config_hash(a[i].cfg), io::config_hash(b[i].cfg));
    }
}

// One noise-sampling default: the spec and the environment fallback read
// ExperimentConfig's instead of repeating it.
TEST(CampaignSpec, NoiseSamplingDefaultsAgree)
{
    const char* prev_raw = std::getenv("GLD_NOISE_SAMPLING");
    const std::string prev = prev_raw != nullptr ? prev_raw : "";
    ASSERT_EQ(unsetenv("GLD_NOISE_SAMPLING"), 0);
    EXPECT_EQ(CampaignSpec{}.noise_sampling,
              ExperimentConfig{}.noise_sampling);
    EXPECT_EQ(noise_sampling_from_env(), ExperimentConfig{}.noise_sampling);
    if (prev_raw != nullptr) {
        ASSERT_EQ(setenv("GLD_NOISE_SAMPLING", prev.c_str(), 1), 0);
    }
}

// A spec is untrusted input: a rate outside [0, 1] must be refused by
// name when the spec is read, never run.
TEST(CampaignSpec, FromJsonRejectsNoiseRatesOutsideUnitInterval)
{
    struct Case {
        const char* field;
        void (*bend)(NoiseParams*);
    };
    const Case cases[] = {
        {"p", [](NoiseParams* np) { np->p = 1.5; }},
        {"p", [](NoiseParams* np) { np->p = -0.5; }},
        {"pl()", [](NoiseParams* np) { np->leak_ratio = 2000.0; }},
        {"mlr_err()", [](NoiseParams* np) { np->mlr_ratio = 2000.0; }},
        {"mobility", [](NoiseParams* np) { np->mobility = 1.01; }},
        {"lrc_depol()", [](NoiseParams* np) { np->lrc_gate_factor = 2000.0; }},
        {"lrc_leak()", [](NoiseParams* np) { np->lrc_leak_prob = -0.1; }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.field);
        CampaignSpec spec = small_spec("bad_noise");
        c.bend(&spec.noise[0]);
        try {
            CampaignSpec::from_json(spec.to_json());
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(c.field),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_NO_THROW(CampaignSpec::from_json(small_spec("ok").to_json()));
}

TEST(CampaignSpec, ValidationRejectsBadNames)
{
    CampaignSpec spec = small_spec("bad");
    spec.policies = {"eraser_m", "definitely_not_a_policy"};
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad2");
    spec.codes = {"surface:4"};  // even distance
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad2b");
    // Fixed-construction family: a distance suffix would fake a sweep.
    spec.codes = {"hgp_hamming:3"};
    EXPECT_THROW(spec.validate(), std::runtime_error);
    spec = small_spec("bad3");
    spec.codes.clear();
    EXPECT_THROW(spec.expand(), std::runtime_error);
    EXPECT_NO_THROW(small_spec("good").validate());
}

TEST(CostModel, JobCostUnitsWeighShotsRoundsAndBackend)
{
    CampaignSpec spec = small_spec("cost");
    const std::vector<JobSpec> frame_jobs = spec.expand();
    spec.backend = SimBackend::kTableau;
    const std::vector<JobSpec> tableau_jobs = spec.expand();

    const int nq = make_code(frame_jobs[0].code)->code.n_qubits();
    ASSERT_GT(nq, 8);  // surface:3 = 17 qubits: the tableau factor bites

    // Frame: one cost unit per shot-round, exactly.
    EXPECT_DOUBLE_EQ(job_cost_units(frame_jobs[0], nq, /*shots=*/45),
                     45.0 * 7.0);
    // Tableau: the same job costs the backend factor more — that is the
    // whole point of backend-aware plan output.
    const double factor = backend_cost_factor(SimBackend::kTableau, nq);
    EXPECT_GT(factor, 1.0);
    EXPECT_DOUBLE_EQ(job_cost_units(tableau_jobs[0], nq, 45),
                     45.0 * 7.0 * factor);
    // Linear in the shard's shot share (what `plan` sums per shard).
    EXPECT_DOUBLE_EQ(job_cost_units(tableau_jobs[0], nq, 15),
                     job_cost_units(tableau_jobs[0], nq, 45) / 3.0);
    EXPECT_DOUBLE_EQ(job_cost_units(frame_jobs[0], nq, 0), 0.0);
}

TEST(ShardPlan, StreamsPartitionExactly)
{
    ExperimentConfig cfg;
    cfg.shots = 45;
    cfg.rng_streams = 8;
    const int total = ExperimentRunner::n_streams(cfg);
    ASSERT_EQ(total, 8);
    for (int n_shards : {1, 2, 3, 5, 8, 16}) {
        SCOPED_TRACE(n_shards);
        std::set<int> seen;
        long shots = 0;
        for (int shard = 0; shard < n_shards; ++shard) {
            for (int s : ShardPlan::streams_for(cfg, shard, n_shards)) {
                EXPECT_TRUE(seen.insert(s).second) << "stream " << s;
                shots += ExperimentRunner::stream_shots(cfg, s);
            }
        }
        EXPECT_EQ(static_cast<int>(seen.size()), total);
        EXPECT_EQ(shots, cfg.shots);  // every shot exactly once
    }
    EXPECT_THROW(ShardPlan::validate(-1, 3), std::runtime_error);
    EXPECT_THROW(ShardPlan::validate(3, 3), std::runtime_error);
    EXPECT_THROW(ShardPlan::validate(0, 0), std::runtime_error);
}

// --- CampaignPlan: deterministic cost-balanced LPT assignment. ---

TEST(CampaignPlan, PartitionsEveryStreamExactlyOnceAndDeterministically)
{
    CampaignSpec spec = small_spec("plan_exact");
    spec.codes = {"surface:3", "color:5"};
    const std::vector<JobSpec> jobs = spec.expand();
    for (int n_shards : {1, 2, 3, 5}) {
        SCOPED_TRACE(n_shards);
        const CampaignPlan plan = CampaignPlan::build(spec, n_shards);
        const CampaignPlan again = CampaignPlan::build(spec, n_shards);
        for (const JobSpec& job : jobs) {
            const int total = ExperimentRunner::n_streams(job.cfg);
            std::vector<int> seen(static_cast<size_t>(total), 0);
            for (int shard = 0; shard < n_shards; ++shard) {
                const std::vector<int>& ss =
                    plan.streams_for(job.index, shard);
                // Identical across independent builds (every process
                // computes the same plan without communicating).
                EXPECT_EQ(ss, again.streams_for(job.index, shard));
                EXPECT_TRUE(std::is_sorted(ss.begin(), ss.end()));
                for (int s : ss) {
                    ASSERT_GE(s, 0);
                    ASSERT_LT(s, total);
                    ++seen[static_cast<size_t>(s)];
                }
            }
            for (int s = 0; s < total; ++s)
                EXPECT_EQ(seen[static_cast<size_t>(s)], 1)
                    << "job " << job.index << " stream " << s;
        }
    }
}

TEST(CampaignPlan, LptBalancesMixedBackendCosts)
{
    // Two campaigns' worth of heterogeneity in one: a tableau job costs
    // ~n^2/64 x a frame job per stream, so round-robin by stream id
    // would load shard 0 and shard 1 equally ONLY in expectation.  The
    // LPT plan's cost spread must be bounded by one item (the classic
    // LPT guarantee: max load <= min load + max item).
    CampaignSpec frame_spec = small_spec("plan_frame");
    frame_spec.compute_ler = false;
    for (SimBackend b :
         {SimBackend::kFrame, SimBackend::kTableau,
          SimBackend::kBatchFrame}) {
        SCOPED_TRACE(backend_name(b));
        CampaignSpec spec = frame_spec;
        spec.backend = b;
        const int n_shards = 3;
        const CampaignPlan plan = CampaignPlan::build(spec, n_shards);
        double max_cost = plan.shard_cost_units[0];
        double min_cost = plan.shard_cost_units[0];
        double max_item = 0.0;
        const std::vector<JobSpec> jobs = spec.expand();
        for (const JobSpec& job : jobs) {
            const double factor = backend_cost_factor(
                b, plan.job_qubits[static_cast<size_t>(job.index)]);
            for (int s = 0;
                 s < ExperimentRunner::n_streams(job.cfg); ++s) {
                const double c =
                    ExperimentRunner::stream_shots(job.cfg, s) *
                    static_cast<double>(job.cfg.rounds) * factor;
                max_item = std::max(max_item, c);
            }
        }
        for (double c : plan.shard_cost_units) {
            max_cost = std::max(max_cost, c);
            min_cost = std::min(min_cost, c);
        }
        EXPECT_LE(max_cost, min_cost + max_item + 1e-9)
            << max_cost << " vs " << min_cost;
        EXPECT_GT(max_cost, 0.0);
    }
}

TEST(CampaignPlan, ShardMergeStaysBitIdenticalUnderLpt)
{
    // The LPT assignment must not perturb the merge contract: running
    // every shard's planned stream set and merging reproduces run()
    // exactly, for a shard count that forces uneven stream splits.
    const CampaignSpec spec = small_spec("plan_merge");
    const int n_shards = 3;
    const std::string dir = fresh_dir("plan_merge");
    for (int shard = 0; shard < n_shards; ++shard)
        run_shard(spec, shard, n_shards, dir, /*threads=*/2);
    const std::vector<Metrics> merged =
        merge_campaign(spec, n_shards, dir);

    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(merged.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].policy);
        auto code = make_code(jobs[i].code);
        const ExperimentRunner runner(code->ctx, jobs[i].cfg);
        const Metrics direct =
            runner.run(make_policy(jobs[i].policy, jobs[i].cfg.np));
        expect_metrics_identical(direct, merged[i]);
    }
}

TEST(Merge, ExactlyRepresentableTotalsAreAssociative)
{
    // Metric totals are counter-like sums of small rationals; for
    // integer-valued doubles IEEE addition is exact, so any grouping of
    // merges must agree bit-for-bit.  (Arbitrary-double grouping is NOT
    // associative — which is exactly why merge_campaign folds partials
    // in ascending stream order rather than per-shard.)
    const auto mk = [](long shots, double fn, double dlp, long err) {
        Metrics m;
        m.shots = shots;
        m.rounds_per_shot = 7;
        m.fn_total = fn;
        m.dlp_total = dlp;
        m.logical_errors = err;
        m.dlp_series = {fn, dlp};
        return m;
    };
    const Metrics a = mk(10, 3, 7, 1);
    const Metrics b = mk(20, 5, 11, 0);
    const Metrics c = mk(15, 8, 2, 2);

    Metrics ab = a;
    ab.merge(b);
    Metrics ab_c = ab;
    ab_c.merge(c);

    Metrics bc = b;
    bc.merge(c);
    Metrics a_bc = a;
    a_bc.merge(bc);

    expect_metrics_identical(ab_c, a_bc);
    EXPECT_EQ(ab_c.shots, 45);
    expect_bits_eq(ab_c.fn_total, 16.0, "fn sum");
}

TEST(Merge, StreamOrderedFoldMatchesRunFoldForAnyGrouping)
{
    // The load-bearing property behind shard-then-merge: reassembling
    // per-stream partials in ascending stream order gives run()'s exact
    // left-fold, no matter how streams were grouped into shards.
    const auto code = make_code("surface:3");
    ExperimentConfig cfg;
    cfg.np = NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = 6;
    cfg.shots = 29;
    cfg.seed = 0xFEED5EEDull;
    cfg.leakage_sampling = true;
    cfg.record_dlp_series = true;
    cfg.rng_streams = 8;
    const ExperimentRunner runner(code->ctx, cfg);
    const PolicyFactory factory = PolicyZoo::eraser(true);

    const Metrics direct = runner.run(factory);

    // "Shards" of streams in scrambled request order.
    const std::vector<std::vector<int>> groups = {{5, 1}, {0, 6, 3}, {7, 2, 4}};
    std::vector<Metrics> by_stream(8);
    for (const std::vector<int>& g : groups) {
        const std::vector<Metrics> parts = runner.run_partials(factory, g);
        for (size_t i = 0; i < g.size(); ++i)
            by_stream[static_cast<size_t>(g[i])] = parts[i];
    }
    Metrics merged;
    for (const Metrics& part : by_stream)
        merged.merge(part);
    expect_metrics_identical(direct, merged);
}

// The subsystem's acceptance criterion, end to end through the library
// the CLI drives: plan (expand) -> run --shard {0,1,2}/3 (checkpoint
// files in a scratch dir) -> merge -> bit-identical to single-process
// ExperimentRunner::run() for every job of the campaign.
TEST(ShardEquivalence, ThreeShardsMergeBitIdenticalToSingleProcess)
{
    const CampaignSpec spec = small_spec("equiv");
    const std::string dir = fresh_dir("equiv");
    const int n_shards = 3;

    for (int shard = 0; shard < n_shards; ++shard) {
        const RunShardStats stats =
            run_shard(spec, shard, n_shards, dir, /*threads=*/2);
        EXPECT_EQ(stats.jobs_run, 2);
        EXPECT_EQ(stats.jobs_resumed, 0);
    }
    const std::vector<Metrics> merged = merge_campaign(spec, n_shards, dir);
    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(merged.size(), jobs.size());

    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].policy);
        const auto code = make_code(jobs[i].code);
        const ExperimentRunner runner(code->ctx, jobs[i].cfg);
        const Metrics direct =
            runner.run(make_policy(jobs[i].policy, jobs[i].cfg.np));
        expect_metrics_identical(direct, merged[i]);
        EXPECT_EQ(direct.shots, spec.shots);
        EXPECT_GT(direct.decoded_shots, 0);  // LER path exercised too
    }

    // load_merged reads back what merge wrote, bit-for-bit.
    const std::vector<Metrics> loaded = load_merged(spec, dir);
    ASSERT_EQ(loaded.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i)
        expect_metrics_identical(merged[i], loaded[i]);
}

TEST(Resume, SkipsValidRecomputesStaleAndCorrupt)
{
    const CampaignSpec spec = small_spec("resume");
    const std::string dir = fresh_dir("resume");

    RunShardStats first = run_shard(spec, 0, 2, dir, 1);
    EXPECT_EQ(first.jobs_run, 2);
    EXPECT_EQ(first.jobs_resumed, 0);

    // Same spec again: everything resumes, nothing recomputes.
    RunShardStats second = run_shard(spec, 0, 2, dir, 1);
    EXPECT_EQ(second.jobs_run, 0);
    EXPECT_EQ(second.jobs_resumed, 2);

    // A changed config (different hash) invalidates the checkpoints.
    CampaignSpec changed = spec;
    changed.rounds += 1;
    RunShardStats third = run_shard(changed, 0, 2, dir, 1);
    EXPECT_EQ(third.jobs_run, 2);
    EXPECT_EQ(third.jobs_resumed, 0);

    // A garbled result file is recomputed, not trusted.
    const std::string victim = shard_result_path(dir, changed, 0, 0, 2);
    io::write_file_atomic(victim, "{\"gld_version\": 1, truncated");
    RunShardStats fourth = run_shard(changed, 0, 2, dir, 1);
    EXPECT_EQ(fourth.jobs_run, 1);
    EXPECT_EQ(fourth.jobs_resumed, 1);

    // Swapping the policy order leaves every job's CONFIG unchanged
    // (paired seeds: both policies share one seed, and policy is not
    // part of ExperimentConfig), so only the job-identity check stops
    // the old results from being resumed under the wrong label.
    CampaignSpec swapped = changed;
    std::swap(swapped.policies[0], swapped.policies[1]);
    EXPECT_EQ(io::config_hash(swapped.expand()[0].cfg),
              io::config_hash(changed.expand()[0].cfg));
    RunShardStats fifth = run_shard(swapped, 0, 2, dir, 1);
    EXPECT_EQ(fifth.jobs_run, 2);
    EXPECT_EQ(fifth.jobs_resumed, 0);
}

TEST(Merge, RefusesMissingShardsAndForeignConfigs)
{
    const CampaignSpec spec = small_spec("strict");
    const std::string dir = fresh_dir("strict");
    run_shard(spec, 0, 2, dir, 1);
    // Shard 1 of 2 never ran.
    EXPECT_THROW(merge_campaign(spec, 2, dir), std::runtime_error);

    run_shard(spec, 1, 2, dir, 1);
    EXPECT_NO_THROW(merge_campaign(spec, 2, dir));

    // Results on disk from a different config must be rejected, not
    // silently merged.
    CampaignSpec other = spec;
    other.seed ^= 0xF00Dull;
    EXPECT_THROW(merge_campaign(other, 2, dir), std::runtime_error);

    // Same config, different job identity (policy order swapped under
    // paired seeds): merge must refuse to relabel the results.
    CampaignSpec swapped = spec;
    std::swap(swapped.policies[0], swapped.policies[1]);
    EXPECT_THROW(merge_campaign(swapped, 2, dir), std::runtime_error);

    // A stream whose counts contradict its job's config: merge names the
    // file, the stream and the field instead of tripping Metrics::merge,
    // and resume recomputes the file instead of trusting it.
    const std::string victim = shard_result_path(dir, spec, 0, 1, 2);
    const std::string good = io::read_file(victim);
    const long stream = static_cast<long>(
        io::Json::parse(good)["streams"].at(0)["stream"].as_int());
    const struct {
        const char* field;
        void (*edit)(Metrics*);
    } cases[] = {
        {"shots", [](Metrics* m) { m->shots += 1; }},
        {"rounds_per_shot", [](Metrics* m) { m->rounds_per_shot += 1; }},
        {"dlp_series", [](Metrics* m) { m->dlp_series.pop_back(); }},
        {"decoded_shots", [](Metrics* m) { m->decoded_shots -= 1; }},
        {"logical_errors",
         [](Metrics* m) { m->logical_errors = m->decoded_shots + 1; }},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.field);
        edit_first_stream_metrics(victim, c.edit);
        try {
            merge_campaign(spec, 2, dir);
            ADD_FAILURE() << "merge accepted a bad " << c.field;
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(victim), std::string::npos) << what;
            EXPECT_NE(what.find("stream " + std::to_string(stream)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(c.field), std::string::npos) << what;
        }
        const RunShardStats rerun = run_shard(spec, 1, 2, dir, 1);
        EXPECT_EQ(rerun.jobs_run, 1);
        EXPECT_EQ(rerun.jobs_resumed, 1);
        EXPECT_EQ(io::read_file(victim), good);
        EXPECT_NO_THROW(merge_campaign(spec, 2, dir));
    }
}

TEST(Campaign, JobPoolAndRunnerShareOneThreadBudget)
{
    // -j N (jobs_parallel) and the per-job runner loops execute on the
    // ONE process-wide pool: with both asking for the full
    // BenchConfig::threads() budget, the pool must neither spawn new
    // workers mid-campaign nor ever have more than `budget` threads
    // active at once — the oversubscription regression behind the
    // 8-thread-slower-than-1-thread trajectory point.
    const CampaignSpec spec = small_spec("shared_budget");
    const std::string dir = fresh_dir("shared_budget");

    ThreadPool& pool = ThreadPool::instance();
    const int budget = std::max(1, BenchConfig::threads());
    parallel_for_dynamic(4, budget, [](size_t) {});  // warm the pool
    const long created = pool.workers_created();
    pool.reset_peak();

    RunShardOptions opt;
    opt.threads = 0;  // full budget per job
    opt.jobs_parallel = 2;
    const RunShardStats stats = run_shard(spec, 0, 1, dir, opt);
    EXPECT_EQ(stats.jobs_run, static_cast<int>(spec.expand().size()));

    EXPECT_EQ(pool.workers_created(), created);
    EXPECT_GE(pool.peak_active(), 1);
    EXPECT_LE(pool.peak_active(), budget);

    // And the nested-pool schedule is a pure execution detail: the
    // merged results match a serial single-thread pass bit for bit.
    const std::string dir_serial = fresh_dir("shared_budget_serial");
    run_shard(spec, 0, 1, dir_serial, /*threads=*/1);
    const std::vector<Metrics> par = merge_campaign(spec, 1, dir);
    const std::vector<Metrics> ser = merge_campaign(spec, 1, dir_serial);
    ASSERT_EQ(par.size(), ser.size());
    for (size_t i = 0; i < par.size(); ++i) {
        SCOPED_TRACE(i);
        expect_metrics_identical(ser[i], par[i]);
    }
}

// --- Telemetry, liveness and calibration (the observability layer). ---

TEST(Observability, TelemetryIsAPureSideChannelAtTheCampaignLevel)
{
    // run_shard with telemetry + heatmaps on vs the legacy (telemetry
    // off) entry point: the merged Metrics must be bit-identical — the
    // campaign-level extension of the runner drift gate.
    const CampaignSpec spec = small_spec("side_channel");
    const int n_shards = 2;
    const std::string dir_on = fresh_dir("side_channel_on");
    const std::string dir_off = fresh_dir("side_channel_off");

    RunShardOptions opt;
    opt.threads = 2;
    opt.heatmap = true;
    ASSERT_TRUE(opt.telemetry);
    for (int shard = 0; shard < n_shards; ++shard) {
        run_shard(spec, shard, n_shards, dir_on, opt);
        run_shard(spec, shard, n_shards, dir_off, /*threads=*/2);
    }
    const std::vector<Metrics> on = merge_campaign(spec, n_shards, dir_on);
    const std::vector<Metrics> off = merge_campaign(spec, n_shards, dir_off);
    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < on.size(); ++i) {
        SCOPED_TRACE(i);
        expect_metrics_identical(off[i], on[i]);
    }
}

TEST(Observability, ProgressHeatmapAndCalibrationEndToEnd)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CampaignSpec spec = small_spec("observe");
    const int n_shards = 3;
    const std::string dir = fresh_dir("observe");
    const std::vector<JobSpec> jobs = spec.expand();

    RunShardOptions opt;
    opt.threads = 2;
    opt.heatmap = true;
    for (int shard = 0; shard < n_shards; ++shard)
        run_shard(spec, shard, n_shards, dir, opt);

    // Liveness: every shard's heartbeat file ends in a done snapshot, and
    // the fleet totals cover every (job, shot) exactly once.
    const std::vector<ShardProgress> progress =
        read_progress(spec, n_shards, dir);
    ASSERT_EQ(progress.size(), static_cast<size_t>(n_shards));
    int64_t shots_done = 0;
    int64_t jobs_done = 0;
    uint64_t stage_total = 0;
    for (const ShardProgress& p : progress) {
        SCOPED_TRACE(p.shard);
        EXPECT_TRUE(p.valid);
        EXPECT_TRUE(p.done);
        EXPECT_EQ(p.jobs_done, static_cast<int64_t>(jobs.size()));
        EXPECT_EQ(p.jobs_resumed, 0);
        EXPECT_EQ(p.shots_done, p.shots_total);
        shots_done += p.shots_done;
        jobs_done += p.jobs_done;
        for (uint64_t ns : p.stage_ns)
            stage_total += ns;
    }
    EXPECT_EQ(shots_done,
              static_cast<int64_t>(jobs.size()) * spec.shots);
    EXPECT_EQ(jobs_done, static_cast<int64_t>(jobs.size()) * n_shards);
    EXPECT_GT(stage_total, 0u);  // executed shards carry a stage split
    EXPECT_NO_THROW(print_status(spec, n_shards, dir));

    // A never-started fleet reads as not-valid, it does not throw.
    const std::vector<ShardProgress> cold =
        read_progress(spec, n_shards, fresh_dir("observe_cold"));
    for (const ShardProgress& p : cold)
        EXPECT_FALSE(p.valid);

    // Heatmaps: the cross-shard merge has the job's geometry and counts
    // every leaked data qubit-round the resumable results saw.
    const auto code = make_code(jobs[0].code);
    const telemetry::Heatmap hm =
        merge_job_heatmap(spec, n_shards, dir, /*job_index=*/0);
    EXPECT_EQ(hm.rounds, spec.rounds);
    EXPECT_EQ(hm.n_data, code->code.n_data());
    EXPECT_EQ(hm.n_checks, code->code.n_checks());
    uint64_t occupancy = 0;
    for (uint64_t c : hm.counts)
        occupancy += c;
    EXPECT_GT(occupancy, 0u);  // leakage sampling guarantees leaks
    EXPECT_EQ(write_job_heatmaps(spec, n_shards, dir),
              static_cast<int>(jobs.size()));

    // Calibration closes the loop: telemetry -> measured rates -> plan.
    const Calibration calib =
        Calibration::from_telemetry(spec, n_shards, dir);
    ASSERT_TRUE(calib.has("frame", "surface:3"));
    EXPECT_GT(calib.rate("frame", "surface:3"), 0.0);
    EXPECT_THROW(calib.rate("tableau", "surface:3"), std::runtime_error);

    // Readers still accept files from builds that recorded a
    // site_kernel_tier provenance field: carrying it, they calibrate to
    // the same rates.
    for (const JobSpec& job : jobs) {
        for (int shard = 0; shard < n_shards; ++shard) {
            const std::string path =
                telemetry_path(dir, spec, job.index, shard, n_shards);
            io::Json old = io::Json::parse(io::read_file(path));
            old.set("site_kernel_tier", io::Json::str("avx512"));
            io::write_file_atomic(path, old.dump(2) + "\n");
        }
    }
    const Calibration legacy =
        Calibration::from_telemetry(spec, n_shards, dir);
    expect_bits_eq(legacy.rate("frame", "surface:3"),
                   calib.rate("frame", "surface:3"),
                   "calibration from files with site_kernel_tier");

    const Calibration back =
        Calibration::from_json(io::Json::parse(calib.to_json().dump(2)));
    ASSERT_EQ(back.rates.size(), calib.rates.size());
    expect_bits_eq(back.rate("frame", "surface:3"),
                   calib.rate("frame", "surface:3"),
                   "calibration json round trip");

    // The calibrated plan is deterministic and still a partition: every
    // stream of every job on exactly one shard.
    const CampaignPlan plan =
        CampaignPlan::build(spec, n_shards, nullptr, &calib);
    const CampaignPlan again =
        CampaignPlan::build(spec, n_shards, nullptr, &calib);
    for (const JobSpec& job : jobs) {
        const int total = ExperimentRunner::n_streams(job.cfg);
        std::vector<int> seen(static_cast<size_t>(total), 0);
        for (int shard = 0; shard < n_shards; ++shard) {
            EXPECT_EQ(plan.streams_for(job.index, shard),
                      again.streams_for(job.index, shard));
            for (int s : plan.streams_for(job.index, shard))
                ++seen[static_cast<size_t>(s)];
        }
        for (int s = 0; s < total; ++s)
            EXPECT_EQ(seen[static_cast<size_t>(s)], 1)
                << "job " << job.index << " stream " << s;
    }
    // An empty calibration falls back to the analytic cost model instead
    // of throwing on its (absent) keys.
    const Calibration none;
    EXPECT_NO_THROW(CampaignPlan::build(spec, n_shards, nullptr, &none));
    // A backend the calibration has no measurement for is an error, not
    // a silent fallback.
    CampaignSpec tableau_spec = spec;
    tableau_spec.backend = SimBackend::kTableau;
    EXPECT_THROW(
        CampaignPlan::build(tableau_spec, n_shards, nullptr, &calib),
        std::runtime_error);

    // Foreign-config telemetry is skipped, so a changed campaign finds
    // no usable telemetry or heatmaps in the same directory.
    CampaignSpec changed = spec;
    changed.rounds += 1;
    EXPECT_THROW(Calibration::from_telemetry(changed, n_shards, dir),
                 std::runtime_error);
    EXPECT_THROW(merge_job_heatmap(changed, n_shards, dir, 0),
                 std::runtime_error);

    // remove_results clears the observability files too: a fresh status
    // read sees a cold fleet and calibrate finds nothing.
    remove_results(spec, n_shards, dir);
    for (const ShardProgress& p : read_progress(spec, n_shards, dir))
        EXPECT_FALSE(p.valid);
    EXPECT_THROW(Calibration::from_telemetry(spec, n_shards, dir),
                 std::runtime_error);
}

TEST(Observability, CalibrationKeysOnBatchWidthSoSweepsDontCollide)
{
    // The small fix: calibrate/plan --calibration used to key on
    // (backend, code) only, so a K-sweep's measurements overwrote each
    // other.  The batch width is part of the key — K=1 keeps the legacy
    // "backend/code" form so existing calibration files still load and
    // match.
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3"),
              "batch_frame/surface:3");
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3", 1),
              "batch_frame/surface:3");
    EXPECT_EQ(Calibration::key("batch_frame", "surface:3", 4),
              "batch_frame@w4/surface:3");

    Calibration cal;
    cal.rates[Calibration::key("batch_frame", "surface:3")] = 100.0;
    cal.rates[Calibration::key("batch_frame", "surface:3", 4)] = 400.0;
    EXPECT_TRUE(cal.has("batch_frame", "surface:3"));
    EXPECT_TRUE(cal.has("batch_frame", "surface:3", 4));
    EXPECT_FALSE(cal.has("batch_frame", "surface:3", 2));
    EXPECT_DOUBLE_EQ(cal.rate("batch_frame", "surface:3"), 100.0);
    EXPECT_DOUBLE_EQ(cal.rate("batch_frame", "surface:3", 4), 400.0);
    EXPECT_THROW(cal.rate("batch_frame", "surface:3", 2),
                 std::runtime_error);
}

TEST(Observability, WideBatchCalibrationNeverMixesWithNarrow)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    // End-to-end: a K=2 campaign's telemetry lands under the @w2 key,
    // plans the K=2 spec, and refuses (rather than silently misprices)
    // the K=1 spec.
    CampaignSpec wide = small_spec("observe_wide");
    wide.batch_words = 2;
    const std::string dir = fresh_dir("observe_wide");
    RunShardOptions opt;
    opt.threads = 1;
    run_shard(wide, 0, 1, dir, opt);

    const Calibration cal = Calibration::from_telemetry(wide, 1, dir);
    ASSERT_TRUE(cal.has("frame", "surface:3", 2));
    EXPECT_FALSE(cal.has("frame", "surface:3"));
    EXPECT_NO_THROW(CampaignPlan::build(wide, 1, nullptr, &cal));

    const CampaignSpec narrow = small_spec("observe_wide");
    EXPECT_THROW(CampaignPlan::build(narrow, 1, nullptr, &cal),
                 std::runtime_error);
}

TEST(Observability, ResumedJobsKeepTelemetryAndReportPlannedShots)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CampaignSpec spec = small_spec("observe_resume");
    const std::string dir = fresh_dir("observe_resume");
    RunShardOptions opt;
    opt.threads = 1;
    opt.heatmap = true;
    run_shard(spec, 0, 2, dir, opt);
    const Calibration first = Calibration::from_telemetry(spec, 2, dir);

    // Second run resumes everything: telemetry files survive untouched,
    // and the heartbeat still reports the full planned shot count.
    const RunShardStats stats = run_shard(spec, 0, 2, dir, opt);
    EXPECT_EQ(stats.jobs_run, 0);
    EXPECT_EQ(stats.jobs_resumed, 2);
    const Calibration second = Calibration::from_telemetry(spec, 2, dir);
    expect_bits_eq(second.rate("frame", "surface:3"),
                   first.rate("frame", "surface:3"),
                   "telemetry survives resume");
    const std::vector<ShardProgress> progress = read_progress(spec, 2, dir);
    ASSERT_TRUE(progress[0].valid);
    EXPECT_TRUE(progress[0].done);
    EXPECT_EQ(progress[0].jobs_resumed, 2);
    EXPECT_EQ(progress[0].shots_done, progress[0].shots_total);
}

}  // namespace
}  // namespace campaign
}  // namespace gld
