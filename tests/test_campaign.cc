// Campaign subsystem: grid expansion, the shard partition, checkpoint/resume,
// and the acceptance contract — plan/run over 3 shards + merge is
// BIT-identical to the equivalent single-process ExperimentRunner::run().

#include <unistd.h>

#include <algorithm>
#include <climits>
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

/**
 * Rewrites `job`'s result file of `shard` so it holds genuine results for
 * `streams` instead — what a build with another partition rule leaves
 * on disk.  The file must exist (it is the template).
 */
void
rewrite_shard_streams(const std::string& dir, const CampaignSpec& spec,
                      const JobSpec& job, int shard, int n_shards,
                      const std::vector<int>& streams)
{
    const std::string path =
        shard_result_path(dir, spec, job.index, shard, n_shards);
    const auto code = make_code(job.code);
    const ExperimentRunner runner(code->ctx, job.cfg);
    const std::vector<Metrics> parts =
        runner.run_partials(make_policy(job.policy, job.cfg.np), streams);
    io::Json out = io::Json::parse(io::read_file(path));
    io::Json entries = io::Json::array();
    for (size_t i = 0; i < streams.size(); ++i) {
        io::Json entry = io::Json::object();
        entry.set("stream", io::Json::integer(streams[i]));
        entry.set("metrics", io::metrics_to_json(parts[i]));
        entries.push(std::move(entry));
    }
    out.set("streams", std::move(entries));
    io::write_file_atomic(path, out.dump(2) + "\n");
}

/** The round-robin rule campaigns once used: s % n_shards == shard. */
std::vector<int>
round_robin_streams(const JobSpec& job, int shard, int n_shards)
{
    std::vector<int> streams;
    for (int s = shard; s < ExperimentRunner::n_streams(job.cfg);
         s += n_shards)
        streams.push_back(s);
    return streams;
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

// Counts from an untrusted spec must be refused by name when read, never
// truncated to some other value and run.
TEST(CampaignSpec, FromJsonRejectsCountsOutOfRange)
{
    const struct {
        const char* field;
        int64_t value;
    } cases[] = {
        {"shots", 3000000000},      {"shots", 0},
        {"rounds", -1},             {"rounds", 0},
        {"rng_streams", -5},        {"rng_streams", 0},
        {"rng_streams", 1ll << 31}, {"batch_words", 0},
        {"batch_words", kMaxBatchWords + 1},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.value));
        io::Json j = small_spec("bad_count").to_json();
        j.set(c.field, io::Json::integer(c.value));
        try {
            CampaignSpec::from_json(j);
            ADD_FAILURE() << "expected std::runtime_error";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << e.what();
        }
    }
    // The range edges load.
    io::Json j = small_spec("edge").to_json();
    j.set("shots", io::Json::integer(INT_MAX));
    j.set("rng_streams", io::Json::integer(1));
    j.set("batch_words", io::Json::integer(kMaxBatchWords));
    const CampaignSpec edge = CampaignSpec::from_json(j);
    EXPECT_EQ(edge.shots, INT_MAX);
    EXPECT_EQ(edge.batch_words, kMaxBatchWords);
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

// --- The shard partition: every job's streams dealt across shards. ---

TEST(ShardPartition, DealsEveryStreamOnceWithAJobOffset)
{
    CampaignSpec spec = small_spec("partition");
    spec.codes = {"surface:3", "color:5"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1),
                  NoiseParams::standard(2e-3, 0.1)};
    const std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 8u);
    const int total = ExperimentRunner::n_streams(jobs[0].cfg);
    ASSERT_EQ(total, 8);
    int max_stream_shots = 0;
    for (int s = 0; s < total; ++s)
        max_stream_shots = std::max(
            max_stream_shots, ExperimentRunner::stream_shots(jobs[0].cfg, s));

    for (int n_shards : {1, 2, 3, 5, 8, 16}) {
        SCOPED_TRACE(n_shards);
        std::vector<int> owners(jobs.size() * static_cast<size_t>(total), 0);
        long min_shots = spec.shots * static_cast<long>(jobs.size());
        long max_shots = 0;
        for (int shard = 0; shard < n_shards; ++shard) {
            long shots = 0;
            for (const JobSpec& job : jobs) {
                const std::vector<int> ss =
                    shard_streams(job, shard, n_shards);
                EXPECT_TRUE(std::is_sorted(ss.begin(), ss.end()));
                for (int s : ss) {
                    ASSERT_GE(s, 0);
                    ASSERT_LT(s, total);
                    // The rule itself, job offset included.
                    EXPECT_EQ((job.index * total + s) % n_shards, shard)
                        << "job " << job.index << " stream " << s;
                    ++owners[static_cast<size_t>(job.index * total + s)];
                    shots += ExperimentRunner::stream_shots(job.cfg, s);
                }
            }
            const ShardLoad load = shard_load(spec, shard, n_shards);
            EXPECT_EQ(load.shots, shots);
            min_shots = std::min(min_shots, shots);
            max_shots = std::max(max_shots, shots);
        }
        for (size_t i = 0; i < owners.size(); ++i)
            EXPECT_EQ(owners[i], 1) << "job " << i / total << " stream "
                                    << i % total;
        // Balance: at most one stream's shots plus one shot per job.
        EXPECT_LE(max_shots - min_shots,
                  max_stream_shots + static_cast<long>(jobs.size()));
    }

    // The offset moves each job's leftover streams: at 3 shards job 0's
    // stream 0 goes to shard 0, job 1's to shard 8 % 3 = 2.
    EXPECT_EQ(shard_streams(jobs[0], 0, 3), (std::vector<int>{0, 3, 6}));
    EXPECT_EQ(shard_streams(jobs[1], 0, 3), (std::vector<int>{1, 4, 7}));
    EXPECT_EQ(shard_streams(jobs[1], 2, 3), (std::vector<int>{0, 3, 6}));

    EXPECT_THROW(shard_streams(jobs[0], -1, 3), std::runtime_error);
    EXPECT_THROW(shard_streams(jobs[0], 3, 3), std::runtime_error);
    EXPECT_THROW(shard_streams(jobs[0], 0, 0), std::runtime_error);
}

TEST(ShardPartition, MergeBitIdenticalWhenShardsDoNotDivideStreams)
{
    // 5 shards over 8 streams per job: uneven splits, some shards own two
    // streams of one job and one of the next.  Running every shard and
    // merging still reproduces run() exactly.
    const CampaignSpec spec = small_spec("partition_merge");
    const int n_shards = 5;
    const std::string dir = fresh_dir("partition_merge");
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

// A result file listing another stream set than shard_streams wants —
// what every checkpoint written under an older partition rule is when
// the shard count does not divide the stream count — is recomputed, not
// resumed, even though its results are genuine.
TEST(Resume, RecomputesAFileListingAnotherStreamSet)
{
    const CampaignSpec spec = small_spec("resume_partition");
    const std::string dir = fresh_dir("resume_partition");
    const int n_shards = 3;
    run_shard(spec, 0, n_shards, dir, 1);
    const JobSpec job = spec.expand()[1];
    const std::string path =
        shard_result_path(dir, spec, job.index, 0, n_shards);
    const std::string good = io::read_file(path);

    const std::vector<int> old = round_robin_streams(job, 0, n_shards);
    ASSERT_NE(old, shard_streams(job, 0, n_shards));
    rewrite_shard_streams(dir, spec, job, 0, n_shards, old);
    const RunShardStats stats = run_shard(spec, 0, n_shards, dir, 1);
    EXPECT_EQ(stats.jobs_run, 1);
    EXPECT_EQ(stats.jobs_resumed, 1);
    EXPECT_EQ(io::read_file(path), good);
}

// A fleet that mixes files of two partition rules holds some stream twice
// or not at all; merge refuses it instead of summing the wrong set.
TEST(Merge, RefusesAFleetMixingPartitions)
{
    const CampaignSpec spec = small_spec("mixed_fleet");
    const std::string dir = fresh_dir("mixed_fleet");
    const int n_shards = 3;
    for (int shard = 0; shard < n_shards; ++shard)
        run_shard(spec, shard, n_shards, dir, 1);
    ASSERT_NO_THROW(merge_campaign(spec, n_shards, dir));

    const JobSpec job = spec.expand()[1];
    for (int shard = 0; shard < n_shards; ++shard) {
        SCOPED_TRACE(shard);
        const std::string path =
            shard_result_path(dir, spec, job.index, shard, n_shards);
        const std::string good = io::read_file(path);
        rewrite_shard_streams(dir, spec, job, shard, n_shards,
                              round_robin_streams(job, shard, n_shards));
        try {
            merge_campaign(spec, n_shards, dir);
            ADD_FAILURE() << "merge accepted a mixed fleet";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_TRUE(what.find("appears in two shard files") !=
                            std::string::npos ||
                        what.find("missing from all shards") !=
                            std::string::npos)
                << what;
        }
        io::write_file_atomic(path, good);
    }
    EXPECT_NO_THROW(merge_campaign(spec, n_shards, dir));
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

// --- Telemetry and liveness (the observability layer). ---

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

TEST(Observability, ProgressAndHeatmapEndToEnd)
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

    // Readers still accept files from builds that recorded a
    // site_kernel_tier provenance field: carrying it, they merge to the
    // same heatmap.
    for (const JobSpec& job : jobs) {
        for (int shard = 0; shard < n_shards; ++shard) {
            const std::string path =
                telemetry_path(dir, spec, job.index, shard, n_shards);
            io::Json old = io::Json::parse(io::read_file(path));
            old.set("site_kernel_tier", io::Json::str("avx512"));
            io::write_file_atomic(path, old.dump(2) + "\n");
        }
    }
    EXPECT_EQ(merge_job_heatmap(spec, n_shards, dir, 0).counts, hm.counts);

    // Foreign-config telemetry is refused, so a changed campaign finds no
    // usable heatmaps in the same directory.
    CampaignSpec changed = spec;
    changed.rounds += 1;
    EXPECT_THROW(merge_job_heatmap(changed, n_shards, dir, 0),
                 std::runtime_error);

    // remove_results clears the observability files too: a fresh status
    // read sees a cold fleet and no telemetry file is left.
    remove_results(spec, n_shards, dir);
    for (const ShardProgress& p : read_progress(spec, n_shards, dir))
        EXPECT_FALSE(p.valid);
    for (const JobSpec& job : jobs) {
        for (int shard = 0; shard < n_shards; ++shard)
            EXPECT_FALSE(io::file_exists(
                telemetry_path(dir, spec, job.index, shard, n_shards)));
    }
}

TEST(Observability, ResumedJobsKeepTelemetryAndReportPlannedShots)
{
    if (!telemetry::kCompiledIn)
        GTEST_SKIP() << "built with GLD_TELEMETRY=OFF";
    const CampaignSpec spec = small_spec("observe_resume");
    const std::string dir = fresh_dir("observe_resume");
    const std::vector<JobSpec> jobs = spec.expand();
    RunShardOptions opt;
    opt.threads = 1;
    opt.heatmap = true;
    run_shard(spec, 0, 2, dir, opt);
    std::vector<std::string> first;
    for (const JobSpec& job : jobs) {
        const std::string text =
            io::read_file(telemetry_path(dir, spec, job.index, 0, 2));
        long planned = 0;
        for (int s : shard_streams(job, 0, 2))
            planned += ExperimentRunner::stream_shots(job.cfg, s);
        EXPECT_EQ(io::Json::parse(text)["shots"].as_int(), planned);
        first.push_back(text);
    }

    // Second run resumes everything: telemetry files survive untouched,
    // and the heartbeat still reports the full planned shot count.
    const RunShardStats stats = run_shard(spec, 0, 2, dir, opt);
    EXPECT_EQ(stats.jobs_run, 0);
    EXPECT_EQ(stats.jobs_resumed, 2);
    for (const JobSpec& job : jobs)
        EXPECT_EQ(io::read_file(telemetry_path(dir, spec, job.index, 0, 2)),
                  first[static_cast<size_t>(job.index)]);
    const std::vector<ShardProgress> progress = read_progress(spec, 2, dir);
    ASSERT_TRUE(progress[0].valid);
    EXPECT_TRUE(progress[0].done);
    EXPECT_EQ(progress[0].jobs_resumed, 2);
    EXPECT_EQ(progress[0].shots_done, progress[0].shots_total);
    EXPECT_EQ(progress[0].shots_total, shard_load(spec, 0, 2).shots);
}

}  // namespace
}  // namespace campaign
}  // namespace gld
