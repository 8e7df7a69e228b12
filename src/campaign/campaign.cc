#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "campaign/registry.h"
#include "hw/timing_model.h"
#include "io/serialize.h"
#include "sim/op_profile.h"
#include "util/config.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace gld {
namespace campaign {

using io::Json;

// --- CampaignSpec. ---

uint64_t
CampaignSpec::job_seed(int index) const
{
    // One split stream per seed group off the campaign master: stable
    // under re-expansion and independent of the splits ExperimentRunner
    // later derives from the job seed itself (different master).  With
    // policy pairing, the group collapses the (innermost) policy
    // dimension so all policies at a grid point draw the same noise.
    const uint64_t group =
        pair_policy_seeds && !policies.empty()
            ? static_cast<uint64_t>(index) / policies.size()
            : static_cast<uint64_t>(index);
    return Rng(seed).split(group).next_u64();
}

std::vector<JobSpec>
CampaignSpec::expand() const
{
    if (codes.empty() || policies.empty() || noise.empty())
        throw std::runtime_error("campaign \"" + name + "\": codes, "
                                 "policies and noise must all be non-empty");
    std::vector<JobSpec> jobs;
    jobs.reserve(codes.size() * noise.size() * policies.size());
    int index = 0;
    for (const std::string& code : codes) {
        for (const NoiseParams& np : noise) {
            for (const std::string& policy : policies) {
                JobSpec job;
                job.index = index;
                job.code = code;
                job.policy = policy;
                job.cfg.np = np;
                job.cfg.rounds = rounds;
                job.cfg.shots = shots;
                job.cfg.seed = job_seed(index);
                job.cfg.leakage_sampling = leakage_sampling;
                job.cfg.compute_ler = compute_ler;
                job.cfg.record_dlp_series = record_dlp_series;
                job.cfg.rng_streams = rng_streams;
                job.cfg.backend = backend;
                job.cfg.noise_sampling = noise_sampling;
                jobs.push_back(std::move(job));
                ++index;
            }
        }
    }
    return jobs;
}

Json
CampaignSpec::to_json() const
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(io::kSerializeVersion));
    j.set("name", Json::str(name));
    j.set("seed", Json::str(io::u64_to_hex(seed)));
    j.set("shots", Json::integer(shots));
    j.set("rounds", Json::integer(rounds));
    j.set("rng_streams", Json::integer(rng_streams));
    j.set("leakage_sampling", Json::boolean(leakage_sampling));
    j.set("compute_ler", Json::boolean(compute_ler));
    j.set("record_dlp_series", Json::boolean(record_dlp_series));
    j.set("pair_policy_seeds", Json::boolean(pair_policy_seeds));
    j.set("backend", Json::str(backend_name(backend)));
    if (noise_sampling != NoiseSampling::kLockstep)
        j.set("noise_sampling",
              Json::str(noise_sampling_name(noise_sampling)));
    Json jc = Json::array();
    for (const std::string& c : codes)
        jc.push(Json::str(c));
    j.set("codes", std::move(jc));
    Json jp = Json::array();
    for (const std::string& p : policies)
        jp.push(Json::str(p));
    j.set("policies", std::move(jp));
    Json jn = Json::array();
    for (const NoiseParams& np : noise)
        jn.push(io::noise_to_json(np));
    j.set("noise", std::move(jn));
    return j;
}

namespace {

/**
 * The spec name prefixes every result, telemetry, progress and heatmap
 * file under --out (and remove_results deletes by those paths), so it
 * must be one plain file-name component: non-empty, no leading '.'
 * (which also rules out "." and ".."), and only [A-Za-z0-9._-].
 */
std::string
checked_name(const std::string& name)
{
    const bool plain =
        std::all_of(name.begin(), name.end(), [](char c) {
            return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                   (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                   c == '-';
        });
    if (name.empty() || name[0] == '.' || !plain)
        throw std::runtime_error(
            "CampaignSpec: name \"" + name +
            "\" is not a plain file name (non-empty, no leading '.', "
            "only [A-Za-z0-9._-])");
    return name;
}

}  // namespace

CampaignSpec
CampaignSpec::from_json(const Json& j)
{
    const int64_t v = j["gld_version"].as_int();
    if (v < 1 || v > io::kSerializeVersion)
        throw std::runtime_error("CampaignSpec: unsupported gld_version " +
                                 std::to_string(v));
    CampaignSpec spec;
    spec.name = checked_name(j["name"].as_str());
    spec.seed = io::u64_from_hex(j["seed"].as_str());
    spec.shots = io::int_in_range(j, "shots", 1, INT_MAX, "CampaignSpec");
    spec.rounds = io::int_in_range(j, "rounds", 1, INT_MAX, "CampaignSpec");
    spec.rng_streams =
        io::int_in_range(j, "rng_streams", 1, INT_MAX, "CampaignSpec");
    spec.leakage_sampling = j["leakage_sampling"].as_bool();
    spec.compute_ler = j["compute_ler"].as_bool();
    spec.record_dlp_series = j["record_dlp_series"].as_bool();
    spec.pair_policy_seeds = j["pair_policy_seeds"].as_bool();
    spec.backend = j.has("backend")
                       ? backend_from_name(j["backend"].as_str())
                       : SimBackend::kFrame;  // version-1 specs
    // The removed block multiplier is refused: run as one 64-shot block,
    // such a spec would hash and report as a config it is not.
    if (j.has("batch_words"))
        throw std::runtime_error(
            "CampaignSpec: \"batch_words\" is no longer supported (a shot "
            "block is always 64 shots); remove the field");
    spec.noise_sampling =
        j.has("noise_sampling")
            ? noise_sampling_from_name(j["noise_sampling"].as_str())
            : NoiseSampling::kLockstep;
    spec.codes.clear();
    const Json& jc = j["codes"];
    for (size_t i = 0; i < jc.size(); ++i)
        spec.codes.push_back(jc.at(i).as_str());
    const Json& jp = j["policies"];
    for (size_t i = 0; i < jp.size(); ++i)
        spec.policies.push_back(jp.at(i).as_str());
    const Json& jn = j["noise"];
    for (size_t i = 0; i < jn.size(); ++i)
        spec.noise.push_back(io::noise_from_json(jn.at(i)));
    return spec;
}

void
CampaignSpec::validate() const
{
    const std::vector<JobSpec> jobs = expand();  // checks non-empty dims
    for (const std::string& code : codes)
        make_code(code);  // throws on bad family/distance
    for (const std::string& policy : policies)
        make_policy(policy, noise.front());  // throws on bad name
    (void)jobs;
}

// --- Shard partition. ---

namespace {

void
check_shard(int shard, int n_shards)
{
    if (n_shards < 1)
        throw std::runtime_error("shard partition: n_shards must be >= 1");
    if (shard < 0 || shard >= n_shards)
        throw std::runtime_error("shard partition: shard index " +
                                 std::to_string(shard) + " outside [0, " +
                                 std::to_string(n_shards) + ")");
}

}  // namespace

std::vector<int>
shard_streams(const JobSpec& job, int shard, int n_shards)
{
    check_shard(shard, n_shards);
    const int64_t total = ExperimentRunner::n_streams(job.cfg);
    // The first s with (job * total + s) % n_shards == shard, then every
    // n_shards-th stream after it.
    const int64_t first =
        ((shard - job.index * total) % n_shards + n_shards) % n_shards;
    std::vector<int> streams;
    for (int64_t s = first; s < total; s += n_shards)
        streams.push_back(static_cast<int>(s));
    return streams;
}

ShardLoad
shard_load(const CampaignSpec& spec, int shard, int n_shards)
{
    ShardLoad load;
    for (const JobSpec& job : spec.expand()) {
        for (int s : shard_streams(job, shard, n_shards)) {
            ++load.streams;
            load.shots += ExperimentRunner::stream_shots(job.cfg, s);
        }
    }
    return load;
}

// --- Result files. ---

namespace {

std::string
job_tag(const CampaignSpec& spec, int job_index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".job%04d", job_index);
    return spec.name + buf;
}

}  // namespace

std::string
shard_result_path(const std::string& out_dir, const CampaignSpec& spec,
                  int job_index, int shard, int n_shards)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), ".shard%dof%d.json", shard, n_shards);
    return out_dir + "/" + job_tag(spec, job_index) + buf;
}

std::string
merged_result_path(const std::string& out_dir, const CampaignSpec& spec,
                   int job_index)
{
    return out_dir + "/" + job_tag(spec, job_index) + ".merged.json";
}

std::string
telemetry_path(const std::string& out_dir, const CampaignSpec& spec,
               int job_index, int shard, int n_shards)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".shard%dof%d.telemetry.json", shard,
                  n_shards);
    return out_dir + "/" + job_tag(spec, job_index) + buf;
}

std::string
progress_path(const std::string& out_dir, const CampaignSpec& spec,
              int shard, int n_shards)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".progress.shard%dof%d.jsonl", shard,
                  n_shards);
    return out_dir + "/" + spec.name + buf;
}

std::string
heatmap_path(const std::string& out_dir, const CampaignSpec& spec,
             int job_index)
{
    return out_dir + "/" + job_tag(spec, job_index) + ".heatmap.json";
}

// --- run_shard. ---

namespace {

/**
 * Checks one stream's Metrics against the counts its job's config fixes;
 * returns "" when they agree, else "field (got X, want Y)".  A
 * hand-edited shard file would otherwise reach Metrics::merge, whose
 * rounds_per_shot assert aborts a Debug build and whose Release build
 * sums the bad values silently.
 */
std::string
stream_metrics_mismatch(const Metrics& m, const ExperimentConfig& cfg,
                        int stream)
{
    const long shots = ExperimentRunner::stream_shots(cfg, stream);
    const auto differs = [](const char* field, long got, long want) {
        return std::string(field) + " (got " + std::to_string(got) +
               ", want " + std::to_string(want) + ")";
    };
    if (m.shots != shots)
        return differs("shots", m.shots, shots);
    if (m.rounds_per_shot != cfg.rounds)
        return differs("rounds_per_shot", m.rounds_per_shot, cfg.rounds);
    const long series = cfg.record_dlp_series ? cfg.rounds : 0;
    if (static_cast<long>(m.dlp_series.size()) != series)
        return differs("dlp_series length",
                       static_cast<long>(m.dlp_series.size()), series);
    const long decoded = cfg.compute_ler ? shots : 0;
    if (m.decoded_shots != decoded)
        return differs("decoded_shots", m.decoded_shots, decoded);
    if (m.logical_errors < 0 || m.logical_errors > m.decoded_shots)
        return "logical_errors (got " + std::to_string(m.logical_errors) +
               ", want 0.." + std::to_string(m.decoded_shots) + ")";
    return "";
}

/** True if `path` holds a completed, up-to-date shard result. */
bool
shard_result_valid(const std::string& path, const CampaignSpec& spec,
                   const JobSpec& job, int shard, int n_shards,
                   const std::vector<int>& want_streams)
{
    if (!io::file_exists(path))
        return false;
    try {
        const Json j = Json::parse(io::read_file(path));
        if (j["gld_version"].as_int() != io::kSerializeVersion)
            return false;
        // The config hash covers ExperimentConfig only; code and policy
        // live beside it in the JobSpec (and, with paired seeds, jobs at
        // one grid point have IDENTICAL configs), so identity must be
        // checked explicitly or an edited spec resumes mislabeled
        // results.
        if (j["campaign"].as_str() != spec.name ||
            j["code"].as_str() != job.code ||
            j["policy"].as_str() != job.policy)
            return false;
        if (j["config_hash"].as_str() !=
            io::u64_to_hex(io::config_hash(job.cfg)))
            return false;
        if (j["shard"].as_int() != shard || j["n_shards"].as_int() != n_shards)
            return false;
        // The expected stream set comes from shard_streams: a file
        // written under another partition lists different stream ids and
        // is recomputed.
        const Json& jstreams = j["streams"];
        if (jstreams.size() != want_streams.size())
            return false;
        for (size_t i = 0; i < jstreams.size(); ++i) {
            if (jstreams.at(i)["stream"].as_int() != want_streams[i])
                return false;
            // Counts that contradict the config: recompute, do not let
            // merge refuse the file later.
            if (!stream_metrics_mismatch(
                     io::metrics_from_json(jstreams.at(i)["metrics"]),
                     job.cfg, want_streams[i])
                     .empty())
                return false;
        }
        return true;
    } catch (const std::exception&) {
        return false;  // unreadable/garbled: recompute
    }
}

/** Wall clock for heartbeats/throughput (never result-affecting). */
uint64_t
wall_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Shard-level liveness aggregator: job workers report cumulative shot
 * counts (from their collectors' on_block hooks) and completed jobs'
 * stage times; the tracker appends throttled heartbeat lines to the
 * shard's progress JSONL — the `gld_campaign status` feed.  One writer
 * per (shard, run): the file is truncated at construction, and every
 * line is a complete JSON object.
 */
class ProgressTracker {
  public:
    ProgressTracker(std::string path, int shard, int n_shards,
                    int64_t jobs_total, int64_t shots_total)
        : path_(std::move(path)), shard_(shard), n_shards_(n_shards),
          jobs_total_(jobs_total), shots_total_(shots_total),
          start_ns_(wall_now_ns())
    {
        io::write_file_atomic(path_, "");  // fresh stream per run
        std::lock_guard<std::mutex> lk(mu_);
        emit(true);
    }

    /** A job's collector reported `cumulative` shots recorded so far. */
    void report_job_shots(int job_index, uint64_t cumulative)
    {
        std::lock_guard<std::mutex> lk(mu_);
        uint64_t& cur = job_shots_[job_index];
        if (cumulative > cur) {
            shots_done_ += cumulative - cur;
            cur = cumulative;
        }
        emit(false);
    }

    /**
     * A job finished.  Resumed jobs never report shots (nothing ran), so
     * their planned shard shots count as done here; `rec` carries an
     * executed job's stage times (null for resumed jobs).
     */
    void job_finished(int job_index, bool resumed, uint64_t planned_shots,
                      const telemetry::Record* rec)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (resumed) {
            ++jobs_resumed_;
            shots_done_ += planned_shots;
        } else {
            // Belt and braces: make sure the full job is accounted even
            // if an on_block delivery raced the final merge.
            uint64_t& cur = job_shots_[job_index];
            if (planned_shots > cur) {
                shots_done_ += planned_shots - cur;
                cur = planned_shots;
            }
        }
        if (rec != nullptr) {
            for (int s = 0; s < telemetry::kStageCount; ++s)
                stage_ns_[s] += rec->stage_ns[s];
        }
        ++jobs_done_;
        emit(true);
    }

    /** Final heartbeat with done=true. */
    void finish()
    {
        std::lock_guard<std::mutex> lk(mu_);
        done_ = true;
        emit(true);
    }

  private:
    /** Emits a heartbeat line (call with mu_ held); throttled to one
     *  line per ~0.5 s unless forced (job boundaries, start, finish). */
    void emit(bool forced)
    {
        const uint64_t now = wall_now_ns();
        if (!forced && now - last_emit_ns_ < 500'000'000ull)
            return;
        last_emit_ns_ = now;
        const uint64_t wall = now - start_ns_;
        Json j = Json::object();
        j.set("shard", Json::integer(shard_));
        j.set("n_shards", Json::integer(n_shards_));
        j.set("jobs_done", Json::integer(jobs_done_));
        j.set("jobs_resumed", Json::integer(jobs_resumed_));
        j.set("jobs_total", Json::integer(jobs_total_));
        j.set("shots_done", Json::integer(static_cast<int64_t>(shots_done_)));
        j.set("shots_total", Json::integer(shots_total_));
        j.set("wall_ns", Json::integer(static_cast<int64_t>(wall)));
        j.set("shots_per_second",
              Json::number(wall > 0 ? static_cast<double>(shots_done_) /
                                          (static_cast<double>(wall) * 1e-9)
                                    : 0.0));
        Json js = Json::object();
        for (int s = 0; s < telemetry::kStageCount; ++s)
            js.set(telemetry::stage_name(s),
                   Json::integer(static_cast<int64_t>(stage_ns_[s])));
        j.set("stage_ns", std::move(js));
        j.set("done", Json::boolean(done_));
        io::append_line(path_, j.dump());
    }

    const std::string path_;
    const int shard_;
    const int n_shards_;
    const int64_t jobs_total_;
    const int64_t shots_total_;
    const uint64_t start_ns_;

    std::mutex mu_;
    std::map<int, uint64_t> job_shots_;  ///< cumulative per job
    uint64_t shots_done_ = 0;
    int64_t jobs_done_ = 0;
    int64_t jobs_resumed_ = 0;
    uint64_t stage_ns_[telemetry::kStageCount] = {0, 0, 0, 0};
    uint64_t last_emit_ns_ = 0;
    bool done_ = false;
};

}  // namespace

RunShardStats
run_shard(const CampaignSpec& spec, int shard, int n_shards,
          const std::string& out_dir, const RunShardOptions& opt)
{
    check_shard(shard, n_shards);
    io::make_dirs(out_dir);
    const std::vector<JobSpec> jobs = spec.expand();
    // One build per distinct code, shared by its jobs (immutable once
    // built; concurrent jobs only read them).
    std::map<std::string, std::shared_ptr<const CodeInstance>> codes;
    for (const std::string& code : spec.codes) {
        if (codes.count(code) == 0)
            codes.emplace(code, make_code(code));
    }
    std::atomic<int> jobs_run{0};
    std::atomic<int> jobs_resumed{0};
    const int threads = opt.threads;
    const bool verbose = opt.verbose;
    const int jobs_parallel = opt.jobs_parallel;

    // Telemetry is a pure side channel end to end: with it off this
    // function produces byte-identical result files along the exact
    // pre-telemetry code path.
    const bool use_telemetry = opt.telemetry;
    std::unique_ptr<ProgressTracker> tracker;
    if (use_telemetry)
        tracker = std::make_unique<ProgressTracker>(
            progress_path(out_dir, spec, shard, n_shards), shard, n_shards,
            static_cast<int64_t>(jobs.size()),
            shard_load(spec, shard, n_shards).shots);

    // Job workers and each job's runner loop all execute on the ONE
    // process-wide persistent pool (util/thread_pool.h), whose size is
    // the BenchConfig::threads() budget — so -j N with --threads unset
    // cannot oversubscribe no matter how the loops nest, and each job
    // may claim the FULL budget (idle pool workers help whichever job's
    // loop is live, instead of being statically fenced off by the old
    // budget division, which still oversubscribed via nested spawns).
    const int pool_size = std::max(
        1, std::min<int>(std::max(1, jobs_parallel),
                         static_cast<int>(jobs.size())));
    const int job_threads = threads > 0 ? threads : BenchConfig::threads();

    const auto run_one_job = [&](const JobSpec& job) {
        const std::vector<int> streams =
            shard_streams(job, shard, n_shards);
        const std::string path =
            shard_result_path(out_dir, spec, job.index, shard, n_shards);
        uint64_t planned_shots = 0;
        for (int s : streams)
            planned_shots += static_cast<uint64_t>(
                ExperimentRunner::stream_shots(job.cfg, s));
        if (shard_result_valid(path, spec, job, shard, n_shards, streams)) {
            jobs_resumed.fetch_add(1);
            if (tracker != nullptr)
                tracker->job_finished(job.index, /*resumed=*/true,
                                      planned_shots, nullptr);
            if (verbose)
                std::printf("  job %04d [%s / %s]: resume — result "
                            "up-to-date\n",
                            job.index, job.code.c_str(), job.policy.c_str());
            return;
        }

        std::vector<Metrics> parts;
        telemetry::Record rec;
        uint64_t job_wall_ns = 0;
        if (!streams.empty()) {
            // A shard that owns no stream of this job (more shards than
            // streams) still writes the (empty) result file merge
            // expects, but runs nothing.
            const std::shared_ptr<const CodeInstance> code =
                codes.at(job.code);
            ExperimentConfig cfg = job.cfg;
            cfg.threads = job_threads;
            ExperimentRunner runner(code->ctx, cfg);
            std::unique_ptr<telemetry::Collector> col;
            if (use_telemetry) {
                telemetry::Collector::Options copt;
                copt.heatmap = opt.heatmap;
                if (tracker != nullptr) {
                    ProgressTracker* t = tracker.get();
                    const int job_index = job.index;
                    copt.on_block = [t, job_index](uint64_t done) {
                        t->report_job_shots(job_index, done);
                    };
                }
                col = std::make_unique<telemetry::Collector>(std::move(copt));
                runner.set_telemetry(col.get());
            }
            const uint64_t t0 = wall_now_ns();
            parts = runner.run_partials(make_policy(job.policy, job.cfg.np),
                                        streams);
            job_wall_ns = wall_now_ns() - t0;
            if (col != nullptr)
                rec = col->merged();
        }

        Json j = Json::object();
        j.set("gld_version", Json::integer(io::kSerializeVersion));
        j.set("campaign", Json::str(spec.name));
        j.set("job", Json::integer(job.index));
        j.set("code", Json::str(job.code));
        j.set("policy", Json::str(job.policy));
        j.set("config_hash",
              Json::str(io::u64_to_hex(io::config_hash(job.cfg))));
        j.set("shard", Json::integer(shard));
        j.set("n_shards", Json::integer(n_shards));
        Json jstreams = Json::array();
        for (size_t i = 0; i < streams.size(); ++i) {
            Json entry = Json::object();
            entry.set("stream", Json::integer(streams[i]));
            entry.set("metrics", io::metrics_to_json(parts[i]));
            jstreams.push(std::move(entry));
        }
        j.set("streams", std::move(jstreams));
        io::write_file_atomic(path, j.dump(2) + "\n");

        if (use_telemetry) {
            // The job's telemetry export, beside its result file: run
            // identity + the merged record + a measured-vs-modeled round
            // time (the hw/ timing model priced against the sim stage).
            Json t = Json::object();
            t.set("gld_version", Json::integer(io::kSerializeVersion));
            t.set("campaign", Json::str(spec.name));
            t.set("job", Json::integer(job.index));
            t.set("code", Json::str(job.code));
            t.set("policy", Json::str(job.policy));
            t.set("backend", Json::str(backend_name(job.cfg.backend)));
            t.set("config_hash",
                  Json::str(io::u64_to_hex(io::config_hash(job.cfg))));
            t.set("shard", Json::integer(shard));
            t.set("n_shards", Json::integer(n_shards));
            const Json ex =
                telemetry::export_to_json(rec, job_wall_ns, job_threads);
            for (const auto& kv : ex.items())
                t.set(kv.first, kv.second);
            if (rec.rounds > 0) {
                const std::shared_ptr<const CodeInstance> code =
                    codes.at(job.code);
                const double measured_round_ns =
                    static_cast<double>(rec.stage_ns[telemetry::kSim]) /
                    static_cast<double>(rec.rounds);
                const RoundOpProfile prof = profile_round_ops(
                    code->ctx.code(), code->ctx.rc(), job.cfg.np,
                    LrcSchedule{});
                const TimingModel::ModelComparison cmp =
                    TimingModel().compare_round_ns(prof.quiet,
                                                   measured_round_ns);
                Json jm = Json::object();
                jm.set("modeled_round_ns", Json::number(cmp.modeled_ns));
                jm.set("measured_sim_ns_per_round",
                       Json::number(cmp.measured_ns));
                jm.set("measured_over_modeled", Json::number(cmp.ratio));
                t.set("timing_model", std::move(jm));
            }
            io::write_file_atomic(
                telemetry_path(out_dir, spec, job.index, shard, n_shards),
                t.dump(2) + "\n");
        }

        jobs_run.fetch_add(1);
        if (tracker != nullptr)
            tracker->job_finished(job.index, /*resumed=*/false,
                                  planned_shots,
                                  streams.empty() ? nullptr : &rec);
        if (verbose)
            std::printf("  job %04d [%s / %s]: ran %zu stream(s) -> %s\n",
                        job.index, job.code.c_str(), job.policy.c_str(),
                        streams.size(), path.c_str());
    };

    // Job-level worker pool (ROADMAP "campaign-level parallelism"): jobs
    // are independent — each builds its own code/runner and writes its own
    // result file — so a grid of many small jobs scales by running several
    // at once on top of each job's stream/block scheduler.  Results are
    // files keyed by job index; execution order cannot affect them, and
    // the first failing job's exception propagates to the caller.
    parallel_for_dynamic(jobs.size(), pool_size,
                         [&](size_t i) { run_one_job(jobs[i]); });

    if (tracker != nullptr)
        tracker->finish();

    RunShardStats stats;
    stats.jobs_run = jobs_run.load();
    stats.jobs_resumed = jobs_resumed.load();
    return stats;
}

void
remove_results(const CampaignSpec& spec, int n_shards,
               const std::string& out_dir)
{
    for (const JobSpec& job : spec.expand()) {
        for (int shard = 0; shard < n_shards; ++shard) {
            std::remove(shard_result_path(out_dir, spec, job.index, shard,
                                          n_shards)
                            .c_str());
            std::remove(telemetry_path(out_dir, spec, job.index, shard,
                                       n_shards)
                            .c_str());
        }
        std::remove(merged_result_path(out_dir, spec, job.index).c_str());
        std::remove(heatmap_path(out_dir, spec, job.index).c_str());
    }
    for (int shard = 0; shard < n_shards; ++shard)
        std::remove(progress_path(out_dir, spec, shard, n_shards).c_str());
}

// --- merge. ---

std::vector<Metrics>
merge_campaign(const CampaignSpec& spec, int n_shards,
               const std::string& out_dir)
{
    if (n_shards < 1)
        throw std::runtime_error("merge: n_shards must be >= 1");
    std::vector<Metrics> merged;
    for (const JobSpec& job : spec.expand()) {
        const int total = ExperimentRunner::n_streams(job.cfg);
        const std::string want_hash = io::u64_to_hex(io::config_hash(job.cfg));
        std::vector<Metrics> parts(static_cast<size_t>(total));
        std::vector<uint8_t> seen(static_cast<size_t>(total), 0);

        for (int shard = 0; shard < n_shards; ++shard) {
            const std::string path =
                shard_result_path(out_dir, spec, job.index, shard, n_shards);
            if (!io::file_exists(path))
                throw std::runtime_error("merge: missing shard result " +
                                         path + " (run --shard " +
                                         std::to_string(shard) + "/" +
                                         std::to_string(n_shards) + " first)");
            const Json j = Json::parse(io::read_file(path));
            if (j["campaign"].as_str() != spec.name ||
                j["code"].as_str() != job.code ||
                j["policy"].as_str() != job.policy)
                throw std::runtime_error(
                    "merge: " + path + " belongs to a different job (" +
                    j["code"].as_str() + " / " + j["policy"].as_str() +
                    ", want " + job.code + " / " + job.policy +
                    "); re-run that shard");
            if (j["config_hash"].as_str() != want_hash)
                throw std::runtime_error(
                    "merge: " + path + " was produced under a different "
                    "config (hash " + j["config_hash"].as_str() +
                    ", want " + want_hash + "); re-run that shard");
            const Json& jstreams = j["streams"];
            for (size_t i = 0; i < jstreams.size(); ++i) {
                const Json& entry = jstreams.at(i);
                const int s = static_cast<int>(entry["stream"].as_int());
                if (s < 0 || s >= total)
                    throw std::runtime_error("merge: " + path +
                                             " contains out-of-range stream " +
                                             std::to_string(s));
                if (seen[static_cast<size_t>(s)])
                    throw std::runtime_error("merge: stream " +
                                             std::to_string(s) + " of job " +
                                             std::to_string(job.index) +
                                             " appears in two shard files");
                seen[static_cast<size_t>(s)] = 1;
                parts[static_cast<size_t>(s)] =
                    io::metrics_from_json(entry["metrics"]);
                const std::string bad = stream_metrics_mismatch(
                    parts[static_cast<size_t>(s)], job.cfg, s);
                if (!bad.empty())
                    throw std::runtime_error(
                        "merge: " + path + " stream " + std::to_string(s) +
                        ": " + bad + "; re-run that shard");
            }
        }
        for (int s = 0; s < total; ++s) {
            if (!seen[static_cast<size_t>(s)])
                throw std::runtime_error(
                    "merge: stream " + std::to_string(s) + " of job " +
                    std::to_string(job.index) + " missing from all shards");
        }

        // Ascending stream order — the exact summation order of run().
        Metrics m;
        if (total == 0)
            m.rounds_per_shot = job.cfg.rounds;
        for (const Metrics& part : parts)
            m.merge(part);

        Json out = Json::object();
        out.set("gld_version", Json::integer(io::kSerializeVersion));
        out.set("campaign", Json::str(spec.name));
        out.set("job", Json::integer(job.index));
        out.set("code", Json::str(job.code));
        out.set("policy", Json::str(job.policy));
        out.set("config_hash", Json::str(want_hash));
        out.set("n_shards", Json::integer(n_shards));
        out.set("metrics", io::metrics_to_json(m));
        io::write_file_atomic(merged_result_path(out_dir, spec, job.index),
                              out.dump(2) + "\n");
        merged.push_back(std::move(m));
    }
    return merged;
}

std::vector<Metrics>
load_merged(const CampaignSpec& spec, const std::string& out_dir)
{
    std::vector<Metrics> out;
    for (const JobSpec& job : spec.expand()) {
        const std::string path =
            merged_result_path(out_dir, spec, job.index);
        if (!io::file_exists(path))
            throw std::runtime_error("report: missing merged result " + path +
                                     " (run merge first)");
        const Json j = Json::parse(io::read_file(path));
        const std::string want_hash =
            io::u64_to_hex(io::config_hash(job.cfg));
        if (j["config_hash"].as_str() != want_hash)
            throw std::runtime_error("report: " + path +
                                     " is stale (config hash mismatch); "
                                     "re-run merge");
        out.push_back(io::metrics_from_json(j["metrics"]));
    }
    return out;
}

namespace {

/**
 * Per-job wall time + executed shots summed over every shard telemetry
 * file present for this (job, config); `found` false when no shard wrote
 * telemetry (columns print "-").
 */
struct JobTelemetrySummary {
    bool found = false;
    double wall_s = 0.0;
    uint64_t shots = 0;
};

JobTelemetrySummary
job_telemetry_summary(const CampaignSpec& spec, const JobSpec& job,
                      int n_shards, const std::string& out_dir)
{
    JobTelemetrySummary sum;
    const std::string want_hash = io::u64_to_hex(io::config_hash(job.cfg));
    for (int shard = 0; shard < n_shards; ++shard) {
        const std::string path =
            telemetry_path(out_dir, spec, job.index, shard, n_shards);
        if (!io::file_exists(path))
            continue;
        try {
            const Json j = Json::parse(io::read_file(path));
            if (j["config_hash"].as_str() != want_hash)
                continue;
            sum.found = true;
            sum.wall_s += static_cast<double>(j["wall_ns"].as_int()) * 1e-9;
            sum.shots += static_cast<uint64_t>(j["shots"].as_int());
        } catch (const std::exception&) {
            continue;
        }
    }
    return sum;
}

}  // namespace

void
print_report(const CampaignSpec& spec, const std::string& out_dir,
             int n_shards)
{
    const std::vector<JobSpec> jobs = spec.expand();
    const std::vector<Metrics> metrics = load_merged(spec, out_dir);
    const bool telem_cols = n_shards > 0;
    std::vector<std::string> header = {"Job", "Code", "Policy", "p", "lr",
                                       "FN/shot", "FP/shot", "LRC/shot",
                                       "DLP", "LER"};
    if (telem_cols) {
        header.push_back("Wall(s)");
        header.push_back("Shots/s");
    }
    TablePrinter t(header);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobSpec& job = jobs[i];
        const Metrics& m = metrics[i];
        std::vector<std::string> row = {
            std::to_string(job.index), job.code, job.policy,
            TablePrinter::sci(job.cfg.np.p, 1),
            TablePrinter::fmt(job.cfg.np.leak_ratio, 2),
            TablePrinter::fmt(m.fn_per_shot(), 2),
            TablePrinter::fmt(m.fp_per_shot(), 2),
            TablePrinter::fmt(m.lrc_per_shot(), 2),
            TablePrinter::sci(m.dlp_mean(), 2),
            m.decoded_shots > 0 ? TablePrinter::sci(m.ler(), 2) : "-"};
        if (telem_cols) {
            const JobTelemetrySummary ts =
                job_telemetry_summary(spec, job, n_shards, out_dir);
            if (ts.found && ts.wall_s > 0.0) {
                row.push_back(TablePrinter::fmt(ts.wall_s, 2));
                row.push_back(TablePrinter::fmt(
                    static_cast<double>(ts.shots) / ts.wall_s, 0));
            } else {
                row.push_back("-");
                row.push_back("-");
            }
        }
        t.add_row(std::move(row));
    }
    t.print();
}

// --- Liveness (status). ---

std::vector<ShardProgress>
read_progress(const CampaignSpec& spec, int n_shards,
              const std::string& out_dir)
{
    check_shard(0, n_shards);
    std::vector<ShardProgress> out;
    for (int shard = 0; shard < n_shards; ++shard) {
        ShardProgress p;
        p.shard = shard;
        const std::string path =
            progress_path(out_dir, spec, shard, n_shards);
        if (io::file_exists(path)) {
            // Last COMPLETE line wins: a line being appended right now
            // may be torn, so scan from the end for the first parseable
            // one.
            const std::string text = io::read_file(path);
            size_t end = text.size();
            while (end > 0 && !p.valid) {
                size_t begin = text.rfind('\n', end - 1);
                begin = begin == std::string::npos ? 0 : begin + 1;
                const std::string line = text.substr(begin, end - begin);
                if (!line.empty()) {
                    try {
                        const Json j = Json::parse(line);
                        p.valid = true;
                        p.done = j["done"].as_bool();
                        p.jobs_done = j["jobs_done"].as_int();
                        p.jobs_resumed = j["jobs_resumed"].as_int();
                        p.jobs_total = j["jobs_total"].as_int();
                        p.shots_done = j["shots_done"].as_int();
                        p.shots_total = j["shots_total"].as_int();
                        p.wall_ns =
                            static_cast<uint64_t>(j["wall_ns"].as_int());
                        p.shots_per_second =
                            j["shots_per_second"].as_double();
                        const Json& js = j["stage_ns"];
                        for (int s = 0; s < telemetry::kStageCount; ++s)
                            p.stage_ns[s] = static_cast<uint64_t>(
                                js[telemetry::stage_name(s)].as_int());
                    } catch (const std::exception&) {
                        p.valid = false;  // torn/garbled: try previous
                    }
                }
                end = begin == 0 ? 0 : begin - 1;
            }
        }
        out.push_back(p);
    }
    return out;
}

void
print_status(const CampaignSpec& spec, int n_shards,
             const std::string& out_dir)
{
    const std::vector<ShardProgress> progress =
        read_progress(spec, n_shards, out_dir);
    TablePrinter t({"Shard", "State", "Jobs", "Shots", "%", "Shots/s",
                    "Wall(s)"});
    int64_t shots_done = 0, shots_total = 0, jobs_done = 0, jobs_total = 0;
    uint64_t stage_ns[telemetry::kStageCount] = {0, 0, 0, 0};
    int reporting = 0;
    for (const ShardProgress& p : progress) {
        if (!p.valid) {
            t.add_row({std::to_string(p.shard), "no data", "-", "-", "-",
                       "-", "-"});
            continue;
        }
        ++reporting;
        shots_done += p.shots_done;
        shots_total += p.shots_total;
        jobs_done += p.jobs_done;
        jobs_total += p.jobs_total;
        for (int s = 0; s < telemetry::kStageCount; ++s)
            stage_ns[s] += p.stage_ns[s];
        const double pct =
            p.shots_total > 0 ? 100.0 * static_cast<double>(p.shots_done) /
                                    static_cast<double>(p.shots_total)
                              : 100.0;
        t.add_row({std::to_string(p.shard), p.done ? "done" : "running",
                   std::to_string(p.jobs_done) + "/" +
                       std::to_string(p.jobs_total),
                   std::to_string(p.shots_done) + "/" +
                       std::to_string(p.shots_total),
                   TablePrinter::fmt(pct, 1),
                   TablePrinter::fmt(p.shots_per_second, 0),
                   TablePrinter::fmt(static_cast<double>(p.wall_ns) * 1e-9,
                                     1)});
    }
    t.print();

    const double pct =
        shots_total > 0 ? 100.0 * static_cast<double>(shots_done) /
                              static_cast<double>(shots_total)
                        : 0.0;
    std::printf("fleet: %d/%d shard(s) reporting, jobs %lld/%lld, shots "
                "%lld/%lld (%.1f%%)\n",
                reporting, n_shards, static_cast<long long>(jobs_done),
                static_cast<long long>(jobs_total),
                static_cast<long long>(shots_done),
                static_cast<long long>(shots_total), pct);
    uint64_t total_ns = 0;
    for (int s = 0; s < telemetry::kStageCount; ++s)
        total_ns += stage_ns[s];
    if (total_ns > 0) {
        std::printf("stage split:");
        for (int s = 0; s < telemetry::kStageCount; ++s)
            std::printf(" %s %.1f%%", telemetry::stage_name(s),
                        100.0 * static_cast<double>(stage_ns[s]) /
                            static_cast<double>(total_ns));
        std::printf("\n");
    }
}

// --- Heatmaps. ---

telemetry::Heatmap
merge_job_heatmap(const CampaignSpec& spec, int n_shards,
                  const std::string& out_dir, int job_index)
{
    check_shard(0, n_shards);
    const std::vector<JobSpec> jobs = spec.expand();
    if (job_index < 0 || job_index >= static_cast<int>(jobs.size()))
        throw std::runtime_error("heatmap: job index " +
                                 std::to_string(job_index) +
                                 " outside [0, " +
                                 std::to_string(jobs.size()) + ")");
    const JobSpec& job = jobs[static_cast<size_t>(job_index)];
    const std::string want_hash = io::u64_to_hex(io::config_hash(job.cfg));
    telemetry::Heatmap merged;
    bool found = false;
    for (int shard = 0; shard < n_shards; ++shard) {
        const std::string path =
            telemetry_path(out_dir, spec, job_index, shard, n_shards);
        if (!io::file_exists(path))
            continue;
        const Json j = Json::parse(io::read_file(path));
        if (j["config_hash"].as_str() != want_hash)
            throw std::runtime_error(
                "heatmap: " + path + " was produced under a different "
                "config (hash " + j["config_hash"].as_str() + ", want " +
                want_hash + "); re-run that shard");
        if (!j.has("heatmap"))
            continue;
        const telemetry::Heatmap h =
            telemetry::Heatmap::from_json(j["heatmap"]);
        if (!found) {
            merged = h;
            found = true;
        } else {
            merged.merge(h);
        }
    }
    if (!found)
        throw std::runtime_error(
            "heatmap: no shard telemetry carries a heatmap for job " +
            std::to_string(job_index) +
            " (run the campaign with --heatmap first)");
    return merged;
}

int
write_job_heatmaps(const CampaignSpec& spec, int n_shards,
                   const std::string& out_dir)
{
    const std::vector<JobSpec> jobs = spec.expand();
    int written = 0;
    for (const JobSpec& job : jobs) {
        telemetry::Heatmap h;
        try {
            h = merge_job_heatmap(spec, n_shards, out_dir, job.index);
        } catch (const std::exception&) {
            continue;  // no heatmap telemetry for this job
        }
        uint64_t leaked_qubit_rounds = 0;
        for (uint64_t c : h.counts)
            leaked_qubit_rounds += c;
        Json out = Json::object();
        out.set("gld_version", Json::integer(io::kSerializeVersion));
        out.set("campaign", Json::str(spec.name));
        out.set("job", Json::integer(job.index));
        out.set("code", Json::str(job.code));
        out.set("policy", Json::str(job.policy));
        out.set("config_hash",
                Json::str(io::u64_to_hex(io::config_hash(job.cfg))));
        out.set("n_shards", Json::integer(n_shards));
        out.set("heatmap", h.to_json());
        const std::string path = heatmap_path(out_dir, spec, job.index);
        io::write_file_atomic(path, out.dump(2) + "\n");
        std::printf("merged heatmap job %04d [%s / %s]: %d round(s) x %d "
                    "qubit(s), %llu leaked qubit-rounds -> %s\n",
                    job.index, job.code.c_str(), job.policy.c_str(),
                    h.rounds, h.n_qubits(),
                    static_cast<unsigned long long>(leaked_qubit_rounds),
                    path.c_str());
        ++written;
    }
    if (written == 0)
        throw std::runtime_error(
            "heatmap: no heatmap telemetry found for campaign \"" +
            spec.name + "\" in " + out_dir +
            " (run with --heatmap first)");
    return written;
}

}  // namespace campaign
}  // namespace gld
