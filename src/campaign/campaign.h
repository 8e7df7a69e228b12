#ifndef GLD_CAMPAIGN_CAMPAIGN_H_
#define GLD_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "io/json.h"
#include "noise/noise_model.h"
#include "runtime/experiment.h"
#include "runtime/metrics.h"
#include "sim/simulator.h"

namespace gld {
namespace campaign {

/**
 * One fully-resolved unit of work: a (code, policy, noise) grid point with
 * a runnable ExperimentConfig whose seed was derived deterministically
 * from the campaign seed and the job index.  Running a JobSpec through
 * ExperimentRunner::run() single-process is, by contract, bit-identical
 * to running its RNG-stream shards anywhere and merging in stream order.
 */
struct JobSpec {
    int index = 0;
    std::string code;    ///< registry code spec, e.g. "surface:7"
    std::string policy;  ///< registry policy name, e.g. "gladiator_m"
    ExperimentConfig cfg;
};

/**
 * A declarative sweep manifest — the paper's figure grids (code family x
 * distance x policy x noise) as one versioned, serializable document.
 * expand() flattens the grid into JobSpecs in a deterministic order
 * (codes outer, noise middle, policies inner), so job indices — and with
 * them the derived per-job seeds — are stable across processes, shards
 * and resumes.
 */
struct CampaignSpec {
    std::string name = "campaign";
    uint64_t seed = 0xCA4A16A5EEDull;
    int shots = 100;
    int rounds = 10;
    int rng_streams = 8;
    bool leakage_sampling = true;
    bool compute_ler = false;
    bool record_dlp_series = false;
    /**
     * Paired comparison (default): every policy at the same (code, noise)
     * grid point shares one derived seed, so policy columns are compared
     * on identical noise realizations — the variance-reduced design of
     * the paper's figure generators.  Set false for fully independent
     * per-job seeds (e.g. when jobs are later pooled as extra shots).
     */
    bool pair_policy_seeds = true;
    /**
     * Simulation backend every job runs on (see ExperimentConfig::backend,
     * whose default this is; config-hashed per job, so switching backends
     * never resumes the other backend's checkpoints).  Always serialized
     * by name; specs without the field load as "frame", as they were
     * written before the field existed.
     */
    SimBackend backend = ExperimentConfig{}.backend;
    /**
     * Noise sampling mode every job runs under (see
     * ExperimentConfig::noise_sampling, whose default this is;
     * result-affecting on the batch backends, so config-hashed per job
     * when != lockstep).  Serialized only when != lockstep, and specs
     * without the field load as lockstep — existing specs and hashes are
     * untouched.
     */
    NoiseSampling noise_sampling = ExperimentConfig{}.noise_sampling;
    std::vector<std::string> codes;     ///< e.g. {"surface:3", "surface:5"}
    std::vector<std::string> policies;  ///< registry names
    std::vector<NoiseParams> noise;     ///< grid points

    /** Flattens the grid; throws if any dimension is empty. */
    std::vector<JobSpec> expand() const;

    /**
     * The seed job `index` runs under: derived from the campaign seed
     * and the job's seed group — the (code, noise) point when
     * pair_policy_seeds, the job index itself otherwise.
     */
    uint64_t job_seed(int index) const;

    io::Json to_json() const;
    static CampaignSpec from_json(const io::Json& j);

    /** Builds every distinct code and policy once; throws on bad names. */
    void validate() const;
};

/**
 * The shard partition: shard i of N owns RNG stream s of job j iff
 * (j * n_streams + s) % N == i.  n_streams is the same for every job of
 * a campaign (shots and rng_streams are campaign-wide), so the streams
 * of all jobs are dealt out as one sequence.  Streams, not jobs, are the
 * partition unit:
 *  - any N up to the stream count splits even a single-job campaign;
 *  - every shard gets the same share of every job, whatever that job
 *    costs, so no cost model is needed to balance shards;
 *  - the job offset hands each job's leftover streams (N not dividing
 *    n_streams) to different shards, not always to the low-numbered
 *    ones.
 * merge_campaign collects streams by id and folds them in stream order,
 * so shard-then-merge is bit-identical to a single-process run.
 *
 * Returns job's ascending stream ids owned by `shard`; throws
 * std::runtime_error unless n_shards >= 1 and 0 <= shard < n_shards.
 */
std::vector<int> shard_streams(const JobSpec& job, int shard, int n_shards);

/** What one shard runs over the whole campaign. */
struct ShardLoad {
    long streams = 0;  ///< (job, stream) pairs
    long shots = 0;
};

/** Sums shard_streams over every job of `spec`. */
ShardLoad shard_load(const CampaignSpec& spec, int shard, int n_shards);

/** `<out_dir>/<name>.job####.shard<i>of<N>.json` */
std::string shard_result_path(const std::string& out_dir,
                              const CampaignSpec& spec, int job_index,
                              int shard, int n_shards);

/** `<out_dir>/<name>.job####.merged.json` */
std::string merged_result_path(const std::string& out_dir,
                               const CampaignSpec& spec, int job_index);

/** `<out_dir>/<name>.job####.shard<i>of<N>.telemetry.json` */
std::string telemetry_path(const std::string& out_dir,
                           const CampaignSpec& spec, int job_index,
                           int shard, int n_shards);

/** `<out_dir>/<name>.progress.shard<i>of<N>.jsonl` */
std::string progress_path(const std::string& out_dir,
                          const CampaignSpec& spec, int shard, int n_shards);

/** `<out_dir>/<name>.job####.heatmap.json` (cross-shard merge). */
std::string heatmap_path(const std::string& out_dir,
                         const CampaignSpec& spec, int job_index);

struct RunShardStats {
    int jobs_run = 0;      ///< jobs (re)computed by this call
    int jobs_resumed = 0;  ///< jobs skipped: valid result file present
};

/**
 * Observability knobs of run_shard — all pure side channels (Metrics and
 * result files are bit-identical for every combination; the telemetry
 * drift gate in tests/test_telemetry.cc pins the runner-level guarantee).
 */
struct RunShardOptions {
    int threads = 0;        ///< worker threads per job (0 = auto)
    bool verbose = false;   ///< per-job progress lines on stdout
    int jobs_parallel = 1;  ///< concurrent jobs (each `threads` wide)
    /**
     * Collect per-job telemetry (stage timers, leak histogram) and write
     * `telemetry_path` files plus the `progress_path` heartbeat JSONL
     * (the `gld_campaign status` feed).  Off = the exact pre-telemetry
     * run_shard behavior, no extra files.
     */
    bool telemetry = true;
    /** Also collect per-qubit x per-round leakage heatmaps. */
    bool heatmap = false;
};

/**
 * Runs shard `shard` of `n_shards` (its shard_streams of every job) over
 * the campaign, writing one result file per job into `out_dir` (created
 * if needed).  Each distinct code is built once per call.
 *
 * Checkpoint/resume: a job whose result file already exists with a
 * matching config hash, shard geometry and stream list is skipped; a
 * stale file (any mismatch, or unparseable) is recomputed and
 * overwritten.
 *
 * `threads` caps worker threads per job (0 = the full
 * BenchConfig::threads() budget).  Job workers AND every job's runner
 * loop execute on the one process-wide persistent pool
 * (util/thread_pool.h), so total OS-thread concurrency never exceeds
 * the budget however `jobs_parallel` and `threads` combine — idle pool
 * workers drift to whichever job's loop is live instead of being
 * statically divided.  `jobs_parallel` runs that many jobs concurrently:
 * jobs are independent — separate codes, runners and result files — so
 * a job-level pool layers cleanly on top of the per-job scheduler for
 * grids of many small jobs.  1 = the serial loop.
 *
 * With `opt.telemetry` (the default), each executed job also writes a
 * telemetry JSON beside its result file, and the shard appends heartbeat
 * lines to its progress JSONL while running — the liveness feed of
 * `gld_campaign status`.  Resumed jobs keep their existing telemetry
 * file and count their planned shots as done in the heartbeat.
 */
RunShardStats run_shard(const CampaignSpec& spec, int shard, int n_shards,
                        const std::string& out_dir,
                        const RunShardOptions& opt);

/**
 * Deletes every shard and merged result file of the campaign in
 * `out_dir`, plus all telemetry, progress and merged-heatmap files
 * (missing files are fine).  The config hash fingerprints the
 * CONFIGURATION, not the code: callers that must reflect the current
 * binary — CI crash gates, the demo self-check, any regenerated figure —
 * should start fresh instead of resuming a possibly stale-binary
 * checkpoint.  The ported generators honour GLD_CAMPAIGN_FRESH=1 to do
 * this (set by the CTest bench/smoke environments).
 */
void remove_results(const CampaignSpec& spec, int n_shards,
                    const std::string& out_dir);

/**
 * Merges the per-stream partials of all `n_shards` result files per job,
 * in ascending stream order, writes `<name>.job####.merged.json` files
 * and returns the merged Metrics in job order.  Throws if any stream of
 * any job is missing, duplicated, or was produced under a different
 * config hash.
 */
std::vector<Metrics> merge_campaign(const CampaignSpec& spec, int n_shards,
                                    const std::string& out_dir);

/** Loads the merged Metrics of every job (merge_campaign output files). */
std::vector<Metrics> load_merged(const CampaignSpec& spec,
                                 const std::string& out_dir);

/**
 * Prints the aggregated per-job table (FN/FP/LRC per shot, DLP, LER) from
 * the merged result files — the campaign-level replacement for the
 * monolithic bench generators' output.  With n_shards > 0 the table also
 * carries wall-time and shots/second columns aggregated from the per-job
 * telemetry exports ("-" for jobs without telemetry files).
 */
void print_report(const CampaignSpec& spec, const std::string& out_dir,
                  int n_shards = 0);

/**
 * One shard's liveness snapshot: the last complete line of its progress
 * JSONL (`valid` false when the file is missing or holds no parseable
 * line yet — e.g. the shard has not started).
 */
struct ShardProgress {
    int shard = 0;
    bool valid = false;
    bool done = false;
    int64_t jobs_done = 0;
    int64_t jobs_resumed = 0;
    int64_t jobs_total = 0;
    int64_t shots_done = 0;
    int64_t shots_total = 0;
    uint64_t wall_ns = 0;
    double shots_per_second = 0.0;
    uint64_t stage_ns[4] = {0, 0, 0, 0};  ///< telemetry::kStageCount
};

/** Reads every shard's latest heartbeat (missing files -> !valid). */
std::vector<ShardProgress> read_progress(const CampaignSpec& spec,
                                         int n_shards,
                                         const std::string& out_dir);

/**
 * Prints the live fleet table (`gld_campaign status`): one row per shard
 * plus an aggregated "fleet:" summary line with total shots done /
 * planned, throughput and the stage-time split.
 */
void print_status(const CampaignSpec& spec, int n_shards,
                  const std::string& out_dir);

/**
 * Merges job `job_index`'s leakage heatmap across all shard telemetry
 * files (validating the config hash), returning the cross-shard sum.
 * Throws if no shard telemetry carries a heatmap for the job — run with
 * --heatmap first.
 */
telemetry::Heatmap merge_job_heatmap(const CampaignSpec& spec, int n_shards,
                                     const std::string& out_dir,
                                     int job_index);

/**
 * Merges + writes `heatmap_path` files for every job with heatmap
 * telemetry, printing one summary line each; returns the number written.
 * Throws if NO job has heatmap telemetry (nothing was collected).
 */
int write_job_heatmaps(const CampaignSpec& spec, int n_shards,
                       const std::string& out_dir);

}  // namespace campaign
}  // namespace gld

#endif  // GLD_CAMPAIGN_CAMPAIGN_H_
