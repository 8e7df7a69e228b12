// gld_campaign — the campaign subsystem's command-line driver.
//
// A campaign is a declarative sweep manifest (JSON, see `init`) expanded
// into deterministic jobs; each job's RNG streams are partitioned across
// N shards, shards run anywhere/anytime (results checkpoint to files and
// resume for free), and `merge` reassembles per-stream partials in stream
// order — bit-identical to running every job single-process.
//
//   gld_campaign init                              > spec.json
//   gld_campaign plan   --spec spec.json --shards 3
//   gld_campaign run    --spec spec.json --shard 0/3 --out results/
//   gld_campaign run    --spec spec.json --shard 1/3 --out results/
//   gld_campaign run    --spec spec.json --shard 2/3 --out results/
//   gld_campaign merge  --spec spec.json --shards 3  --out results/
//   gld_campaign report --spec spec.json --out results/
//   gld_campaign demo   --out /tmp/gld_demo   # end-to-end self-check

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/registry.h"
#include "campaign/verify.h"
#include "io/serialize.h"
#include "util/table.h"

using namespace gld;
using campaign::CampaignSpec;
using campaign::JobSpec;

namespace {

int
usage(const char* argv0)
{
    // The backend list comes from the one kBackendTable behind
    // known_backend_names(): registering a backend updates this help
    // text, the error messages and the factory together — no
    // hand-duplicated names in the CLI.
    std::fprintf(
        stderr,
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  init                 print an example campaign spec to stdout\n"
        "  plan                 expand the grid; show jobs and each\n"
        "                       shard's stream and shot counts\n"
        "  run                  run one shard, writing result files\n"
        "  merge                merge all shards' results (stream order)\n"
        "  report               print the aggregated per-job table\n"
        "  demo                 tiny built-in campaign: run 3 shards,\n"
        "                       merge, verify vs single-process, report\n"
        "  verify               cross-backend referee: run the grid on a\n"
        "                       reference + candidate backends, compare\n"
        "                       bit-exactly (same RNG contract) or by\n"
        "                       z-tests at --alpha; nonzero exit on any\n"
        "                       confirmed mismatch\n"
        "  status               live fleet progress: per-shard heartbeat\n"
        "                       table + aggregated shots/s and stage\n"
        "                       split (reads the progress JSONL files a\n"
        "                       telemetry-enabled run appends to)\n"
        "  heatmap              merge each job's per-qubit x per-round\n"
        "                       leakage heatmap across shards (needs a\n"
        "                       run with --heatmap) and write\n"
        "                       <name>.job####.heatmap.json files\n"
        "\n"
        "options:\n"
        "  --spec <file>        campaign spec JSON (plan/run/merge/report;\n"
        "                       verify uses a tiny built-in grid if absent)\n"
        "  --shard <i>/<N>      this shard's index / total shards\n"
        "                       (run; verify: run this shard of every arm\n"
        "                       and exit without refereeing)\n"
        "  --shards <N>         total shards (plan/merge/verify)\n"
        "  --out <dir>          result directory (default: ./campaign_out)\n"
        "  --threads <T>        worker threads per job (default: auto)\n"
        "  -j <N>               jobs run concurrently (run/demo/verify;\n"
        "                       default 1)\n"
        "  --backend <name>     simulation backend: %s\n"
        "                       (overrides the spec; changes every job's\n"
        "                       config hash, so results never mix)\n"
        "  --batch-words <K>    scheduler block of K*64 shots, 1..%d\n"
        "                       (overrides the spec; batch backends run\n"
        "                       a block as K 64-lane batches; like\n"
        "                       --backend it changes every job's config\n"
        "                       hash)\n"
        "  --noise-sampling <m> noise sampling mode: %s\n"
        "                       (overrides the spec; default sparse, the\n"
        "                       event-wise engine; lockstep replays the\n"
        "                       scalar draws lane for lane; like --backend\n"
        "                       it changes every job's config hash;\n"
        "                       scalar backends ignore it)\n"
        "  --no-telemetry       disable the telemetry side channel (run/\n"
        "                       demo; results are bit-identical either\n"
        "                       way — telemetry only adds stage timers,\n"
        "                       progress heartbeats and export files)\n"
        "  --heatmap            also collect per-qubit x per-round\n"
        "                       leakage heatmaps (run; demo always does)\n"
        "  -v                   verbose per-job progress\n"
        "\n"
        "verify options:\n"
        "  --reference <name>   reference backend (default: frame)\n"
        "  --candidates <a,b>   candidate backends (default: every other\n"
        "                       known backend)\n"
        "  --alpha <a>          family-wise false-positive budget for the\n"
        "                       statistical comparisons (default: 0.01,\n"
        "                       Sidak-corrected across the whole grid)\n"
        "  --bonferroni         Bonferroni correction instead of Sidak\n"
        "  --independent-seeds  salt every candidate arm's seeds: all\n"
        "                       comparisons become statistical (the\n"
        "                       null-calibration mode)\n"
        "  --inject-noise-scale <f>\n"
        "                       multiply candidate noise p by f — a\n"
        "                       deliberate fault the referee must flag\n"
        "                       (power calibration; default 1.0 = off)\n",
        argv0, known_backend_names().c_str(), kMaxBatchWords,
        known_noise_sampling_names().c_str());
    return 2;
}

struct Args {
    std::string command;
    std::string spec_path;
    std::string out_dir = "campaign_out";
    std::string backend;  ///< empty = use the spec's backend
    int batch_words = 0;  ///< 0 = use the spec's block multiplier
    std::string noise_sampling;  ///< empty = use the spec's mode
    int shard = -1;
    int n_shards = 1;
    int threads = 0;
    int jobs_parallel = 1;
    bool verbose = false;
    bool no_telemetry = false;
    bool heatmap = false;
    // verify options.
    std::string reference = "frame";
    std::string candidates;  ///< comma-separated; empty = all others
    double alpha = 0.01;
    bool bonferroni = false;
    bool independent_seeds = false;
    double inject_noise_scale = 1.0;
};

Args
parse_args(int argc, char** argv)
{
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(flag) +
                                         " needs a value");
            return argv[++i];
        };
        if (arg == "--spec") {
            a.spec_path = need_value("--spec");
        } else if (arg == "--out") {
            a.out_dir = need_value("--out");
        } else if (arg == "--threads") {
            a.threads = std::stoi(need_value("--threads"));
        } else if (arg == "-j" || arg == "--jobs") {
            a.jobs_parallel = std::stoi(need_value("-j"));
            if (a.jobs_parallel < 1)
                throw std::runtime_error("-j wants a positive job count");
        } else if (arg == "--backend") {
            a.backend = need_value("--backend");
            backend_from_name(a.backend);  // validate early
        } else if (arg == "--batch-words") {
            a.batch_words = std::stoi(need_value("--batch-words"));
            if (a.batch_words < 1 || a.batch_words > kMaxBatchWords)
                throw std::runtime_error(
                    "--batch-words wants 1.." +
                    std::to_string(kMaxBatchWords) + ", got " +
                    std::to_string(a.batch_words));
        } else if (arg == "--noise-sampling") {
            a.noise_sampling = need_value("--noise-sampling");
            noise_sampling_from_name(a.noise_sampling);  // validate early
        } else if (arg == "--shards") {
            a.n_shards = std::stoi(need_value("--shards"));
        } else if (arg == "--shard") {
            const std::string v = need_value("--shard");
            const size_t slash = v.find('/');
            if (slash == std::string::npos)
                throw std::runtime_error("--shard wants <i>/<N>, e.g. 0/3");
            a.shard = std::stoi(v.substr(0, slash));
            a.n_shards = std::stoi(v.substr(slash + 1));
        } else if (arg == "-v" || arg == "--verbose") {
            a.verbose = true;
        } else if (arg == "--no-telemetry") {
            a.no_telemetry = true;
        } else if (arg == "--heatmap") {
            a.heatmap = true;
        } else if (arg == "--reference") {
            a.reference = need_value("--reference");
            backend_from_name(a.reference);  // validate early
        } else if (arg == "--candidates") {
            a.candidates = need_value("--candidates");
        } else if (arg == "--alpha") {
            a.alpha = std::stod(need_value("--alpha"));
        } else if (arg == "--bonferroni") {
            a.bonferroni = true;
        } else if (arg == "--independent-seeds") {
            a.independent_seeds = true;
        } else if (arg == "--inject-noise-scale") {
            a.inject_noise_scale =
                std::stod(need_value("--inject-noise-scale"));
        } else {
            throw std::runtime_error("unknown option " + arg);
        }
    }
    return a;
}

CampaignSpec
load_spec(const Args& a)
{
    if (a.spec_path.empty())
        throw std::runtime_error("--spec <file> is required for '" +
                                 a.command + "'");
    CampaignSpec spec = CampaignSpec::from_json(
        io::Json::parse(io::read_file(a.spec_path)));
    // A --backend / --batch-words / --noise-sampling override rewrites
    // every job's config (and hash), so run/merge/report agree as long
    // as they get the same flags.
    if (!a.backend.empty())
        spec.backend = backend_from_name(a.backend);
    if (a.batch_words > 0)
        spec.batch_words = a.batch_words;
    if (!a.noise_sampling.empty())
        spec.noise_sampling = noise_sampling_from_name(a.noise_sampling);
    return spec;
}

CampaignSpec
example_spec()
{
    CampaignSpec spec;
    spec.name = "example";
    spec.seed = 0x5EED5EEDull;
    spec.shots = 240;
    spec.rounds = 30;
    spec.rng_streams = 8;
    spec.leakage_sampling = true;
    spec.compute_ler = false;
    spec.record_dlp_series = true;
    spec.codes = {"surface:3", "surface:5", "color:5"};
    spec.policies = {"eraser_m", "gladiator_m", "gladiator_d_m"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1),
                  NoiseParams::standard(2e-3, 0.1)};
    return spec;
}

int
cmd_init()
{
    std::printf("%s\n", example_spec().to_json().dump(2).c_str());
    return 0;
}

int
cmd_plan(const Args& a)
{
    const CampaignSpec spec = load_spec(a);
    spec.validate();
    const std::vector<JobSpec> jobs = spec.expand();

    std::printf("campaign \"%s\" [%s backend]: %zu job(s), %d shard(s)\n\n",
                spec.name.c_str(), backend_name(spec.backend), jobs.size(),
                a.n_shards);
    TablePrinter t({"Job", "Code", "Policy", "p", "lr", "Shots", "Rounds",
                    "Streams", "Seed"});
    for (const JobSpec& job : jobs) {
        t.add_row({std::to_string(job.index), job.code, job.policy,
                   TablePrinter::sci(job.cfg.np.p, 1),
                   TablePrinter::fmt(job.cfg.np.leak_ratio, 2),
                   std::to_string(job.cfg.shots),
                   std::to_string(job.cfg.rounds),
                   std::to_string(ExperimentRunner::n_streams(job.cfg)),
                   io::u64_to_hex(job.cfg.seed)});
    }
    t.print();

    // Exactly what `run --shard i/N` runs (campaign::shard_streams).
    std::printf("\nper-shard load, every job's streams dealt across "
                "shards:\n");
    for (int shard = 0; shard < a.n_shards; ++shard) {
        const campaign::ShardLoad load =
            campaign::shard_load(spec, shard, a.n_shards);
        std::printf("  shard %d/%d: %ld stream(s), %ld shot(s)\n", shard,
                    a.n_shards, load.streams, load.shots);
    }
    return 0;
}

int
cmd_run(const Args& a)
{
    if (a.shard < 0)
        throw std::runtime_error("run needs --shard <i>/<N>");
    const CampaignSpec spec = load_spec(a);
    spec.validate();
    const std::string pool_note =
        a.jobs_parallel > 1 ? " (" + std::to_string(a.jobs_parallel) +
                                  " jobs in parallel)"
                            : "";
    std::printf("campaign \"%s\" [%s backend]: running shard %d/%d into "
                "%s%s\n",
                spec.name.c_str(), backend_name(spec.backend), a.shard,
                a.n_shards, a.out_dir.c_str(), pool_note.c_str());
    campaign::RunShardOptions opt;
    opt.threads = a.threads;
    opt.verbose = a.verbose;
    opt.jobs_parallel = a.jobs_parallel;
    opt.telemetry = !a.no_telemetry;
    opt.heatmap = a.heatmap;
    const campaign::RunShardStats stats =
        campaign::run_shard(spec, a.shard, a.n_shards, a.out_dir, opt);
    std::printf("shard %d/%d done: %d job(s) run, %d resumed from "
                "checkpoint\n",
                a.shard, a.n_shards, stats.jobs_run, stats.jobs_resumed);
    return 0;
}

int
cmd_merge(const Args& a)
{
    const CampaignSpec spec = load_spec(a);
    const std::vector<Metrics> merged =
        campaign::merge_campaign(spec, a.n_shards, a.out_dir);
    std::printf("campaign \"%s\": merged %zu job(s) from %d shard(s) into "
                "%s\n",
                spec.name.c_str(), merged.size(), a.n_shards,
                a.out_dir.c_str());
    return 0;
}

int
cmd_report(const Args& a)
{
    const CampaignSpec spec = load_spec(a);
    std::printf("campaign \"%s\" — aggregated results\n\n",
                spec.name.c_str());
    // --shards N adds the telemetry columns (wall time, shots/s) when
    // the per-job telemetry exports are present.
    campaign::print_report(spec, a.out_dir, a.n_shards);
    return 0;
}

int
cmd_status(const Args& a)
{
    const CampaignSpec spec = load_spec(a);
    std::printf("campaign \"%s\" — fleet status (%d shard(s), %s)\n\n",
                spec.name.c_str(), a.n_shards, a.out_dir.c_str());
    campaign::print_status(spec, a.n_shards, a.out_dir);
    return 0;
}

int
cmd_heatmap(const Args& a)
{
    const CampaignSpec spec = load_spec(a);
    std::printf("campaign \"%s\" — merging leakage heatmaps from %d "
                "shard(s)\n",
                spec.name.c_str(), a.n_shards);
    const int written =
        campaign::write_job_heatmaps(spec, a.n_shards, a.out_dir);
    std::printf("%d heatmap file(s) written\n", written);
    return 0;
}

// End-to-end self-check: shard a tiny campaign 3 ways, merge, and demand
// bit-identity against the single-process ExperimentRunner::run() — the
// acceptance contract of the subsystem, runnable anywhere in seconds.
int
cmd_demo(const Args& a)
{
    CampaignSpec spec;
    spec.name = "demo";
    spec.seed = 0xD46005EEDull;
    spec.shots = 45;
    spec.rounds = 8;
    spec.rng_streams = 8;
    spec.leakage_sampling = true;
    spec.compute_ler = true;
    spec.record_dlp_series = true;
    spec.codes = {"surface:3"};
    spec.policies = {"eraser_m", "gladiator_m"};
    spec.noise = {NoiseParams::standard(1e-3, 0.1)};
    // The demo is self-contained (it writes its own spec), so unlike
    // run/merge/report — where an env override could silently relabel a
    // spec's results — it may take the backend from GLD_BACKEND.  This is
    // what lets CI gate the whole tier-1 suite on the non-default backend
    // with one environment variable.
    if (!a.backend.empty())
        spec.backend = backend_from_name(a.backend);
    else
        spec.backend = backend_from_env();
    // Same self-contained-spec reasoning for the batch width: the demo
    // may take it from GLD_BATCH_WORDS so the CI matrix can exercise
    // K>1 blocks end-to-end without touching any spec file.
    if (a.batch_words > 0)
        spec.batch_words = a.batch_words;
    else
        spec.batch_words = batch_words_from_env();
    // ...and for the noise sampling mode: GLD_NOISE_SAMPLING lets the CI
    // matrix run the whole tier-1 suite under either mode end-to-end.
    if (!a.noise_sampling.empty())
        spec.noise_sampling = noise_sampling_from_name(a.noise_sampling);
    else
        spec.noise_sampling = noise_sampling_from_env();

    const int n_shards = 3;
    io::make_dirs(a.out_dir);
    // The demo is a self-CHECK of the current binary: never resume
    // checkpoints a previous (possibly different) build left in out_dir —
    // the config hash fingerprints the configuration, not the code, so a
    // stale file would make the bit-identity referee below fail spuriously.
    campaign::remove_results(spec, n_shards, a.out_dir);
    const std::string spec_path = a.out_dir + "/demo.spec.json";
    io::write_file_atomic(spec_path, spec.to_json().dump(2) + "\n");
    std::printf("demo campaign: %s\n", spec_path.c_str());

    // Telemetry + heatmaps always on (unless --no-telemetry): the demo is
    // the fixture the `status` and `heatmap` smoke gates read, and the
    // bit-identity referee below doubles as the end-to-end proof that the
    // side channel leaves results untouched.
    campaign::RunShardOptions ropt;
    ropt.threads = a.threads;
    ropt.verbose = a.verbose;
    ropt.jobs_parallel = a.jobs_parallel;
    ropt.telemetry = !a.no_telemetry;
    ropt.heatmap = !a.no_telemetry;
    for (int shard = 0; shard < n_shards; ++shard) {
        const campaign::RunShardStats stats =
            campaign::run_shard(spec, shard, n_shards, a.out_dir, ropt);
        std::printf("  shard %d/%d: %d run, %d resumed\n", shard, n_shards,
                    stats.jobs_run, stats.jobs_resumed);
    }
    const std::vector<Metrics> merged =
        campaign::merge_campaign(spec, n_shards, a.out_dir);

    // Referee: the same jobs, single process.
    const std::vector<JobSpec> jobs = spec.expand();
    int mismatches = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto code = campaign::make_code(jobs[i].code);
        const ExperimentRunner runner(code->ctx, jobs[i].cfg);
        const Metrics direct =
            runner.run(campaign::make_policy(jobs[i].policy,
                                             jobs[i].cfg.np));
        const bool same = io::metrics_to_json(direct).dump() ==
                          io::metrics_to_json(merged[i]).dump();
        std::printf("  job %04d [%s / %s]: shard-merge %s single-process\n",
                    jobs[i].index, jobs[i].code.c_str(),
                    jobs[i].policy.c_str(),
                    same ? "== (bit-identical)" : "!=");
        mismatches += same ? 0 : 1;
    }
    std::printf("\n");
    campaign::print_report(spec, a.out_dir, n_shards);
    if (mismatches > 0) {
        std::fprintf(stderr, "\nDEMO FAILED: %d job(s) diverged\n",
                     mismatches);
        return 1;
    }
    std::printf("\ndemo OK: shard-then-merge is bit-identical to a "
                "single-process run.\n");
    return 0;
}

// The cross-backend referee (see campaign/verify.h).  Without --spec it
// verifies a tiny built-in grid — the form the tier-1
// smoke_gld_campaign_verify gate runs: frame vs batch_frame must be
// BIT-identical, frame vs tableau must agree statistically.
int
cmd_verify(const Args& a)
{
    CampaignSpec grid;
    if (!a.spec_path.empty()) {
        grid = CampaignSpec::from_json(
            io::Json::parse(io::read_file(a.spec_path)));
    } else {
        grid.name = "verify";
        grid.seed = 0x7E51F15EEDull;
        grid.shots = 192;
        grid.rounds = 6;
        grid.rng_streams = 4;
        grid.leakage_sampling = true;
        grid.compute_ler = true;
        grid.record_dlp_series = true;
        grid.codes = {"surface:3"};
        grid.policies = {"eraser_m"};
        grid.noise = {NoiseParams::standard(2e-3, 0.5)};
    }
    // The grid's own backend field is ignored on purpose: the arms are
    // defined by --reference/--candidates, never by the spec or
    // GLD_BACKEND (an env override could silently relabel an arm).
    // --batch-words DOES apply: the block multiplier is shared by every
    // arm (it sets the common scheduler block size), so refereeing at
    // K>1 judges blocks of K batches against frame at the same blocks.
    if (a.batch_words > 0)
        grid.batch_words = a.batch_words;
    // --noise-sampling also applies grid-wide: under sparse the batch
    // backends move to their own RNG contracts, so e.g. batch_frame is
    // refereed STATISTICALLY against a genuine lockstep frame reference
    // — the qualification gate for the sparse sampler itself.
    if (!a.noise_sampling.empty())
        grid.noise_sampling = noise_sampling_from_name(a.noise_sampling);

    campaign::VerifyOptions opt;
    opt.reference = backend_from_name(a.reference);
    if (!a.candidates.empty()) {
        std::string rest = a.candidates;
        while (!rest.empty()) {
            const size_t comma = rest.find(',');
            opt.candidates.push_back(
                backend_from_name(rest.substr(0, comma)));
            rest = comma == std::string::npos ? ""
                                              : rest.substr(comma + 1);
        }
    }
    opt.alpha = a.alpha;
    opt.sidak = !a.bonferroni;
    opt.independent_seeds = a.independent_seeds;
    opt.inject_noise_scale = a.inject_noise_scale;
    opt.threads = a.threads;
    opt.jobs_parallel = a.jobs_parallel;
    opt.verbose = a.verbose;

    if (a.shard >= 0) {
        // Distributed mode: compute this shard of every arm and stop —
        // a final spec-identical `verify --shards N` merges and referees
        // (resuming these results, bit-identically).
        std::printf("verify \"%s\": running shard %d/%d of every arm "
                    "into %s\n",
                    grid.name.c_str(), a.shard, a.n_shards,
                    a.out_dir.c_str());
        campaign::verify_run_shard(grid, opt, a.shard, a.n_shards,
                                   a.out_dir);
        std::printf("shard %d/%d done (no referee: run verify without "
                    "--shard to judge)\n",
                    a.shard, a.n_shards);
        return 0;
    }

    std::printf("verify \"%s\": %d shard(s) into %s\n\n",
                grid.name.c_str(), a.n_shards, a.out_dir.c_str());
    const campaign::VerifyReport report =
        campaign::run_verify(grid, opt, a.n_shards, a.out_dir);
    campaign::print_verify_report(report);
    std::printf("\nverdict report: %s\n",
                campaign::verify_report_path(a.out_dir, grid).c_str());
    if (!report.pass) {
        std::fprintf(stderr, "\nVERIFY FAILED: confirmed mismatch "
                             "between backends\n");
        return 3;
    }
    std::printf("\nverify OK: every candidate agrees with the "
                "reference.\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage(argv[0]);
    try {
        const Args a = parse_args(argc, argv);
        if (a.command == "init")
            return cmd_init();
        if (a.command == "plan")
            return cmd_plan(a);
        if (a.command == "run")
            return cmd_run(a);
        if (a.command == "merge")
            return cmd_merge(a);
        if (a.command == "report")
            return cmd_report(a);
        if (a.command == "demo")
            return cmd_demo(a);
        if (a.command == "verify")
            return cmd_verify(a);
        if (a.command == "status")
            return cmd_status(a);
        if (a.command == "heatmap")
            return cmd_heatmap(a);
        std::fprintf(stderr, "unknown command \"%s\"\n\n",
                     a.command.c_str());
        return usage(argv[0]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gld_campaign: %s\n", e.what());
        return 1;
    }
}
