// paperbench: the paper-workload benchmark binary.
//
//   paperbench --workload NAME --seed N --seconds S --trace 0|1
//              --reference reference.json
//       One run.  --trace 0 measures the end-to-end metrics (shots_per_s,
//       setup_s, peak_rss_mb); --trace 1 the per-layer ledger.  The last
//       stdout line is one JSON document: metrics, checks, the resolved
//       config and build/host provenance.
//   paperbench --self-check --reference reference.json
//       Shows the reference check can fail: a 3x-noise run and a
//       perturbed Metrics must both be rejected, the nominal run accepted.
//   paperbench --record-reference OUT
//       Re-records the reference rates (large runs at a fixed seed).
//
// run.py builds this binary and wraps it for the benchmark contract.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ledger.h"
#include "workload.h"

extern char** environ;

namespace paperbench {
namespace {

using gld::io::Json;

/**
 * Timed set-ups after each timed run.  The first one after a run starts
 * with cold caches and is slower; with one cold sample in five, the
 * median stays in the warm mode instead of wandering between the two.
 */
constexpr int kSetupsPerRep = 5;
/**
 * shots_per_s is timed at this quantile of the repetition times.  On a
 * shared host, neighbours' load slows whole stretches of a run; a
 * program change moves every repetition alike, while load only adds
 * time, so the fast decile tracks the program and the median tracks
 * whichever load state filled most of the run.
 */
constexpr double kRepQuantile = 0.1;
constexpr uint64_t kReferenceSeed = 20250101;
constexpr int kReferenceScale = 16;     ///< reference shots / rep shots
constexpr double kPerturbFactor = 1.5;  ///< the perturbed-Metrics check

/**
 * Removes every GLD_* variable from the environment before the library
 * can read one (the thread pool sizes itself from GLD_THREADS at first
 * use) and returns them, so a result reports them instead of silently
 * running a different config.
 */
Json
take_gld_env()
{
    Json found = Json::object();
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv(*e);
        if (kv.rfind("GLD_", 0) != 0)
            continue;
        const size_t eq = kv.find('=');
        names.push_back(kv.substr(0, eq));
        found.set(names.back(),
                  Json::str(eq == std::string::npos ? "" : kv.substr(eq + 1)));
    }
    for (const std::string& n : names)
        unsetenv(n.c_str());
    return found;
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t a = s.find_first_not_of(' ');
        return a == std::string::npos ? "unknown" : s.substr(a);
    }
#endif
    return "unknown";
}

bool
cpu_has(const char* feature)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (std::strcmp(feature, "avx512f") == 0)
        return __builtin_cpu_supports("avx512f");
    if (std::strcmp(feature, "avx2") == 0)
        return __builtin_cpu_supports("avx2");
#endif
    (void)feature;
    return false;
}

/** Build and host provenance (the git side is added by run.py). */
Json
provenance(const Json& ignored_env)
{
    Json p = Json::object();
    p.set("compiler", Json::str(PB_COMPILER));
    p.set("build_type", Json::str(PB_BUILD_TYPE));
    p.set("cxx_flags", Json::str(PB_CXX_FLAGS));
    p.set("usable_cpus", Json::integer(usable_cpus()));
    p.set("hardware_concurrency",
          Json::integer(std::thread::hardware_concurrency()));
    p.set("cpu_model", Json::str(cpu_model()));
    // Outside proxy for the batch engine's site-kernel tier
    // (AVX-512 / AVX2 / portable), which nothing else records.
    p.set("avx512f", Json::boolean(cpu_has("avx512f")));
    p.set("avx2", Json::boolean(cpu_has("avx2")));
    p.set("ignored_gld_env", ignored_env);
    return p;
}

Json
config_json(const Workload& w, const gld::ExperimentConfig& cfg)
{
    Json c = Json::object();
    c.set("code", Json::str("surface"));
    c.set("distance", Json::integer(w.distance));
    c.set("rounds", Json::integer(cfg.rounds));
    c.set("policy", Json::str(policy_name(w)));
    c.set("p", Json::number(cfg.np.p));
    c.set("leak_ratio", Json::number(cfg.np.leak_ratio));
    c.set("backend", Json::str(gld::backend_name(cfg.backend)));
    c.set("batch_words", Json::integer(cfg.batch_words));
    c.set("noise_sampling",
          Json::str(gld::noise_sampling_name(cfg.noise_sampling)));
    c.set("threads", Json::integer(cfg.threads));
    c.set("rng_streams", Json::integer(cfg.rng_streams));
    c.set("shots", Json::integer(cfg.shots));
    char seed_hex[19];
    std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                  static_cast<unsigned long long>(cfg.seed));
    c.set("seed", Json::str(seed_hex));
    c.set("compute_ler", Json::boolean(cfg.compute_ler));
    c.set("leakage_sampling", Json::boolean(cfg.leakage_sampling));
    c.set("record_dlp_series", Json::boolean(cfg.record_dlp_series));
    return c;
}

Json
check_json(const char* name, bool ok, const std::string& detail)
{
    Json c = Json::object();
    c.set("name", Json::str(name));
    c.set("ok", Json::boolean(ok));
    c.set("detail", Json::str(detail));
    return c;
}

const Json&
reference_for(const Json& ref, const Workload& w)
{
    return ref["workloads"][w.name];
}

/** Agreement with the reference, and rejection of a perturbed copy. */
bool
reference_check(const gld::Metrics& m, const Json& ref, int n_data,
                std::string* detail)
{
    const bool agrees = matches_reference(m, ref, n_data, detail);
    std::string ignored;
    const bool blind =
        matches_reference(perturbed(m, kPerturbFactor), ref, n_data, &ignored);
    if (blind)
        *detail += "a perturbed copy also passed: the check has no power\n";
    return agrees && !blind;
}

/**
 * Peak RSS of this process's own address space (VmHWM).  getrusage's
 * ru_maxrss is not used: Linux carries the parent's high-water mark
 * across exec, so it reports the launching Python's RSS instead.
 */
double
peak_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return static_cast<double>(kb) / 1024.0;
}

int
run_one(const Workload& w, uint64_t seed, double seconds, bool trace,
        const Json& ref, const Json& ignored_env)
{
    const gld::ExperimentConfig cfg = make_config(w, seed);
    std::vector<Metric> metrics;
    std::vector<gld::Metrics> reps;
    std::string replay_mismatch;
    Json rep_seconds = Json::array();  ///< every timed repetition, untraced
    if (!trace) {
        // Warm-up first, so the timed set-ups and runs below all see a
        // process past thread-pool spawn and first-touch page faults.
        const Prepared p = prepare(w, cfg);
        reps.push_back(p.runner->run(p.factory));
        // Timed runs, each followed by timed set-ups, so both statistics
        // sample the whole window rather than one moment of host load.
        std::vector<double> times, setup;
        const double end = now_s() + seconds;
        while (times.size() < 10 || now_s() < end) {
            double t0 = now_s();
            reps.push_back(p.runner->run(p.factory));
            times.push_back(now_s() - t0);
            for (int i = 0; i < kSetupsPerRep; ++i) {
                t0 = now_s();
                const Prepared again = prepare(w, cfg);
                setup.push_back(now_s() - t0);
            }
        }
        metrics.push_back({"shots_per_s",
                           cfg.shots / quantile(times, kRepQuantile),
                           "shots/s"});
        metrics.push_back({"setup_s", median(setup), "s"});
        metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
        for (double t : times)
            rep_seconds.push(Json::number(t));
    } else {
        LedgerResult lr = run_ledger(w, cfg, seconds);
        metrics = std::move(lr.metrics);
        reps = std::move(lr.reps);
        replay_mismatch = std::move(lr.replay_mismatch);
    }

    // Check 1: every repetition's Metrics bit-identical to the first (and,
    // traced, the replayed policy decisions identical to the captured).
    std::string identity_detail = replay_mismatch;
    for (size_t i = 1; i < reps.size(); ++i) {
        for (const std::string& d : gld::metrics_bit_diff(reps[0], reps[i]))
            identity_detail += "rep " + std::to_string(i) + ": " + d + "\n";
    }
    const bool identity_ok = identity_detail.empty();
    // Check 2: LER/FN/FP/DLP agree with the recorded reference.
    std::string ref_detail;
    const bool ref_ok =
        reference_check(reps[0], reference_for(ref, w), n_data(w), &ref_detail);

    Json checks = Json::array();
    checks.push(check_json("metrics_bit_identical", identity_ok,
                           identity_detail));
    checks.push(check_json("reference_agreement", ref_ok, ref_detail));
    const int failed = (identity_ok ? 0 : 1) + (ref_ok ? 0 : 1);

    Json mj = Json::object();
    for (const Metric& m : metrics) {
        Json v = Json::object();
        v.set("value", Json::number(m.value));
        v.set("unit", Json::str(m.unit));
        mj.set(m.name, std::move(v));
    }
    Json doc = Json::object();
    doc.set("workload", Json::str(w.name));
    doc.set("trace", Json::boolean(trace));
    doc.set("correct", Json::boolean(failed == 0));
    doc.set("attempted", Json::integer(2));
    doc.set("failed", Json::integer(failed));
    doc.set("metrics", std::move(mj));
    doc.set("checks", std::move(checks));
    doc.set("config", config_json(w, cfg));
    doc.set("timed_repetitions",
            Json::integer(static_cast<int64_t>(reps.size()) - 1));
    doc.set("rep_seconds", std::move(rep_seconds));
    doc.set("provenance", provenance(ignored_env));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

/** One untimed run of `cfg` through the workload's own setup. */
gld::Metrics
run_config(const Workload& w, const gld::ExperimentConfig& cfg)
{
    const Prepared p = prepare(w, cfg);
    return p.runner->run(p.factory);
}

int
self_check(const Json& ref)
{
    bool all_ok = true;
    for (const Workload& w : workloads()) {
        gld::ExperimentConfig cfg = make_config(w, 1);
        const gld::Metrics nominal = run_config(w, cfg);
        cfg.np = gld::NoiseParams::standard(3 * cfg.np.p, cfg.np.leak_ratio);
        const gld::Metrics noisy = run_config(w, cfg);
        const Json& r = reference_for(ref, w);
        std::string d_nom, d_noisy, d_pert;
        const bool nom = reference_check(nominal, r, n_data(w), &d_nom);
        const bool noisy_ok = reference_check(noisy, r, n_data(w), &d_noisy);
        const bool pert_ok = matches_reference(
            perturbed(nominal, kPerturbFactor), r, n_data(w), &d_pert);
        std::printf("%s\n  nominal (must pass):\n%s  3x noise (must fail):\n%s"
                    "  perturbed x%.1f (must fail):\n%s",
                    w.name, d_nom.c_str(), d_noisy.c_str(), kPerturbFactor,
                    d_pert.c_str());
        const bool ok = nom && !noisy_ok && !pert_ok;
        std::printf("  => %s\n", ok ? "ok" : "SELF-CHECK FAILED");
        all_ok = all_ok && ok;
    }
    return all_ok ? 0 : 1;
}

int
record_reference(const std::string& path)
{
    Json all = Json::object();
    for (const Workload& w : workloads()) {
        gld::ExperimentConfig cfg = make_config(w, kReferenceSeed);
        cfg.shots = w.shots * kReferenceScale;
        const gld::Metrics m = run_config(w, cfg);
        Json e = Json::object();
        e.set("config", config_json(w, cfg));
        e.set("samples", reference_entry(m, n_data(w)));
        all.set(w.name, std::move(e));
        std::fprintf(stderr, "recorded %s (%d shots)\n", w.name, cfg.shots);
    }
    Json doc = Json::object();
    doc.set("note", Json::str("Reference rates for paperbench's correctness "
                              "check; regenerate with --record-reference."));
    doc.set("workloads", std::move(all));
    gld::io::write_file_atomic(path, doc.dump(2) + "\n");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: paperbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE\n"
                 "       paperbench --self-check --reference FILE\n"
                 "       paperbench --record-reference FILE\n");
    return 2;
}

}  // namespace
}  // namespace paperbench

int
main(int argc, char** argv)
{
    using namespace paperbench;
    const Json ignored_env = take_gld_env();
    std::string workload, reference, record;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = -1;
    bool self = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const bool has_value = i + 1 < argc;
            if (a == "--self-check") {
                self = true;
            } else if (!has_value) {
                return usage();
            } else if (a == "--workload") {
                workload = argv[++i];
            } else if (a == "--seed") {
                seed = std::stoull(argv[++i]);
            } else if (a == "--seconds") {
                seconds = std::stod(argv[++i]);
            } else if (a == "--trace") {
                trace = std::stoi(argv[++i]);
            } else if (a == "--reference") {
                reference = argv[++i];
            } else if (a == "--record-reference") {
                record = argv[++i];
            } else {
                return usage();
            }
        }
        if (!record.empty())
            return record_reference(record);
        if (reference.empty())
            return usage();
        const Json ref = Json::parse(gld::io::read_file(reference));
        if (self)
            return self_check(ref);
        const Workload* w = find_workload(workload);
        if (w == nullptr || (trace != 0 && trace != 1) || seconds <= 0)
            return usage();
        return run_one(*w, seed, seconds, trace == 1, ref, ignored_env);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "paperbench: %s\n", e.what());
        return 1;
    }
}
