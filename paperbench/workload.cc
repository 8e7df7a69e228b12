#include "workload.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "stats/stats.h"

namespace paperbench {

namespace {

/**
 * Family-wise false-alarm budget of one run's reference check.  A full
 * acceptance pass makes hundreds of runs, so the per-run budget is tiny;
 * the effects the check exists to catch (a 3x noise run, a perturbed
 * Metrics) sit tens of standard errors out at these shot counts.
 */
constexpr double kFamilyAlpha = 1e-6;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The rate samples the reference check compares, by name. */
struct NamedSample {
    const char* name;
    gld::stats::RateSample sample;
};

std::vector<NamedSample>
samples_of(const gld::Metrics& m, int n_data)
{
    // DLP is built here rather than by Metrics::dlp_sample: dlp_total
    // already sums per-round leaked FRACTIONS, and dlp_sample divides by
    // n_data once more, which shrinks its rate and power n_data-fold.
    // One trial per (shot, data qubit) trajectory, valued by the share
    // of rounds that qubit spent leaked.
    const double trajectories =
        static_cast<double>(m.shots) * static_cast<double>(n_data);
    const double leaked_rounds = m.dlp_total * static_cast<double>(n_data);
    const gld::stats::RateSample dlp{
        m.rounds_per_shot > 0
            ? leaked_rounds / static_cast<double>(m.rounds_per_shot)
            : 0.0,
        m.rounds_per_shot > 0 ? trajectories : 0.0};
    return {{"ler", m.ler_sample()},
            {"fn", m.fn_sample(n_data)},
            {"fp", m.fp_sample(n_data)},
            {"dlp", dlp}};
}

}  // namespace

const std::vector<Workload>&
workloads()
{
    // name, d, rounds, eraser, ler, leakage_sampling, dlp_series,
    // threads, shots per timed repetition (about 0.5-0.7 s each).  The
    // threaded workload uses two threads, not every CPU: on a small
    // shared host, one thread per CPU times the scheduler's luck.
    static const std::vector<Workload> table = {
        {"paper_d7_gl_ler_1t", 7, 70, false, true, false, false, 1, 12288},
        {"paper_d11_er_ler_2t", 11, 110, true, true, false, false, 2, 6144},
        {"fig1b_d11_gl_dlp_1t", 11, 200, false, false, true, true, 1, 4096},
    };
    return table;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

int
usable_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

gld::ExperimentConfig
make_config(const Workload& w, uint64_t seed)
{
    gld::ExperimentConfig cfg;
    cfg.np = gld::NoiseParams::standard(1e-3, 0.1);
    cfg.rounds = w.rounds;
    cfg.shots = w.shots;
    // Distinct, seed-determined experiment seed per workload.
    cfg.seed = splitmix64(seed ^ splitmix64(static_cast<uint64_t>(
                                      w.distance * 1000 + w.rounds)));
    cfg.leakage_sampling = w.leakage_sampling;
    cfg.compute_ler = w.compute_ler;
    cfg.record_dlp_series = w.record_dlp_series;
    cfg.threads = w.threads;
    cfg.backend = gld::SimBackend::kBatchFrame;
    // batch_words, noise_sampling and rng_streams keep the library
    // defaults on purpose: a change to a default shows up here.
    return cfg;
}

const char*
policy_name(const Workload& w)
{
    return w.eraser ? "ERASER+M" : "GLADIATOR+M";
}

gld::PolicyFactory
make_factory(const Workload& w, const gld::NoiseParams& np)
{
    return w.eraser ? gld::PolicyZoo::eraser(true)
                    : gld::PolicyZoo::gladiator(true, np);
}

Prepared
prepare(const Workload& w, const gld::ExperimentConfig& cfg)
{
    Prepared p;
    p.bundle =
        std::make_unique<CodeBundle>(gld::SurfaceCode::make(w.distance));
    p.factory = make_factory(w, cfg.np);
    // One throwaway build: GLADIATOR's factory builds and caches its
    // pattern tables on the first call, which would otherwise land in
    // the first timed run.
    p.factory(p.bundle->ctx, 0);
    p.runner = std::make_unique<gld::ExperimentRunner>(p.bundle->ctx, cfg);
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        throw std::invalid_argument("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool
matches_reference(const gld::Metrics& m, const gld::io::Json& ref,
                  int n_data, std::string* detail)
{
    const gld::io::Json& want = ref["samples"];
    std::vector<std::pair<const char*, gld::stats::TwoProportionResult>>
        tests;
    for (const NamedSample& s : samples_of(m, n_data)) {
        if (!want.has(s.name) || s.sample.trials <= 0)
            continue;
        const gld::stats::RateSample r{want[s.name]["events"].as_double(),
                                       want[s.name]["trials"].as_double()};
        if (r.trials <= 0)
            continue;
        tests.emplace_back(s.name, gld::stats::two_proportion_z(s.sample, r));
    }
    const double alpha =
        gld::stats::sidak_alpha(kFamilyAlpha, static_cast<int>(tests.size()));
    bool ok = true;
    for (const auto& [name, t] : tests) {
        const bool pass = t.p_value >= alpha;
        ok = ok && pass;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s: %.6g vs ref %.6g, z=%.2f p=%.3g (alpha %.2g) %s\n",
                      name, t.rate1, t.rate2, t.z, t.p_value, alpha,
                      pass ? "ok" : "REJECT");
        *detail += line;
    }
    return ok;
}

gld::Metrics
perturbed(const gld::Metrics& m, double factor)
{
    gld::Metrics p = m;
    p.fn_total *= factor;
    p.fp_total *= factor;
    p.dlp_total *= factor;
    p.logical_errors = std::min(
        p.decoded_shots,
        static_cast<long>(static_cast<double>(p.logical_errors) * factor));
    return p;
}

gld::io::Json
reference_entry(const gld::Metrics& m, int n_data)
{
    gld::io::Json samples = gld::io::Json::object();
    for (const NamedSample& s : samples_of(m, n_data)) {
        if (s.sample.trials <= 0)
            continue;
        gld::io::Json e = gld::io::Json::object();
        e.set("events", gld::io::Json::number(s.sample.events));
        e.set("trials", gld::io::Json::number(s.sample.trials));
        samples.set(s.name, std::move(e));
    }
    return samples;
}

}  // namespace paperbench
