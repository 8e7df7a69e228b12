#include "campaign/verify.h"

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "campaign/registry.h"
#include "io/serialize.h"
#include "util/rng.h"
#include "util/table.h"

namespace gld {
namespace campaign {

using io::Json;

namespace {

std::string
arm_suffix(SimBackend backend, bool is_reference)
{
    return std::string(is_reference ? ".ref." : ".cand.") +
           backend_name(backend);
}

const char*
metric_trials_desc(const std::string& metric)
{
    if (metric == "ler")
        return "decoded shots";
    return "data-qubit-rounds";
}

}  // namespace

CampaignSpec
verify_arm_spec(const CampaignSpec& grid, SimBackend backend,
                bool is_reference, const VerifyOptions& opt)
{
    CampaignSpec arm = grid;
    arm.name = grid.name + arm_suffix(backend, is_reference);
    arm.backend = backend;
    if (!is_reference) {
        if (opt.independent_seeds) {
            // A fresh master seed per arm, derived from the grid seed and
            // the arm name: disjoint from the reference's streams and
            // stable across processes/resumes.
            arm.seed =
                Rng(grid.seed).split(io::fnv1a64(arm.name)).next_u64();
        }
        if (opt.inject_noise_scale != 1.0) {
            for (NoiseParams& np : arm.noise)
                np.p *= opt.inject_noise_scale;
        }
    }
    return arm;
}

CompareMode
verify_compare_mode(SimBackend candidate, const VerifyOptions& opt,
                    NoiseSampling sampling)
{
    // Bit-exactness is only promised when the candidate replays the
    // reference's exact draw sequence: same RNG contract — under the
    // grid's noise sampling mode, which every arm inherits — same seeds,
    // same noise.  A deliberately perturbed arm (salted seeds, injected
    // noise) is always a statistical comparison.
    if (backend_rng_contract(candidate, sampling) ==
            backend_rng_contract(opt.reference, sampling) &&
        !opt.independent_seeds && opt.inject_noise_scale == 1.0)
        return CompareMode::kBitExact;
    return CompareMode::kStatistical;
}

std::vector<SimBackend>
verify_candidates(const VerifyOptions& opt)
{
    std::vector<SimBackend> cands = opt.candidates;
    if (cands.empty()) {
        for (SimBackend b : known_backends()) {
            if (b != opt.reference)
                cands.push_back(b);
        }
    }
    if (cands.empty())
        throw std::runtime_error("verify: no candidate backends");
    for (size_t i = 0; i < cands.size(); ++i) {
        for (size_t j = i + 1; j < cands.size(); ++j) {
            if (cands[i] == cands[j])
                throw std::runtime_error(
                    std::string("verify: candidate \"") +
                    backend_name(cands[i]) + "\" listed twice");
        }
        if (cands[i] == opt.reference && !opt.independent_seeds)
            throw std::runtime_error(
                std::string("verify: candidate \"") +
                backend_name(cands[i]) +
                "\" equals the reference backend; comparing a backend "
                "against itself needs --independent-seeds (the "
                "null-calibration mode)");
    }
    return cands;
}

void
verify_run_shard(const CampaignSpec& grid, const VerifyOptions& opt,
                 int shard, int n_shards, const std::string& out_dir)
{
    const std::vector<SimBackend> cands = verify_candidates(opt);
    RunShardOptions ropt;
    ropt.threads = opt.threads;
    ropt.verbose = opt.verbose;
    ropt.jobs_parallel = opt.jobs_parallel;
    ropt.telemetry = false;
    run_shard(verify_arm_spec(grid, opt.reference, true, opt), shard,
              n_shards, out_dir, ropt);
    for (SimBackend cand : cands) {
        run_shard(verify_arm_spec(grid, cand, false, opt), shard, n_shards,
                  out_dir, ropt);
    }
}

std::string
verify_report_path(const std::string& out_dir, const CampaignSpec& grid)
{
    return out_dir + "/" + grid.name + ".verify.json";
}

VerifyReport
run_verify(const CampaignSpec& grid, const VerifyOptions& opt,
           int n_shards, const std::string& out_dir)
{
    grid.validate();
    const std::vector<SimBackend> cands = verify_candidates(opt);
    if (!(opt.alpha > 0.0 && opt.alpha < 1.0))
        throw std::runtime_error("verify: alpha must be in (0, 1)");
    if (!(opt.inject_noise_scale > 0.0))
        throw std::runtime_error(
            "verify: --inject-noise-scale must be > 0");

    // Run (or resume) every shard of every arm, then merge each arm.
    // Shards computed elsewhere by `verify --shard i/N` are validated and
    // resumed, never recomputed, so a distributed verify merges
    // bit-identically to this single-process path.
    for (int shard = 0; shard < n_shards; ++shard)
        verify_run_shard(grid, opt, shard, n_shards, out_dir);
    const std::vector<Metrics> ref_metrics = merge_campaign(
        verify_arm_spec(grid, opt.reference, true, opt), n_shards, out_dir);
    std::vector<std::vector<Metrics>> cand_metrics;
    for (SimBackend cand : cands) {
        cand_metrics.push_back(merge_campaign(
            verify_arm_spec(grid, cand, false, opt), n_shards, out_dir));
    }

    // Per-code qubit counts for the per-qubit rate trials.
    const std::vector<JobSpec> jobs = grid.expand();
    std::map<std::string, int> n_data;
    for (const JobSpec& job : jobs) {
        if (n_data.find(job.code) == n_data.end())
            n_data[job.code] = make_code(job.code)->code.n_data();
    }

    // The statistical test family is fixed BEFORE looking at any data:
    // per statistically-refereed (point, candidate), one test each for
    // FN, FP and DLP, plus the LER when the grid decodes.  The family-
    // wise correction is computed over that m.
    const int tests_per_point = 3 + (grid.compute_ler ? 1 : 0);
    int n_stat_arms = 0;
    for (SimBackend cand : cands) {
        if (verify_compare_mode(cand, opt, grid.noise_sampling) ==
            CompareMode::kStatistical)
            ++n_stat_arms;
    }
    const int m =
        n_stat_arms * static_cast<int>(jobs.size()) * tests_per_point;

    VerifyReport report;
    report.reference = opt.reference;
    report.alpha = opt.alpha;
    report.n_stat_tests = m;
    report.per_test_alpha =
        m > 0 ? (opt.sidak ? stats::sidak_alpha(opt.alpha, m)
                           : stats::bonferroni_alpha(opt.alpha, m))
              : opt.alpha;
    const double z_crit =
        stats::z_for_two_sided_alpha(report.per_test_alpha);

    for (size_t ci = 0; ci < cands.size(); ++ci) {
        const SimBackend cand = cands[ci];
        const CompareMode mode =
            verify_compare_mode(cand, opt, grid.noise_sampling);
        for (size_t j = 0; j < jobs.size(); ++j) {
            PointVerdict pv;
            pv.job_index = jobs[j].index;
            pv.code = jobs[j].code;
            pv.policy = jobs[j].policy;
            pv.candidate = cand;
            pv.mode = mode;
            const Metrics& ref = ref_metrics[j];
            const Metrics& can = cand_metrics[ci][j];
            if (mode == CompareMode::kBitExact) {
                pv.bit_mismatches = metrics_bit_diff(ref, can);
                pv.pass = pv.bit_mismatches.empty();
            } else {
                const int nd = n_data.at(jobs[j].code);
                const auto add_check = [&](const std::string& metric,
                                           stats::RateSample a,
                                           stats::RateSample b) {
                    RateCheck rc;
                    rc.metric = metric;
                    rc.ref = a;
                    rc.cand = b;
                    rc.test = stats::two_proportion_z(a, b);
                    rc.ref_ci = stats::wilson_interval(a, z_crit);
                    rc.cand_ci = stats::wilson_interval(b, z_crit);
                    rc.pass = rc.test.degenerate || rc.test.identical ||
                              rc.test.p_value >= report.per_test_alpha;
                    pv.pass = pv.pass && rc.pass;
                    pv.checks.push_back(std::move(rc));
                };
                if (grid.compute_ler)
                    add_check("ler", ref.ler_sample(), can.ler_sample());
                add_check("fn", ref.fn_sample(nd), can.fn_sample(nd));
                add_check("fp", ref.fp_sample(nd), can.fp_sample(nd));
                add_check("dlp", ref.dlp_sample(nd), can.dlp_sample(nd));
            }
            report.pass = report.pass && pv.pass;
            report.points.push_back(std::move(pv));
        }
    }

    io::make_dirs(out_dir);
    io::write_file_atomic(verify_report_path(out_dir, grid),
                          report.to_json().dump(2) + "\n");
    return report;
}

Json
VerifyReport::to_json() const
{
    Json j = Json::object();
    j.set("gld_version", Json::integer(io::kSerializeVersion));
    j.set("kind", Json::str("verify_report"));
    j.set("reference", Json::str(backend_name(reference)));
    j.set("alpha", Json::number(alpha));
    j.set("per_test_alpha", Json::number(per_test_alpha));
    j.set("n_stat_tests", Json::integer(n_stat_tests));
    j.set("pass", Json::boolean(pass));
    Json jp = Json::array();
    for (const PointVerdict& pv : points) {
        Json p = Json::object();
        p.set("job", Json::integer(pv.job_index));
        p.set("code", Json::str(pv.code));
        p.set("policy", Json::str(pv.policy));
        p.set("candidate", Json::str(backend_name(pv.candidate)));
        p.set("mode", Json::str(pv.mode == CompareMode::kBitExact
                                    ? "bit_exact"
                                    : "statistical"));
        p.set("pass", Json::boolean(pv.pass));
        if (pv.mode == CompareMode::kBitExact) {
            Json mm = Json::array();
            for (const std::string& s : pv.bit_mismatches)
                mm.push(Json::str(s));
            p.set("bit_mismatches", std::move(mm));
        } else {
            Json checks = Json::array();
            for (const RateCheck& rc : pv.checks) {
                Json c = Json::object();
                c.set("metric", Json::str(rc.metric));
                c.set("trials_unit",
                      Json::str(metric_trials_desc(rc.metric)));
                c.set("ref_events", Json::number(rc.ref.events));
                c.set("ref_trials", Json::number(rc.ref.trials));
                c.set("cand_events", Json::number(rc.cand.events));
                c.set("cand_trials", Json::number(rc.cand.trials));
                c.set("ref_rate", Json::number(rc.test.rate1));
                c.set("cand_rate", Json::number(rc.test.rate2));
                c.set("z", Json::number(rc.test.z));
                c.set("p_value", Json::number(rc.test.p_value));
                c.set("degenerate", Json::boolean(rc.test.degenerate));
                c.set("identical", Json::boolean(rc.test.identical));
                Json rci = Json::array();
                rci.push(Json::number(rc.ref_ci.lo));
                rci.push(Json::number(rc.ref_ci.hi));
                c.set("ref_wilson_ci", std::move(rci));
                Json cci = Json::array();
                cci.push(Json::number(rc.cand_ci.lo));
                cci.push(Json::number(rc.cand_ci.hi));
                c.set("cand_wilson_ci", std::move(cci));
                c.set("pass", Json::boolean(rc.pass));
                checks.push(std::move(c));
            }
            p.set("checks", std::move(checks));
        }
        jp.push(std::move(p));
    }
    j.set("points", std::move(jp));
    return j;
}

void
print_verify_report(const VerifyReport& report)
{
    std::printf("reference backend: %s | family alpha %.4g over %d "
                "statistical test(s) -> per-test alpha %.4g\n\n",
                backend_name(report.reference), report.alpha,
                report.n_stat_tests, report.per_test_alpha);
    TablePrinter t({"Job", "Code", "Policy", "Candidate", "Mode", "Detail",
                    "Verdict"});
    for (const PointVerdict& pv : report.points) {
        std::string detail;
        if (pv.mode == CompareMode::kBitExact) {
            detail = pv.bit_mismatches.empty()
                         ? "all fields identical"
                         : std::to_string(pv.bit_mismatches.size()) +
                               " field(s) differ";
        } else {
            double min_p = 1.0;
            std::string worst = "-";
            for (const RateCheck& rc : pv.checks) {
                if (rc.test.p_value <= min_p) {
                    min_p = rc.test.p_value;
                    worst = rc.metric;
                }
            }
            detail = "min p " + TablePrinter::sci(min_p, 2) + " (" +
                     worst + ")";
        }
        t.add_row({std::to_string(pv.job_index), pv.code, pv.policy,
                   backend_name(pv.candidate),
                   pv.mode == CompareMode::kBitExact ? "bit-exact"
                                                     : "statistical",
                   detail, pv.pass ? "PASS" : "FAIL"});
    }
    t.print();

    // Expand every failure so the table is actionable without opening
    // the JSON report.
    for (const PointVerdict& pv : report.points) {
        if (pv.pass)
            continue;
        std::printf("\njob %04d [%s / %s] vs %s:\n", pv.job_index,
                    pv.code.c_str(), pv.policy.c_str(),
                    backend_name(pv.candidate));
        for (const std::string& s : pv.bit_mismatches)
            std::printf("  mismatch: %s\n", s.c_str());
        for (const RateCheck& rc : pv.checks) {
            if (rc.pass)
                continue;
            std::printf("  %s: ref %.6g vs cand %.6g per %s "
                        "(z %+.2f, p %.3g < alpha %.3g)\n",
                        rc.metric.c_str(), rc.test.rate1, rc.test.rate2,
                        metric_trials_desc(rc.metric), rc.test.z,
                        rc.test.p_value, report.per_test_alpha);
        }
    }
}

}  // namespace campaign
}  // namespace gld
