#ifndef GLD_CAMPAIGN_VERIFY_H_
#define GLD_CAMPAIGN_VERIFY_H_

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "io/json.h"
#include "runtime/metrics.h"
#include "sim/simulator.h"
#include "stats/stats.h"

namespace gld {
namespace campaign {

/**
 * The cross-backend referee (ROADMAP "cross-backend referee campaigns"):
 * `gld_campaign verify` expands one grid, runs it once per backend arm
 * (a reference plus one or more candidates) through the UNCHANGED
 * campaign machinery — shard_streams sharding, checkpoint/resume,
 * merge-exact aggregation — and then referees every (grid point,
 * candidate) pair:
 *
 *  - Backends sharing the reference's RNG contract
 *    (backend_rng_contract) must produce BIT-identical Metrics,
 *    dlp_series included; any differing field is a confirmed mismatch.
 *  - Backends drawing different randomness are refereed statistically:
 *    pooled two-proportion z-tests on the LER plus the FN / FP / DLP
 *    rates, with Wilson score intervals for reporting and a Šidák (or
 *    Bonferroni) family-wise correction across every statistical test
 *    of the run, so the whole grid keeps one false-positive budget.
 *
 * The verdict is written as a machine-readable JSON report beside the
 * human table, and a confirmed mismatch makes the CLI exit nonzero —
 * the correctness gate any new backend, code, policy or perf PR runs
 * against.
 */

/** How one (reference, candidate) pair is refereed. */
enum class CompareMode {
    kBitExact,     ///< same RNG contract: Metrics must match bitwise
    kStatistical,  ///< independent randomness: z-tests at alpha
};

struct VerifyOptions {
    SimBackend reference = SimBackend::kFrame;
    /** Empty = every known backend except the reference. */
    std::vector<SimBackend> candidates;
    /** Family-wise false-positive budget across ALL statistical tests. */
    double alpha = 0.01;
    /** Šidák correction (default); false = Bonferroni (safe under any
     *  dependence between tests). */
    bool sidak = true;
    /**
     * Re-derive every candidate arm's job seeds (salted by arm name) so
     * even a same-contract candidate draws independent randomness and is
     * refereed STATISTICALLY — the null-calibration mode ("same backend,
     * disjoint seeds must pass at alpha"), and the only way a candidate
     * equal to the reference backend is allowed.
     */
    bool independent_seeds = false;
    /**
     * Multiplies every candidate arm's physical error rate p — a
     * deliberate fault injection for calibrating the referee's power
     * ("an injected rate delta must be flagged").  1.0 = off.
     */
    double inject_noise_scale = 1.0;
    int threads = 0;        ///< worker threads per job (0 = auto)
    int jobs_parallel = 1;  ///< concurrent jobs per shard
    bool verbose = false;
};

/** One statistical test inside a grid-point verdict. */
struct RateCheck {
    std::string metric;  ///< "ler", "fn", "fp" or "dlp"
    stats::RateSample ref;
    stats::RateSample cand;
    stats::TwoProportionResult test;
    stats::Interval ref_ci;   ///< Wilson at the corrected per-test alpha
    stats::Interval cand_ci;
    bool pass = true;
};

/** Verdict for one (grid point, candidate backend) pair. */
struct PointVerdict {
    int job_index = 0;
    std::string code;
    std::string policy;
    SimBackend candidate = SimBackend::kFrame;
    CompareMode mode = CompareMode::kBitExact;
    /** kBitExact: differing Metrics fields (metrics_bit_diff lines). */
    std::vector<std::string> bit_mismatches;
    /** kStatistical: the individual rate tests. */
    std::vector<RateCheck> checks;
    bool pass = true;
};

struct VerifyReport {
    SimBackend reference = SimBackend::kFrame;
    double alpha = 0.01;          ///< family-wise budget
    double per_test_alpha = 0.01; ///< after Šidák/Bonferroni over m
    int n_stat_tests = 0;         ///< m: statistical tests in the family
    std::vector<PointVerdict> points;
    bool pass = true;

    /** Machine-readable verdict document (format: see verify.cc). */
    io::Json to_json() const;
};

/**
 * The spec one arm actually runs: the grid with its name suffixed
 * ".ref.<backend>" / ".cand.<backend>" (so every arm's result files
 * coexist in one out_dir), the backend rewritten, and — for candidate
 * arms — the seed salted when opt.independent_seeds and the noise
 * scaled when opt.inject_noise_scale != 1.  Deterministic: every
 * process derives the identical arm spec from (grid, opt).
 */
CampaignSpec verify_arm_spec(const CampaignSpec& grid, SimBackend backend,
                             bool is_reference, const VerifyOptions& opt);

/**
 * How `candidate` will be refereed against opt.reference: bit-exact iff
 * they share an RNG contract — under the grid's noise sampling mode,
 * which moves the batch backends to their own contracts at sparse while
 * the scalar backends keep ignoring the knob (so sparse batch_frame vs
 * frame is a STATISTICAL comparison against a genuine lockstep
 * reference) — AND the candidate arm's config is not deliberately
 * perturbed (independent seeds / injected noise).
 */
CompareMode verify_compare_mode(
    SimBackend candidate, const VerifyOptions& opt,
    NoiseSampling sampling = NoiseSampling::kLockstep);

/** Candidate list with the default ("all other known backends")
 *  resolved; throws if a candidate equals the reference without
 *  independent seeds, or appears twice. */
std::vector<SimBackend> verify_candidates(const VerifyOptions& opt);

/**
 * Runs shard `shard` of `n_shards` of EVERY arm (reference first, then
 * candidates in order) into out_dir — the distributed half of verify.
 * Jobs already checkpointed resume for free; the referee itself runs in
 * run_verify once all shards exist.
 */
void verify_run_shard(const CampaignSpec& grid, const VerifyOptions& opt,
                      int shard, int n_shards, const std::string& out_dir);

/**
 * The full referee: runs any not-yet-checkpointed shard of every arm
 * (so a fleet of verify_run_shard calls elsewhere is resumed, not
 * recomputed), merges every arm (bit-identical to a single-process run
 * by the campaign merge contract), and referees every (grid point,
 * candidate) pair as described above.  Throws on infrastructure errors;
 * a clean run with confirmed mismatches returns report.pass == false.
 */
VerifyReport run_verify(const CampaignSpec& grid, const VerifyOptions& opt,
                        int n_shards, const std::string& out_dir);

/** `<out_dir>/<name>.verify.json` */
std::string verify_report_path(const std::string& out_dir,
                               const CampaignSpec& grid);

/** Prints the human verdict table (one row per point x candidate). */
void print_verify_report(const VerifyReport& report);

}  // namespace campaign
}  // namespace gld

#endif  // GLD_CAMPAIGN_VERIFY_H_
