#ifndef GLD_RUNTIME_METRICS_H_
#define GLD_RUNTIME_METRICS_H_

#include <string>
#include <vector>

#include "stats/stats.h"

namespace gld {

/**
 * Aggregated results of a memory experiment under one policy — the paper's
 * evaluation metrics (§7): speculation accuracy (FN/FP/TP), LRC usage,
 * data-leakage population (DLP), and logical error rate (LER).
 *
 * Totals accumulate over shots; the accessors normalize.
 */
struct Metrics {
    long shots = 0;
    long rounds_per_shot = 0;

    // Speculation accounting (per LRC-decision, data qubits only).
    double fn_total = 0;  ///< leaked data qubits left unscheduled
    double fp_total = 0;  ///< LRCs applied to non-leaked data qubits
    double tp_total = 0;  ///< LRCs applied to leaked data qubits

    // LRC usage.
    double lrc_data_total = 0;
    double lrc_check_total = 0;

    // Leakage populations, as sums of per-(shot, round) fractions.  The
    // runner counts leaked qubits as integers per work unit (one
    // (stream, shot block)) and divides each count once by the qubit
    // count; merge() then sums those quotients.
    std::vector<double> dlp_series;  ///< [r]: leaked data at round r / n_data
    double dlp_total = 0;  ///< leaked data (shot, round) pairs / n_data
    double check_leak_total = 0;  ///< leaked checks likewise / n_checks

    // Decoding.
    long logical_errors = 0;
    long decoded_shots = 0;

    /** Merges another accumulator (thread reduction). */
    void merge(const Metrics& o);

    // --- Normalized views. ---
    double denom() const
    {
        return static_cast<double>(shots) * static_cast<double>(rounds_per_shot);
    }
    /** Average counts per shot (the unit of the paper's Fig 9 bars). */
    double fn_per_shot() const
    {
        return fn_total / static_cast<double>(shots);
    }
    double fp_per_shot() const
    {
        return fp_total / static_cast<double>(shots);
    }
    double lrc_per_shot() const
    {
        return (lrc_data_total + lrc_check_total) /
               static_cast<double>(shots);
    }
    /** Rates per data-qubit-round style normalizations. */
    double fn_per_round() const { return fn_total / denom(); }
    double fp_per_round() const { return fp_total / denom(); }
    double lrc_data_per_round() const { return lrc_data_total / denom(); }
    double lrc_all_per_round() const
    {
        return (lrc_data_total + lrc_check_total) / denom();
    }
    /** Mean data-leakage population (fraction of data qubits). */
    double dlp_mean() const { return dlp_total / denom(); }
    /** DLP averaged over the last `tail_frac` of rounds (equilibrium). */
    double dlp_equilibrium(double tail_frac = 0.2) const;
    /** DLP time series normalized per shot. */
    std::vector<double> dlp_curve() const;
    /** Speculation inaccuracy: (FN + FP) per round (Table 4). */
    double spec_inaccuracy() const
    {
        return (fn_total + fp_total) / denom();
    }
    double ler() const
    {
        return decoded_shots > 0
                   ? static_cast<double>(logical_errors) /
                         static_cast<double>(decoded_shots)
                   : 0.0;
    }

    // --- Pairwise-comparison views (the referee's inputs). ---
    //
    // Each metric the cross-backend referee tests is exposed as a
    // stats::RateSample — events out of well-defined trials — so
    // gld_campaign verify, the test suites and any bench gate all feed
    // the SAME samples into the same stats:: tests.
    //
    // The trial unit matters for calibration.  LER is a true binomial
    // (decoded shots are independent).  FN/FP/DLP events, however,
    // cluster heavily across the ROUNDS of one shot (a persistently
    // leaked qubit is false-negatived, or LRC'd, round after round), so
    // a per-qubit-ROUND binomial understates their variance and inflates
    // z-scores under the null (measured: z std ~1.6 for FP).  These
    // samples therefore treat each (shot, data qubit) TRAJECTORY as one
    // trial whose value is the fraction of rounds the event held:
    // events = total / rounds_per_shot, trials = shots x n_data.  The
    // observed rate is unchanged, and because a [0, 1]-valued variable
    // with mean p has variance at most p(1-p), the pooled z-test over
    // these trials is conservative under ARBITRARY round-to-round
    // clustering — the safe direction for a correctness gate.
    // Per-qubit metrics need the code's qubit counts (a Metrics does
    // not know its code).

    /** Logical errors out of decoded shots (a true binomial). */
    stats::RateSample ler_sample() const;
    /** Per-round FN fraction over shot x data-qubit trajectories. */
    stats::RateSample fn_sample(int n_data) const;
    /** Per-round FP fraction over shot x data-qubit trajectories. */
    stats::RateSample fp_sample(int n_data) const;
    /**
     * Per-round DLP fraction over shot x data-qubit trajectories; its
     * rate() is dlp_mean().
     */
    stats::RateSample dlp_sample(int n_data) const;
};

/**
 * Bit-exact pairwise comparison: returns one human-readable line per
 * field whose value differs between `a` and `b` ("fn_total (3 vs 4)"),
 * comparing doubles by IEEE-754 bit pattern — 0.1 + 0.2 style drift
 * counts as a difference.  Empty result == bit-identical Metrics.  This
 * is the ONE definition of Metrics equality: the verify referee's
 * bit-exact mode and the test suites' expect_metrics_identical both
 * call it.
 */
std::vector<std::string> metrics_bit_diff(const Metrics& a,
                                          const Metrics& b);

}  // namespace gld

#endif  // GLD_RUNTIME_METRICS_H_
