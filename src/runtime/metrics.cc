#include <cstddef>
#include "runtime/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace gld {

void
Metrics::merge(const Metrics& o)
{
    assert(rounds_per_shot == 0 || o.rounds_per_shot == 0 ||
           rounds_per_shot == o.rounds_per_shot);
    if (rounds_per_shot == 0)
        rounds_per_shot = o.rounds_per_shot;
    shots += o.shots;
    fn_total += o.fn_total;
    fp_total += o.fp_total;
    tp_total += o.tp_total;
    lrc_data_total += o.lrc_data_total;
    lrc_check_total += o.lrc_check_total;
    if (dlp_series.size() < o.dlp_series.size())
        dlp_series.resize(o.dlp_series.size(), 0.0);
    for (size_t i = 0; i < o.dlp_series.size(); ++i)
        dlp_series[i] += o.dlp_series[i];
    dlp_total += o.dlp_total;
    check_leak_total += o.check_leak_total;
    logical_errors += o.logical_errors;
    decoded_shots += o.decoded_shots;
}

double
Metrics::dlp_equilibrium(double tail_frac) const
{
    if (dlp_series.empty() || shots == 0)
        return 0.0;
    const size_t n = dlp_series.size();
    const size_t start =
        n - std::max<size_t>(
                1, static_cast<size_t>(tail_frac * static_cast<double>(n)));
    double sum = 0;
    for (size_t i = start; i < n; ++i)
        sum += dlp_series[i];
    return sum / (static_cast<double>(n - start) *
                  static_cast<double>(shots));
}

std::vector<double>
Metrics::dlp_curve() const
{
    std::vector<double> out(dlp_series.size());
    for (size_t i = 0; i < dlp_series.size(); ++i)
        out[i] = shots > 0 ? dlp_series[i] / static_cast<double>(shots)
                           : 0.0;
    return out;
}

// --- Pairwise-comparison views. ---

stats::RateSample
Metrics::ler_sample() const
{
    return {static_cast<double>(logical_errors),
            static_cast<double>(decoded_shots)};
}

namespace {

/** Cluster-robust sample: `total` events over (shot x qubit) x rounds
 *  cells, folded to one [0, 1]-valued trial per (shot, qubit)
 *  trajectory (see the header's calibration note). */
stats::RateSample
trajectory_sample(double total, long shots, long rounds, int n_qubits)
{
    if (rounds <= 0)
        return {0.0, 0.0};
    return {total / static_cast<double>(rounds),
            static_cast<double>(shots) * static_cast<double>(n_qubits)};
}

}  // namespace

stats::RateSample
Metrics::fn_sample(int n_data) const
{
    return trajectory_sample(fn_total, shots, rounds_per_shot, n_data);
}

stats::RateSample
Metrics::fp_sample(int n_data) const
{
    return trajectory_sample(fp_total, shots, rounds_per_shot, n_data);
}

stats::RateSample
Metrics::dlp_sample(int n_data) const
{
    // dlp_total sums per-round leaked FRACTIONS of the data qubits;
    // scaled by n_data it counts leaked data qubit-rounds like fn/fp.
    return trajectory_sample(dlp_total * static_cast<double>(n_data), shots,
                             rounds_per_shot, n_data);
}

namespace {

bool
bits_equal(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

void
diff_double(std::vector<std::string>* out, const char* name, double a,
            double b)
{
    if (bits_equal(a, b))
        return;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s (%.17g vs %.17g)", name, a, b);
    out->push_back(buf);
}

void
diff_long(std::vector<std::string>* out, const char* name, long a, long b)
{
    if (a == b)
        return;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s (%ld vs %ld)", name, a, b);
    out->push_back(buf);
}

}  // namespace

std::vector<std::string>
metrics_bit_diff(const Metrics& a, const Metrics& b)
{
    std::vector<std::string> out;
    diff_long(&out, "shots", a.shots, b.shots);
    diff_long(&out, "rounds_per_shot", a.rounds_per_shot,
              b.rounds_per_shot);
    diff_double(&out, "fn_total", a.fn_total, b.fn_total);
    diff_double(&out, "fp_total", a.fp_total, b.fp_total);
    diff_double(&out, "tp_total", a.tp_total, b.tp_total);
    diff_double(&out, "lrc_data_total", a.lrc_data_total,
                b.lrc_data_total);
    diff_double(&out, "lrc_check_total", a.lrc_check_total,
                b.lrc_check_total);
    diff_double(&out, "dlp_total", a.dlp_total, b.dlp_total);
    diff_double(&out, "check_leak_total", a.check_leak_total,
                b.check_leak_total);
    diff_long(&out, "logical_errors", a.logical_errors, b.logical_errors);
    diff_long(&out, "decoded_shots", a.decoded_shots, b.decoded_shots);
    if (a.dlp_series.size() != b.dlp_series.size()) {
        diff_long(&out, "dlp_series.size",
                  static_cast<long>(a.dlp_series.size()),
                  static_cast<long>(b.dlp_series.size()));
    } else {
        for (size_t i = 0; i < a.dlp_series.size(); ++i) {
            char name[48];
            std::snprintf(name, sizeof(name), "dlp_series[%zu]", i);
            diff_double(&out, name, a.dlp_series[i], b.dlp_series[i]);
        }
    }
    return out;
}

}  // namespace gld
