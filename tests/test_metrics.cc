#include "runtime/metrics.h"

#include <gtest/gtest.h>

namespace gld {
namespace {

TEST(Metrics, MergeAccumulates)
{
    Metrics a, b;
    a.shots = 2;
    a.rounds_per_shot = 10;
    a.fn_total = 3;
    a.fp_total = 1;
    a.lrc_data_total = 4;
    a.dlp_total = 0.5;
    a.dlp_series = {0.1, 0.2};
    a.logical_errors = 1;
    a.decoded_shots = 2;
    b.shots = 3;
    b.rounds_per_shot = 10;
    b.fn_total = 2;
    b.dlp_series = {0.3, 0.1};
    a.merge(b);
    EXPECT_EQ(a.shots, 5);
    EXPECT_DOUBLE_EQ(a.fn_total, 5.0);
    EXPECT_DOUBLE_EQ(a.dlp_series[0], 0.4);
    EXPECT_DOUBLE_EQ(a.ler(), 0.5);
}

TEST(Metrics, NormalizedAccessors)
{
    Metrics m;
    m.shots = 4;
    m.rounds_per_shot = 5;
    m.fn_total = 20;
    m.fp_total = 10;
    m.lrc_data_total = 40;
    m.lrc_check_total = 20;
    m.dlp_total = 2.0;
    EXPECT_DOUBLE_EQ(m.fn_per_shot(), 5.0);
    EXPECT_DOUBLE_EQ(m.fn_per_round(), 1.0);
    EXPECT_DOUBLE_EQ(m.fp_per_round(), 0.5);
    EXPECT_DOUBLE_EQ(m.lrc_data_per_round(), 2.0);
    EXPECT_DOUBLE_EQ(m.lrc_all_per_round(), 3.0);
    EXPECT_DOUBLE_EQ(m.dlp_mean(), 0.1);
    EXPECT_DOUBLE_EQ(m.spec_inaccuracy(), 1.5);
}

TEST(Metrics, DlpSampleRateIsDlpMean)
{
    // dlp_total already sums per-round leaked fractions: the referee's
    // DLP rate must be the mean leaked fraction itself, over
    // shots x n_data trajectories.
    Metrics m;
    m.shots = 4;
    m.rounds_per_shot = 5;
    m.dlp_total = 2.0;
    const int n_data = 9;
    const stats::RateSample s = m.dlp_sample(n_data);
    EXPECT_DOUBLE_EQ(s.rate(), m.dlp_mean());
    EXPECT_DOUBLE_EQ(s.trials, 4.0 * n_data);
    EXPECT_DOUBLE_EQ(s.events, 2.0 * n_data / 5.0);
}

TEST(Metrics, EquilibriumUsesTail)
{
    Metrics m;
    m.shots = 1;
    m.rounds_per_shot = 10;
    m.dlp_series = {9, 9, 9, 9, 9, 9, 9, 9, 1, 3};
    // Last 20% of 10 rounds = rounds 8, 9 -> mean 2.
    EXPECT_DOUBLE_EQ(m.dlp_equilibrium(0.2), 2.0);
    EXPECT_DOUBLE_EQ(m.dlp_equilibrium(0.1), 3.0);
}

TEST(Metrics, EmptySafe)
{
    Metrics m;
    EXPECT_DOUBLE_EQ(m.ler(), 0.0);
    EXPECT_DOUBLE_EQ(m.dlp_equilibrium(), 0.0);
    EXPECT_TRUE(m.dlp_curve().empty());
}

}  // namespace
}  // namespace gld
