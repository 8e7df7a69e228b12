// Numeric knobs are read whole: a command-line flag or a GLD_* environment
// variable with trailing characters, no digits or an out-of-range value
// throws naming the flag or variable, never runs with a prefix of it or
// with the default.  Unset or empty variables keep the default.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/config.h"

namespace gld {
namespace {

/** Sets (or, for nullptr, unsets) one variable for a scope. */
class ScopedEnv {
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* v = std::getenv(name)) {
            had_ = true;
            prev_ = v;
        }
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, prev_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char* name_;
    bool had_ = false;
    std::string prev_;
};

/** Expects `f` to throw std::runtime_error whose message has `a` and `b`. */
template <class F>
void
expect_error_names(F f, const std::string& a, const std::string& b)
{
    try {
        f();
        ADD_FAILURE() << "expected std::runtime_error naming " << a;
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(a), std::string::npos) << what;
        EXPECT_NE(what.find(b), std::string::npos) << what;
    }
}

TEST(Config, IntFlagReadsTheWholeValue)
{
    EXPECT_EQ(int_flag("--shards", "3", 1), 3);
    EXPECT_EQ(int_flag("--shard <i>", "2", 0, 2), 2);
    for (const char* bad : {"3x", "abc", "", "0", "99999999999"})
        expect_error_names([&] { int_flag("--shards", bad, 1); }, "--shards",
                           "\"" + std::string(bad) + "\"");
    expect_error_names([] { int_flag("--shard <i>", "3", 0, 2); },
                       "--shard <i>", "in [0, 2]");
}

TEST(Config, RealFlagReadsTheWholeValue)
{
    EXPECT_EQ(real_flag("--alpha", "0.05", 0.0, 1.0, "(0, 1)"), 0.05);
    for (const char* bad : {"O.5", "0.5x", "", "1", "nan"})
        expect_error_names(
            [&] { real_flag("--alpha", bad, 0.0, 1.0, "(0, 1)"); },
            "--alpha", "\"" + std::string(bad) + "\"");
    expect_error_names(
        [] { real_flag("--scale", "inf", 0.0, HUGE_VAL, "(0, inf)"); },
        "--scale", "(0, inf)");
}

TEST(Config, EnvIntKeepsTheDefaultOnlyWhenUnsetOrEmpty)
{
    {
        const ScopedEnv env("GLD_MAX_D", nullptr);
        EXPECT_EQ(env_int("GLD_MAX_D", 7, 3), 7);
    }
    {
        const ScopedEnv env("GLD_MAX_D", "");
        EXPECT_EQ(env_int("GLD_MAX_D", 7, 3), 7);
    }
    {
        const ScopedEnv env("GLD_MAX_D", "9");
        EXPECT_EQ(env_int("GLD_MAX_D", 7, 3), 9);
    }
    // It used to print an empty Fig 12 table and exit 0.
    const ScopedEnv env("GLD_MAX_D", "abc");
    expect_error_names([] { env_int("GLD_MAX_D", 7, 3); }, "GLD_MAX_D",
                       "\"abc\"");
}

TEST(Config, ShotsScaleIsReadWhole)
{
    {
        const ScopedEnv env("GLD_SHOTS_SCALE", nullptr);
        EXPECT_EQ(BenchConfig::scale(), 1.0);
        EXPECT_EQ(BenchConfig::shots(400), 400);
    }
    {
        const ScopedEnv env("GLD_SHOTS_SCALE", "0.5");
        EXPECT_EQ(BenchConfig::shots(400), 200);
    }
    {
        // A whole number too large for a shot count used to run 1 shot.
        const ScopedEnv env("GLD_SHOTS_SCALE", "1e12");
        expect_error_names([] { BenchConfig::shots(400); }, "GLD_SHOTS_SCALE",
                           "shots");
    }
    // A letter O used to run silently at scale 1.
    for (const char* bad : {"O.5", "0", "-2", "2x"}) {
        const ScopedEnv env("GLD_SHOTS_SCALE", bad);
        expect_error_names([] { BenchConfig::scale(); }, "GLD_SHOTS_SCALE",
                           "\"" + std::string(bad) + "\"");
    }
}

TEST(Config, ThreadsAreReadWhole)
{
    {
        const ScopedEnv env("GLD_THREADS", "3");
        EXPECT_EQ(BenchConfig::threads(), 3);
    }
    {
        // 0, like unset, means every core.
        const ScopedEnv env("GLD_THREADS", "0");
        EXPECT_GE(BenchConfig::threads(), 1);
    }
    // "2x" used to run 2 threads.
    for (const char* bad : {"2x", "abc", "-1"}) {
        const ScopedEnv env("GLD_THREADS", bad);
        expect_error_names([] { BenchConfig::threads(); }, "GLD_THREADS",
                           "\"" + std::string(bad) + "\"");
    }
}

}  // namespace
}  // namespace gld
