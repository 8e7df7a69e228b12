#include "util/config.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace gld {

int
int_flag(const std::string& flag, const std::string& v, int lo, int hi)
{
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE || n < lo || n > hi)
        throw std::runtime_error(
            flag + " wants an integer " +
            (hi == INT_MAX ? ">= " + std::to_string(lo)
                           : "in [" + std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]") +
            ", got \"" + v + "\"");
    return static_cast<int>(n);
}

double
real_flag(const std::string& flag, const std::string& v, double lo,
          double hi, const char* range)
{
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !(x > lo && x < hi))
        throw std::runtime_error(flag + " wants a number in " + range +
                                 ", got \"" + v + "\"");
    return x;
}

int
env_int(const char* name, int fallback, int lo, int hi)
{
    const char* s = std::getenv(name);
    if (s == nullptr || s[0] == '\0')
        return fallback;
    return int_flag(name, s, lo, hi);
}

int
report_failure(const char* prog, const std::exception& e)
{
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 1;
}

double
BenchConfig::scale()
{
    const char* s = std::getenv("GLD_SHOTS_SCALE");
    if (s == nullptr || s[0] == '\0')
        return 1.0;
    return real_flag("GLD_SHOTS_SCALE", s, 0.0, HUGE_VAL, "(0, inf)");
}

int
BenchConfig::shots(int base)
{
    const double v = scale() * base;
    if (!(v < INT_MAX))  // the int cast of a larger value is undefined
        throw std::runtime_error("GLD_SHOTS_SCALE asks for " +
                                 std::to_string(v) + " shots");
    return std::max(1, static_cast<int>(v));
}

int
BenchConfig::threads()
{
    const int v = env_int("GLD_THREADS", 0, 0);
    if (v > 0)
        return std::min(v, 64);
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(hw, 1);
}

}  // namespace gld
