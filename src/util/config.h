#ifndef GLD_UTIL_CONFIG_H_
#define GLD_UTIL_CONFIG_H_

#include <climits>
#include <string>

namespace gld {

/**
 * Whole-value number parsing for flags and environment knobs: int_flag
 * reads an integer in [lo, hi], real_flag a number strictly inside
 * (lo, hi) that `range` describes.  An empty value, trailing characters
 * or a value out of range throws std::runtime_error naming `flag` and the
 * value.  env_int reads the variable `name` with int_flag; unset or
 * empty reads as `fallback`.
 */
int int_flag(const std::string& flag, const std::string& v, int lo,
             int hi = INT_MAX);
double real_flag(const std::string& flag, const std::string& v, double lo,
                 double hi, const char* range);
int env_int(const char* name, int fallback, int lo, int hi = INT_MAX);

/**
 * Environment-driven knobs shared by the benchmark harness.  A set but
 * malformed value throws, naming the variable.
 *
 * GLD_SHOTS_SCALE — multiplies every bench's default shot count (default 1).
 * GLD_THREADS    — caps worker threads (default or 0: hardware concurrency).
 * (GLD_BACKEND, the simulation backend knob, is resolved by
 * backend_from_env() in src/sim/simulator.h — the env var names a
 * backend, so it belongs to the sim layer.)
 */
struct BenchConfig {
    /** Scales a default shot count by GLD_SHOTS_SCALE (min 1 shot). */
    static int shots(int base);
    /** Worker thread count honouring GLD_THREADS. */
    static int threads();
    /** The raw scale factor. */
    static double scale();
};

}  // namespace gld

#endif  // GLD_UTIL_CONFIG_H_
