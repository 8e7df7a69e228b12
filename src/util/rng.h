#ifndef GLD_UTIL_RNG_H_
#define GLD_UTIL_RNG_H_

#include <cstdint>

namespace gld {

/**
 * Small, fast, deterministic pseudo-random generator (xoshiro256**).
 *
 * Used for all Monte-Carlo sampling in the simulator and policies.  A
 * dedicated implementation (rather than std::mt19937_64) keeps shot loops
 * cheap and makes cross-platform reproducibility explicit.
 */
class Rng {
  public:
    /** Seeds the state via splitmix64 so that any 64-bit seed is usable. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Returns the next raw 64-bit word. */
    uint64_t next_u64();

    /** Returns a uniform double in [0, 1). */
    double uniform();

    /** Returns true with probability p (p outside [0,1] is clamped). */
    bool bernoulli(double p);

    /** Returns a uniform integer in [0, n); n must be > 0. */
    uint32_t uniform_int(uint32_t n);

    /** Returns a single uniformly random bit. */
    bool bit() { return (next_u64() >> 63) != 0; }

    /**
     * Derives an independent stream for a worker thread / shot block.
     * @param stream_id distinct id per derived stream.
     */
    Rng split(uint64_t stream_id) const;

  private:
    uint64_t s_[4];
    uint64_t seed_;
};

}  // namespace gld

#endif  // GLD_UTIL_RNG_H_
