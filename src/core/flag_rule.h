#ifndef GLD_CORE_FLAG_RULE_H_
#define GLD_CORE_FLAG_RULE_H_

#include <cstdint>
#include <vector>

#include "core/qm_minimizer.h"
#include "sim/simulator.h"

namespace gld {

/** Widest observed pattern (checks per data qubit) a flag-table rule
 *  accepts; a two-round key is twice as wide. */
constexpr int kMaxPatternBits = 16;

/**
 * A leakage-flag table compiled for word-parallel evaluation: the decision
 * ERASER, GLADIATOR and GLADIATOR-D make for 64 lanes at once.  Bit i of
 * a lane's key is its bit of detector plane i; the rule returns the lanes
 * whose key the table flags.
 *
 * At construction the table's onset is minimized to DNF by QmMinimizer
 * (the minimizer behind Table 3's LUT count) and each product term
 * becomes a pair of plane masks, so a word costs one AND per positive
 * literal, one ANDN per negative literal and one OR per cube.  A table
 * whose key is wider than kMaxCubeBits, or whose DNF has more than
 * kMaxCubeLiterals literals, keeps the sparse-lane lookup instead: it
 * rebuilds the key of every lane that can fire.  Both paths return the
 * same lanes.
 */
class FlagRule {
  public:
    /** Widest key that is minimized: 2^8 keys, the surface code's
     *  two-round tables and HGP's single-round ones.  QM's implicant
     *  lattice grows as 3^bits, and the next width in use, HGP's 16-bit
     *  two-round keys, is too wide to minimize at table build. */
    static constexpr int kMaxCubeBits = 8;
    /** Most DNF literals evaluated as cubes.  Measured with
     *  BM_PolicyObserve, cubes against lookup: surface two-round
     *  tables (about 100 literals) 1.4x faster, HGP single-round tables
     *  (about 150) 2x faster, ERASER at k = 8 (280) no faster. */
    static constexpr int kMaxCubeLiterals = 200;

    /** Compiles `table` (2^bits entries, 0 or 1; bits <= 2 *
     *  kMaxPatternBits).  Throws std::invalid_argument on any other
     *  size. */
    FlagRule(std::vector<uint8_t> table, int bits);

    /**
     * The lanes of `lanes` whose key the table flags.  `planes` holds
     * bits() words; bits of lanes outside `lanes` are ignored.
     */
    LaneMask eval(const LaneMask* planes, LaneMask lanes) const
    {
        if (!uses_cubes_)
            return lookup(planes, lanes);
        LaneMask fire = 0;
        for (const PlaneCube& c : cubes_) {
            LaneMask t = lanes;
            for (uint32_t m = c.pos; m != 0; m &= m - 1)
                t &= planes[__builtin_ctz(m)];
            for (uint32_t m = c.neg; m != 0; m &= m - 1)
                t &= ~planes[__builtin_ctz(m)];
            fire |= t;
        }
        return fire;
    }

    int bits() const { return bits_; }
    const std::vector<uint8_t>& table() const { return table_; }
    /** True when eval() runs the cubes, false for the lookup. */
    bool uses_cubes() const { return uses_cubes_; }
    /** The minimized DNF (empty when the key was too wide to try). */
    const std::vector<Cube>& dnf() const { return dnf_; }
    /** Literal count of dnf(). */
    int literals() const { return literals_; }

  private:
    /** One product term as plane masks (bit i = plane i). */
    struct PlaneCube {
        uint32_t pos;  ///< planes that must be 1
        uint32_t neg;  ///< planes that must be 0
    };

    LaneMask lookup(const LaneMask* planes, LaneMask lanes) const;

    int bits_;
    std::vector<uint8_t> table_;
    std::vector<Cube> dnf_;
    int literals_ = 0;
    bool uses_cubes_ = false;
    std::vector<PlaneCube> cubes_;
};

}  // namespace gld

#endif  // GLD_CORE_FLAG_RULE_H_
