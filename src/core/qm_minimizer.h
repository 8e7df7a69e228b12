#ifndef GLD_CORE_QM_MINIMIZER_H_
#define GLD_CORE_QM_MINIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gld {

/**
 * A product term (cube) over n boolean variables: bit positions NOT in
 * `dash_mask` are fixed to the corresponding bit of `value`.
 */
struct Cube {
    uint32_t value;
    uint32_t dash_mask;  ///< 1 = variable eliminated ("don't care")

    bool covers(uint32_t x) const
    {
        return ((x ^ value) & ~dash_mask) == 0;
    }
};

/**
 * Quine-McCluskey two-level Boolean minimization with essential-prime
 * selection and greedy cover, the paper's Appendix B.1 methodology
 * ("symbolic Boolean minimization... compact DNF expressions"), here used
 * to generate the sequence-checker logic and its LUT cost.
 */
class QmMinimizer {
  public:
    /**
     * Minimizes the function over n variables.
     * @param n         number of variables (<= 20).
     * @param onset     minterms where the function is 1.
     * @param dontcare  minterms that may be either value.
     * @return a minimal-ish set of prime implicants covering the onset.
     */
    static std::vector<Cube> minimize(
        int n, const std::vector<uint32_t>& onset,
        const std::vector<uint32_t>& dontcare = {});

    /** Evaluates the DNF at input x. */
    static bool eval(const std::vector<Cube>& cubes, uint32_t x);

    /**
     * Renders a cube as the paper's notation, e.g. "(x0 & x2 & !x3)".
     * Variable x_i is input bit i.
     */
    static std::string cube_to_string(const Cube& cube, int n);

    /** Renders a full DNF expression. */
    static std::string to_string(const std::vector<Cube>& cubes, int n);
};

}  // namespace gld

#endif  // GLD_CORE_QM_MINIMIZER_H_
