#include "core/flag_rule.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace gld {

FlagRule::FlagRule(std::vector<uint8_t> table, int bits)
    : bits_(bits), table_(std::move(table))
{
    if (bits < 0 || bits > 2 * kMaxPatternBits ||
        table_.size() != size_t{1} << bits)
        throw std::invalid_argument(
            "FlagRule: " + std::to_string(table_.size()) +
            " entries for a key of " + std::to_string(bits) +
            " bits (at most " + std::to_string(2 * kMaxPatternBits) + ")");
    if (bits == 0 || bits > kMaxCubeBits)
        return;
    std::vector<uint32_t> onset;
    for (uint32_t key = 0; key < table_.size(); ++key) {
        if (table_[key] != 0)
            onset.push_back(key);
    }
    dnf_ = QmMinimizer::minimize(bits, onset);
    const uint32_t all = (1u << bits) - 1;
    for (const Cube& c : dnf_) {
        const uint32_t cared = all & ~c.dash_mask;
        cubes_.push_back({c.value & cared, ~c.value & cared});
        literals_ += __builtin_popcount(cared);
    }
    uses_cubes_ = literals_ <= kMaxCubeLiterals;
}

LaneMask
FlagRule::lookup(const LaneMask* planes, LaneMask lanes) const
{
    // Only lanes with a nonzero key can fire unless the quiet key is
    // flagged itself.
    if (table_[0] == 0) {
        LaneMask any = 0;
        for (int i = 0; i < bits_; ++i)
            any |= planes[i];
        lanes &= any;
    }
    LaneMask fire = 0;
    for (; lanes != 0; lanes &= lanes - 1) {
        const int b = __builtin_ctzll(lanes);
        uint32_t key = 0;
        for (int i = 0; i < bits_; ++i)
            key |= static_cast<uint32_t>((planes[i] >> b) & 1u) << i;
        fire |= static_cast<LaneMask>(table_[key]) << b;
    }
    return fire;
}

}  // namespace gld
