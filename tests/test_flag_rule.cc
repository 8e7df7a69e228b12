// Compiled flag tables.  A FlagRule is the word-wide decision of ERASER,
// GLADIATOR and GLADIATOR-D; it must flag exactly the keys its table
// flags, on every key, on both of its paths: the minimized cubes and the
// sparse-lane lookup kept for wide or literal-heavy tables.  Keys are
// packed 64 per word (lane l of word w holds key 64*w + l, modulo the
// key space) and decided under all-lane and random candidate masks.

#include "core/flag_rule.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "codes/color_code.h"
#include "codes/hgp_code.h"
#include "codes/surface_code.h"
#include "core/pattern_table.h"
#include "core/policy_eraser.h"
#include "util/rng.h"

namespace gld {
namespace {

/** Checks `rule` against its own table on every key. */
void
expect_matches_table(const FlagRule& rule, Rng& rng)
{
    const int bits = rule.bits();
    const std::vector<uint8_t>& table = rule.table();
    const uint32_t n_keys = 1u << bits;
    const uint32_t n_words = n_keys < 64 ? 1 : n_keys / 64;
    const char* path = rule.uses_cubes() ? "cubes" : "lookup";
    LaneMask planes[2 * kMaxPatternBits];
    for (uint32_t w = 0; w < n_words; ++w) {
        LaneMask flagged = 0;
        for (int i = 0; i < bits; ++i)
            planes[i] = 0;
        for (uint32_t l = 0; l < 64; ++l) {
            const uint32_t key = (64 * w + l) % n_keys;
            for (int i = 0; i < bits; ++i)
                planes[i] |= static_cast<LaneMask>((key >> i) & 1u) << l;
            flagged |= static_cast<LaneMask>(table[key] != 0) << l;
        }
        const LaneMask candidates[] = {~0ull, rng.next_u64(),
                                       rng.next_u64()};
        for (const LaneMask lanes : candidates)
            ASSERT_EQ(rule.eval(planes, lanes), flagged & lanes)
                << bits << "-bit " << path << ", word " << w;
    }
    // The DNF kept for inspection is the table too.
    if (!rule.dnf().empty() || rule.uses_cubes()) {
        for (uint32_t key = 0; key < n_keys; ++key)
            ASSERT_EQ(QmMinimizer::eval(rule.dnf(), key), table[key] != 0)
                << "key " << key;
    }
}

std::vector<uint8_t>
random_table(int bits, Rng& rng)
{
    std::vector<uint8_t> t(size_t{1} << bits);
    for (uint8_t& v : t)
        v = rng.bit() ? 1 : 0;
    return t;
}

struct Harness {
    CssCode code;
    RoundCircuit rc;
    CodeContext ctx;

    explicit Harness(CssCode c)
        : code(std::move(c)), rc(code), ctx(code, rc,
                                            CodeContext::default_scope(code))
    {
    }
};

void
expect_tables_compile(const Harness& h, bool two_round, Rng& rng)
{
    const PatternTableSet tables = PatternTableSet::build(
        h.ctx, NoiseParams::standard(1e-3, 0.1), {}, two_round);
    for (int c = 0; c < tables.n_classes(); ++c) {
        SCOPED_TRACE("class " + std::to_string(c));
        EXPECT_EQ(&tables.rule(c).table(), &tables.table(c));
        expect_matches_table(tables.rule(c), rng);
    }
}

TEST(FlagRule, EraserRulesMatchTheirTables)
{
    Rng rng(1);
    for (int k = 1; k <= FlagRule::kMaxCubeBits; ++k) {
        SCOPED_TRACE("k = " + std::to_string(k));
        const FlagRule& rule = EraserPolicy::rule(k);
        EXPECT_EQ(&EraserPolicy::rule(k), &rule) << "compiled once per k";
        ASSERT_EQ(rule.bits(), k);
        expect_matches_table(rule, rng);
    }
}

TEST(FlagRule, GladiatorRulesMatchTheirTables)
{
    Rng rng(2);
    for (int d : {3, 7, 11}) {
        SCOPED_TRACE("surface d = " + std::to_string(d));
        const Harness h(SurfaceCode::make(d));
        expect_tables_compile(h, /*two_round=*/false, rng);
        expect_tables_compile(h, /*two_round=*/true, rng);
    }
    {
        SCOPED_TRACE("color d = 5");
        const Harness h(ColorCode::make(5));
        expect_tables_compile(h, false, rng);
        expect_tables_compile(h, true, rng);
    }
    {
        SCOPED_TRACE("HGP Hamming");
        const Harness h(HgpCode::make_hamming());
        expect_tables_compile(h, false, rng);
    }
}

TEST(FlagRule, SurfaceTablesRunAsCubes)
{
    // The paper workload's tables take the cube path.
    const Harness h(SurfaceCode::make(7));
    for (bool two_round : {false, true}) {
        const PatternTableSet tables = PatternTableSet::build(
            h.ctx, NoiseParams::standard(1e-3, 0.1), {}, two_round);
        for (int c = 0; c < tables.n_classes(); ++c)
            EXPECT_TRUE(tables.rule(c).uses_cubes())
                << "class " << c << " two_round " << two_round;
    }
}

TEST(FlagRule, HandBuiltTablesOnBothPaths)
{
    Rng rng(3);
    // 4 bits: within the cube bounds; 10 bits: wider than kMaxCubeBits,
    // so the lookup is the only path.
    for (int bits : {4, 10}) {
        SCOPED_TRACE(std::to_string(bits) + " bits");
        const bool cubes = bits <= FlagRule::kMaxCubeBits;
        const size_t n = size_t{1} << bits;

        const FlagRule empty(std::vector<uint8_t>(n, 0), bits);
        EXPECT_EQ(empty.uses_cubes(), cubes);
        EXPECT_TRUE(empty.dnf().empty());
        expect_matches_table(empty, rng);

        const FlagRule full(std::vector<uint8_t>(n, 1), bits);
        EXPECT_EQ(full.uses_cubes(), cubes);
        expect_matches_table(full, rng);

        // The quiet key flagged: every candidate lane with key 0 fires.
        std::vector<uint8_t> t = random_table(bits, rng);
        t[0] = 1;
        const FlagRule quiet(t, bits);
        EXPECT_EQ(quiet.uses_cubes(), cubes);
        expect_matches_table(quiet, rng);
        const LaneMask zeros[2 * kMaxPatternBits] = {};
        EXPECT_EQ(quiet.eval(zeros, 0x00F0F0F0F0F0F0F0ull),
                  0x00F0F0F0F0F0F0F0ull);

        t[0] = 0;
        const FlagRule random(t, bits);
        expect_matches_table(random, rng);
        EXPECT_EQ(random.eval(zeros, ~0ull), 0u);
    }
}

TEST(FlagRule, LiteralHeavyTableFallsBackToLookup)
{
    // Parity of 8 bits: 128 cubes of 8 literals each, far over the
    // literal bound, so the minimized table still runs as a lookup.
    std::vector<uint8_t> parity(256);
    for (uint32_t key = 0; key < parity.size(); ++key)
        parity[key] = static_cast<uint8_t>(__builtin_popcount(key) & 1);
    const FlagRule rule(parity, 8);
    EXPECT_GT(rule.literals(), FlagRule::kMaxCubeLiterals);
    EXPECT_FALSE(rule.uses_cubes());
    Rng rng(4);
    expect_matches_table(rule, rng);
}

TEST(FlagRule, RejectsMisshapedTables)
{
    EXPECT_THROW((void)FlagRule(std::vector<uint8_t>(8, 0), 4),
                 std::invalid_argument);
    EXPECT_THROW((void)FlagRule(std::vector<uint8_t>(2, 0), 33),
                 std::invalid_argument);
    EXPECT_THROW((void)FlagRule(std::vector<uint8_t>(1, 0), -1),
                 std::invalid_argument);
    EXPECT_THROW(EraserPolicy::rule(0), std::invalid_argument);
    EXPECT_THROW(EraserPolicy::rule(kMaxPatternBits + 1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace gld
