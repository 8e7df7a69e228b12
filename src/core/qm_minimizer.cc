#include <cstddef>
#include "core/qm_minimizer.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace gld {

namespace {

using Implicant = std::pair<uint32_t, uint32_t>;  // (value, dash_mask)

/**
 * The working vectors of one minimize() call.  Flag tables are compiled
 * by the dozen at build, most of them a few bits wide, where fresh
 * vectors would cost more than the minimization; each thread keeps one
 * set and clears it per call, so a call allocates only its result.
 */
struct QmScratch {
    std::vector<uint32_t> all, need;
    std::vector<Cube> primes;
    std::vector<Implicant> current, next, level_primes;
    std::vector<char> combined, covered, used;
    // slot[v] = 1 + index in `current` of (v, d) within the group of d;
    // all zero between calls (each group clears what it set).
    std::vector<uint32_t> slot;
    std::vector<int> n_cover, gain;
    std::vector<size_t> a_cover;
};

QmScratch&
qm_scratch()
{
    static thread_local QmScratch scratch;
    return scratch;
}

/** Sorts and deduplicates v in place. */
void
sort_unique(std::vector<uint32_t>* v)
{
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
}

/**
 * The prime implicants of `minterms` (sorted, unique) into `primes`.
 *
 * Iteratively combine implicants that share a dash mask and differ in
 * exactly one cared bit.  Values never set a dashed bit, so the partner
 * of (v, d) across cared bit b is (v | b, d) when b is clear in v: one
 * lookup per (implicant, bit) inside v's dash-mask group finds every
 * pair.  Each level holds every implicant of its size, so (v, d | b) is
 * kept only from its lowest dashed bit b, once.  The primes of a level
 * come out in (value, dash_mask) order.
 */
void
prime_implicants(int n, const std::vector<uint32_t>& minterms,
                 QmScratch& s, std::vector<Cube>* primes)
{
    const auto dash_major = [](const Implicant& a, const Implicant& b) {
        return a.second != b.second ? a.second < b.second
                                    : a.first < b.first;
    };
    std::vector<Implicant>& current = s.current;  // one level, dash-major
    std::vector<Implicant>& next = s.next;
    current.clear();
    for (uint32_t m : minterms)
        current.push_back({m, 0});

    const uint32_t all = (1u << n) - 1;
    primes->clear();
    std::vector<uint32_t>& slot = s.slot;
    if (slot.size() < (size_t{1} << n))
        slot.assign(size_t{1} << n, 0);
    while (!current.empty()) {
        next.clear();
        s.combined.assign(current.size(), 0);
        for (size_t g = 0; g < current.size();) {
            const uint32_t dash = current[g].second;
            const uint32_t lowest_dash = dash & (~dash + 1);
            size_t end = g;
            for (; end < current.size() && current[end].second == dash;
                 ++end)
                slot[current[end].first] = static_cast<uint32_t>(end + 1);
            for (size_t i = g; i < end; ++i) {
                const uint32_t value = current[i].first;
                for (uint32_t free = all & ~dash & ~value; free != 0;
                     free &= free - 1) {
                    const uint32_t bit = free & (~free + 1);
                    const uint32_t partner = slot[value | bit];
                    if (partner == 0)
                        continue;
                    s.combined[i] = 1;
                    s.combined[partner - 1] = 1;
                    if (dash == 0 || bit < lowest_dash)
                        next.push_back({value, dash | bit});
                }
            }
            for (size_t i = g; i < end; ++i)
                slot[current[i].first] = 0;
            g = end;
        }
        s.level_primes.clear();
        for (size_t i = 0; i < current.size(); ++i) {
            if (!s.combined[i])
                s.level_primes.push_back(current[i]);
        }
        std::sort(s.level_primes.begin(), s.level_primes.end());
        for (const Implicant& p : s.level_primes)
            primes->push_back({p.first, p.second});
        std::sort(next.begin(), next.end(), dash_major);
        current.swap(next);
    }
}

}  // namespace

std::vector<Cube>
QmMinimizer::minimize(int n, const std::vector<uint32_t>& onset,
                      const std::vector<uint32_t>& dontcare)
{
    assert(n >= 1 && n <= 20);
    if (onset.empty())
        return {};
    QmScratch& s = qm_scratch();

    s.all.assign(onset.begin(), onset.end());
    s.all.insert(s.all.end(), dontcare.begin(), dontcare.end());
    sort_unique(&s.all);

    const std::vector<Cube>& primes = s.primes;
    prime_implicants(n, s.all, s, &s.primes);

    // Cover only the real onset (don't-cares need no cover).
    std::vector<uint32_t>& need = s.need;
    need.assign(onset.begin(), onset.end());
    sort_unique(&need);

    const size_t n_primes = primes.size();
    const size_t n_need = need.size();
    const auto covers = [&](size_t p, size_t m) {
        return primes[p].covers(need[m]);
    };
    // Per onset minterm: how many primes cover it, and the last that does.
    std::vector<int>& n_cover = s.n_cover;
    std::vector<size_t>& a_cover = s.a_cover;
    n_cover.assign(n_need, 0);
    a_cover.assign(n_need, 0);
    for (size_t p = 0; p < n_primes; ++p) {
        for (size_t m = 0; m < n_need; ++m) {
            if (covers(p, m)) {
                ++n_cover[m];
                a_cover[m] = p;
            }
        }
    }

    std::vector<Cube> chosen;
    chosen.reserve(std::min(n_primes, n_need));
    std::vector<char>& covered = s.covered;
    std::vector<char>& used = s.used;
    covered.assign(n_need, 0);
    used.assign(n_primes, 0);

    // Essential primes: minterms covered by exactly one prime.
    for (size_t m = 0; m < n_need; ++m) {
        if (n_cover[m] == 1 && !used[a_cover[m]]) {
            used[a_cover[m]] = 1;
            chosen.push_back(primes[a_cover[m]]);
        }
    }
    // gain[p] = the still-uncovered minterms prime p covers.
    std::vector<int>& gain = s.gain;
    gain.assign(n_primes, 0);
    for (size_t m = 0; m < n_need; ++m) {
        for (size_t p = 0; p < n_primes && !covered[m]; ++p)
            covered[m] = used[p] && covers(p, m);
        for (size_t p = 0; p < n_primes && !covered[m]; ++p)
            gain[p] += covers(p, m) ? 1 : 0;
    }

    // Greedy cover for the rest (Petrick's method is exponential; greedy
    // is within a log factor and matches practice): the unused prime of
    // largest gain, the lowest index on a tie.
    while (true) {
        size_t best = n_primes;
        int best_gain = 0;
        for (size_t p = 0; p < n_primes; ++p) {
            if (!used[p] && gain[p] > best_gain) {
                best_gain = gain[p];
                best = p;
            }
        }
        if (best == n_primes)
            break;
        used[best] = 1;
        chosen.push_back(primes[best]);
        for (size_t m = 0; m < n_need; ++m) {
            if (covered[m] || !covers(best, m))
                continue;
            covered[m] = 1;
            for (size_t p = 0; p < n_primes; ++p)
                gain[p] -= covers(p, m) ? 1 : 0;
        }
    }
    return chosen;
}

bool
QmMinimizer::eval(const std::vector<Cube>& cubes, uint32_t x)
{
    for (const Cube& c : cubes) {
        if (c.covers(x))
            return true;
    }
    return false;
}

std::string
QmMinimizer::cube_to_string(const Cube& cube, int n)
{
    std::string s = "(";
    bool first = true;
    for (int i = 0; i < n; ++i) {
        if ((cube.dash_mask >> i) & 1u)
            continue;
        if (!first)
            s += " & ";
        first = false;
        if (!((cube.value >> i) & 1u))
            s += "!";
        s += "x" + std::to_string(i);
    }
    if (first)
        s += "1";  // the constant-true cube
    s += ")";
    return s;
}

std::string
QmMinimizer::to_string(const std::vector<Cube>& cubes, int n)
{
    if (cubes.empty())
        return "0";
    std::string s;
    for (size_t i = 0; i < cubes.size(); ++i) {
        if (i > 0)
            s += " | ";
        s += cube_to_string(cubes[i], n);
    }
    return s;
}

}  // namespace gld
