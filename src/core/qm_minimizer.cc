#include <cstddef>
#include "core/qm_minimizer.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace gld {

std::vector<Cube>
QmMinimizer::prime_implicants(int n, const std::vector<uint32_t>& minterms)
{
    // Iteratively combine implicants that share a dash mask and differ in
    // exactly one cared bit.  Values never set a dashed bit, so the
    // partner of (v, d) across cared bit b is (v | b, d) when b is clear
    // in v: one lookup per (implicant, bit) inside v's dash-mask group
    // finds every pair.  Each level holds every implicant of its size, so
    // (v, d | b) is kept only from its lowest dashed bit b, once.  The
    // primes of a level come out in (value, dash_mask) order.
    using Implicant = std::pair<uint32_t, uint32_t>;  // (value, dash_mask)
    const auto dash_major = [](const Implicant& a, const Implicant& b) {
        return a.second != b.second ? a.second < b.second
                                    : a.first < b.first;
    };
    std::vector<Implicant> current;  // one level, dash-major
    current.reserve(minterms.size());
    for (uint32_t m : minterms)
        current.push_back({m, 0});
    std::sort(current.begin(), current.end());
    current.erase(std::unique(current.begin(), current.end()),
                  current.end());

    const uint32_t all = (1u << n) - 1;
    std::vector<Cube> primes;
    std::vector<Implicant> next;
    std::vector<Implicant> level_primes;
    std::vector<char> combined;
    // slot[v] = 1 + index in `current` of (v, d) within the group of d.
    std::vector<uint32_t> slot(size_t{1} << n, 0);
    while (!current.empty()) {
        next.clear();
        combined.assign(current.size(), 0);
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
                    combined[i] = 1;
                    combined[partner - 1] = 1;
                    if (dash == 0 || bit < lowest_dash)
                        next.push_back({value, dash | bit});
                }
            }
            for (size_t i = g; i < end; ++i)
                slot[current[i].first] = 0;
            g = end;
        }
        level_primes.clear();
        for (size_t i = 0; i < current.size(); ++i) {
            if (!combined[i])
                level_primes.push_back(current[i]);
        }
        std::sort(level_primes.begin(), level_primes.end());
        for (const Implicant& p : level_primes)
            primes.push_back({p.first, p.second});
        std::sort(next.begin(), next.end(), dash_major);
        current.swap(next);
    }
    return primes;
}

std::vector<Cube>
QmMinimizer::minimize(int n, const std::vector<uint32_t>& onset,
                      const std::vector<uint32_t>& dontcare)
{
    assert(n >= 1 && n <= 20);
    if (onset.empty())
        return {};

    std::vector<uint32_t> all = onset;
    all.insert(all.end(), dontcare.begin(), dontcare.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());

    std::vector<Cube> primes = prime_implicants(n, all);

    // Cover only the real onset (don't-cares need no cover).
    std::vector<uint32_t> need = onset;
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());

    const size_t n_primes = primes.size();
    const size_t n_need = need.size();
    const auto covers = [&](size_t p, size_t m) {
        return primes[p].covers(need[m]);
    };
    // Per onset minterm: how many primes cover it, and the last that does.
    std::vector<int> n_cover(n_need, 0);
    std::vector<size_t> a_cover(n_need, 0);
    for (size_t p = 0; p < n_primes; ++p) {
        for (size_t m = 0; m < n_need; ++m) {
            if (covers(p, m)) {
                ++n_cover[m];
                a_cover[m] = p;
            }
        }
    }

    std::vector<Cube> chosen;
    std::vector<char> covered(n_need, 0);
    std::vector<char> used(n_primes, 0);

    // Essential primes: minterms covered by exactly one prime.
    for (size_t m = 0; m < n_need; ++m) {
        if (n_cover[m] == 1 && !used[a_cover[m]]) {
            used[a_cover[m]] = 1;
            chosen.push_back(primes[a_cover[m]]);
        }
    }
    // gain[p] = the still-uncovered minterms prime p covers.
    std::vector<int> gain(n_primes, 0);
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
