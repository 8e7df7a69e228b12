#ifndef GLD_SIM_LANE_SPAN_H_
#define GLD_SIM_LANE_SPAN_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/simulator.h"

namespace gld {

/** Invokes f(lane) for every set bit of the lane word m, ascending. */
template <typename F>
inline void
for_each_lane(LaneMask m, F&& f)
{
    while (m != 0) {
        f(__builtin_ctzll(m));
        m &= m - 1;
    }
}

/** Spreads the low 8 bits of x to eight 0/1 bytes (byte k = bit k). */
inline uint64_t
spread_bits_to_bytes(uint64_t x)
{
    // Place bit k at bit 8k+k, add (0x80 - 2^k) per byte (no cross-byte
    // carry: each byte holds at most 2^k + (0x80 - 2^k) = 0x80), then
    // extract the per-byte 0x80 flag.
    const uint64_t placed =
        ((x & 0xFFu) * 0x0101010101010101ull) & 0x8040201008040201ull;
    return (((placed + 0x00406070787C7E7Full) >> 7) &
            0x0101010101010101ull);
}

/** Transposes an 8x8 byte matrix held as 8 row words: final row i's
 *  byte j = original row j's byte i. */
inline void
transpose8x8_bytes(uint64_t t[8])
{
    for (int j = 0; j < 8; j += 2) {
        const uint64_t a = t[j], b = t[j + 1];
        t[j] = (a & 0x00FF00FF00FF00FFull) |
               ((b & 0x00FF00FF00FF00FFull) << 8);
        t[j + 1] = ((a >> 8) & 0x00FF00FF00FF00FFull) |
                   (b & 0xFF00FF00FF00FF00ull);
    }
    for (int j : {0, 1, 4, 5}) {
        const uint64_t a = t[j], b = t[j + 2];
        t[j] = (a & 0x0000FFFF0000FFFFull) |
               ((b & 0x0000FFFF0000FFFFull) << 16);
        t[j + 2] = ((a >> 16) & 0x0000FFFF0000FFFFull) |
                   (b & 0xFFFF0000FFFF0000ull);
    }
    for (int j = 0; j < 4; ++j) {
        const uint64_t a = t[j], b = t[j + 4];
        t[j] = (a & 0x00000000FFFFFFFFull) | (b << 32);
        t[j + 4] = (a >> 32) | (b & 0xFFFFFFFF00000000ull);
    }
}

/**
 * The word -> per-lane byte transpose: n_rows lane words (row i's word
 * at words[i]) become one 0/1 byte row per lane, lane_row(l)[i] = bit l
 * of row i, for every lane l < n_lanes (<= 64).  lane_row(l) returns
 * lane l's uint8_t* destination of n_rows bytes.
 *
 * 8x8 tiles: spread each row word's 8-lane byte to 0/1 bytes, byte-
 * transpose the tile, and store eight rows of one lane with a single
 * 8-byte write — ~1 op/byte instead of a scalar bit-extract per (lane,
 * row).  An 8-lane group g is byte g of each word.
 */
template <typename RowOf>
inline void
lanes_to_bytes(const LaneMask* words, int n_rows, int n_lanes,
               RowOf&& lane_row)
{
    uint64_t tile[8];
    for (int r0 = 0; r0 < n_rows; r0 += 8) {
        const int rw = std::min(8, n_rows - r0);
        for (int g = 0; g * 8 < n_lanes; ++g) {
            for (int j = 0; j < 8; ++j) {
                const uint64_t w = j < rw ? words[r0 + j] : 0;
                tile[j] = spread_bits_to_bytes(w >> (8 * g));
            }
            transpose8x8_bytes(tile);
            const int lw = std::min(8, n_lanes - g * 8);
            for (int i = 0; i < lw; ++i)
                std::memcpy(lane_row(8 * g + i) + r0, &tile[i],
                            static_cast<size_t>(rw));
        }
    }
}

/**
 * One round's words as per-lane RoundResults: meas-flip, detector and MLR
 * words per check transposed into out[l] for every lane l < n_lanes.
 * `out` is resized to n_lanes and each result's vectors to n_checks;
 * every byte is then rewritten, so storage is reused across rounds
 * without a zero-fill.
 */
inline void
round_words_to_results(const LaneMask* meas_flip, const LaneMask* detector,
                       const LaneMask* mlr_flag, int n_checks, int n_lanes,
                       std::vector<RoundResult>* out)
{
    const size_t nc = static_cast<size_t>(n_checks);
    out->resize(static_cast<size_t>(n_lanes));
    for (RoundResult& rr : *out) {
        if (rr.meas_flip.size() != nc) {
            rr.meas_flip.resize(nc);
            rr.detector.resize(nc);
            rr.mlr_flag.resize(nc);
        }
    }
    lanes_to_bytes(meas_flip, n_checks, n_lanes, [&](int l) {
        return (*out)[static_cast<size_t>(l)].meas_flip.data();
    });
    lanes_to_bytes(detector, n_checks, n_lanes, [&](int l) {
        return (*out)[static_cast<size_t>(l)].detector.data();
    });
    lanes_to_bytes(mlr_flag, n_checks, n_lanes, [&](int l) {
        return (*out)[static_cast<size_t>(l)].mlr_flag.data();
    });
}

}  // namespace gld

#endif  // GLD_SIM_LANE_SPAN_H_
