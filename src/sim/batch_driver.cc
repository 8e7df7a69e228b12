#include "sim/batch_driver.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GLD_BATCH_SIMD_KERNELS 1
#include <immintrin.h>
#endif

// Function multiversioning for the word-wide hot paths: one portable
// binary, with AVX2/AVX-512 clones selected once at load time (glibc
// ifunc) where the CPU has them.  The lane-RNG step is pure 64-bit
// shift/add/xor, which widens perfectly — the clones only change
// shots/second, never results.
// Sanitizer runtimes initialize after ifunc resolvers run, so a clone
// resolver in an instrumented binary crashes before main: ASan and TSan
// builds take the default (portable) body.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define GLD_BATCH_HOT \
    __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define GLD_BATCH_HOT
#endif

namespace gld {

namespace {

// --- CPU-dispatched site kernels. ---
//
// One Bernoulli site = every lane of [0, n) advances its xoshiro stream
// once and compares the 53-bit draw against a threshold; the kernels
// write the fired lanes PACKED as a ceil(n/64)-word lane span per site
// (callers mask off padding lanes).  The AVX-512 path gets the packed
// mask for free from compare-to-mask; AVX2 uses sign-bit movemask; the
// portable fallback is the LaneRngBank scalar loop.  Resolved once per
// process — identical results on every path, only shots/second differ.

struct SiteKernels {
    void (*one)(LaneRngBank&, int, uint64_t, LaneMask*);
    void (*two)(LaneRngBank&, int, uint64_t, uint64_t, LaneMask*,
                LaneMask*);
    void (*three)(LaneRngBank&, int, uint64_t, uint64_t, uint64_t,
                  LaneMask*, LaneMask*, LaneMask*);
    const char* tier;  ///< "avx512" / "avx2" / "portable"
};

/** Packs n 0/1 flags into ceil(n/64) lane words. */
inline void
pack_flag_words(const uint64_t* bits, int n, LaneMask* out)
{
    for (int w = 0; w * kBatchLanes < n; ++w) {
        const int base = w * kBatchLanes;
        const int lim = std::min(kBatchLanes, n - base);
        LaneMask m = 0;
        for (int b = 0; b < lim; ++b)
            m |= bits[base + b] << b;
        out[w] = m;
    }
}

void
site1_scalar(LaneRngBank& bank, int n, uint64_t t, LaneMask* f)
{
    uint64_t bits[kMaxBatchLanes];
    bank.step_compare_all(n, t, bits);
    pack_flag_words(bits, n, f);
}

void
site2_scalar(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2,
             LaneMask* f1, LaneMask* f2)
{
    uint64_t b1[kMaxBatchLanes], b2[kMaxBatchLanes], a1, a2;
    bank.step_compare2(n, t1, t2, b1, b2, &a1, &a2);
    pack_flag_words(b1, n, f1);
    pack_flag_words(b2, n, f2);
}

void
site3_scalar(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2,
             uint64_t t3, LaneMask* f1, LaneMask* f2, LaneMask* f3)
{
    uint64_t b1[kMaxBatchLanes], b2[kMaxBatchLanes], b3[kMaxBatchLanes];
    uint64_t a1, a2, a3;
    bank.step_compare3(n, t1, t2, t3, b1, b2, b3, &a1, &a2, &a3);
    pack_flag_words(b1, n, f1);
    pack_flag_words(b2, n, f2);
    pack_flag_words(b3, n, f3);
}

#if GLD_BATCH_SIMD_KERNELS

// GCC's avx512 intrinsic headers trip -Wmaybe-uninitialized false
// positives (the masked-op pass-through operand) at -O3; the kernels
// below never use masked pass-through forms.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// S consecutive draw-and-compare steps per lane group, state resident in
// registers across the S sites.  Padding lanes of a partial final group
// advance garbage (reseeded next batch) and their fire bits are masked
// off by the caller.  Each output f[s] spans ceil(n/64) words: an 8-lane
// group i lands in word i/8, byte i%8.

template <int S>
__attribute__((target("avx512f"), always_inline)) inline void
sites_avx512(LaneRngBank& bank, int n, const uint64_t* t,
             LaneMask* const* f)
{
    const int nw = (n + kBatchLanes - 1) / kBatchLanes;
    __m512i T[S];
    for (int s = 0; s < S; ++s)
        T[s] = _mm512_set1_epi64(static_cast<long long>(t[s]));
    // Word-major: the S fire accumulators of the word in flight stay in
    // scalar registers (constant indices) and store once per word — an
    // i>>3-indexed accumulator array would round-trip memory in the
    // hottest loop of the whole batch backend.
    for (int w = 0; w < nw; ++w) {
        LaneMask acc[S] = {};
        const int base = w * kBatchLanes;
        const int groups = (std::min(kBatchLanes, n - base) + 7) / 8;
        for (int g = 0; g < groups; ++g) {
            const int i = 8 * w + g;
            __m512i s0 = _mm512_load_si512(bank.raw_s0() + 8 * i);
            __m512i s1 = _mm512_load_si512(bank.raw_s1() + 8 * i);
            __m512i s2 = _mm512_load_si512(bank.raw_s2() + 8 * i);
            __m512i s3 = _mm512_load_si512(bank.raw_s3() + 8 * i);
            for (int s = 0; s < S; ++s) {
                const __m512i m5 =
                    _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
                const __m512i r7 = _mm512_rol_epi64(m5, 7);
                const __m512i r =
                    _mm512_add_epi64(r7, _mm512_slli_epi64(r7, 3));
                const __m512i t17 = _mm512_slli_epi64(s1, 17);
                s2 = _mm512_xor_si512(s2, s0);
                s3 = _mm512_xor_si512(s3, s1);
                s1 = _mm512_xor_si512(s1, s2);
                s0 = _mm512_xor_si512(s0, s3);
                s2 = _mm512_xor_si512(s2, t17);
                s3 = _mm512_rol_epi64(s3, 45);
                const __mmask8 hit = _mm512_cmplt_epu64_mask(
                    _mm512_srli_epi64(r, 11), T[s]);
                acc[s] |= static_cast<LaneMask>(hit) << (8 * g);
            }
            _mm512_store_si512(bank.raw_s0() + 8 * i, s0);
            _mm512_store_si512(bank.raw_s1() + 8 * i, s1);
            _mm512_store_si512(bank.raw_s2() + 8 * i, s2);
            _mm512_store_si512(bank.raw_s3() + 8 * i, s3);
        }
        for (int s = 0; s < S; ++s)
            f[s][w] = acc[s];
    }
}

__attribute__((target("avx512f"))) void
site1_avx512(LaneRngBank& bank, int n, uint64_t t, LaneMask* f)
{
    LaneMask* const fs[1] = {f};
    sites_avx512<1>(bank, n, &t, fs);
}

__attribute__((target("avx512f"))) void
site2_avx512(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2,
             LaneMask* f1, LaneMask* f2)
{
    const uint64_t t[2] = {t1, t2};
    LaneMask* const fs[2] = {f1, f2};
    sites_avx512<2>(bank, n, t, fs);
}

__attribute__((target("avx512f"))) void
site3_avx512(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2,
             uint64_t t3, LaneMask* f1, LaneMask* f2, LaneMask* f3)
{
    const uint64_t t[3] = {t1, t2, t3};
    LaneMask* const fs[3] = {f1, f2, f3};
    sites_avx512<3>(bank, n, t, fs);
}

// AVX2: a 4-lane group i lands in word i/16, nibble i%16.

template <int S>
__attribute__((target("avx2"), always_inline)) inline void
sites_avx2(LaneRngBank& bank, int n, const uint64_t* t, LaneMask* const* f)
{
    const int nw = (n + kBatchLanes - 1) / kBatchLanes;
    __m256i T[S];
    for (int s = 0; s < S; ++s)
        T[s] = _mm256_set1_epi64x(static_cast<long long>(t[s]));
#define GLD_ROL256(x, s) \
    _mm256_or_si256(_mm256_slli_epi64((x), (s)), \
                    _mm256_srli_epi64((x), 64 - (s)))
    // Word-major for register-resident accumulators, as in the AVX-512
    // kernel above.
    for (int w = 0; w < nw; ++w) {
        LaneMask acc[S] = {};
        const int base = w * kBatchLanes;
        const int groups = (std::min(kBatchLanes, n - base) + 3) / 4;
        for (int g = 0; g < groups; ++g) {
            const int i = 16 * w + g;
            __m256i s0 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(bank.raw_s0() + 4 * i));
            __m256i s1 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(bank.raw_s1() + 4 * i));
            __m256i s2 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(bank.raw_s2() + 4 * i));
            __m256i s3 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(bank.raw_s3() + 4 * i));
            for (int s = 0; s < S; ++s) {
                const __m256i m5 =
                    _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
                const __m256i r7 = GLD_ROL256(m5, 7);
                const __m256i r =
                    _mm256_add_epi64(r7, _mm256_slli_epi64(r7, 3));
                const __m256i t17 = _mm256_slli_epi64(s1, 17);
                s2 = _mm256_xor_si256(s2, s0);
                s3 = _mm256_xor_si256(s3, s1);
                s1 = _mm256_xor_si256(s1, s2);
                s0 = _mm256_xor_si256(s0, s3);
                s2 = _mm256_xor_si256(s2, t17);
                s3 = GLD_ROL256(s3, 45);
                // Both operands < 2^53, so the unsigned compare is a
                // signed subtraction's sign bit — movemask-able.
                const __m256i diff =
                    _mm256_sub_epi64(_mm256_srli_epi64(r, 11), T[s]);
                const int hit =
                    _mm256_movemask_pd(_mm256_castsi256_pd(diff));
                acc[s] |=
                    static_cast<LaneMask>(static_cast<unsigned>(hit))
                    << (4 * g);
            }
            _mm256_store_si256(
                reinterpret_cast<__m256i*>(bank.raw_s0() + 4 * i), s0);
            _mm256_store_si256(
                reinterpret_cast<__m256i*>(bank.raw_s1() + 4 * i), s1);
            _mm256_store_si256(
                reinterpret_cast<__m256i*>(bank.raw_s2() + 4 * i), s2);
            _mm256_store_si256(
                reinterpret_cast<__m256i*>(bank.raw_s3() + 4 * i), s3);
        }
        for (int s = 0; s < S; ++s)
            f[s][w] = acc[s];
    }
#undef GLD_ROL256
}

__attribute__((target("avx2"))) void
site1_avx2(LaneRngBank& bank, int n, uint64_t t, LaneMask* f)
{
    LaneMask* const fs[1] = {f};
    sites_avx2<1>(bank, n, &t, fs);
}

__attribute__((target("avx2"))) void
site2_avx2(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2,
           LaneMask* f1, LaneMask* f2)
{
    const uint64_t t[2] = {t1, t2};
    LaneMask* const fs[2] = {f1, f2};
    sites_avx2<2>(bank, n, t, fs);
}

__attribute__((target("avx2"))) void
site3_avx2(LaneRngBank& bank, int n, uint64_t t1, uint64_t t2, uint64_t t3,
           LaneMask* f1, LaneMask* f2, LaneMask* f3)
{
    const uint64_t t[3] = {t1, t2, t3};
    LaneMask* const fs[3] = {f1, f2, f3};
    sites_avx2<3>(bank, n, t, fs);
}

#pragma GCC diagnostic pop

#endif  // GLD_BATCH_SIMD_KERNELS

const SiteKernels&
site_kernels()
{
    static const SiteKernels k = [] {
#if GLD_BATCH_SIMD_KERNELS
        if (__builtin_cpu_supports("avx512f"))
            return SiteKernels{site1_avx512, site2_avx512, site3_avx512,
                               "avx512"};
        if (__builtin_cpu_supports("avx2"))
            return SiteKernels{site1_avx2, site2_avx2, site3_avx2, "avx2"};
#endif
        return SiteKernels{site1_scalar, site2_scalar, site3_scalar,
                           "portable"};
    }();
    return k;
}

}  // namespace

const char*
site_kernel_tier()
{
    return site_kernels().tier;
}

// Every decision site below mirrors sim/leakage_driver.cc (the scalar
// reference implementation) statement for statement: the scalar control
// flow runs per lane, draws come from that lane's stream in the scalar
// within-shot order, and only the state mutation and the draw mechanics
// are batched — word-wide masked primitives, and one vectorizable
// LaneRngBank pass per Bernoulli site instead of per-lane Rng calls.
// When editing, keep the two files side by side — the tier-1
// frame/batch_frame bit-equality gate (at every batch width) fails on
// any divergence.

BatchLeakageDriver::BatchLeakageDriver(const CssCode& code,
                                       const RoundCircuit& rc,
                                       const NoiseParams& np, Rng master,
                                       BatchStatePrimitives* state,
                                       int batch_words,
                                       NoiseSampling noise_sampling)
    : code_(&code), rc_(&rc), np_(np), rate_p_(np.p), rate_pl_(np.pl()),
      rate_mlr_(np.mlr_err()), master_rng_(master), words_(batch_words),
      sparse_(noise_sampling == NoiseSampling::kSparse), state_(state)
{
    if (batch_words < 1 || batch_words > kMaxBatchWords)
        throw std::invalid_argument(
            "BatchLeakageDriver: batch_words " +
            std::to_string(batch_words) + " outside [1, " +
            std::to_string(kMaxBatchWords) + "]");
    const size_t W = static_cast<size_t>(words_);
    const size_t nq = static_cast<size_t>(code.n_qubits());
    const size_t nc = static_cast<size_t>(code.n_checks());
    leaked_.assign(nq * W, 0);
    prev_meas_.assign(nc * W, 0);
    meas_flip_.assign(nc * W, 0);
    mlr_flag_.assign(nc * W, 0);
    detector_.assign(nc * W, 0);
    // Same fixed LRC partner per data qubit as the scalar driver.
    lrc_partner_.assign(static_cast<size_t>(code.n_data()), -1);
    for (int q = 0; q < code.n_data(); ++q) {
        if (!code.data_adjacency()[q].empty())
            lrc_partner_[static_cast<size_t>(q)] =
                code.data_adjacency()[q].front();
    }
    const int max_lanes = words_ * kBatchLanes;
    lane_oracles_.resize(static_cast<size_t>(max_lanes));
    for (int l = 0; l < max_lanes; ++l)
        lane_oracles_[static_cast<size_t>(l)].bind(this, l);
    // Like the scalar driver, shot 0's stream is live from construction
    // (one active lane) so primitive-level probing before any reset works.
    // Sparse mode never reads the lane bank: its one event stream (armed
    // the same way a first reset_shot_batch would arm it) replaces all
    // per-lane seeding work.
    if (sparse_) {
        sparse_reset(0);
    } else {
        for (int l = 0; l < max_lanes; ++l)
            lane_rng_.seed_lane(l, master_rng_.split(0));
    }
    active_[0] = 1;
    n_lanes_ = 1;
}

void
BatchLeakageDriver::reset_shot_batch(int n_lanes)
{
    const int max_lanes = words_ * kBatchLanes;
    if (n_lanes < 1 || n_lanes > max_lanes)
        throw std::invalid_argument(
            "reset_shot_batch: n_lanes " + std::to_string(n_lanes) +
            " outside [1, " + std::to_string(max_lanes) + "]");
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    n_lanes_ = n_lanes;
    // Active-lane span: full words below the boundary, a partial word at
    // it, empty words above (the boundary may fall mid-span).
    for (int w = 0; w < words_; ++w) {
        const int base = w * kBatchLanes;
        if (n_lanes - base >= kBatchLanes)
            active_[w] = ~0ull;
        else if (n_lanes - base > 0)
            active_[w] = (1ull << (n_lanes - base)) - 1;
        else
            active_[w] = 0;
    }
    if (sparse_) {
        // One event stream per batch, derived from the same master at the
        // batch's first shot index: events depend only on (seed, stream,
        // block, batch #), so thread counts and shard splits cannot move
        // them.  The geometric countdowns restart with the stream.
        sparse_reset(shots_started_);
    } else {
        // Lane l replays exactly the scalar driver's (shots_started_ +
        // l)-th shot: same master, same split id, same draw order — at
        // every K.
        for (int l = 0; l < n_lanes; ++l)
            lane_rng_.seed_lane(
                l,
                master_rng_.split(shots_started_ + static_cast<uint64_t>(l)));
    }
    shots_started_ += static_cast<uint64_t>(n_lanes);
    state_->reset_state();
}

void
BatchLeakageDriver::reset_for_block(Rng master)
{
    // Mirror of the constructor's tail under the new master — all lanes
    // seeded with split(0), lane 0 active, shot counter 0 — plus
    // explicit scrubbing of everything a previous block may have left:
    // flags, history, the per-check scratch spans (a fresh driver's are
    // zero-initialized), and the backend state.
    master_rng_ = master;
    shots_started_ = 0;
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    std::fill(meas_flip_.begin(), meas_flip_.end(), 0);
    std::fill(mlr_flag_.begin(), mlr_flag_.end(), 0);
    std::fill(detector_.begin(), detector_.end(), 0);
    first_round_ = true;
    if (sparse_) {
        sparse_reset(0);
    } else {
        const int max_lanes = words_ * kBatchLanes;
        for (int l = 0; l < max_lanes; ++l)
            lane_rng_.seed_lane(l, master_rng_.split(0));
    }
    for (int w = 0; w < words_; ++w)
        active_[w] = 0;
    active_[0] = 1;
    n_lanes_ = 1;
    state_->reset_state();
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::set_leak_t(int q, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask* lw = &leaked_[static_cast<size_t>(q) *
                            static_cast<size_t>(words_)];
    LaneMask rise[kMaxBatchWords];
    LaneMask any = 0;
    for (int w = 0; w < W; ++w) {
        rise[w] = lanes[w] & ~lw[w];
        any |= rise[w];
    }
    if (any == 0)
        return;
    for (int w = 0; w < W; ++w)
        lw[w] |= rise[w];
    state_->park_leaked(q, rise);
}

void
BatchLeakageDriver::set_leak(int q, const LaneMask* lanes)
{
    set_leak_t<0>(q, lanes);
}

void
BatchLeakageDriver::set_leak_lane(int q, int lane)
{
    LaneMask* lw = &leaked_[static_cast<size_t>(q) *
                            static_cast<size_t>(words_)];
    const int wi = lane >> 6;
    const LaneMask bit = 1ull << (lane & 63);
    if ((lw[wi] & bit) != 0)
        return;
    lw[wi] |= bit;
    LaneMask rise[kMaxBatchWords];
    lanes_zero(rise, words_);
    rise[wi] = bit;
    state_->park_leaked(q, rise);
}

int
BatchLeakageDriver::n_data_leaked(int lane) const
{
    const size_t W = static_cast<size_t>(words_);
    const size_t wi = static_cast<size_t>(lane >> 6);
    int n = 0;
    for (int q = 0; q < code_->n_data(); ++q)
        n += static_cast<int>(
            (leaked_[static_cast<size_t>(q) * W + wi] >> (lane & 63)) & 1u);
    return n;
}

int
BatchLeakageDriver::n_check_leaked(int lane) const
{
    const size_t W = static_cast<size_t>(words_);
    const size_t wi = static_cast<size_t>(lane >> 6);
    int n = 0;
    for (int c = 0; c < code_->n_checks(); ++c) {
        const size_t anc = static_cast<size_t>(code_->ancilla_of(c));
        n += static_cast<int>((leaked_[anc * W + wi] >> (lane & 63)) & 1u);
    }
    return n;
}

uint64_t
BatchLeakageDriver::sparse_geometric(const LaneRate& rate)
{
    // u in (2^-53, 1]: the +1 keeps log() finite and makes skip == 0
    // (an immediate event) land exactly on probability p.  floor(log(u)
    // / log(1-p)) is the standard inverse-CDF geometric: the number of
    // quiet (site x lane) positions before the next firing one.
    const double u =
        (static_cast<double>(event_rng_.next_u64() >> 11) + 1.0) *
        0x1.0p-53;
    const double s = __builtin_log(u) * rate.inv_log1mp;
    // Clamp the astronomically-rare huge skip below the double->uint64
    // UB edge; a countdown this long outlives any real work unit anyway.
    if (s >= 9.0e18)
        return static_cast<uint64_t>(9.0e18);
    return static_cast<uint64_t>(s);
}

int
BatchLeakageDriver::kth_set_lane(const LaneMask* mask, int n_words,
                                 uint64_t k)
{
    for (int w = 0; w < n_words; ++w) {
        const uint64_t pc =
            static_cast<uint64_t>(__builtin_popcountll(mask[w]));
        if (k < pc) {
            LaneMask m = mask[w];
            for (uint64_t i = 0; i < k; ++i)
                m &= m - 1;  // clear the k lowest set bits
            return w * kBatchLanes + __builtin_ctzll(m);
        }
        k -= pc;
    }
    return -1;  // unreachable while k < popcount(mask)
}

template <int WT>
inline LaneMask
BatchLeakageDriver::sparse_bernoulli_mask(LaneRate& rate,
                                          const LaneMask* mask,
                                          LaneMask* out)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask any_mask = 0;
    for (int w = 0; w < W; ++w) {
        out[w] = 0;
        any_mask |= mask[w];
    }
    // Degenerate rates short-circuit with zero draws, like lockstep's
    // (and Rng::bernoulli's) no-draw contract.
    if (rate.never || any_mask == 0)
        return 0;
    if (rate.always) {
        for (int w = 0; w < W; ++w)
            out[w] = mask[w];
        return any_mask;
    }
    uint64_t count = 0;
    for (int w = 0; w < W; ++w)
        count += static_cast<uint64_t>(__builtin_popcountll(mask[w]));
    if (!rate.skip_valid) {
        rate.skip = sparse_geometric(rate);
        rate.skip_valid = true;
    }
    if (rate.skip >= count) {
        // The quiet site — the overwhelmingly common case at paper noise
        // rates: a few popcounts and one subtraction, zero RNG work.
        rate.skip -= count;
        return 0;
    }
    // Walk the events inside this site's candidate positions, ascending
    // global lane order (the deterministic event order the bit-identity
    // gate pins).
    uint64_t k = rate.skip;
    while (k < count) {
        set_lane_bit(out, kth_set_lane(mask, W, k));
        k += 1 + sparse_geometric(rate);
    }
    rate.skip = k - count;
    LaneMask any = 0;
    for (int w = 0; w < W; ++w)
        any |= out[w];
    return any;
}

template <int WT>
__attribute__((always_inline)) inline LaneMask
BatchLeakageDriver::bernoulli_mask(LaneRate& rate,
                                   const LaneMask* mask, LaneMask* out)
{
    if (sparse_)
        return sparse_bernoulli_mask<WT>(rate, mask, out);
    const int W = WT > 0 ? WT : words_;
    LaneMask any_mask = 0;
    for (int w = 0; w < W; ++w)
        any_mask |= mask[w];
    // Rng::bernoulli consumes NO draw at p <= 0 or p >= 1; neither may we.
    if (rate.never || any_mask == 0) {
        lanes_zero(out, W);
        return 0;
    }
    if (rate.always) {
        for (int w = 0; w < W; ++w)
            out[w] = mask[w];
        return any_mask;
    }
    LaneMask uncovered = 0;
    for (int w = 0; w < W; ++w)
        uncovered |= active_[w] & ~mask[w];
    if (uncovered == 0) {
        // Full-width site: one CPU-dispatched kernel pass (padding lanes
        // advance harmlessly — reseeded next batch, never observed).
        site_kernels().one(lane_rng_, n_lanes_, rate.thresh, out);
        LaneMask any = 0;
        for (int w = 0; w < W; ++w) {
            out[w] &= mask[w];
            any |= out[w];
        }
        return any;
    }
    // Partial site (e.g. a reset skipping leaked lanes): masked step so
    // only the mask's lanes advance, then the branchless compare —
    // (a - t) has its sign bit set iff a < t (both fit in 53 bits).
    lane_rng_.step_masked(n_lanes_, mask, draw_);
    uint64_t any = 0;
    for (int l = 0; l < n_lanes_; ++l) {
        // Mask during the compare: non-mask lanes' draw word is 0,
        // which would otherwise read as a spurious fire.
        bits_[l] = (((draw_[l] >> 11) - rate.thresh) >> 63) &
                   ((mask[l >> 6] >> (l & 63)) & 1u);
        any |= bits_[l];
    }
    if (any == 0) {
        lanes_zero(out, W);
        return 0;
    }
    pack_bits(n_lanes_, out);
    LaneMask any_out = 0;
    for (int w = 0; w < W; ++w) {
        out[w] &= mask[w];
        any_out |= out[w];
    }
    return any_out;
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize1(int q)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) == 0)
        return;
    LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
    lanes_zero(xs, W);
    lanes_zero(zs, W);
    for_each_lane(fired, W, [&](int l) {
        const uint32_t pauli = 1 + payload_uniform_int(l, 3);
        xs[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
        zs[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u) << (l & 63);
    });
    state_->apply_pauli(q, xs, zs);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::depolarize2(int q0, int q1)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) == 0)
        return;
    LaneMask x0[kMaxBatchWords], z0[kMaxBatchWords];
    LaneMask x1[kMaxBatchWords], z1[kMaxBatchWords];
    lanes_zero(x0, W);
    lanes_zero(z0, W);
    lanes_zero(x1, W);
    lanes_zero(z1, W);
    for_each_lane(fired, W, [&](int l) {
        const uint32_t pauli = 1 + payload_uniform_int(l, 15);
        x0[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
        z0[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u) << (l & 63);
        x1[l >> 6] |= static_cast<LaneMask>((pauli >> 2) & 1u) << (l & 63);
        z1[l >> 6] |= static_cast<LaneMask>((pauli >> 3) & 1u) << (l & 63);
    });
    if (lanes_any(x0, W) | lanes_any(z0, W))
        state_->apply_pauli(q0, x0, z0);
    if (lanes_any(x1, W) | lanes_any(z1, W))
        state_->apply_pauli(q1, x1, z1);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::leak_maybe(int q)
{
    LaneMask leak[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_pl_, active_, leak) != 0)
        set_leak_t<WT>(q, leak);
}

// The fused multi-site passes below draw two/three consecutive Bernoulli
// sites per lane in ONE pass over the lane-RNG state (the state lives in
// registers between the sites instead of round-tripping memory per
// site).  Scalar draw order per lane is site1, [payload if fired],
// site2, ...; the pass optimistically draws the later sites first, so a
// lane that fires a payload-bearing site1 is REPAIRED: rewind its
// stream past the optimistic draws (exact xoshiro inverse), insert the
// payload draw, then redraw the later sites.  Fires are O(p) rare; the
// repair is per-lane scalar.

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::data_noise_pair(int q)
{
    // depolarize1(q) then leak_maybe(q), fused.  Degenerate rates fall
    // back to the single-site path (which replicates Rng::bernoulli's
    // draw-skipping exactly).  Sparse mode always takes it: its sites
    // route through the event sampler, which has no lane streams to fuse
    // — and on a quiet round both sites cost zero draws anyway.
    if (sparse_ || rate_p_.never || rate_p_.always || rate_pl_.never ||
        rate_pl_.always) {
        depolarize1<WT>(q);
        leak_maybe<WT>(q);
        return;
    }
    const int W = WT > 0 ? WT : words_;
    LaneMask f1[kMaxBatchWords], f2[kMaxBatchWords];
    site_kernels().two(lane_rng_, n_lanes_, rate_p_.thresh,
                       rate_pl_.thresh, f1, f2);
    LaneMask leak[kMaxBatchWords], fired[kMaxBatchWords];
    LaneMask any_fired = 0;
    for (int w = 0; w < W; ++w) {
        leak[w] = f2[w] & active_[w];
        fired[w] = f1[w] & active_[w];
        any_fired |= fired[w];
    }
    if (any_fired != 0) {
        LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
        lanes_zero(xs, W);
        lanes_zero(zs, W);
        for_each_lane(fired, W, [&](int l) {
            // Scalar order repair: rewind past the optimistic leak draw,
            // draw the Pauli payload, then redraw the leak site.
            lane_rng_.unstep_lane(l);
            const uint32_t pauli = 1 + lane_rng_.uniform_int_lane(l, 3);
            xs[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
            zs[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                          << (l & 63);
            const uint64_t redraw = lane_rng_.next_lane(l);
            const LaneMask bit = 1ull << (l & 63);
            if ((((redraw >> 11) - rate_pl_.thresh) >> 63) != 0)
                leak[l >> 6] |= bit;
            else
                leak[l >> 6] &= ~bit;
        });
        state_->apply_pauli(q, xs, zs);
    }
    if (lanes_any(leak, W) != 0)
        set_leak_t<WT>(q, leak);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::cnot_noise_triple(int control, int target)
{
    // depolarize2(control, target), leak_maybe(control),
    // leak_maybe(target) — the gate-noise tail of every CNOT — fused.
    // Sparse mode bypasses the fusion (and its rewind/repair machinery)
    // entirely, like data_noise_pair.
    if (sparse_ || rate_p_.never || rate_p_.always || rate_pl_.never ||
        rate_pl_.always) {
        depolarize2<WT>(control, target);
        leak_maybe<WT>(control);
        leak_maybe<WT>(target);
        return;
    }
    const int W = WT > 0 ? WT : words_;
    LaneMask f1[kMaxBatchWords], f2[kMaxBatchWords], f3[kMaxBatchWords];
    site_kernels().three(lane_rng_, n_lanes_, rate_p_.thresh,
                         rate_pl_.thresh, rate_pl_.thresh, f1, f2, f3);
    LaneMask leak_c[kMaxBatchWords], leak_t[kMaxBatchWords];
    LaneMask fired[kMaxBatchWords];
    LaneMask any_fired = 0;
    for (int w = 0; w < W; ++w) {
        leak_c[w] = f2[w] & active_[w];
        leak_t[w] = f3[w] & active_[w];
        fired[w] = f1[w] & active_[w];
        any_fired |= fired[w];
    }
    if (any_fired != 0) {
        LaneMask x0[kMaxBatchWords], z0[kMaxBatchWords];
        LaneMask x1[kMaxBatchWords], z1[kMaxBatchWords];
        lanes_zero(x0, W);
        lanes_zero(z0, W);
        lanes_zero(x1, W);
        lanes_zero(z1, W);
        for_each_lane(fired, W, [&](int l) {
            lane_rng_.unstep_lane(l);
            lane_rng_.unstep_lane(l);
            const uint32_t pauli = 1 + lane_rng_.uniform_int_lane(l, 15);
            x0[l >> 6] |= static_cast<LaneMask>(pauli & 1u) << (l & 63);
            z0[l >> 6] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                          << (l & 63);
            x1[l >> 6] |= static_cast<LaneMask>((pauli >> 2) & 1u)
                          << (l & 63);
            z1[l >> 6] |= static_cast<LaneMask>((pauli >> 3) & 1u)
                          << (l & 63);
            const LaneMask bit = 1ull << (l & 63);
            const uint64_t rc_draw = lane_rng_.next_lane(l);
            if ((((rc_draw >> 11) - rate_pl_.thresh) >> 63) != 0)
                leak_c[l >> 6] |= bit;
            else
                leak_c[l >> 6] &= ~bit;
            const uint64_t rt_draw = lane_rng_.next_lane(l);
            if ((((rt_draw >> 11) - rate_pl_.thresh) >> 63) != 0)
                leak_t[l >> 6] |= bit;
            else
                leak_t[l >> 6] &= ~bit;
        });
        if (lanes_any(x0, W) | lanes_any(z0, W))
            state_->apply_pauli(control, x0, z0);
        if (lanes_any(x1, W) | lanes_any(z1, W))
            state_->apply_pauli(target, x1, z1);
    }
    if (lanes_any(leak_c, W) != 0)
        set_leak_t<WT>(control, leak_c);
    if (lanes_any(leak_t, W) != 0)
        set_leak_t<WT>(target, leak_t);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::cnot(int control, int target)
{
    const int W = WT > 0 ? WT : words_;
    const LaneMask* cl = leaked(control);
    const LaneMask* tl = leaked(target);
    LaneMask clean[kMaxBatchWords], branch[kMaxBatchWords];
    LaneMask any_clean = 0, any_branch = 0;
    for (int w = 0; w < W; ++w) {
        clean[w] = active_[w] & ~cl[w] & ~tl[w];
        any_clean |= clean[w];
        // Exactly-one-leaked lanes take the malfunction/transport
        // branches; both-leaked lanes do nothing observable (scalar
        // semantics).
        branch[w] = active_[w] & (cl[w] ^ tl[w]);
        any_branch |= branch[w];
    }
    if (any_clean != 0)
        state_->coherent_cnot(control, target, clean);

    if (any_branch != 0) {
        // The malfunction shape is lane-independent — whether the
        // disturbed partner is an ancilla is a property of the circuit,
        // not the shot.
        LaneMask transport[kMaxBatchWords];
        LaneMask xs_c[kMaxBatchWords], zs_c[kMaxBatchWords];
        LaneMask xs_t[kMaxBatchWords], zs_t[kMaxBatchWords];
        lanes_zero(transport, W);
        lanes_zero(xs_c, W);
        lanes_zero(zs_c, W);
        lanes_zero(xs_t, W);
        lanes_zero(zs_t, W);
        const bool t_is_anc = target >= code_->n_data();
        const bool c_is_anc = control >= code_->n_data();
        for_each_lane(branch, W, [&](int l) {
            const int wi = l >> 6;
            const LaneMask bit = 1ull << (l & 63);
            if ((cl[wi] & bit) != 0) {
                // Leaked control: transport with prob `mobility`, else
                // the target partner is disturbed.
                if (payload_bernoulli(l, np_.mobility)) {
                    transport[wi] |= bit;
                } else if (t_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT target is Z-measured: 50% X flip.
                    if (payload_bit(l))
                        xs_t[wi] |= bit;
                } else {
                    const uint32_t pauli = payload_uniform_int(l, 4);
                    xs_t[wi] |= static_cast<LaneMask>(pauli & 1u)
                                << (l & 63);
                    zs_t[wi] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                                << (l & 63);
                }
            } else {
                // Leaked target: the control partner is disturbed.
                if (c_is_anc && !np_.leaked_gate_backaction) {
                    // Ancilla CNOT control (X check, between its
                    // Hadamards) is X-measured: 50% Z flip.
                    if (payload_bit(l))
                        zs_c[wi] |= bit;
                } else {
                    const uint32_t pauli = payload_uniform_int(l, 4);
                    xs_c[wi] |= static_cast<LaneMask>(pauli & 1u)
                                << (l & 63);
                    zs_c[wi] |= static_cast<LaneMask>((pauli >> 1) & 1u)
                                << (l & 63);
                }
            }
        });
        if (lanes_any(xs_t, W) | lanes_any(zs_t, W))
            state_->apply_pauli(target, xs_t, zs_t);
        if (lanes_any(xs_c, W) | lanes_any(zs_c, W))
            state_->apply_pauli(control, xs_c, zs_c);
        if (lanes_any(transport, W) != 0) {
            set_leak_t<WT>(target, transport);
            clear_leak(control, transport);
        }
    }

    cnot_noise_triple<WT>(control, target);
}

inline void
BatchLeakageDriver::apply_lrc_data(int q, int lane)
{
    const int wi = lane >> 6;
    const LaneMask bit = 1ull << (lane & 63);
    const size_t W = static_cast<size_t>(words_);
    const int pc = lrc_partner_[static_cast<size_t>(q)];
    if (pc >= 0) {
        const int anc = code_->ancilla_of(pc);
        const bool anc_was_leaked =
            (leaked_[static_cast<size_t>(anc) * W +
                     static_cast<size_t>(wi)] &
             bit) != 0;
        clear_leak_lane(q, lane);
        clear_leak_lane(anc, lane);
        if (anc_was_leaked)
            set_leak_lane(q, lane);  // false-positive LRC pumps the leak IN
    } else {
        clear_leak_lane(q, lane);
    }
    if (payload_bernoulli(lane, np_.lrc_depol())) {
        const uint32_t pauli = 1 + payload_uniform_int(lane, 3);
        LaneMask xs[kMaxBatchWords], zs[kMaxBatchWords];
        lanes_zero(xs, words_);
        lanes_zero(zs, words_);
        xs[wi] = (pauli & 1u) != 0 ? bit : 0;
        zs[wi] = (pauli & 2u) != 0 ? bit : 0;
        state_->apply_pauli(q, xs, zs);
    }
    if (payload_bernoulli(lane, np_.lrc_leak()))
        set_leak_lane(q, lane);
}

inline void
BatchLeakageDriver::apply_lrc_check(int c, int lane)
{
    const int wi = lane >> 6;
    const LaneMask bit = 1ull << (lane & 63);
    const int anc = code_->ancilla_of(c);
    clear_leak_lane(anc, lane);
    LaneMask one[kMaxBatchWords];
    lanes_zero(one, words_);
    one[wi] = bit;
    state_->reset_z(anc, one);
    if (payload_bernoulli(lane, np_.lrc_leak()))
        set_leak_lane(anc, lane);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::run_round_t(const std::vector<LrcSchedule>& lane_lrcs,
                                std::vector<RoundResult>* out)
{
    if (lane_lrcs.size() < static_cast<size_t>(n_lanes_))
        throw std::invalid_argument(
            "run_round_batch: " + std::to_string(lane_lrcs.size()) +
            " schedules for " + std::to_string(n_lanes_) + " lanes");
    const int n_checks = code_->n_checks();
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);

    // 1. Scheduled LRC gadgets, per lane in that lane's schedule order
    //    (each lane draws only from its own stream, so lane interleaving
    //    is free to be loop order).  Every id is checked before any
    //    gadget runs, so a bad schedule leaves the batch untouched.
    for (int l = 0; l < n_lanes_; ++l)
        check_lrc_schedule(lane_lrcs[static_cast<size_t>(l)], l,
                           code_->n_data(), n_checks);
    for (int l = 0; l < n_lanes_; ++l) {
        const LrcSchedule& sched = lane_lrcs[static_cast<size_t>(l)];
        for (int q : sched.data_qubits)
            apply_lrc_data(q, l);
        for (int c : sched.checks)
            apply_lrc_check(c, l);
    }

    // 2. Round-start data noise (fused pair per qubit).
    for (int q = 0; q < code_->n_data(); ++q)
        data_noise_pair<WT>(q);

    // 3. The scheduled extraction circuit, word-wide.
    for (const Op& op : rc_->ops()) {
        switch (op.type) {
          case OpType::kResetZ: {
            // Reset skips leaked lanes entirely: no state touch, no
            // init-error draw (scalar semantics) — hence the masked site.
            const LaneMask* lq = leaked(op.q0);
            LaneMask ok[kMaxBatchWords];
            LaneMask any_ok = 0;
            for (int w = 0; w < W; ++w) {
                ok[w] = active_[w] & ~lq[w];
                any_ok |= ok[w];
            }
            if (any_ok != 0) {
                state_->reset_z(op.q0, ok);
                LaneMask flip[kMaxBatchWords];
                if (bernoulli_mask<WT>(rate_p_, ok, flip) != 0) {
                    LaneMask none[kMaxBatchWords];
                    lanes_zero(none, W);
                    state_->apply_pauli(op.q0, flip, none);
                }
            }
            break;
          }
          case OpType::kH: {
            const LaneMask* lq = leaked(op.q0);
            LaneMask ok[kMaxBatchWords];
            LaneMask any_ok = 0;
            for (int w = 0; w < W; ++w) {
                ok[w] = active_[w] & ~lq[w];
                any_ok |= ok[w];
            }
            if (any_ok != 0)
                state_->hadamard(op.q0, ok);
            depolarize1<WT>(op.q0);
            break;
          }
          case OpType::kCnot:
            cnot<WT>(op.q0, op.q1);
            break;
          case OpType::kMeasure: {
            const int anc = op.q0;
            const LaneMask* la = leaked(anc);
            LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
            LaneMask any_lk = 0;
            for (int w = 0; w < W; ++w) {
                lk[w] = active_[w] & la[w];
                ok[w] = active_[w] & ~lk[w];
                any_lk |= lk[w];
            }
            // One word-wide readout; leaked lanes' bits are discarded
            // and replaced by that lane's random-outcome draw.  Every
            // active lane consumes exactly one word here — leaked lanes
            // as Rng::bit, the rest as the readout-error Bernoulli — so
            // one full-width step serves the whole site.  (At p <= 0 or
            // p >= 1 the clean lanes must NOT draw, like Rng::bernoulli.)
            LaneMask measured[kMaxBatchWords];
            state_->measure_z(anc, measured);
            LaneMask* flip =
                &meas_flip_[static_cast<size_t>(op.mslot) * Ws];
            LaneMask* mlrw =
                &mlr_flag_[static_cast<size_t>(op.mslot) * Ws];
            if (sparse_) {
                // Event-driven readout: the error site draws over the
                // non-leaked lanes only, leaked lanes coin-flip from the
                // event stream (ascending lane order), and the MLR site
                // is one more event pass — a quiet site costs nothing.
                LaneMask err[kMaxBatchWords];
                sparse_bernoulli_mask<WT>(rate_p_, ok, err);
                LaneMask rnd[kMaxBatchWords];
                lanes_zero(rnd, W);
                if (any_lk != 0) {
                    for_each_lane(lk, W, [&](int l) {
                        if (event_rng_.bit())
                            rnd[l >> 6] |= 1ull << (l & 63);
                    });
                }
                for (int w = 0; w < W; ++w)
                    flip[w] = ((measured[w] ^ err[w]) & ok[w]) |
                              (rnd[w] & lk[w]);
                LaneMask mlrt[kMaxBatchWords];
                sparse_bernoulli_mask<WT>(rate_mlr_, active_, mlrt);
                for (int w = 0; w < W; ++w)
                    mlrw[w] = lk[w] ^ mlrt[w];
                break;
            }
            if (!rate_p_.never && !rate_p_.always) {
                if (any_lk == 0 && !rate_mlr_.never && !rate_mlr_.always) {
                    // No leaked lane: readout error + MLR error as one
                    // fused double site (the usual case; neither site
                    // has a payload draw, so no repair can be needed).
                    LaneMask err[kMaxBatchWords], mlrf[kMaxBatchWords];
                    site_kernels().two(lane_rng_, n_lanes_,
                                       rate_p_.thresh, rate_mlr_.thresh,
                                       err, mlrf);
                    for (int w = 0; w < W; ++w) {
                        flip[w] =
                            (measured[w] ^ (err[w] & active_[w])) & ok[w];
                        mlrw[w] = mlrf[w] & active_[w];
                    }
                    break;
                }
                if (any_lk == 0) {
                    // No leaked lane: pure readout-error site.
                    LaneMask err[kMaxBatchWords];
                    site_kernels().one(lane_rng_, n_lanes_,
                                       rate_p_.thresh, err);
                    for (int w = 0; w < W; ++w)
                        flip[w] =
                            (measured[w] ^ (err[w] & active_[w])) & ok[w];
                    bernoulli_mask<WT>(rate_mlr_, active_, mlrw);
                    break;
                }
                lane_rng_.step_all(n_lanes_, draw_);
                // Readout error via the branchless compare + quiet-site
                // early-out (see bernoulli_mask); leaked lanes reuse the
                // same one-word draw as their Rng::bit outcome.
                uint64_t any = 0;
                for (int l = 0; l < n_lanes_; ++l) {
                    bits_[l] = ((draw_[l] >> 11) - rate_p_.thresh) >> 63;
                    any |= bits_[l];
                }
                LaneMask err[kMaxBatchWords];
                if (any != 0)
                    pack_bits(n_lanes_, err);
                else
                    lanes_zero(err, W);
                LaneMask rnd[kMaxBatchWords];
                lanes_zero(rnd, W);
                for_each_lane(lk, W, [&](int l) {
                    rnd[l >> 6] |= (draw_[l] >> 63) << (l & 63);
                });
                for (int w = 0; w < W; ++w)
                    flip[w] = ((measured[w] ^ err[w]) & ok[w]) |
                              (rnd[w] & lk[w]);
            } else {
                lane_rng_.step_masked(n_lanes_, lk, draw_);
                LaneMask rnd[kMaxBatchWords];
                lanes_zero(rnd, W);
                for_each_lane(lk, W, [&](int l) {
                    rnd[l >> 6] |= (draw_[l] >> 63) << (l & 63);
                });
                for (int w = 0; w < W; ++w) {
                    const LaneMask err = rate_p_.always ? ok[w] : 0;
                    flip[w] = ((measured[w] ^ err) & ok[w]) |
                              (rnd[w] & lk[w]);
                }
            }
            // MLR leak flag with symmetric misclassification.
            LaneMask mlrt[kMaxBatchWords];
            bernoulli_mask<WT>(rate_mlr_, active_, mlrt);
            for (int w = 0; w < W; ++w)
                mlrw[w] = lk[w] ^ mlrt[w];
            break;
          }
        }
    }

    // 4. Detector words (also advances prev_meas_): together with the
    //    meas-flip and MLR words, the round's live word views.
    for (int c = 0; c < n_checks; ++c) {
        const bool zero_det =
            first_round_ && code_->check(c).type == CheckType::kX;
        for (int w = 0; w < W; ++w) {
            const size_t i = static_cast<size_t>(c) * Ws +
                             static_cast<size_t>(w);
            const LaneMask meas = meas_flip_[i];
            detector_[i] = zero_det ? 0 : meas ^ prev_meas_[i];
            prev_meas_[i] = meas;
        }
    }
    first_round_ = false;
    if (out == nullptr)
        return;

    // 5. Per-lane RoundResults on request (the transposes).
    round_words_to_results(meas_flip_.data(), detector_.data(),
                           mlr_flag_.data(), n_checks, W, n_lanes_, out);
}

// The cloned shells: one words_ dispatch per round (not per op) picks a
// compile-time-width body, which inlines whole into each target clone —
// the W loops unroll away (at the common W=1 every span op degenerates
// to single-word straight-line code) AND the inlined helpers get the
// clone's ISA for free.  GCC can't target_clones a template, hence the
// shell + always_inline-template split.
GLD_BATCH_HOT
void
BatchLeakageDriver::run_round_batch(const std::vector<LrcSchedule>& lane_lrcs,
                                    std::vector<RoundResult>* out)
{
    switch (words_) {
      case 1: run_round_t<1>(lane_lrcs, out); break;
      case 2: run_round_t<2>(lane_lrcs, out); break;
      case 4: run_round_t<4>(lane_lrcs, out); break;
      case 8: run_round_t<8>(lane_lrcs, out); break;
      default: run_round_t<0>(lane_lrcs, out); break;
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchLeakageDriver::final_measure_t(std::vector<std::vector<uint8_t>>* out)
{
    const int W = WT > 0 ? WT : words_;
    out->resize(static_cast<size_t>(n_lanes_));
    for (int l = 0; l < n_lanes_; ++l)
        (*out)[static_cast<size_t>(l)].assign(
            static_cast<size_t>(code_->n_data()), 0);
    for (int q = 0; q < code_->n_data(); ++q) {
        const LaneMask* lq = leaked(q);
        LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
        for (int w = 0; w < W; ++w) {
            lk[w] = active_[w] & lq[w];
            ok[w] = active_[w] & ~lk[w];
        }
        LaneMask measured[kMaxBatchWords];
        state_->measure_z(q, measured);
        LaneMask flip[kMaxBatchWords];
        if (sparse_) {
            LaneMask err[kMaxBatchWords];
            sparse_bernoulli_mask<WT>(rate_p_, ok, err);
            LaneMask rnd[kMaxBatchWords];
            lanes_zero(rnd, W);
            for_each_lane(lk, W, [&](int l) {
                if (event_rng_.bit())
                    rnd[l >> 6] |= 1ull << (l & 63);
            });
            for (int w = 0; w < W; ++w)
                flip[w] = ((measured[w] ^ err[w]) & ok[w]) |
                          (rnd[w] & lk[w]);
        } else if (!rate_p_.never && !rate_p_.always) {
            lane_rng_.step_all(n_lanes_, draw_);
            for (int w = 0; w * kBatchLanes < n_lanes_; ++w) {
                const int base = w * kBatchLanes;
                const int lim = std::min(kBatchLanes, n_lanes_ - base);
                LaneMask rnd = 0, err = 0;
                for (int b = 0; b < lim; ++b) {
                    rnd |= (draw_[base + b] >> 63) << b;
                    err |= static_cast<LaneMask>(
                               (draw_[base + b] >> 11) < rate_p_.thresh)
                           << b;
                }
                flip[w] = ((measured[w] ^ err) & ok[w]) | (rnd & lk[w]);
            }
        } else {
            lane_rng_.step_masked(n_lanes_, lk, draw_);
            LaneMask rnd[kMaxBatchWords];
            lanes_zero(rnd, W);
            for_each_lane(lk, W, [&](int l) {
                rnd[l >> 6] |= (draw_[l] >> 63) << (l & 63);
            });
            for (int w = 0; w < W; ++w) {
                const LaneMask err = rate_p_.always ? ok[w] : 0;
                flip[w] = ((measured[w] ^ err) & ok[w]) | (rnd[w] & lk[w]);
            }
        }
        for (int l = 0; l < n_lanes_; ++l)
            (*out)[static_cast<size_t>(l)][static_cast<size_t>(q)] =
                static_cast<uint8_t>((flip[l >> 6] >> (l & 63)) & 1u);
    }
}

GLD_BATCH_HOT
void
BatchLeakageDriver::final_data_measure_batch(
    std::vector<std::vector<uint8_t>>* out)
{
    switch (words_) {
      case 1: final_measure_t<1>(out); break;
      case 2: final_measure_t<2>(out); break;
      case 4: final_measure_t<4>(out); break;
      case 8: final_measure_t<8>(out); break;
      default: final_measure_t<0>(out); break;
    }
}

// --- BatchLeakageDriverSim scalar adapters. ---

RoundResult
BatchLeakageDriverSim::run_round(const LrcSchedule& lrcs)
{
    one_lrcs_[0] = lrcs;
    driver_.run_round_batch(one_lrcs_, &one_round_);
    return one_round_[0];
}

std::vector<uint8_t>
BatchLeakageDriverSim::final_data_measure()
{
    driver_.final_data_measure_batch(&one_flips_);
    return one_flips_[0];
}

}  // namespace gld
