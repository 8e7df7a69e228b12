#include <cstddef>
#include "runtime/experiment.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/policy_eraser.h"
#include "core/policy_gladiator.h"
#include "core/policy_static.h"
#include "decode/dem_builder.h"
#include "sim/lane_span.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gld {

/**
 * One executor slot's reusable block state.  Everything a block used to
 * construct or allocate per (stream, block) lives here instead, owned by
 * the slot for the whole run_partials loop: the simulator is
 * reset_for_block()-ed per block, policies are rebuilt never (begin_batch
 * is the per-batch reset), the decoder keeps its arena, and the scratch
 * vectors keep their capacity (assign/resize write the same initial
 * values a fresh vector would hold, so reuse is bit-identical to fresh —
 * the determinism gate's reuse ≡ fresh arm runs with
 * cfg.reuse_worker_state = false, which clears this struct per block).
 * alignas: adjacent slots' vector headers must not share a cache line.
 */
struct alignas(64) ExperimentRunner::BlockResources {
    std::unique_ptr<BatchSimulator> sim;
    /** The slot's one batched policy: the factory's own when it is
     *  batched(), else `adapter` wrapping per-lane instances. */
    std::unique_ptr<Policy> policy;
    LaneAdapterPolicy* adapter = nullptr;  ///< == policy when wrapping
    std::unique_ptr<UnionFindDecoder> decoder;

    // Per-block scratch (mirrors the locals a fresh block would hold).
    LrcWords lrc;  ///< the policy's masks, straight into the simulator
    std::vector<std::vector<uint8_t>> flips;
    std::vector<int> data_leaked;  ///< per lane; telemetry's leak_hist only
    std::vector<std::vector<int>> defects;  ///< per lane, ascending node ids
};

ExperimentRunner::ExperimentRunner(const CodeContext& ctx,
                                   const ExperimentConfig& cfg)
    : ctx_(&ctx), cfg_(cfg)
{
    if (cfg_.compute_ler) {
        DemBuilder dem(ctx.code(), ctx.rc(), cfg_.np, cfg_.rounds);
        graph_ = std::make_shared<DecodingGraph>(dem.build());
        z_checks_ = ctx.code().checks_of_type(CheckType::kZ);
    }
}

Metrics
ExperimentRunner::run_block(const PolicyFactory& factory, int stream,
                            int block, const DecodingGraph* graph,
                            telemetry::Record* telem,
                            BlockResources* res) const
{
    const CssCode& code = ctx_->code();
    const int n_data = code.n_data();
    const int n_checks = code.n_checks();
    const int rounds = cfg_.rounds;
    const int total = stream_shots(cfg_, stream);
    const int block_start = block * kShotBlock;
    const int shots = std::min(kShotBlock, total - block_start);

    // The reuse ≡ fresh control arm: discarding the slot's cached state
    // per block reproduces the pre-reuse fresh-construction path exactly.
    if (!cfg_.reuse_worker_state)
        *res = BlockResources{};

    // Telemetry is a pure side channel: the StageClock and the counters
    // below never draw randomness and never feed a result-bearing sum,
    // and every call is a no-op when `telem` is null (no collector
    // attached).  The heatmap
    // and the leak histogram are read off the ground-truth leak words, a
    // read-only view of the same flags.
    telemetry::StageClock clock(telem);

    Metrics m;
    m.rounds_per_shot = rounds;
    if (cfg_.record_dlp_series)
        m.dlp_series.assign(static_cast<size_t>(rounds), 0.0);

    // Every (stream, block) work unit owns three independent derived
    // generators — simulator, leakage-sampling shot draws, policy seed —
    // reached by nested splits off the config seed.  The derivation
    // depends only on (seed, stream, block), never on the thread that
    // happens to execute the unit, so any schedule produces the same
    // draws.  Disjoint leaf ids per block keep generators uncorrelated.
    const Rng block_master =
        Rng(cfg_.seed).split(static_cast<uint64_t>(stream))
            .split(static_cast<uint64_t>(block));
    Rng shot_rng = block_master.split(1);
    const uint64_t sim_seed = block_master.split(0).next_u64();
    // The slot's cached simulator, reset to exactly what a fresh
    // make_simulator(..., sim_seed, ...) would be — the steady state
    // allocates nothing here.
    if (res->sim == nullptr)
        res->sim = make_simulator(cfg_.backend, code, ctx_->rc(), cfg_.np,
                                  sim_seed, 1, cfg_.noise_sampling);
    else
        res->sim->reset_for_block(sim_seed);
    BatchSimulator& sim = *res->sim;
    const uint64_t policy_seed = block_master.split(2).next_u64();
    clock.lap(telemetry::kSim);  // simulator reset/construction

    // Every backend takes the block as lockstep shot batches of
    // batch_width() lanes: the packed backend runs the whole block as one
    // 64-lane batch, the scalar ones as one-lane batches.  Shot l of the
    // block is lane l on the former and the l-th batch on the latter, and
    // draws from the same derived RNG streams either way, which is what
    // keeps frame and batch_frame Metrics bit-identical.
    const int width = sim.batch_width();
    const int max_lanes = std::min(width, shots);

    // One batched policy per slot, built once from the first block's
    // policy seed (in-tree policies derive no randomness from it, and
    // per-shot behaviour is reset by begin_batch).  A policy that only
    // implements per-lane observe runs behind the lane adapter, whose
    // instance cache only ever GROWS (a partial trailing block needs
    // fewer lanes than a full one); each lane's oracle view is rebound
    // per block to show only that lane's truth on this block's simulator.
    if (res->policy == nullptr) {
        std::unique_ptr<Policy> policy = factory(*ctx_, policy_seed);
        if (policy->batched()) {
            res->policy = std::move(policy);
        } else {
            // The adapter lives in this run_partials call's slot
            // resources, so `factory` outlives every lane it builds.
            auto adapter = std::make_unique<LaneAdapterPolicy>(
                *ctx_, std::move(policy), [this, &factory, policy_seed] {
                    return factory(*ctx_, policy_seed);
                });
            res->adapter = adapter.get();
            res->policy = std::move(adapter);
        }
    }
    Policy& policy = *res->policy;
    if (res->adapter != nullptr)
        res->adapter->bind(sim, max_lanes);
    clock.lap(telemetry::kPolicy);  // policy build / lane rebinds

    if (graph != nullptr && res->decoder == nullptr)
        res->decoder = std::make_unique<UnionFindDecoder>(*graph);
    UnionFindDecoder* decoder = res->decoder.get();
    const std::vector<int>& z_checks = z_checks_;
    const int nz = static_cast<int>(z_checks.size());
    clock.lap(telemetry::kDecode);  // decoder construction

    // Per-block scratch out of the slot's cache: every element below is
    // written before it is read (masks and defect lists are cleared per
    // batch, the per-lane leak counts per round), so stale content from
    // the previous block is never observable — reuse stays bit-identical
    // to fresh.  The policy's decisions are lane masks, one word per
    // qubit (same layout as the simulator's leaked_words()): the
    // accounting pass counts them against the leak words, and the
    // simulator applies them as they are.
    LrcWords& lrc = res->lrc;
    std::vector<std::vector<uint8_t>>& flips = res->flips;
    std::vector<int>& data_leaked = res->data_leaked;
    if (telem != nullptr)
        data_leaked.resize(static_cast<size_t>(max_lanes));
    // Each lane's decoder input is its defect list: node r*nz + zi for
    // every Z detector that fired, scattered zi-major round by round and
    // then the final-readout row, so it is ascending by construction.
    std::vector<std::vector<int>>& defects = res->defects;
    if (static_cast<int>(defects.size()) < max_lanes)
        defects.resize(static_cast<size_t>(max_lanes));
    // The block's counts.  Every one is an integer below 2^53, so the
    // conversions to m's doubles at the end are exact; the leak
    // populations are divided by their qubit count there, once.
    uint64_t tp_total = 0;
    uint64_t lrc_data_total = 0;
    uint64_t lrc_check_total = 0;
    uint64_t fn_total = 0;
    uint64_t leaked_data = 0;
    uint64_t leaked_checks = 0;

    for (int first = 0; first < shots; first += width) {
        const int lanes = std::min(width, shots - first);
        const LaneMask lanes_mask =
            lanes == kBatchLanes ? ~0ull : (1ull << lanes) - 1;
        sim.reset_shot_batch(lanes);
        policy.begin_batch(lanes_mask);
        lrc.reset(n_data, n_checks);
        for (int l = 0; l < lanes; ++l) {
            const size_t li = static_cast<size_t>(l);
            // One per-shot draw in lane (= shot) order from the
            // block-level stream: the same sequence on every backend.
            if (cfg_.leakage_sampling)
                sim.inject_data_leak_lane(
                    l, static_cast<int>(shot_rng.uniform_int(
                           static_cast<uint32_t>(n_data))));
            defects[li].clear();
        }
        clock.lap(telemetry::kSim);  // batch reset + leak injection

        for (int r = 0; r < rounds; ++r) {
            sim.run_round_batch(lrc);
            clock.lap(telemetry::kSim);

            const LaneMask* leak_words = sim.leaked_words();
            RoundWords in;
            in.active = lanes_mask;
            in.detector = sim.detector_words();
            in.mlr = sim.mlr_words();
            in.meas_flip = sim.meas_flip_words();
            in.leaked = leak_words;
            lrc.reset(n_data, n_checks);
            policy.observe_batch(r, in, &lrc);
            clock.lap(telemetry::kPolicy);

            // One accounting pass over the end-of-round leak words.  The
            // masks are clipped to the active lanes on the way (the
            // simulator applies them next round, and no padding lane may
            // count).  TP and LRC usage are counted for the masks the
            // next round applies; the last round's are never applied.
            const bool applied = r + 1 < rounds;
            uint64_t* hrow =
                telem != nullptr && telem->heatmap.enabled()
                    ? telem->heatmap.row(r)
                    : nullptr;
            uint64_t leaked_round = 0;
            for (int q = 0; q < n_data; ++q) {
                const size_t i = static_cast<size_t>(q);
                const LaneMask s = lrc.data[i] &= lanes_mask;
                const LaneMask lk = leak_words[i] & lanes_mask;
                fn_total +=
                    static_cast<uint64_t>(__builtin_popcountll(lk & ~s));
                const uint64_t col =
                    static_cast<uint64_t>(__builtin_popcountll(lk));
                if (applied) {
                    tp_total +=
                        static_cast<uint64_t>(__builtin_popcountll(lk & s));
                    lrc_data_total +=
                        static_cast<uint64_t>(__builtin_popcountll(s));
                }
                leaked_round += col;
                if (hrow != nullptr)
                    hrow[q] += col;
            }
            leaked_data += leaked_round;
            if (cfg_.record_dlp_series)
                m.dlp_series[static_cast<size_t>(r)] +=
                    static_cast<double>(leaked_round);
            for (int c = 0; c < n_checks; ++c) {
                const LaneMask s =
                    lrc.checks[static_cast<size_t>(c)] &= lanes_mask;
                const uint64_t col = static_cast<uint64_t>(
                    __builtin_popcountll(
                        leak_words[static_cast<size_t>(code.ancilla_of(c))] &
                        lanes_mask));
                if (applied)
                    lrc_check_total +=
                        static_cast<uint64_t>(__builtin_popcountll(s));
                leaked_checks += col;
                if (hrow != nullptr)
                    hrow[n_data + c] += col;
            }
            if (telem != nullptr) {
                // The histogram needs each lane's own count.
                std::fill(data_leaked.begin(), data_leaked.end(), 0);
                for (int q = 0; q < n_data; ++q)
                    for_each_lane(leak_words[q] & lanes_mask, [&](int l) {
                        ++data_leaked[static_cast<size_t>(l)];
                    });
                for (int l = 0; l < lanes; ++l)
                    ++telem->leak_hist[static_cast<size_t>(
                        data_leaked[static_cast<size_t>(l)])];
            }
            if (graph != nullptr) {
                for (int zi = 0; zi < nz; ++zi)
                    for_each_lane(
                        in.detector[z_checks[static_cast<size_t>(zi)]] &
                            lanes_mask,
                        [&](int l) {
                            defects[static_cast<size_t>(l)].push_back(
                                r * nz + zi);
                        });
            }
            clock.lap(telemetry::kAccounting);
        }
        m.shots += lanes;
        if (graph == nullptr)
            continue;

        sim.final_data_measure_batch(&flips);
        clock.lap(telemetry::kSim);
        // Per lane: the final-readout row (the last round's meas flips
        // XOR the data readout), the observable, then decode.
        const LaneMask* last_meas = sim.meas_flip_words();
        for (int l = 0; l < lanes; ++l) {
            const size_t li = static_cast<size_t>(l);
            for (int zi = 0; zi < nz; ++zi) {
                const int zc = z_checks[static_cast<size_t>(zi)];
                uint8_t det = static_cast<uint8_t>(
                    (last_meas[static_cast<size_t>(zc)] >> l) & 1u);
                for (int q : code.check(zc).support)
                    det ^= flips[li][static_cast<size_t>(q)];
                if (det)
                    defects[li].push_back(rounds * nz + zi);
            }
            uint8_t observed = 0;
            for (int q : code.logical_z())
                observed ^= flips[li][static_cast<size_t>(q)];
            clock.lap(telemetry::kAccounting);
            const bool predicted = decoder->decode_defects(defects[li]);
            clock.lap(telemetry::kDecode);
            if ((observed != 0) != predicted)
                ++m.logical_errors;
        }
        m.decoded_shots += lanes;
    }
    m.tp_total = static_cast<double>(tp_total);
    m.fp_total = static_cast<double>(lrc_data_total - tp_total);
    m.lrc_data_total = static_cast<double>(lrc_data_total);
    m.lrc_check_total = static_cast<double>(lrc_check_total);
    m.fn_total = static_cast<double>(fn_total);
    m.dlp_total = static_cast<double>(leaked_data) / n_data;
    m.check_leak_total = static_cast<double>(leaked_checks) / n_checks;
    for (double& v : m.dlp_series)
        v /= n_data;
    if (telem != nullptr) {
        telem->shots += static_cast<uint64_t>(shots);
        telem->rounds +=
            static_cast<uint64_t>(shots) * static_cast<uint64_t>(rounds);
        telem->blocks += 1;
        clock.lap(telemetry::kAccounting);
    }
    return m;
}

int
ExperimentRunner::n_streams(const ExperimentConfig& cfg)
{
    if (cfg.shots <= 0)
        return 0;
    return std::min(cfg.shots, std::max(1, cfg.rng_streams));
}

int
ExperimentRunner::stream_shots(const ExperimentConfig& cfg, int stream)
{
    const int streams = n_streams(cfg);
    if (stream < 0 || stream >= streams)
        return 0;
    return cfg.shots / streams + (stream < cfg.shots % streams ? 1 : 0);
}

int
ExperimentRunner::stream_blocks(const ExperimentConfig& cfg, int stream)
{
    return (stream_shots(cfg, stream) + kShotBlock - 1) / kShotBlock;
}

long
ExperimentRunner::n_work_units(const ExperimentConfig& cfg)
{
    long units = 0;
    for (int s = 0; s < n_streams(cfg); ++s)
        units += stream_blocks(cfg, s);
    return units;
}

std::vector<Metrics>
ExperimentRunner::run_partials(const PolicyFactory& factory,
                               const std::vector<int>& streams) const
{
    const int total_streams = n_streams(cfg_);
    for (int s : streams) {
        if (s < 0 || s >= total_streams)
            throw std::out_of_range(
                "run_partials: stream id " + std::to_string(s) +
                " outside [0, " + std::to_string(total_streams) + ")");
    }

    // Chunked work queue: the schedulable unit is a (stream, shot block),
    // not a whole stream, so the worker count is no longer capped by
    // rng_streams.  The unit list and each unit's RNG derivation depend
    // only on the config; threads pull units off an atomic cursor, park
    // their Metrics in the unit's slot, and the per-stream partial is
    // folded from its blocks in ascending block order afterwards — a
    // fixed left-fold, so the result is schedule-independent and the
    // per-stream partials (the sharding contract) are unchanged by how
    // many threads ran.
    struct WorkUnit {
        size_t request;  ///< index into `streams`
        int stream;
        int block;
    };
    std::vector<WorkUnit> units;
    for (size_t i = 0; i < streams.size(); ++i) {
        const int blocks = stream_blocks(cfg_, streams[i]);
        for (int b = 0; b < blocks; ++b)
            units.push_back({i, streams[i], b});
    }

    // Telemetry rides along per work unit and is merged by the collector
    // in (stream, block) order, so the deterministic aggregates (shot /
    // round counts, leak histogram, heatmap) are as thread-count-
    // independent as the Metrics themselves.
    const int n_data = ctx_->code().n_data();
    const int n_checks = ctx_->code().n_checks();

    // Result slot per unit, padded to a cache line: adjacent units
    // finish on different threads back to back, and unpadded Metrics
    // writes would false-share lines across workers at exactly the
    // moment every worker is storing.
    struct alignas(64) PaddedMetrics {
        Metrics m;
    };
    std::vector<PaddedMetrics> unit_parts(units.size());

    // One reusable resource set per executor slot (simulator, policies,
    // decoder, scratch): a slot runs many units but only ever one at a
    // time, so its caches are single-threaded by construction.
    std::vector<BlockResources> slot_res(
        parallel_width(units.size(), cfg_.threads));
    parallel_for_slots(units.size(), cfg_.threads, [&](size_t u, int slot) {
        BlockResources* res = &slot_res[static_cast<size_t>(slot)];
        if (telemetry_ != nullptr) {
            telemetry::Record rec;
            rec.leak_hist.assign(static_cast<size_t>(n_data) + 1, 0);
            if (telemetry_->heatmap())
                rec.heatmap.init(cfg_.rounds, n_data, n_checks);
            unit_parts[u].m = run_block(factory, units[u].stream,
                                        units[u].block, graph_.get(), &rec,
                                        res);
            telemetry_->record_unit(units[u].stream, units[u].block,
                                    std::move(rec));
        } else {
            unit_parts[u].m = run_block(factory, units[u].stream,
                                        units[u].block, graph_.get(),
                                        nullptr, res);
        }
    });

    // Fold each stream's block partials in block order (units were built
    // grouped per requested stream, blocks ascending).
    std::vector<Metrics> parts(streams.size());
    std::vector<uint8_t> seeded(streams.size(), 0);
    for (size_t u = 0; u < units.size(); ++u) {
        const size_t i = units[u].request;
        if (!seeded[i]) {
            parts[i] = std::move(unit_parts[u].m);
            seeded[i] = 1;
        } else {
            parts[i].merge(unit_parts[u].m);
        }
    }
    return parts;
}

Metrics
ExperimentRunner::run(const PolicyFactory& factory) const
{
    // Reproducibility contract: shots are partitioned into a fixed number
    // of RNG streams derived only from (shots, rng_streams) — never from
    // the thread count — and per-stream results are merged in stream
    // order.  The same seed therefore yields bit-identical Metrics for
    // any cfg_.threads (the per-stream accumulation order is fixed, and
    // cross-stream sums always happen in the same order).  Sharded runs
    // reproduce this exactly: run_partials() on any partition of the
    // stream set, merged in ascending stream order, is the same sum.
    const int streams = n_streams(cfg_);
    if (streams == 0) {
        Metrics m;
        m.rounds_per_shot = cfg_.rounds;
        return m;
    }
    std::vector<int> all(streams);
    for (int s = 0; s < streams; ++s)
        all[s] = s;
    const std::vector<Metrics> parts = run_partials(factory, all);
    Metrics m;
    for (const Metrics& part : parts)
        m.merge(part);
    return m;
}

// --- PolicyZoo ---

PolicyFactory
PolicyZoo::no_lrc()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<NoLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::always_lrc()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<AlwaysLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::staggered()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<StaggeredLrcPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::mlr_only()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<MlrOnlyPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::ideal()
{
    return [](const CodeContext& ctx, uint64_t) {
        return std::make_unique<IdealPolicy>(ctx);
    };
}

PolicyFactory
PolicyZoo::eraser(bool use_mlr)
{
    return [use_mlr](const CodeContext& ctx, uint64_t) {
        return std::make_unique<EraserPolicy>(ctx, use_mlr);
    };
}

namespace {

/**
 * Immutable-table cache shared by every policy a factory builds.
 *
 * PatternTableSet::build() depends only on the context's pattern classes
 * (plus the np/opt/two_round baked into the factory), so the cache is
 * keyed on the CLASS STRUCTURE itself — never on the CodeContext address,
 * which would alias recreated contexts.  Two contexts with equal class
 * vectors get identical tables by construction, so sharing is exact: the
 * rng_streams policies of one run() now share one build instead of
 * re-deriving it per stream (ROADMAP: "Gladiator table builds are
 * repeated per stream").
 *
 * Lookup and build run under one mutex: when all streams of a run()
 * start at once, the first builds and the rest wait and share, instead
 * of racing into rng_streams redundant builds.
 */
struct GladiatorTableCache {
    struct Entry {
        std::vector<PatternClass> classes;
        std::shared_ptr<const PatternTableSet> tables;
    };

    std::shared_ptr<const PatternTableSet> get(const CodeContext& ctx,
                                               const NoiseParams& np,
                                               const SpecModelOptions& opt,
                                               bool two_round)
    {
        std::lock_guard<std::mutex> lock(mu);
        for (const Entry& e : entries) {
            if (e.classes == ctx.classes())
                return e.tables;
        }
        auto built = std::make_shared<const PatternTableSet>(
            PatternTableSet::build(ctx, np, opt, two_round));
        entries.push_back({ctx.classes(), built});
        return built;
    }

    std::mutex mu;
    std::vector<Entry> entries;
};

PolicyFactory
make_gladiator_factory(bool use_mlr, const NoiseParams& np,
                       const SpecModelOptions& opt, bool two_round)
{
    auto cache = std::make_shared<GladiatorTableCache>();
    return [use_mlr, np, opt, two_round, cache](
               const CodeContext& ctx, uint64_t) -> std::unique_ptr<Policy> {
        std::shared_ptr<const PatternTableSet> tables =
            cache->get(ctx, np, opt, two_round);
        if (two_round)
            return std::make_unique<GladiatorDPolicy>(ctx, tables, use_mlr);
        return std::make_unique<GladiatorPolicy>(ctx, tables, use_mlr);
    };
}

}  // namespace

PolicyFactory
PolicyZoo::gladiator(bool use_mlr, const NoiseParams& np,
                     SpecModelOptions opt)
{
    return make_gladiator_factory(use_mlr, np, opt, /*two_round=*/false);
}

PolicyFactory
PolicyZoo::gladiator_d(bool use_mlr, const NoiseParams& np,
                       SpecModelOptions opt)
{
    return make_gladiator_factory(use_mlr, np, opt, /*two_round=*/true);
}

}  // namespace gld
