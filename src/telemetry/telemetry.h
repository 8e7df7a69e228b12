#ifndef GLD_TELEMETRY_TELEMETRY_H_
#define GLD_TELEMETRY_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "io/json.h"

namespace gld {
namespace telemetry {

/**
 * Observability side channel for the experiment runner and the campaign
 * fleet: stage timers, deterministic counters/histograms, and per-qubit
 * x per-round leakage-occupancy heatmaps.
 *
 * The one invariant everything here is built around: telemetry is a PURE
 * side channel.  It never draws from any RNG, never reorders a floating
 * point sum, and never changes control flow that feeds Metrics — so
 * Metrics with telemetry attached are BIT-identical to Metrics without,
 * on every backend (pinned by the telemetry drift gate in
 * tests/test_telemetry.cc).
 *
 * Determinism of the telemetry itself: every aggregate except the wall
 * times (shots, rounds, the leak histogram, the heatmap) is an unsigned
 * count, produced per scheduler work unit and merged in ascending
 * (stream, block) order by Collector::merged() — so those aggregates are
 * bit-identical for any thread count and for sharded-vs-single-process
 * runs, exactly like Metrics.  Stage times are wall-clock measurements
 * and deterministic only in shape, never in value.
 *
 * With no collector attached, the cost is one null check per work unit.
 */

/** The runner's wall-time split; kStageCount sized arrays index by this. */
enum Stage {
    kSim = 0,         ///< simulator: reset/inject/run_round/final measure
    kPolicy = 1,      ///< policy observe/begin_shot
    kDecode = 2,      ///< union-find decoding
    kAccounting = 3,  ///< FN/FP/DLP accounting, syndrome assembly, sums
    kStageCount = 4,
};

/** Canonical stage name ("sim", "policy", "decode", "accounting"). */
const char* stage_name(int stage);

/**
 * Per-qubit x per-round leakage-occupancy accumulator (the ROADMAP
 * "leakage heatmaps from the oracle" item): counts[r * n_qubits + q] is
 * the number of shots whose qubit q was leaked at the END of round r.
 * Columns are physical qubit ids — data qubits [0, n_data), then check
 * ancillas (column n_data + c for check c), matching the CssCode layout.
 * Occupancy fraction = count / shots.
 */
struct Heatmap {
    int rounds = 0;
    int n_data = 0;
    int n_checks = 0;
    std::vector<uint64_t> counts;  ///< rounds x (n_data + n_checks)

    bool enabled() const { return !counts.empty(); }
    int n_qubits() const { return n_data + n_checks; }

    void init(int rounds_, int n_data_, int n_checks_);

    uint64_t* row(int r)
    {
        return counts.data() +
               static_cast<size_t>(r) * static_cast<size_t>(n_qubits());
    }
    uint64_t at(int r, int q) const
    {
        return counts[static_cast<size_t>(r) *
                          static_cast<size_t>(n_qubits()) +
                      static_cast<size_t>(q)];
    }

    /** Sums another heatmap (dimensions must match; throws otherwise). */
    void merge(const Heatmap& o);

    io::Json to_json() const;
    static Heatmap from_json(const io::Json& j);
};

/**
 * One telemetry record: the counters/timers/histograms of one scheduler
 * work unit (or any merge of them).  All non-time fields are unsigned
 * counts, so merging is exact and commutative; merged() nevertheless
 * folds in (stream, block) order so the guarantee survives any future
 * order-sensitive field.
 */
struct Record {
    uint64_t shots = 0;   ///< shots executed
    uint64_t rounds = 0;  ///< shot-rounds executed
    uint64_t blocks = 0;  ///< scheduler work units merged into this record
    uint64_t stage_ns[kStageCount] = {0, 0, 0, 0};
    /**
     * Histogram of the data-leakage population: bucket k counts the
     * (shot, round) pairs that ended the round with exactly k leaked
     * data qubits.  Deterministic (pure function of the trajectories).
     */
    std::vector<uint64_t> leak_hist;
    Heatmap heatmap;  ///< empty unless heatmap collection was enabled

    uint64_t total_stage_ns() const
    {
        uint64_t t = 0;
        for (int s = 0; s < kStageCount; ++s)
            t += stage_ns[s];
        return t;
    }

    void merge(const Record& o);

    io::Json to_json() const;
    static Record from_json(const io::Json& j);
};

/**
 * Stage stopwatch over one Record: lap(stage) charges the time since the
 * previous lap (or construction) to `stage`.  A null record makes every
 * call a no-op — the runner constructs one per work unit unconditionally
 * and pays a single branch per call when telemetry is off.
 */
class StageClock {
  public:
    explicit StageClock(Record* rec) : rec_(rec)
    {
        if (rec_ != nullptr)
            mark_ = now_ns();
    }

    void lap(Stage stage)
    {
        if (rec_ == nullptr)
            return;
        const uint64_t t = now_ns();
        rec_->stage_ns[stage] += t - mark_;
        mark_ = t;
    }

  private:
    static uint64_t now_ns()
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    Record* rec_;
    uint64_t mark_ = 0;
};

/**
 * The registry a runner reports into: one sink per (stream, block)
 * scheduler work unit, filled by whichever worker thread executes the
 * unit, merged deterministically in ascending (stream, block) order by
 * merged().  Thread-safe; one collector observes one runner execution
 * (attach via ExperimentRunner::set_telemetry).
 */
class Collector {
  public:
    struct Options {
        /** Collect the per-qubit x per-round leakage heatmap. */
        bool heatmap = false;
        /**
         * Liveness hook: fired after every work-unit record lands, with
         * the total shots recorded so far.  Called from worker threads
         * (outside the collector lock); used by campaign::run_shard to
         * emit progress heartbeats mid-job.
         */
        std::function<void(uint64_t shots_done)> on_block;
    };

    Collector() = default;
    explicit Collector(Options opt) : opt_(std::move(opt)) {}

    bool heatmap() const { return opt_.heatmap; }

    /** Parks one work unit's record (thread-safe; fires on_block). */
    void record_unit(int stream, int block, Record rec);

    /** Shots recorded so far (liveness reads). */
    uint64_t shots_done() const;

    /**
     * Every recorded unit merged in ascending (stream, block) order —
     * the deterministic aggregate of the whole run so far.
     */
    Record merged() const;

  private:
    struct Unit {
        int stream;
        int block;
        Record rec;
    };

    Options opt_;
    mutable std::mutex mu_;
    std::vector<Unit> units_;
    uint64_t shots_done_ = 0;
};

/**
 * The JSON export of one run's telemetry (schema documented in README
 * "Observability"): the merged record plus wall time and throughput.
 * `wall_ns` is real elapsed time; stage_ns sum worker-thread time and
 * exceed it when threads > 1.  Doubles guard against non-finite values
 * (io::Json refuses them).
 */
io::Json export_to_json(const Record& rec, uint64_t wall_ns, int threads);

}  // namespace telemetry
}  // namespace gld

#endif  // GLD_TELEMETRY_TELEMETRY_H_
