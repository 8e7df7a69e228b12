#ifndef GLD_UTIL_THREAD_POOL_H_
#define GLD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gld {

/**
 * The process-wide persistent worker pool behind parallel_for_dynamic /
 * parallel_for_slots (util/parallel.h) — both the experiment scheduler's
 * (stream, shot-block) work units and the campaign's -j N job pool run on
 * it, so the whole process shares ONE thread budget and threads are
 * spawned once instead of per loop.
 *
 * Budget: workers() = BenchConfig::threads() - 1 pool threads (GLD_THREADS
 * or hardware concurrency), spawned lazily at first instance() call and
 * joined at process exit.  Every loop's CALLER participates as an
 * executor too, so a loop of width W runs on the caller plus up to W-1
 * pool workers — total concurrency never exceeds the budget no matter how
 * loops nest (campaign jobs running nested runner loops included).
 *
 * Nesting is deadlock-free by construction: a caller always drains its
 * own loop's cursor itself; idle pool workers merely help.  A pool worker
 * executing a task may therefore start a nested loop — it becomes that
 * loop's caller and drains it, whether or not any sibling is free.
 *
 * Exception contract (same as the pre-pool parallel_for_dynamic): the
 * first exception any iteration throws is captured, the remaining indices
 * are abandoned, and it is rethrown on the calling thread after every
 * helper has left the loop.
 */
class ThreadPool {
  public:
    /** The process-wide pool (lazy; sized once at first use). */
    static ThreadPool& instance();

    /**
     * Runs fn(i, slot) for i in [0, n) on the caller plus up to width-1
     * pool workers.  `slot` identifies the executor within THIS loop:
     * slots are unique among concurrent executors and < max(1,
     * min(n, width)) — the contract per-slot state caches (one simulator
     * per executor) rely on.  The caller always gets slot 0.
     * width <= 1 or n <= 1 runs inline on the calling thread.
     */
    void run(size_t n, int width,
             const std::function<void(size_t, int)>& fn);

    /** Pool workers spawned (budget - 1; 0 means every loop is inline). */
    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * Total OS threads this pool ever created — a regression hook: it
     * must equal workers() forever (a persistent pool never re-spawns),
     * where the old spawn-per-call scheduler grew it by `width` per loop.
     */
    long workers_created() const { return workers_created_.load(); }

    /**
     * High-water mark of OS threads concurrently executing pool work
     * since the last reset_peak() — counted at loop-nesting depth 0 -> 1
     * per thread, so nested loops cannot double-count their executor.
     * The oversubscription regression gate: it can never exceed
     * workers() + 1 (the budget), however campaign jobs and nested
     * runner loops stack.
     */
    int peak_active() const { return peak_active_.load(); }
    void reset_peak();

    ~ThreadPool();

  private:
    /**
     * One in-flight loop, living on its caller's stack.  Lifetime
     * protocol: helpers register under the pool mutex (outstanding++
     * before the task is ever discoverable as "done"), the caller
     * unpublishes the task under the pool mutex after draining, then
     * waits for outstanding == 0 under the task's own mutex; a helper's
     * final touch is the notify while still holding that mutex, so the
     * caller cannot destroy the frame under a live helper.
     */
    struct LoopTask {
        explicit LoopTask(size_t n_in,
                          const std::function<void(size_t, int)>& fn_in,
                          int width_in)
            : n(n_in), width(width_in), fn(&fn_in)
        {
        }

        // Shared cursor on its own cache line: every executor
        // fetch_adds it, and sharing a line with the read-mostly fields
        // below would bounce them on every grab.
        alignas(64) std::atomic<size_t> cursor{0};
        alignas(64) std::atomic<bool> aborted{false};
        std::atomic<int> slots{1};        ///< next slot id (caller = 0)
        std::atomic<int> outstanding{0};  ///< helpers inside the loop
        const size_t n;
        const int width;
        const std::function<void(size_t, int)>* fn;
        int helpers_wanted = 0;  ///< guarded by the POOL mutex

        std::mutex mu;
        std::condition_variable done_cv;
        std::exception_ptr error;  ///< guarded by mu; first throw wins
    };

    ThreadPool();
    void worker_main();
    /** Claims the task's next chunk [*first, *last); false once drained. */
    static bool claim_chunk(LoopTask* task, size_t* first, size_t* last);
    /** Runs [first, last), then claims and runs chunks until drained. */
    void run_loop(LoopTask* task, int slot, size_t first, size_t last);
    void enter_active();
    void leave_active();

    std::mutex mu_;                 ///< guards pending_ + stop_
    std::condition_variable cv_;    ///< wakes idle workers
    std::vector<LoopTask*> pending_;  ///< tasks still wanting helpers
    bool stop_ = false;
    std::vector<std::thread> threads_;
    std::atomic<long> workers_created_{0};
    std::atomic<int> active_{0};
    std::atomic<int> peak_active_{0};
};

}  // namespace gld

#endif  // GLD_UTIL_THREAD_POOL_H_
