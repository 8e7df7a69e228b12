#include "util/thread_pool.h"

#include <algorithm>

#include "util/config.h"

namespace gld {

namespace {

/** Per-OS-thread loop-nesting depth, for the peak_active() watermark. */
thread_local int tl_loop_depth = 0;

}  // namespace

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool()
{
    // Budget - 1 workers: the caller of every loop is an executor too,
    // so total concurrency is exactly BenchConfig::threads().  A failed
    // spawn (resource limits) just leaves a smaller pool — callers drain
    // their own loops regardless, so correctness never depends on any
    // worker existing.
    const int budget = BenchConfig::threads();
    threads_.reserve(static_cast<size_t>(std::max(0, budget - 1)));
    try {
        for (int t = 1; t < budget; ++t) {
            threads_.emplace_back([this] { worker_main(); });
            workers_created_.fetch_add(1);
        }
    } catch (...) {
        // Keep whatever spawned; the pool works at any size >= 0.
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& th : threads_)
        th.join();
}

void
ThreadPool::enter_active()
{
    if (tl_loop_depth++ != 0)
        return;
    const int now = active_.fetch_add(1) + 1;
    int peak = peak_active_.load();
    while (now > peak && !peak_active_.compare_exchange_weak(peak, now)) {
    }
}

void
ThreadPool::leave_active()
{
    if (--tl_loop_depth == 0)
        active_.fetch_sub(1);
}

void
ThreadPool::reset_peak()
{
    peak_active_.store(active_.load());
}

bool
ThreadPool::claim_chunk(LoopTask* task, size_t* first, size_t* last)
{
    // Guided chunked grabs: take a shrinking slice of the remaining range
    // per cursor bump (floor 1), so a long loop costs O(width * log n)
    // contended fetch_adds instead of one per index, while the tail still
    // load-balances index by index.
    const size_t seen = task->cursor.load(std::memory_order_relaxed);
    if (seen >= task->n)
        return false;
    const size_t chunk =
        std::max<size_t>(1, (task->n - seen) /
                                (4u * static_cast<size_t>(task->width)));
    *first = task->cursor.fetch_add(chunk);
    if (*first >= task->n)
        return false;
    *last = std::min(*first + chunk, task->n);
    return true;
}

void
ThreadPool::run_loop(LoopTask* task, int slot, size_t first, size_t last)
{
    enter_active();
    try {
        do {
            for (size_t i = first; i < last; ++i) {
                if (task->aborted.load(std::memory_order_relaxed))
                    break;
                (*task->fn)(i, slot);
            }
        } while (claim_chunk(task, &first, &last));
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(task->mu);
            if (task->error == nullptr)
                task->error = std::current_exception();
        }
        task->aborted.store(true);
        task->cursor.store(task->n);  // stop siblings from grabbing more
    }
    leave_active();
}

void
ThreadPool::worker_main()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
        if (stop_)
            return;
        LoopTask* task = pending_.back();
        if (--task->helpers_wanted == 0)
            pending_.pop_back();
        // Registered before the task can look finished: the caller only
        // waits for outstanding == 0 AFTER unpublishing the task under
        // this same mutex, so this increment is always visible to it.
        task->outstanding.fetch_add(1);
        lock.unlock();

        const int slot = task->slots.fetch_add(1);
        run_loop(task, slot, 0, 0);
        {
            // Final touch under the task's mutex: the caller's wait
            // predicate runs under it too, so it cannot wake, observe
            // outstanding == 0 and destroy the task while this helper
            // still holds a reference.
            std::lock_guard<std::mutex> task_lock(task->mu);
            task->outstanding.fetch_sub(1);
            task->done_cv.notify_all();
        }

        lock.lock();
    }
}

void
ThreadPool::run(size_t n, int width,
                const std::function<void(size_t, int)>& fn)
{
    const size_t eff =
        std::min(n, static_cast<size_t>(std::max(1, width)));
    if (eff <= 1) {
        enter_active();
        try {
            for (size_t i = 0; i < n; ++i)
                fn(i, 0);
        } catch (...) {
            leave_active();
            throw;
        }
        leave_active();
        return;
    }

    LoopTask task(n, fn, static_cast<int>(eff));
    // The caller claims its first chunk before any helper can see the
    // task: otherwise helpers woken below may drain a short loop before
    // the caller returns from the notify calls, and slot 0 would run
    // nothing.  n >= 2 here, so the claim always succeeds.
    size_t first = 0;
    size_t last = 0;
    claim_chunk(&task, &first, &last);
    {
        std::lock_guard<std::mutex> lock(mu_);
        task.helpers_wanted = static_cast<int>(eff) - 1;
        pending_.push_back(&task);
    }
    if (static_cast<int>(eff) - 1 >= workers())
        cv_.notify_all();
    else
        for (int t = 1; t < static_cast<int>(eff); ++t)
            cv_.notify_one();

    // The caller is executor 0 and drains the loop itself — helpers are
    // opportunistic, so nested loops make progress even with every
    // worker busy elsewhere.
    run_loop(&task, 0, first, last);

    {
        // Unpublish: no NEW helper may claim the task once the caller is
        // ready to leave.  Helpers already registered are counted in
        // outstanding (incremented under this mutex at claim time).
        std::lock_guard<std::mutex> lock(mu_);
        if (task.helpers_wanted > 0) {
            task.helpers_wanted = 0;
            pending_.erase(
                std::find(pending_.begin(), pending_.end(), &task));
        }
    }
    {
        std::unique_lock<std::mutex> task_lock(task.mu);
        task.done_cv.wait(task_lock,
                          [&task] { return task.outstanding.load() == 0; });
    }
    if (task.error != nullptr)
        std::rethrow_exception(task.error);
}

}  // namespace gld
