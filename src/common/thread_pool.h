#ifndef PAQOC_COMMON_THREAD_POOL_H_
#define PAQOC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace paqoc {

/**
 * Fixed-size worker pool behind all parallelism in the compiler: batch
 * pulse generation, concurrent GRAPE duration probes and restarts, and
 * the blocked gemm. Tasks are plain queued closures; parallelFor
 * additionally lets the calling thread execute chunks itself, and
 * enlists only workers that are idle right now. Nested calls from
 * inside a worker therefore fan out onto idle workers when there are
 * any and run inline serially on a saturated pool (or a pool of size
 * 1), where extra helpers could only queue behind busy workers.
 *
 * Determinism contract: the pool schedules *when* work runs, never
 * *what* work runs. Every parallel site in the compiler derives its
 * task set and its result folding order from program state alone, so
 * compile reports are bit-identical for any pool size, including 1.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers; 0 means hardware_concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (>= 1). */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Queue a task and get a future for its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        post([task]() { (*task)(); });
        return fut;
    }

    /**
     * Run body(i) for every i in [0, n), `grain` consecutive indices
     * per chunk. The caller drains chunks itself, helped by at most
     * min(idle workers, chunks - 1) helper tasks; with no idle worker
     * the loop runs inline on the caller. The first exception thrown
     * by a chunk is rethrown on the caller: once every chunk finished
     * when helpers were enlisted, at once from the inline loop.
     *
     * Calls may nest from any thread, pool workers included, without
     * deadlocking: a chunk is only ever run by a thread that claimed
     * it through the shared counter while running, so the caller,
     * which keeps claiming until none are left, waits only for chunks
     * that other running threads are already executing. A helper that
     * starts after the last chunk was claimed returns at once.
     */
    template <typename F>
    void
    parallelFor(std::size_t n, F &&body, std::size_t grain = 1)
    {
        if (n == 0)
            return;
        if (grain == 0)
            grain = 1;
        const std::size_t chunks = (n + grain - 1) / grain;
        if (size() <= 1 || chunks <= 1
            || idle_.load(std::memory_order_relaxed) == 0) {
            for (std::size_t i = 0; i < n; ++i)
                body(i);
            return;
        }

        struct State
        {
            std::atomic<std::size_t> next{0};
            std::size_t n = 0;
            std::size_t grain = 1;
            std::function<void(std::size_t)> body;
            Mutex mutex;
            CondVar cv;
            std::size_t done PAQOC_GUARDED_BY(mutex) = 0;
            std::exception_ptr error PAQOC_GUARDED_BY(mutex);
        };
        auto st = std::make_shared<State>();
        st->n = n;
        st->grain = grain;
        st->body = std::forward<F>(body);

        auto drain = [](const std::shared_ptr<State> &s) {
            for (;;) {
                const std::size_t begin =
                    s->next.fetch_add(s->grain, std::memory_order_relaxed);
                if (begin >= s->n)
                    return;
                const std::size_t end = std::min(begin + s->grain, s->n);
                std::exception_ptr err;
                try {
                    for (std::size_t i = begin; i < end; ++i)
                        s->body(i);
                } catch (...) {
                    err = std::current_exception();
                }
                MutexLock lock(s->mutex);
                if (err && !s->error)
                    s->error = err;
                s->done += end - begin;
                if (s->done == s->n)
                    s->cv.notify_all();
            }
        };

        postHelpers(chunks - 1, [st, drain]() { drain(st); });
        drain(st);

        MutexLock lock(st->mutex);
        while (st->done != st->n)
            st->cv.wait(st->mutex);
        if (st->error)
            std::rethrow_exception(st->error);
    }

    /**
     * The process-wide pool (default size: hardware_concurrency).
     * Intended to be resized only from single-threaded context (CLI
     * startup, bench setup) via setGlobalThreads.
     */
    static ThreadPool &global();
    static void setGlobalThreads(unsigned threads);

    /** The default worker count a `threads = 0` knob resolves to. */
    static unsigned defaultThreads();

  private:
    void post(std::function<void()> task);
    /**
     * Queue up to `wanted` copies of `helper`, one per worker that is
     * idle and not already spoken for by a queued task.
     */
    void postHelpers(std::size_t wanted,
                     const std::function<void()> &helper);
    void workerLoop();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ PAQOC_GUARDED_BY(mutex_);
    bool stop_ PAQOC_GUARDED_BY(mutex_) = false;
    /**
     * Workers not running a task: decremented under mutex_ when a
     * worker takes a task, incremented when it returns. parallelFor
     * reads it without the lock only to skip to the inline loop;
     * postHelpers re-reads it under the lock before queueing.
     */
    std::atomic<std::size_t> idle_{0};
};

} // namespace paqoc

#endif // PAQOC_COMMON_THREAD_POOL_H_
