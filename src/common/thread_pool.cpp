#include "common/thread_pool.h"

#include <algorithm>

namespace paqoc {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    threads = std::max(1u, threads);
    idle_.store(threads, std::memory_order_relaxed);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::postHelpers(std::size_t wanted,
                        const std::function<void()> &helper)
{
    std::size_t posted = 0;
    {
        MutexLock lock(mutex_);
        // Each queued task will occupy one idle worker when it wakes.
        const std::size_t idle = idle_.load(std::memory_order_relaxed);
        const std::size_t free =
            idle > queue_.size() ? idle - queue_.size() : 0;
        posted = std::min(wanted, free);
        for (std::size_t h = 0; h < posted; ++h)
            queue_.push_back(helper);
    }
    for (std::size_t h = 0; h < posted; ++h)
        cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stop_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
            idle_.fetch_sub(1, std::memory_order_relaxed);
        }
        task();
        idle_.fetch_add(1, std::memory_order_relaxed);
    }
}

unsigned
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace {

std::unique_ptr<ThreadPool> &
globalSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

Mutex &
globalMutex()
{
    static Mutex m;
    return m;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    MutexLock lock(globalMutex());
    std::unique_ptr<ThreadPool> &slot = globalSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(defaultThreads());
    return *slot;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    MutexLock lock(globalMutex());
    std::unique_ptr<ThreadPool> &slot = globalSlot();
    if (slot && slot->size() == threads)
        return;
    slot = std::make_unique<ThreadPool>(threads);
}

} // namespace paqoc
