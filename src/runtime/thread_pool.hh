/**
 * @file
 * Worker pool behind qpad's parallel primitives: one FIFO of
 * parallel-region helper offers under one mutex and one condition
 * variable.
 *
 * dispatchRegion() queues one offer per wanted helper; an idle
 * worker pops the oldest offer and runs RegionState::work(), which
 * claims chunks from the region's shared cursor until it runs out
 * (see runtime/region.hh). Load balancing happens there, at chunk
 * granularity, so the pool itself needs no per-worker queues and no
 * stealing. Determinism is NOT the pool's job — offers run in any
 * order on any worker — it is provided one level up by
 * parallel_for/parallel_reduce, which fix chunk identity and merge
 * order (see runtime/parallel.hh).
 */

#ifndef QPAD_RUNTIME_THREAD_POOL_HH
#define QPAD_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qpad::runtime
{

namespace detail
{
class RegionState;
}

/** Fixed-size thread pool serving parallel-region helper offers. */
class ThreadPool
{
  public:
    /** Spawn `num_threads` workers (>= 1). */
    explicit ThreadPool(std::size_t num_threads);

    /**
     * Queued offers are drained before exit; offers whose region
     * already finished retire during the join — a region counts as
     * active from dispatchRegion until its caller's waitDone
     * returns, not until the last helper retires.
     *
     * Destroying a pool while a region is still active (dispatched,
     * completion not yet observed) is a documented loud failure
     * (stderr message + std::abort), never a hang: the region's
     * caller is blocked in waitDone() fed by the helpers we would
     * stop, so joining the workers could deadlock against it, and
     * throwing from a destructor would terminate with no message.
     * Hitting this means a pool was torn down mid-region.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return threads_.size(); }

    /**
     * Queue `helpers` offers to work `region` and wake that many
     * workers. Returns immediately; a worker that picks an offer up
     * late, after the region's caller already finished the range,
     * retires harmlessly (see runtime/region.hh lifetime notes).
     */
    void dispatchRegion(std::shared_ptr<detail::RegionState> region,
                        std::size_t helpers);

    /**
     * Process-wide shared pool, lazily created with
     * hardware_concurrency() - 1 workers (the thread that calls a
     * parallel primitive participates in the work itself, so pool
     * workers plus caller saturate the machine). Never destroyed
     * before program exit.
     */
    static ThreadPool &global();

    /** Regions dispatched whose caller has not yet observed
     * completion through waitDone; nonzero at destruction is the
     * documented abort (see ~ThreadPool). */
    std::size_t activeRegions() const
    {
        return active_regions_.load(std::memory_order_seq_cst);
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    /** Helper offers not yet picked up; guarded by mutex_. */
    std::deque<std::shared_ptr<detail::RegionState>> queue_;
    /** Set once by the destructor; guarded by mutex_. */
    bool stopping_ = false;
    /** Regions dispatched whose caller has not yet returned from
     * waitDone (dispatchRegion increments and arms the region's
     * finished signal; RegionState::waitDone decrements); the
     * destructor's active-region tripwire. */
    std::atomic<std::size_t> active_regions_{0};
    /** Declared after the queue state the workers read. */
    std::vector<std::thread> threads_;
};

} // namespace qpad::runtime

#endif // QPAD_RUNTIME_THREAD_POOL_HH
