#include "runtime/region.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace qpad::runtime::detail
{

namespace
{

using clock = std::chrono::steady_clock;

double
secondsSince(clock::time_point t0)
{
    // qpad-lint: allow(no-wallclock) "idle/duration accounting only;
    // feeds metrics and never steers scheduling or results"
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/** Fold one completed region into the process metrics registry. */
void
publishRegion(std::size_t chunk_count, double seconds,
              double idle_seconds)
{
    static obs::Counter &regions = obs::counter("runtime.regions");
    static obs::Counter &chunks = obs::counter("runtime.chunks");
    static obs::Histogram &duration =
        obs::histogram("runtime.region_seconds");
    static obs::Histogram &idle =
        obs::histogram("runtime.region_idle_seconds");
    regions.add();
    chunks.add(chunk_count);
    duration.observe(seconds);
    idle.observe(idle_seconds);
}

} // namespace

RegionState::RegionState(std::size_t chunks,
                         std::function<void(std::size_t)> run_chunk,
                         const exec::CancelToken *cancel,
                         uint64_t request_id)
    : run_chunk_(std::move(run_chunk)), chunks_(chunks),
      cancel_(cancel), request_id_(request_id), pending_(chunks)
{
}

void
RegionState::work()
{
    // Tag this runner with the owning request for the duration of
    // the region, so spans and log/flight events recorded inside its
    // chunks carry the request id — on helpers as well as on the
    // caller.
    obs::ScopedRequestId rid_scope(request_id_);
    for (;;) {
        // acq_rel is more than the claim needs — the chunk body and
        // plan were published before dispatch through the pool
        // mutex, so the RMW's atomicity alone would do — and costs
        // nothing extra on x86, where every RMW is a full barrier.
        const std::size_t c =
            next_.fetch_add(1, std::memory_order_acq_rel);
        if (c >= chunks_)
            return; // cursor exhausted; never touch cancel_ here
        // Cancellation poll at the chunk-claim boundary — strictly
        // AFTER the claim: the claimed chunk keeps pending_ > 0,
        // which pins the region's caller in waitDone and thereby
        // keeps the (caller-owned, often stack-resident) token
        // alive. A late helper that finds the cursor exhausted
        // returns above without ever touching cancel_. A stop is
        // recorded through the first-error-wins path, so from here
        // on the remaining chunks are claimed-but-skipped: the
        // cursor runs out, pending_ reaches zero, and the caller
        // wakes holding a CancelledError. Never mid-chunk — a chunk
        // that started always finishes, which is what keeps
        // completed results bit-identical to uncancelled runs.
        // qpad-lint: allow(atomic-relaxed) "best-effort skip flag;
        // the error itself is published under error_mutex_"
        if (cancel_ != nullptr &&
            !failed_.load(std::memory_order_relaxed)) {
            const exec::StopReason reason = cancel_->stopReason();
            if (reason != exec::StopReason::kNone)
                recordStop(reason);
        }
        // After a failure the remaining chunks are claimed but
        // skipped, so pending_ still drains and waiters wake.
        // qpad-lint: allow(atomic-relaxed) "best-effort skip flag;
        // the error itself is published under error_mutex_"
        if (!failed_.load(std::memory_order_relaxed)) {
            try {
                run_chunk_(c);
            } catch (...) {
                recordError();
            }
        }
        finishChunk();
    }
}

void
RegionState::finishChunk()
{
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
}

void
RegionState::waitDone()
{
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0;
    });
    // Disarm before returning, not in finishChunk: the caller may
    // destroy the pool the instant this returns, and the decrement
    // must be ordered before that (a finishing runner decrementing
    // after our wakeup would race the pool's destructor tripwire).
    if (finished_signal_ != nullptr) {
        finished_signal_->fetch_sub(1, std::memory_order_seq_cst);
        finished_signal_ = nullptr;
    }
}

void
RegionState::armFinishedSignal(std::atomic<std::size_t> &counter)
{
    // Pre-dispatch only (single-threaded); the pool mutex publishes
    // the pointer to whichever thread later runs waitDone.
    finished_signal_ = &counter;
}

void
RegionState::recordError()
{
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_)
            error_ = std::current_exception();
    }
    // qpad-lint: allow(atomic-relaxed) "best-effort skip hint; the
    // exception is published under error_mutex_ above"
    failed_.store(true, std::memory_order_relaxed);
}

void
RegionState::recordStop(exec::StopReason reason)
{
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        // First error wins: a stop that loses to an earlier chunk
        // exception (or an earlier stop) bumps no counter, so
        // exec.cancelled counts stopped regions, not polls.
        if (!error_) {
            error_ = std::make_exception_ptr(
                exec::CancelledError(reason));
            exec::noteStopped(reason);
        }
    }
    // qpad-lint: allow(atomic-relaxed) "best-effort skip hint; the
    // exception is published under error_mutex_ above"
    failed_.store(true, std::memory_order_relaxed);
}

void
RegionState::rethrowIfFailed()
{
    // MOVE the exception out rather than copying it: the region can
    // outlive this call on a late-starting pool worker (shared_ptr
    // lifetime, see region.hh), and if the region still held a
    // reference, that worker would perform the final release of the
    // exception object the caller's catch block is reading.
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        std::swap(error, error_);
    }
    if (error)
        std::rethrow_exception(error);
}

void
runRegion(std::size_t chunks, std::size_t threads,
          std::function<void(std::size_t)> run_chunk,
          const exec::CancelToken *cancel, uint64_t request_id)
{
    qpad_assert(threads >= 2 && threads <= chunks,
                "runRegion caller must pre-clamp the runner count");
    QPAD_SPAN("runtime.region");
    // qpad-lint: allow(no-wallclock) "region duration metric only;
    // never steers scheduling or results"
    const auto region_begin = clock::now();
    auto region = std::make_shared<RegionState>(
        chunks, std::move(run_chunk), cancel, request_id);

    // Offer helper slots to the pool and work the region as runner
    // 0. If the pool is saturated — e.g. a nested region on a busy
    // machine — the helpers simply start late or never, and the
    // caller claims the whole range itself: graceful degradation to
    // sequential execution instead of a blocked cycle.
    ThreadPool::global().dispatchRegion(region, threads - 1);
    region->work();
    // qpad-lint: allow(no-wallclock) "caller wait time feeds the
    // idle metric only"
    const auto wait_begin = clock::now();
    region->waitDone();
    const double idle = secondsSince(wait_begin);

    // Published before the rethrow so failed regions are counted
    // too. Every chunk was claimed (run or skipped), so the count is
    // the full region either way.
    publishRegion(chunks, secondsSince(region_begin), idle);
    region->rethrowIfFailed();
}

} // namespace qpad::runtime::detail
