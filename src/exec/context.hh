/**
 * @file
 * Request-scoped execution context.
 *
 * A `Context` bundles what one request carries through every layer
 * of the system: a shared cancellation token (explicit cancel + an
 * absolute steady-clock deadline, see exec/cancel.hh), a request id
 * that apply() stamps on callee `runtime::Options`, and an
 * observability scope (`RequestScope`). The compute entry points —
 * `estimateYield`, `allocateFrequencies`, `annealLayout`,
 * `designArchitecture`, `eval::measure` / `runBenchmark`, and the
 * cached front ends — all take a trailing `const Context&`
 * defaulting to `Context::none()`, so existing call sites keep
 * compiling and pay nothing.
 *
 * Determinism contract: a context decides only *whether* a result
 * exists, never its bytes. Any run that completes under a context is
 * bit-identical to the no-context run at every thread count;
 * cancellation unwinds as `exec::CancelledError` instead.
 */

#ifndef QPAD_EXEC_CONTEXT_HH
#define QPAD_EXEC_CONTEXT_HH

#include <chrono>
#include <memory>
#include <string>

#include "exec/cancel.hh"
#include "obs/log.hh"
#include "obs/request_report.hh"
#include "runtime/parallel.hh"

namespace qpad::exec
{

namespace detail
{

/** Allocate the next process-unique request id (1-based). */
uint64_t nextRequestId();

} // namespace detail

/** Copyable handle to one request's shared cancellation state. */
class Context
{
  public:
    /** A fresh, independent context: no deadline, not cancelled,
     * with a new process-unique request id. */
    Context()
        : state_(std::make_shared<CancelToken>()),
          id_(detail::nextRequestId())
    {
    }

    /**
     * The shared no-limit context used as the default argument of
     * every ctx-threaded entry point. Its token is never cancelled
     * and carries no deadline, so polling it is always a no-op.
     */
    static const Context &none();

    /**
     * Stable 64-bit request id: 1-based and unique within the
     * process; copies of a context share it. Context::none() is id 0
     * — "no request" — so its work is never tagged. Spans, log
     * events, and flight-recorder entries recorded while this
     * request's work runs carry the id (see RequestScope and
     * runtime::Options::request_id).
     */
    uint64_t id() const { return id_; }

    /** The underlying token (never null); what Options::cancel
     * points at after apply(). */
    CancelToken *token() const { return state_.get(); }

    /** Request a stop; sticky, visible to every copy. */
    void cancel() const { state_->cancel(); }

    bool cancelRequested() const { return state_->cancelRequested(); }

    /** Arm an absolute deadline on the shared token. */
    void setDeadline(TimePoint deadline) const
    {
        state_->setDeadline(deadline);
    }

    /** Convenience: deadline = exec::now() + budget. A budget past
     * the clock's range saturates to no deadline instead of wrapping
     * into the past. */
    void setDeadlineAfter(std::chrono::nanoseconds budget) const
    {
        const TimePoint start = now();
        state_->setDeadline(budget >= TimePoint::max() - start
                                ? TimePoint::max()
                                : start + budget);
    }

    StopReason stopReason() const { return state_->stopReason(); }

    /** Raise CancelledError if this context has stopped. */
    void throwIfStopped() const
    {
        exec::throwIfStopped(state_.get());
    }

    /**
     * Attach this context's token (and request id) to a callee's
     * runtime options. An already-attached token (a nested call that
     * was handed explicit options) is left alone — innermost wins —
     * and so is an already-stamped request id.
     */
    runtime::Options apply(runtime::Options base) const
    {
        if (base.cancel == nullptr)
            base.cancel = state_.get();
        if (base.request_id == 0)
            base.request_id = id_;
        return base;
    }

  private:
    struct NoneTag
    {
    };

    /** Context::none() only: the shared no-limit context, id 0. */
    explicit Context(NoneTag)
        : state_(std::make_shared<CancelToken>()), id_(0)
    {
    }

    std::shared_ptr<CancelToken> state_;
    uint64_t id_;
};

/**
 * RAII observability scope for one request. On entry it counts
 * `exec.requests`, snapshots the metrics registry, and tags the
 * calling thread with the context's request id (worker threads pick
 * the id up per region via Options::request_id). On exit — or an
 * explicit finish() — it observes the wall time into the
 * `exec.request_seconds` histogram (via exec::now(), the sanctioned
 * clock) and produces an obs::RequestReport: id, name, latency,
 * StopReason, and the name-sorted metric deltas attributed to the
 * request; the report is appended to the QPAD_REQUEST_REPORT
 * destination when that is set, and a stopped request additionally
 * emits an `exec.request_stopped` warn event. Purely observational —
 * it never feeds back.
 */
class RequestScope
{
  public:
    /** Legacy form: scope over the shared no-limit context. */
    RequestScope() : RequestScope(Context::none()) {}

    explicit RequestScope(const Context &ctx,
                          std::string name = "request");
    ~RequestScope();

    /**
     * Close the scope now and return its report (id, name, wall
     * latency, stop reason, metric deltas). Callable once; the
     * destructor finishes implicitly — exporting but discarding the
     * report — when it was never called.
     */
    obs::RequestReport finish();

    uint64_t id() const { return ctx_.id(); }

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    Context ctx_;
    std::string name_;
    TimePoint start_;
    obs::Snapshot before_;
    obs::ScopedRequestId rid_scope_;
    bool finished_ = false;
};

} // namespace qpad::exec

#endif // QPAD_EXEC_CONTEXT_HH
