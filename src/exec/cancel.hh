/**
 * @file
 * Cooperative cancellation for request-scoped execution.
 *
 * A `CancelToken` carries two sticky stop signals — an explicit
 * cancel() and an absolute steady-clock deadline — that long-running
 * work polls at chunk boundaries. Cancellation is *cooperative*:
 * nothing is interrupted mid-chunk, so any run that completes is
 * bit-identical to an uncancelled run; a token only decides whether
 * a result exists, never its bytes.
 *
 * Deadlines are read through `exec::now()`, the one sanctioned
 * steady-clock helper (see `[wallclock]` in
 * `tools/qpad-lint/qpad_lint.toml`): qpad-lint's no-wallclock rule
 * stays meaningful because every other clock read in a compute path
 * is still a finding.
 *
 * This header is dependency-free on purpose (only the standard
 * library) so `runtime/parallel.hh` can hold a token pointer without
 * an include cycle; `exec/context.hh` layers the request-facing
 * `Context` on top.
 */

#ifndef QPAD_EXEC_CANCEL_HH
#define QPAD_EXEC_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace qpad::exec
{

/** Steady (monotonic) time point; never wall-clock time-of-day. */
using TimePoint = std::chrono::steady_clock::time_point;

/**
 * The sanctioned steady-clock read. Every deadline comparison goes
 * through this helper; a direct `steady_clock::now()` anywhere else
 * in a compute path is a no-wallclock lint finding.
 */
TimePoint now();

/** Why a token asked the work to stop. */
enum class StopReason : uint8_t
{
    kNone = 0,
    kCancelled = 1,
    kDeadlineExceeded = 2,
};

/** Human-readable reason for error messages. */
const char *stopReasonName(StopReason reason);

/**
 * Sticky cancellation + deadline state, shared by one request.
 *
 * Thread-safe: any thread may cancel() or set a deadline while the
 * workers poll stopReason(). Signals are sticky — once a token has
 * stopped it stays stopped (clearing the deadline cannot un-expire
 * a request that already observed the expiry, because observers act
 * on the value they read).
 */
class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request a stop; sticky. */
    void cancel()
    {
        cancelled_.store(true, std::memory_order_seq_cst);
    }

    bool cancelRequested() const
    {
        return cancelled_.load(std::memory_order_seq_cst);
    }

    /** Arm an absolute deadline (replaces any earlier one). */
    void setDeadline(TimePoint deadline);

    /** Disarm the deadline (an explicit cancel stays sticky). */
    void clearDeadline()
    {
        deadline_ns_.store(kNoDeadline, std::memory_order_seq_cst);
    }

    bool hasDeadline() const
    {
        return deadline_ns_.load(std::memory_order_seq_cst) !=
               kNoDeadline;
    }

    /**
     * The current stop state: kCancelled wins over
     * kDeadlineExceeded, which is reported once `exec::now()` passes
     * the armed deadline.
     */
    StopReason stopReason() const;

  private:
    /** Sentinel for "no deadline armed". */
    static constexpr std::int64_t kNoDeadline = INT64_MAX;

    std::atomic<bool> cancelled_{false};
    /** Nanoseconds since the steady epoch, or kNoDeadline. */
    std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

/**
 * Thrown when cancelled work unwinds. Propagates through the
 * region's first-error-wins path like any other exception, so a
 * cancelled parallel region skips its remaining chunks and rethrows
 * this at the caller.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(StopReason reason);

    StopReason reason() const { return reason_; }

  private:
    StopReason reason_;
};

/**
 * Publish a stop to the `exec.cancelled` / `exec.deadline_exceeded`
 * counters. Called where a stop *wins* (first-error capture, or the
 * throw site), not on every poll, so the counters approximate
 * stopped requests rather than poll frequency.
 */
void noteStopped(StopReason reason);

/** noteStopped + throw CancelledError(reason). */
[[noreturn]] void raiseStopped(StopReason reason);

/**
 * Poll `token` (null = unlimited; no-op) and raise if it stopped.
 * This is the one-liner that sequential loops and chunk bodies call
 * at their boundaries.
 */
inline void
throwIfStopped(const CancelToken *token)
{
    if (token == nullptr)
        return;
    const StopReason reason = token->stopReason();
    if (reason != StopReason::kNone)
        raiseStopped(reason);
}

} // namespace qpad::exec

#endif // QPAD_EXEC_CANCEL_HH
