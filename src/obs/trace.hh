/**
 * @file
 * RAII spans and trace sessions with Chrome trace-event JSON output.
 *
 * Usage: `QPAD_SPAN("yield.estimate");` opens a span that closes at
 * scope exit. Spans nest naturally (they are stack objects) and
 * carry the recording thread's id, so a trace file renders as a
 * per-thread flame graph in chrome://tracing or Perfetto
 * (https://ui.perfetto.dev, "Open trace file").
 *
 * A span is two flight::record calls: each edge lands in the
 * always-on flight recorder ring (obs/flight.hh: one clock read plus
 * relaxed stores into a preallocated per-thread slot — no locks, no
 * allocation). A trace session is a sink on those same rings: while
 * one is open, span edges are also appended to a per-ring session
 * buffer (one uncontended mutex each), and stopTracing() writes them
 * out. Inside an exec::RequestScope every edge carries the request
 * id. Tracing never feeds back into any computation: results are
 * bit-identical with tracing on or off, and the test suite pins that
 * invariant.
 *
 * Enable with QPAD_TRACE=<path> (flushed at process exit) or
 * programmatically with startTracing()/stopTracing(). Span names
 * must be string literals: the recorder stores the pointer, never a
 * copy.
 */

#ifndef QPAD_OBS_TRACE_HH
#define QPAD_OBS_TRACE_HH

#include <atomic>
#include <string>

#include "obs/flight.hh"

namespace qpad::obs
{

namespace detail
{

/** The one hot-path flag: set only by start/stopTracing (defined in
 * flight.cc, whose record() reads it). */
extern std::atomic<bool> g_tracing;

} // namespace detail

inline bool
tracingEnabled()
{
    return detail::g_tracing.load(std::memory_order_relaxed);
}

/** RAII scope; prefer the QPAD_SPAN macro. */
class Span
{
  public:
    explicit Span(const char *name) : name_(name)
    {
        flight::record(name, 'B');
    }

    ~Span() { flight::record(name_, 'E'); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
};

/**
 * Begin a trace session writing to `path` on stopTracing(). Clears
 * any span edges left from a previous session. Returns false (and
 * changes nothing) if a session is already active.
 */
bool startTracing(const std::string &path);

/**
 * End the session: disable recording, drain every thread's session
 * buffer, and write the Chrome trace-event JSON file. No-op when no
 * session is active. The file is balanced per thread: a span still
 * open at this call gets a synthetic close at the thread's last
 * recorded timestamp, and a span opened before startTracing() a
 * synthetic open at its first.
 */
void stopTracing();

} // namespace qpad::obs

#define QPAD_OBS_CONCAT2(a, b) a##b
#define QPAD_OBS_CONCAT(a, b) QPAD_OBS_CONCAT2(a, b)

/** Open a trace span for the rest of the enclosing scope. */
#define QPAD_SPAN(name)                                                 \
    ::qpad::obs::Span QPAD_OBS_CONCAT(qpad_obs_span_, __LINE__)(name)

#endif // QPAD_OBS_TRACE_HH
