/**
 * @file
 * The span and log-event recorder: a fixed-size per-thread ring of
 * recent span edges and log events, always on and dumpable as
 * Chrome trace-event JSON, plus the sink behind trace sessions
 * (obs/trace.hh).
 *
 * The recorder never turns off: every QPAD_SPAN begin/end and every
 * emitted log event lands in the calling thread's ring, overwriting
 * the oldest entry once the ring is full. The hot path is one clock
 * read, relaxed atomic stores and one release publish into
 * preallocated slots — no locks, no allocation (the ring itself is
 * allocated once per thread on first use and leaked, so a crash
 * handler can still read it and a trace session can still drain it
 * after thread exit). Recording never feeds back into any
 * computation: results are byte-identical with the recorder armed
 * or not, and with a trace session open or not.
 *
 * Trace sessions: while startTracing() has a session open, each
 * ring also appends its span edges (not log events) to a growable
 * per-ring session buffer, under that ring's mutex — the only lock
 * on the recording path, uncontended except while stopTracing()
 * drains it. With no session open that costs one relaxed load and
 * a branch. Span edges reach both outputs from the same clock read,
 * so a trace file and a flight dump agree on tids and timestamps.
 *
 * Dump triggers:
 *   - QPAD_FLIGHT=<path> arms the recorder: the rings are dumped to
 *     `path` at normal process exit (covering deadline-exceeded
 *     bench exits) and from an async-signal-safe SIGSEGV/SIGABRT
 *     handler (covering crashes and the ThreadPool tripwire abort,
 *     which also dumps explicitly before raising).
 *   - dumpTo() / dumpNow() for tests and embedders.
 *
 * The normal dump and the trace-session file share one writer. It
 * replays each thread's events into balanced B/E pairs (synthesizing
 * opens for entries whose begin was overwritten or predates the
 * session, and closes for spans still running), so the file loads
 * in chrome://tracing / Perfetto. The signal-path dump writes the
 * same JSON shape with write(2) and hand-rolled formatting only and
 * skips the balancing pass; it is still valid JSON.
 *
 * Thread cap: the ring table holds kMaxRings threads, twice
 * runtime::kMaxThreads, so a run at the largest legal pool keeps
 * every worker with room to spare. Threads past the cap still run
 * and record into their own ring, but appear in no dump or trace.
 *
 * Event names must be string literals: the ring stores pointers.
 */

#ifndef QPAD_OBS_FLIGHT_HH
#define QPAD_OBS_FLIGHT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace qpad::obs::flight
{

/** Events retained per thread (power of two). */
constexpr std::size_t kRingEvents = 1024;

/** Threads whose rings are dumped and traced (2 x
 * runtime::kMaxThreads). The table holds pointers only; rings are
 * allocated on a thread's first event. */
constexpr std::size_t kMaxRings = 8192;

/** Monotonic nanoseconds (steady clock); shared by log timestamps. */
uint64_t nowNs();

/**
 * Record one event into the calling thread's ring. `phase` is 'B' /
 * 'E' for span edges, 'L' for a log event (with `level` carrying its
 * obs::LogLevel). `name` must be a string literal. Zero-alloc and
 * lock-free after the thread's first call while no trace session is
 * open; during a session, span edges also go to the session buffer.
 */
void record(const char *name, char phase, uint8_t level = 0);

/**
 * Arm crash dumping to `path`: pre-serializes the signal-path JSON
 * header, installs SIGSEGV/SIGABRT handlers, and registers the
 * at-exit dump. Called automatically when QPAD_FLIGHT is set; tests
 * call it directly (idempotent; the latest path wins).
 */
void arm(const std::string &path);

/** Is a dump path armed? */
bool armed();

/** Balanced-replay dump of every thread's ring to `path`. */
bool dumpTo(const std::string &path);

/**
 * Dump to the armed path, at most once per process (so the explicit
 * tripwire dump and the SIGABRT handler it triggers do not race each
 * other). Returns false when unarmed or already dumped.
 */
bool dumpNow();

/**
 * Async-signal-safe dump to an open file descriptor: write(2) and
 * integer formatting only, no allocation, no locks, no stdio. Used
 * by the fatal-signal handler; exposed for tests.
 */
void dumpSignalSafe(int fd);

} // namespace qpad::obs::flight

#endif // QPAD_OBS_FLIGHT_HH
