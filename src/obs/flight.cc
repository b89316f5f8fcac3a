#include "obs/flight.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/log.hh"
#include "obs/trace.hh"

namespace qpad::obs
{

namespace detail
{

std::atomic<bool> g_tracing{false};

} // namespace detail

namespace flight
{

namespace
{

/**
 * One ring slot. Every field is an individual relaxed atomic so the
 * dumper (possibly a signal handler on another thread) can read a
 * slot mid-overwrite without a data race; `seq` carries the event's
 * global per-thread sequence number (index + 1; 0 = never written or
 * being rewritten) and is published with a release store after the
 * fields, so a reader that observes it also observes the fields.
 */
struct Slot
{
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> rid{0};
    std::atomic<const char *> name{nullptr};
    std::atomic<uint8_t> phase{0};
    std::atomic<uint8_t> level{0};
};

/** One recorded event, as the JSON writer sees it. */
struct Event
{
    uint64_t ts_ns;
    uint64_t rid;
    const char *name;
    char phase;
    uint8_t level;
};

struct Ring
{
    std::atomic<uint64_t> head{0}; // next sequence number to write
    uint32_t tid = 0;
    Slot slots[kRingEvents];
    /** Span edges recorded while a trace session is open. The
     * owner appends and stopTracing drains, both under the mutex. */
    std::mutex session_mutex;
    std::vector<Event> session;
};

std::atomic<Ring *> g_rings[kMaxRings];
std::atomic<uint32_t> g_ring_count{0};

/** Armed dump destination (fixed storage: read by the signal
 * handler, which cannot touch std::string). Empty = unarmed. */
char g_armed_path[4096] = {0};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_dumped{false};

/** The trace session: at most one open at a time. */
struct Session
{
    std::mutex mutex;
    std::string path;
    bool active = false;
} g_session;

thread_local Ring *t_ring = nullptr;

/** First-use ring setup: the one allocation a thread ever pays.
 * Leaked deliberately — a crash handler and a trace session must be
 * able to walk rings of threads that already exited. Reachable via
 * g_rings, so LeakSanitizer stays quiet. */
Ring *
initRing()
{
    Ring *ring = new Ring;
    const uint32_t i =
        g_ring_count.fetch_add(1, std::memory_order_relaxed);
    ring->tid = i;
    if (i < kMaxRings)
        g_rings[i].store(ring, std::memory_order_release);
    t_ring = ring;
    return ring;
}

/** Call `f` on every ring in the table, in tid order. */
template <typename F>
void
forEachRing(F &&f)
{
    const uint32_t rings = std::min<uint32_t>(
        g_ring_count.load(std::memory_order_acquire), kMaxRings);
    for (uint32_t r = 0; r < rings; ++r)
        if (Ring *ring = g_rings[r].load(std::memory_order_acquire))
            f(*ring);
}

/** Copy one published slot (false = empty slot or torn by a
 * concurrent overwrite). */
bool
readSlot(const Slot &slot, uint64_t &seq, Event &out)
{
    seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0)
        return false;
    out.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    out.rid = slot.rid.load(std::memory_order_relaxed);
    out.name = slot.name.load(std::memory_order_relaxed);
    out.phase = char(slot.phase.load(std::memory_order_relaxed));
    out.level = slot.level.load(std::memory_order_relaxed);
    return seq == slot.seq.load(std::memory_order_acquire) &&
           out.name != nullptr;
}

void
appendEventJson(std::string &out, const Event &e, uint32_t tid,
                const char *cat, uint64_t t0, bool first)
{
    char line[320];
    const double ts = double(e.ts_ns - t0) / 1000.0;
    // Span/event names are code-controlled literals ([a-z0-9._-]),
    // so no JSON escaping is needed.
    int n;
    if (e.phase == 'L') {
        n = std::snprintf(
            line, sizeof line,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
            "\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
            "\"args\":{\"rid\":%llu,\"level\":\"%s\"}}",
            first ? "\n" : ",\n", e.name, cat, tid, ts,
            (unsigned long long)e.rid,
            logLevelName(LogLevel(e.level)));
    } else if (e.rid != 0) {
        n = std::snprintf(
            line, sizeof line,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
            "\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
            "\"args\":{\"rid\":%llu}}",
            first ? "\n" : ",\n", e.name, cat, e.phase, tid, ts,
            (unsigned long long)e.rid);
    } else {
        n = std::snprintf(
            line, sizeof line,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
            "\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
            first ? "\n" : ",\n", e.name, cat, e.phase, tid, ts);
    }
    out.append(line, std::size_t(std::max(n, 0)));
}

constexpr char kHeader[] =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
constexpr char kFooter[] = "\n]}\n";

/** One thread's events in recording order. */
struct ThreadEvents
{
    uint32_t tid = 0;
    std::vector<Event> events;
};

/**
 * Write per-thread event lists to `path` as Chrome trace-event JSON
 * under category `cat`, one event per line (the test suite parses it
 * line-wise; json.tool validates the whole file). Events stay in
 * per-thread recording order — Perfetto sorts by ts and only
 * same-thread order matters for nesting — and ts is microseconds
 * with nanosecond precision, relative to the earliest event.
 *
 * Each thread's stream is replayed into balanced, nested B/E pairs:
 * a wrapped ring may retain an 'E' whose 'B' was overwritten (or a
 * session an 'E' whose 'B' predates it), and a 'B' whose span is
 * still open. The missing edges are synthesized at the thread's
 * first and last timestamps.
 */
bool
writeBalancedJson(const std::string &path,
                  const std::vector<ThreadEvents> &threads,
                  const char *cat)
{
    uint64_t t0 = UINT64_MAX;
    for (const ThreadEvents &thread : threads)
        for (const Event &e : thread.events)
            t0 = std::min(t0, e.ts_ns);
    if (t0 == UINT64_MAX)
        t0 = 0;

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << kHeader;
    bool first = true;
    std::string body;
    for (const auto &[tid, events] : threads) {
        if (events.empty())
            continue;
        body.clear();
        const uint64_t first_ts = events.front().ts_ns;
        const uint64_t last_ts = events.back().ts_ns;
        std::vector<Event> opens; // synthetic leading 'B's
        std::vector<Event> stack; // currently open spans
        for (const Event &e : events) {
            if (e.phase == 'B') {
                stack.push_back(e);
            } else if (e.phase == 'E') {
                if (!stack.empty()) {
                    stack.pop_back();
                } else {
                    Event open = e;
                    open.phase = 'B';
                    open.ts_ns = first_ts;
                    opens.push_back(open);
                }
            }
        }
        // Outermost synthetic open first: the last orphan close seen
        // is the outermost span.
        for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
            appendEventJson(body, *it, tid, cat, t0, first);
            first = false;
        }
        for (const Event &e : events) {
            appendEventJson(body, e, tid, cat, t0, first);
            first = false;
        }
        // Innermost unclosed span closes first (stack order).
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            Event close = *it;
            close.phase = 'E';
            close.ts_ns = last_ts;
            appendEventJson(body, close, tid, cat, t0, first);
            first = false;
        }
        out << body;
    }
    out << kFooter;
    return bool(out);
}

// -----------------------------------------------------------------
// Async-signal-safe path
// -----------------------------------------------------------------

void
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0)
            return;
        data += n;
        len -= std::size_t(n);
    }
}

std::size_t
fmtU64(char *out, uint64_t v)
{
    char tmp[20];
    std::size_t n = 0;
    do {
        tmp[n++] = char('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

std::size_t
append(char *buf, std::size_t pos, const char *s)
{
    const std::size_t n = std::strlen(s);
    std::memcpy(buf + pos, s, n);
    return pos + n;
}

/** Install-once guard for the atexit hook. */
std::atomic<bool> g_exit_hook{false};

void
onFatalSignal(int sig)
{
    // At most one dump per process: an explicit tripwire dump (or a
    // first fatal signal) wins over the SIGABRT that follows it.
    if (!g_dumped.exchange(true, std::memory_order_seq_cst)) {
        const int fd = ::open(g_armed_path,
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dumpSignalSafe(fd);
            ::close(fd);
        }
    }
    // SA_RESETHAND restored the default disposition, so re-raising
    // terminates the process with the original signal.
    ::raise(sig);
}

} // namespace

uint64_t
nowNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
record(const char *name, char phase, uint8_t level)
{
    Ring *ring = t_ring;
    if (!ring)
        ring = initRing();
    const uint64_t ts_ns = nowNs();
    const uint64_t rid = currentRequestId();
    const uint64_t i =
        ring->head.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = ring->slots[i & (kRingEvents - 1)];
    slot.seq.store(0, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.rid.store(rid, std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.phase.store(uint8_t(phase), std::memory_order_relaxed);
    slot.level.store(level, std::memory_order_relaxed);
    slot.seq.store(i + 1, std::memory_order_release);
    // Trace-session sink: span edges only, so a trace file holds
    // spans and no log events.
    if (tracingEnabled() && phase != 'L') {
        std::lock_guard<std::mutex> lock(ring->session_mutex);
        ring->session.push_back(Event{ts_ns, rid, name, phase, 0});
    }
}

void
arm(const std::string &path)
{
    if (path.empty() || path.size() >= sizeof g_armed_path)
        return;
    std::memcpy(g_armed_path, path.c_str(), path.size() + 1);
    g_armed.store(true, std::memory_order_release);
    g_dumped.store(false, std::memory_order_relaxed);

    struct sigaction action = {};
    action.sa_handler = onFatalSignal;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGSEGV, &action, nullptr);
    ::sigaction(SIGABRT, &action, nullptr);

    if (!g_exit_hook.exchange(true, std::memory_order_seq_cst))
        std::atexit([] { dumpNow(); });
}

bool
armed()
{
    return g_armed.load(std::memory_order_acquire);
}

bool
dumpNow()
{
    if (!armed() || g_dumped.exchange(true, std::memory_order_seq_cst))
        return false;
    return dumpTo(g_armed_path);
}

bool
dumpTo(const std::string &path)
{
    // A consistent copy of every ring — its newest kRingEvents
    // events — ordered by the thread's sequence numbers.
    std::vector<ThreadEvents> threads;
    std::vector<std::pair<uint64_t, Event>> copied;
    forEachRing([&](const Ring &ring) {
        copied.clear();
        for (const Slot &slot : ring.slots) {
            uint64_t seq = 0;
            Event e{};
            if (readSlot(slot, seq, e))
                copied.emplace_back(seq, e);
        }
        std::sort(copied.begin(), copied.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        ThreadEvents &thread = threads.emplace_back();
        thread.tid = ring.tid;
        for (const auto &[seq, e] : copied)
            thread.events.push_back(e);
    });
    if (!writeBalancedJson(path, threads, "flight")) {
        logWarn("obs.flight_write_failed", {{"path", path}});
        return false;
    }
    return true;
}

void
dumpSignalSafe(int fd)
{
    writeAll(fd, kHeader, sizeof kHeader - 1);
    const uint32_t rings = std::min<uint32_t>(
        g_ring_count.load(std::memory_order_relaxed), kMaxRings);
    bool first = true;
    for (uint32_t r = 0; r < rings; ++r) {
        const Ring *ring =
            g_rings[r].load(std::memory_order_relaxed);
        if (!ring)
            continue;
        for (const Slot &slot : ring->slots) {
            const uint64_t seq =
                slot.seq.load(std::memory_order_acquire);
            const char *name =
                slot.name.load(std::memory_order_relaxed);
            if (seq == 0 || name == nullptr)
                continue;
            const char phase =
                char(slot.phase.load(std::memory_order_relaxed));
            char buf[384];
            std::size_t pos = 0;
            buf[pos++] = first ? '\n' : ',';
            if (!first)
                buf[pos++] = '\n';
            first = false;
            pos = append(buf, pos, "{\"name\":\"");
            // Names are literals; cap the copy so a corrupted
            // pointer cannot overrun the buffer.
            for (const char *c = name; *c && pos < 200; ++c)
                buf[pos++] = *c;
            pos = append(buf, pos, "\",\"cat\":\"flight\",\"ph\":\"");
            buf[pos++] = phase == 'L' ? 'i' : phase;
            pos = append(buf, pos, "\"");
            if (phase == 'L')
                pos = append(buf, pos, ",\"s\":\"t\"");
            pos = append(buf, pos, ",\"pid\":1,\"tid\":");
            pos += fmtU64(buf + pos, ring->tid);
            pos = append(buf, pos, ",\"ts\":");
            pos += fmtU64(
                buf + pos,
                slot.ts_ns.load(std::memory_order_relaxed) / 1000);
            const uint64_t rid =
                slot.rid.load(std::memory_order_relaxed);
            if (rid != 0) {
                pos = append(buf, pos, ",\"args\":{\"rid\":");
                pos += fmtU64(buf + pos, rid);
                pos = append(buf, pos, "}");
            }
            pos = append(buf, pos, "}");
            writeAll(fd, buf, pos);
        }
    }
    writeAll(fd, kFooter, sizeof kFooter - 1);
}

} // namespace flight

bool
startTracing(const std::string &path)
{
    std::lock_guard<std::mutex> lock(flight::g_session.mutex);
    if (flight::g_session.active)
        return false;
    // Drop edges a thread appended after the last session's drain
    // (it read the flag just before stopTracing cleared it).
    flight::forEachRing([](flight::Ring &ring) {
        std::lock_guard<std::mutex> ring_lock(ring.session_mutex);
        ring.session.clear();
    });
    flight::g_session.path = path;
    flight::g_session.active = true;
    detail::g_tracing.store(true, std::memory_order_relaxed);
    return true;
}

void
stopTracing()
{
    std::lock_guard<std::mutex> lock(flight::g_session.mutex);
    if (!flight::g_session.active)
        return;
    detail::g_tracing.store(false, std::memory_order_relaxed);
    flight::g_session.active = false;
    std::vector<flight::ThreadEvents> threads;
    flight::forEachRing([&](flight::Ring &ring) {
        flight::ThreadEvents &thread = threads.emplace_back();
        thread.tid = ring.tid;
        std::lock_guard<std::mutex> ring_lock(ring.session_mutex);
        thread.events.swap(ring.session);
    });
    if (!flight::writeBalancedJson(flight::g_session.path, threads,
                                   "qpad"))
        logWarn("obs.trace_write_failed",
                {{"path", flight::g_session.path}});
    flight::g_session.path.clear();
}

namespace flight
{

namespace
{

/** Reads QPAD_FLIGHT and QPAD_TRACE once at static init (env is set
 * before main): arms the recorder and opens a trace session flushed
 * at exit. Rings outlive their threads, so the flush sees every pool
 * worker's spans whenever it runs relative to the pool's teardown. */
struct FlightEnvInit
{
    FlightEnvInit()
    {
        const char *flight_path = std::getenv("QPAD_FLIGHT");
        if (flight_path && *flight_path)
            arm(flight_path);
        const char *trace_path = std::getenv("QPAD_TRACE");
        if (trace_path && *trace_path && startTracing(trace_path))
            std::atexit([] { stopTracing(); });
    }
} g_flight_env_init;

} // namespace

} // namespace flight

} // namespace qpad::obs
