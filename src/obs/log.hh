/**
 * @file
 * Structured, leveled logging with request-id tagging.
 *
 * An event is a literal name plus ordered key-value fields:
 *
 *     obs::logWarn("cache.open_failed",
 *                  {{"path", path}, {"errno", int64_t(err)}});
 *
 * Field order is preserved exactly as written, so two runs that emit
 * the same events produce byte-identical log bodies (timestamps are
 * confined to the JSON format). Inside an `exec::RequestScope` every
 * event carries that request's id; so do trace spans and flight-
 * recorder entries, which read the same thread-local.
 *
 * Destination: QPAD_LOG=off|stderr|<path> (default stderr), format
 * QPAD_LOG_FORMAT=text|json (default text), threshold
 * QPAD_LOG_LEVEL=debug|info|warn|error (default info). Tests
 * reconfigure programmatically via configureLog().
 *
 * Cost contract: a filtered-out event is one relaxed atomic load and
 * a branch — no allocation, no locks, no clock reads. LogValue holds
 * views, never copies, so building the field list allocates nothing;
 * guard genuinely hot debug events with logEnabled() anyway to skip
 * argument evaluation. Event names must be string literals in the
 * metric-name grammar ([a-z0-9._-]): the flight recorder stores the
 * pointer, never a copy.
 *
 * The qpad_panic/fatal/assert macros (common/logging.hh) log here as
 * `log.panic` / `log.fatal` events before throwing; logging never
 * feeds back into any computation.
 */

#ifndef QPAD_OBS_LOG_HH
#define QPAD_OBS_LOG_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace qpad::obs
{

enum class LogLevel : uint8_t
{
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/** "debug" / "info" / "warn" / "error". */
const char *logLevelName(LogLevel level);

/** Small tagged view of one field value; never owns memory. String
 * values must outlive the logEvent() call (they are formatted
 * synchronously, so temporaries at the call site are fine). */
class LogValue
{
  public:
    enum class Kind : uint8_t { kString, kInt, kUint, kDouble, kBool };

    LogValue(const char *v) : kind_(Kind::kString), str_(v) {}
    LogValue(std::string_view v) : kind_(Kind::kString), str_(v) {}
    LogValue(const std::string &v) : kind_(Kind::kString), str_(v) {}
    LogValue(double v) : kind_(Kind::kDouble) { num_.d = v; }
    LogValue(bool v) : kind_(Kind::kBool) { num_.b = v; }
    LogValue(long long v) : kind_(Kind::kInt) { num_.i = v; }
    LogValue(unsigned long long v) : kind_(Kind::kUint) { num_.u = v; }
    LogValue(int v) : LogValue((long long)v) {}
    LogValue(long v) : LogValue((long long)v) {}
    LogValue(unsigned v) : LogValue((unsigned long long)v) {}
    LogValue(unsigned long v) : LogValue((unsigned long long)v) {}

    Kind kind() const { return kind_; }
    std::string_view str() const { return str_; }
    int64_t asInt() const { return num_.i; }
    uint64_t asUint() const { return num_.u; }
    double asDouble() const { return num_.d; }
    bool asBool() const { return num_.b; }

  private:
    Kind kind_;
    std::string_view str_;
    union
    {
        int64_t i;
        uint64_t u;
        double d;
        bool b;
    } num_ = {};
};

/** One key-value pair; the key must be a string literal. */
struct LogField
{
    std::string_view key;
    LogValue value;
};

enum class LogFormat : uint8_t { kText, kJson };

/** Full sink configuration (tests swap it and restore). */
struct LogConfig
{
    /** false = QPAD_LOG=off: every event is dropped. */
    bool enabled = true;
    /** Empty = stderr, otherwise append to this file. */
    std::string path;
    LogFormat format = LogFormat::kText;
    LogLevel min_level = LogLevel::kInfo;
};

/** Replace the process log sink (thread-safe). */
void configureLog(const LogConfig &config);

/** The current sink configuration (for save/restore in tests). */
LogConfig currentLogConfig();

namespace detail
{

/** Effective threshold: min_level, or 4 (above kError) when the sink
 * is off. The one hot-path load for filtered events. */
inline std::atomic<uint8_t> g_log_threshold{
    uint8_t(LogLevel::kInfo)};

/**
 * Current request id of the calling thread (0 = none). Set by
 * exec::RequestScope on the request thread and by the scheduler on
 * workers while they run a request's chunks; read by log events,
 * trace spans, and the flight recorder.
 */
inline thread_local uint64_t t_request_id = 0;

} // namespace detail

/** Would an event at `level` be emitted right now? */
inline bool
logEnabled(LogLevel level)
{
    return uint8_t(level) >=
           detail::g_log_threshold.load(std::memory_order_relaxed);
}

/**
 * Emit one structured event. `event` must be a string literal
 * ([a-z0-9._-]); fields render in the order given. Also records the
 * event into the flight recorder ring when it passes the filter.
 */
void logEvent(LogLevel level, const char *event,
              std::initializer_list<LogField> fields = {});

inline void
logDebug(const char *event, std::initializer_list<LogField> fields = {})
{
    if (logEnabled(LogLevel::kDebug))
        logEvent(LogLevel::kDebug, event, fields);
}

inline void
logInfo(const char *event, std::initializer_list<LogField> fields = {})
{
    if (logEnabled(LogLevel::kInfo))
        logEvent(LogLevel::kInfo, event, fields);
}

inline void
logWarn(const char *event, std::initializer_list<LogField> fields = {})
{
    if (logEnabled(LogLevel::kWarn))
        logEvent(LogLevel::kWarn, event, fields);
}

inline void
logError(const char *event, std::initializer_list<LogField> fields = {})
{
    if (logEnabled(LogLevel::kError))
        logEvent(LogLevel::kError, event, fields);
}

/**
 * Emit a warn event at most once per `flag` (callers own the flag —
 * typically one per degradation condition per object, so "warn once,
 * keep serving" paths cannot flood the log under retry storms).
 * Returns true when this call was the one that emitted.
 */
inline bool
logWarnOnce(std::atomic<bool> &flag, const char *event,
            std::initializer_list<LogField> fields = {})
{
    if (flag.exchange(true, std::memory_order_relaxed))
        return false;
    logWarn(event, fields);
    return true;
}

/** The calling thread's request id (0 = outside any request). */
inline uint64_t
currentRequestId()
{
    return detail::t_request_id;
}

/**
 * RAII request-id tag for the calling thread. An id of 0 keeps the
 * current tag (so nested no-request scopes never erase an enclosing
 * request's id); the previous tag is always restored on exit.
 */
class ScopedRequestId
{
  public:
    explicit ScopedRequestId(uint64_t id) : prev_(detail::t_request_id)
    {
        if (id != 0)
            detail::t_request_id = id;
    }

    ~ScopedRequestId() { detail::t_request_id = prev_; }

    ScopedRequestId(const ScopedRequestId &) = delete;
    ScopedRequestId &operator=(const ScopedRequestId &) = delete;

  private:
    uint64_t prev_;
};

} // namespace qpad::obs

#endif // QPAD_OBS_LOG_HH
