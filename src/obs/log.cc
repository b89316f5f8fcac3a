#include "obs/log.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "obs/flight.hh"

namespace qpad::obs
{

namespace
{

/**
 * Process log sink. Leaked on purpose (same pattern as the metrics
 * registry): events may be emitted from worker threads during static
 * destruction, after any destructor this object could have had.
 */
struct Sink
{
    std::mutex mutex;
    LogConfig config;
    std::ofstream file; // open iff config.path is nonempty
};

Sink &
sink()
{
    static Sink *s = new Sink;
    return *s;
}

/** Recompute the one hot-path threshold from the config. */
void
publishThreshold(const LogConfig &config)
{
    uint8_t threshold = uint8_t(config.min_level);
    if (!config.enabled)
        threshold = uint8_t(LogLevel::kError) + 1;
    detail::g_log_threshold.store(threshold,
                                  std::memory_order_relaxed);
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendValue(std::string &out, const LogValue &v, bool json)
{
    std::ostringstream num;
    switch (v.kind()) {
      case LogValue::Kind::kString:
        out += '"';
        appendJsonEscaped(out, v.str());
        out += '"';
        return;
      case LogValue::Kind::kInt: num << v.asInt(); break;
      case LogValue::Kind::kUint: num << v.asUint(); break;
      case LogValue::Kind::kDouble:
        if (json)
            num.precision(17);
        num << v.asDouble();
        break;
      case LogValue::Kind::kBool:
        out += v.asBool() ? "true" : "false";
        return;
    }
    out += num.str();
}

/** Reads QPAD_LOG / QPAD_LOG_FORMAT / QPAD_LOG_LEVEL once at static
 * init (env is set before main). Malformed values fall back to the
 * defaults rather than aborting: logging must never take the process
 * down. */
struct LogEnvInit
{
    LogEnvInit()
    {
        LogConfig config;
        if (const char *dest = std::getenv("QPAD_LOG");
            dest && *dest) {
            if (std::string_view(dest) == "off")
                config.enabled = false;
            else if (std::string_view(dest) != "stderr")
                config.path = dest;
        }
        if (const char *fmt = std::getenv("QPAD_LOG_FORMAT");
            fmt && std::string_view(fmt) == "json")
            config.format = LogFormat::kJson;
        if (const char *lvl = std::getenv("QPAD_LOG_LEVEL");
            lvl && *lvl) {
            const std::string_view v(lvl);
            if (v == "debug")
                config.min_level = LogLevel::kDebug;
            else if (v == "info")
                config.min_level = LogLevel::kInfo;
            else if (v == "warn")
                config.min_level = LogLevel::kWarn;
            else if (v == "error")
                config.min_level = LogLevel::kError;
        }
        configureLog(config);
    }
} g_log_env_init;

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
    }
    return "?";
}

void
configureLog(const LogConfig &config)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file.is_open())
        s.file.close();
    s.config = config;
    if (!config.path.empty()) {
        s.file.open(config.path, std::ios::app);
        if (!s.file) {
            // Fall back to stderr so the events are not lost.
            s.config.path.clear();
        }
    }
    publishThreshold(s.config);
}

LogConfig
currentLogConfig()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.config;
}

void
logEvent(LogLevel level, const char *event,
         std::initializer_list<LogField> fields)
{
    if (!logEnabled(level))
        return;
    // The ring keeps crash forensics even when the sink drops or
    // redirects the formatted line.
    flight::record(event, 'L', uint8_t(level));

    const uint64_t rid = currentRequestId();
    std::string line;
    line.reserve(96);
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    const bool json = s.config.format == LogFormat::kJson;
    if (json) {
        line += "{\"ts_ns\":";
        line += std::to_string(flight::nowNs());
        line += ",\"level\":\"";
        line += logLevelName(level);
        line += "\",\"event\":\"";
        line += event;
        line += '"';
        if (rid != 0) {
            line += ",\"rid\":";
            line += std::to_string(rid);
        }
        for (const LogField &f : fields) {
            line += ",\"";
            line += f.key;
            line += "\":";
            appendValue(line, f.value, true);
        }
        line += "}\n";
    } else {
        line += '[';
        line += logLevelName(level);
        line += "] ";
        line += event;
        if (rid != 0) {
            line += " rid=";
            line += std::to_string(rid);
        }
        for (const LogField &f : fields) {
            line += ' ';
            line += f.key;
            line += '=';
            appendValue(line, f.value, false);
        }
        line += '\n';
    }
    if (s.file.is_open()) {
        s.file << line;
        s.file.flush();
    } else {
        // qpad-lint: allow(rawlog) "the structured-log sink itself:
        // QPAD_LOG's default/stderr destination writes here"
        std::cerr << line;
    }
}

} // namespace qpad::obs

// ---------------------------------------------------------------------
// common/logging.hh panic/fatal entry points: log, then throw.
// ---------------------------------------------------------------------

namespace qpad::detail
{

namespace
{

std::string
sourceAt(const char *file, int line)
{
    return std::string(file) + ":" + std::to_string(line);
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    obs::logEvent(obs::LogLevel::kError, "log.panic",
                  {{"msg", msg}, {"at", sourceAt(file, line)}});
    // Throwing (instead of abort()) keeps panics testable; the type is
    // logic_error because a panic always indicates a qpad bug.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    obs::logEvent(obs::LogLevel::kError, "log.fatal",
                  {{"msg", msg}, {"at", sourceAt(file, line)}});
    throw std::runtime_error("fatal: " + msg);
}

} // namespace qpad::detail
