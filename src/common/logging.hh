/**
 * @file
 * Error-reporting macros.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (library bugs), fatal() for user errors that make
 * continuing impossible. Each logs a `log.panic` / `log.fatal` event
 * through the structured logger (obs/log.hh: honouring QPAD_LOG
 * destination/format/level and carrying the current request id),
 * then throws std::logic_error / std::runtime_error, which the tests
 * pin. Non-fatal diagnostics are structured events emitted directly,
 * e.g. obs::logWarn("cache.open_failed", {{"path", path}}).
 */

#ifndef QPAD_COMMON_LOGGING_HH
#define QPAD_COMMON_LOGGING_HH

#include <sstream>
#include <string>
#include <utility>

namespace qpad
{

namespace detail
{

/** Stream a pack of arguments into a single string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

// Implemented in obs/log.cc: each logs, then throws.
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace detail

/**
 * Abort with a message. Use for conditions that indicate a bug in
 * qpad itself, never for bad user input.
 */
#define qpad_panic(...)                                                 \
    ::qpad::detail::panicImpl(__FILE__, __LINE__,                       \
                              ::qpad::detail::concat(__VA_ARGS__))

/**
 * Exit with an error message. Use for conditions caused by the
 * caller (bad configuration, malformed input files, ...).
 */
#define qpad_fatal(...)                                                 \
    ::qpad::detail::fatalImpl(__FILE__, __LINE__,                       \
                              ::qpad::detail::concat(__VA_ARGS__))

/** panic() unless the condition holds. */
#define qpad_assert(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::qpad::detail::panicImpl(__FILE__, __LINE__,               \
                ::qpad::detail::concat("assertion '" #cond "' failed: ",\
                                       ##__VA_ARGS__));                 \
        }                                                               \
    } while (0)

} // namespace qpad

#endif // QPAD_COMMON_LOGGING_HH
