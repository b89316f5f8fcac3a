/**
 * @file
 * Shared configuration for the bench binaries.
 *
 * Every bench honours the QPAD_FAST environment variable (0/1, or
 * unset/empty = off) to run with reduced Monte Carlo budgets during
 * development; the default budgets follow the paper (10,000 yield
 * trials, sigma = 30 MHz). QPAD_THREADS caps the worker count of the
 * parallel runtime (0 or unset = one per hardware thread, 1 =
 * sequential); results are identical for every setting. Malformed
 * values (negative counts, trailing garbage, out-of-range numbers,
 * QPAD_FAST flags other than 0/1) abort with a message instead of
 * being silently coerced into a surprising configuration.
 *
 * QPAD_DEADLINE_MS=<millis> arms an execution deadline on the bench's
 * request context: the run either completes in full or unwinds as a
 * deadline-exceeded cancellation (each bench documents its exit code
 * for that case). A deadline generous enough to finish changes
 * nothing — a context decides only WHETHER a result exists, never its
 * bytes.
 *
 * Observability (handled by qpad::obs, no bench code involved):
 * QPAD_TRACE=<path> writes a Chrome trace-event JSON profile of the
 * run at exit, QPAD_METRICS=stderr|<path> dumps the process metrics
 * registry at exit. Neither affects any computed result — outputs
 * are bit-identical with the variables set or unset.
 */

#ifndef QPAD_BENCH_BENCH_COMMON_HH
#define QPAD_BENCH_BENCH_COMMON_HH

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.hh"
#include "exec/context.hh"
#include "obs/metrics.hh"

namespace qpad::bench
{

/**
 * Scheduler series moved by one timed call, read back as metrics-
 * registry deltas so benches print the very series QPAD_METRICS
 * exports. Valid when the call ran exactly one parallel region:
 * then the idle-histogram sum delta is that region's single
 * observation of the caller's wait for stragglers.
 */
struct RegionDelta
{
    std::size_t chunks = 0;
    double straggler_wait_seconds = 0.0;
};

inline RegionDelta
regionDelta(const obs::Snapshot &before)
{
    const obs::Snapshot d = obs::deltaSince(before);
    RegionDelta out;
    out.chunks = std::size_t(obs::valueOf(d, "runtime.chunks"));
    out.straggler_wait_seconds =
        obs::valueOf(d, "runtime.region_idle_seconds");
    return out;
}

[[noreturn]] inline void
dieOnEnv(const char *name, const char *value, const char *expected)
{
    std::fprintf(stderr, "qpad bench: invalid %s value '%s' (%s)\n",
                 name, value, expected);
    std::exit(2);
}

/** Development fast mode: QPAD_FAST must be unset, empty, 0, or 1. */
inline bool
fastMode()
{
    const char *fast = std::getenv("QPAD_FAST");
    if (!fast || !*fast)
        return false;
    if (fast[0] != '\0' && fast[1] == '\0') {
        if (fast[0] == '0')
            return false;
        if (fast[0] == '1')
            return true;
    }
    dieOnEnv("QPAD_FAST", fast, "expected 0 or 1");
}

/** Worker-thread override from QPAD_THREADS (0 = hardware). */
inline runtime::Options
execOptions()
{
    runtime::Options exec;
    const char *threads = std::getenv("QPAD_THREADS");
    if (!threads || !*threads)
        return exec;
    // Digits only: strtoul would silently accept (and wrap) signs,
    // whitespace, and hex prefixes.
    for (const char *c = threads; *c; ++c)
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            dieOnEnv("QPAD_THREADS", threads,
                     "expected a nonnegative integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(threads, &end, 10);
    // The runtime's own ceiling: a value that passes here must never
    // panic inside resolveThreads, and the diagnostic quotes the
    // same constant the check uses.
    if (errno == ERANGE || *end != '\0' || v > runtime::kMaxThreads) {
        const std::string expected =
            "expected a thread count of at most " +
            std::to_string(runtime::kMaxThreads);
        dieOnEnv("QPAD_THREADS", threads, expected.c_str());
    }
    exec.num_threads = std::size_t(v);
    return exec;
}

/**
 * Wall-clock budget from QPAD_DEADLINE_MS in milliseconds, or 0 when
 * unset/empty (no deadline). Same strictness as the other knobs:
 * digits only, and 0 itself is rejected — an always-expired deadline
 * is never what the user meant, and 0 is the "unset" sentinel here.
 * So is a budget whose nanosecond count overflows: it would wrap to
 * a deadline in the past and stop the run at once.
 */
inline std::uint64_t
deadlineMs()
{
    const char *ms = std::getenv("QPAD_DEADLINE_MS");
    if (!ms || !*ms)
        return 0;
    for (const char *c = ms; *c; ++c)
        if (!std::isdigit(static_cast<unsigned char>(*c)))
            dieOnEnv("QPAD_DEADLINE_MS", ms,
                     "expected a positive integer of milliseconds");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(ms, &end, 10);
    if (errno == ERANGE || *end != '\0' || v == 0)
        dieOnEnv("QPAD_DEADLINE_MS", ms,
                 "expected a positive integer of milliseconds");
    constexpr unsigned long long kMaxMs =
        std::chrono::nanoseconds::max().count() / 1000000;
    if (v > kMaxMs) {
        const std::string expected =
            "expected at most " + std::to_string(kMaxMs) +
            " milliseconds";
        dieOnEnv("QPAD_DEADLINE_MS", ms, expected.c_str());
    }
    return std::uint64_t(v);
}

/**
 * The bench's request context: fresh, with a deadline armed when
 * QPAD_DEADLINE_MS is set. Pass it to the ctx-threaded entry points;
 * with the variable unset the context never stops anything.
 */
inline exec::Context
requestContext()
{
    exec::Context ctx;
    if (const std::uint64_t ms = deadlineMs())
        ctx.setDeadlineAfter(std::chrono::milliseconds(ms));
    return ctx;
}

/**
 * Machine-readable bench results for the `--json <path>` flag: one
 * `{"bench":...,"config":{...},"metrics":{...}}` object per run, so
 * CI can archive the numbers it already prints as artifacts. Purely
 * an extra output — the human-readable stdout is unchanged whether
 * the flag is given or not, keeping the cmp-gated legs byte-stable.
 * Keys render in insertion order; values are rendered at insert time
 * (doubles with enough digits to round-trip).
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

    void config(const std::string &key, double v)
    {
        configs_.emplace_back(key, number(v));
    }
    void config(const std::string &key, unsigned long long v)
    {
        configs_.emplace_back(key, std::to_string(v));
    }
    void config(const std::string &key, unsigned long v)
    {
        config(key, (unsigned long long)v);
    }
    void config(const std::string &key, unsigned v)
    {
        config(key, (unsigned long long)v);
    }
    void config(const std::string &key, bool v)
    {
        configs_.emplace_back(key, v ? "true" : "false");
    }
    void config(const std::string &key, const std::string &v)
    {
        configs_.emplace_back(key, quoted(v));
    }
    void config(const std::string &key, const char *v)
    {
        configs_.emplace_back(key, quoted(v));
    }

    void metric(const std::string &key, double v)
    {
        metrics_.emplace_back(key, number(v));
    }
    void metric(const std::string &key, unsigned long long v)
    {
        metrics_.emplace_back(key, std::to_string(v));
    }
    void metric(const std::string &key, unsigned long v)
    {
        metric(key, (unsigned long long)v);
    }
    void metric(const std::string &key, unsigned v)
    {
        metric(key, (unsigned long long)v);
    }
    void metric(const std::string &key, bool v)
    {
        metrics_.emplace_back(key, v ? "true" : "false");
    }
    void metric(const std::string &key, const std::string &v)
    {
        metrics_.emplace_back(key, quoted(v));
    }

    /** Write the document; exits 2 on IO failure (a CI artifact that
     * silently vanished would defeat the point of the flag). */
    void writeTo(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "qpad bench: cannot write --json file "
                         "'%s'\n",
                         path.c_str());
            std::exit(2);
        }
        out << "{\"bench\":" << quoted(bench_) << ",\"config\":{";
        render(out, configs_);
        out << "},\"metrics\":{";
        render(out, metrics_);
        out << "}}\n";
    }

  private:
    using Entries =
        std::vector<std::pair<std::string, std::string>>;

    static std::string number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    static std::string quoted(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }

    static void render(std::ostream &out, const Entries &entries)
    {
        bool first = true;
        for (const auto &[key, value] : entries) {
            if (!first)
                out << ",";
            first = false;
            out << quoted(key) << ":" << value;
        }
    }

    std::string bench_;
    Entries configs_;
    Entries metrics_;
};

/** Paper-fidelity experiment options (or scaled-down in fast mode). */
inline eval::ExperimentOptions
paperOptions()
{
    eval::ExperimentOptions opts;
    if (fastMode()) {
        opts.yield_options.trials = 1000;
        opts.max_yield_trials = 100000;
        opts.freq_options.local_trials = 300;
        opts.freq_options.refine_sweeps = 1;
        opts.random_bus_samples = 3;
    } else {
        opts.yield_options.trials = 10000; // paper Section 5.1
        // Dense 16-qubit chips need a large local budget before the
        // candidate argmax rises above Monte Carlo noise.
        opts.freq_options.local_trials = 8000;
        opts.random_bus_samples = 5;
    }
    opts.yield_options.sigma_ghz = 0.030; // paper Section 5.1
    // Parallel runtime: data points, yield shards, and the frequency
    // allocator's candidate scan all share the worker budget.
    opts.exec = execOptions();
    opts.yield_options.exec = opts.exec;
    opts.freq_options.exec = opts.exec;
    return opts;
}

} // namespace qpad::bench

#endif // QPAD_BENCH_BENCH_COMMON_HH
