/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms.
 *
 * Hot-path contract: updating an existing metric is lock-free — a
 * relaxed atomic add on a per-thread-striped cache line — and never
 * allocates. Registration (`obs::counter("name")` etc.) takes a
 * mutex and allocates, so instrumentation sites cache the returned
 * reference in a function-local static:
 *
 *     static obs::Counter &chunks = obs::counter("runtime.chunks");
 *     chunks.add(n);
 *
 * Handles are stable for the life of the process (the registry is
 * never destroyed), so references captured during static init or
 * held by worker threads stay valid through shutdown.
 *
 * Snapshots are deterministic: samples come back sorted by name, and
 * values are exact sums of everything recorded before the snapshot
 * (stripes are summed, never sampled). Set QPAD_METRICS=stderr for a
 * text table on stderr at process exit, or QPAD_METRICS=<path> for a
 * JSON file.
 *
 * Observability must never perturb results: nothing here feeds back
 * into any computation, so instrumented code is bit-identical with
 * metrics exported or not.
 */

#ifndef QPAD_OBS_METRICS_HH
#define QPAD_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qpad::obs
{

namespace detail
{

/** Update stripes per metric; threads hash onto one each. */
constexpr std::size_t kStripes = 16;

inline std::atomic<std::size_t> g_next_stripe{0};

/** Stable stripe index of the calling thread (assigned on first
 * use; round-robin, so pool workers spread over all stripes). */
inline std::size_t
threadStripe()
{
    thread_local const std::size_t stripe =
        g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
        kStripes;
    return stripe;
}

/** One cache line per stripe so concurrent adds never false-share. */
struct alignas(64) Cell
{
    std::atomic<uint64_t> value{0};
};

/** Relaxed add on an atomic double (CAS loop: portable to standard
 * libraries without P0020 floating-point fetch_add). */
void addDouble(std::atomic<double> &target, double v);

/** Relaxed monotonic max on an atomic double. */
void maxDouble(std::atomic<double> &target, double v);

} // namespace detail

/** Monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(uint64_t n = 1)
    {
        cells_[detail::threadStripe()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Exact total of every add() that happened-before the call. */
    uint64_t value() const;

  private:
    detail::Cell cells_[detail::kStripes];
};

/** Signed level that can move both ways (resident bytes, entries). */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram for nonnegative values (latencies in
 * seconds by convention). Bucket i counts observations <= bounds[i];
 * an implicit +inf bucket catches the rest. Bounds are fixed at
 * registration; observe() is striped relaxed atomics, no locks.
 */
class Histogram
{
  public:
    explicit Histogram(
        std::vector<double> bounds = defaultLatencyBounds());
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }
    uint64_t count() const;
    double sum() const;
    /** Largest value ever observed (0 when empty). */
    double max() const;
    /** Per-bucket counts, bounds().size() + 1 entries (last = +inf). */
    std::vector<uint64_t> bucketCounts() const;

    /** 1 µs .. 10 s decades — covers chunk waits through sweeps. */
    static std::vector<double> defaultLatencyBounds();

  private:
    struct Stripe
    {
        std::vector<std::atomic<uint64_t>> buckets;
        std::atomic<uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> max{0.0};
    };

    std::vector<double> bounds_;
    std::vector<Stripe> stripes_;
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/**
 * Look up or create the named metric. Static-init-safe (the registry
 * is a function-local leaked singleton) and thread-safe; panics if
 * `name` is already registered as a different kind. For histograms,
 * the bounds of the first registration win.
 */
Counter &counter(std::string_view name);
Gauge &gauge(std::string_view name);
Histogram &histogram(
    std::string_view name,
    std::vector<double> bounds = Histogram::defaultLatencyBounds());

/** One metric's state at snapshot time. */
struct Sample
{
    enum class Kind { Counter, Gauge, Histogram };

    std::string name;
    Kind kind = Kind::Counter;
    /** Counter total or gauge level. */
    double value = 0.0;
    /** Histogram-only fields. */
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;
};

/** Name-sorted snapshot of every registered metric. */
using Snapshot = std::vector<Sample>;
Snapshot snapshot();

/**
 * snapshot() minus `before`: counters and histogram counts/sums/
 * buckets subtract, gauges and histogram maxima keep their current
 * value (a delta of a level or a maximum is not meaningful). Metrics
 * registered since `before` appear with their full value.
 */
Snapshot deltaSince(const Snapshot &before);

/** Find a sample by exact name (nullptr when absent). */
const Sample *find(const Snapshot &snap, std::string_view name);

/**
 * Interpolated quantile of a histogram sample, q in [0, 1]: the
 * target rank's bucket is found from the cumulative counts and the
 * value interpolated linearly within the bucket's bounds (the +inf
 * bucket and the result are clamped to the observed max). 0 for an
 * empty histogram or a non-histogram sample.
 */
double samplePercentile(const Sample &s, double q);

/** Scalar view of a sample: counter/gauge value, histogram sum;
 * 0 when the name is absent. */
double valueOf(const Snapshot &snap, std::string_view name);

/**
 * Aligned text table of the samples whose name starts with `prefix`
 * (all of them when empty), one per line, prefixed with `indent`.
 */
void writeTable(std::ostream &out, const Snapshot &snap,
                std::string_view prefix = {},
                std::string_view indent = {});

/** The whole snapshot as JSON: {"metrics":[...]}, one per line. */
void writeJson(std::ostream &out, const Snapshot &snap);

/** One sample as a JSON object (the element writeJson emits; also
 * used by request reports). */
void writeSampleJson(std::ostream &out, const Sample &s);

} // namespace qpad::obs

#endif // QPAD_OBS_METRICS_HH
