/**
 * @file
 * In-memory span recorder for the traced replay.
 *
 * The qpad_perf replay wraps each call into a library layer in a
 * Span. A span records its name, start and end (steady clock,
 * nanoseconds since the recorder started), its parent (the span open
 * on the same thread when it started, or -1) and the job it belongs
 * to. Spans stay in memory until the replay ends; fold() turns them
 * into a layer -> self-time table and writeChromeTrace() writes them
 * out. The layer of a span is its name up to the first '.'.
 */

#ifndef QPAD_PERFBENCH_SPANS_HH
#define QPAD_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t job = -1;
    uint32_t thread = 0;
};

/** Thread-safe span store; spans are appended in start order. */
class Recorder
{
  public:
    Recorder() : origin_(std::chrono::steady_clock::now()) {}

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Append an open span and return its id. */
    int64_t open(const char *name, int64_t parent, int64_t job);
    void close(int64_t id);

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

  private:
    int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span on the calling thread. Its parent is the innermost span
 * open on this thread; its job is the parent's job unless `job` is
 * given (>= 0), which starts a new job.
 */
class Span
{
  public:
    Span(Recorder &rec, const char *name, int64_t job = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Recorder &rec_;
    int64_t id_;
    int64_t saved_parent_;
    int64_t saved_job_;
};

/** One row of the layer table. */
struct LayerRow
{
    std::size_t spans = 0;
    int64_t self_ns = 0;
};

/**
 * Self time per layer: a span's duration minus the durations of its
 * children. `total_ns` is the summed duration of the root spans —
 * the busy time of the threads that ran them — and equals the sum of
 * the rows' self time exactly.
 */
struct LayerTable
{
    std::map<std::string, LayerRow> rows;
    int64_t total_ns = 0;
};

LayerTable fold(const std::vector<SpanRecord> &spans);

/** Aligned text rendering: layer, spans, self seconds, share. */
void writeLayerTable(std::ostream &out, const LayerTable &table);

/** Chrome trace-event JSON ("X" events; id/parent/job in args). */
void writeChromeTrace(std::ostream &out,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // QPAD_PERFBENCH_SPANS_HH
