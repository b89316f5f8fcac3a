#include "spans.hh"

#include <atomic>
#include <cinttypes>
#include <cstdio>

namespace perfbench
{

namespace
{

thread_local int64_t tl_current = -1;
thread_local int64_t tl_job = -1;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

int64_t
Recorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int64_t
Recorder::open(const char *name, int64_t parent, int64_t job)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = parent;
    rec.job = job;
    rec.thread = threadIndex();
    rec.start_ns = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(rec);
    return int64_t(spans_.size()) - 1;
}

void
Recorder::close(int64_t id)
{
    const int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[std::size_t(id)].end_ns = end;
}

std::vector<SpanRecord>
Recorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span::Span(Recorder &rec, const char *name, int64_t job)
    : rec_(rec), id_(rec.open(name, tl_current, job >= 0 ? job : tl_job)),
      saved_parent_(tl_current), saved_job_(tl_job)
{
    tl_current = id_;
    if (job >= 0)
        tl_job = job;
}

Span::~Span()
{
    rec_.close(id_);
    tl_current = saved_parent_;
    tl_job = saved_job_;
}

LayerTable
fold(const std::vector<SpanRecord> &spans)
{
    std::vector<int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_ns - spans[i].start_ns;
    LayerTable table;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int64_t dur = spans[i].end_ns - spans[i].start_ns;
        if (spans[i].parent < 0)
            table.total_ns += dur;
        else
            self[std::size_t(spans[i].parent)] -= dur;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerRow &row = table.rows[layerOf(spans[i].name)];
        ++row.spans;
        row.self_ns += self[i];
    }
    return table;
}

void
writeLayerTable(std::ostream &out, const LayerTable &table)
{
    char line[128];
    std::snprintf(line, sizeof line, "%-12s %8s %12s %7s\n", "layer",
                  "spans", "self_s", "share");
    out << line;
    const double total = double(table.total_ns) * 1e-9;
    for (const auto &[layer, row] : table.rows) {
        const double s = double(row.self_ns) * 1e-9;
        std::snprintf(line, sizeof line, "%-12s %8zu %12.6f %6.2f%%\n",
                      layer.c_str(), row.spans, s,
                      total > 0 ? 100.0 * s / total : 0.0);
        out << line;
    }
    std::snprintf(line, sizeof line, "%-12s %8s %12.6f %6.2f%%\n",
                  "total", "", total, 100.0);
    out << line;
}

void
writeChromeTrace(std::ostream &out, const std::vector<SpanRecord> &spans)
{
    out << "{\"traceEvents\":[";
    char buf[320];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%" PRId64
                      ",\"job\":%" PRId64 "}}",
                      i ? "," : "", s.name, s.thread,
                      double(s.start_ns) * 1e-3,
                      double(s.end_ns - s.start_ns) * 1e-3, i,
                      s.parent, s.job);
        out << buf;
    }
    out << "\n]}\n";
}

} // namespace perfbench
