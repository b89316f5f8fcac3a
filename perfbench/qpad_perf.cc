/**
 * @file
 * qpad_perf: one process of the qpad benchmark (perfbench/run.py
 * drives it; see perfbench/README.md).
 *
 *   qpad_perf --workload <name> --seed <n> --phase <phase> --out <prefix>
 *
 * Phases:
 *   setup   stop right before the first eval::runBenchmark call and
 *           print the steady-clock time reached (set-up probe);
 *   sweep   run the workload's design-space sweep untraced through
 *           eval::runBenchmark and report wall, CPU, memory, per-
 *           program latency and the obs metric deltas;
 *   replay  replay the same job list one layer call at a time with a
 *           span around each call, and report the layer table and
 *           the work counters.
 *
 * sweep and replay write <prefix>.csv (eval::printExperimentCsv
 * form) and <prefix>.points (every DataPoint field, yield in hex
 * float, for exact comparison); replay also writes the spans to
 * <prefix>.spans.json and the layer table to <prefix>.layers.txt.
 * The last stdout line is one JSON object. Any QPAD_* environment
 * variable is refused: qpad_perf sets budgets, threads and the
 * cache itself.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "arch/ibm.hh"
#include "benchmarks/suite.hh"
#include "cache/fingerprint.hh"
#include "cache/yield_cache.hh"
#include "common/rng.hh"
#include "design/bus_selection.hh"
#include "design/layout_design.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "mapping/sabre.hh"
#include "obs/metrics.hh"
#include "profile/coupling.hh"
#include "spans.hh"

extern char **environ;

using namespace qpad;

namespace
{

struct Workload
{
    const char *name;
    bool paper_budgets;
    std::size_t threads;
    std::vector<double> sigmas_mhz;
    std::size_t expected_points;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig10-fast-1t", false, 1, {30}, 208},
        {"fig10-paper-4t", true, 4, {30}, 232},
        {"dse-sigma-4t", false, 4, {15, 30, 60}, 624},
    };
    return all;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "qpad_perf: %s\nusage: qpad_perf --workload <name> "
                 "--seed <n> --phase setup|sweep|replay --out <prefix>\n",
                 why);
    std::exit(2);
}

/**
 * Stream seed of one RNG consumer: the library default plus the
 * workload seed times an odd 64-bit constant, so workload seed 0
 * reproduces the defaults (2020 / 7 / 1 / 11) exactly.
 */
uint64_t
deriveSeed(uint64_t library_default, uint64_t workload_seed)
{
    return library_default + workload_seed * 0x9E3779B97F4A7C15ull;
}

eval::ExperimentOptions
experimentOptions(const Workload &w, uint64_t seed, double sigma_mhz)
{
    eval::ExperimentOptions opts;
    if (w.paper_budgets) {
        opts.yield_options.trials = 10000;
        opts.max_yield_trials = 2000000;
        opts.freq_options.local_trials = 8000;
        opts.freq_options.refine_sweeps = 2;
        opts.random_bus_samples = 5;
    } else {
        opts.yield_options.trials = 1000;
        opts.max_yield_trials = 100000;
        opts.freq_options.local_trials = 300;
        opts.freq_options.refine_sweeps = 1;
        opts.random_bus_samples = 3;
    }
    opts.yield_options.sigma_ghz = sigma_mhz * 1e-3;
    opts.seed = deriveSeed(2020, seed);
    opts.mapping_options.seed = deriveSeed(7, seed);
    opts.yield_options.seed = deriveSeed(1, seed);
    opts.freq_options.seed = deriveSeed(11, seed);
    opts.exec.num_threads = w.threads;
    opts.yield_options.exec = opts.exec;
    opts.freq_options.exec = opts.exec;
    return opts;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Flat JSON object rendered in insertion order. */
class JsonLine
{
  public:
    void raw(const std::string &key, const std::string &value)
    {
        out_ += (out_.empty() ? "{" : ",");
        out_ += "\"" + key + "\":" + value;
    }
    void add(const std::string &key, double v) { raw(key, num(v)); }
    void add(const std::string &key, uint64_t v)
    {
        raw(key, std::to_string(v));
    }
    std::string str() const { return out_ + "}"; }

  private:
    std::string out_;
};

/** Writes the sweep's points in the two comparison forms. */
class PointSink
{
  public:
    explicit PointSink(const std::string &prefix, std::size_t passes)
        : csv_(prefix + ".csv"), points_(prefix + ".points"),
          passes_(passes)
    {
        if (!csv_ || !points_)
            usage(("cannot write " + prefix + ".*").c_str());
    }

    void beginPass(double sigma_mhz)
    {
        if (passes_ > 1)
            csv_ << "# sigma_mhz=" << sigma_mhz << "\n";
        header_ = true;
    }

    /** Record one benchmark; returns how many points broke an
     * invariant. */
    std::size_t add(const eval::BenchmarkExperiment &e,
                    const eval::ExperimentOptions &opts)
    {
        eval::printExperimentCsv(csv_, e, header_);
        header_ = false;
        std::size_t invalid = 0;
        char yield_hex[48];
        for (const eval::DataPoint &p : e.points) {
            std::snprintf(yield_hex, sizeof yield_hex, "%a", p.yield);
            points_ << e.benchmark << ' ' << p.config << ' '
                    << p.arch_name << ' ' << p.num_qubits << ' '
                    << p.num_edges << ' ' << p.num_buses << ' '
                    << p.gate_count << ' ' << p.swaps << ' '
                    << yield_hex << ' ' << p.yield_trials << "\n";
            const bool ok =
                p.yield >= 0.0 && p.yield <= 1.0 &&
                p.yield_trials >= opts.yield_options.trials &&
                p.yield_trials <= opts.max_yield_trials &&
                p.gate_count >= e.original_gates &&
                p.num_qubits >= e.logical_qubits;
            if (!ok) {
                std::fprintf(stderr,
                             "qpad_perf: invariant broken: %s %s\n",
                             e.benchmark.c_str(), p.arch_name.c_str());
                ++invalid;
            }
            ++count_;
        }
        return invalid;
    }

    std::size_t count() const { return count_; }

  private:
    std::ofstream csv_;
    std::ofstream points_;
    std::size_t passes_;
    bool header_ = true;
    std::size_t count_ = 0;
};

// ---------------------------------------------------------------------
// Untraced sweep
// ---------------------------------------------------------------------

/** obs series the sweep reports, as deltas over the sweep. */
const char *const kObsSeries[] = {
    "runtime.regions",   "runtime.chunks",    "runtime.steals",
    "cache.hits",        "cache.misses",      "cache.inserts",
    "cache.dedup_waits", "cache.bytes",       "yield.trials",
    "yield.escalations", "eval.measurements",
};

std::string
runSweep(const Workload &w, uint64_t seed, const std::string &prefix,
         int64_t ready_ns, std::size_t &invalid, std::size_t &points)
{
    PointSink sink(prefix, w.sigmas_mhz.size());
    const auto &suite = benchmarks::paperSuite();
    std::vector<double> program_s;
    const obs::Snapshot before = obs::snapshot();
    const double cpu0 = cpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    for (double sigma : w.sigmas_mhz) {
        const eval::ExperimentOptions opts =
            experimentOptions(w, seed, sigma);
        sink.beginPass(sigma);
        for (const auto &info : suite) {
            const auto p0 = std::chrono::steady_clock::now();
            const eval::BenchmarkExperiment e =
                eval::runBenchmark(info, opts);
            program_s.push_back(secondsSince(p0));
            invalid += sink.add(e, opts);
        }
    }
    const double wall = secondsSince(t0);
    const double cpu = cpuSeconds() - cpu0;
    const obs::Snapshot delta = obs::deltaSince(before);
    points = sink.count();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonLine json;
    json.raw("phase", "\"sweep\"");
    json.add("ready_ns", uint64_t(ready_ns));
    json.add("wall_s", wall);
    json.add("cpu_s", cpu);
    json.add("peak_rss_kb", uint64_t(ru.ru_maxrss));
    json.add("threads", uint64_t(w.threads));
    std::string lat = "[";
    for (std::size_t i = 0; i < program_s.size(); ++i) {
        if (i)
            lat += ',';
        lat += num(program_s[i]);
    }
    json.raw("program_s", lat + "]");
    JsonLine obs_json;
    for (const char *name : kObsSeries)
        obs_json.add(name, obs::valueOf(delta, name));
    obs_json.add("runtime.idle_s",
                 obs::valueOf(delta, "runtime.region_idle_seconds"));
    json.raw("obs", obs_json.str());
    return json.str();
}

// ---------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------

using perfbench::Span;

/** Spans and work counters of the replay. */
struct Replay
{
    perfbench::Recorder rec;
    std::mutex mutex; ///< guards everything below
    std::unordered_set<cache::Fingerprint, cache::FingerprintHash>
        freq_keys, yield_keys, map_keys;
    uint64_t freq_calls = 0, qubit_visits = 0;
    uint64_t yield_calls = 0, yield_trials = 0, escalations = 0;
    uint64_t map_calls = 0, swaps = 0, gates_out = 0;
};

/**
 * cachedAllocateFrequencies under a span. A key's first call is
 * charged to freq_alloc (it computes, or waits on the one concurrent
 * computation); every later call is charged to cache.
 */
design::FreqAllocResult
tracedFreqAlloc(Replay &r, const arch::Architecture &arch,
                const design::FreqAllocOptions &fo)
{
    const cache::Fingerprint key = cache::freqAllocKey(arch, fo);
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        first = r.freq_keys.insert(key).second;
        ++r.freq_calls;
        if (first)
            r.qubit_visits += arch.numQubits() * (1 + fo.refine_sweeps);
    }
    Span span(r.rec, first ? "freq_alloc.alg3" : "cache.freq_alloc");
    return cache::cachedAllocateFrequencies(arch, fo);
}

yield::YieldResult
tracedYield(Replay &r, const arch::Architecture &arch,
            const yield::YieldOptions &yo)
{
    const cache::Fingerprint key = cache::yieldKey(arch, yo);
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        first = r.yield_keys.insert(key).second;
        ++r.yield_calls;
        if (first)
            r.yield_trials += yo.trials;
    }
    Span span(r.rec, first ? "yield.estimate" : "cache.yield");
    return cache::cachedEstimateYield(arch, yo);
}

cache::Fingerprint
mappingKey(const std::string &bench, const circuit::Circuit &circuit,
           const arch::Architecture &arch,
           const mapping::MappingOptions &mo)
{
    cache::Encoder enc;
    enc.str("perfbench.mapping");
    enc.str(bench);
    enc.u64(circuit.numQubits());
    enc.u64(circuit.unitaryGateCount());
    cache::encodeTopology(enc, arch);
    enc.f64(mo.extended_weight);
    enc.u64(mo.extended_set_size);
    enc.f64(mo.decay_delta);
    enc.u32(mo.initial_mapping_rounds);
    enc.u8(mo.sabre_initial_mapping ? 1 : 0);
    enc.u64(mo.seed);
    return enc.digest();
}

/** eval::measure, one layer call at a time. */
eval::DataPoint
tracedMeasure(Replay &r, const std::string &config,
              const arch::Architecture &arch,
              const circuit::Circuit &circuit, const std::string &bench,
              const eval::ExperimentOptions &opts)
{
    eval::DataPoint point;
    point.config = config;
    point.arch_name = arch.name();
    point.num_qubits = arch.numQubits();
    point.num_edges = arch.numEdges();
    point.num_buses = arch.fourQubitBuses().size();

    const cache::Fingerprint mkey =
        mappingKey(bench, circuit, arch, opts.mapping_options);
    mapping::MappingResult mapped;
    {
        Span span(r.rec, "mapping.map");
        mapped = mapping::mapCircuit(circuit, arch, opts.mapping_options);
    }
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.map_keys.insert(mkey);
        ++r.map_calls;
        r.swaps += mapped.swaps;
        r.gates_out += mapped.total_gates;
    }
    point.gate_count = mapped.total_gates;
    point.swaps = mapped.swaps;

    yield::YieldOptions yo = opts.yield_options;
    yield::YieldResult yr = tracedYield(r, arch, yo);
    while (opts.adaptive_yield_trials && yr.successes == 0 &&
           yo.trials < opts.max_yield_trials) {
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            ++r.escalations;
        }
        yo.trials = std::min(opts.max_yield_trials, yo.trials * 10);
        yr = tracedYield(r, arch, yo);
    }
    point.yield = yr.yield;
    point.yield_trials = yr.trials;
    return point;
}

/** design::designArchitecture, one layer call at a time. */
arch::Architecture
tracedDesign(Replay &r, const profile::CouplingProfile &prof,
             const design::DesignFlowOptions &flow,
             const std::string &name)
{
    design::LayoutResult layout;
    {
        Span span(r.rec, "layout.design");
        layout = design::designLayout(prof);
    }
    arch::Architecture arch(layout.layout, name);
    {
        Span span(r.rec, "buses.select");
        switch (flow.bus_scheme) {
          case design::BusScheme::Weighted:
            design::applyBusSelection(
                arch, design::selectBuses(arch, prof, flow.max_buses));
            break;
          case design::BusScheme::Random: {
            Rng rng(flow.bus_seed);
            design::applyBusSelection(
                arch,
                design::selectBusesRandom(arch, flow.max_buses, rng));
            break;
          }
          case design::BusScheme::None:
            break;
          case design::BusScheme::Max:
            for (const arch::SquareInfo &sq : arch.eligibleSquares())
                if (arch.canAddFourQubitBus(sq.origin))
                    arch.addFourQubitBus(sq.origin);
            break;
        }
    }
    if (flow.freq_scheme == design::FreqScheme::Optimized) {
        arch.setAllFrequencies(
            tracedFreqAlloc(r, arch, flow.freq_options).freqs);
    } else {
        Span span(r.rec, "freq_alloc.five_freq");
        arch::applyFiveFrequencyScheme(arch);
    }
    return arch;
}

/**
 * eval::runBenchmark, one layer call at a time. The job list must stay
 * in step with runBenchmark's: every replayed point is compared with
 * the untraced sweep's, so a drift shows as failed points.
 */
eval::BenchmarkExperiment
tracedBenchmark(Replay &r, const benchmarks::BenchmarkInfo &info,
                const eval::ExperimentOptions &opts, int64_t &next_job)
{
    eval::BenchmarkExperiment experiment;
    experiment.benchmark = info.name;
    circuit::Circuit circuit;
    profile::CouplingProfile prof;
    std::vector<std::function<eval::DataPoint()>> jobs;
    {
        Span prepare(r.rec, "eval.prepare");
        {
            Span span(r.rec, "generate.circuit");
            circuit = info.generate();
        }
        experiment.logical_qubits = circuit.numQubits();
        experiment.original_gates = circuit.unitaryGateCount();
        {
            Span span(r.rec, "profile.circuit");
            prof = profile::profileCircuit(circuit);
        }

        if (opts.run_ibm) {
            for (arch::Architecture &baseline : arch::ibmBaselines()) {
                if (baseline.numQubits() < circuit.numQubits())
                    continue;
                jobs.push_back([&r, baseline, &circuit, &opts, &info] {
                    return tracedMeasure(r, "ibm", baseline, circuit,
                                         info.name, opts);
                });
            }
        }

        design::DesignFlowOptions flow;
        flow.freq_options = opts.freq_options;
        design::LayoutResult layout;
        {
            Span span(r.rec, "layout.design");
            layout = design::designLayout(prof);
        }
        arch::Architecture bare(layout.layout, "eff-bare");
        std::size_t beneficial = 0, max_any = 0;
        {
            Span span(r.rec, "buses.select");
            beneficial =
                design::selectBuses(bare, prof, SIZE_MAX).selected.size();
            max_any = design::maxPlaceableBuses(bare);
        }

        auto flowJob = [&](design::DesignFlowOptions job_flow,
                           std::string config, std::string arch_name) {
            jobs.push_back([&r, job_flow, config = std::move(config),
                            arch_name = std::move(arch_name), &prof,
                            &circuit, &opts, &info] {
                const arch::Architecture arch =
                    tracedDesign(r, prof, job_flow, arch_name);
                return tracedMeasure(r, config, arch, circuit,
                                     info.name, opts);
            });
        };
        if (opts.run_eff_full)
            for (std::size_t k = 0; k <= beneficial; ++k) {
                flow.bus_scheme = design::BusScheme::Weighted;
                flow.max_buses = k;
                flow.freq_scheme = design::FreqScheme::Optimized;
                flowJob(flow, "eff-full",
                        "eff-full-k" + std::to_string(k));
            }
        if (opts.run_eff_5_freq)
            for (std::size_t k = 0; k <= beneficial; ++k) {
                flow.bus_scheme = design::BusScheme::Weighted;
                flow.max_buses = k;
                flow.freq_scheme = design::FreqScheme::FiveFrequency;
                flowJob(flow, "eff-5-freq",
                        "eff-5-freq-k" + std::to_string(k));
            }
        if (opts.run_eff_rd_bus)
            for (std::size_t s = 0; s < opts.random_bus_samples; ++s) {
                if (max_any == 0)
                    break;
                flow.bus_scheme = design::BusScheme::Random;
                flow.max_buses = 1 + s % max_any;
                flow.freq_scheme = design::FreqScheme::Optimized;
                flow.bus_seed = opts.seed * 7919 + s;
                flowJob(flow, "eff-rd-bus",
                        "eff-rd-bus-s" + std::to_string(s));
            }
        if (opts.run_eff_layout_only)
            for (bool max_buses : {false, true}) {
                flow.bus_scheme = max_buses ? design::BusScheme::Max
                                            : design::BusScheme::None;
                flow.max_buses = SIZE_MAX;
                flow.freq_scheme = design::FreqScheme::FiveFrequency;
                flowJob(flow, "eff-layout-only",
                        max_buses ? "eff-layout-only-max"
                                  : "eff-layout-only-2q");
            }
    }

    experiment.points.resize(jobs.size());
    const int64_t job_base = next_job;
    next_job += int64_t(jobs.size());
    runtime::parallel_for(
        opts.exec, jobs.size(), 0,
        [&](std::size_t begin, std::size_t end, std::size_t) {
            for (std::size_t i = begin; i < end; ++i) {
                Span span(r.rec, "eval.job", job_base + int64_t(i));
                experiment.points[i] = jobs[i]();
            }
        });
    eval::normalize(experiment);
    return experiment;
}

std::string
runReplay(const Workload &w, uint64_t seed, const std::string &prefix,
          std::size_t &invalid, std::size_t &points)
{
    PointSink sink(prefix, w.sigmas_mhz.size());
    Replay r;
    int64_t next_job = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (double sigma : w.sigmas_mhz) {
        const eval::ExperimentOptions opts =
            experimentOptions(w, seed, sigma);
        sink.beginPass(sigma);
        for (const auto &info : benchmarks::paperSuite())
            invalid += sink.add(tracedBenchmark(r, info, opts, next_job),
                                opts);
    }
    const double wall = secondsSince(t0);
    points = sink.count();

    const std::vector<perfbench::SpanRecord> spans = r.rec.spans();
    const perfbench::LayerTable table = perfbench::fold(spans);
    {
        std::ofstream trace(prefix + ".spans.json");
        perfbench::writeChromeTrace(trace, spans);
        std::ofstream layers(prefix + ".layers.txt");
        perfbench::writeLayerTable(layers, table);
        if (!trace || !layers)
            usage(("cannot write " + prefix + ".*").c_str());
    }

    JsonLine json;
    json.raw("phase", "\"replay\"");
    json.add("wall_s", wall);
    json.add("total_s", double(table.total_ns) * 1e-9);
    JsonLine layers;
    for (const auto &[layer, row] : table.rows) {
        layers.add(layer + ".busy_s", double(row.self_ns) * 1e-9);
        layers.add(layer + ".spans", uint64_t(row.spans));
    }
    json.raw("layers", layers.str());
    JsonLine counters;
    counters.add("mapping.calls", r.map_calls);
    counters.add("mapping.distinct", uint64_t(r.map_keys.size()));
    counters.add("mapping.swaps", r.swaps);
    counters.add("mapping.gates_out", r.gates_out);
    counters.add("freq_alloc.calls", r.freq_calls);
    counters.add("freq_alloc.computed", uint64_t(r.freq_keys.size()));
    counters.add("freq_alloc.qubit_visits", r.qubit_visits);
    counters.add("yield.calls", r.yield_calls);
    counters.add("yield.computed", uint64_t(r.yield_keys.size()));
    counters.add("yield.trials", r.yield_trials);
    counters.add("yield.escalations", r.escalations);
    json.raw("counters", counters.str());
    return json.str();
}

} // namespace

int
main(int argc, char **argv)
{
    for (char **env = environ; *env; ++env)
        if (std::strncmp(*env, "QPAD_", 5) == 0) {
            const std::string var(*env, std::strcspn(*env, "="));
            std::fprintf(stderr,
                         "qpad_perf: refusing to run with %s set; the "
                         "benchmark sets budgets, threads and the "
                         "cache itself\n",
                         var.c_str());
            return 2;
        }

    std::string workload, phase, prefix, seed_arg;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--workload")
            workload = argv[i + 1];
        else if (flag == "--seed")
            seed_arg = argv[i + 1];
        else if (flag == "--phase")
            phase = argv[i + 1];
        else if (flag == "--out")
            prefix = argv[i + 1];
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 != 1 || workload.empty() || phase.empty() ||
        prefix.empty() || seed_arg.empty() ||
        seed_arg.find_first_not_of("0123456789") != std::string::npos ||
        seed_arg.size() > 18)
        usage("missing or malformed arguments");
    const uint64_t seed = std::strtoull(seed_arg.c_str(), nullptr, 10);

    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (workload == cand.name)
            w = &cand;
    if (!w)
        usage(("unknown workload " + workload).c_str());

    // A fresh result cache: the defaults are enabled and memory-only.
    cache::configureGlobalCache(cache::CacheOptions{});
    benchmarks::paperSuite();

    std::size_t invalid = 0, points = 0;
    std::string result;
    if (phase == "setup") {
        JsonLine json;
        json.raw("phase", "\"setup\"");
        json.add("ready_ns", uint64_t(steadyNs()));
        result = json.str();
    } else if (phase == "sweep") {
        result = runSweep(*w, seed, prefix, steadyNs(), invalid, points);
    } else if (phase == "replay") {
        result = runReplay(*w, seed, prefix, invalid, points);
    } else {
        usage(("unknown phase " + phase).c_str());
    }
    if (phase != "setup" && points != w->expected_points) {
        std::fprintf(stderr, "qpad_perf: %zu points, expected %zu\n",
                     points, w->expected_points);
        invalid += points > w->expected_points
                       ? points - w->expected_points
                       : w->expected_points - points;
    }
    // Fold the common fields into the phase's object.
    result.pop_back();
    result += ",\"points\":" + std::to_string(points) +
              ",\"invalid_points\":" + std::to_string(invalid) + "}";
    std::cout << result << std::endl;
    return 0;
}
