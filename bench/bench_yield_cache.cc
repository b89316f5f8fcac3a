/**
 * @file
 * Microbenchmark of the persistent yield-estimate cache: a sweep of
 * estimateYield calls over the IBM baselines plus a designed chip,
 * run cold (empty cache) and warm (same keys again). The warm sweep
 * must be pure hash lookups — the bench asserts bit-identical
 * results, zero warm recomputation, and a >= 10x warm speedup, so CI
 * catches a silently disabled or miskeyed cache as a failure.
 *
 * `--sweep` mode instead runs one small experiment benchmark and
 * prints its CSV to stdout (cache counters go to stderr). The CI
 * two-pass job runs it twice with QPAD_CACHE_DIR set and diffs the
 * CSVs; `--expect-warm` additionally fails unless the on-disk cache
 * produced hits, proving persistence across process invocations.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define QPAD_BENCH_FORK 1
#include <sys/wait.h>
#include <unistd.h>
#else
#define QPAD_BENCH_FORK 0
#endif

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "cache/yield_cache.hh"
#include "design/design_flow.hh"
#include "eval/report.hh"
#include "profile/coupling.hh"

using namespace qpad;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The sweep working set: every baseline plus one designed chip. */
std::vector<arch::Architecture>
sweepArchitectures(const eval::ExperimentOptions &opts)
{
    std::vector<arch::Architecture> archs = arch::ibmBaselines();
    auto circuit = benchmarks::getBenchmark("sym6_145").generate();
    profile::CouplingProfile prof = profile::profileCircuit(circuit);
    design::DesignFlowOptions flow;
    flow.freq_options = opts.freq_options;
    archs.push_back(
        design::designArchitecture(prof, flow, "eff-sym6").architecture);
    return archs;
}

int
runMicrobench(bench::BenchJson *json)
{
    eval::printHeader(std::cout,
                      "Yield-estimate cache: cold vs warm sweep");

    eval::ExperimentOptions opts = bench::paperOptions();
    // Memory-only cache: the microbench must not touch (or depend
    // on) a QPAD_CACHE_DIR the user may have configured — swap it
    // out before the design flow runs, and reset again afterwards so
    // the timed sweeps start from a genuinely empty store.
    cache::configureGlobalCache({});
    const std::vector<arch::Architecture> archs =
        sweepArchitectures(opts);
    cache::configureGlobalCache({});
    // Two sigma points per architecture, as a frequency-allocation
    // style sweep would revisit them.
    const std::vector<double> sigmas = {0.030, 0.025};

    yield::YieldOptions yopts = opts.yield_options;
    using clock = std::chrono::steady_clock;

    auto sweep = [&] {
        // Fold the results so the work cannot be optimized away.
        double acc = 0.0;
        for (const arch::Architecture &arch : archs) {
            for (double sigma : sigmas) {
                yield::YieldOptions y = yopts;
                y.sigma_ghz = sigma;
                acc += cache::cachedEstimateYield(arch, y).yield;
            }
        }
        return acc;
    };

    const auto c0 = clock::now();
    const double cold_acc = sweep();
    const auto c1 = clock::now();
    const obs::Snapshot warm_before = obs::snapshot();
    const double warm_acc = sweep();
    const auto c2 = clock::now();
    const obs::Snapshot warm_delta = obs::deltaSince(warm_before);

    const double cold_s = seconds(c0, c1);
    const double warm_s = seconds(c1, c2);
    const cache::StoreStats stats = cache::globalCacheStats();
    const std::size_t keys = archs.size() * sigmas.size();

    std::printf("architectures: %zu, sigma points: %zu, trials/key: "
                "%zu\n",
                archs.size(), sigmas.size(), yopts.trials);
    std::printf("%-12s %12s %12s\n", "sweep", "seconds", "yield sum");
    std::printf("%-12s %12.4f %12.6f\n", "cold", cold_s, cold_acc);
    std::printf("%-12s %12.4f %12.6f\n", "warm", warm_s, warm_acc);
    std::printf("speedup: %.1fx, cache: %llu hits / %llu misses, "
                "%llu bytes in %llu entries\n",
                cold_s / warm_s,
                (unsigned long long)stats.hits,
                (unsigned long long)stats.misses,
                (unsigned long long)stats.bytes,
                (unsigned long long)stats.entries);

    int rc = 0;
    if (warm_acc != cold_acc) {
        std::fprintf(stderr, "FAIL: warm sweep changed the results\n");
        rc = 1;
    }
    if (stats.misses != keys || stats.hits != keys) {
        std::fprintf(stderr,
                     "FAIL: expected %zu misses + %zu hits, got "
                     "%llu + %llu\n",
                     keys, keys, (unsigned long long)stats.misses,
                     (unsigned long long)stats.hits);
        rc = 1;
    }
    if (cold_s < warm_s * 10.0) {
        std::fprintf(stderr,
                     "FAIL: warm sweep must be >= 10x faster "
                     "(cold %.4fs, warm %.4fs)\n",
                     cold_s, warm_s);
        rc = 1;
    }
    // Zero-recompute contract: a fully warm sweep is pure hash
    // lookups, so the expensive-work counters must not move at all.
    // Timing alone would let a 10x-faster-but-still-recomputing
    // regression slip through; the metric deltas cannot.
    for (const char *counter :
         {"design.flows", "yield.estimates", "eval.measurements"}) {
        const double moved = obs::valueOf(warm_delta, counter);
        if (moved != 0.0) {
            std::fprintf(stderr,
                         "FAIL: warm sweep recomputed work: %s "
                         "advanced by %.0f\n",
                         counter, moved);
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("\nwarm sweep served entirely from the cache\n");
    if (json) {
        json->config("architectures", archs.size());
        json->config("sigma_points", sigmas.size());
        json->config("trials_per_key", yopts.trials);
        json->metric("cold_seconds", cold_s);
        json->metric("warm_seconds", warm_s);
        json->metric("warm_speedup", cold_s / warm_s);
        json->metric("hits", std::uint64_t(stats.hits));
        json->metric("misses", std::uint64_t(stats.misses));
        json->metric("cache_ok", rc == 0);
    }
    return rc;
}

int
runSweepCsv(bool expect_warm, bench::BenchJson *json)
{
    // Small but complete experiment; the global cache stays in
    // whatever state the environment configured (QPAD_CACHE_DIR
    // makes it persistent — the point of the two-pass CI job).
    eval::ExperimentOptions opts = bench::paperOptions();
    opts.yield_options.trials = 500;
    opts.max_yield_trials = 5000;
    opts.freq_options.local_trials = 150;
    opts.freq_options.refine_sweeps = 1;
    opts.random_bus_samples = 2;

    const eval::BenchmarkExperiment exp = eval::runBenchmark(
        benchmarks::getBenchmark("sym6_145"), opts);
    eval::printExperimentCsv(std::cout, exp, true);

    // Counters are this run's deltas; bytes and entries the global
    // store's residency after it.
    const auto moved = [&](const char *counter) {
        return (unsigned long long)obs::valueOf(exp.metrics, counter);
    };
    const unsigned long long hits = moved("cache.hits");
    const unsigned long long misses = moved("cache.misses");
    const unsigned long long inserts = moved("cache.inserts");
    const unsigned long long evictions = moved("cache.evictions");
    const cache::StoreStats residency = cache::globalCacheStats();
    std::fprintf(stderr,
                 "qpad-cache: hits=%llu misses=%llu inserts=%llu "
                 "evictions=%llu bytes=%llu entries=%llu "
                 "lock_waits=%llu lock_timeouts=%llu "
                 "compactions=%llu persistence_lost=%llu\n",
                 hits, misses, inserts, evictions,
                 (unsigned long long)residency.bytes,
                 (unsigned long long)residency.entries,
                 moved("cache.lock_waits"),
                 moved("cache.lock_timeouts"),
                 moved("cache.compactions"),
                 moved("cache.persistence_lost"));
    int rc = 0;
    if (expect_warm && hits == 0) {
        std::fprintf(stderr, "FAIL: expected a warm cache (nonzero "
                             "hit rate) on this pass\n");
        rc = 1;
    }
    if (json) {
        json->config("sweep", true);
        json->config("expect_warm", expect_warm);
        json->metric("hits", std::uint64_t(hits));
        json->metric("misses", std::uint64_t(misses));
        json->metric("inserts", std::uint64_t(inserts));
        json->metric("evictions", std::uint64_t(evictions));
        json->metric("bytes", std::uint64_t(residency.bytes));
        json->metric("entries", std::uint64_t(residency.entries));
        json->metric("cache_ok", rc == 0);
    }
    return rc;
}

/**
 * `--writers N`: N forked child processes each run the sweep
 * experiment concurrently against the SAME QPAD_CACHE_DIR (their
 * CSVs go to /dev/null — they exist to warm the shared log under
 * real inter-process contention), then the parent runs the sweep
 * itself and prints the warm CSV. The CI shared-cache job cmp-gates
 * that CSV byte-for-byte against a single-writer run: flock
 * serialization and log compaction must never change a result.
 */
int
runMultiWriter(int writers, bool expect_warm, bench::BenchJson *json)
{
#if QPAD_BENCH_FORK
    std::vector<pid_t> children;
    for (int w = 0; w < writers; ++w) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::fprintf(stderr, "FAIL: fork failed\n");
            return 1;
        }
        if (pid == 0) {
            // Child: same workload, silenced stdout. The child's
            // global store opens the shared dir on first use and
            // contends on the flock append by append.
            if (!std::freopen("/dev/null", "w", stdout))
                std::_Exit(3);
            std::_Exit(runSweepCsv(false, nullptr) == 0 ? 0 : 1);
        }
        children.push_back(pid);
    }
    int rc = 0;
    for (pid_t pid : children) {
        int status = 0;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "FAIL: writer child failed\n");
            rc = 1;
        }
    }
    if (rc != 0)
        return rc;
    // Parent pass: everything the children computed is on disk now,
    // so with --expect-warm this must serve from the merged log.
    return runSweepCsv(expect_warm, json);
#else
    (void)writers;
    (void)expect_warm;
    (void)json;
    std::fprintf(stderr, "--writers needs fork(); not available\n");
    return 2;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    bool sweep = false, expect_warm = false;
    int writers = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sweep") == 0)
            sweep = true;
        else if (std::strcmp(argv[i], "--expect-warm") == 0)
            expect_warm = true;
        else if (std::strcmp(argv[i], "--writers") == 0 &&
                 i + 1 < argc)
            writers = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--sweep [--expect-warm] "
                         "[--writers N]] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if ((expect_warm || writers > 0) && !sweep) {
        std::fprintf(
            stderr,
            "--expect-warm and --writers require --sweep\n");
        return 2;
    }
    bench::BenchJson json("yield_cache");
    bench::BenchJson *jp = json_path.empty() ? nullptr : &json;
    const int rc = writers > 0
                       ? runMultiWriter(writers, expect_warm, jp)
                       : sweep ? runSweepCsv(expect_warm, jp)
                               : runMicrobench(jp);
    if (jp)
        json.writeTo(json_path);
    return rc;
}
