/**
 * @file
 * Microbenchmark for the qpad::runtime execution engine.
 *
 * Default (uniform) mode: wall-clock speedup of the sharded Monte
 * Carlo yield estimator as the thread count grows, on the paper's
 * 10k-trial workload (ibm-16q with 4-qubit buses, sigma = 30 MHz),
 * with the caller's straggler wait read back from the qpad::obs
 * metrics registry — the same series QPAD_METRICS exports.
 * Verifies on the fly that the tallies are bit-identical
 * at every thread count — the determinism contract of
 * runtime::SeedSequence.
 *
 * --skewed: the load-imbalance workload guided chunking exists for.
 * A synthetic sweep whose per-index cost is 1x for the first 7/8
 * of the range and 100x for the last eighth — the shape
 * adaptive yield escalation gives eval::runBenchmark, where a few
 * data points dwarf the rest. Compares static fixed-grain chunking
 * (one chunk per runner, the classic parallel-for deal) against
 * guided sizing (grain 0) on the same 8-way runner budget, and
 * checks that both produce the reference checksum bit-for-bit. The
 * checksum line is stable across thread counts and scheduler modes,
 * so CI can diff it between a QPAD_THREADS=1 leg and a default leg.
 *
 * --assert-speedup (with --skewed): exit nonzero unless guided beats
 * fixed by >= 1.5x. Off by default: the ratio is meaningful only on
 * hardware with enough idle cores (the determinism checks always
 * run and always gate the exit code).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "common/rng.hh"
#include "eval/report.hh"
#include "obs/metrics.hh"
#include "runtime/parallel.hh"
#include "yield/yield_sim.hh"

using namespace qpad;

namespace
{

using clock_type = std::chrono::steady_clock;

double
seconds(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0)
        .count();
}

double
timedYield(const arch::Architecture &arch,
           const yield::YieldOptions &opts, yield::YieldResult &out)
{
    const auto t0 = clock_type::now();
    out = yield::estimateYield(arch, opts);
    return seconds(t0);
}

// --------------------------------------------------------------------
// Uniform mode: the yield Monte Carlo scaling table (paper workload)
// --------------------------------------------------------------------

int
runUniform(bench::BenchJson *json)
{
    eval::printHeader(std::cout,
                      "Runtime scaling: sharded yield Monte Carlo");

    // The plain (unbused) 16-qubit grid has a nonzero yield at the
    // paper's sigma, so the cross-thread-count tally check is
    // non-vacuous.
    auto arch = arch::ibm16Q(false);
    yield::YieldOptions opts;
    opts.trials = bench::fastMode() ? 10000 : 100000;
    opts.sigma_ghz = 0.030;
    opts.seed = 2020;

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware threads: %u, trials per estimate: %zu\n\n",
                hw, opts.trials);
    if (json) {
        json->config("mode", "uniform");
        json->config("hardware_threads", std::uint64_t(hw));
        json->config("trials", opts.trials);
        json->config("sigma_ghz", opts.sigma_ghz);
    }

    // Warm up the global pool and the caches.
    opts.exec.num_threads = 0;
    yield::YieldResult warmup;
    timedYield(arch, opts, warmup);

    opts.exec.num_threads = 1;
    yield::YieldResult reference;
    // Median-of-3 to dampen scheduler noise.
    double t1 = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        yield::YieldResult r;
        t1 = std::min(t1, timedYield(arch, opts, r));
        reference = r;
    }
    std::printf("%8s %12s %10s %12s %15s\n", "threads", "seconds",
                "speedup", "successes", "straggler-wait");
    std::printf("%8zu %12.4f %10.2fx %12zu %15s\n", std::size_t{1}, t1,
                1.0, reference.successes, "-");
    if (json) {
        json->metric("seconds_t1", t1);
        json->metric("successes", reference.successes);
    }

    for (std::size_t threads : {2u, 4u, 8u}) {
        bench::RegionDelta best_delta;
        opts.exec.num_threads = threads;
        double t = 1e300;
        yield::YieldResult r;
        for (int rep = 0; rep < 3; ++rep) {
            // Keep the metrics delta of the repetition that set the
            // printed time, so the columns describe the same run.
            const obs::Snapshot before = obs::snapshot();
            const double trep = timedYield(arch, opts, r);
            if (trep < t) {
                t = trep;
                best_delta = bench::regionDelta(before);
            }
        }
        std::printf("%8zu %12.4f %10.2fx %12zu %13.1fus%s\n", threads,
                    t, t1 / t, r.successes,
                    best_delta.straggler_wait_seconds * 1e6,
                    r.successes == reference.successes
                        ? ""
                        : "  MISMATCH!");
        if (json) {
            const std::string suffix =
                "_t" + std::to_string(threads);
            json->metric("seconds" + suffix, t);
            json->metric("speedup" + suffix, t1 / t);
        }
        if (r.successes != reference.successes)
            return 1;
    }

    std::printf("\nall thread counts produced identical tallies\n");
    return 0;
}

// --------------------------------------------------------------------
// Skewed mode: guided vs fixed grain on a 100x cost-spread sweep
// --------------------------------------------------------------------

struct SkewedWorkload
{
    std::size_t n;     ///< sweep indices
    std::size_t spin;  ///< mix() steps per unit of cost
    std::size_t runners;

    /** 1x for the cheap head, 100x for the last eighth — the cost
     * cliff adaptive escalation produces. Pure function of i. */
    std::size_t cost(std::size_t i) const
    {
        return i >= n - n / 8 ? 100 : 1;
    }

    /** Deterministic busywork for index i (a SplitMix64 spin). */
    uint64_t work(std::size_t i) const
    {
        uint64_t state = 0x6a09e667f3bcc909ull ^ (uint64_t(i) << 1);
        uint64_t acc = 0;
        const std::size_t steps = cost(i) * spin;
        for (std::size_t s = 0; s < steps; ++s)
            acc ^= Rng::splitMix64(state);
        return acc;
    }

    /**
     * Partition-invariant digest (xor and modular sum of every
     * index's busywork): bit-identical across thread counts AND
     * grain modes, because xor/sum do not care where the chunk
     * boundaries fall. A boundary-sensitive fold would differ
     * between grains by the chunk-identity contract itself — chunk
     * identity is a function of (n, grain) — so it could not serve
     * as the cross-mode determinism check.
     */
    struct Digest
    {
        uint64_t x = 0;
        uint64_t sum = 0;
        bool operator==(const Digest &o) const
        {
            return x == o.x && sum == o.sum;
        }
    };

    Digest checksum(std::size_t grain, std::size_t threads) const
    {
        runtime::Options exec{threads};
        return runtime::parallel_reduce(
            exec, n, grain, Digest{},
            [&](std::size_t begin, std::size_t end, std::size_t) {
                Digest d;
                for (std::size_t i = begin; i < end; ++i) {
                    const uint64_t h = work(i);
                    d.x ^= h;
                    d.sum += h;
                }
                return d;
            },
            [](Digest acc, const Digest &d) {
                acc.x ^= d.x;
                acc.sum += d.sum;
                return acc;
            });
    }
};

int
runSkewed(bool assert_speedup, bench::BenchJson *json)
{
    eval::printHeader(
        std::cout,
        "Runtime scaling: skewed sweep, fixed vs guided grain");

    const runtime::Options env = bench::execOptions();
    SkewedWorkload w;
    w.n = 256;
    w.spin = bench::fastMode() ? 2000 : 20000;
    // The "8-way" workload of the scheduler acceptance test; an
    // explicit QPAD_THREADS overrides (1 = the sequential leg CI
    // diffs the checksum against).
    w.runners = env.num_threads == 0 ? 8 : env.num_threads;

    const std::size_t total_cost = [&] {
        std::size_t c = 0;
        for (std::size_t i = 0; i < w.n; ++i)
            c += w.cost(i);
        return c;
    }();
    std::printf("hardware threads: %u, runners: %zu, indices: %zu, "
                "cost spread: 1x..100x (total %zux)\n\n",
                std::thread::hardware_concurrency(), w.runners, w.n,
                total_cost);
    if (json) {
        json->config("mode", "skewed");
        json->config("runners", w.runners);
        json->config("indices", w.n);
        json->config("spin", w.spin);
    }

    // Reference: sequential, one chunk (no scheduler involved).
    const SkewedWorkload::Digest reference = w.checksum(w.n, 1);

    // Static baseline: one fixed-grain chunk per runner, the classic
    // parallel-for deal. The chunk that owns the expensive tail costs
    // ~93x a cheap chunk, so it pins one runner while the others go
    // idle.
    const std::size_t fixed_grain =
        (w.n + w.runners - 1) / w.runners;

    struct Mode
    {
        const char *name;
        std::size_t grain;
    };
    const Mode modes[] = {{"fixed", fixed_grain}, {"guided", 0}};

    std::printf("%8s %12s %10s %8s %15s\n", "mode", "seconds",
                "speedup", "chunks", "straggler-wait");
    double times[2] = {0, 0};
    SkewedWorkload::Digest digests[2];
    bool ok = true;
    for (int m = 0; m < 2; ++m) {
        bench::RegionDelta best_delta;
        double best = 1e300;
        SkewedWorkload::Digest digest;
        for (int rep = 0; rep < 3; ++rep) {
            const obs::Snapshot snap = obs::snapshot();
            const auto t0 = clock_type::now();
            digest = w.checksum(modes[m].grain, w.runners);
            const double trep = seconds(t0);
            // Keep the metrics delta of the repetition that set the
            // printed time, so the columns describe the same run.
            if (trep < best) {
                best = trep;
                best_delta = bench::regionDelta(snap);
            }
        }
        times[m] = best;
        digests[m] = digest;
        const bool match = digest == reference;
        ok = ok && match;
        std::printf("%8s %12.4f %10.2fx %8zu %13.1fms%s\n",
                    modes[m].name, best, times[0] / best,
                    best_delta.chunks,
                    best_delta.straggler_wait_seconds * 1e3,
                    match ? "" : "  MISMATCH!");
    }

    const double improvement = times[0] / times[1];
    std::printf("\nguided vs fixed: %.2fx\n", improvement);
    if (json) {
        json->metric("fixed_seconds", times[0]);
        json->metric("guided_seconds", times[1]);
        json->metric("guided_vs_fixed", improvement);
        json->metric("checksums_match", ok);
    }
    // Stable across thread counts and grain modes (partition-
    // invariant digest); CI diffs this line between scheduler legs.
    // Deliberately printed from the *parallel guided* run — not the
    // sequential reference — so the cross-leg cmp compares actual
    // scheduler output, not two copies of the same sequential
    // computation.
    std::printf("checksum: %016llx-%016llx\n",
                static_cast<unsigned long long>(digests[1].x),
                static_cast<unsigned long long>(digests[1].sum));

    if (!ok) {
        std::fprintf(stderr, "checksum mismatch between scheduler "
                             "modes: determinism contract broken\n");
        return 1;
    }
    std::printf("fixed and guided checksums match the sequential "
                "reference\n");
    if (assert_speedup && improvement < 1.5) {
        std::fprintf(stderr,
                     "guided improvement %.2fx below the 1.5x gate "
                     "(needs >= %zu idle hardware threads to be "
                     "meaningful)\n",
                     improvement, w.runners);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool skewed = false;
    bool assert_speedup = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--skewed") == 0) {
            skewed = true;
        } else if (std::strcmp(argv[i], "--assert-speedup") == 0) {
            assert_speedup = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--skewed] [--assert-speedup] "
                         "[--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    bench::BenchJson json("runtime_scaling");
    bench::BenchJson *jp = json_path.empty() ? nullptr : &json;
    const int rc =
        skewed ? runSkewed(assert_speedup, jp) : runUniform(jp);
    if (jp)
        json.writeTo(json_path);
    return rc;
}
