/**
 * @file
 * Microbenchmark of the collision-check inner loop: scalar
 * CollisionChecker::anyCollision versus the batched SoA kernel
 * (BatchCollisionChecker::survivorMask), single-threaded, on
 * pre-generated post-fabrication frequency blocks so only the
 * kernels themselves are timed.
 *
 * Two workloads bracket the real Monte Carlo:
 *  - "surviving-heavy": tiny fabrication noise on a well-separated
 *    assignment, so nearly every trial scans every term (the regime
 *    the batched kernel is built for);
 *  - "colliding-heavy": the paper's sigma = 30 MHz on the bused
 *    16-qubit chip, where most trials die early and the scalar
 *    kernel's short-circuit is at its best (the batch relies on its
 *    all-lanes-dead early-out here).
 *
 * On builds without AVX2 (-DQPAD_NO_AVX2=ON, or a host whose CPU
 * fails the CMake probe) survivorMask is a per-lane early-exit walk
 * over the same scalar predicates, so the "batch" column then times
 * that walk against the trial-major scalar one.
 *
 * The two kernels must agree trial-for-trial; any mismatch exits
 * nonzero. QPAD_FAST reduces the trial budget.
 */

#include <bit>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "arch/ibm.hh"
#include "bench_common.hh"
#include "design/freq_alloc.hh"
#include "eval/report.hh"
#include "yield/collision_batch.hh"

using namespace qpad;
using yield::BatchCollisionChecker;
using yield::CollisionChecker;

namespace
{

constexpr std::size_t B = BatchCollisionChecker::kLanes;

struct KernelTimes
{
    double scalar_ns_per_trial = 0.0;
    double batch_ns_per_trial = 0.0;
    double survivor_fraction = 0.0;
    bool agree = true;
};

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Time both kernels over `reps` passes of a `trials`-sized working
 * set drawn as freqs + N(0, sigma).
 */
KernelTimes
run(const arch::Architecture &arch, double sigma_ghz,
    std::size_t trials, std::size_t reps)
{
    const CollisionChecker checker(arch);
    const BatchCollisionChecker batch(checker);
    const std::size_t nq = arch.numQubits();
    const std::vector<double> &freqs = arch.frequencies();

    // One shared working set, laid out both trial-major (scalar) and
    // qubit-major lane blocks (batched) so the kernels see identical
    // trials.
    const std::size_t blocks = (trials + B - 1) / B;
    std::vector<std::vector<double>> rows(trials,
                                          std::vector<double>(nq));
    std::vector<double> soa(blocks * nq * B, 5.0);
    Rng rng(2020);
    for (std::size_t t = 0; t < trials; ++t)
        for (std::size_t q = 0; q < nq; ++q) {
            const double v = rng.gaussian(freqs[q], sigma_ghz);
            rows[t][q] = v;
            soa[BatchCollisionChecker::soaIndex(t, q, nq)] = v;
        }

    using clock = std::chrono::steady_clock;
    KernelTimes result;

    std::size_t scalar_ok = 0;
    auto s0 = clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t t = 0; t < trials; ++t)
            scalar_ok += !checker.anyCollision(rows[t]);
    auto s1 = clock::now();

    std::size_t batch_ok = 0;
    auto b0 = clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t bi = 0; bi < blocks; ++bi) {
            const std::size_t active =
                std::min(B, trials - bi * B);
            batch_ok += std::size_t(std::popcount(
                batch.survivorMask(&soa[bi * nq * B], active)));
        }
    auto b1 = clock::now();

    const double total = double(trials) * double(reps);
    result.scalar_ns_per_trial = seconds(s0, s1) / total * 1e9;
    result.batch_ns_per_trial = seconds(b0, b1) / total * 1e9;
    result.survivor_fraction = double(scalar_ok) / total;
    result.agree = scalar_ok == batch_ok;

    // Trial-for-trial agreement on the first pass (the aggregate
    // comparison above could mask compensating errors).
    for (std::size_t t = 0; t < trials && result.agree; ++t) {
        const uint8_t mask = batch.survivorMask(
            &soa[(t / B) * nq * B], std::min(B, trials - (t / B) * B));
        const bool batch_survives = (mask >> (t % B)) & 1;
        if (batch_survives != !checker.anyCollision(rows[t]))
            result.agree = false;
    }
    return result;
}

int
report(const char *label, const KernelTimes &k)
{
    std::printf("%-18s %10.1f %10.1f %9.2fx %10.3f%s\n", label,
                k.scalar_ns_per_trial, k.batch_ns_per_trial,
                k.scalar_ns_per_trial / k.batch_ns_per_trial,
                k.survivor_fraction,
                k.agree ? "" : "  MISMATCH!");
    return k.agree ? 0 : 1;
}

} // namespace

int
main()
{
    eval::printHeader(std::cout,
                      "Collision kernel: scalar vs batched SoA");

    const std::size_t trials = 4096;
    const std::size_t reps = bench::fastMode() ? 50 : 500;
    std::printf("trials per pass: %zu, passes: %zu\n\n", trials, reps);
    std::printf("%-18s %10s %10s %10s %10s\n", "workload",
                "scalar ns", "batch ns", "speedup", "survive");

    int rc = 0;

    // Surviving-heavy: a 32-qubit path with the period-3 pattern
    // 5.00/5.10/5.20 GHz is free of all seven collisions at zero
    // noise, so at 1 MHz noise nearly every trial survives the full
    // 31-pair/30-triple scan — the pure inner-loop throughput
    // measurement.
    arch::Architecture path(arch::Layout::grid(1, 32), "path-32");
    {
        const double pattern[3] = {5.00, 5.10, 5.20};
        std::vector<double> freqs(path.numQubits());
        for (std::size_t q = 0; q < freqs.size(); ++q)
            freqs[q] = pattern[q % 3];
        path.setAllFrequencies(freqs);
    }
    rc |= report("surviving-heavy", run(path, 0.001, trials, reps));

    // Colliding-heavy: paper noise on the bused chip with the
    // five-frequency tiling; most trials die within a few terms, the
    // scalar short-circuit's best case.
    auto bused = arch::ibm16Q(true);
    rc |= report("colliding-heavy", run(bused, 0.030, trials, reps));

    // Paper operating point: 30 MHz noise on an Algorithm-3
    // optimized unbused chip — the estimateYield hot path of the
    // experiments.
    auto optimized = arch::ibm16Q(false);
    design::FreqAllocOptions fopts;
    fopts.local_trials = bench::fastMode() ? 300 : 2000;
    design::applyOptimizedFrequencies(optimized, fopts);
    rc |= report("paper-sigma", run(optimized, 0.030, trials, reps));

    if (rc == 0)
        std::printf("\nscalar and batched kernels agree on every "
                    "trial\n");
    return rc;
}
