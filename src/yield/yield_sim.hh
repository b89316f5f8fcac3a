/**
 * @file
 * Monte Carlo yield simulation (paper Section 4.3.1).
 *
 * A fabrication attempt adds Gaussian noise N(0, sigma) to every
 * pre-fabrication frequency; the attempt succeeds iff no collision
 * condition fires on the post-fabrication frequencies. Yield rate =
 * successes / trials.
 */

#ifndef QPAD_YIELD_YIELD_SIM_HH
#define QPAD_YIELD_YIELD_SIM_HH

#include <cstdint>

#include "arch/architecture.hh"
#include "exec/context.hh"
#include "runtime/parallel.hh"
#include "yield/collision.hh"
#include "yield/collision_batch.hh"

namespace qpad::yield
{

/** Simulation configuration. */
struct YieldOptions
{
    /** Monte Carlo fabrication attempts (paper: 10,000). */
    std::size_t trials = 10000;
    /** Fabrication precision sigma in GHz (paper: 30 MHz). */
    double sigma_ghz = arch::DeviceConstants::default_sigma_ghz;
    /** RNG seed; equal seeds reproduce results exactly. */
    uint64_t seed = 1;
    /** Also accumulate per-condition failure statistics (slower). */
    bool collect_condition_stats = false;
    /** Collision thresholds. */
    CollisionModel model = {};
    /**
     * Parallel execution. Trials are sharded into fixed-size blocks,
     * each drawing from its own seed-derived RNG stream, so the
     * result is bit-identical for every num_threads value (including
     * the sequential num_threads = 1).
     */
    runtime::Options exec = {};
};

/** Simulation outcome. */
struct YieldResult
{
    double yield = 0.0;
    std::size_t successes = 0;
    std::size_t trials = 0;
    /** Trials in which condition c fired at least once (1..7). */
    ConditionCounts condition_trials{};

    /** Standard error of the yield estimate (binomial). */
    double stderrEstimate() const;
};

/**
 * Estimate the yield rate of an architecture. All frequencies must
 * be assigned. Trials are evaluated through the batched SoA kernel
 * (BatchCollisionChecker) unless condition statistics are requested
 * or QPAD_SCALAR_KERNEL forces the scalar oracle; both paths draw
 * the same RNG stream in the same order and return bit-identical
 * results. The stream follows the lane draw order of
 * common/gauss_block.hh (kDrawOrderVersion). options.trials == 0
 * returns a zero-trial result (yield 0, stderr 0) instead of
 * dividing by zero.
 */
YieldResult
estimateYield(const arch::Architecture &arch,
              const YieldOptions &options = {},
              const exec::Context &ctx = exec::Context::none());

/**
 * Same, reusing a prebuilt checker; the Architecture overload builds
 * one and calls this.
 */
YieldResult
estimateYield(const CollisionChecker &checker,
              const std::vector<double> &pre_fab_freqs,
              const YieldOptions &options = {},
              const exec::Context &ctx = exec::Context::none());

} // namespace qpad::yield

#endif // QPAD_YIELD_YIELD_SIM_HH
