/**
 * @file
 * Center-out breadth-first frequency allocation
 * (paper Algorithm 3, Section 4.3).
 *
 * The qubit nearest the geometric centre of the placement receives
 * the middle of the allowed band (5.17 GHz). Remaining qubits are
 * visited in breadth-first order over the coupling graph; for each,
 * every candidate on a 10 MHz grid across 5.00-5.34 GHz is scored
 * by a Monte Carlo estimate of the yield of the qubit's local
 * region (the collision terms its frequency participates in, among
 * already-assigned qubits), and the argmax is committed.
 *
 * All candidates of one visit share one table of random draws, so
 * across candidates only q's own post-fabrication value
 * qv = cand + noise changes, and it rises with the candidate index
 * (IEEE rounding is monotone). Every collision sub-condition is a
 * window |E(qv)| < thr or a half-line in such a value, so per trial
 * each term kills a few contiguous runs of candidate indices. The
 * scan (detail::countSurvivors) places those runs on the grid by
 * index arithmetic instead of testing every candidate, and settles
 * any candidate within a tiny tolerance of a run edge with the very
 * predicate the yield model uses; see freq_alloc.cc for the bound
 * that makes the result exact.
 */

#ifndef QPAD_DESIGN_FREQ_ALLOC_HH
#define QPAD_DESIGN_FREQ_ALLOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/architecture.hh"
#include "exec/context.hh"
#include "runtime/parallel.hh"
#include "yield/collision.hh"

namespace qpad::design
{

/** Allocator configuration. */
struct FreqAllocOptions
{
    /** Candidate grid spacing in GHz (paper: 0.01). */
    double grid_step_ghz = 0.01;
    /** Monte Carlo trials per candidate evaluation. */
    std::size_t local_trials = 2000;
    /** Fabrication noise assumed during optimization. */
    double sigma_ghz = arch::DeviceConstants::default_sigma_ghz;
    /** Collision thresholds. */
    yield::CollisionModel model = {};
    /** RNG seed (common random numbers across candidates). */
    uint64_t seed = 11;
    /**
     * Coordinate-descent polish: after the centre-out pass, each
     * qubit is re-optimized this many times with *all* neighbours
     * assigned. Fixes the one-pass myopia the paper acknowledges in
     * Section 6 ("Optimizing Frequency Allocation"); 0 reproduces
     * the paper's plain Algorithm 3.
     */
    unsigned refine_sweeps = 2;
    /**
     * Parallel execution of the per-qubit candidate scan (the hot
     * path of Algorithm 3). The scan is split into one chunk of
     * trials per worker; each chunk tallies its survivors per
     * candidate in integer counters, and the common-random-numbers
     * table is generated ahead of the scan, so the chosen
     * frequencies are identical for every thread count.
     */
    runtime::Options exec = {};
};

/** Allocation outcome. */
struct FreqAllocResult
{
    /** Chosen pre-fabrication frequency per qubit (GHz). */
    std::vector<double> freqs;
    /** BFS visit order used. */
    std::vector<arch::PhysQubit> order;
    /** Local-yield score accepted for each qubit (1.0 for the seed). */
    std::vector<double> local_scores;
};

/**
 * Run Algorithm 3; does not mutate the architecture. A cancelled or
 * deadline-expired `ctx` raises exec::CancelledError between qubit
 * visits and between refine steps (never mid-scan); a completed run
 * is bit-identical to one without a context.
 */
FreqAllocResult
allocateFrequencies(const arch::Architecture &arch,
                    const FreqAllocOptions &options = {},
                    const exec::Context &ctx = exec::Context::none());

/** Convenience: allocate and store into the architecture. */
void applyOptimizedFrequencies(
    arch::Architecture &arch, const FreqAllocOptions &options = {},
    const exec::Context &ctx = exec::Context::none());

/** The centre-most qubit (Euclidean distance to the centroid). */
arch::PhysQubit centerQubit(const arch::Layout &layout);

namespace detail
{

/**
 * One qubit visit of Algorithm 3: the collision terms q takes part in
 * among assigned qubits, with every index local to the involved set,
 * and the common-random-numbers table all candidates share.
 */
struct LocalScan
{
    /** Pair terms; exactly one endpoint of each is qi. */
    std::vector<yield::CollisionChecker::PairTerm> pairs;
    /** Triple terms; exactly one of j, k, i of each is qi. */
    std::vector<yield::CollisionChecker::TripleTerm> triples;
    /** Involved qubits: the width of one table row. */
    std::size_t n_inv = 0;
    /** q's index in a row; that entry is never read. */
    std::size_t qi = 0;
    /** Post-fabrication frequencies, trials x n_inv, row-major. */
    std::vector<double> post;
    /** Fabrication deviation of q per trial. */
    std::vector<double> q_noise;

    std::size_t trials() const { return q_noise.size(); }
};

/**
 * The candidate grid freq_min, freq_min + step, ... up to freq_max,
 * built by repeated addition. A non-finite or non-positive step is
 * a caller error (qpad_fatal): the loop would never end, or stop
 * after one point.
 */
std::vector<double> candidateGrid(double step_ghz);

/**
 * Survivors per candidate: entry c counts the trials t of `scan` in
 * which no term collides once q's post-fabrication frequency is
 * candidates[c] + q_noise[t]. `candidates` is expected to be an
 * ascending grid of spacing step_ghz as candidateGrid builds it;
 * trials whose values are non-finite or far from any chip band (and
 * every trial, if the grid is not such a grid) are settled candidate
 * by candidate with the same predicates, so the counts are exact for
 * every input. Trials are split into one chunk per worker of `exec`,
 * and the counts are integer sums, identical for every thread count.
 */
std::vector<std::size_t>
countSurvivors(const LocalScan &scan, const yield::CollisionModel &model,
               const std::vector<double> &candidates, double step_ghz,
               const runtime::Options &exec = {});

/** Signature of countSurvivors: scores the candidates of one visit. */
using SurvivorCounter = std::vector<std::size_t> (*)(
    const LocalScan &, const yield::CollisionModel &,
    const std::vector<double> &, double, const runtime::Options &);

/**
 * Algorithm 3 with the candidate scan done by `count`. The public
 * allocateFrequencies passes countSurvivors; tests pass a reference
 * scan built on yield::pairCollides / yield::tripleCollides.
 */
FreqAllocResult allocateFrequencies(const arch::Architecture &arch,
                                    const FreqAllocOptions &options,
                                    const exec::Context &ctx,
                                    SurvivorCounter count);

} // namespace detail

} // namespace qpad::design

#endif // QPAD_DESIGN_FREQ_ALLOC_HH
