/**
 * @file
 * Tests for the collision model (Figure 3) and the Monte Carlo yield
 * simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "arch/ibm.hh"
#include "common/rng.hh"
#include "scoped_scalar_kernel.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace qpad::yield;
using arch::Architecture;
using arch::Layout;

const CollisionModel kModel{};

using qpad::test::ScopedScalarKernel;

// --------------------------------------------------------------------
// Pair conditions 1-4
// --------------------------------------------------------------------

TEST(Collision, Condition1EqualFrequencies)
{
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.116)); // inside 17 MHz
    EXPECT_FALSE(pairCollides(kModel, 5.10, 5.118)); // outside
}

TEST(Collision, Condition2HalfAnharmonicity)
{
    // f_j ~ f_k - delta/2 = f_k + 0.17, threshold 4 MHz.
    EXPECT_TRUE(pairCollides(kModel, 5.27, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.273, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.275, 5.10));
    // Symmetric orientation.
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.27));
}

TEST(Collision, Condition3FullAnharmonicity)
{
    // f_j ~ f_k + 0.34, threshold 25 MHz. Frequencies out of the
    // normal band are legal inputs for the model.
    EXPECT_TRUE(pairCollides(kModel, 5.44, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.42, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.41, 5.10));
}

TEST(Collision, Condition4SlowGateRegion)
{
    // f_j > f_k + 0.34 in either orientation.
    EXPECT_TRUE(pairCollides(kModel, 5.50, 5.10));
    EXPECT_TRUE(pairCollides(kModel, 5.10, 5.50));
}

TEST(Collision, SafePairDoesNotCollide)
{
    EXPECT_FALSE(pairCollides(kModel, 5.10, 5.17));
    EXPECT_FALSE(pairCollides(kModel, 5.00, 5.10));
    EXPECT_FALSE(pairCollides(kModel, 5.05, 5.30));
}

// --------------------------------------------------------------------
// Triple conditions 5-7
// --------------------------------------------------------------------

TEST(Collision, Condition5SpectatorDegeneracy)
{
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.20, 5.20));
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.20, 5.21));
    EXPECT_FALSE(tripleCollides(kModel, 5.10, 5.20, 5.24));
}

TEST(Collision, Condition6SpectatorAnharmonicity)
{
    // f_i ~ f_k + 0.34 (threshold 25 MHz), either orientation.
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.00, 5.34));
    EXPECT_TRUE(tripleCollides(kModel, 5.10, 5.34, 5.00));
    EXPECT_FALSE(tripleCollides(kModel, 5.10, 5.04, 5.30));
}

TEST(Collision, Condition7TwoPhoton)
{
    // 2 f_j + delta ~ f_k + f_i, threshold 17 MHz.
    // Pick f_j = 5.20: 2*5.20 - 0.34 = 10.06.
    EXPECT_TRUE(tripleCollides(kModel, 5.20, 5.00, 5.06));
    EXPECT_TRUE(tripleCollides(kModel, 5.20, 5.03, 5.04));
    EXPECT_FALSE(tripleCollides(kModel, 5.20, 5.00, 5.10));
}

TEST(Collision, SafeTripleDoesNotCollide)
{
    EXPECT_FALSE(tripleCollides(kModel, 5.17, 5.05, 5.29));
}

// --------------------------------------------------------------------
// Checker term extraction
// --------------------------------------------------------------------

TEST(Checker, ExtractsPairAndTripleTerms)
{
    // Path of three qubits: edges (0,1), (1,2); one triple (j=1).
    Architecture arch(Layout::grid(1, 3));
    CollisionChecker checker(arch);
    EXPECT_EQ(checker.pairs().size(), 2u);
    ASSERT_EQ(checker.triples().size(), 1u);
    EXPECT_EQ(checker.triples()[0].j, 1u);
}

TEST(Checker, TriplesGrowWithDegree)
{
    // 2x2 grid with a 4-qubit bus: every vertex has degree 3, so
    // each contributes C(3,2) = 3 triples.
    Architecture arch(Layout::grid(2, 2));
    arch.addFourQubitBus({0, 0});
    CollisionChecker checker(arch);
    EXPECT_EQ(checker.pairs().size(), 6u);
    EXPECT_EQ(checker.triples().size(), 12u);
}

TEST(Checker, AnyCollisionMatchesCounts)
{
    Architecture arch(Layout::grid(1, 3));
    CollisionChecker checker(arch);
    std::vector<double> safe = {5.05, 5.17, 5.29};
    EXPECT_FALSE(checker.anyCollision(safe));
    auto counts = checker.countCollisions(safe);
    for (int c = 1; c <= 7; ++c)
        EXPECT_EQ(counts[c], 0u) << "condition " << c;

    std::vector<double> bad = {5.05, 5.05, 5.29}; // condition 1
    EXPECT_TRUE(checker.anyCollision(bad));
    EXPECT_GT(checker.countCollisions(bad)[1], 0u);
}

// --------------------------------------------------------------------
// Monte Carlo yield
// --------------------------------------------------------------------

TEST(YieldSim, PerfectYieldWithTinyNoise)
{
    Architecture arch(Layout::grid(1, 3));
    arch.setAllFrequencies({5.05, 5.17, 5.29});
    YieldOptions opts;
    opts.trials = 2000;
    opts.sigma_ghz = 1e-6;
    auto r = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(r.yield, 1.0);
    EXPECT_EQ(r.successes, r.trials);
}

TEST(YieldSim, ZeroYieldForDegenerateFrequencies)
{
    Architecture arch(Layout::grid(1, 2));
    arch.setAllFrequencies({5.17, 5.17});
    YieldOptions opts;
    opts.trials = 2000;
    opts.sigma_ghz = 1e-4; // noise too small to escape condition 1
    auto r = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(r.yield, 0.0);
}

TEST(YieldSim, DeterministicForEqualSeeds)
{
    auto arch = arch::ibm16Q(false);
    YieldOptions opts;
    opts.trials = 3000;
    opts.seed = 77;
    auto a = estimateYield(arch, opts);
    auto b = estimateYield(arch, opts);
    EXPECT_DOUBLE_EQ(a.yield, b.yield);
    opts.seed = 78;
    auto c = estimateYield(arch, opts);
    EXPECT_NE(a.successes, c.successes);
}

TEST(YieldSim, MoreConnectionsLowerYield)
{
    // The same 16-qubit chip with 4-qubit buses must yield strictly
    // less under identical noise (statistically robust at 20k
    // trials: the bused chip adds 8 edges and many triples).
    YieldOptions opts;
    opts.trials = 20000;
    double plain = estimateYield(arch::ibm16Q(false), opts).yield;
    double bused = estimateYield(arch::ibm16Q(true), opts).yield;
    EXPECT_GT(plain, bused);
}

TEST(YieldSim, SmallerSigmaImprovesYield)
{
    auto arch = arch::ibm16Q(false);
    YieldOptions coarse, fine;
    coarse.trials = fine.trials = 20000;
    coarse.sigma_ghz = 0.030;
    fine.sigma_ghz = 0.010;
    EXPECT_GT(estimateYield(arch, fine).yield,
              estimateYield(arch, coarse).yield);
}

TEST(YieldSim, ConditionStatsAccumulate)
{
    auto arch = arch::ibm16Q(true);
    YieldOptions opts;
    opts.trials = 2000;
    opts.collect_condition_stats = true;
    auto r = estimateYield(arch, opts);
    std::size_t total = 0;
    for (int c = 1; c <= 7; ++c)
        total += r.condition_trials[c];
    EXPECT_GT(total, 0u);
    // Success + at-least-one-condition trials cover everything.
    EXPECT_GE(total + r.successes, r.trials);
}

TEST(YieldSim, StderrEstimateSane)
{
    YieldResult r;
    r.yield = 0.5;
    r.trials = 10000;
    EXPECT_NEAR(r.stderrEstimate(), 0.005, 1e-6);
    r.yield = 0.0;
    EXPECT_DOUBLE_EQ(r.stderrEstimate(), 0.0);
}

TEST(YieldSim, RequiresAssignedFrequencies)
{
    Architecture arch(Layout::grid(1, 2));
    EXPECT_THROW(estimateYield(arch, {}), std::logic_error);
}

TEST(YieldSim, ZeroTrialsReturnZeroTrialResult)
{
    Architecture arch(Layout::grid(1, 3));
    arch.setAllFrequencies({5.05, 5.17, 5.29});
    YieldOptions opts;
    opts.trials = 0;
    auto r = estimateYield(arch, opts);
    EXPECT_EQ(r.trials, 0u);
    EXPECT_EQ(r.successes, 0u);
    EXPECT_DOUBLE_EQ(r.yield, 0.0);
    EXPECT_FALSE(std::isnan(r.yield));
    EXPECT_DOUBLE_EQ(r.stderrEstimate(), 0.0);
}

TEST(YieldSim, ScalarKernelEnvIsBitIdentical)
{
    // 4999 trials: full 1024-trial shards plus a 903-trial tail whose
    // last batch has 7 active lanes, so the remainder path is on the
    // line too.
    auto arch = arch::ibm16Q(true);
    YieldOptions opts;
    opts.trials = 4999;
    opts.seed = 11;
    const auto batched = estimateYield(arch, opts);
    YieldResult scalar;
    {
        ScopedScalarKernel forced;
        scalar = estimateYield(arch, opts);
    }
    EXPECT_EQ(batched.successes, scalar.successes);
    EXPECT_DOUBLE_EQ(batched.yield, scalar.yield);
}

// --------------------------------------------------------------------
// Property tests: any/count agreement, batch/scalar equivalence
// --------------------------------------------------------------------

/** Random grid, sometimes with a 4-qubit bus for triple-rich graphs. */
Architecture
randomArch(Rng &rng)
{
    const int rows = 1 + int(rng.below(3));
    const int cols = 2 + int(rng.below(4));
    Architecture arch(Layout::grid(rows, cols), "random");
    if (rows >= 2 && cols >= 2 && rng.chance(0.5))
        arch.addFourQubitBus({int(rng.below(uint64_t(rows - 1))),
                              int(rng.below(uint64_t(cols - 1)))});
    return arch;
}

/**
 * Frequencies that exercise both outcomes: half the draws are a
 * collision-free period-3 pattern plus small noise (survivors), half
 * are uniform in the allocation band (mostly colliding).
 */
std::vector<double>
randomFreqs(Rng &rng, std::size_t nq)
{
    std::vector<double> freqs(nq);
    if (rng.chance(0.5)) {
        const double pattern[3] = {5.00, 5.10, 5.20};
        for (std::size_t q = 0; q < nq; ++q)
            freqs[q] = pattern[q % 3] + rng.gaussian(0.0, 0.002);
    } else {
        for (std::size_t q = 0; q < nq; ++q)
            freqs[q] = rng.uniform(5.00, 5.40);
    }
    return freqs;
}

TEST(Property, AnyCollisionIffCountsNonzero)
{
    Rng rng(123);
    std::size_t colliding = 0, surviving = 0;
    for (int iter = 0; iter < 300; ++iter) {
        Architecture arch = randomArch(rng);
        CollisionChecker checker(arch);
        const auto freqs = randomFreqs(rng, arch.numQubits());
        const auto counts = checker.countCollisions(freqs);
        const std::size_t total =
            std::accumulate(counts.begin(), counts.end(),
                            std::size_t{0});
        EXPECT_EQ(checker.anyCollision(freqs), total > 0);
        ++(total > 0 ? colliding : surviving);
    }
    // The generator must have exercised both outcomes.
    EXPECT_GT(colliding, 0u);
    EXPECT_GT(surviving, 0u);
}

TEST(Property, BatchMatchesScalarTrialForTrial)
{
    constexpr std::size_t B = BatchCollisionChecker::kLanes;
    Rng rng(321);
    for (int iter = 0; iter < 60; ++iter) {
        Architecture arch = randomArch(rng);
        CollisionChecker checker(arch);
        BatchCollisionChecker batch(checker);
        const std::size_t nq = arch.numQubits();
        // 1..3*B trials, deliberately hitting every remainder size.
        const std::size_t trials = 1 + rng.below(3 * B);
        const std::size_t blocks = (trials + B - 1) / B;

        std::vector<std::vector<double>> rows(trials);
        std::vector<double> soa(blocks * nq * B, 5.0);
        for (std::size_t t = 0; t < trials; ++t) {
            rows[t] = randomFreqs(rng, nq);
            for (std::size_t q = 0; q < nq; ++q)
                soa[BatchCollisionChecker::soaIndex(t, q, nq)] =
                    rows[t][q];
        }

        for (std::size_t bi = 0; bi < blocks; ++bi) {
            const std::size_t active = std::min(B, trials - bi * B);
            const uint8_t mask =
                batch.survivorMask(&soa[bi * nq * B], active);
            // Bits at and above `active` must be clear.
            EXPECT_EQ(mask >> active, 0u);
            for (std::size_t l = 0; l < active; ++l) {
                const bool batch_survives = (mask >> l) & 1u;
                EXPECT_EQ(batch_survives,
                          !checker.anyCollision(rows[bi * B + l]))
                    << "iter " << iter << " trial " << bi * B + l;
            }
        }
    }
}

} // namespace
