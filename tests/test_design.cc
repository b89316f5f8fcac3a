/**
 * @file
 * Tests for the three design subroutines (Algorithms 1-3) and the
 * end-to-end design flow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "benchmarks/generators.hh"
#include "benchmarks/suite.hh"
#include "common/rng.hh"
#include "design/design_flow.hh"
#include "freq_alloc_oracle.hh"
#include "profile/coupling.hh"
#include "scoped_scalar_kernel.hh"
#include "yield/yield_sim.hh"

namespace
{

using namespace qpad;
using namespace qpad::design;
using arch::Architecture;
using arch::Coord;
using arch::Layout;

// --------------------------------------------------------------------
// Algorithm 1: layout design
// --------------------------------------------------------------------

TEST(LayoutDesign, Figure6StarExample)
{
    auto prof = profile::profileCircuit(benchmarks::profilingExample());
    LayoutResult r = designLayout(prof);
    ASSERT_EQ(r.layout.numQubits(), 5u);

    // q4 is placed first (highest degree); the heavy q0-q4 pair must
    // be lattice-adjacent.
    EXPECT_EQ(Coord::manhattan(r.coord_of_logical[0],
                               r.coord_of_logical[4]), 1);
    // Star around q4: an optimal plus-shape costs 7
    // (edges to q4: 2+1+1+1, plus q0-q1 at distance 2).
    EXPECT_LE(r.placement_cost, 8u);
}

TEST(LayoutDesign, ChainProgramGetsPerfectChainPlacement)
{
    auto prof = profile::profileCircuit(benchmarks::isingModel(16, 5));
    ASSERT_TRUE(prof.isChain());
    LayoutResult r = designLayout(prof);
    // Every logical edge must land on lattice-adjacent nodes: the
    // cost equals the plain sum of edge strengths.
    uint64_t strength_sum = 0;
    for (auto [i, j] : prof.edges())
        strength_sum += prof.strength(i, j);
    EXPECT_EQ(r.placement_cost, strength_sum);
}

TEST(LayoutDesign, PlacesEveryQubitOnce)
{
    for (const char *name : {"qft_16", "misex1_241", "adr4_197"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        auto prof = profile::profileCircuit(circ);
        LayoutResult r = designLayout(prof);
        EXPECT_EQ(r.layout.numQubits(), prof.num_qubits) << name;
        // Layout::addQubit would have thrown on duplicate coords;
        // verify id <-> coordinate consistency instead.
        for (circuit::Qubit q = 0; q < prof.num_qubits; ++q)
            EXPECT_EQ(*r.layout.qubitAt(r.coord_of_logical[q]), q);
    }
}

TEST(LayoutDesign, LayoutIsContiguous)
{
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    LayoutResult r = designLayout(prof);
    Architecture arch(r.layout);
    EXPECT_TRUE(arch.isConnectedGraph());
}

TEST(LayoutDesign, NormalizedToOrigin)
{
    auto prof = profile::profileCircuit(benchmarks::qft(9));
    LayoutResult r = designLayout(prof);
    EXPECT_EQ(r.layout.minRow(), 0);
    EXPECT_EQ(r.layout.minCol(), 0);
}

TEST(LayoutDesign, CostBeatsRowMajorPackingOnStructuredPrograms)
{
    // The whole point of Algorithm 1: locality-aware placement must
    // not be worse than naive row-major packing into a near-square.
    for (const char *name : {"UCCSD_ansatz_8", "misex1_241"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        auto prof = profile::profileCircuit(circ);
        LayoutResult r = designLayout(prof);

        std::vector<Coord> naive(prof.num_qubits);
        int cols = 4;
        for (std::size_t q = 0; q < prof.num_qubits; ++q)
            naive[q] = {int(q) / cols, int(q) % cols};
        EXPECT_LE(r.placement_cost, placementCost(prof, naive))
            << name;
    }
}

TEST(LayoutDesign, HandlesIsolatedQubits)
{
    // A program whose qubit 2 never touches a two-qubit gate.
    circuit::Circuit c(3, 3);
    c.cx(0, 1);
    c.h(2);
    auto prof = profile::profileCircuit(c);
    LayoutResult r = designLayout(prof);
    EXPECT_EQ(r.layout.numQubits(), 3u);
}

// --------------------------------------------------------------------
// Algorithm 2: bus selection
// --------------------------------------------------------------------

profile::CouplingProfile
syntheticProfile(std::size_t n,
                 const std::vector<std::tuple<int, int, int>> &edges)
{
    circuit::Circuit c(n);
    for (auto [a, b, w] : edges)
        for (int k = 0; k < w; ++k)
            c.cx(a, b);
    return profile::profileCircuit(c);
}

TEST(BusSelection, PicksTheHeavyDiagonal)
{
    // 2x2 grid, logical ids = grid ids; diagonal (0,3) heavy.
    auto prof = syntheticProfile(
        4, {{0, 1, 1}, {2, 3, 1}, {0, 3, 10}});
    Architecture arch(Layout::grid(2, 2));
    auto sel = selectBuses(arch, prof, 5);
    ASSERT_EQ(sel.selected.size(), 1u);
    EXPECT_EQ(sel.selected[0], (Coord{0, 0}));
    EXPECT_EQ(sel.weights[0], 10u);
}

TEST(BusSelection, ZeroWeightSquaresNeverSelected)
{
    // Chain coupling on a 2x3 grid: no diagonal demand at all.
    auto prof = syntheticProfile(
        6, {{0, 1, 5}, {1, 2, 5}, {3, 4, 5}, {4, 5, 5}});
    Architecture arch(Layout::grid(2, 3));
    auto sel = selectBuses(arch, prof, 10);
    EXPECT_TRUE(sel.selected.empty());
}

TEST(BusSelection, ProhibitedConditionRespected)
{
    // All diagonals attractive on a 2x8 grid: selection must stay an
    // independent set of squares.
    std::vector<std::tuple<int, int, int>> edges;
    for (int c = 0; c < 7; ++c) {
        edges.push_back({c, 9 + c, 3});     // diag tl-br
        edges.push_back({c + 1, 8 + c, 3}); // diag tr-bl
    }
    auto prof = syntheticProfile(16, edges);
    Architecture arch(Layout::grid(2, 8));
    auto sel = selectBuses(arch, prof, 100);
    EXPECT_LE(sel.selected.size(), 4u);
    Architecture check(Layout::grid(2, 8));
    applyBusSelection(check, sel); // throws on violation
    EXPECT_EQ(check.fourQubitBuses().size(), sel.selected.size());
}

TEST(BusSelection, FilteredWeightPrefersIsolatedHeavySquare)
{
    // Squares at origins (0,0), (0,1), (0,2) on a 2x4 grid with
    // weights 6, 7, 6: raw greedy would take the middle (7) and
    // block both neighbours (total 7); the filter starts from an
    // edge square and achieves 6 + 6.
    auto prof = syntheticProfile(8, {{0, 5, 6},   // diag of square 0
                                     {1, 6, 7},   // diag of square 1
                                     {2, 7, 6}}); // diag of square 2
    Architecture arch(Layout::grid(2, 4));
    auto sel = selectBuses(arch, prof, 10);
    uint64_t total = 0;
    for (auto w : sel.weights)
        total += w;
    EXPECT_EQ(sel.selected.size(), 2u);
    EXPECT_EQ(total, 12u);
}

TEST(BusSelection, RespectsMaxBusesK)
{
    auto prof = profile::profileCircuit(benchmarks::qft(16));
    LayoutResult lay = designLayout(prof);
    Architecture arch(lay.layout);
    auto sel1 = selectBuses(arch, prof, 1);
    EXPECT_LE(sel1.selected.size(), 1u);
    auto sel3 = selectBuses(arch, prof, 3);
    EXPECT_LE(sel3.selected.size(), 3u);
    EXPECT_GE(sel3.selected.size(), sel1.selected.size());
}

TEST(BusSelection, RandomSelectionHonoursConstraints)
{
    Architecture arch(Layout::grid(4, 5));
    Rng rng(123);
    for (int round = 0; round < 10; ++round) {
        auto sel = selectBusesRandom(arch, 4, rng);
        EXPECT_LE(sel.selected.size(), 4u);
        Architecture check(Layout::grid(4, 5));
        applyBusSelection(check, sel);
    }
}

TEST(BusSelection, RandomSelectionVariesWithSeed)
{
    Architecture arch(Layout::grid(4, 5));
    Rng rng_a(1), rng_b(2);
    auto a = selectBusesRandom(arch, 6, rng_a);
    auto b = selectBusesRandom(arch, 6, rng_b);
    EXPECT_TRUE(a.selected != b.selected);
}

TEST(BusSelection, MaxPlaceableMatchesKnownGrids)
{
    Architecture a16(Layout::grid(2, 8));
    EXPECT_EQ(maxPlaceableBuses(a16), 4u);
    Architecture a20(Layout::grid(4, 5));
    EXPECT_EQ(maxPlaceableBuses(a20), 6u);
}

// --------------------------------------------------------------------
// Algorithm 3: frequency allocation
// --------------------------------------------------------------------

TEST(FreqAlloc, CenterQubitOfGrids)
{
    // 1x3 path: the middle qubit is the centroid.
    EXPECT_EQ(centerQubit(Layout::grid(1, 3)), 1u);
    // 3x3: the true centre.
    EXPECT_EQ(centerQubit(Layout::grid(3, 3)), 4u);
}

TEST(FreqAlloc, SeedQubitGetsBandMiddle)
{
    Architecture arch(Layout::grid(3, 3));
    FreqAllocOptions opts;
    opts.local_trials = 200;
    auto r = allocateFrequencies(arch, opts);
    EXPECT_EQ(r.order.front(), 4u);
    EXPECT_NEAR(r.freqs[4], 5.17, 0.051); // may move in refinement
}

TEST(FreqAlloc, AllFrequenciesInsideAllowedBand)
{
    Architecture arch(Layout::grid(2, 4));
    FreqAllocOptions opts;
    opts.local_trials = 300;
    auto r = allocateFrequencies(arch, opts);
    for (double f : r.freqs) {
        EXPECT_GE(f, arch::DeviceConstants::freq_min_ghz - 1e-9);
        EXPECT_LE(f, arch::DeviceConstants::freq_max_ghz + 1e-9);
    }
}

TEST(FreqAlloc, VisitsEveryQubitOnce)
{
    Architecture arch(Layout::grid(3, 4));
    FreqAllocOptions opts;
    opts.local_trials = 100;
    auto r = allocateFrequencies(arch, opts);
    ASSERT_EQ(r.order.size(), 12u);
    std::vector<bool> seen(12, false);
    for (auto q : r.order) {
        EXPECT_FALSE(seen[q]);
        seen[q] = true;
    }
}

TEST(FreqAlloc, OrderIsBreadthFirstFromCenter)
{
    Architecture arch(Layout::grid(3, 3));
    FreqAllocOptions opts;
    opts.local_trials = 100;
    auto r = allocateFrequencies(arch, opts);
    const auto &d = arch.distances();
    // BFS property: distances from the centre are non-decreasing
    // along the visit order.
    for (std::size_t i = 1; i < r.order.size(); ++i)
        EXPECT_LE(d(r.order.front(), r.order[i - 1]),
                  d(r.order.front(), r.order[i]) + 0);
}

TEST(FreqAlloc, DeterministicForEqualSeeds)
{
    Architecture arch(Layout::grid(2, 4));
    FreqAllocOptions opts;
    opts.local_trials = 300;
    auto a = allocateFrequencies(arch, opts);
    auto b = allocateFrequencies(arch, opts);
    EXPECT_EQ(a.freqs, b.freqs);
}

TEST(FreqAlloc, ScalarKernelEnvIsBitIdentical)
{
    // The interval-mask scan must commit the exact frequencies and
    // scores of the reference scan over the scalar predicates; any
    // count divergence would surface as a different argmax or score
    // somewhere in the sweep. 301 trials split unevenly over the
    // workers; the 5 MHz grid needs two mask words. The scan has no
    // kernel switch, so QPAD_SCALAR_KERNEL must change nothing.
    Architecture arch(Layout::grid(2, 4));
    arch.addFourQubitBus({0, 1});
    FreqAllocOptions opts;
    opts.local_trials = 301;
    for (double step : {0.02, 0.01, 0.005}) {
        opts.grid_step_ghz = step;
        const auto masked = allocateFrequencies(arch, opts);
        const auto oracle = design::detail::allocateFrequencies(
            arch, opts, exec::Context::none(), &test::oracleSurvivors);
        EXPECT_EQ(masked.freqs, oracle.freqs) << step;
        EXPECT_EQ(masked.local_scores, oracle.local_scores) << step;
        FreqAllocResult forced_env;
        {
            qpad::test::ScopedScalarKernel forced;
            forced_env = allocateFrequencies(arch, opts);
        }
        EXPECT_EQ(masked.freqs, forced_env.freqs) << step;
    }
}

TEST(FreqAlloc, RejectsNonPositiveOrNonFiniteGridStep)
{
    // A step of zero or less would grow the grid until memory runs
    // out, and NaN would end it after one point.
    Architecture arch(Layout::grid(2, 2));
    FreqAllocOptions opts;
    opts.local_trials = 10;
    for (double step :
         {0.0, -0.01, std::numeric_limits<double>::quiet_NaN()}) {
        opts.grid_step_ghz = step;
        EXPECT_THROW(allocateFrequencies(arch, opts), std::runtime_error)
            << step;
        EXPECT_THROW(design::detail::candidateGrid(step), std::runtime_error)
            << step;
    }
}

// --------------------------------------------------------------------
// Algorithm 3 candidate scan: interval masks vs the scalar oracle
// --------------------------------------------------------------------

/** n grid points from the band floor, added up like candidateGrid. */
std::vector<double>
accumulatedGrid(double step, std::size_t n)
{
    std::vector<double> grid;
    double f = arch::DeviceConstants::freq_min_ghz;
    for (std::size_t c = 0; c < n; ++c, f += step)
        grid.push_back(f);
    return grid;
}

/**
 * A scan over involved qubits 0..4 with q = 2 in every position a
 * term can hold it: both pair endpoints, and j, k and i of a triple.
 */
design::detail::LocalScan
everyPositionScan(std::size_t trials)
{
    design::detail::LocalScan scan;
    scan.n_inv = 5;
    scan.qi = 2;
    scan.pairs = {{2, 0}, {1, 2}};
    scan.triples = {{2, 0, 1}, {3, 2, 4}, {0, 3, 2}};
    scan.post.assign(trials * scan.n_inv, 0.0);
    scan.q_noise.assign(trials, 0.0);
    return scan;
}

/** v moved by `ulps` units in the last place. */
double
nudge(double v, int ulps)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (; ulps > 0; --ulps)
        v = std::nextafter(v, inf);
    for (; ulps < 0; ++ulps)
        v = std::nextafter(v, -inf);
    return v;
}

template <std::size_t N>
double
pick(Rng &rng, const double (&options)[N])
{
    return options[rng.below(N)];
}

/**
 * Fill trial t with random values around the band. An adversarial
 * trial then sets one partner value so that an edge of a random
 * sub-condition of a random term falls on the qv of a random
 * candidate, and moves it by -2..2 ulps.
 */
void
fillTrial(design::detail::LocalScan &scan, std::size_t t,
          const std::vector<double> &candidates,
          const yield::CollisionModel &m, Rng &rng, bool adversarial)
{
    double *row = &scan.post[t * scan.n_inv];
    for (std::size_t idx = 0; idx < scan.n_inv; ++idx)
        row[idx] = rng.uniform(4.9, 5.45);
    scan.q_noise[t] = rng.gaussian(0.0, 0.03);
    if (!adversarial)
        return;

    const double qv =
        candidates[rng.below(candidates.size())] + scan.q_noise[t];
    const double d = m.delta;
    const std::size_t qi = scan.qi;
    const std::size_t term =
        rng.below(scan.pairs.size() + scan.triples.size());
    double *target = nullptr;
    if (term < scan.pairs.size()) {
        const auto &p = scan.pairs[term];
        target = &row[p.a == qi ? p.b : p.a];
        const double offsets[] = {
            m.thr1,          -m.thr1,          d / 2 + m.thr2,
            d / 2 - m.thr2,  -d / 2 + m.thr2,  -d / 2 - m.thr2,
            d + m.thr3,      d - m.thr3,       -d + m.thr3,
            -d - m.thr3,     d,                -d};
        *target = qv + pick(rng, offsets);
    } else {
        const auto &tr = scan.triples[term - scan.pairs.size()];
        const double c7[] = {m.thr7, -m.thr7};
        if (tr.j == qi) {
            // Condition 7 around q, or the q-independent 5 and 6.
            target = &row[tr.i];
            if (rng.chance(0.5)) {
                *target = 2 * qv + d + pick(rng, c7) - row[tr.k];
            } else {
                const double offsets[] = {m.thr5,      -m.thr5,
                                          -d + m.thr6, -d - m.thr6,
                                          d + m.thr6,  d - m.thr6};
                *target = row[tr.k] + pick(rng, offsets);
            }
        } else {
            const std::size_t other = tr.k == qi ? tr.i : tr.k;
            if (rng.chance(0.5)) {
                target = &row[other];
                const double offsets[] = {m.thr5,     -m.thr5,
                                          d + m.thr6, d - m.thr6,
                                          -d + m.thr6, -d - m.thr6};
                *target = qv + pick(rng, offsets);
            } else {
                target = &row[tr.j];
                *target = (qv + row[other] - d + pick(rng, c7)) / 2;
            }
        }
    }
    *target = nudge(*target, int(rng.below(5)) - 2);
}

std::vector<std::size_t>
maskedAt(const design::detail::LocalScan &scan, const yield::CollisionModel &m,
         const std::vector<double> &candidates, double step,
         std::size_t threads)
{
    runtime::Options exec;
    exec.num_threads = threads;
    return design::detail::countSurvivors(scan, m, candidates, step, exec);
}

TEST(FreqAllocMask, GridsMatchCandidateGrid)
{
    EXPECT_EQ(accumulatedGrid(0.01, 35), design::detail::candidateGrid(0.01));
    EXPECT_EQ(accumulatedGrid(0.005, 69), design::detail::candidateGrid(0.005));
}

TEST(FreqAllocMask, MatchesScalarOracleOnRandomAndEdgeRows)
{
    // Edges land within an ulp of a candidate's qv in three of four
    // trials; 64, 65 and 69 points cross the mask word boundary.
    const yield::CollisionModel model;
    Rng rng(2024);
    const std::pair<double, std::size_t> grids[] = {
        {0.01, 35}, {0.005, 64}, {0.005, 65}, {0.005, 69}};
    for (const auto &[step, n] : grids) {
        const auto candidates = accumulatedGrid(step, n);
        for (std::size_t trials : {1u, 7u, 301u}) {
            auto scan = everyPositionScan(trials);
            for (std::size_t t = 0; t < trials; ++t)
                fillTrial(scan, t, candidates, model, rng,
                          rng.chance(0.75));
            const auto expected = test::oracleSurvivors(
                scan, model, candidates, step, {});
            for (std::size_t threads : {1u, 2u, 4u})
                EXPECT_EQ(maskedAt(scan, model, candidates, step,
                                   threads),
                          expected)
                    << n << " candidates, " << trials << " trials, "
                    << threads << " threads";
        }
    }
}

TEST(FreqAllocMask, ExactOffTheBoundedPath)
{
    // Values the edge arithmetic does not cover (non-finite, far off
    // band), an irregular grid, and models with empty or overlapping
    // windows are settled by the predicates themselves.
    Rng rng(77);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto grid = accumulatedGrid(0.01, 35);
    auto irregular = grid;
    irregular[17] += 1e-6;

    yield::CollisionModel zero;
    zero.thr1 = zero.thr2 = zero.thr3 = 0.0;
    zero.thr5 = zero.thr6 = zero.thr7 = 0.0;
    yield::CollisionModel wide;
    wide.thr2 = 0.2;
    wide.delta = -0.1;

    auto scan = everyPositionScan(200);
    for (std::size_t t = 0; t < 200; ++t) {
        fillTrial(scan, t, grid, {}, rng, t % 2 == 0);
        const double odd[] = {nan, inf, -inf, 1e6, -3e5};
        if (t % 5 == 0)
            scan.post[t * scan.n_inv + rng.below(scan.n_inv)] =
                pick(rng, odd);
        if (t % 7 == 0)
            scan.q_noise[t] = pick(rng, odd);
    }
    for (const auto &cands : {grid, irregular})
        for (const auto &model : {yield::CollisionModel{}, zero, wide})
            EXPECT_EQ(maskedAt(scan, model, cands, 0.01, 2),
                      test::oracleSurvivors(scan, model, cands, 0.01,
                                            {}));
}

TEST(FreqAlloc, BeatsFiveFrequencySchemeOnDesignedLayout)
{
    // The headline Section 5.4.3 property on one concrete design.
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    DesignFlowOptions flow;
    flow.max_buses = 2;

    flow.freq_scheme = FreqScheme::Optimized;
    auto optimized = designArchitecture(prof, flow, "opt");
    flow.freq_scheme = FreqScheme::FiveFrequency;
    auto five = designArchitecture(prof, flow, "five");

    yield::YieldOptions yo;
    yo.trials = 20000;
    double y_opt = yield::estimateYield(optimized.architecture, yo).yield;
    double y_five = yield::estimateYield(five.architecture, yo).yield;
    EXPECT_GT(y_opt, y_five);
}

TEST(FreqAlloc, RefinementSweepsHelpOrAreNeutral)
{
    auto prof = profile::profileCircuit(benchmarks::uccsdAnsatz(8));
    LayoutResult lay = designLayout(prof);
    Architecture arch(lay.layout);

    FreqAllocOptions plain;
    plain.refine_sweeps = 0;
    plain.local_trials = 2000;
    FreqAllocOptions refined = plain;
    refined.refine_sweeps = 2;

    Architecture a = arch, b = arch;
    a.setAllFrequencies(allocateFrequencies(arch, plain).freqs);
    b.setAllFrequencies(allocateFrequencies(arch, refined).freqs);

    yield::YieldOptions yo;
    yo.trials = 20000;
    double y_plain = yield::estimateYield(a, yo).yield;
    double y_refined = yield::estimateYield(b, yo).yield;
    // Refinement should not lose more than noise allows.
    EXPECT_GE(y_refined, 0.7 * y_plain);
}

// --------------------------------------------------------------------
// End-to-end flow
// --------------------------------------------------------------------

TEST(DesignFlow, ProducesCompleteArchitecture)
{
    auto prof = profile::profileCircuit(benchmarks::qft(8));
    DesignFlowOptions opts;
    opts.max_buses = 2;
    opts.freq_options.local_trials = 300;
    auto outcome = designArchitecture(prof, opts, "flow-test");
    EXPECT_EQ(outcome.architecture.name(), "flow-test");
    EXPECT_EQ(outcome.architecture.numQubits(), 8u);
    EXPECT_TRUE(outcome.architecture.frequenciesAssigned());
    EXPECT_TRUE(outcome.architecture.isConnectedGraph());
    EXPECT_LE(outcome.architecture.fourQubitBuses().size(), 2u);
}

TEST(DesignFlow, BusSchemesBehave)
{
    auto prof = profile::profileCircuit(benchmarks::qft(9));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;

    opts.bus_scheme = BusScheme::None;
    auto none = designArchitecture(prof, opts, "none");
    EXPECT_TRUE(none.architecture.fourQubitBuses().empty());

    opts.bus_scheme = BusScheme::Max;
    auto max = designArchitecture(prof, opts, "max");
    EXPECT_GT(max.architecture.fourQubitBuses().size(), 0u);
    EXPECT_GT(max.architecture.numEdges(), none.architecture.numEdges());

    opts.bus_scheme = BusScheme::Weighted;
    opts.max_buses = 1;
    auto one = designArchitecture(prof, opts, "one");
    EXPECT_LE(one.architecture.fourQubitBuses().size(), 1u);
}

TEST(DesignFlow, IsingNeedsNoBuses)
{
    // Section 5.3.1: chain programs derive no benefit from 4-qubit
    // buses, so the weighted selector must pick none.
    auto prof = profile::profileCircuit(benchmarks::isingModel(16, 5));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;
    opts.max_buses = 100;
    auto outcome = designArchitecture(prof, opts, "ising");
    EXPECT_TRUE(outcome.architecture.fourQubitBuses().empty());
}

TEST(DesignFlow, MoreBusesMoreEdges)
{
    auto prof = profile::profileCircuit(benchmarks::qft(12));
    DesignFlowOptions opts;
    opts.freq_scheme = FreqScheme::FiveFrequency;
    std::size_t prev_edges = 0;
    for (std::size_t k : {0u, 1u, 2u, 3u}) {
        opts.max_buses = k;
        auto outcome = designArchitecture(prof, opts, "sweep");
        if (k > 0) {
            EXPECT_GE(outcome.architecture.numEdges(), prev_edges);
        }
        prev_edges = outcome.architecture.numEdges();
    }
}

} // namespace
