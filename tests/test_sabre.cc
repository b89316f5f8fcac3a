/**
 * @file
 * Tests for the SABRE mapper: coupling legality, gate-count
 * accounting, classical (permutation-level) semantic equivalence,
 * and behaviour on the paper's special cases.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "arch/ibm.hh"
#include "benchmarks/generators.hh"
#include "benchmarks/suite.hh"
#include "circuit/qasm.hh"
#include "common/rng.hh"
#include "design/design_flow.hh"
#include "exec/context.hh"
#include "mapping/sabre.hh"
#include "profile/coupling.hh"
#include "revsynth/mct.hh"

namespace
{

using namespace qpad;
using arch::Architecture;
using arch::Layout;
using circuit::Circuit;
using mapping::mapCircuit;
using mapping::MappingOptions;

TEST(Sabre, AdjacentGatesNeedNoSwaps)
{
    // A chain circuit on a path architecture with a perfect initial
    // mapping available: routing must find a zero-swap solution.
    Architecture path(Layout::grid(1, 4), "path4");
    Circuit c(4);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    auto r = mapCircuit(c, path);
    EXPECT_EQ(r.swaps, 0u);
    EXPECT_EQ(r.total_gates, 3u);
}

TEST(Sabre, DistantGateForcesSwaps)
{
    Architecture path(Layout::grid(1, 5), "path5");
    Circuit c(5);
    // Force interactions that no linear order satisfies: a 5-clique.
    for (circuit::Qubit i = 0; i < 5; ++i)
        for (circuit::Qubit j = i + 1; j < 5; ++j)
            c.cx(i, j);
    auto r = mapCircuit(c, path);
    EXPECT_GT(r.swaps, 0u);
    EXPECT_EQ(r.total_gates, 10u + 3 * r.swaps);
    EXPECT_TRUE(mapping::respectsCoupling(r.mapped, path));
}

TEST(Sabre, GateCountAccounting)
{
    auto circ = benchmarks::qft(8);
    auto arch = arch::ibm16Q(false);
    auto r = mapCircuit(circ, arch);
    EXPECT_EQ(r.total_gates,
              circ.unitaryGateCount() + 3 * r.swaps);
    EXPECT_EQ(r.two_qubit_gates,
              circ.twoQubitGateCount() + 3 * r.swaps);
}

TEST(Sabre, MeasurementsFollowFinalMapping)
{
    Circuit c(3, 3);
    c.cx(0, 2);
    c.measure(0, 0);
    c.measure(1, 1);
    c.measure(2, 2);
    Architecture path(Layout::grid(1, 3), "path3");
    auto r = mapCircuit(c, path);
    std::size_t measures = 0;
    for (const auto &g : r.mapped.gates()) {
        if (g.kind == circuit::GateKind::Measure) {
            EXPECT_EQ(g.qubits[0], r.final_mapping[g.clbit]);
            ++measures;
        }
    }
    EXPECT_EQ(measures, 3u);
}

TEST(Sabre, DeterministicForEqualSeeds)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(true);
    auto a = mapCircuit(circ, arch);
    auto b = mapCircuit(circ, arch);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.initial_mapping, b.initial_mapping);
}

TEST(Sabre, SeedsProduceLegalAlternatives)
{
    auto circ = benchmarks::qft(10);
    auto arch = arch::ibm16Q(false);
    MappingOptions opts;
    opts.seed = 1;
    auto a = mapCircuit(circ, arch, opts);
    opts.seed = 2;
    auto b = mapCircuit(circ, arch, opts);
    // Different seeds explore different random starts; both must be
    // legal (they may or may not coincide after refinement).
    EXPECT_TRUE(mapping::respectsCoupling(a.mapped, arch));
    EXPECT_TRUE(mapping::respectsCoupling(b.mapped, arch));
}

TEST(Sabre, RejectsTooSmallChip)
{
    auto circ = benchmarks::qft(8);
    Architecture tiny(Layout::grid(2, 2), "tiny");
    EXPECT_THROW(mapCircuit(circ, tiny), std::logic_error);
}

TEST(Sabre, RejectsCompositeGates)
{
    Circuit c(3);
    c.swap(0, 1);
    Architecture path(Layout::grid(1, 3), "path3");
    EXPECT_THROW(mapCircuit(c, path), std::logic_error);
}

TEST(Sabre, RejectsDisconnectedArchitecture)
{
    Layout l;
    l.addQubit({0, 0});
    l.addQubit({0, 2});
    Architecture arch(l, "split");
    Circuit c(2);
    c.cx(0, 1);
    EXPECT_THROW(mapCircuit(c, arch), std::logic_error);
}

/**
 * Classical equivalence: for X/CX-only circuits the mapped circuit
 * must implement the same permutation of basis states, up to the
 * initial and final logical-to-physical relabelings.
 */
void
checkClassicalEquivalence(const Circuit &logical,
                          const Architecture &arch, uint64_t seed)
{
    auto r = mapCircuit(logical, arch);
    ASSERT_TRUE(mapping::respectsCoupling(r.mapped, arch));

    qpad::Rng rng(seed);
    for (int round = 0; round < 32; ++round) {
        uint64_t in = rng.next() &
                      ((uint64_t{1} << logical.numQubits()) - 1);
        uint64_t logical_out =
            revsynth::simulateClassical(logical, in);

        uint64_t phys_in = 0;
        for (std::size_t l = 0; l < logical.numQubits(); ++l)
            if (in >> l & 1)
                phys_in |= uint64_t{1} << r.initial_mapping[l];
        uint64_t phys_out =
            revsynth::simulateClassical(r.mapped, phys_in);

        for (std::size_t l = 0; l < logical.numQubits(); ++l)
            ASSERT_EQ((phys_out >> r.final_mapping[l]) & 1,
                      (logical_out >> l) & 1)
                << "round " << round << " logical qubit " << l;
    }
}

TEST(Sabre, ClassicalEquivalenceOnRandomCxCircuits)
{
    qpad::Rng rng(99);
    auto arch = arch::ibm16Q(true);
    for (int round = 0; round < 5; ++round) {
        Circuit c(12, 12, "random_cx");
        for (int g = 0; g < 150; ++g) {
            auto a = circuit::Qubit(rng.below(12));
            auto b = circuit::Qubit(rng.below(12));
            if (a == b)
                continue;
            if (rng.chance(0.2))
                c.x(a);
            c.cx(a, b);
        }
        checkClassicalEquivalence(c, arch, 1000 + round);
    }
}

TEST(Sabre, ClassicalEquivalenceOnCxFanout)
{
    // A pure X/CX fan-out circuit (classically simulable) routed on
    // a small grid.
    Circuit c(10, 10, "fanout");
    c.x(0);
    for (circuit::Qubit q = 0; q + 1 < 10; ++q)
        c.cx(q, q + 1);
    for (circuit::Qubit q = 0; q < 5; ++q)
        c.cx(q, 9 - q);
    Architecture arch(Layout::grid(2, 5), "grid2x5");
    checkClassicalEquivalence(c, arch, 7);
}

TEST(Sabre, MappedCircuitsOfAllBenchmarksAreLegal)
{
    auto arch = arch::ibm20Q(true);
    for (const auto &info : benchmarks::paperSuite()) {
        auto circ = info.generate();
        auto r = mapCircuit(circ, arch);
        EXPECT_TRUE(mapping::respectsCoupling(r.mapped, arch))
            << info.name;
        EXPECT_GE(r.total_gates, circ.unitaryGateCount()) << info.name;
    }
}

TEST(Sabre, DenserConnectivityNeedsFewerSwapsOnAverage)
{
    // Compare total swaps across the suite: the 20q chip with six
    // 4-qubit buses should not lose to the bare 20q chip in
    // aggregate (the headline hardware-design premise).
    auto plain = arch::ibm20Q(false);
    auto bused = arch::ibm20Q(true);
    std::size_t swaps_plain = 0, swaps_bused = 0;
    for (const char *name : {"qft_16", "misex1_241", "rd84_142"}) {
        auto circ = benchmarks::getBenchmark(name).generate();
        swaps_plain += mapCircuit(circ, plain).swaps;
        swaps_bused += mapCircuit(circ, bused).swaps;
    }
    EXPECT_LT(swaps_bused, swaps_plain);
}

TEST(Sabre, PerfectChainMappingForIsing)
{
    // Section 5.3.1: the chain program on its own designed layout
    // admits a perfect initial mapping with zero swaps.
    auto circ = benchmarks::isingModel(16, 3);
    auto prof = profile::profileCircuit(circ);
    design::DesignFlowOptions opts;
    opts.freq_scheme = design::FreqScheme::FiveFrequency;
    auto outcome = design::designArchitecture(prof, opts, "ising-chain");
    auto r = mapCircuit(circ, outcome.architecture);
    EXPECT_EQ(r.swaps, 0u);
}

/**
 * The mapper contract: swap and gate counts and the chosen initial
 * mapping for every paper program on every IBM baseline chip. The
 * values were captured before the router's inner loop was rewritten
 * and must never move with a refactor; only a deliberate change of
 * the heuristic may update them.
 */
TEST(Sabre, GoldenCountsOnPaperSuite)
{
    struct Golden
    {
        const char *program;
        const char *chip;
        std::size_t swaps;
        std::size_t total_gates;
        std::size_t two_qubit_gates;
        std::vector<arch::PhysQubit> initial_mapping;
    };
    const std::vector<Golden> goldens = {
        {"qft_16", "ibm-16q-2qbus", 72, 832, 456,
         {1, 9, 2, 0, 8, 10, 3, 11, 4, 12, 5, 6, 14, 13, 15, 7}},
        {"qft_16", "ibm-16q-4qbus", 89, 883, 507,
         {10, 2, 9, 1, 3, 4, 0, 8, 13, 12, 5, 14, 6, 15, 7, 11}},
        {"qft_16", "ibm-20q-2qbus", 87, 877, 501,
         {13, 12, 8, 14, 11, 17, 16, 10, 18, 6, 7, 2, 1, 9, 3, 4}},
        {"qft_16", "ibm-20q-4qbus", 65, 811, 435,
         {7, 12, 6, 11, 16, 15, 10, 13, 17, 18, 2, 3, 8, 1, 4, 5}},
        {"ising_model_16", "ibm-16q-2qbus", 0, 626, 300,
         {12, 13, 14, 15, 7, 6, 5, 4, 3, 11, 10, 9, 8, 0, 1, 2}},
        {"ising_model_16", "ibm-16q-4qbus", 27, 707, 381,
         {7, 15, 6, 5, 4, 3, 2, 11, 12, 13, 14, 1, 10, 9, 8, 0}},
        {"ising_model_16", "ibm-20q-2qbus", 0, 626, 300,
         {7, 12, 17, 18, 13, 14, 9, 8, 3, 2, 1, 6, 5, 10, 15, 16}},
        {"ising_model_16", "ibm-20q-4qbus", 9, 653, 327,
         {15, 10, 16, 17, 18, 19, 14, 8, 2, 1, 3, 4, 9, 13, 12, 6}},
        {"UCCSD_ansatz_8", "ibm-16q-2qbus", 15, 735, 409,
         {5, 4, 3, 2, 10, 11, 12, 13}},
        {"UCCSD_ansatz_8", "ibm-16q-4qbus", 30, 780, 454,
         {0, 1, 2, 3, 4, 5, 6, 7}},
        {"UCCSD_ansatz_8", "ibm-20q-2qbus", 25, 765, 439,
         {0, 1, 2, 3, 4, 5, 6, 7}},
        {"UCCSD_ansatz_8", "ibm-20q-4qbus", 11, 723, 397,
         {11, 6, 12, 17, 18, 19, 14, 8}},
        {"sym6_145", "ibm-16q-2qbus", 707, 5586, 3507,
         {12, 5, 3, 2, 11, 13, 4}},
        {"sym6_145", "ibm-16q-4qbus", 560, 5145, 3066,
         {12, 5, 3, 11, 10, 6, 4}},
        {"sym6_145", "ibm-20q-2qbus", 729, 5652, 3573,
         {0, 1, 2, 3, 4, 5, 6}},
        {"sym6_145", "ibm-20q-4qbus", 292, 4341, 2262,
         {12, 8, 17, 7, 18, 14, 13}},
        {"dc1_220", "ibm-16q-2qbus", 305, 2330, 1483,
         {6, 2, 4, 14, 13, 11, 10, 3, 5, 1, 12}},
        {"dc1_220", "ibm-16q-4qbus", 228, 2099, 1252,
         {14, 12, 3, 6, 13, 4, 11, 10, 5, 7, 2}},
        {"dc1_220", "ibm-20q-2qbus", 294, 2297, 1450,
         {12, 3, 1, 11, 7, 13, 8, 2, 6, 17, 18}},
        {"dc1_220", "ibm-20q-4qbus", 109, 1742, 895,
         {13, 1, 7, 17, 12, 8, 16, 2, 6, 11, 9}},
        {"z4_268", "ibm-16q-2qbus", 469, 3844, 2386,
         {14, 12, 7, 3, 5, 13, 2, 6, 4, 11, 10}},
        {"z4_268", "ibm-16q-4qbus", 360, 3517, 2059,
         {11, 13, 10, 12, 1, 3, 6, 2, 4, 14, 5}},
        {"z4_268", "ibm-20q-2qbus", 498, 3931, 2473,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
        {"z4_268", "ibm-20q-4qbus", 295, 3322, 1864,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
        {"cm152a_212", "ibm-16q-2qbus", 407, 2992, 1930,
         {12, 6, 14, 5, 3, 13, 11, 2, 7, 1, 10, 4}},
        {"cm152a_212", "ibm-16q-4qbus", 239, 2488, 1426,
         {12, 3, 4, 2, 10, 6, 7, 13, 14, 5, 1, 11}},
        {"cm152a_212", "ibm-20q-2qbus", 364, 2863, 1801,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
        {"cm152a_212", "ibm-20q-4qbus", 213, 2410, 1348,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
        {"adr4_197", "ibm-16q-2qbus", 520, 4388, 2696,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
        {"adr4_197", "ibm-16q-4qbus", 382, 3974, 2282,
         {6, 12, 1, 3, 13, 2, 10, 5, 14, 11, 9, 4, 15}},
        {"adr4_197", "ibm-20q-2qbus", 531, 4421, 2729,
         {2, 13, 5, 9, 1, 17, 11, 3, 7, 12, 6, 8, 4}},
        {"adr4_197", "ibm-20q-4qbus", 334, 3830, 2138,
         {11, 6, 2, 14, 7, 17, 1, 19, 12, 18, 8, 13, 9}},
        {"radd_250", "ibm-16q-2qbus", 55, 369, 261,
         {10, 3, 11, 4, 12, 2, 13, 5, 14, 6, 7, 0, 1}},
        {"radd_250", "ibm-16q-4qbus", 26, 282, 174,
         {2, 10, 11, 4, 12, 14, 13, 7, 6, 3, 5, 0, 1}},
        {"radd_250", "ibm-20q-2qbus", 28, 288, 180,
         {6, 10, 11, 13, 12, 8, 18, 4, 9, 3, 7, 2, 1}},
        {"radd_250", "ibm-20q-4qbus", 9, 231, 123,
         {6, 11, 12, 17, 18, 8, 13, 14, 3, 2, 7, 1, 9}},
        {"rd84_142", "ibm-16q-2qbus", 1664, 14180, 8672,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"rd84_142", "ibm-16q-4qbus", 1340, 13208, 7700,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"rd84_142", "ibm-20q-2qbus", 1500, 13688, 8180,
         {11, 7, 1, 0, 10, 2, 13, 17, 6, 12, 16, 14, 3, 9, 19}},
        {"rd84_142", "ibm-20q-4qbus", 1132, 12584, 7076,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"misex1_241", "ibm-16q-2qbus", 3154, 23384, 15032,
         {1, 2, 3, 13, 10, 5, 0, 14, 9, 4, 12, 15, 11, 7, 6}},
        {"misex1_241", "ibm-16q-4qbus", 2180, 20462, 12110,
         {6, 5, 11, 9, 13, 2, 7, 1, 14, 12, 10, 0, 3, 15, 4}},
        {"misex1_241", "ibm-20q-2qbus", 2950, 22772, 14420,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"misex1_241", "ibm-20q-4qbus", 1684, 18974, 10622,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"square_root_7", "ibm-16q-2qbus", 2609, 19958, 12686,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"square_root_7", "ibm-16q-4qbus", 2018, 18185, 10913,
         {14, 5, 6, 2, 12, 4, 1, 3, 13, 10, 11, 9, 0, 8, 7}},
        {"square_root_7", "ibm-20q-2qbus", 2520, 19691, 12419,
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
        {"square_root_7", "ibm-20q-4qbus", 1435, 16436, 9164,
         {2, 5, 4, 6, 13, 3, 12, 8, 1, 7, 9, 18, 11, 15, 17}},
    };

    const auto chips = arch::ibmBaselines();
    std::size_t checked = 0;
    for (const auto &info : benchmarks::paperSuite()) {
        const Circuit circ = info.generate();
        for (const auto &chip : chips) {
            const Golden &g = goldens.at(checked++);
            ASSERT_EQ(info.name, g.program);
            ASSERT_EQ(chip.name(), g.chip);
            auto r = mapCircuit(circ, chip);
            EXPECT_EQ(r.swaps, g.swaps) << g.program << " on " << g.chip;
            EXPECT_EQ(r.total_gates, g.total_gates)
                << g.program << " on " << g.chip;
            EXPECT_EQ(r.two_qubit_gates, g.two_qubit_gates)
                << g.program << " on " << g.chip;
            EXPECT_EQ(r.initial_mapping, g.initial_mapping)
                << g.program << " on " << g.chip;
        }
    }
    EXPECT_EQ(checked, goldens.size());
}

/** FNV-1a over a string: a stable digest for pinned output bytes. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A circuit with every non-unitary the router must carry: a reset, a
 * mid-circuit measure (moved to the end at the final mapping), and a
 * global barrier, on a chip with two spare qubits.
 */
Circuit
mixedNonUnitaryCircuit()
{
    Circuit c(5, 6, "mixed");
    c.h(0);
    c.cx(0, 3);
    c.measure(1, 5);
    c.cx(1, 4);
    c.add(circuit::Gate(circuit::GateKind::Reset, {2}));
    c.cx(2, 4);
    c.barrier();
    c.x(0);
    c.h(2);
    c.cx(2, 0);
    c.cx(4, 0);
    c.x(3);
    c.rz(0.25, 1);
    c.cx(3, 1);
    for (circuit::Qubit q = 0; q < 5; ++q)
        c.measure(q, q);
    return c;
}

/**
 * The mapped circuit itself, byte for byte (as OpenQASM): gate order,
 * operand order, SWAP lowering and measurement placement.
 */
TEST(Sabre, MappedCircuitBytesArePinned)
{
    Architecture grid(Layout::grid(2, 3), "grid2x3");
    auto mixed = mapCircuit(mixedNonUnitaryCircuit(), grid);
    EXPECT_EQ(mixed.swaps, 1u);
    EXPECT_EQ(fnv1a(circuit::toQasm(mixed.mapped)),
              0xc5e584781835b59dull);

    auto qft = mapCircuit(benchmarks::qft(8), arch::ibm16Q(false));
    EXPECT_EQ(qft.swaps, 14u);
    EXPECT_EQ(fnv1a(circuit::toQasm(qft.mapped)), 0x26c7887b6390a487ull);

    auto sym = mapCircuit(benchmarks::getBenchmark("sym6_145").generate(),
                          arch::ibm20Q(true));
    EXPECT_EQ(sym.swaps, 292u);
    EXPECT_EQ(fnv1a(circuit::toQasm(sym.mapped)), 0xc16098d5a8f296e8ull);
}

TEST(Sabre, BarrierBeforeTwoQubitGateRoutes)
{
    // A CX directly after a barrier on both of its qubits, next to
    // other gates that follow the barrier: every gate must be routed
    // exactly once and the result must respect the coupling graph.
    Circuit c(4, 0, "barrier_cx");
    c.cx(0, 1);
    c.barrier();
    c.cx(0, 3);
    c.h(1);
    c.cx(2, 1);
    Architecture path(Layout::grid(1, 4), "path4");
    auto r = mapCircuit(c, path);
    EXPECT_TRUE(mapping::respectsCoupling(r.mapped, path));
    EXPECT_EQ(r.total_gates, 4u + 3 * r.swaps);
    EXPECT_EQ(r.mapped.size(), 5u + 3 * r.swaps);
}

TEST(Sabre, CancelledContextThrows)
{
    exec::Context ctx;
    ctx.cancel();
    EXPECT_THROW(mapCircuit(benchmarks::qft(8), arch::ibm16Q(false), {},
                            ctx),
                 exec::CancelledError);
}

TEST(Sabre, GenerousDeadlineLeavesResultBitIdentical)
{
    // A context decides whether a mapping exists, never its bytes.
    auto circ = benchmarks::getBenchmark("sym6_145").generate();
    auto chip = arch::ibm16Q(true);
    exec::Context ctx;
    ctx.setDeadlineAfter(std::chrono::minutes(10));
    auto plain = mapCircuit(circ, chip, {}, exec::Context::none());
    auto timed = mapCircuit(circ, chip, {}, ctx);
    EXPECT_EQ(plain.mapped, timed.mapped);
    EXPECT_EQ(plain.initial_mapping, timed.initial_mapping);
    EXPECT_EQ(plain.final_mapping, timed.final_mapping);
    EXPECT_EQ(plain.swaps, timed.swaps);
    EXPECT_EQ(plain.total_gates, timed.total_gates);
    EXPECT_EQ(plain.two_qubit_gates, timed.two_qubit_gates);
}

} // namespace
