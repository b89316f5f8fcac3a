/**
 * @file
 * Tests for the gate dependency DAG.
 */

#include <gtest/gtest.h>

#include "circuit/dag.hh"

namespace
{

using namespace qpad::circuit;

TEST(Dag, IndependentGatesAreAllRoots)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.h(2);
    DependencyDag dag(c);
    EXPECT_EQ(dag.roots().size(), 3u);
    EXPECT_EQ(dag.asapDepth(), 1u);
}

TEST(Dag, SerialChainHasOneRoot)
{
    Circuit c(1);
    c.h(0);
    c.t(0);
    c.h(0);
    DependencyDag dag(c);
    EXPECT_EQ(dag.roots().size(), 1u);
    EXPECT_EQ(dag.asapDepth(), 3u);
    EXPECT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(dag.successors(0)[0], 1u);
}

TEST(Dag, TwoQubitGateJoinsChains)
{
    Circuit c(2);
    c.h(0);    // 0
    c.h(1);    // 1
    c.cx(0, 1); // 2 depends on 0 and 1
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(2), 2u);
    EXPECT_EQ(dag.asapDepth(), 2u);
}

TEST(Dag, BackToBackCxSamePairSingleEdge)
{
    Circuit c(2);
    c.cx(0, 1); // 0
    c.cx(0, 1); // 1 shares both qubits with 0
    DependencyDag dag(c);
    // The duplicate edge must be coalesced.
    EXPECT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(dag.indegree(1), 1u);
    EXPECT_EQ(dag.asapDepth(), 2u);
}

TEST(Dag, BarrierSynchronizesEverything)
{
    Circuit c(3);
    c.h(0);     // 0
    c.barrier(); // 1
    c.h(1);     // 2: must depend on the barrier
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(2), 1u);
    EXPECT_EQ(dag.successors(1).size(), 1u);
    EXPECT_EQ(dag.asapDepth(), 3u);
}

TEST(Dag, BarrierFanOutWithSharedSuccessorCountsEachEdgeOnce)
{
    Circuit c(4);
    c.cx(0, 1);  // 0
    c.barrier(); // 1
    c.cx(0, 3);  // 2: follows the barrier on both of its qubits
    c.h(1);      // 3
    c.cx(2, 1);  // 4: follows the barrier on q2 and gate 3 on q1
    DependencyDag dag(c);
    auto succs = dag.successors(1);
    EXPECT_EQ(std::vector<uint32_t>(succs.begin(), succs.end()),
              (std::vector<uint32_t>{2, 3, 4}));
    EXPECT_EQ(dag.indegree(2), 1u);
    EXPECT_EQ(dag.indegree(3), 1u);
    EXPECT_EQ(dag.indegree(4), 2u);
    EXPECT_EQ(dag.asapDepth(), 4u);
}

TEST(Dag, GateOrderSelectsAndReorders)
{
    Circuit c(2, 1);
    c.h(0);          // 0
    c.cx(0, 1);      // 1
    c.measure(0, 0); // 2
    c.x(1);          // 3
    // Gates 3, 1, 0 in that order: ids 0 (x), 1 (cx), 2 (h).
    DependencyDag dag(c, {3, 1, 0});
    EXPECT_EQ(dag.numGates(), 3u);
    EXPECT_EQ(dag.roots(), (std::vector<uint32_t>{0}));
    EXPECT_EQ(dag.indegree(1), 1u);
    EXPECT_EQ(dag.indegree(2), 1u);
    EXPECT_EQ(dag.asapDepth(), 3u);
}

TEST(Dag, MeasureParticipatesInDependencies)
{
    Circuit c(1, 1);
    c.h(0);
    c.measure(0, 0);
    DependencyDag dag(c);
    EXPECT_EQ(dag.indegree(1), 1u);
}

TEST(Dag, RootsMatchIndegreeZero)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cx(2, 3);
    c.cx(1, 2);
    DependencyDag dag(c);
    auto roots = dag.roots();
    ASSERT_EQ(roots.size(), 2u);
    EXPECT_EQ(roots[0], 0u);
    EXPECT_EQ(roots[1], 1u);
    EXPECT_EQ(dag.indegree(2), 2u);
}

TEST(Dag, AsapDepthMatchesCircuitDepthForUnitaries)
{
    Circuit c(5);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(3);
    c.cx(3, 4);
    c.cx(2, 3);
    DependencyDag dag(c);
    EXPECT_EQ(dag.asapDepth(), c.depth());
}

TEST(Dag, EmptyCircuit)
{
    Circuit c(3);
    DependencyDag dag(c);
    EXPECT_EQ(dag.numGates(), 0u);
    EXPECT_TRUE(dag.roots().empty());
    EXPECT_EQ(dag.asapDepth(), 0u);
}

} // namespace
