#include "circuit/router.h"

#include <gtest/gtest.h>

#include "circuit/decompose.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "graph/topologies.h"
#include "linalg/fidelity.h"
#include "sim/ideal_sim.h"

namespace qzz::ckt {
namespace {

TEST(RouterTest, AdjacentGatesPassThrough)
{
    auto topo = graph::lineTopology(3);
    QuantumCircuit c(3);
    c.cx(0, 1);
    c.cx(1, 2);
    RoutedCircuit r = routeCircuit(c, topo.g);
    EXPECT_EQ(r.swaps_inserted, 0);
    EXPECT_TRUE(respectsConnectivity(r.circuit, topo.g));
}

TEST(RouterTest, DistantGateGetsSwaps)
{
    auto topo = graph::lineTopology(4);
    QuantumCircuit c(4);
    c.cx(0, 3);
    RoutedCircuit r = routeCircuit(c, topo.g);
    EXPECT_EQ(r.swaps_inserted, 2);
    EXPECT_TRUE(respectsConnectivity(r.circuit, topo.g));
}

TEST(RouterTest, LayoutTracksMovedQubits)
{
    auto topo = graph::lineTopology(4);
    QuantumCircuit c(4);
    c.cx(0, 3);
    RoutedCircuit r = routeCircuit(c, topo.g);
    // Logical 0 walked toward 3.
    EXPECT_EQ(r.final_layout[0], 2);
}

TEST(RouterTest, SemanticsPreservedUpToFinalLayout)
{
    // Simulate routed vs original; undo the final permutation with
    // ideal SWAPs and compare states.
    Rng rng(17);
    auto topo = graph::gridTopology(2, 3);
    QuantumCircuit c(6);
    c.h(0);
    c.cx(0, 4);
    c.cx(1, 5);
    c.cp(2, 3, 0.9);
    c.cx(4, 2);

    RoutedCircuit r = routeCircuit(c, topo.g);
    ASSERT_TRUE(respectsConnectivity(r.circuit, topo.g));

    sim::StateVector routed = sim::runIdealCircuit(r.circuit);
    // Undo layout: move logical qubit l from final_layout[l] to l.
    QuantumCircuit undo(6);
    std::vector<int> where = r.final_layout;
    for (int l = 0; l < 6; ++l) {
        if (where[l] == l)
            continue;
        // Find which logical sits at l and swap.
        int other = -1;
        for (int k = 0; k < 6; ++k)
            if (where[k] == l)
                other = k;
        undo.swap(where[l], l);
        std::swap(where[l], where[other]);
    }
    for (const Gate &g : undo.gates())
        sim::applyGateIdeal(g, routed);

    sim::StateVector original = sim::runIdealCircuit(c);
    EXPECT_NEAR(routed.fidelity(original), 1.0, 1e-9);
}

TEST(RouterTest, RandomCircuitsRouteLegally)
{
    Rng rng(23);
    auto topo = graph::gridTopology(3, 3);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit c(9);
        for (int g = 0; g < 15; ++g) {
            int a = rng.uniformInt(0, 8), b = rng.uniformInt(0, 8);
            if (a == b)
                continue;
            c.cx(a, b);
        }
        RoutedCircuit r = routeCircuit(c, topo.g);
        EXPECT_TRUE(respectsConnectivity(r.circuit, topo.g));
        // Lowering keeps connectivity: SWAP/CX map onto the same pair.
        QuantumCircuit native = decomposeToNative(r.circuit);
        EXPECT_TRUE(respectsConnectivity(native, topo.g));
    }
}

TEST(RouterTest, CircuitLargerThanDeviceRejected)
{
    auto topo = graph::lineTopology(2);
    QuantumCircuit c(3);
    c.h(0);
    EXPECT_THROW(routeCircuit(c, topo.g), UserError);
}

TEST(RouterTest, InitialLayoutRespected)
{
    auto topo = graph::lineTopology(3);
    QuantumCircuit c(2);
    c.cx(0, 1);
    RoutedCircuit r = routeCircuit(c, topo.g, {2, 1});
    ASSERT_TRUE(respectsConnectivity(r.circuit, topo.g));
    EXPECT_EQ(r.swaps_inserted, 0);
    // The emitted gate acts on physical {2, 1}.
    for (const Gate &g : r.circuit.gates())
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.qubits, (Gate::Qubits{2, 1}));
        }
}

} // namespace
} // namespace qzz::ckt
