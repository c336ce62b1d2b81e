#include "circuit/circuit.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/units.h"
#include "linalg/fidelity.h"

namespace qzz::ckt {
namespace {

TEST(CircuitTest, BuilderAddsGates)
{
    QuantumCircuit c(3, "demo");
    c.h(0);
    c.cx(0, 1);
    c.rz(2, 0.5);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.twoQubitCount(), 1);
    EXPECT_EQ(c.name(), "demo");
}

TEST(CircuitTest, ValidatesOperands)
{
    QuantumCircuit c(2);
    EXPECT_THROW(c.h(5), UserError);
    EXPECT_THROW(c.cx(0, 0), UserError);
    EXPECT_THROW(c.add(Gate(GateKind::CX, {0})), UserError);
}

TEST(CircuitTest, OperandErrorsNameTheGate)
{
    QuantumCircuit c(2);
    auto message = [&](const Gate &g) -> std::string {
        try {
            c.add(g);
        } catch (const UserError &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_EQ(message({GateKind::H, {5}}),
              "QuantumCircuit::add: qubit out of range in H[5]");
    EXPECT_EQ(message({GateKind::CP, {1, 1}, {0.5}}),
              "QuantumCircuit::add: duplicate operand in CP(0.5)[1,1]");
    EXPECT_EQ(message({GateKind::CX, {0}}),
              "QuantumCircuit::add: wrong operand count for CX");
    EXPECT_TRUE(c.empty());
}

TEST(CircuitTest, NativePredicate)
{
    QuantumCircuit c(2);
    c.sx(0);
    c.rz(0, 1.0);
    c.rzx(0, 1, kPi / 2.0);
    EXPECT_TRUE(c.isNative());
    c.h(1);
    EXPECT_FALSE(c.isNative());
}

TEST(CircuitTest, UnitaryComposesInOrder)
{
    QuantumCircuit c(1);
    c.h(0);
    c.z(0);
    c.h(0);
    // HZH = X.
    la::CMatrix x = gateMatrix({GateKind::X, {0}});
    EXPECT_LT(la::phaseDistance(c.unitary(), x), 1e-12);
}

TEST(CircuitTest, BellCircuitUnitary)
{
    QuantumCircuit c(2);
    c.h(0);
    c.cx(0, 1);
    la::CMatrix u = c.unitary();
    // |00> -> (|00> + |11>)/sqrt(2).
    EXPECT_NEAR(std::abs(u(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(u(3, 0)), 1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(u(1, 0)), 0.0, 1e-12);
}

TEST(CircuitTest, UnitaryIsUnitary)
{
    QuantumCircuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cp(1, 2, 0.7);
    c.swap(0, 2);
    EXPECT_TRUE(c.unitary().isUnitary(1e-11));
}

} // namespace
} // namespace qzz::ckt
