/**
 * @file
 * Allocation audit for the gate path.  Gate operands live inline and
 * QuantumCircuit::add builds its error messages only on failure, so
 * copying a gate and appending to a reserved circuit must not touch
 * the heap (counted with common/counting_new.h).
 */

#include <gtest/gtest.h>

#include <vector>

#include "circuit/circuit.h"
#include "common/counting_new.h"

namespace qzz::ckt {
namespace {

using test::AllocCounter;

TEST(GateAllocTest, CopyingAGateDoesNotAllocate)
{
    const std::vector<Gate> src = {
        {GateKind::U3, {0}, {0.1, 0.2, 0.3}},
        {GateKind::CP, {0, 1}, {0.5}},
        {GateKind::CX, {1, 0}},
    };
    std::vector<Gate> copies;
    copies.reserve(30);
    Gate assigned;

    const AllocCounter counter;
    for (size_t i = 0; i < 30; ++i)
        copies.push_back(src[i % src.size()]);
    assigned = src[0];
    EXPECT_EQ(counter.count(), 0u);

    EXPECT_EQ(assigned.params, src[0].params);
    EXPECT_EQ(copies[29].qubits, src[2].qubits);
}

TEST(GateAllocTest, AppendingToAReservedCircuitDoesNotAllocate)
{
    constexpr int kRounds = 200;
    QuantumCircuit c(5, "audit");
    c.reserve(size_t(kRounds) * 6);

    const AllocCounter counter;
    for (int i = 0; i < kRounds; ++i) {
        const int a = i % 5, b = (i + 2) % 5;
        c.h(a);
        c.rz(b, 0.25 * i);
        c.u3(a, 0.1, 0.2, 0.3);
        c.cx(a, b);
        c.cp(b, a, 0.5);
        c.add({GateKind::RZX, {a, b}, {1.5707963267948966}});
    }
    EXPECT_EQ(counter.count(), 0u);
    EXPECT_EQ(c.size(), size_t(kRounds) * 6);
}

} // namespace
} // namespace qzz::ckt
