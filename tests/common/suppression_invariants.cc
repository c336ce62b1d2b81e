#include "common/suppression_invariants.h"

#include <gtest/gtest.h>

namespace qzz::testsup {

void
expectValidSchedule(const core::Schedule &schedule,
                    const ckt::QuantumCircuit &native,
                    const dev::Device &device,
                    const std::string &context)
{
    const int n = schedule.num_qubits;
    ASSERT_EQ(n, native.numQubits()) << context;

    int total = 0;
    for (size_t li = 0; li < schedule.layers.size(); ++li) {
        const core::Layer &layer = schedule.layers[li];
        const std::string where =
            context + ", layer " + std::to_string(li);

        std::vector<char> used(size_t(n), 0);
        for (const core::ScheduledGate &sg : layer.gates) {
            if (!sg.supplemented)
                ++total;
            if (layer.is_virtual) {
                EXPECT_TRUE(sg.gate.isVirtual()) << where;
            }
            if (sg.gate.isVirtual())
                continue;
            for (int q : sg.gate.qubits) {
                EXPECT_EQ(used[size_t(q)], 0)
                    << where << ": qubit " << q << " driven twice";
                used[size_t(q)] = 1;
            }
        }
        if (layer.is_virtual)
            continue;

        // The driven set must realize the recorded S partition
        // exactly: scheduled gates inside S, supplemented identities
        // covering the rest of S, nothing driven outside it.
        ASSERT_EQ(int(layer.side.size()), n) << where;
        for (int q = 0; q < n; ++q)
            EXPECT_EQ(used[size_t(q)] != 0, layer.side[size_t(q)] == 1)
                << where << ": qubit " << q
                << " driven/side mismatch";

        const core::SuppressionMetrics m =
            core::evaluateCut(device.graph(), layer.side);
        EXPECT_EQ(m.nc, layer.metrics.nc) << where;
        EXPECT_EQ(m.nq, layer.metrics.nq) << where;
    }
    EXPECT_EQ(total, int(native.size()))
        << context << ": gates dropped or duplicated";
}

void
expectSuppressionInvariants(const core::Schedule &schedule,
                            const dev::Device &device,
                            const core::ZzxOptions &resolved,
                            const std::string &context)
{
    const bool bipartite = device.graph().twoColor().has_value();
    for (size_t li = 0; li < schedule.layers.size(); ++li) {
        const core::Layer &layer = schedule.layers[li];
        if (layer.is_virtual)
            continue;
        const std::string where =
            context + ", layer " + std::to_string(li);

        EXPECT_LE(layer.metrics.nc, resolved.nc_max) << where;
        bool has_two_qubit = false;
        for (const core::ScheduledGate &sg : layer.gates)
            has_two_qubit = has_two_qubit || sg.gate.isTwoQubit();
        EXPECT_LE(layer.metrics.nq,
                  resolved.nq_max + (has_two_qubit ? 1 : 0))
            << where;
        if (!has_two_qubit && bipartite) {
            EXPECT_EQ(layer.metrics.nc, 0) << where;
            EXPECT_EQ(layer.metrics.nq, 1) << where;
        }
    }
}

void
expectSameSchedule(const core::Schedule &a, const core::Schedule &b,
                   const std::string &context)
{
    EXPECT_EQ(a.num_qubits, b.num_qubits) << context;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << context;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const core::Layer &la = a.layers[i];
        const core::Layer &lb = b.layers[i];
        const std::string where = context + " layer " + std::to_string(i);
        EXPECT_EQ(la.is_virtual, lb.is_virtual) << where;
        EXPECT_EQ(la.duration, lb.duration) << where;
        EXPECT_EQ(la.side, lb.side) << where;
        EXPECT_EQ(la.metrics.nq, lb.metrics.nq) << where;
        EXPECT_EQ(la.metrics.nc, lb.metrics.nc) << where;
        ASSERT_EQ(la.gates.size(), lb.gates.size()) << where;
        for (size_t g = 0; g < la.gates.size(); ++g) {
            const core::ScheduledGate &ga = la.gates[g];
            const core::ScheduledGate &gb = lb.gates[g];
            EXPECT_EQ(ga.gate.kind, gb.gate.kind) << where;
            EXPECT_EQ(ga.gate.qubits, gb.gate.qubits) << where;
            EXPECT_EQ(ga.gate.params, gb.gate.params) << where;
            EXPECT_EQ(ga.supplemented, gb.supplemented) << where;
        }
    }
}

} // namespace qzz::testsup
