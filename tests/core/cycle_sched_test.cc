#include "core/cycle_sched.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/suppression_invariants.h"
#include "common/units.h"
#include "core/framework.h"
#include "graph/topologies.h"

namespace qzz::core {
namespace {

dev::Device
uniformDevice(graph::Topology topo, double rate_khz = 200.0)
{
    const std::vector<double> couplings(size_t(topo.g.numEdges()),
                                        khz(rate_khz));
    return dev::Device(std::move(topo), dev::DeviceParams{}, couplings);
}

/** @p rounds rounds of SX on every qubit. */
ckt::QuantumCircuit
sxRounds(int n, int rounds)
{
    ckt::QuantumCircuit c(n);
    for (int r = 0; r < rounds; ++r)
        for (int q = 0; q < n; ++q)
            c.sx(q);
    return c;
}

TEST(CycleSchedTest, ZeroHistoryWeightMatchesZzxWeighted)
{
    // With history_weight = 0 the boost factor is identically 1 and
    // the per-layer weights are |zz| — the policy must reproduce the
    // weighted heuristic bit-identically, accumulated state or not.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    std::vector<double> zz(size_t(topo.g.numEdges()), khz(200.0));
    zz[3] = khz(10000.0);
    const dev::Device dev(topo, dev::DeviceParams{}, zz);

    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(4, 5, kPi / 2.0);
    for (int q = 0; q < 6; ++q)
        c.sx(q);

    const ZzxDeviceTables tables(dev);
    CycleOptions opt;
    opt.history_weight = 0.0;
    const Schedule cycle =
        cycleAwareSchedule(c, dev, GateDurations{}, opt, tables);
    const Schedule weighted =
        zzxWeightedSchedule(c, dev, GateDurations{}, {}, tables);
    ASSERT_EQ(cycle.layers.size(), weighted.layers.size());
    for (size_t i = 0; i < cycle.layers.size(); ++i) {
        EXPECT_EQ(cycle.layers[i].side, weighted.layers[i].side)
            << "layer " << i;
        EXPECT_EQ(cycle.layers[i].gates.size(),
                  weighted.layers[i].gates.size())
            << "layer " << i;
    }
}

TEST(CycleSchedTest, RotatesResidualAcrossOddRing)
{
    // An odd ring cannot be fully suppressed: every 1Q layer leaves
    // at least one coupling on.  The memoizing weighted policy picks
    // the *same* cut each layer, piling the whole residual onto one
    // edge; the cycle-aware policy must spread it out, so its worst
    // per-edge accumulated phase is strictly lower.
    const dev::Device dev = uniformDevice(graph::ringTopology(5));
    const ckt::QuantumCircuit c = sxRounds(5, 6);
    const ZzxDeviceTables tables(dev);

    const Schedule weighted =
        zzxWeightedSchedule(c, dev, GateDurations{}, {}, tables);
    const Schedule cycle =
        cycleAwareSchedule(c, dev, GateDurations{}, {}, tables);

    const std::vector<double> acc_w = accumulatedZz(weighted, tables.zz);
    const std::vector<double> acc_c = accumulatedZz(cycle, tables.zz);
    const double max_w = *std::max_element(acc_w.begin(), acc_w.end());
    const double max_c = *std::max_element(acc_c.begin(), acc_c.end());
    EXPECT_GT(max_w, 0.0);
    EXPECT_LT(max_c, max_w);

    // The weighted policy concentrates on a single edge...
    int hot_w = 0;
    for (double a : acc_w)
        hot_w += a > 0.0 ? 1 : 0;
    EXPECT_EQ(hot_w, 1);
    // ...the cycle-aware policy touches several.
    int hot_c = 0;
    for (double a : acc_c)
        hot_c += a > 0.0 ? 1 : 0;
    EXPECT_GT(hot_c, 1);
}

TEST(CycleSchedTest, AccumulatedZzMatchesLayerCounts)
{
    // On a uniform snapshot every unsuppressed edge of a layer
    // contributes the same |zz| * duration, so the total accumulated
    // phase equals the sum of NC * duration over physical layers.
    const dev::Device dev = uniformDevice(graph::ringTopology(5));
    const ckt::QuantumCircuit c = sxRounds(5, 3);
    const ZzxDeviceTables tables(dev);
    const Schedule s =
        cycleAwareSchedule(c, dev, GateDurations{}, {}, tables);

    const std::vector<double> acc = accumulatedZz(s, tables.zz);
    double total = 0.0;
    for (double a : acc)
        total += a;
    double expected = 0.0;
    for (const Layer &l : s.layers)
        if (!l.is_virtual)
            expected += double(l.metrics.nc) * std::abs(tables.zz[0]) *
                        l.duration;
    EXPECT_NEAR(total, expected, 1e-9);
}

TEST(CycleSchedTest, SchedulesAreValidAndMeetR)
{
    const dev::Device dev =
        uniformDevice(graph::triangulatedGridTopology(2, 3));
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(2, 5, kPi / 2.0);
    c.rz(4, 0.5);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(3, 4, kPi / 2.0);

    const Schedule s = cycleAwareSchedule(c, dev, GateDurations{});
    testsup::expectValidSchedule(s, c, dev, "cycle trigrid");
    testsup::expectSuppressionInvariants(
        s, dev, resolveZzxOptions({}, dev), "cycle trigrid");
}

TEST(CycleSchedTest, SchedulerClassRoundTripsThroughFactory)
{
    EXPECT_EQ(schedPolicyName(SchedPolicy::CycleAware), "CycleAware");
    EXPECT_EQ(schedPolicyFromName("CycleAware"),
              SchedPolicy::CycleAware);
    EXPECT_EQ(schedPolicyFromName("cycle"), SchedPolicy::CycleAware);
}

} // namespace
} // namespace qzz::core
