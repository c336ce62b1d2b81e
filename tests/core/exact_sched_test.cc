#include "core/exact_sched.h"

#include <gtest/gtest.h>

#include <limits>

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

/**
 * Ground truth by exhaustive enumeration: minimum primary objective
 * over every side assignment keeping Q on side 1 (and, for empty Q,
 * over everything — the metrics are flip-invariant anyway).
 */
double
bruteForceBest(const graph::Graph &g, const std::vector<int> &q,
               const SuppressionOptions &opt)
{
    const int n = g.numVertices();
    double best = std::numeric_limits<double>::infinity();
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
        std::vector<int> side(size_t(n), 0);
        for (int v = 0; v < n; ++v)
            side[size_t(v)] = (mask >> v) & 1u;
        bool ok = true;
        for (int v : q)
            ok = ok && side[size_t(v)] == 1;
        if (!ok)
            continue;
        const SuppressionMetrics m = evaluateCut(g, side);
        best = std::min(
            best, cutPrimaryObjective(m, opt.alpha, opt.edge_zz));
    }
    return best;
}

TEST(ExactSchedTest, BipartiteEmptyQReachesCompleteSuppression)
{
    // Grid 2x3 is bipartite: the unconstrained optimum is the
    // checkerboard, NC = 0 with singleton regions.
    const graph::Topology topo = graph::gridTopology(2, 3);
    ExactCutSolver solver(topo.g);
    const ExactCutResult res = solver.solve({});
    EXPECT_EQ(res.status, ExactStatus::Optimal);
    EXPECT_EQ(res.metrics.nc, 0);
    EXPECT_EQ(res.metrics.nq, 1);
    EXPECT_DOUBLE_EQ(res.objective, 0.5);
    EXPECT_GT(res.nodes, 0);
}

TEST(ExactSchedTest, MatchesBruteForceOnTriangulatedGrid)
{
    // Non-bipartite, so the optimum is a genuine trade-off.  Check
    // the branch-and-bound answer against exhaustive enumeration for
    // a spread of constrained sets.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    ExactCutSolver solver(topo.g);
    const std::vector<std::vector<int>> qs = {
        {}, {0}, {0, 1}, {2, 3}, {0, 5}, {1, 2, 4}, {0, 1, 2, 3}};
    for (const std::vector<int> &q : qs) {
        const ExactCutResult res = solver.solve(q);
        EXPECT_EQ(res.status, ExactStatus::Optimal);
        EXPECT_NEAR(res.objective,
                    bruteForceBest(topo.g, q, SuppressionOptions{}),
                    1e-12)
            << "Q size " << q.size();
        for (int v : q)
            EXPECT_EQ(res.side[size_t(v)], 1);
    }
}

TEST(ExactSchedTest, MatchesBruteForceWeighted)
{
    // Same instances under the calibration-weighted objective, with
    // one coupler 50x stronger than the rest.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    std::vector<double> zz(size_t(topo.g.numEdges()), khz(200.0));
    zz[3] = khz(10000.0);
    SuppressionOptions opt;
    opt.edge_zz = &zz;

    ExactCutSolver solver(topo.g);
    for (const std::vector<int> &q :
         std::vector<std::vector<int>>{{}, {0}, {1, 4}, {2, 3, 5}}) {
        const ExactCutResult res = solver.solve(q, opt);
        EXPECT_EQ(res.status, ExactStatus::Optimal);
        EXPECT_NEAR(res.objective, bruteForceBest(topo.g, q, opt),
                    1e-12)
            << "Q size " << q.size();
    }

    // The strong coupler is the most expensive edge to leave on:
    // the unconstrained optimum suppresses it.
    const ExactCutResult res = solver.solve({}, opt);
    EXPECT_EQ(res.metrics.unsuppressed_edge[3], 0);
}

TEST(ExactSchedTest, NeverWorseThanHeuristicSolver)
{
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    ExactCutSolver exact(topo.g);
    SuppressionSolver heuristic(topo);
    for (const std::vector<int> &q :
         std::vector<std::vector<int>>{{}, {0, 1}, {2, 3}, {0, 4, 5}}) {
        const ExactCutResult e = exact.solve(q);
        const SuppressionResult h = heuristic.solve(q);
        ASSERT_EQ(e.status, ExactStatus::Optimal);
        EXPECT_LE(e.objective,
                  cutPrimaryObjective(h.metrics, 0.5, nullptr) + 1e-9)
            << "Q size " << q.size();
    }
}

TEST(ExactSchedTest, BudgetExhaustionFallsBackToTrivialCut)
{
    // A one-node budget cannot finish any search; the incumbent is
    // the trivial S = Q cut, still valid and Q-respecting.
    const graph::Topology topo = graph::triangulatedGridTopology(2, 3);
    ExactCutSolver solver(topo.g);
    ExactLimits limits;
    limits.max_nodes = 1;
    const ExactCutResult res = solver.solve({2, 3}, {}, limits);
    EXPECT_EQ(res.status, ExactStatus::BudgetExhausted);
    EXPECT_EQ(exactStatusName(res.status), "BudgetExhausted");
    ASSERT_EQ(int(res.side.size()), topo.g.numVertices());
    EXPECT_EQ(res.side[2], 1);
    EXPECT_EQ(res.side[3], 1);
    const SuppressionMetrics m = evaluateCut(topo.g, res.side);
    EXPECT_EQ(m.nc, res.metrics.nc);
    EXPECT_EQ(m.nq, res.metrics.nq);

    // A generous budget on the same solver still reports Optimal:
    // the memo keys on the node cap, so the exhausted result must
    // not shadow the full search.
    const ExactCutResult full = solver.solve({2, 3});
    EXPECT_EQ(full.status, ExactStatus::Optimal);
    EXPECT_EQ(exactStatusName(full.status), "Optimal");
    EXPECT_LE(full.objective, res.objective + 1e-12);
}

TEST(ExactSchedTest, DeterministicAcrossSolversAndRuns)
{
    const graph::Topology topo = graph::heavyHexTopology(1, 1);
    ExactCutSolver a(topo.g);
    ExactCutSolver b(topo.g);
    for (const std::vector<int> &q :
         std::vector<std::vector<int>>{{}, {0, 1}, {4, 7}}) {
        const ExactCutResult r1 = a.solve(q);
        const ExactCutResult r2 = a.solve(q); // memoized path
        const ExactCutResult r3 = b.solve(q); // fresh search
        EXPECT_EQ(r1.side, r2.side);
        EXPECT_EQ(r1.side, r3.side);
        EXPECT_EQ(r1.nodes, r3.nodes);
        EXPECT_DOUBLE_EQ(r1.objective, r3.objective);
    }
}

TEST(ExactSchedTest, ExactScheduleIsValidAndMeetsR)
{
    const dev::Device dev =
        uniformDevice(graph::triangulatedGridTopology(2, 3));
    ckt::QuantumCircuit c(6);
    for (int q = 0; q < 6; ++q)
        c.sx(q);
    c.rzx(0, 1, kPi / 2.0);
    c.rzx(4, 5, kPi / 2.0);
    c.rz(2, 0.25);
    for (int q = 0; q < 6; ++q)
        c.sx(q);

    const Schedule s = exactSchedule(c, dev, GateDurations{});
    testsup::expectValidSchedule(s, c, dev, "exact trigrid");
    testsup::expectSuppressionInvariants(
        s, dev, resolveZzxOptions({}, dev), "exact trigrid");
}

TEST(ExactSchedTest, SchedulerClassRoundTripsThroughFactory)
{
    EXPECT_EQ(schedPolicyName(SchedPolicy::Exact), "ExactSched");
    EXPECT_EQ(schedPolicyFromName("ExactSched"), SchedPolicy::Exact);
    EXPECT_EQ(schedPolicyFromName("exact"), SchedPolicy::Exact);
}

} // namespace
} // namespace qzz::core
