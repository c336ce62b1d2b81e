/**
 * @file
 * Tests for the Sec.-8 composition features (barrier-segmented
 * compilation, DD identity substitution), the heavy-hex topology and
 * the schedule JSON export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/units.h"
#include "circuit/benchmarks.h"
#include "circuit/decompose.h"
#include "core/compiler.h"
#include "core/dcg.h"
#include "core/framework.h"
#include "core/schedule_io.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"
#include "sim/ramsey.h"

namespace qzz::core {
namespace {

dev::Device
device23(uint64_t seed = 3)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
}

TEST(SegmentsTest, ConcatenationPreservesSemantics)
{
    auto dev = device23();
    // One circuit vs the same circuit cut into three segments.
    ckt::QuantumCircuit whole(6);
    whole.h(0);
    whole.cx(0, 1);
    whole.cx(1, 2);
    whole.h(3);
    whole.cx(3, 4);
    whole.cx(4, 5);
    whole.cx(2, 3);

    std::vector<ckt::QuantumCircuit> segments(3,
                                              ckt::QuantumCircuit(6));
    segments[0].h(0);
    segments[0].cx(0, 1);
    segments[1].cx(1, 2);
    segments[1].h(3);
    segments[1].cx(3, 4);
    segments[2].cx(4, 5);
    segments[2].cx(2, 3);

    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Zzx;
    const Compiler compiler = CompilerBuilder(dev).options(opt).build();
    auto one = unwrapOrThrow(compiler.compile(whole));
    auto many = unwrapOrThrow(compiler.compileSegments(segments));

    auto a = sim::runIdealSchedule(one.schedule);
    auto b = sim::runIdealSchedule(many.schedule);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
    EXPECT_EQ(many.schedule.num_qubits, 6);
}

TEST(SegmentsTest, LayoutThreadsAcrossSegments)
{
    auto dev = device23();
    // Segment 1 forces a SWAP (0 and 5 are distance 3 apart); segment
    // 2 then reuses the moved layout.
    std::vector<ckt::QuantumCircuit> segments(2,
                                              ckt::QuantumCircuit(6));
    segments[0].cx(0, 5);
    segments[1].cx(0, 5);

    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Par;
    auto prog = unwrapOrThrow(
        CompilerBuilder(dev).options(opt).build().compileSegments(
            segments));
    // The second segment should need no further SWAPs: the total
    // two-qubit count is 2 gates + the SWAPs of segment 1 only
    // (3 CX per SWAP, 2 SWAPs for distance 3).
    EXPECT_EQ(prog.native.twoQubitCount(), 2 + 2 * 3);
}

TEST(SegmentsTest, EmptySegmentListRejected)
{
    auto dev = device23();
    const CompileResult result = CompilerBuilder(dev)
                                     .pulseMethod(PulseMethod::Gaussian)
                                     .build()
                                     .compileSegments({});
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
}

TEST(SegmentsTest, RegisterSizeMismatchRejected)
{
    auto dev = device23();
    std::vector<ckt::QuantumCircuit> segments;
    segments.emplace_back(6);
    segments.emplace_back(4); // different logical register
    const CompileResult result = CompilerBuilder(dev)
                                     .pulseMethod(PulseMethod::Gaussian)
                                     .build()
                                     .compileSegments(segments);
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
    EXPECT_EQ(result.status.pass, "route");
}

TEST(SegmentsTest, SingleSegmentMatchesWholeCompile)
{
    auto dev = device23();
    Rng rng(13);
    ckt::QuantumCircuit c = ckt::qaoaMaxCut(6, 1, rng);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Zzx;
    const Compiler compiler = CompilerBuilder(dev).options(opt).build();
    auto whole = unwrapOrThrow(compiler.compile(c));
    auto segmented = unwrapOrThrow(compiler.compileSegments({c}));
    ASSERT_EQ(whole.schedule.layers.size(),
              segmented.schedule.layers.size());
    EXPECT_EQ(whole.native.size(), segmented.native.size());
    EXPECT_EQ(whole.final_layout, segmented.final_layout);
    EXPECT_DOUBLE_EQ(whole.schedule.executionTime(),
                     segmented.schedule.executionTime());
}

TEST(SegmentsTest, FinalLayoutExposesThreadedPermutation)
{
    auto dev = device23();
    std::vector<ckt::QuantumCircuit> segments(2,
                                              ckt::QuantumCircuit(6));
    segments[0].cx(0, 5); // forces SWAPs
    segments[1].sx(0);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Par;
    auto prog = unwrapOrThrow(
        CompilerBuilder(dev).options(opt).build().compileSegments(
            segments));
    // The SWAP walk of segment 1 moved logical qubit 0; the exposed
    // layout is a permutation reflecting it.
    ASSERT_EQ(int(prog.final_layout.size()), 6);
    std::vector<int> sorted = prog.final_layout;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_NE(prog.final_layout, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(DdSubstitutionTest, PreservesBaseProgramsVerbatim)
{
    pulse::PulseLibrary base = pulse::PulseLibrary::gaussian();
    pulse::PulseLibrary dd = substituteIdentity(base, dcgIdentity());
    // SX and RZX are carried over untouched: same durations, and the
    // same samples on the active channel (x_a for SX, coupling for
    // the Gaussian RZX, whose drive channels are empty).
    for (pulse::PulseGate g :
         {pulse::PulseGate::SX, pulse::PulseGate::RZX}) {
        const auto &orig = base.get(g);
        const auto &kept = dd.get(g);
        EXPECT_DOUBLE_EQ(kept.duration, orig.duration);
        const auto &orig_wf =
            g == pulse::PulseGate::RZX ? orig.coupling : orig.x_a;
        const auto &kept_wf =
            g == pulse::PulseGate::RZX ? kept.coupling : kept.x_a;
        ASSERT_NE(orig_wf, nullptr);
        ASSERT_NE(kept_wf, nullptr);
        for (double t : {0.0, 5.0, 10.0, 19.0})
            EXPECT_DOUBLE_EQ(kept_wf->value(t), orig_wf->value(t));
    }
}

TEST(DdSubstitutionTest, WorksWithoutTwoQubitProgram)
{
    // A library holding only SX: substitution must not invent RZX.
    pulse::PulseLibrary base("sx-only");
    base.set(pulse::PulseGate::SX,
             pulse::PulseLibrary::gaussian().get(pulse::PulseGate::SX));
    pulse::PulseLibrary dd = substituteIdentity(base, dcgIdentity());
    EXPECT_EQ(dd.name(), "sx-only+DD");
    EXPECT_TRUE(dd.has(pulse::PulseGate::SX));
    EXPECT_TRUE(dd.has(pulse::PulseGate::Identity));
    EXPECT_FALSE(dd.has(pulse::PulseGate::RZX));
}

TEST(DdSubstitutionTest, SubstitutedLibraryCompilesViaProvider)
{
    // End to end through an injected library: DD identities lengthen
    // the supplemented idle slots of a ZZXSched schedule.
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.sx(0);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Zzx;
    Compiler compiler =
        CompilerBuilder(dev)
            .options(opt)
            .pulseLibrary(std::make_shared<const pulse::PulseLibrary>(
                substituteIdentity(pulse::PulseLibrary::gaussian(),
                                   dcgIdentity())))
            .build();
    auto result = compiler.compile(c);
    ASSERT_TRUE(result.ok());
    int supplemented = 0;
    for (const Layer &layer : result.program.schedule.layers)
        for (const ScheduledGate &sg : layer.gates)
            supplemented += sg.supplemented ? 1 : 0;
    EXPECT_GT(supplemented, 0);
    EXPECT_DOUBLE_EQ(result.program.schedule.executionTime(), 40.0);
}

TEST(DdSubstitutionTest, ReplacesIdentityOnly)
{
    pulse::PulseLibrary base = pulse::PulseLibrary::gaussian();
    pulse::PulseLibrary dd =
        substituteIdentity(base, dcgIdentity());
    EXPECT_EQ(dd.name(), "Gaussian+DD");
    EXPECT_DOUBLE_EQ(dd.get(pulse::PulseGate::Identity).duration,
                     40.0);
    EXPECT_DOUBLE_EQ(dd.get(pulse::PulseGate::SX).duration, 20.0);
    EXPECT_TRUE(dd.has(pulse::PulseGate::RZX));
}

TEST(DdSubstitutionTest, DdIdentityProtectsRamseyQubit)
{
    // Gaussian library + DCG identity = DD-protected idle periods.
    static const pulse::PulseLibrary dd =
        substituteIdentity(pulse::PulseLibrary::gaussian(),
                           dcgIdentity());
    sim::RamseyConfig cfg;
    cfg.lambda12 = khz(50.0);
    cfg.lambda23 = khz(50.0);
    cfg.library = &dd;
    cfg.segments = 300;
    cfg.circuit = sim::RamseyCircuit::B;
    auto zz = sim::measureEffectiveZz(cfg, true, false);
    EXPECT_LT(zz.zz_khz, 11.0);
}

TEST(HeavyHexTest, StructureAndBipartiteness)
{
    auto t = graph::heavyHexTopology(2, 2);
    // 4 hexagons sharing edges; every honeycomb edge subdivided.
    EXPECT_GT(t.g.numVertices(), 20);
    EXPECT_TRUE(t.g.twoColor().has_value()) << "heavy-hex is bipartite";
    // Bridge qubits have degree 2; corner qubits degree 2 or 3.
    for (int v = 0; v < t.g.numVertices(); ++v) {
        EXPECT_GE(t.g.degree(v), 1);
        EXPECT_LE(t.g.degree(v), 3);
    }
    // Planarity: Euler's formula via the embedding.
    auto emb = t.embedding();
    EXPECT_EQ(t.g.numVertices() - t.g.numEdges() + emb.numFaces(), 2);
}

TEST(HeavyHexTest, CompleteSuppressionExists)
{
    SuppressionSolver solver(graph::heavyHexTopology(2, 3));
    auto res = solver.solve({});
    EXPECT_EQ(res.metrics.nc, 0);
    EXPECT_EQ(res.metrics.nq, 1);
}

TEST(HeavyHexTest, SchedulerRunsOnHeavyHex)
{
    Rng rng(5);
    auto topo = graph::heavyHexTopology(1, 2);
    dev::Device dev(topo, dev::DeviceParams{}, rng);
    ckt::QuantumCircuit c(dev.numQubits());
    for (int q = 0; q < dev.numQubits(); ++q)
        c.sx(q);
    c.cx(0, 1);
    ckt::QuantumCircuit native = ckt::decomposeToNative(
        ckt::routeCircuit(c, dev.graph()).circuit);
    Schedule s = zzxSchedule(native, dev, GateDurations{});
    EXPECT_EQ(s.circuitGateCount(), int(native.size()));
}

TEST(ScheduleIoTest, JsonShapeAndContent)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.sx(0);
    c.rz(0, 0.5);
    c.rzx(0, 1, kPi / 2.0);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    opt.sched = SchedPolicy::Zzx;
    auto prog = unwrapOrThrow(
        CompilerBuilder(dev).options(opt).build().compile(c));

    std::ostringstream os;
    writeScheduleJson(prog.schedule, *prog.library, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"num_qubits\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"layers\""), std::string::npos);
    EXPECT_NE(json.find("\"RZX\""), std::string::npos);
    EXPECT_NE(json.find("\"pulses\""), std::string::npos);
    EXPECT_NE(json.find("\"coupling\""), std::string::npos);
    // Balanced braces / brackets.
    int depth = 0;
    for (char ch : json) {
        if (ch == '{' || ch == '[')
            ++depth;
        if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ScheduleIoTest, SamplesOmittedWhenDisabled)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.sx(0);
    CompileOptions opt;
    opt.pulse = PulseMethod::Gaussian;
    auto prog = unwrapOrThrow(
        CompilerBuilder(dev).options(opt).build().compile(c));
    std::ostringstream os;
    ScheduleIoOptions io;
    io.sample_dt = 0.0;
    writeScheduleJson(prog.schedule, *prog.library, os, io);
    EXPECT_EQ(os.str().find("\"pulses\""), std::string::npos);
}

} // namespace
} // namespace qzz::core
