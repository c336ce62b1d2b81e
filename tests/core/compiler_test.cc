/**
 * @file
 * Tests for the compiler (core/compiler.h): the builder, the
 * three-stage pipeline, the structured status channel, per-stage
 * diagnostics, the per-policy schedule dispatch, and injected pulse
 * libraries.
 */

#include "core/compiler.h"

#include <gtest/gtest.h>

#include "circuit/benchmarks.h"
#include "common/error.h"
#include "common/suppression_invariants.h"
#include "common/units.h"
#include "core/cycle_sched.h"
#include "core/dcg.h"
#include "graph/topologies.h"
#include "sim/ideal_sim.h"

namespace qzz::core {
namespace {

dev::Device
device23(uint64_t seed = 3)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
}

ckt::QuantumCircuit
testCircuit(uint64_t seed = 7)
{
    Rng rng(seed);
    return ckt::qaoaMaxCut(6, 1, rng);
}

TEST(CompilerTest, BuilderProducesCompleteProgram)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .schedPolicy(SchedPolicy::Zzx)
                            .build();
    CompileResult result = compiler.compile(testCircuit());

    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.program.native.isNative());
    ASSERT_NE(result.program.library, nullptr);
    EXPECT_EQ(result.program.library->name(), "Gaussian");
    EXPECT_EQ(result.program.pulse_method, PulseMethod::Gaussian);
    EXPECT_EQ(result.program.sched_policy, SchedPolicy::Zzx);
    EXPECT_EQ(result.program.schedule.circuitGateCount(),
              int(result.program.native.size()));
    EXPECT_EQ(int(result.program.final_layout.size()), 6);
}

TEST(CompilerTest, DiagnosticsCoverEveryStage)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .schedPolicy(SchedPolicy::Zzx)
                            .build();
    CompileResult result = compiler.compile(testCircuit());

    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.diagnostics.stages.size(), 3u);
    EXPECT_EQ(result.diagnostics.stages[0].stage, "route");
    EXPECT_EQ(result.diagnostics.stages[1].stage, "lower");
    EXPECT_EQ(result.diagnostics.stages[2].stage, "schedule");
    EXPECT_GT(result.diagnostics.stages[1].gates_added, 0);
    EXPECT_GT(result.diagnostics.stages[2].layers_added, 0);
    for (const StageDiagnostics &stage : result.diagnostics.stages)
        EXPECT_GE(stage.wall_ms, 0.0);
    EXPECT_GT(result.diagnostics.total_ms, 0.0);
    EXPECT_EQ(result.diagnostics.physical_layers,
              result.program.schedule.physicalLayerCount());
    EXPECT_DOUBLE_EQ(result.diagnostics.execution_time_ns,
                     result.program.schedule.executionTime());
    EXPECT_DOUBLE_EQ(result.diagnostics.mean_nc,
                     result.program.schedule.meanNc());
    EXPECT_EQ(result.diagnostics.max_nq,
              result.program.schedule.maxNq());
}

TEST(CompilerTest, RoutingDiagnosticsCountSwaps)
{
    auto dev = device23();
    ckt::QuantumCircuit c(6);
    c.cx(0, 5); // distance 3 on the 2x3 grid: SWAPs required
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(c);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.diagnostics.swaps_inserted, 0);
    // The layout permutation reflects the SWAP walk.
    std::vector<int> identity{0, 1, 2, 3, 4, 5};
    EXPECT_NE(result.program.final_layout, identity);
}

TEST(CompilerTest, StatusChannelReportsEmptyInput)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev).build();
    CompileResult result = compiler.compileSegments({});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
    EXPECT_NE(result.status.message.find("no segments"),
              std::string::npos);
}

TEST(CompilerTest, StatusChannelReportsOversizedCircuit)
{
    auto dev = device23();
    ckt::QuantumCircuit c(12); // larger than the 6-qubit device
    c.h(0);
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(c);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code, CompileStatusCode::InvalidInput);
    EXPECT_EQ(result.status.pass, "route");
}

TEST(CompilerTest, StatusChannelReportsSegmentSizeMismatch)
{
    auto dev = device23();
    std::vector<ckt::QuantumCircuit> segments;
    segments.emplace_back(6);
    segments.emplace_back(4);
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compileSegments(segments);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.pass, "route");
}

TEST(CompilerTest, InjectedPulseLibraryReachesTheProgram)
{
    // DD composition via an injected library: every gate comes from
    // the substituted library, no process-global cache involved.
    auto dev = device23();
    pulse::PulseLibrary dd = substituteIdentity(
        pulse::PulseLibrary::gaussian(), dcgIdentity());
    ckt::QuantumCircuit c(6);
    c.sx(0);
    Compiler compiler =
        CompilerBuilder(dev)
            .schedPolicy(SchedPolicy::Zzx)
            .pulseLibrary(
                std::make_shared<const pulse::PulseLibrary>(std::move(dd)))
            .build();
    CompileResult result = compiler.compile(c);
    ASSERT_TRUE(result.ok());
    ASSERT_NE(result.program.library, nullptr);
    EXPECT_EQ(result.program.library->name(), "Gaussian+DD");
    // Supplemented identities are the 40 ns DCG sequence; the layer
    // lasts as long as its longest pulse.
    ASSERT_EQ(result.program.schedule.physicalLayerCount(), 1);
    EXPECT_DOUBLE_EQ(result.program.schedule.executionTime(), 40.0);
}

TEST(CompilerTest, EveryPolicyMatchesItsEntryPoint)
{
    // The schedule stage dispatches on SchedPolicy alone: for every
    // policy, device shape and snapshot, the program's schedule is the
    // policy's entry point applied to the program's native circuit
    // with freshly built per-device tables.
    const std::vector<std::pair<std::string, graph::Topology>> topologies =
        {{"grid3x4", graph::gridTopology(3, 4)},
         {"ring6", graph::ringTopology(6)}};
    for (const auto &[topo_name, topo] : topologies) {
        Rng rng(11);
        const std::vector<std::pair<std::string, dev::Device>> devices = {
            {"uniform",
             dev::Device(topo, dev::Calibration::uniform(
                                   topo, dev::DeviceParams{},
                                   std::vector<double>(
                                       size_t(topo.g.numEdges()),
                                       khz(200.0))))},
            {"jittered",
             dev::Device(topo, dev::Calibration::sampled(
                                   topo, dev::DeviceParams{}, rng))}};
        const int n = topo.g.numVertices();
        const ckt::QuantumCircuit circuit = ckt::googleRandom(n, 4, rng);
        for (const auto &[calib_name, dev] : devices) {
            for (SchedPolicy policy :
                 {SchedPolicy::Par, SchedPolicy::Zzx,
                  SchedPolicy::ZzxWeighted, SchedPolicy::Exact,
                  SchedPolicy::CycleAware}) {
                const std::string what = topo_name + "/" + calib_name +
                                         "/" + schedPolicyName(policy);
                Compiler compiler = CompilerBuilder(dev)
                                        .pulseMethod(PulseMethod::Gaussian)
                                        .schedPolicy(policy)
                                        .build();
                CompileResult result = compiler.compile(circuit);
                ASSERT_TRUE(result.ok()) << what << ": "
                                         << result.status.message;
                const CompiledProgram &p = result.program;
                const GateDurations durations =
                    GateDurations::fromLibrary(*p.library);
                const ZzxOptions &zzx = compiler.options().zzx;
                Schedule direct;
                switch (policy) {
                case SchedPolicy::Par:
                    direct = parSchedule(p.native, dev, durations);
                    break;
                case SchedPolicy::Zzx:
                    direct = zzxSchedule(p.native, dev, durations, zzx,
                                         ZzxDeviceTables(dev));
                    break;
                case SchedPolicy::ZzxWeighted:
                    direct = zzxWeightedSchedule(p.native, dev, durations,
                                                 zzx, ZzxDeviceTables(dev));
                    break;
                case SchedPolicy::Exact:
                    direct = exactSchedule(p.native, dev, durations, zzx,
                                           ExactLimits{},
                                           ExactDeviceTables(dev));
                    break;
                case SchedPolicy::CycleAware:
                    direct = cycleAwareSchedule(p.native, dev, durations,
                                                CycleOptions{zzx},
                                                ZzxDeviceTables(dev));
                    break;
                }
                ASSERT_FALSE(direct.layers.empty()) << what;
                testsup::expectSameSchedule(p.schedule, direct, what);
            }
        }
    }
}

TEST(CompilerTest, BuildRefusesAMissingLibrary)
{
    // A Compiler without a usable library is never built, so no
    // compile can fail for the want of one.
    auto dev = device23();
    EXPECT_THROW(CompilerBuilder(dev).pulseLibrary(nullptr).build(),
                 UserError);

    // Gate durations come from the SX and Identity programs.
    pulse::PulseLibrary no_sx("no-sx");
    no_sx.set(pulse::PulseGate::Identity,
              pulse::PulseLibrary::gaussian().get(
                  pulse::PulseGate::Identity));
    EXPECT_THROW(CompilerBuilder(dev)
                     .pulseLibrary(std::make_shared<const pulse::PulseLibrary>(
                         std::move(no_sx)))
                     .build(),
                 UserError);
}

TEST(CompilerTest, ProgramOwnsLibraryAcrossCacheClear)
{
    auto dev = device23();
    Compiler compiler = CompilerBuilder(dev)
                            .pulseMethod(PulseMethod::Gaussian)
                            .build();
    CompileResult result = compiler.compile(testCircuit());
    ASSERT_TRUE(result.ok());
    clearPulseLibraryCache();
    // shared_ptr ownership keeps the library valid after the clear.
    EXPECT_EQ(result.program.library->name(), "Gaussian");
    EXPECT_TRUE(result.program.library->has(pulse::PulseGate::SX));
}

TEST(CompilerTest, SemanticsPreservedThroughPipeline)
{
    auto dev = device23();
    Rng rng(9);
    ckt::QuantumCircuit c = ckt::hiddenShift(6, rng);
    Compiler par = CompilerBuilder(dev)
                       .pulseMethod(PulseMethod::Gaussian)
                       .schedPolicy(SchedPolicy::Par)
                       .build();
    Compiler zzx = CompilerBuilder(dev)
                       .pulseMethod(PulseMethod::Gaussian)
                       .schedPolicy(SchedPolicy::Zzx)
                       .build();
    CompileResult a = par.compile(c);
    CompileResult b = zzx.compile(c);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto psi_a = sim::runIdealSchedule(a.program.schedule);
    auto psi_b = sim::runIdealSchedule(b.program.schedule);
    EXPECT_NEAR(psi_a.fidelity(psi_b), 1.0, 1e-9);
}

} // namespace
} // namespace qzz::core
