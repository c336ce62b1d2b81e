#include "exp/pipeline.h"

#include <gtest/gtest.h>

#include "circuit/benchmarks.h"
#include "common/units.h"
#include "exp/suite.h"

namespace qzz::exp {
namespace {

dev::Device
smallDevice(uint64_t seed = 11)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(2, 2), dev::DeviceParams{},
                       rng);
}

TEST(PipelineTest, ConfigNames)
{
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Par;
    EXPECT_EQ(configName(opt), "Gau+ParSched");
    opt.pulse = core::PulseMethod::Pert;
    opt.sched = core::SchedPolicy::Zzx;
    EXPECT_EQ(configName(opt), "Pert+ZZXSched");
}

TEST(PipelineTest, NoCrosstalkGivesNearUnitFidelity)
{
    // Calibration check: with ZZ disabled, the whole pipeline (route,
    // decompose, schedule, pulse-simulate) reproduces the ideal state.
    auto dev = smallDevice();
    Rng rng(4);
    ckt::QuantumCircuit c = ckt::hiddenShift(4, rng);
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Par;
    sim::PulseSimOptions sopt;
    sopt.crosstalk_scale = 0.0;
    sopt.dt = 0.02;
    FidelityResult res = evaluateFidelity(
        c, core::CompilerBuilder(dev).options(opt).build(), sopt);
    EXPECT_GT(res.fidelity, 1.0 - 1e-4);
}

TEST(PipelineTest, CrosstalkHurtsBaseline)
{
    auto dev = smallDevice();
    Rng rng(4);
    ckt::QuantumCircuit c = ckt::hiddenShift(4, rng);
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Par;
    FidelityResult res = evaluateFidelity(
        c, core::CompilerBuilder(dev).options(opt).build());
    EXPECT_LT(res.fidelity, 0.999);
    EXPECT_GT(res.execution_time, 0.0);
    EXPECT_GT(res.physical_layers, 0);
}

TEST(PipelineTest, DecoherenceVariantTracksPureVariant)
{
    // With infinite T1/T2 the density-matrix pipeline must agree with
    // the state-vector pipeline.
    auto dev = smallDevice();
    Rng rng(4);
    ckt::QuantumCircuit c = ckt::hiddenShift(4, rng);
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Par;
    sim::PulseSimOptions sopt;
    sopt.dt = 0.1;
    const core::Compiler compiler =
        core::CompilerBuilder(dev).options(opt).build();
    FidelityResult pure = evaluateFidelity(c, compiler, sopt);
    FidelityResult open =
        evaluateFidelityWithDecoherence(c, compiler, sopt);
    EXPECT_NEAR(pure.fidelity, open.fidelity, 1e-6);
}

TEST(PipelineTest, FiniteCoherenceLowersFidelity)
{
    const auto dev =
        smallDevice().withCoherence(us(50.0), us(50.0));
    Rng rng(4);
    ckt::QuantumCircuit c = ckt::hiddenShift(4, rng);
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Par;
    sim::PulseSimOptions sopt;
    sopt.dt = 0.1;
    sopt.crosstalk_scale = 0.0;
    FidelityResult res = evaluateFidelityWithDecoherence(
        c, core::CompilerBuilder(dev).options(opt).build(), sopt);
    EXPECT_LT(res.fidelity, 0.999);
    EXPECT_GT(res.fidelity, 0.5);
}

TEST(SuiteTest, QuickSuiteFiltersBySize)
{
    SuiteConfig cfg;
    cfg.max_qubits = 6;
    auto suite = buildSuite(cfg);
    for (const auto &entry : suite)
        EXPECT_LE(entry.circuit.numQubits(), 6);
    EXPECT_FALSE(suite.empty());
}

TEST(SuiteTest, DevicesSharedPerSize)
{
    auto suite = buildSuite({});
    const dev::Device *four_a = nullptr;
    const dev::Device *four_b = nullptr;
    for (const auto &entry : suite) {
        if (entry.circuit.numQubits() == 4) {
            if (!four_a)
                four_a = &entry.device;
            else if (!four_b)
                four_b = &entry.device;
        }
    }
    ASSERT_NE(four_a, nullptr);
    ASSERT_NE(four_b, nullptr);
    EXPECT_EQ(four_a->couplings(), four_b->couplings());
}

TEST(SuiteTest, CouplingsMatchPaperDistribution)
{
    auto suite = buildSuite({});
    for (const auto &entry : suite)
        for (double lambda : entry.device.couplings()) {
            EXPECT_GT(toKhz(lambda), 10.0);
            EXPECT_LT(toKhz(lambda), 800.0);
        }
}

} // namespace
} // namespace qzz::exp
