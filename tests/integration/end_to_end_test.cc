/**
 * @file
 * End-to-end reproduction smoke tests: the co-optimization must beat
 * the baseline on small instances, mirroring the shape of Figs. 20-21
 * at unit-test scale.  Pulse optimization runs with a reduced budget
 * through the calibration store, so repeated test runs are fast.
 */

#include <gtest/gtest.h>

#include "circuit/benchmarks.h"
#include "common/units.h"
#include "core/pulse_opt.h"
#include "exp/pipeline.h"
#include "exp/suite.h"

namespace qzz::exp {
namespace {

class EndToEndTest : public ::testing::Test
{
  protected:
    static dev::Device
    makeDevice()
    {
        Rng rng(11);
        return dev::Device(graph::gridTopology(2, 2),
                           dev::DeviceParams{}, rng);
    }

    static ckt::QuantumCircuit
    makeCircuit()
    {
        Rng rng(4);
        return ckt::hiddenShift(4, rng);
    }

    static FidelityResult
    eval(core::PulseMethod pulse, core::SchedPolicy sched)
    {
        auto dev = makeDevice();
        auto c = makeCircuit();
        core::CompileOptions opt;
        opt.pulse = pulse;
        opt.sched = sched;
        sim::PulseSimOptions sopt;
        sopt.dt = 0.05;
        return evaluateFidelity(
            c, core::CompilerBuilder(dev).options(opt).build(), sopt);
    }
};

TEST_F(EndToEndTest, CoOptimizationBeatsBaseline)
{
    FidelityResult base =
        eval(core::PulseMethod::Gaussian, core::SchedPolicy::Par);
    FidelityResult ours =
        eval(core::PulseMethod::Pert, core::SchedPolicy::Zzx);
    EXPECT_GT(ours.fidelity, base.fidelity)
        << "co-optimization must improve fidelity";
    EXPECT_GT(ours.fidelity, 0.9);
}

TEST_F(EndToEndTest, CoOptimizationBeatsEitherAlone)
{
    // The Fig. 21 synergy claim at unit scale.
    FidelityResult both =
        eval(core::PulseMethod::Pert, core::SchedPolicy::Zzx);
    FidelityResult pulse_only =
        eval(core::PulseMethod::Pert, core::SchedPolicy::Par);
    FidelityResult sched_only =
        eval(core::PulseMethod::Gaussian, core::SchedPolicy::Zzx);
    EXPECT_GE(both.fidelity, pulse_only.fidelity - 0.02);
    EXPECT_GE(both.fidelity, sched_only.fidelity - 0.02);
}

TEST_F(EndToEndTest, ZzxTradesTimeForSuppression)
{
    FidelityResult par =
        eval(core::PulseMethod::Gaussian, core::SchedPolicy::Par);
    FidelityResult zzx =
        eval(core::PulseMethod::Gaussian, core::SchedPolicy::Zzx);
    EXPECT_GE(zzx.execution_time, par.execution_time - 1e-9);
    EXPECT_LE(zzx.execution_time, 3.0 * par.execution_time);
    // ZZXSched leaves fewer unsuppressed couplings per layer.
    EXPECT_LE(zzx.mean_nc, par.mean_nc + 1e-9);
}

TEST_F(EndToEndTest, OptCtrlAlsoWorks)
{
    FidelityResult base =
        eval(core::PulseMethod::Gaussian, core::SchedPolicy::Par);
    FidelityResult ours =
        eval(core::PulseMethod::OptCtrl, core::SchedPolicy::Zzx);
    EXPECT_GT(ours.fidelity, base.fidelity);
}

} // namespace
} // namespace qzz::exp
