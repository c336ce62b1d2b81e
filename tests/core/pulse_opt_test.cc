#include "core/pulse_opt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/error.h"
#include "common/units.h"
#include "core/regions.h"
#include "graph/topologies.h"
#include "linalg/expm.h"

namespace qzz::core {
namespace {

const la::CMatrix &
sxTarget()
{
    static const la::CMatrix m = la::expPauli(kPi / 4.0, 0.0, 0.0);
    return m;
}

/** Small optimization budget for unit tests. */
PulseOptConfig
testConfig(PulseMethod method, pulse::PulseGate gate)
{
    PulseOptConfig cfg = defaultPulseOptConfig(method, gate);
    cfg.adam.max_iters = 800;
    cfg.restarts = 1;
    return cfg;
}

TEST(OptimizerTest, AdamMinimizesQuadratic)
{
    LossFn loss = [](const std::vector<double> &x) {
        double s = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - double(i);
            s += d * d;
        }
        return s;
    };
    AdamOptions opt;
    opt.max_iters = 800;
    opt.lr = 0.1;
    opt.lr_final = 0.02;
    auto res = minimizeAdam(loss, {5.0, -3.0, 7.0}, opt);
    EXPECT_LT(res.loss, 1e-4);
    EXPECT_NEAR(res.params[1], 1.0, 0.05);
}

TEST(OptimizerTest, HistoryRecordsProgress)
{
    LossFn loss = [](const std::vector<double> &x) {
        return x[0] * x[0];
    };
    auto res = minimizeAdam(loss, {2.0});
    EXPECT_GT(res.history.size(), 1u);
    EXPECT_LE(res.loss, res.history.front());
}

TEST(PulseOptTest, PertSxImplementsGateAndSuppresses)
{
    auto opt = optimizePulse(PulseMethod::Pert, pulse::PulseGate::SX,
                             testConfig(PulseMethod::Pert,
                                        pulse::PulseGate::SX));
    // Gate implemented.
    EXPECT_GT(gateFidelity(opt.program, sxTarget()), 1.0 - 1e-4);
    // First-order crosstalk strongly reduced vs the Gaussian baseline.
    auto gauss =
        pulse::PulseLibrary::gaussian().get(pulse::PulseGate::SX);
    const double gauss_norm = firstOrderCrosstalkNorm(gauss, 0.0);
    const double opt_norm = firstOrderCrosstalkNorm(opt.program, 0.0);
    EXPECT_LT(opt_norm, gauss_norm / 10.0);
    // And the observed infidelity at 200 kHz improves accordingly.
    const double gauss_infid =
        oneQubitCrosstalkInfidelity(gauss, sxTarget(), khz(200.0));
    const double opt_infid = oneQubitCrosstalkInfidelity(
        opt.program, sxTarget(), khz(200.0));
    EXPECT_LT(opt_infid, gauss_infid / 10.0);
}

TEST(PulseOptTest, PertIdentitySuppresses)
{
    auto opt = optimizePulse(PulseMethod::Pert,
                             pulse::PulseGate::Identity,
                             testConfig(PulseMethod::Pert,
                                        pulse::PulseGate::Identity));
    EXPECT_GT(gateFidelity(opt.program, la::identity2()), 1.0 - 1e-4);
    auto gauss = pulse::PulseLibrary::gaussian().get(
        pulse::PulseGate::Identity);
    const double g =
        oneQubitCrosstalkInfidelity(gauss, la::identity2(), khz(200.0));
    const double o = oneQubitCrosstalkInfidelity(
        opt.program, la::identity2(), khz(200.0));
    EXPECT_LT(o, g / 5.0);
}

TEST(PulseOptTest, CoeffsRoundTrip)
{
    auto cfg =
        testConfig(PulseMethod::Pert, pulse::PulseGate::SX);
    cfg.adam.max_iters = 30;
    auto opt =
        optimizePulse(PulseMethod::Pert, pulse::PulseGate::SX, cfg);
    ASSERT_EQ(opt.coeffs.size(), 2u);
    auto rebuilt = programFromCoeffs(opt.coeffs, cfg.t_gate);
    for (double t : {1.0, 7.0, 13.0, 19.0}) {
        EXPECT_NEAR(rebuilt.x_a->value(t), opt.program.x_a->value(t),
                    1e-12);
        EXPECT_NEAR(rebuilt.y_a->value(t), opt.program.y_a->value(t),
                    1e-12);
    }
}

TEST(PulseOptTest, MethodNames)
{
    EXPECT_EQ(pulseMethodName(PulseMethod::Gaussian), "Gaussian");
    EXPECT_EQ(pulseMethodName(PulseMethod::OptCtrl), "OptCtrl");
    EXPECT_EQ(pulseMethodName(PulseMethod::Pert), "Pert");
    EXPECT_EQ(pulseMethodName(PulseMethod::DCG), "DCG");
}

TEST(PulseOptTest, GaussianAndDcgLibrariesBuildWithoutOptimization)
{
    clearPulseLibraryCache();
    const auto gau = getPulseLibraryShared(PulseMethod::Gaussian);
    EXPECT_EQ(gau->name(), "Gaussian");
    const auto dcg = getPulseLibraryShared(PulseMethod::DCG);
    EXPECT_EQ(dcg->name(), "DCG");
    // Memoized: same object back.
    EXPECT_EQ(getPulseLibraryShared(PulseMethod::Gaussian).get(),
              gau.get());
}

TEST(PulseOptTest, OnlyOptimizableMethodsAccepted)
{
    EXPECT_THROW(optimizePulse(PulseMethod::Gaussian,
                               pulse::PulseGate::SX,
                               PulseOptConfig{}),
                 UserError);
}

TEST(PulseOptTest, MethodNameRoundTrips)
{
    for (PulseMethod m :
         {PulseMethod::Gaussian, PulseMethod::OptCtrl,
          PulseMethod::Pert, PulseMethod::DCG}) {
        auto parsed = pulseMethodFromName(pulseMethodName(m));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, m);
    }
    // Case-insensitive, plus the configName() abbreviation.
    EXPECT_EQ(pulseMethodFromName("pert"), PulseMethod::Pert);
    EXPECT_EQ(pulseMethodFromName("GAUSSIAN"), PulseMethod::Gaussian);
    EXPECT_EQ(pulseMethodFromName("Gau"), PulseMethod::Gaussian);
    EXPECT_EQ(pulseMethodFromName("dcg"), PulseMethod::DCG);
    EXPECT_FALSE(pulseMethodFromName("").has_value());
    EXPECT_FALSE(pulseMethodFromName("Pertt").has_value());
    EXPECT_FALSE(pulseMethodFromName("bogus").has_value());
}

TEST(PulseOptTest, SharedLibrarySurvivesCacheClear)
{
    clearPulseLibraryCache();
    auto gau = getPulseLibraryShared(PulseMethod::Gaussian);
    ASSERT_NE(gau, nullptr);
    clearPulseLibraryCache();
    EXPECT_EQ(gau->name(), "Gaussian");
    EXPECT_TRUE(gau->has(pulse::PulseGate::RZX));
    // A fresh request rebuilds; the old handle stays distinct but
    // valid.
    auto rebuilt = getPulseLibraryShared(PulseMethod::Gaussian);
    EXPECT_NE(rebuilt.get(), gau.get());
    EXPECT_EQ(rebuilt->name(), gau->name());
}

TEST(PulseOptTest, DeviceCalibratedObjectiveReadsSnapshotZz)
{
    // The calibrated defaults read the snapshot's per-edge ZZ rates:
    // lambda_intra becomes the mean coupling, and the OptCtrl sample
    // grid scales with it.
    Rng rng(8);
    const dev::Device device(graph::gridTopology(2, 3),
                             dev::DeviceParams{}, rng);
    const PulseOptConfig cfg = defaultPulseOptConfig(
        PulseMethod::Pert, pulse::PulseGate::RZX, device);
    EXPECT_DOUBLE_EQ(cfg.objective.lambda_intra,
                     device.calibration().meanZz());

    const PulseOptConfig base = defaultPulseOptConfig(
        PulseMethod::OptCtrl, pulse::PulseGate::SX);
    const PulseOptConfig scaled = defaultPulseOptConfig(
        PulseMethod::OptCtrl, pulse::PulseGate::SX, device);
    ASSERT_EQ(scaled.objective.lambda_samples.size(),
              base.objective.lambda_samples.size());
    const double ratio = device.calibration().meanZz() / khz(200.0);
    for (size_t i = 0; i < base.objective.lambda_samples.size(); ++i)
        EXPECT_DOUBLE_EQ(scaled.objective.lambda_samples[i],
                         base.objective.lambda_samples[i] * ratio);
}

TEST(PulseOptTest, LibraryMemoIsThreadSafe)
{
    // Hammer the memo from many threads while interleaving clears;
    // under TSan/ASan this catches races, and functionally every
    // fetched handle must stay a complete, valid library.
    clearPulseLibraryCache();
    constexpr int kThreads = 8;
    constexpr int kIters = 50;
    std::atomic<int> failures{0};
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &failures]() {
            for (int i = 0; i < kIters; ++i) {
                const PulseMethod m = (t + i) % 2 == 0
                                          ? PulseMethod::Gaussian
                                          : PulseMethod::DCG;
                auto lib = getPulseLibraryShared(m);
                if (lib == nullptr ||
                    lib->name() != pulseMethodName(m) ||
                    !lib->has(pulse::PulseGate::SX) ||
                    !lib->has(pulse::PulseGate::Identity))
                    failures.fetch_add(1);
                if (t == 0 && i % 10 == 9)
                    clearPulseLibraryCache();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    clearPulseLibraryCache();
}

} // namespace
} // namespace qzz::core
