#include "sim/density_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/units.h"

namespace qzz::sim {
namespace {

TEST(DensityMatrixTest, PureStateRoundTrip)
{
    StateVector psi(2);
    psi.apply1Q(ckt::gateMatrix({ckt::GateKind::H, {0}}), 0);
    DensityMatrix rho = DensityMatrix::fromPure(psi);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, UnitaryConjugationMatchesStateVector)
{
    StateVector psi(2);
    DensityMatrix rho(2);
    auto h = ckt::gateMatrix({ckt::GateKind::H, {0}});
    auto cx = ckt::gateMatrix({ckt::GateKind::CX, {0, 1}});
    psi.apply1Q(h, 0);
    psi.apply2Q(cx, 0, 1);
    // One step per gate, with unit phases and the identity channel.
    const la::Mat2 h2 = la::toMat2(h);
    const la::Mat4 cx4 = la::toMat4(cx);
    const StepJob first{h2.data(), 0, -1}, second{cx4.data(), 0, 1};
    const la::CVector ones(rho.dim(), 1.0);
    rho.applyStepUnitary(&first, 1, ones, {});
    rho.applyStepUnitary(&second, 1, ones, {});
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, RzMatchesStateVector)
{
    StateVector psi(1);
    DensityMatrix rho(1);
    auto h = ckt::gateMatrix({ckt::GateKind::H, {0}});
    psi.apply1Q(h, 0);
    rho.apply1QScalar(h, 0);
    psi.applyRz(0, 0.9);
    rho.applyRz(0, 0.9);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DiagonalPhaseMatchesStateVector)
{
    StateVector psi(2);
    DensityMatrix rho(2);
    auto h = ckt::gateMatrix({ckt::GateKind::H, {0}});
    for (int q = 0; q < 2; ++q) {
        psi.apply1Q(h, q);
        rho.apply1QScalar(h, q);
    }
    auto table = zzEnergyTable(2, {{0, 1}}, {khz(300.0)});
    psi.applyDiagonalPhase(table, 15.0);
    rho.applyDiagonalPhase(table, 15.0);
    EXPECT_NEAR(rho.expectationPure(psi), 1.0, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix rho(1);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::X, {0}}), 0);
    EXPECT_NEAR(rho.probabilityOne(0), 1.0, 1e-12);
    const double gamma = 0.25;
    rho.applyAmplitudeDamping(0, gamma);
    EXPECT_NEAR(rho.probabilityOne(0), 0.75, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, RepeatedDampingIsExponential)
{
    DensityMatrix rho(1);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::X, {0}}), 0);
    const double dt = 10.0, t1 = 100.0;
    const double gamma = 1.0 - std::exp(-dt / t1);
    for (int i = 0; i < 10; ++i)
        rho.applyAmplitudeDamping(0, gamma);
    EXPECT_NEAR(rho.probabilityOne(0), std::exp(-100.0 / t1), 1e-9);
}

TEST(DensityMatrixTest, DephasingKillsCoherenceOnly)
{
    DensityMatrix rho(1);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::H, {0}}), 0);
    rho.applyDephasing(0, 0.5);
    EXPECT_NEAR(rho.probabilityOne(0), 0.5, 1e-12); // populations kept
    EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.25, 1e-12);
}

TEST(DensityMatrixTest, DampingOnOneQubitLeavesOthersAlone)
{
    DensityMatrix rho(2);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::X, {0}}), 0);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::X, {0}}), 1);
    rho.applyAmplitudeDamping(0, 0.5);
    EXPECT_NEAR(rho.probabilityOne(0), 0.5, 1e-12);
    EXPECT_NEAR(rho.probabilityOne(1), 1.0, 1e-12);
}

TEST(DensityMatrixTest, PerQubitDecoherenceSweep)
{
    // Heterogeneous rates: qubit 0 damps, qubit 1 only dephases,
    // qubit 2 is untouched — in one sweep.
    DensityMatrix rho(3);
    for (int q = 0; q < 3; ++q)
        rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::H, {0}}), q);
    DecoherenceChannel channel;
    channel.assign(3, {0.5, 0.0, 0.0}, {1.0, 0.5, 1.0});
    rho.applyPhaseVector(la::CVector(rho.dim(), 1.0), channel);
    rho.applyTransfers(channel);

    DensityMatrix expected(3);
    for (int q = 0; q < 3; ++q)
        expected.apply1QScalar(ckt::gateMatrix({ckt::GateKind::H, {0}}), q);
    expected.applyAmplitudeDamping(0, 0.5);
    expected.applyDephasing(1, 0.5);
    for (size_t r = 0; r < rho.dim(); ++r)
        for (size_t c = 0; c < rho.dim(); ++c)
            EXPECT_NEAR(std::abs(rho.matrix()(r, c) -
                                 expected.matrix()(r, c)),
                        0.0, 1e-14);

    EXPECT_THROW(channel.assign(3, {0.5}, {1.0}), UserError);
}

TEST(DensityMatrixTest, MixedStateExpectation)
{
    DensityMatrix rho(1);
    rho.apply1QScalar(ckt::gateMatrix({ckt::GateKind::H, {0}}), 0);
    rho.applyDephasing(0, 0.0); // fully mixed in x-basis
    StateVector plus(1);
    plus.apply1Q(ckt::gateMatrix({ckt::GateKind::H, {0}}), 0);
    EXPECT_NEAR(rho.expectationPure(plus), 0.5, 1e-12);
}

} // namespace
} // namespace qzz::sim
