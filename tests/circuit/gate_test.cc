#include "circuit/gate.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/units.h"
#include "linalg/expm.h"

namespace qzz::ckt {
namespace {

using la::CMatrix;
using la::distance;
using la::kron;

TEST(GateTest, NativePredicate)
{
    EXPECT_TRUE(Gate(GateKind::SX, {0}).isNative());
    EXPECT_TRUE(Gate(GateKind::I, {0}).isNative());
    EXPECT_TRUE(Gate(GateKind::RZ, {0}, {0.3}).isNative());
    EXPECT_TRUE(Gate(GateKind::RZX, {0, 1}, {kPi / 2.0}).isNative());
    EXPECT_FALSE(Gate(GateKind::RZX, {0, 1}, {kPi / 4.0}).isNative());
    EXPECT_FALSE(Gate(GateKind::H, {0}).isNative());
    EXPECT_FALSE(Gate(GateKind::CX, {0, 1}).isNative());
}

TEST(GateTest, VirtualPredicate)
{
    EXPECT_TRUE(Gate(GateKind::RZ, {0}, {0.1}).isVirtual());
    EXPECT_FALSE(Gate(GateKind::SX, {0}).isVirtual());
}

TEST(GateTest, SxSquaredIsX)
{
    CMatrix sx = gateMatrix({GateKind::SX, {0}});
    CMatrix x = gateMatrix({GateKind::X, {0}});
    EXPECT_LT(la::phaseDistance(sx * sx, x), 1e-12);
}

TEST(GateTest, HadamardSelfInverse)
{
    CMatrix h = gateMatrix({GateKind::H, {0}});
    EXPECT_TRUE((h * h).isIdentity(1e-12));
}

TEST(GateTest, SAndTPowers)
{
    CMatrix s = gateMatrix({GateKind::S, {0}});
    CMatrix t = gateMatrix({GateKind::T, {0}});
    CMatrix z = gateMatrix({GateKind::Z, {0}});
    EXPECT_LT(distance(s * s, z), 1e-12);
    EXPECT_LT(distance(t * t, s), 1e-12);
    CMatrix sdg = gateMatrix({GateKind::SDG, {0}});
    EXPECT_TRUE((s * sdg).isIdentity(1e-12));
    CMatrix tdg = gateMatrix({GateKind::TDG, {0}});
    EXPECT_TRUE((t * tdg).isIdentity(1e-12));
}

TEST(GateTest, RotationsMatchExponentials)
{
    const double th = 0.987;
    EXPECT_LT(distance(gateMatrix({GateKind::RX, {0}, {th}}),
                       la::expPauli(th / 2.0, 0.0, 0.0)),
              1e-12);
    EXPECT_LT(distance(gateMatrix({GateKind::RY, {0}, {th}}),
                       la::expPauli(0.0, th / 2.0, 0.0)),
              1e-12);
    EXPECT_LT(distance(gateMatrix({GateKind::RZ, {0}, {th}}),
                       la::expPauli(0.0, 0.0, th / 2.0)),
              1e-12);
}

TEST(GateTest, U3Specializations)
{
    // U3(theta, -pi/2, pi/2) = RX(theta); U3(theta, 0, 0) = RY(theta).
    const double th = 1.1;
    EXPECT_LT(la::phaseDistance(
                  gateMatrix({GateKind::U3, {0}, {th, -kPi / 2, kPi / 2}}),
                  gateMatrix({GateKind::RX, {0}, {th}})),
              1e-12);
    EXPECT_LT(la::phaseDistance(
                  gateMatrix({GateKind::U3, {0}, {th, 0.0, 0.0}}),
                  gateMatrix({GateKind::RY, {0}, {th}})),
              1e-12);
}

TEST(GateTest, CxActsOnBasis)
{
    CMatrix cx = gateMatrix({GateKind::CX, {0, 1}});
    // |10> -> |11>.
    EXPECT_EQ(cx(3, 2), la::cplx(1.0));
    EXPECT_EQ(cx(2, 3), la::cplx(1.0));
    EXPECT_EQ(cx(0, 0), la::cplx(1.0));
}

TEST(GateTest, CzIsDiagonal)
{
    CMatrix cz = gateMatrix({GateKind::CZ, {0, 1}});
    EXPECT_EQ(cz(3, 3), la::cplx(-1.0));
    EXPECT_EQ(cz(2, 2), la::cplx(1.0));
}

TEST(GateTest, RzxBlockStructure)
{
    // Rzx(pi/2) = |0><0| (x) Rx(pi/2) + |1><1| (x) Rx(-pi/2).
    CMatrix rzx = gateMatrix({GateKind::RZX, {0, 1}, {kPi / 2.0}});
    CMatrix rxp = la::expPauli(kPi / 4.0, 0.0, 0.0);
    CMatrix rxm = la::expPauli(-kPi / 4.0, 0.0, 0.0);
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c) {
            EXPECT_NEAR(std::abs(rzx(r, c) - rxp(r, c)), 0.0, 1e-12);
            EXPECT_NEAR(std::abs(rzx(2 + r, 2 + c) - rxm(r, c)), 0.0,
                        1e-12);
        }
}

TEST(GateTest, RzzIsDiagonalPhase)
{
    const double th = 0.4;
    CMatrix rzz = gateMatrix({GateKind::RZZ, {0, 1}, {th}});
    EXPECT_NEAR(std::abs(rzz(0, 0) - std::exp(-la::kI * th / 2.0)), 0.0,
                1e-12);
    EXPECT_NEAR(std::abs(rzz(1, 1) - std::exp(la::kI * th / 2.0)), 0.0,
                1e-12);
}

TEST(GateTest, SwapMatrix)
{
    CMatrix sw = gateMatrix({GateKind::SWAP, {0, 1}});
    EXPECT_EQ(sw(1, 2), la::cplx(1.0));
    EXPECT_EQ(sw(2, 1), la::cplx(1.0));
    EXPECT_TRUE((sw * sw).isIdentity(1e-12));
}

TEST(GateTest, CpMatchesDefinition)
{
    const double th = 1.3;
    CMatrix cp = gateMatrix({GateKind::CP, {0, 1}, {th}});
    EXPECT_NEAR(std::abs(cp(3, 3) - std::exp(la::kI * th)), 0.0, 1e-12);
    EXPECT_EQ(cp(1, 1), la::cplx(1.0));
}

TEST(GateTest, AllMatricesUnitary)
{
    std::vector<Gate> gates = {
        {GateKind::SX, {0}},
        {GateKind::H, {0}},
        {GateKind::U3, {0}, {0.3, 1.2, -0.4}},
        {GateKind::RZX, {0, 1}, {kPi / 2.0}},
        {GateKind::CX, {0, 1}},
        {GateKind::CP, {0, 1}, {0.9}},
        {GateKind::RZZ, {0, 1}, {0.7}},
        {GateKind::SWAP, {0, 1}},
    };
    for (const Gate &g : gates)
        EXPECT_TRUE(gateMatrix(g).isUnitary(1e-12)) << g.toString();
}

TEST(GateTest, ToStringFormat)
{
    Gate g(GateKind::CX, {2, 3});
    EXPECT_EQ(g.toString(), "CX[2,3]");
}

TEST(GateTest, EveryKindFitsInlineOperands)
{
    // A full-width gate of every kind fits the inline storage, and
    // gateMatrix() never reads a parameter past its capacity (it would
    // throw "missing parameter").
    for (int k = 0; k <= int(kLastGateKind); ++k) {
        Gate g;
        g.kind = GateKind(k);
        ASSERT_NE(gateKindName(g.kind), "?");
        for (int q = 0; q < gateArity(g.kind); ++q)
            g.qubits.push_back(q);
        g.params.resize(Gate::Params::capacity());
        const size_t dim = size_t(1) << g.qubits.size();
        la::CMatrix m;
        EXPECT_NO_THROW(m = gateMatrix(g)) << g.toString();
        EXPECT_EQ(m.rows(), dim) << g.toString();
    }
}

TEST(GateTest, OverflowingInlineOperandsIsAUserError)
{
    EXPECT_THROW(Gate(GateKind::CX, {0, 1, 2}), UserError);
    EXPECT_THROW(Gate(GateKind::U3, {0}, {0.1, 0.2, 0.3, 0.4}), UserError);
    Gate g(GateKind::CX, {0, 1});
    EXPECT_THROW(g.qubits.push_back(2), UserError);
    EXPECT_THROW(g.params.resize(4), UserError);
    EXPECT_EQ(g.qubits.size(), 2u);
    EXPECT_TRUE(g.params.empty());
}

TEST(GateTest, InlineOperandsBehaveLikeVectors)
{
    Gate::Params p;
    EXPECT_TRUE(p.empty());
    p.push_back(1.5);
    p.resize(3);
    EXPECT_EQ(p, (Gate::Params{1.5, 0.0, 0.0}));
    p.resize(1);
    p.resize(2); // regrown slots are value-initialized again
    EXPECT_EQ(p, (Gate::Params{1.5, 0.0}));
    EXPECT_FALSE(p == (Gate::Params{1.5}));

    // Lexicographic, like std::vector: a prefix sorts first.
    EXPECT_TRUE((Gate::Qubits{0}) < (Gate::Qubits{0, 1}));
    EXPECT_TRUE((Gate::Qubits{0, 2}) < (Gate::Qubits{1}));
    EXPECT_FALSE((Gate::Qubits{1, 0}) < (Gate::Qubits{1, 0}));

    int sum = 0;
    for (int q : Gate::Qubits{3, 4})
        sum += q;
    EXPECT_EQ(sum, 7);
}

} // namespace
} // namespace qzz::ckt
