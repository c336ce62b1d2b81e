/**
 * @file
 * Optimized-kernel vs scalar-reference equivalence suite.
 *
 * The density-matrix Strang step, the memoized step propagators,
 * and the phase-vector sweeps are performance rewrites that must not
 * move physics: every test here pins an optimized path against the
 * retained scalar reference on randomized states, across register
 * sizes that cover both the serial (n < 8) and the pool-split
 * (n >= 8) kernels.  Runs under ASan and TSan in CI (label
 * unit-service), so the shared-pool splits are raced deliberately.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/par_sched.h"
#include "graph/topologies.h"
#include "linalg/expm.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {
namespace {

using la::CMatrix;
using la::cplx;

CMatrix
randomMatrix(Rng &rng, size_t n)
{
    CMatrix m(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < n; ++c)
            m(r, c) = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return m;
}

/** A random unitary via the propagator of a random Hermitian. */
CMatrix
randomUnitary(Rng &rng, size_t n)
{
    CMatrix h = randomMatrix(rng, n);
    h = h + h.dagger();
    return la::expmPropagator(h, 0.37);
}

DensityMatrix
randomState(Rng &rng, int n)
{
    // A random mixed state: conjugate a random diagonal by a random
    // unitary-ish matrix; normalization is irrelevant for kernel
    // equivalence, only the element values matter.
    DensityMatrix dm(n);
    CMatrix &rho = dm.matrix();
    rho = randomMatrix(rng, dm.dim());
    rho = rho * rho.dagger(); // Hermitian positive
    rho *= cplx{1.0 / rho.trace().real(), 0.0}; // unit trace, like a real rho
    return dm;
}

/** The unit phase vector of an @p n-qubit register: a step with it
 *  and the identity channel is its jobs' conjugation alone. */
la::CVector
unitPhases(int n)
{
    return la::CVector(size_t(1) << n, cplx{1.0, 0.0});
}

double
maxAbsDiff(const CMatrix &a, const CMatrix &b)
{
    double worst = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    return worst;
}

TEST(KernelEquivalence, Fused1QMatchesScalarAcrossSizes)
{
    Rng rng(11);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 2);
        const la::Mat2 m = la::toMat2(u);
        for (int q = 0; q < n; ++q) {
            DensityMatrix a = randomState(rng, n);
            DensityMatrix b = a;
            const StepJob job{m.data(), q, -1};
            a.applyStepUnitary(&job, 1, unitPhases(n), {});
            b.apply1QScalar(u, q);
            EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(KernelEquivalence, Fused2QMatchesScalarAcrossPairs)
{
    Rng rng(12);
    for (int n = 2; n <= 8; ++n) {
        const CMatrix u = randomUnitary(rng, 4);
        const la::Mat4 m = la::toMat4(u);
        for (int qa = 0; qa < n; ++qa)
            for (int qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                DensityMatrix a = randomState(rng, n);
                DensityMatrix b = a;
                const StepJob job{m.data(), qa, qb};
                a.applyStepUnitary(&job, 1, unitPhases(n), {});
                b.apply2QScalar(u, qa, qb);
                EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14)
                    << "n=" << n << " pair=(" << qa << "," << qb << ")";
            }
    }
}

TEST(KernelEquivalence, FusedDecoherenceMatchesSequentialChannels)
{
    Rng rng(13);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> gamma(size_t(n), 0.0);
        std::vector<double> keep(size_t(n), 1.0);
        for (int q = 0; q < n; ++q) {
            // Mix lossy, dephasing-only, damping-only, and coherent
            // qubits so every fused-branch combination is exercised.
            switch (q % 4) {
            case 0:
                gamma[size_t(q)] = rng.uniform(0.0, 0.2);
                keep[size_t(q)] = rng.uniform(0.8, 1.0);
                break;
            case 1:
                gamma[size_t(q)] = 0.0;
                keep[size_t(q)] = rng.uniform(0.8, 1.0);
                break;
            case 2:
                gamma[size_t(q)] = rng.uniform(0.0, 0.2);
                keep[size_t(q)] = 1.0;
                break;
            default:
                gamma[size_t(q)] = 0.0;
                keep[size_t(q)] = 1.0;
                break;
            }
        }
        DecoherenceChannel channel;
        channel.assign(n, gamma, keep);
        DensityMatrix a = randomState(rng, n);
        DensityMatrix b = a;
        a.applyPhaseVector(unitPhases(n), channel);
        a.applyTransfers(channel);
        b.applyDecoherenceScalar(gamma, keep);
        EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-14) << "n=" << n;
    }
}

TEST(KernelEquivalence, PhaseVectorMatchesDiagonalPhase)
{
    Rng rng(14);
    for (int n = 2; n <= 8; ++n) {
        std::vector<double> energies(size_t(1) << n);
        for (double &e : energies)
            e = rng.uniform(-5.0, 5.0);
        const double dt = 0.087;
        DensityMatrix a = randomState(rng, n);
        DensityMatrix b = a;
        a.applyPhaseVector(phaseVector(energies, dt));
        b.applyDiagonalPhase(energies, dt);
        // Not bit-identical (different trig evaluation), but the
        // phases agree to ~1 ulp per element.
        EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13) << "n=" << n;
    }
}

TEST(KernelEquivalence, StateVectorPhaseVectorMatchesDiagonalPhase)
{
    Rng rng(15);
    const int n = 6;
    std::vector<double> energies(size_t(1) << n);
    for (double &e : energies)
        e = rng.uniform(-5.0, 5.0);
    StateVector a(n), b(n);
    for (size_t k = 0; k < a.dim(); ++k)
        a.amplitudes()[k] = b.amplitudes()[k] =
            cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double dt = 0.059;
    a.applyPhaseVector(phaseVector(energies, dt));
    b.applyDiagonalPhase(energies, dt);
    for (size_t k = 0; k < a.dim(); ++k)
        EXPECT_LE(std::abs(a.amplitudes()[k] - b.amplitudes()[k]), 1e-13);
}

TEST(KernelEquivalence, FixedSizePropagatorMatchesHeapExpm)
{
    Rng rng(16);
    for (int trial = 0; trial < 20; ++trial) {
        CMatrix h = randomMatrix(rng, 4);
        h = h + h.dagger();
        // Cover both the unscaled and the scaled-and-squared branch.
        const double t = trial % 2 == 0 ? 0.05 : 9.0;
        const CMatrix want = la::expmPropagator(h, t);
        la::Mat4 got;
        la::expmPropagator4(la::toMat4(h), t, got);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LE(std::abs(got[i] - want(i / 4, i % 4)), 1e-13);
    }
}

TEST(KernelEquivalence, MemoizedPropagatorsMatchDirectComputation)
{
    const pulse::PulseLibrary lib = pulse::PulseLibrary::gaussian();
    const double dt = 0.1;
    StepPropagatorMemo memo;
    const auto &sx = lib.get(pulse::PulseGate::SX);
    const auto &rzx = lib.get(pulse::PulseGate::RZX);
    for (size_t s = 0; s < 40; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        la::Mat2 m2;
        drive1QStep(sx, t_mid, dt, m2);
        const la::Mat2 &c2 = memo.get1Q(sx, pulse::PulseGate::SX, s, dt);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_EQ(m2[i], c2[i]);
        la::Mat4 m4;
        drive2QStep(rzx, t_mid, dt, m4);
        const la::Mat4 &c4 = memo.get2Q(rzx, pulse::PulseGate::RZX, s, dt);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_EQ(m4[i], c4[i]);
    }
    // The second pass over the same steps must hit the cache.
    const auto misses = memo.misses();
    (void)memo.get1Q(sx, pulse::PulseGate::SX, 7, dt);
    (void)memo.get2Q(rzx, pulse::PulseGate::RZX, 7, dt);
    EXPECT_EQ(memo.misses(), misses);
    // A different dt invalidates.
    (void)memo.get1Q(sx, pulse::PulseGate::SX, 7, dt / 2.0);
    EXPECT_EQ(memo.misses(), misses + 1);
}

dev::Device
gridDevice(int rows, int cols, uint64_t seed = 7)
{
    Rng rng(seed);
    return dev::Device(graph::gridTopology(rows, cols),
                       dev::DeviceParams{}, rng);
}

core::Schedule
fig23StyleSchedule(const dev::Device &dev, int n)
{
    ckt::QuantumCircuit c(n);
    for (int rep = 0; rep < 3; ++rep) {
        for (int q = 0; q < n; ++q)
            c.sx(q);
        c.rzx(0, 1, kPi / 2.0);
        if (n >= 4)
            c.rzx(2, 3, kPi / 2.0);
    }
    return core::parSchedule(c, dev, core::GateDurations{});
}

TEST(KernelEquivalence, DensitySimulatorMatchesScalarReferencePath)
{
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    DensityMatrix a =
        DensityMatrixScheduleSimulator(dev, lib, fast).run(sched);
    DensityMatrix b =
        DensityMatrixScheduleSimulator(dev, lib, ref).run(sched);
    // Memoized propagators are exact; only the phase sweeps differ at
    // the last ulp per step, so the paths track each other to ~1e-12
    // over a thousand steps.
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
    EXPECT_NEAR(a.trace(), 1.0, 1e-9);
}

TEST(KernelEquivalence, StateVectorSimulatorMatchesScalarReferencePath)
{
    const auto dev = gridDevice(2, 3);
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    StateVector a = PulseScheduleSimulator(dev, lib, fast).run(sched);
    StateVector b = PulseScheduleSimulator(dev, lib, ref).run(sched);
    EXPECT_GT(a.fidelity(b), 1.0 - 1e-10);
    for (size_t k = 0; k < a.dim(); ++k)
        EXPECT_LE(std::abs(a.amplitudes()[k] - b.amplitudes()[k]), 1e-10);
}

TEST(KernelEquivalence, DecoherentSimulatorGoldenFidelity)
{
    // Fig. 23-style golden: a lossy device run through both paths
    // must land on the same |00..0> fidelity.  Guards the fused
    // decoherence + unmerged half-step branch end to end.
    graph::Topology topo = graph::gridTopology(2, 2);
    dev::DeviceParams params;
    Rng rng(4);
    dev::Calibration calib = dev::Calibration::sampled(topo, params, rng);
    for (int q = 0; q < 4; ++q) {
        calib.t1[size_t(q)] = 5000.0;
        calib.t2[size_t(q)] = 3000.0;
    }
    const dev::Device dev(topo, calib);
    const auto sched = fig23StyleSchedule(dev, 4);
    const auto lib = pulse::PulseLibrary::gaussian();

    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    DensityMatrix a =
        DensityMatrixScheduleSimulator(dev, lib, fast).run(sched);
    DensityMatrix b =
        DensityMatrixScheduleSimulator(dev, lib, ref).run(sched);
    StateVector zero(4);
    EXPECT_NEAR(a.expectationPure(zero), b.expectationPure(zero), 1e-10);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
}

// --- the Strang step as A (A rho)^dag --------------------------------

enum class Coherence
{
    Coherent, ///< T1 = T2 = inf on every qubit
    Lossy,    ///< finite T1 and T2 on every qubit
    Mixed,    ///< per qubit: both, T1 only, T2 only, coherent
};

/** A line of @p n qubits whose per-qubit T1/T2 follow @p coh; short
 *  coherence times make the channel's terms large enough to show. */
dev::Device
lineDevice(int n, Coherence coh, uint64_t seed)
{
    const graph::Topology topo = graph::lineTopology(n);
    Rng rng(seed);
    dev::Calibration calib =
        dev::Calibration::sampled(topo, dev::DeviceParams{}, rng);
    const double inf = std::numeric_limits<double>::infinity();
    for (int q = 0; q < n; ++q) {
        const double t1 = 3000.0 + 250.0 * q;
        const double t2 = 2500.0 + 200.0 * q;
        const int kind = coh == Coherence::Lossy      ? 0
                         : coh == Coherence::Coherent ? 3
                                                      : q % 4;
        calib.t1[size_t(q)] = kind == 0 || kind == 1 ? t1 : inf;
        calib.t2[size_t(q)] = kind == 0 || kind == 2 ? t2 : inf;
    }
    return dev::Device(topo, calib);
}

core::ScheduledGate
scheduled(ckt::GateKind kind, std::initializer_list<int> qubits)
{
    core::ScheduledGate sg;
    if (kind == ckt::GateKind::RZX)
        sg.gate = ckt::Gate(kind, {*qubits.begin(), *(qubits.begin() + 1)},
                            {kPi / 2.0});
    else
        sg.gate = ckt::Gate(kind, {*qubits.begin()});
    return sg;
}

enum class LayerKind
{
    OneQubit, ///< SX on every qubit
    TwoQubit, ///< RZX on disjoint neighbour pairs
    Mixed,    ///< RZX on (0, 1), SX on the rest
    Idle,     ///< Mixed, held past every pulse's end
};

core::Layer
testLayer(int n, LayerKind kind, const pulse::PulseLibrary &lib, double dt)
{
    const double t_sx = lib.get(pulse::PulseGate::SX).duration;
    const double t_rzx = lib.get(pulse::PulseGate::RZX).duration;
    core::Layer layer;
    switch (kind) {
    case LayerKind::OneQubit:
        for (int q = 0; q < n; ++q)
            layer.gates.push_back(scheduled(ckt::GateKind::SX, {q}));
        layer.duration = t_sx;
        break;
    case LayerKind::TwoQubit:
        for (int q = 0; q + 1 < n; q += 2)
            layer.gates.push_back(
                scheduled(ckt::GateKind::RZX, {q, q + 1}));
        layer.duration = t_rzx;
        break;
    case LayerKind::Mixed:
    case LayerKind::Idle:
        layer.gates.push_back(scheduled(ckt::GateKind::RZX, {0, 1}));
        for (int q = 2; q < n; ++q)
            layer.gates.push_back(scheduled(ckt::GateKind::SX, {q}));
        layer.duration = std::max(t_sx, t_rzx);
        if (kind == LayerKind::Idle)
            layer.duration += 6.0 * dt;
        break;
    }
    return layer;
}

double
maxAntiHermitian(const CMatrix &m)
{
    double worst = 0.0;
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            worst = std::max(worst, std::abs(m(r, c) - std::conj(m(c, r))));
    return worst;
}

TEST(KernelEquivalence, StrangStepMatchesScalarLayerAcrossSizes)
{
    // Every register size from 2 to 8 qubits (the serial and the
    // pool-split passes), coherent / lossy / mixed per-qubit devices,
    // and 1Q-only, 2Q-only, mixed and trailing-idle layers (steps
    // where A is diagonal), one layer at a time from a random state.
    // A coarse dt keeps the scalar reference cheap at n = 8; the step
    // arithmetic does not depend on it.
    const auto lib = pulse::PulseLibrary::gaussian();
    const double dt = 2.0;
    Rng rng(18);
    for (int n = 2; n <= 8; ++n)
        for (Coherence coh :
             {Coherence::Coherent, Coherence::Lossy, Coherence::Mixed}) {
            const dev::Device dev = lineDevice(n, coh, uint64_t(n));
            PulseSimOptions fast;
            fast.dt = dt;
            PulseSimOptions ref = fast;
            ref.scalar_reference = true;
            const DensityMatrixScheduleSimulator fast_sim(dev, lib, fast);
            const DensityMatrixScheduleSimulator ref_sim(dev, lib, ref);
            for (LayerKind kind : {LayerKind::OneQubit, LayerKind::TwoQubit,
                                   LayerKind::Mixed, LayerKind::Idle}) {
                const core::Layer layer = testLayer(n, kind, lib, dt);
                DensityMatrix a = randomState(rng, n);
                DensityMatrix b = a;
                fast_sim.runLayer(layer, a);
                ref_sim.runLayer(layer, b);
                EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13)
                    << "n=" << n << " coherence=" << int(coh)
                    << " layer=" << int(kind);
            }
        }
}

/** The Fig. 23 setting: T1 = T2 = 100 us on the 2x3 grid. */
dev::Device
fig23Device()
{
    return gridDevice(2, 3).withCoherence(us(100.0), us(100.0));
}

TEST(KernelEquivalence, LossyFig23ScheduleMatchesScalarAndStaysHermitian)
{
    const dev::Device dev = fig23Device();
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    const DensityMatrix a =
        DensityMatrixScheduleSimulator(dev, lib, fast).run(sched);
    const DensityMatrix b =
        DensityMatrixScheduleSimulator(dev, lib, ref).run(sched);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
    // Each step reads rho as its own adjoint; the rounding that makes
    // it not exactly so must not build up over the schedule.
    EXPECT_LE(maxAntiHermitian(a.matrix()), 1e-14);
}

TEST(KernelEquivalence, CallerPreparedStateMatchesScalar)
{
    const dev::Device dev = fig23Device();
    const auto sched = fig23StyleSchedule(dev, 6);
    const auto lib = pulse::PulseLibrary::gaussian();
    PulseSimOptions fast;
    fast.dt = 0.1;
    PulseSimOptions ref = fast;
    ref.scalar_reference = true;

    Rng rng(19);
    DensityMatrix a = randomState(rng, 6);
    DensityMatrix b = a;
    DensityMatrixScheduleSimulator(dev, lib, fast).run(sched, a);
    DensityMatrixScheduleSimulator(dev, lib, ref).run(sched, b);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-11);
}

TEST(KernelEquivalence, StepUnitaryIsTheConjugationTimesTheFactorTable)
{
    // One applyStepUnitary against its definition built from the
    // scalar kernels: P(dt/2), every job, P(dt/2), then the channel's
    // diagonal part alone (decay without the transfer: the transfer
    // pass runs separately).
    Rng rng(20);
    const int n = 5;
    std::vector<double> energies(size_t(1) << n);
    for (double &e : energies)
        e = rng.uniform(-5.0, 5.0);
    const double dt = 0.07;
    const la::CVector p = phaseVector(energies, dt);
    const CMatrix u4 = randomUnitary(rng, 4);
    const CMatrix u2 = randomUnitary(rng, 2);
    const la::Mat4 m4 = la::toMat4(u4);
    const la::Mat2 m2 = la::toMat2(u2);
    const StepJob jobs[] = {{m2.data(), 4, -1}, {m4.data(), 1, 3}};
    std::vector<double> gamma(size_t(n), 0.0), keep(size_t(n), 1.0);
    gamma[0] = 0.03;
    keep[2] = 0.9;
    DecoherenceChannel channel;
    channel.assign(n, gamma, keep);

    DensityMatrix a = randomState(rng, n);
    DensityMatrix b = a;
    a.applyStepUnitary(jobs, 2, p, channel);
    a.applyTransfers(channel);
    b.applyDiagonalPhase(energies, dt);
    b.apply1QScalar(u2, 4);
    b.apply2QScalar(u4, 1, 3);
    b.applyDiagonalPhase(energies, dt);
    b.applyDecoherenceScalar(gamma, keep);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13);
}

TEST(KernelEquivalence, PoolSplitKernelsMatchAtEightQubits)
{
    // n = 8 crosses the parallelFor threshold (dim 256): every pass
    // of the step splits across the shared pool.  Equivalence here
    // plus the TSan CI leg checks both correctness and data-race
    // freedom of the block partitioning.
    Rng rng(17);
    const int n = 8;
    const CMatrix u2 = randomUnitary(rng, 2);
    const CMatrix u4 = randomUnitary(rng, 4);
    const la::Mat2 m2 = la::toMat2(u2);
    const la::Mat4 m4 = la::toMat4(u4);
    const StepJob jobs[] = {{m2.data(), 3, -1}, {m4.data(), 1, 6}};
    std::vector<double> gamma(size_t(n), 0.01), keep(size_t(n), 0.995);
    DecoherenceChannel channel;
    channel.assign(n, gamma, keep);
    DensityMatrix a = randomState(rng, n);
    DensityMatrix b = a;

    a.applyStepUnitary(jobs, 2, unitPhases(n), channel);
    a.applyTransfers(channel);
    b.apply1QScalar(u2, 3);
    b.apply2QScalar(u4, 1, 6);
    b.applyDecoherenceScalar(gamma, keep);
    EXPECT_LE(maxAbsDiff(a.matrix(), b.matrix()), 1e-13);
}

} // namespace
} // namespace qzz::sim
