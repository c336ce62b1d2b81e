#include "sim/lindblad.h"

#include <cmath>

#include "common/error.h"
#include "sim/drive_step.h"

namespace qzz::sim {

using la::CMatrix;
using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

DensityMatrixScheduleSimulator::DensityMatrixScheduleSimulator(
    const dev::Device &device, const pulse::PulseLibrary &library,
    PulseSimOptions options)
    : device_(device), library_(library), options_(options)
{
    require(options_.dt > 0.0, "DensityMatrixScheduleSimulator: bad dt");
    std::vector<std::array<int, 2>> edges;
    std::vector<double> lambdas;
    for (const graph::Edge &e : device_.graph().edges()) {
        edges.push_back({e.u, e.v});
        lambdas.push_back(device_.coupling(e.id) *
                          options_.crosstalk_scale);
    }
    zz_energies_ = zzEnergyTable(device_.numQubits(), edges, lambdas);
    for (int q = 0; q < device_.numQubits(); ++q)
        if (std::isfinite(device_.t1(q)) ||
            std::isfinite(device_.t2(q)))
            any_decoherence_ = true;
    if (options_.telemetry)
        metrics_ = simMetrics("density");
}

namespace {

struct Job
{
    const PulseProgram *program;
    PulseGate kind;
    int q0, q1; // q1 = -1 for single-qubit jobs
};

std::vector<Job>
collectJobs(const core::Layer &layer, const pulse::PulseLibrary &library)
{
    std::vector<Job> jobs;
    jobs.reserve(layer.gates.size());
    for (const core::ScheduledGate &sg : layer.gates) {
        const PulseGate kind = pulseGateOf(sg.gate);
        Job j;
        j.program = &library.get(kind);
        j.kind = kind;
        j.q0 = sg.gate.qubits[0];
        j.q1 = sg.gate.isTwoQubit() ? sg.gate.qubits[1] : -1;
        jobs.push_back(j);
    }
    return jobs;
}

size_t
layerSteps(const core::Layer &layer, double dt_opt, double &dt)
{
    const size_t steps = std::max<size_t>(
        1, size_t(std::ceil(layer.duration / dt_opt)));
    dt = layer.duration / double(steps);
    return steps;
}

} // namespace

void
DensityMatrixScheduleSimulator::decoherenceFactors(
    double dt, std::vector<double> &gamma,
    std::vector<double> &keep) const
{
    const int n = device_.numQubits();
    gamma.assign(size_t(n), 0.0);
    keep.assign(size_t(n), 1.0);
    for (int q = 0; q < n; ++q) {
        // Each qubit decays at its own calibrated rates (the snapshot
        // is heterogeneous in general): gamma from T1(q), and the
        // pure-dephasing keep factor from 1/T_phi = 1/T2 - 1/(2 T1).
        const double t1 = device_.t1(q);
        const double t2 = device_.t2(q);
        if (std::isfinite(t1))
            gamma[size_t(q)] = 1.0 - std::exp(-dt / t1);
        double rate_phi = 0.0;
        if (std::isfinite(t2))
            rate_phi = 1.0 / t2 - (std::isfinite(t1) ? 0.5 / t1 : 0.0);
        rate_phi = std::max(0.0, rate_phi);
        keep[size_t(q)] = std::exp(-dt * rate_phi);
    }
}

void
DensityMatrixScheduleSimulator::runLayer(const core::Layer &layer,
                                         DensityMatrix &rho) const
{
    StepWorkspace ws;
    runLayerImpl(layer, rho, ws);
}

void
DensityMatrixScheduleSimulator::runLayerImpl(const core::Layer &layer,
                                             DensityMatrix &rho,
                                             StepWorkspace &ws) const
{
    if (layer.is_virtual) {
        for (const core::ScheduledGate &sg : layer.gates)
            rho.applyRz(sg.gate.qubits[0], sg.gate.params[0]);
        return;
    }
    if (layer.duration <= 0.0)
        return;
    if (options_.scalar_reference) {
        runLayerScalar(layer, rho);
        return;
    }

    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);
    const std::vector<Job> jobs = collectJobs(layer, library_);

    if (any_decoherence_) {
        std::vector<double> gamma, keep;
        decoherenceFactors(dt, gamma, keep);
        ws.channel.assign(device_.numQubits(), gamma, keep);
    }
    const DecoherenceChannel &channel = ws.channel;

    // One step is rho <- D(A rho A^dag), A = P(dt/2) J P(dt/2): the
    // half-step phases ride in the row passes' coefficients and D's
    // factor table in the last pass.  A step whose pulses have all
    // ended has A = P(dt), a single phase pass.
    const la::CVector p_half = phaseVector(zz_energies_, dt / 2.0);
    la::CVector p_full;

    const bool tm = metrics_.enabled();
    KernelTimer phase_t(tm), gate_t(tm), decoh_t(tm);

    for (size_t s = 0; s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        gate_t.start();
        ws.active.clear();
        for (const Job &j : jobs) {
            if (t_mid >= j.program->duration)
                continue; // this gate's pulses already ended
            const la::cplx *u =
                j.q1 < 0
                    ? ws.memo.get1Q(*j.program, j.kind, s, dt).data()
                    : ws.memo.get2Q(*j.program, j.kind, s, dt).data();
            ws.active.push_back({u, j.q0, j.q1});
        }
        if (!ws.active.empty())
            rho.applyStepUnitary(ws.active.data(), ws.active.size(),
                                 p_half, channel);
        gate_t.stop();
        if (ws.active.empty()) {
            phase_t.start();
            if (p_full.empty())
                p_full = phaseVector(zz_energies_, dt);
            rho.applyPhaseVector(p_full, channel);
            phase_t.stop();
        }
        if (any_decoherence_) {
            decoh_t.start();
            rho.applyTransfers(channel);
            decoh_t.stop();
        }
    }

    if (tm) {
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
        metrics_.phase_ns->observe(phase_t.ns());
        metrics_.gate_ns->observe(gate_t.ns());
        metrics_.decoh_ns->observe(decoh_t.ns());
    }
}

void
DensityMatrixScheduleSimulator::runLayerScalar(const core::Layer &layer,
                                               DensityMatrix &rho) const
{
    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);

    std::vector<double> gamma, keep;
    if (any_decoherence_)
        decoherenceFactors(dt, gamma, keep);

    // The pre-optimization loop, kept byte-for-byte in behavior:
    // per-step cos/sin phase sweeps, a library lookup and a fresh
    // propagator per gate per step, unfused kernels, sequential
    // Kraus channels.
    for (size_t s = 0; s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        rho.applyDiagonalPhase(zz_energies_, dt / 2.0);
        for (const core::ScheduledGate &sg : layer.gates) {
            const PulseProgram &prog =
                library_.get(pulseGateOf(sg.gate));
            if (t_mid >= prog.duration)
                continue;
            if (sg.gate.isTwoQubit()) {
                rho.apply2QScalar(drive2QStepScalar(prog, t_mid, dt),
                                  sg.gate.qubits[0], sg.gate.qubits[1]);
            } else {
                rho.apply1QScalar(drive1QStepScalar(prog, t_mid, dt),
                                  sg.gate.qubits[0]);
            }
        }
        rho.applyDiagonalPhase(zz_energies_, dt / 2.0);
        if (any_decoherence_)
            rho.applyDecoherenceScalar(gamma, keep);
    }
    if (metrics_.enabled()) {
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
    }
}

void
DensityMatrixScheduleSimulator::run(const core::Schedule &schedule,
                                    DensityMatrix &rho) const
{
    require(schedule.num_qubits == device_.numQubits(),
            "DensityMatrixScheduleSimulator: schedule/device mismatch");
    StepWorkspace ws;
    for (const core::Layer &layer : schedule.layers)
        runLayerImpl(layer, rho, ws);
}

DensityMatrix
DensityMatrixScheduleSimulator::run(const core::Schedule &schedule) const
{
    DensityMatrix rho(device_.numQubits());
    run(schedule, rho);
    return rho;
}

} // namespace qzz::sim
