#include "sim/pulse_sim.h"

#include <cmath>

#include "common/error.h"
#include "sim/drive_step.h"

namespace qzz::sim {

using la::CMatrix;
using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

PulseScheduleSimulator::PulseScheduleSimulator(
    const dev::Device &device, const pulse::PulseLibrary &library,
    PulseSimOptions options)
    : device_(device), library_(library), options_(options)
{
    require(options_.dt > 0.0, "PulseScheduleSimulator: bad dt");
    zz_energies_ = deviceZzEnergies(device_, options_.crosstalk_scale);
    if (options_.telemetry)
        metrics_ = simMetrics("statevector");
}

la::CVector
phaseVector(const std::vector<double> &energies, double dt)
{
    la::CVector p(energies.size());
    for (size_t k = 0; k < energies.size(); ++k) {
        const double phi = energies[k] * dt;
        p[k] = cplx{std::cos(phi), -std::sin(phi)};
    }
    return p;
}

void
PulseScheduleSimulator::runLayer(const core::Layer &layer,
                                 StateVector &psi) const
{
    StepPropagatorMemo memo;
    runLayerImpl(layer, psi, memo);
}

void
PulseScheduleSimulator::runLayerImpl(const core::Layer &layer,
                                     StateVector &psi,
                                     StepPropagatorMemo &memo) const
{
    if (layer.is_virtual) {
        for (const core::ScheduledGate &sg : layer.gates) {
            ensure(sg.gate.kind == ckt::GateKind::RZ,
                   "virtual layer contains non-RZ gate");
            psi.applyRz(sg.gate.qubits[0], sg.gate.params[0]);
        }
        return;
    }
    if (layer.duration <= 0.0)
        return;
    if (options_.scalar_reference) {
        runLayerScalar(layer, psi);
        return;
    }

    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);
    const std::vector<PulseJob> jobs = collectJobs(layer, library_);

    // Phases are diagonal and the evolution has no mid-step Kraus
    // channel, so the trailing ZZ half-step of step s and the leading
    // one of step s+1 merge into one full-step sweep: steps+1 phase
    // applications instead of 2*steps.
    const la::CVector p_half = phaseVector(zz_energies_, dt / 2.0);
    const la::CVector p_full =
        steps > 1 ? phaseVector(zz_energies_, dt) : la::CVector{};

    const bool tm = metrics_.enabled();
    KernelTimer phase_t(tm), gate_t(tm);

    phase_t.start();
    psi.applyPhaseVector(p_half);
    phase_t.stop();
    for (size_t s = 0; s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        gate_t.start();
        for (const PulseJob &j : jobs) {
            if (t_mid >= j.program->duration)
                continue; // this gate's pulses already ended
            if (j.q1 < 0)
                psi.apply1Q(memo.get1Q(*j.program, j.kind, s, dt), j.q0);
            else
                psi.apply2Q(memo.get2Q(*j.program, j.kind, s, dt), j.q0,
                            j.q1);
        }
        gate_t.stop();
        phase_t.start();
        psi.applyPhaseVector(s + 1 < steps ? p_full : p_half);
        phase_t.stop();
    }

    if (tm) {
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
        metrics_.phase_ns->observe(phase_t.ns());
        metrics_.gate_ns->observe(gate_t.ns());
    }
}

void
PulseScheduleSimulator::runLayerScalar(const core::Layer &layer,
                                       StateVector &psi) const
{
    double dt = 0.0;
    const size_t steps = layerSteps(layer, options_.dt, dt);
    const std::vector<PulseJob> jobs = collectJobs(layer, library_);

    for (size_t s = 0; s < steps; ++s) {
        const double t_mid = (double(s) + 0.5) * dt;
        psi.applyDiagonalPhase(zz_energies_, dt / 2.0);

        // Per-kind propagator cache: simultaneous gates of one kind
        // share the same waveforms.
        CMatrix cached[3];
        bool have[3] = {false, false, false};
        for (const PulseJob &j : jobs) {
            if (t_mid >= j.program->duration)
                continue;
            const int ki = pulseKindIndex(j.kind);
            if (!have[ki]) {
                cached[ki] =
                    j.q1 < 0
                        ? drive1QStepScalar(*j.program, t_mid, dt)
                        : drive2QStepScalar(*j.program, t_mid, dt);
                have[ki] = true;
            }
            if (j.q1 < 0)
                psi.apply1Q(cached[ki], j.q0);
            else
                psi.apply2Q(cached[ki], j.q0, j.q1);
        }

        psi.applyDiagonalPhase(zz_energies_, dt / 2.0);
    }
    if (metrics_.enabled()) {
        metrics_.layers->inc();
        metrics_.steps->inc(steps);
    }
}

void
PulseScheduleSimulator::run(const core::Schedule &schedule,
                            StateVector &psi) const
{
    require(schedule.num_qubits == device_.numQubits(),
            "PulseScheduleSimulator::run: schedule/device mismatch");
    StepPropagatorMemo memo;
    for (const core::Layer &layer : schedule.layers)
        runLayerImpl(layer, psi, memo);
}

StateVector
PulseScheduleSimulator::run(const core::Schedule &schedule) const
{
    StateVector psi(device_.numQubits());
    run(schedule, psi);
    return psi;
}

} // namespace qzz::sim
