#include "sim/drive_step.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/expm.h"
#include "sim/state_vector.h"

namespace qzz::sim {

using la::cplx;
using pulse::PulseGate;
using pulse::PulseProgram;

PulseGate
pulseGateOf(const ckt::Gate &g)
{
    switch (g.kind) {
    case ckt::GateKind::SX:
        return PulseGate::SX;
    case ckt::GateKind::I:
        return PulseGate::Identity;
    case ckt::GateKind::RZX:
        return PulseGate::RZX;
    default:
        fatal("pulse simulator: gate has no pulses: " + g.toString());
    }
}

int
pulseKindIndex(PulseGate k)
{
    return k == PulseGate::SX ? 0 : (k == PulseGate::Identity ? 1 : 2);
}

std::vector<PulseJob>
collectJobs(const core::Layer &layer, const pulse::PulseLibrary &library)
{
    std::vector<PulseJob> jobs;
    jobs.reserve(layer.gates.size());
    for (const core::ScheduledGate &sg : layer.gates) {
        const PulseGate kind = pulseGateOf(sg.gate);
        PulseJob j;
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

std::vector<double>
deviceZzEnergies(const dev::Device &device, double crosstalk_scale)
{
    std::vector<std::array<int, 2>> edges;
    std::vector<double> lambdas;
    for (const graph::Edge &e : device.graph().edges()) {
        edges.push_back({e.u, e.v});
        lambdas.push_back(device.coupling(e.id) * crosstalk_scale);
    }
    return zzEnergyTable(device.numQubits(), edges, lambdas);
}

void
drive1QStep(const PulseProgram &p, double t_mid, double dt, la::Mat2 &out)
{
    const double ox = PulseProgram::eval(p.x_a, t_mid);
    const double oy = PulseProgram::eval(p.y_a, t_mid);
    la::expPauli(ox * dt, oy * dt, 0.0, out);
}

void
drive2QStep(const PulseProgram &p, double t_mid, double dt, la::Mat4 &out)
{
    const double oxa = PulseProgram::eval(p.x_a, t_mid);
    const double oya = PulseProgram::eval(p.y_a, t_mid);
    const double oxb = PulseProgram::eval(p.x_b, t_mid);
    const double oyb = PulseProgram::eval(p.y_b, t_mid);
    const double oc = PulseProgram::eval(p.coupling, t_mid);
    la::Mat4 h{};
    const cplx da{oxa, -oya};
    h[0 * 4 + 2] += da;
    h[1 * 4 + 3] += da;
    h[2 * 4 + 0] += std::conj(da);
    h[3 * 4 + 1] += std::conj(da);
    const cplx db{oxb, -oyb};
    h[0 * 4 + 1] += db;
    h[2 * 4 + 3] += db;
    h[1 * 4 + 0] += std::conj(db);
    h[3 * 4 + 2] += std::conj(db);
    h[0 * 4 + 1] += oc;
    h[1 * 4 + 0] += oc;
    h[2 * 4 + 3] += -oc;
    h[3 * 4 + 2] += -oc;
    la::expmPropagator4(h, dt, out);
}

la::CMatrix
drive1QStepScalar(const PulseProgram &p, double t_mid, double dt)
{
    const double ox = PulseProgram::eval(p.x_a, t_mid);
    const double oy = PulseProgram::eval(p.y_a, t_mid);
    return la::expPauli(ox * dt, oy * dt, 0.0);
}

la::CMatrix
drive2QStepScalar(const PulseProgram &p, double t_mid, double dt)
{
    const double oxa = PulseProgram::eval(p.x_a, t_mid);
    const double oya = PulseProgram::eval(p.y_a, t_mid);
    const double oxb = PulseProgram::eval(p.x_b, t_mid);
    const double oyb = PulseProgram::eval(p.y_b, t_mid);
    const double oc = PulseProgram::eval(p.coupling, t_mid);
    la::CMatrix h(4, 4);
    const cplx da{oxa, -oya};
    h(0, 2) += da;
    h(1, 3) += da;
    h(2, 0) += std::conj(da);
    h(3, 1) += std::conj(da);
    const cplx db{oxb, -oyb};
    h(0, 1) += db;
    h(2, 3) += db;
    h(1, 0) += std::conj(db);
    h(3, 2) += std::conj(db);
    h(0, 1) += oc;
    h(1, 0) += oc;
    h(2, 3) += -oc;
    h(3, 2) += -oc;
    return la::expmPropagator(h, dt);
}

template <typename M>
void
StepPropagatorMemo::prepare(Slot<M> &slot, size_t step, double dt)
{
    if (slot.dt != dt) {
        slot.dt = dt;
        slot.mats.clear();
        slot.have.clear();
    }
    if (step >= slot.have.size()) {
        slot.mats.resize(step + 1);
        slot.have.resize(step + 1, 0);
    }
}

const la::Mat2 &
StepPropagatorMemo::get1Q(const PulseProgram &p, PulseGate k, size_t step,
                          double dt)
{
    Slot<la::Mat2> &slot = slots1_[pulseKindIndex(k)];
    prepare(slot, step, dt);
    if (!slot.have[step]) {
        drive1QStep(p, (double(step) + 0.5) * dt, dt, slot.mats[step]);
        slot.have[step] = 1;
        ++misses_;
    }
    return slot.mats[step];
}

const la::Mat4 &
StepPropagatorMemo::get2Q(const PulseProgram &p, PulseGate k, size_t step,
                          double dt)
{
    Slot<la::Mat4> &slot = slots4_[pulseKindIndex(k)];
    prepare(slot, step, dt);
    if (!slot.have[step]) {
        drive2QStep(p, (double(step) + 0.5) * dt, dt, slot.mats[step]);
        slot.have[step] = 1;
        ++misses_;
    }
    return slot.mats[step];
}

} // namespace qzz::sim
