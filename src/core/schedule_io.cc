#include "core/schedule_io.h"

#include "common/error.h"

namespace qzz::core {

namespace {

void
writeChannel(json::Writer &w, const char *name,
             const pulse::WaveformPtr &wf, double duration,
             double sample_dt)
{
    if (!wf)
        return;
    w.key(name).beginArray();
    for (double t = 0.0; t <= duration + 1e-9; t += sample_dt)
        w.value(wf->value(t));
    w.endArray();
}

/** Shared body of the entry points; @p program adds the
 *  configuration fields when non-null. */
void
writeScheduleDocument(const Schedule &schedule,
                      const pulse::PulseLibrary &library,
                      const CompiledProgram *program, json::Writer &w,
                      double sample_dt)
{
    require(sample_dt >= 0.0, "writeScheduleJson: bad sample_dt");
    w.beginObject()
        .field("num_qubits", schedule.num_qubits)
        .field("execution_time_ns", schedule.executionTime())
        .field("pulse_library", library.name());
    if (program != nullptr) {
        w.field("pulse_method", pulseMethodName(program->pulse_method))
            .field("sched_policy", schedPolicyName(program->sched_policy))
            .field("calib_epoch", program->calib_epoch);
    }

    w.key("layers").beginArray();
    for (const Layer &layer : schedule.layers) {
        w.beginObject();
        writeLayerMembers(w, layer, false);
        w.endObject();
    }
    w.endArray();

    if (sample_dt > 0.0) {
        w.key("pulses").beginObject();
        for (pulse::PulseGate g :
             {pulse::PulseGate::SX, pulse::PulseGate::Identity,
              pulse::PulseGate::RZX}) {
            if (!library.has(g))
                continue;
            const pulse::PulseProgram &p = library.get(g);
            w.key(pulse::pulseGateName(g))
                .beginObject()
                .field("duration_ns", p.duration)
                .field("two_qubit", p.two_qubit);
            w.key("channels").beginObject();
            writeChannel(w, "x_a", p.x_a, p.duration, sample_dt);
            writeChannel(w, "y_a", p.y_a, p.duration, sample_dt);
            writeChannel(w, "x_b", p.x_b, p.duration, sample_dt);
            writeChannel(w, "y_b", p.y_b, p.duration, sample_dt);
            writeChannel(w, "coupling", p.coupling, p.duration, sample_dt);
            w.endObject().endObject();
        }
        w.endObject();
    }
    w.endObject();
}

} // namespace

void
writeGateMembers(json::Writer &w, const ckt::Gate &gate)
{
    w.field("kind", ckt::gateKindName(gate.kind));
    w.key("qubits").array(gate.qubits);
    if (!gate.params.empty())
        w.key("params").array(gate.params);
}

void
writeLayerMembers(json::Writer &w, const Layer &layer, bool all_members)
{
    w.field("virtual", layer.is_virtual)
        .field("duration_ns", layer.duration);
    if (all_members || !layer.is_virtual) {
        w.field("nq", layer.metrics.nq).field("nc", layer.metrics.nc);
        w.key("side").array(layer.side);
    }
    w.key("gates").beginArray();
    for (const ScheduledGate &sg : layer.gates) {
        w.beginObject();
        writeGateMembers(w, sg.gate);
        w.field("supplemented", sg.supplemented).endObject();
    }
    w.endArray();
}

void
writeScheduleJson(const Schedule &schedule,
                  const pulse::PulseLibrary &library, std::ostream &os,
                  const ScheduleIoOptions &opt)
{
    std::string out;
    json::Writer w(out, opt.pretty);
    writeScheduleDocument(schedule, library, nullptr, w, opt.sample_dt);
    os << out << '\n';
}

void
writeCompiledProgramJson(const CompiledProgram &program, json::Writer &w,
                         double sample_dt)
{
    require(program.library != nullptr,
            "writeCompiledProgramJson: program has no pulse library");
    writeScheduleDocument(program.schedule, *program.library, &program, w,
                          sample_dt);
}

void
writeCompiledProgramJson(const CompiledProgram &program,
                         std::ostream &os, const ScheduleIoOptions &opt)
{
    std::string out;
    json::Writer w(out, opt.pretty);
    writeCompiledProgramJson(program, w, opt.sample_dt);
    os << out << '\n';
}

} // namespace qzz::core
