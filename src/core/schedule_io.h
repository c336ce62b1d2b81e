/**
 * @file
 * Schedule export: serialize a compiled schedule (layers, cuts,
 * per-gate pulse programs with sampled waveforms) to a JSON document
 * that a control-electronics backend or plotting notebook can
 * consume.  qzz never reads these documents back; the program
 * artifact (service/artifact.h) that it does read shares their layer
 * and gate members.
 */

#ifndef QZZ_CORE_SCHEDULE_IO_H
#define QZZ_CORE_SCHEDULE_IO_H

#include <ostream>

#include "common/json.h"
#include "core/framework.h"
#include "core/schedule.h"
#include "pulse/library.h"

namespace qzz::core {

/** Serialization controls. */
struct ScheduleIoOptions
{
    /** Waveform sample spacing in ns (0 = omit samples). */
    double sample_dt = 1.0;
    /** Pretty-print with newlines and indentation (the ostream entry
     *  points only; the json::Writer one follows its writer). */
    bool pretty = true;
};

/**
 * Write @p schedule as one JSON document (common/json.h: numbers in
 * shortest round-trip form, infinities as "inf"/"-inf") followed by
 * a newline.
 *
 * Layout:
 * {
 *   "num_qubits": n,
 *   "execution_time_ns": t,
 *   "layers": [ { "virtual": bool, "duration_ns": d,
 *                 "nq": ..., "nc": ..., "side": [...],
 *                 "gates": [ { "kind": "...", "qubits": [...],
 *                              "params": [...],
 *                              "supplemented": bool } ] } ],
 *   "pulses": { "<gate>": { "duration_ns": d,
 *                           "channels": { "x_a": [...], ... } } }
 * }
 */
void writeScheduleJson(const Schedule &schedule,
                       const pulse::PulseLibrary &library,
                       std::ostream &os,
                       const ScheduleIoOptions &opt = {});

/**
 * Write a whole CompiledProgram as JSON: the schedule document above
 * plus "pulse_method" / "sched_policy" fields holding the display
 * names, so consumers can recover the configuration with
 * pulseMethodFromName() / schedPolicyFromName() instead of
 * hand-rolling string matching.
 */
void writeCompiledProgramJson(const CompiledProgram &program,
                              std::ostream &os,
                              const ScheduleIoOptions &opt = {});

/** The same document as one value of @p w (no newline), so a caller
 *  can embed it in a larger document without a copy. */
void writeCompiledProgramJson(const CompiledProgram &program,
                              json::Writer &w, double sample_dt);

/**
 * The members of one gate, into an object the caller has opened:
 * "kind" (gateKindName()), "qubits", and "params" when the gate has
 * any.  Shared by the documents above and the program artifact
 * (service/artifact.h), so the two encodings cannot drift.
 */
void writeGateMembers(json::Writer &w, const ckt::Gate &gate);

/**
 * The members of one layer, into an object the caller has opened:
 * "virtual", "duration_ns", then "nq", "nc" and "side", then "gates"
 * (writeGateMembers() plus "supplemented" each).  The schedule
 * documents omit the cut members of virtual layers, which carry no
 * cut; @p all_members writes them for every layer.
 */
void writeLayerMembers(json::Writer &w, const Layer &layer,
                       bool all_members);

} // namespace qzz::core

#endif // QZZ_CORE_SCHEDULE_IO_H
