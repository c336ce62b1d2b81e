/**
 * @file
 * Schedule export: serialize a compiled schedule (layers, cuts,
 * per-gate pulse programs with sampled waveforms) to a JSON document
 * that a control-electronics backend or plotting notebook can
 * consume.  Output only; qzz itself never reads these files.
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

} // namespace qzz::core

#endif // QZZ_CORE_SCHEDULE_IO_H
