/**
 * @file
 * End-to-end fidelity pipeline (Sec. 7.3 methodology): compile a
 * benchmark circuit for a device under a (pulse method x scheduler)
 * configuration, simulate it at the pulse level with always-on ZZ
 * crosstalk (optionally plus T1/T2 decoherence), and compare against
 * the ideal output state.
 */

#ifndef QZZ_EXP_PIPELINE_H
#define QZZ_EXP_PIPELINE_H

#include <string>

#include "core/compiler.h"
#include "core/framework.h"
#include "sim/ideal_sim.h"
#include "sim/lindblad.h"
#include "sim/pulse_sim.h"

namespace qzz::exp {

/** Outcome of one benchmark x configuration evaluation. */
struct FidelityResult
{
    std::string benchmark;
    std::string config;
    /** |<ideal|actual>|^2 (or <ideal|rho|ideal> with decoherence). */
    double fidelity = 0.0;
    /** Total schedule duration (ns). */
    double execution_time = 0.0;
    /** Number of pulse-carrying layers. */
    int physical_layers = 0;
    /** Mean unsuppressed-coupling count per layer. */
    double mean_nc = 0.0;
    /** Worst largest-region size over layers. */
    int max_nq = 0;
};

/**
 * Compile @p logical with @p compiler (a failed compile throws, see
 * core::unwrapOrThrow()) and evaluate it with pure-state pulse
 * simulation.  Reusing one compiler across the circuits of a figure
 * shares the per-device routing tables and the pulse library.
 */
FidelityResult evaluateFidelity(const ckt::QuantumCircuit &logical,
                                const core::Compiler &compiler,
                                const sim::PulseSimOptions &sim_opt = {});

/** Same, with T1/T2 decoherence (density-matrix simulation). */
FidelityResult
evaluateFidelityWithDecoherence(const ckt::QuantumCircuit &logical,
                                const core::Compiler &compiler,
                                const sim::PulseSimOptions &sim_opt = {});

/** Short display name like "Pert+ZZXSched". */
std::string configName(const core::CompileOptions &opt);

} // namespace qzz::exp

#endif // QZZ_EXP_PIPELINE_H
