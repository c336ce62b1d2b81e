/**
 * @file
 * Open-system pulse-level schedule simulation: the Fig. 23 study of
 * ZZ crosstalk combined with T1 relaxation and T2 dephasing.
 *
 * Same Strang-split evolution as PulseScheduleSimulator, acting on a
 * density matrix, with exact per-step amplitude-damping and
 * pure-dephasing Kraus channels on every qubit (rates 1/T1(q) and
 * 1/T_phi(q) = 1/T2(q) - 1/(2 T1(q)), read per qubit from the
 * device's calibration snapshot).
 *
 * One step is rho <- D(A rho A^dag) with A = P(dt/2) (x jobs) P(dt/2),
 * computed as A (A rho)^dag (DensityMatrix::applyStepUnitary) and
 * followed by D's transfer passes; D's factor table is rebuilt once
 * per layer.  Precondition: the state handed to run() / runLayer()
 * is Hermitian (every DensityMatrix built by this library is).
 */

#ifndef QZZ_SIM_LINDBLAD_H
#define QZZ_SIM_LINDBLAD_H

#include "core/schedule.h"
#include "device/device.h"
#include "pulse/library.h"
#include "sim/density_matrix.h"
#include "sim/drive_step.h"
#include "sim/pulse_sim.h"

namespace qzz::sim {

/** Density-matrix twin of PulseScheduleSimulator. */
class DensityMatrixScheduleSimulator
{
  public:
    DensityMatrixScheduleSimulator(const dev::Device &device,
                                   const pulse::PulseLibrary &library,
                                   PulseSimOptions options = {});

    /** Evolve |0..0><0..0| through the schedule. */
    DensityMatrix run(const core::Schedule &schedule) const;

    /** Evolve a caller-prepared state through the schedule. */
    void run(const core::Schedule &schedule, DensityMatrix &rho) const;

    /** Evolve one layer. */
    void runLayer(const core::Layer &layer, DensityMatrix &rho) const;

  private:
    // Owned copies: simulators must stay valid regardless of the
    // lifetime of the arguments they were built from.
    dev::Device device_;
    pulse::PulseLibrary library_;
    PulseSimOptions options_;
    std::vector<double> zz_energies_;
    SimMetrics metrics_;
    /** True when any qubit has a finite T1 or T2 (skip the Kraus
     *  channel entirely on fully coherent devices). */
    bool any_decoherence_ = false;

    /** What one run() reuses across its layers: the propagator memo
     *  (equal-dt layers share entries), the channel's storage, and
     *  the per-step job list. */
    struct StepWorkspace
    {
        StepPropagatorMemo memo;
        DecoherenceChannel channel;
        std::vector<StepJob> active;
    };

    /** One layer against a caller-owned workspace. */
    void runLayerImpl(const core::Layer &layer, DensityMatrix &rho,
                      StepWorkspace &ws) const;
    /** The retained seed integrator (scalar_reference option). */
    void runLayerScalar(const core::Layer &layer,
                        DensityMatrix &rho) const;

    /** Per-qubit decay probability / dephasing retention for one
     *  integrator step of @p dt, from the calibrated T1(q)/T2(q).
     *  Computed once per layer (dt is fixed within it), applied at
     *  every Strang step. */
    void decoherenceFactors(double dt, std::vector<double> &gamma,
                            std::vector<double> &keep) const;
};

} // namespace qzz::sim

#endif // QZZ_SIM_LINDBLAD_H
