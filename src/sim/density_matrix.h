/**
 * @file
 * Density-matrix register for open-system simulation (Fig. 23).
 *
 * Sized for the paper's decoherence study (6-qubit benchmarks: 64x64
 * matrices).  Relaxation (T1) and dephasing (T2) enter as exact
 * per-step Kraus channels on each qubit.
 *
 * The optimized surface is the one step the schedule simulator
 * (sim/lindblad.cc) runs, and nothing else: a Strang step
 * rho <- D(A rho A^dag), A = P(dt/2) J_k ... J_1 P(dt/2).
 * applyStepUnitary() computes the conjugation as A (A rho)^dag, so
 * both factors are *left* products — row passes that mix whole rows,
 * contiguous along columns — with one in-place conjugate transpose
 * between them; this needs rho Hermitian.  The diagonal ZZ phase P
 * rides in the first and last job's row coefficients.  The per-qubit
 * channel D is split exactly into a real per-element factor table F
 * (its diagonal part, applied in the last row pass) and one sparse
 * transfer pass per lossy qubit (DecoherenceChannel,
 * applyTransfers()).  A step whose pulses have all ended is
 * applyPhaseVector() with the channel, then the transfers.
 *
 * For n >= 8 qubits every pass splits its rows across the shared
 * common::parallelFor() pool (disjoint writes, so results do not
 * depend on the thread count).  The unfused element-by-element
 * implementations are retained as *Scalar reference paths (with
 * applyDiagonalPhase, applyAmplitudeDamping and applyDephasing); the
 * kernel-equivalence suite (tests/sim/kernel_equivalence_test.cc)
 * pins optimized == scalar, and bench/bench_sim_speed.cc times the
 * step's call sequences against the scalar ones.  See
 * docs/performance.md.
 */

#ifndef QZZ_SIM_DENSITY_MATRIX_H
#define QZZ_SIM_DENSITY_MATRIX_H

#include "linalg/matrix.h"
#include "sim/state_vector.h"

namespace qzz::sim {

/** One drive job of a Strang step: a row-major 2x2 (single-qubit) or
 *  4x4 (two-qubit) unitary and the qubits it acts on. */
struct StepJob
{
    const la::cplx *u = nullptr;
    int q_hi = 0;
    int q_lo = -1; ///< -1 for a single-qubit job
};

/**
 * The per-qubit amplitude-damping + dephasing channel of one
 * integrator step, in the factored form the kernels apply.
 *
 * Per qubit, with decay probability g and dephasing retention k, the
 * channel scales the (r_q, c_q) = (0,0) / mixed / (1,1) elements by
 * 1 / sqrt(1-g) k / 1-g and then adds g times the old (1,1) element
 * to its (0,0) partner.  The qubits' channels commute, so the whole
 * channel is the real factor table F[r,c] = prod_q f_q followed by
 * one transfer per lossy qubit, rho[r,c] += g/(1-g) rho[r|q, c|q] on
 * the r_q = c_q = 0 quarter (the source was scaled by 1-g).  Exact,
 * with no truncation in g; requires g < 1.
 */
class DecoherenceChannel
{
  public:
    /** The identity channel. */
    DecoherenceChannel() = default;

    /** Rebuild for @p n qubits from per-qubit decay probabilities
     *  and dephasing retentions (one entry per qubit each), reusing
     *  the existing storage. */
    void assign(int n, const std::vector<double> &gamma,
                const std::vector<double> &keep);

  private:
    friend class DensityMatrix;

    /** The factor table for a @p d x @p d register, null for the
     *  identity channel (no qubit decays or dephases); fatal when
     *  built for another size. */
    const double *factorsFor(size_t d) const;

    struct Transfer
    {
        size_t mask;  ///< the qubit's bit in a row/column index
        double ratio; ///< g / (1 - g)
    };

    /** F[r,c] at 2 (r d + c) and again at 2 (r d + c) + 1, one entry
     *  per double of rho's element; empty for the identity channel. */
    std::vector<double> factors_;
    std::vector<Transfer> transfers_;
};

/** An n-qubit mixed state. */
class DensityMatrix
{
  public:
    /** |0...0><0...0| on @p n qubits. */
    explicit DensityMatrix(int n);

    /** Pure-state density matrix. */
    static DensityMatrix fromPure(const StateVector &psi);

    int numQubits() const { return n_; }
    size_t dim() const { return size_t(1) << n_; }

    la::CMatrix &matrix() { return rho_; }
    const la::CMatrix &matrix() const { return rho_; }

    /** Virtual RZ. */
    void applyRz(int q, double theta);

    /** rho[r,c] *= exp(-i (E[r] - E[c]) dt).
     *
     *  Scalar reference: one cos/sin pair per element per call.  The
     *  optimized twin is applyPhaseVector() — the schedule
     *  simulators precompute p once per layer and pay only complex
     *  multiplies per step. */
    void applyDiagonalPhase(const std::vector<double> &energies,
                            double dt);

    /** rho[r,c] *= p[r] * conj(p[c]) for a unit-modulus phase vector
     *  (p[i] = exp(-i E[i] dt), precomputed by the caller).  Agrees
     *  with applyDiagonalPhase() to 1 ulp per element.  Fused with
     *  @p channel's factor table, it is the unitary part of a Strang
     *  step whose drive jobs have all ended (applyTransfers() next). */
    void applyPhaseVector(const la::CVector &p,
                          const DecoherenceChannel &channel = {});

    /** Amplitude damping with excited-state decay probability
     *  @p gamma on qubit @p q. */
    void applyAmplitudeDamping(int q, double gamma);

    /** Pure dephasing: off-diagonals in @p q scaled by @p keep. */
    void applyDephasing(int q, double keep);

    /**
     * The unitary half of one Strang step, fused with the channel's
     * factor table: rho <- F o (A rho A^dag) with
     * A = diag(p) J_k ... J_1 diag(p), for @p count >= 1 drive jobs
     * on disjoint qubits.  Computed as A (A rho)^dag: k row passes
     * (diag(p) folded into the first and last job's coefficients),
     * an in-place conjugate transpose, k row passes with F applied
     * in the last one.  Requires rho Hermitian.
     */
    void applyStepUnitary(const StepJob *jobs, size_t count,
                          const la::CVector &p,
                          const DecoherenceChannel &channel);

    /** The channel's transfer passes: the rest of the channel after
     *  its factor table (applyStepUnitary / applyPhaseVector). */
    void applyTransfers(const DecoherenceChannel &channel);

    /** @name Scalar reference kernels
     *  The pre-vectorization implementations, element-by-element and
     *  unfused.  Retained verbatim so the optimized kernels can be
     *  regression-tested and benchmarked against them; used by the
     *  simulators' scalar_reference mode.
     *  @{
     */
    /** rho -> U_q rho U_q^dag for a 2x2 U. */
    void apply1QScalar(const la::CMatrix &u, int q);
    /** rho -> U rho U^dag for a 4x4 U on (q_hi, q_lo). */
    void apply2QScalar(const la::CMatrix &u, int q_hi, int q_lo);
    /** Amplitude damping with decay probability @p gamma[q], then
     *  dephasing with retention @p keep[q], qubit by qubit (one entry
     *  per qubit each); DecoherenceChannel is its factored form. */
    void applyDecoherenceScalar(const std::vector<double> &gamma,
                                const std::vector<double> &keep);
    /** @} */

    /** <psi| rho |psi>. */
    double expectationPure(const StateVector &psi) const;

    /** tr(rho) (1 up to numerical error). */
    double trace() const;

    /** Probability that qubit @p q reads 1. */
    double probabilityOne(int q) const;

  private:
    int n_;
    la::CMatrix rho_;

    int bitPos(int q) const { return n_ - 1 - q; }
};

} // namespace qzz::sim

#endif // QZZ_SIM_DENSITY_MATRIX_H
