/**
 * @file
 * Shared schedule-validity, suppression-invariant and
 * schedule-equality assertions.
 *
 * One checker used by the integration suites (topology_diversity),
 * the per-policy unit tests and the differential oracle fuzz — so the
 * definition of "valid schedule" and "requirement R holds" lives in
 * exactly one place.  All checks are gtest EXPECT/ASSERT macros: call
 * from inside a TEST body; @p context is prepended to every failure
 * message.
 */

#ifndef QZZ_TESTS_COMMON_SUPPRESSION_INVARIANTS_H
#define QZZ_TESTS_COMMON_SUPPRESSION_INVARIANTS_H

#include <string>

#include "core/zzx_sched.h"

namespace qzz::testsup {

/**
 * Structural validity of a layered schedule of @p native:
 *  - every circuit gate is scheduled exactly once, none dropped;
 *  - no qubit is driven twice within a layer;
 *  - each physical layer's driven set equals its recorded S partition
 *    (gates fully inside S, supplemented identities covering the
 *    rest);
 *  - each physical layer's recorded metrics match evaluateCut() on
 *    its recorded side.
 */
void expectValidSchedule(const core::Schedule &schedule,
                         const ckt::QuantumCircuit &native,
                         const dev::Device &device,
                         const std::string &context);

/**
 * Suppression invariants of Algorithm 2 against the resolved
 * requirement R (pass the result of resolveZzxOptions()):
 *  - NC never exceeds nc_max;
 *  - NQ exceeds nq_max by at most the one spectator qubit an
 *    irreducible two-qubit group absorbs (R is TwoQSchedule's
 *    *splitting* criterion, so a single unsplittable gate pair may
 *    carry NQ = nq_max + 1 on degree-2 topologies);
 *  - single-qubit-only layers on bipartite devices reach complete
 *    suppression (Sec. 5.1): NC = 0 and every region a singleton.
 */
void expectSuppressionInvariants(const core::Schedule &schedule,
                                 const dev::Device &device,
                                 const core::ZzxOptions &resolved,
                                 const std::string &context);

/**
 * Layer-by-layer equality of two schedules: qubit count, layer flags,
 * durations, recorded cuts and metrics, and every gate (kind, qubits,
 * parameters, supplemented flag).
 */
void expectSameSchedule(const core::Schedule &a, const core::Schedule &b,
                        const std::string &context);

} // namespace qzz::testsup

#endif // QZZ_TESTS_COMMON_SUPPRESSION_INVARIANTS_H
