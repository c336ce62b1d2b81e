/**
 * @file
 * Gate IR.
 *
 * Gates come in three tiers:
 *  - physical native gates {SX, I, RZX}: backed by pulse programs;
 *  - the virtual native gate RZ (software frame change, zero duration,
 *    error free — Sec. 7.1.2 of the paper);
 *  - high-level gates (H, CX, CP, ...) produced by the benchmark
 *    generators and lowered by qzz::ckt::decomposeToNative().
 *
 * Matrix convention: the first listed qubit is the most significant
 * tensor factor.
 */

#ifndef QZZ_CIRCUIT_GATE_H
#define QZZ_CIRCUIT_GATE_H

#include <optional>
#include <string>
#include <string_view>

#include "common/inline_vec.h"
#include "linalg/matrix.h"

namespace qzz::ckt {

/** All gate kinds known to the IR. */
enum class GateKind
{
    // Physical native gates.
    SX,  ///< Rx(pi/2)
    I,   ///< explicit identity pulse, Rx(2 pi)
    RZX, ///< Rzx(theta); native at theta = pi/2

    // Virtual native gate.
    RZ, ///< Rz(theta), implemented in software

    // High-level single-qubit gates.
    X,
    Y,
    Z,
    H,
    S,
    SDG,
    T,
    TDG,
    RX,
    RY,
    U3, ///< U3(theta, phi, lambda)

    // High-level two-qubit gates.
    CX,
    CZ,
    CP,  ///< controlled phase(theta)
    RZZ, ///< exp(-i theta/2 Z(x)Z)
    SWAP,
};

/** A gate instance: kind + qubit operands + real parameters.
 *
 *  Operands are stored inline (every kind has arity <= 2 and at most
 *  three parameters, for U3), so building, copying and appending a
 *  gate never allocates. */
struct Gate
{
    using Qubits = InlineVec<int, 2>;
    using Params = InlineVec<double, 3>;

    GateKind kind = GateKind::I;
    Qubits qubits;
    Params params;

    Gate() = default;
    Gate(GateKind k, Qubits q, Params p = {})
        : kind(k), qubits(q), params(p)
    {
    }

    bool isTwoQubit() const { return qubits.size() == 2; }

    /** True for the native set {SX, I, RZX(pi/2), RZ}. */
    bool isNative() const;

    /** True for RZ (no pulses, zero duration). */
    bool isVirtual() const { return kind == GateKind::RZ; }

    /** Human-readable form, e.g. "CX(3,4)" or "RZ(1.571)(0)". */
    std::string toString() const;
};

/** Name of a gate kind. */
std::string gateKindName(GateKind k);

/** The kind gateKindName() names @p name; nullopt for any other
 *  string. */
std::optional<GateKind> gateKindFromName(std::string_view name);

/** Unitary matrix of a gate (2x2 or 4x4). */
la::CMatrix gateMatrix(const Gate &g);

/** Number of qubit operands a kind expects. */
int gateArity(GateKind k);

/** Last enumerator, for range checks on decoded kinds. */
inline constexpr GateKind kLastGateKind = GateKind::SWAP;

} // namespace qzz::ckt

#endif // QZZ_CIRCUIT_GATE_H
