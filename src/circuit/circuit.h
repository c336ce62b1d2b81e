/**
 * @file
 * Quantum circuits: an ordered gate list over n qubits, with fluent
 * builder helpers used by the benchmark generators and tests.
 */

#ifndef QZZ_CIRCUIT_CIRCUIT_H
#define QZZ_CIRCUIT_CIRCUIT_H

#include <string>
#include <vector>

#include "circuit/gate.h"

namespace qzz::ckt {

/** An ordered list of gates over a fixed-size qubit register. */
class QuantumCircuit
{
  public:
    QuantumCircuit() = default;

    /** @param num_qubits register size.
     *  @param name optional display name. */
    explicit QuantumCircuit(int num_qubits, std::string name = "");

    int numQubits() const { return num_qubits_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    const std::vector<Gate> &gates() const { return gates_; }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    /** Append a gate (validates qubit indices and arity). */
    void add(Gate g);

    /** Make room for @p n gates, so the next appends do not allocate. */
    void reserve(size_t n) { gates_.reserve(n); }

    /** @name Builder helpers
     *  @{ */
    void h(int q) { add({GateKind::H, {q}}); }
    void x(int q) { add({GateKind::X, {q}}); }
    void y(int q) { add({GateKind::Y, {q}}); }
    void z(int q) { add({GateKind::Z, {q}}); }
    void s(int q) { add({GateKind::S, {q}}); }
    void t(int q) { add({GateKind::T, {q}}); }
    void sx(int q) { add({GateKind::SX, {q}}); }
    void idle(int q) { add({GateKind::I, {q}}); }
    void rz(int q, double a) { add({GateKind::RZ, {q}, {a}}); }
    void rx(int q, double a) { add({GateKind::RX, {q}, {a}}); }
    void ry(int q, double a) { add({GateKind::RY, {q}, {a}}); }
    void
    u3(int q, double th, double ph, double la)
    {
        add({GateKind::U3, {q}, {th, ph, la}});
    }
    void cx(int c, int t) { add({GateKind::CX, {c, t}}); }
    void cz(int a, int b) { add({GateKind::CZ, {a, b}}); }
    void cp(int a, int b, double th) { add({GateKind::CP, {a, b}, {th}}); }
    void rzz(int a, int b, double th) { add({GateKind::RZZ, {a, b}, {th}}); }
    void swap(int a, int b) { add({GateKind::SWAP, {a, b}}); }
    void rzx(int a, int b, double th) { add({GateKind::RZX, {a, b}, {th}}); }
    /** @} */

    /** Count of two-qubit gates. */
    int twoQubitCount() const;

    /** True when every gate is in the native set. */
    bool isNative() const;

    /** Total unitary of the circuit (small registers only). */
    la::CMatrix unitary() const;

  private:
    int num_qubits_ = 0;
    std::string name_;
    std::vector<Gate> gates_;
};

} // namespace qzz::ckt

#endif // QZZ_CIRCUIT_CIRCUIT_H
