/**
 * @file
 * Gate-level representation of quantum operations.
 *
 * qpad works on circuits already decomposed into the {1-qubit, CX}
 * basis (the IBM native set assumed by the paper), but the IR also
 * carries a few common composite gates (CZ, CP, SWAP, CCX) so that
 * benchmark generators can build circuits naturally and decompose
 * them in a separate, testable pass.
 */

#ifndef QPAD_CIRCUIT_GATE_HH
#define QPAD_CIRCUIT_GATE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace qpad::circuit
{

/** Logical qubit index within a circuit. */
using Qubit = uint32_t;

/** Classical bit index within a circuit. */
using Clbit = uint32_t;

/** Supported operation kinds. */
enum class GateKind : uint8_t
{
    // Single-qubit gates.
    I, X, Y, Z, H, S, Sdg, T, Tdg, SX, SXdg,
    RX, RY, RZ, P, U1, U2, U3,
    // Two-qubit gates.
    CX, CZ, CP, CRZ, SWAP, RZZ,
    // Three-qubit gates (pre-decomposition only).
    CCX, CSWAP,
    // Non-unitary operations.
    Measure, Reset, Barrier,
};

/** Number of parameters the kind carries (e.g. rotation angles). */
int gateKindNumParams(GateKind kind);

/** Number of qubit operands, or -1 for variable arity (Barrier). */
int gateKindNumQubits(GateKind kind);

/** True for unitary gates acting on exactly two qubits. */
constexpr bool
gateKindIsTwoQubit(GateKind kind)
{
    switch (kind) {
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::CP:
      case GateKind::CRZ:
      case GateKind::SWAP:
      case GateKind::RZZ:
        return true;
      default:
        return false;
    }
}

/** True for unitary gates acting on exactly one qubit. */
constexpr bool
gateKindIsSingleQubit(GateKind kind)
{
    switch (kind) {
      case GateKind::I:
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::SX:
      case GateKind::SXdg:
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::U1:
      case GateKind::U2:
      case GateKind::U3:
        return true;
      default:
        return false;
    }
}

/** Lower-case OpenQASM 2.0 mnemonic (e.g. "cx", "rz"). */
const char *gateKindName(GateKind kind);

/** Parse an OpenQASM mnemonic; returns false if unknown. */
bool gateKindFromName(const std::string &name, GateKind &kind);

/**
 * One operation instance in a circuit: a kind, its qubit operands,
 * optional rotation parameters, and (for Measure) a classical target.
 */
struct Gate
{
    GateKind kind = GateKind::I;
    std::vector<Qubit> qubits;
    std::vector<double> params;
    /** Valid only when kind == Measure. */
    Clbit clbit = 0;

    Gate() = default;
    Gate(GateKind k, std::vector<Qubit> qs, std::vector<double> ps = {});

    /** True for unitary two-qubit gates (the profiler's subject). */
    bool isTwoQubit() const { return gateKindIsTwoQubit(kind); }

    /** True for unitary single-qubit gates. */
    bool isSingleQubit() const { return gateKindIsSingleQubit(kind); }

    /** True for Measure/Reset/Barrier. */
    constexpr bool isNonUnitary() const
    {
        switch (kind) {
          case GateKind::Measure:
          case GateKind::Reset:
          case GateKind::Barrier:
            return true;
          default:
            return false;
        }
    }

    /** Human-readable one-line form, e.g. "cx q2, q5". */
    std::string str() const;

    bool operator==(const Gate &other) const;
};

} // namespace qpad::circuit

#endif // QPAD_CIRCUIT_GATE_HH
