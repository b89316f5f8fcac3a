/**
 * @file
 * SABRE-style qubit mapping (Li, Ding, Xie, ASPLOS 2019 — reference
 * [18] of the reproduced paper, the mapper its evaluation uses).
 *
 * The mapper consists of
 *  - a swap-based heuristic router: gates whose operands are mapped
 *    to connected physical qubits execute immediately; otherwise the
 *    SWAP minimizing a distance + lookahead + decay cost is inserted
 *    (each SWAP lowers to three CX in the gate-count metric), and
 *  - an initial-mapping search: forward and backward routing passes
 *    over the circuit refine the initial layout (the "reverse
 *    traversal" trick of the SABRE paper).
 *
 * Each call flattens the circuit's dependency DAG once per direction,
 * scores candidate SWAPs incrementally from integer distance sums,
 * and materializes the mapped circuit only for the winning pass.
 */

#ifndef QPAD_MAPPING_SABRE_HH
#define QPAD_MAPPING_SABRE_HH

#include <cstdint>
#include <vector>

#include "arch/architecture.hh"
#include "circuit/circuit.hh"
#include "exec/context.hh"

namespace qpad::mapping
{

/** Heuristic knobs (defaults follow the SABRE paper). */
struct MappingOptions
{
    /** Weight of the lookahead (extended) set in the cost. */
    double extended_weight = 0.5;
    /** Max two-qubit gates collected into the extended set. */
    std::size_t extended_set_size = 20;
    /** Additive decay applied to recently swapped qubits. */
    double decay_delta = 0.001;
    /** Forward-backward refinement rounds for the initial mapping. */
    unsigned initial_mapping_rounds = 3;
    /** Use the SABRE reverse-traversal initial mapping search. */
    bool sabre_initial_mapping = true;
    /** Seed for the randomized starting permutation. */
    uint64_t seed = 7;
};

/** Outcome of mapping one circuit onto one architecture. */
struct MappingResult
{
    /** Physical-level circuit (CX respect the coupling graph). */
    circuit::Circuit mapped;
    /** logical -> physical assignment before the first gate. */
    std::vector<arch::PhysQubit> initial_mapping;
    /** logical -> physical assignment after the last gate. */
    std::vector<arch::PhysQubit> final_mapping;
    /** SWAPs inserted by routing. */
    std::size_t swaps = 0;
    /** Post-mapping gate count: unitary gates incl. 3 CX per SWAP. */
    std::size_t total_gates = 0;
    /** Post-mapping two-qubit gate count. */
    std::size_t two_qubit_gates = 0;
};

/**
 * Map a {1q, CX} circuit onto an architecture.
 *
 * Measurements are routed as terminal: each is re-emitted after the
 * last routed gate, on its qubit's final physical position.
 *
 * `ctx` is polled at the start of every routing pass and every 256
 * SWAP decisions; a stopped context raises exec::CancelledError. A
 * call that completes is bit-identical under any context.
 *
 * @pre circuit.numQubits() <= arch.numQubits() and the architecture
 *      coupling graph is connected.
 */
MappingResult mapCircuit(const circuit::Circuit &circuit,
                         const arch::Architecture &arch,
                         const MappingOptions &options = {},
                         const exec::Context &ctx = exec::Context::none());

/**
 * Check that every CX of a mapped circuit respects the coupling
 * graph (verification helper for tests).
 */
bool respectsCoupling(const circuit::Circuit &mapped,
                      const arch::Architecture &arch);

} // namespace qpad::mapping

#endif // QPAD_MAPPING_SABRE_HH
