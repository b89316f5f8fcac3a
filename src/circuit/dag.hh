/**
 * @file
 * Gate dependency DAG: the router's view of a circuit, and a depth
 * analysis.
 *
 * Two gates depend on each other iff they share a qubit; the DAG
 * keeps, for every gate, the immediate successors over each shared
 * qubit. Barriers synchronize all qubits.
 */

#ifndef QPAD_CIRCUIT_DAG_HH
#define QPAD_CIRCUIT_DAG_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hh"

namespace qpad::circuit
{

/**
 * Immutable dependency DAG over gates of a circuit, stored flat
 * (successor lists in CSR form).
 */
class DependencyDag
{
  public:
    /** DAG over every gate; gate ids are indices into gates(). */
    explicit DependencyDag(const Circuit &circuit);

    /**
     * DAG over the gates circuit.gate(order[0]), circuit.gate(order[1]),
     * ... taken in that order; gate id i names circuit.gate(order[i]).
     */
    DependencyDag(const Circuit &circuit,
                  const std::vector<uint32_t> &order);

    std::size_t numGates() const { return indeg_.size(); }

    /** Immediate successors of gate id, ascending. */
    std::span<const uint32_t> successors(std::size_t id) const
    {
        return {succ_.data() + succ_begin_[id],
                succ_.data() + succ_begin_[id + 1]};
    }

    /** Number of immediate predecessors of gate id. */
    std::size_t indegree(std::size_t id) const { return indeg_[id]; }

    /** Predecessor counts of every gate (copied by traversals). */
    const std::vector<uint32_t> &indegrees() const { return indeg_; }

    /** Gate ids with no predecessors (the initial front layer). */
    const std::vector<uint32_t> &roots() const { return roots_; }

    /** Number of "layers" in an ASAP schedule of the DAG. */
    std::size_t asapDepth() const;

  private:
    std::vector<uint32_t> succ_begin_;
    std::vector<uint32_t> succ_;
    std::vector<uint32_t> indeg_;
    std::vector<uint32_t> roots_;
};

} // namespace qpad::circuit

#endif // QPAD_CIRCUIT_DAG_HH
