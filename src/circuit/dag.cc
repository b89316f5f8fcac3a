#include "circuit/dag.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "common/logging.hh"

namespace qpad::circuit
{

namespace
{

std::vector<uint32_t>
allGates(const Circuit &circuit)
{
    std::vector<uint32_t> order(circuit.size());
    std::iota(order.begin(), order.end(), 0u);
    return order;
}

} // namespace

DependencyDag::DependencyDag(const Circuit &circuit)
    : DependencyDag(circuit, allGates(circuit))
{
}

DependencyDag::DependencyDag(const Circuit &circuit,
                             const std::vector<uint32_t> &order)
{
    constexpr uint32_t none = std::numeric_limits<uint32_t>::max();
    qpad_assert(order.size() < none, "too many gates for a DAG");
    // last[q] = id of the latest gate touching qubit q.
    std::vector<uint32_t> last(circuit.numQubits(), none);
    // (from, to) in ascending `to`, so every successor list below
    // comes out ascending.
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    std::vector<uint32_t> preds;

    indeg_.reserve(order.size());
    for (uint32_t id = 0; id < order.size(); ++id) {
        const Gate &g = circuit.gate(order[id]);
        preds.clear();
        if (g.kind == GateKind::Barrier) {
            // Depend on every live chain and restart all of them.
            for (uint32_t &l : last) {
                if (l != none)
                    preds.push_back(l);
                l = id;
            }
        } else {
            for (Qubit q : g.qubits) {
                if (last[q] != none)
                    preds.push_back(last[q]);
                last[q] = id;
            }
        }
        // One edge per predecessor, even when it shares several
        // qubits with this gate (e.g. back-to-back CX on one pair).
        std::sort(preds.begin(), preds.end());
        preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
        for (uint32_t p : preds)
            edges.emplace_back(p, id);
        indeg_.push_back(static_cast<uint32_t>(preds.size()));
        if (preds.empty())
            roots_.push_back(id);
    }

    succ_begin_.assign(order.size() + 1, 0);
    for (const auto &e : edges)
        ++succ_begin_[e.first + 1];
    std::partial_sum(succ_begin_.begin(), succ_begin_.end(),
                     succ_begin_.begin());
    std::vector<uint32_t> fill(succ_begin_.begin(), succ_begin_.end() - 1);
    succ_.resize(edges.size());
    for (const auto &e : edges)
        succ_[fill[e.first]++] = e.second;
}

std::size_t
DependencyDag::asapDepth() const
{
    std::vector<uint32_t> indeg = indeg_;
    std::vector<std::size_t> level(numGates(), 0);
    std::queue<uint32_t> ready;
    for (uint32_t id : roots_)
        ready.push(id);

    std::size_t depth = 0;
    while (!ready.empty()) {
        uint32_t id = ready.front();
        ready.pop();
        depth = std::max(depth, level[id] + 1);
        for (uint32_t succ : successors(id)) {
            level[succ] = std::max(level[succ], level[id] + 1);
            if (--indeg[succ] == 0)
                ready.push(succ);
        }
    }
    return depth;
}

} // namespace qpad::circuit
