#include "mapping/sabre.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "circuit/dag.hh"
#include "circuit/decompose.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/trace.hh"

namespace qpad::mapping
{

using arch::PhysQubit;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

namespace
{

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/** Event-stream marker for "the next recorded SWAP". */
constexpr uint32_t kSwapEvent = kNone;

/** Swap decisions between two polls of the request context. */
constexpr std::size_t kPollInterval = 256;

/** The part of a gate the router looks at. */
struct RouteGate
{
    Qubit q0 = 0, q1 = 0; // operands; meaningful when two_qubit
    bool two_qubit = false;
};

/**
 * One routing direction of a circuit, flattened once per mapCircuit
 * call. Forward routing skips Measure (re-appended at the final
 * mapping); reverse routing, which only refines the initial mapping,
 * walks the gates backwards and skips Reset and Barrier as well.
 */
struct RoutedCircuit
{
    bool reversed;
    /** Routed gate i is circuit.gate(order[i]). */
    std::vector<uint32_t> order;
    std::vector<RouteGate> gates;
    circuit::DependencyDag dag;
};

RoutedCircuit
routedCircuit(const Circuit &circ, bool reversed)
{
    std::vector<uint32_t> order;
    std::vector<RouteGate> gates;
    const std::size_t n = circ.size();
    for (std::size_t k = 0; k < n; ++k) {
        const auto index = static_cast<uint32_t>(reversed ? n - 1 - k : k);
        const Gate &g = circ.gate(index);
        if (g.kind == GateKind::Measure ||
            (reversed && g.isNonUnitary()))
            continue;
        order.push_back(index);
        gates.push_back(g.isTwoQubit()
                            ? RouteGate{g.qubits[0], g.qubits[1], true}
                            : RouteGate{});
    }
    circuit::DependencyDag dag(circ, order);
    return {reversed, std::move(order), std::move(gates), std::move(dag)};
}

/** Exchange the logicals on physical qubits pa and pb. */
void
applySwap(PhysQubit pa, PhysQubit pb, std::vector<PhysQubit> &l2p,
          std::vector<Qubit> &p2l)
{
    const Qubit la = p2l[pa], lb = p2l[pb];
    std::swap(p2l[pa], p2l[pb]);
    l2p[la] = pb;
    l2p[lb] = pa;
}

/**
 * A routing pass in compact form: executed gate ids in order, with
 * kSwapEvent marking where each SWAP of `swaps` was inserted.
 */
struct PassRecord
{
    std::vector<uint32_t> events;
    std::vector<std::pair<PhysQubit, PhysQubit>> swaps;

    void
    clear()
    {
        events.clear();
        swaps.clear();
    }
};

/**
 * The SABRE router. Works over an "extended" logical space the size
 * of the chip: logical ids >= circuit width are dummies occupying
 * the spare physical qubits so SWAPs stay a permutation. All scratch
 * state is owned here and reused across passes, so the route loop
 * does not allocate once the buffers have grown.
 */
class Router
{
  public:
    Router(const Circuit &circ, const arch::Architecture &arch,
           const MappingOptions &options, const exec::Context &ctx)
        : circ_(circ), options_(options), ctx_(ctx),
          n_phys_(arch.numQubits()), dist_(n_phys_ * n_phys_),
          adjacency_(arch.adjacency()), p2l_(n_phys_),
          decay_(n_phys_, 1.0), inc_head_(n_phys_, kNone)
    {
        const auto &dist = arch.distances();
        for (std::size_t a = 0; a < n_phys_; ++a)
            for (std::size_t b = 0; b < n_phys_; ++b)
                dist_[a * n_phys_ + b] = dist(a, b);
    }

    /**
     * Route `rc` starting from the logical->physical map `l2p`
     * (size = chip size), leaving the final map in `l2p`. Appends
     * the pass to `record` when given. Returns the SWAP count.
     */
    std::size_t
    route(const RoutedCircuit &rc, std::vector<PhysQubit> &l2p,
          PassRecord *record)
    {
        ctx_.throwIfStopped();
        qpad_assert(l2p.size() == n_phys_, "l2p must cover the chip");
        for (Qubit l = 0; l < l2p.size(); ++l)
            p2l_[l2p[l]] = l;

        const circuit::DependencyDag &dag = rc.dag;
        indeg_.assign(dag.indegrees().begin(), dag.indegrees().end());
        front_.assign(dag.roots().begin(), dag.roots().end());
        std::fill(decay_.begin(), decay_.end(), 1.0);
        if (record)
            record->events.reserve(dag.numGates());

        std::size_t executed = 0;
        std::size_t executed_at_last_swap = 0;
        std::size_t swaps = 0;
        const std::size_t max_swaps =
            1000 + 20 * dag.numGates() * (n_phys_ + 1);

        while (!front_.empty()) {
            // Execute everything executable in the current front.
            bool progress = true;
            while (progress) {
                progress = false;
                blocked_.clear();
                // Index loop: newly ready successors are appended to
                // `front_` and picked up in the same sweep.
                for (std::size_t idx = 0; idx < front_.size(); ++idx) {
                    const uint32_t id = front_[idx];
                    const RouteGate &g = rc.gates[id];
                    if (g.two_qubit && dist(l2p[g.q0], l2p[g.q1]) != 1) {
                        blocked_.push_back(id);
                        continue;
                    }
                    if (record)
                        record->events.push_back(id);
                    for (uint32_t succ : dag.successors(id))
                        if (--indeg_[succ] == 0)
                            front_.push_back(succ);
                    ++executed;
                    progress = true;
                }
                front_.swap(blocked_);
            }
            if (front_.empty())
                break;

            // Executing a gate resets the decay window.
            if (executed != executed_at_last_swap)
                std::fill(decay_.begin(), decay_.end(), 1.0);

            // All remaining front gates are blocked two-qubit gates:
            // pick the best SWAP.
            auto [pa, pb] = bestSwap(rc, l2p);
            applySwap(pa, pb, l2p, p2l_);
            decay_[pa] += options_.decay_delta;
            decay_[pb] += options_.decay_delta;
            executed_at_last_swap = executed;
            ++swaps;
            if (record) {
                record->events.push_back(kSwapEvent);
                record->swaps.emplace_back(pa, pb);
            }
            if (swaps > max_swaps)
                qpad_panic("router stalled after ", swaps, " swaps on '",
                           circ_.name(), rc.reversed ? "_rev" : "", "'");
            if (swaps % kPollInterval == 0)
                ctx_.throwIfStopped();
        }
        qpad_assert(executed == dag.numGates(), "router dropped gates");
        return swaps;
    }

  private:
    /** One distance term of the cost, seen from one endpoint. */
    struct Incidence
    {
        PhysQubit other;
        uint32_t next;
        bool front;
    };

    const Circuit &circ_;
    const MappingOptions &options_;
    const exec::Context &ctx_;
    const std::size_t n_phys_;
    /** Dense all-pairs hop distances, row-major. */
    std::vector<uint16_t> dist_;
    const std::vector<std::vector<PhysQubit>> &adjacency_;

    // Per-pass and per-decision scratch.
    std::vector<Qubit> p2l_;
    std::vector<uint32_t> indeg_;
    std::vector<uint32_t> front_;
    std::vector<uint32_t> blocked_;
    std::vector<double> decay_;
    std::vector<uint64_t> candidates_;
    std::vector<uint32_t> extended_;
    std::vector<uint32_t> frontier_;
    std::vector<uint32_t> inc_head_;
    std::vector<Incidence> incidences_;

    int
    dist(PhysQubit a, PhysQubit b) const
    {
        return dist_[std::size_t(a) * n_phys_ + b];
    }

    void
    addTerm(PhysQubit p, PhysQubit q, bool front)
    {
        incidences_.push_back({q, inc_head_[p], front});
        inc_head_[p] = static_cast<uint32_t>(incidences_.size() - 1);
        incidences_.push_back({p, inc_head_[q], front});
        inc_head_[q] = static_cast<uint32_t>(incidences_.size() - 1);
    }

    /**
     * Candidate swaps: edges touching a blocked front operand. (Front
     * gates are all ready at once, so no two share a qubit.)
     */
    void
    collectCandidates(const RoutedCircuit &rc,
                      const std::vector<PhysQubit> &l2p)
    {
        candidates_.clear();
        for (uint32_t id : front_) {
            const RouteGate &g = rc.gates[id];
            for (Qubit lq : {g.q0, g.q1}) {
                const PhysQubit pq = l2p[lq];
                for (PhysQubit nb : adjacency_[pq])
                    candidates_.push_back(
                        uint64_t(std::min(pq, nb)) << 32 |
                        std::max(pq, nb));
            }
        }
        // Packed (min, max) pairs sort in lexicographic pair order.
        std::sort(candidates_.begin(), candidates_.end());
        candidates_.erase(
            std::unique(candidates_.begin(), candidates_.end()),
            candidates_.end());
        qpad_assert(!candidates_.empty(), "no candidate swaps");
    }

    /**
     * Two-qubit gates reachable from the front (lookahead window).
     * Breadth-first without a visited set: a gate reachable along
     * several paths enters once per path, and the pinned swap counts
     * depend on that.
     */
    void
    collectExtendedSet(const RoutedCircuit &rc)
    {
        extended_.clear();
        frontier_.assign(front_.begin(), front_.end());
        const std::size_t limit = options_.extended_set_size;
        std::size_t cursor = 0;
        while (cursor < frontier_.size() && extended_.size() < limit) {
            const uint32_t id = frontier_[cursor++];
            for (uint32_t succ : rc.dag.successors(id)) {
                if (rc.gates[succ].two_qubit) {
                    extended_.push_back(succ);
                    if (extended_.size() >= limit)
                        break;
                }
                frontier_.push_back(succ);
            }
        }
    }

    /**
     * The SWAP minimizing max(decay) * (front mean distance +
     * weight * extended mean distance). The distance sums are exact
     * integers: a candidate (pa, pb) adjusts the base sums only by
     * the terms incident to pa or pb, so every score equals a full
     * rescan bit for bit. Ties keep the first candidate in sorted
     * order.
     */
    std::pair<PhysQubit, PhysQubit>
    bestSwap(const RoutedCircuit &rc, const std::vector<PhysQubit> &l2p)
    {
        collectCandidates(rc, l2p);
        collectExtendedSet(rc);

        incidences_.clear();
        int64_t front_sum = 0, ext_sum = 0;
        for (uint32_t id : front_) {
            const RouteGate &g = rc.gates[id];
            const PhysQubit p = l2p[g.q0], q = l2p[g.q1];
            front_sum += dist(p, q);
            addTerm(p, q, true);
        }
        for (uint32_t id : extended_) {
            const RouteGate &g = rc.gates[id];
            const PhysQubit p = l2p[g.q0], q = l2p[g.q1];
            ext_sum += dist(p, q);
            addTerm(p, q, false);
        }
        const double front_terms = double(front_.size());
        const double ext_terms = double(extended_.size());

        double best_score = std::numeric_limits<double>::infinity();
        uint64_t best = candidates_.front();
        for (uint64_t cand : candidates_) {
            const auto pa = static_cast<PhysQubit>(cand >> 32);
            const auto pb = static_cast<PhysQubit>(cand & 0xffffffffu);
            int64_t front_delta = 0, ext_delta = 0;
            // Terms on `from` move to `to`; a term on both qubits
            // keeps its distance.
            auto shift = [&](PhysQubit from, PhysQubit to) {
                for (uint32_t e = inc_head_[from]; e != kNone;
                     e = incidences_[e].next) {
                    const Incidence &t = incidences_[e];
                    if (t.other == to)
                        continue;
                    const int d = dist(to, t.other) - dist(from, t.other);
                    (t.front ? front_delta : ext_delta) += d;
                }
            };
            shift(pa, pb);
            shift(pb, pa);

            const double front_cost =
                double(front_sum + front_delta) / front_terms;
            double ext_cost = 0.0;
            if (!extended_.empty())
                ext_cost = options_.extended_weight *
                           double(ext_sum + ext_delta) / ext_terms;
            const double score =
                std::max(decay_[pa], decay_[pb]) * (front_cost + ext_cost);
            if (score < best_score) {
                best_score = score;
                best = cand;
            }
        }

        for (const Incidence &t : incidences_)
            inc_head_[t.other] = kNone;
        return {static_cast<PhysQubit>(best >> 32),
                static_cast<PhysQubit>(best & 0xffffffffu)};
    }
};

} // namespace

MappingResult
mapCircuit(const Circuit &circuit, const arch::Architecture &arch,
           const MappingOptions &options, const exec::Context &ctx)
{
    QPAD_SPAN("mapping.map");
    qpad_assert(circuit.numQubits() <= arch.numQubits(),
                "circuit '", circuit.name(), "' needs ",
                circuit.numQubits(), " qubits but chip has ",
                arch.numQubits());
    qpad_assert(arch.isConnectedGraph(),
                "architecture coupling graph is disconnected");
    qpad_assert(circuit::isInBasis(circuit),
                "circuit must be lowered to the {1q, CX} basis");

    const RoutedCircuit forward = routedCircuit(circuit, false);
    Router router(circuit, arch, options, ctx);

    // Candidate initial mappings: the identity (qpad layouts use an
    // identity pseudo-mapping, so this is often already perfect) and
    // the SABRE reverse-traversal refinement of a random start.
    std::vector<std::vector<PhysQubit>> candidates;
    std::vector<PhysQubit> identity(arch.numQubits());
    std::iota(identity.begin(), identity.end(), 0);
    candidates.push_back(identity);

    if (options.sabre_initial_mapping) {
        Rng rng(options.seed);
        std::vector<PhysQubit> l2p = identity;
        // Random starting permutation, then reverse-traversal
        // refinement: forward pass yields the initial mapping of the
        // reverse circuit and vice versa.
        for (std::size_t i = l2p.size(); i > 1; --i)
            std::swap(l2p[i - 1], l2p[rng.below(i)]);
        const RoutedCircuit reverse = routedCircuit(circuit, true);
        for (unsigned round = 0; round < options.initial_mapping_rounds;
             ++round) {
            router.route(forward, l2p, nullptr);
            router.route(reverse, l2p, nullptr);
        }
        candidates.push_back(std::move(l2p));
    }

    // Route every candidate and keep the cheapest mapping.
    std::size_t best = 0;
    std::size_t best_swaps = 0;
    PassRecord pass, attempt;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        std::vector<PhysQubit> l2p = candidates[i];
        attempt.clear();
        const std::size_t swaps = router.route(forward, l2p, &attempt);
        if (i == 0 || swaps < best_swaps) {
            std::swap(pass, attempt);
            best = i;
            best_swaps = swaps;
        }
    }

    // Materialize the winning pass by replaying it from its initial
    // mapping: every operand goes through the current l2p, and a
    // SWAP lowers to three CX.
    std::vector<PhysQubit> l2p = candidates[best];
    std::vector<Qubit> p2l(l2p.size());
    for (Qubit l = 0; l < l2p.size(); ++l)
        p2l[l2p[l]] = l;
    Circuit mapped(arch.numQubits(), circuit.numClbits(),
                   circuit.name() + "@" + arch.name());
    auto swap = pass.swaps.begin();
    for (uint32_t event : pass.events) {
        if (event == kSwapEvent) {
            const auto [pa, pb] = *swap++;
            mapped.cx(pa, pb);
            mapped.cx(pb, pa);
            mapped.cx(pa, pb);
            applySwap(pa, pb, l2p, p2l);
            continue;
        }
        Gate phys = circuit.gate(forward.order[event]);
        for (Qubit &q : phys.qubits)
            q = l2p[q];
        mapped.add(std::move(phys));
    }
    for (const Gate &g : circuit.gates())
        if (g.kind == GateKind::Measure)
            mapped.measure(l2p[g.qubits[0]], g.clbit);

    MappingResult result;
    result.initial_mapping.assign(
        candidates[best].begin(),
        candidates[best].begin() + circuit.numQubits());
    result.swaps = best_swaps;
    result.final_mapping.assign(l2p.begin(),
                                l2p.begin() + circuit.numQubits());
    result.total_gates = mapped.unitaryGateCount();
    result.two_qubit_gates = mapped.twoQubitGateCount();
    result.mapped = std::move(mapped);
    return result;
}

bool
respectsCoupling(const Circuit &mapped, const arch::Architecture &arch)
{
    for (const Gate &g : mapped.gates()) {
        if (!g.isTwoQubit())
            continue;
        if (!arch.connected(g.qubits[0], g.qubits[1]))
            return false;
    }
    return true;
}

} // namespace qpad::mapping
