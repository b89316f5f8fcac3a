#include "design/anneal.hh"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "cache/yield_cache.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/seed_seq.hh"

namespace qpad::design
{

using arch::Coord;
using arch::CoordHash;
using circuit::Qubit;

namespace
{

/** Incremental cost of one qubit's placement against all others. */
int64_t
qubitCost(const profile::CouplingProfile &profile,
          const std::vector<Coord> &coords, Qubit q, const Coord &at)
{
    int64_t cost = 0;
    for (std::size_t other = 0; other < coords.size(); ++other) {
        if (other == q)
            continue;
        uint32_t w = profile.strength(q, other);
        if (w)
            cost += int64_t(w) * Coord::manhattan(at, coords[other]);
    }
    return cost;
}

/** Connectivity check: occupied nodes form one 4-connected blob. */
bool
contiguous(const std::vector<Coord> &coords)
{
    if (coords.empty())
        return true;
    std::unordered_set<Coord, CoordHash> occupied(coords.begin(),
                                                  coords.end());
    std::vector<Coord> stack = {coords[0]};
    std::unordered_set<Coord, CoordHash> seen = {coords[0]};
    while (!stack.empty()) {
        Coord c = stack.back();
        stack.pop_back();
        for (const Coord &nb : lattice4(c)) {
            if (occupied.count(nb) && !seen.count(nb)) {
                seen.insert(nb);
                stack.push_back(nb);
            }
        }
    }
    return seen.size() == occupied.size();
}

/** Outcome of one independent annealing chain. */
struct ChainResult
{
    std::vector<Coord> best;
    int64_t best_cost = 0;
    std::size_t accepted_moves = 0;
};

/** One classic annealing run, seeded explicitly. `cancel` (may be
 * null) is polled every 1024 iterations — often enough to honour a
 * deadline mid-chain, rare enough to stay invisible in the move
 * loop's profile. The poll never perturbs the RNG stream. */
ChainResult
annealChain(const profile::CouplingProfile &profile,
            const LayoutResult &start, const AnnealOptions &options,
            uint64_t seed, const exec::CancelToken *cancel)
{
    const std::size_t n = profile.num_qubits;

    std::vector<Coord> coords = start.coord_of_logical;
    std::unordered_map<Coord, Qubit, CoordHash> occupied;
    for (Qubit q = 0; q < n; ++q)
        occupied[coords[q]] = q;

    Rng rng(seed);
    int64_t cost = int64_t(placementCost(profile, coords));

    ChainResult result;
    std::vector<Coord> &best = result.best;
    best = coords;
    int64_t &best_cost = result.best_cost;
    best_cost = cost;

    const double cooling =
        n <= 1 || options.iterations == 0
            ? 1.0
            : std::pow(options.t_end / options.t_start,
                       1.0 / double(options.iterations));
    double temperature = options.t_start;

    for (std::size_t it = 0; it < options.iterations && n > 1; ++it) {
        if ((it & 1023u) == 0)
            exec::throwIfStopped(cancel);
        temperature *= cooling;
        Qubit q = Qubit(rng.below(n));

        if (rng.chance(0.5)) {
            // Swap two qubits' nodes: always keeps contiguity.
            Qubit r = Qubit(rng.below(n));
            if (q == r)
                continue;
            int64_t before = qubitCost(profile, coords, q, coords[q]) +
                             qubitCost(profile, coords, r, coords[r]);
            std::swap(coords[q], coords[r]);
            int64_t after = qubitCost(profile, coords, q, coords[q]) +
                            qubitCost(profile, coords, r, coords[r]);
            // The q-r term is double-counted identically on both
            // sides, so the delta is exact.
            int64_t delta = after - before;
            if (delta <= 0 ||
                rng.chance(std::exp(-double(delta) / temperature))) {
                cost += delta;
                occupied[coords[q]] = q;
                occupied[coords[r]] = r;
                ++result.accepted_moves;
            } else {
                std::swap(coords[q], coords[r]); // revert
            }
        } else {
            // Relocate q to a random empty node adjacent to the
            // blob; reject moves that break contiguity. The frontier
            // is built from `coords` in qubit-index order, NOT by
            // iterating `occupied`: rng.below() indexes into it, so
            // its element order is part of the seeded draw contract
            // and must not depend on hash-bucket order. (Same
            // multiset either way — coords and occupied's keys are
            // the same nodes — so move probabilities are unchanged.)
            std::vector<Coord> frontier;
            for (const Coord &node : coords)
                for (const Coord &nb : lattice4(node))
                    if (!occupied.count(nb))
                        frontier.push_back(nb);
            if (frontier.empty())
                continue;
            Coord to = frontier[rng.below(frontier.size())];
            Coord from = coords[q];
            if (to == from)
                continue;

            int64_t before = qubitCost(profile, coords, q, from);
            int64_t after = qubitCost(profile, coords, q, to);
            int64_t delta = after - before;
            if (delta > 0 &&
                !rng.chance(std::exp(-double(delta) / temperature)))
                continue;

            occupied.erase(from);
            occupied[to] = q;
            coords[q] = to;
            if (!contiguous(coords)) {
                // Undo: the move split the chip.
                occupied.erase(to);
                occupied[from] = q;
                coords[q] = from;
                continue;
            }
            cost += delta;
            ++result.accepted_moves;
        }

        if (cost < best_cost) {
            best_cost = cost;
            best = coords;
        }
    }

    return result;
}

/**
 * Cache key of one annealing chain: everything annealChain reads —
 * the strength matrix (the only profile field the cost functional
 * uses), the start placement, the schedule, and the chain's own
 * seed. Keying per chain (not per annealLayout call) lets a rerun
 * with more restarts reuse every chain it already ran.
 */
cache::Fingerprint
chainKey(const profile::CouplingProfile &profile,
         const LayoutResult &start, const AnnealOptions &options,
         uint64_t seed)
{
    cache::Encoder enc;
    enc.str("qpad.anneal.chain/v1");
    enc.u64(profile.num_qubits);
    for (std::size_t i = 0; i < profile.num_qubits; ++i)
        for (std::size_t j = i; j < profile.num_qubits; ++j)
            enc.u32(profile.strength(i, j));
    for (const Coord &c : start.coord_of_logical) {
        enc.i32(c.row);
        enc.i32(c.col);
    }
    enc.u64(options.iterations);
    enc.f64(options.t_start);
    enc.f64(options.t_end);
    enc.u64(seed);
    return enc.digest();
}

std::vector<uint8_t>
encodeChain(const ChainResult &chain)
{
    cache::Encoder enc;
    enc.u64(chain.best.size());
    for (const Coord &c : chain.best) {
        enc.i32(c.row);
        enc.i32(c.col);
    }
    enc.i64(chain.best_cost);
    enc.u64(chain.accepted_moves);
    return enc.bytes();
}

bool
decodeChain(const std::vector<uint8_t> &blob, std::size_t num_qubits,
            ChainResult &chain)
{
    cache::Decoder in(blob);
    uint64_t n;
    if (!in.u64(n) || n != num_qubits)
        return false;
    chain.best.resize(num_qubits);
    for (Coord &c : chain.best)
        if (!in.i32(c.row) || !in.i32(c.col))
            return false;
    int64_t cost;
    uint64_t accepted;
    if (!in.i64(cost) || !in.u64(accepted) || !in.atEnd())
        return false;
    chain.best_cost = cost;
    chain.accepted_moves = std::size_t(accepted);
    return true;
}

} // namespace

AnnealResult
annealLayout(const profile::CouplingProfile &profile,
             const LayoutResult &start, const AnnealOptions &options,
             const exec::Context &ctx)
{
    const std::size_t n = profile.num_qubits;
    qpad_assert(start.coord_of_logical.size() == n,
                "start layout size mismatch");
    qpad_assert(options.restarts >= 1, "annealLayout needs >= 1 chain");

    QPAD_SPAN("design.anneal");
    static obs::Counter &anneals = obs::counter("design.anneals");
    anneals.add();

    // Run the K independent chains; chain 0 reproduces the legacy
    // single-chain behaviour exactly, so restarts = 1 is bit-for-bit
    // the classic annealer regardless of options.exec.
    const runtime::SeedSequence seeds(options.seed);
    std::vector<ChainResult> chains(options.restarts);
    cache::Store &store = cache::globalStore();
    const bool use_cache = store.options().enabled;
    // Guided sizing (grain 0): cache hits make finished chains ~free
    // while cold chains cost the full iteration budget, so restart
    // costs are heavily skewed on warm reruns; guided chunks claimed
    // largest-first keep the runners busy either way. Chain i's seed
    // depends only on i, never on the chunk index, so chunk identity
    // is free to follow the guided sequence.
    const runtime::Options run_exec = ctx.apply(options.exec);
    runtime::parallel_for(
        run_exec, options.restarts, 0,
        [&](std::size_t begin, std::size_t end, std::size_t) {
            for (std::size_t i = begin; i < end; ++i) {
                const uint64_t seed =
                    i == 0 ? options.seed : seeds.childSeed(i);
                // Each restart chain is memoized on its own key, so
                // a warm rerun — or one with a higher restart count
                // — replays finished chains from the cache.
                // Count (and span) only chains that actually anneal;
                // cache-served chains are already visible as
                // cache.hits.
                static obs::Counter &chain_runs =
                    obs::counter("design.anneal_chains");
                std::vector<uint8_t> blob;
                if (use_cache) {
                    const cache::Fingerprint key =
                        chainKey(profile, start, options, seed);
                    if (store.get(key, blob) &&
                        decodeChain(blob, n, chains[i]))
                        continue;
                    {
                        QPAD_SPAN("design.anneal_chain");
                        chain_runs.add();
                        chains[i] = annealChain(profile, start,
                                                options, seed,
                                                run_exec.cancel);
                    }
                    store.put(key, encodeChain(chains[i]));
                    continue;
                }
                QPAD_SPAN("design.anneal_chain");
                chain_runs.add();
                chains[i] = annealChain(profile, start, options, seed,
                                        run_exec.cancel);
            }
        });

    // Lowest best cost wins; ties resolve to the lowest chain index
    // so the outcome is independent of scheduling.
    std::size_t winner = 0;
    for (std::size_t i = 1; i < chains.size(); ++i)
        if (chains[i].best_cost < chains[winner].best_cost)
            winner = i;
    const std::vector<Coord> &best = chains[winner].best;

    AnnealResult result;
    // Computed from the coordinates, not read from the struct field:
    // a caller-built LayoutResult may carry a stale or unset
    // placement_cost, and the no-regression assert below must
    // compare like with like.
    result.initial_cost =
        placementCost(profile, start.coord_of_logical);
    result.accepted_moves = chains[winner].accepted_moves;
    result.winning_chain = winner;

    // Rebuild a normalized LayoutResult from the best placement.
    int r0 = best[0].row, c0 = best[0].col;
    for (const Coord &c : best) {
        r0 = std::min(r0, c.row);
        c0 = std::min(c0, c.col);
    }
    result.layout.coord_of_logical.resize(n);
    for (Qubit q = 0; q < n; ++q)
        result.layout.coord_of_logical[q] = {best[q].row - r0,
                                             best[q].col - c0};
    for (Qubit q = 0; q < n; ++q)
        result.layout.layout.addQubit(
            result.layout.coord_of_logical[q]);
    result.layout.placement_cost =
        placementCost(profile, result.layout.coord_of_logical);
    result.final_cost = result.layout.placement_cost;
    qpad_assert(result.final_cost <= result.initial_cost,
                "annealer must not regress past the start");
    return result;
}

} // namespace qpad::design
