#include "design/freq_alloc.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "yield/collision_batch.hh"

namespace qpad::design
{

using arch::Architecture;
using arch::DeviceConstants;
using arch::Layout;
using arch::PhysQubit;
using yield::CollisionChecker;

PhysQubit
centerQubit(const Layout &layout)
{
    qpad_assert(layout.numQubits() > 0, "empty layout");
    double mean_row = 0.0, mean_col = 0.0;
    for (const auto &c : layout.coords()) {
        mean_row += c.row;
        mean_col += c.col;
    }
    mean_row /= double(layout.numQubits());
    mean_col /= double(layout.numQubits());

    PhysQubit best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (PhysQubit q = 0; q < layout.numQubits(); ++q) {
        const auto &c = layout.coord(q);
        double dr = c.row - mean_row;
        double dc = c.col - mean_col;
        double d2 = dr * dr + dc * dc;
        if (d2 < best_d2) {
            best_d2 = d2;
            best = q;
        }
    }
    return best;
}

namespace
{

/** Collision terms whose value depends on f(q), among assigned. */
struct LocalTerms
{
    std::vector<CollisionChecker::PairTerm> pairs;
    std::vector<CollisionChecker::TripleTerm> triples;
    std::vector<PhysQubit> involved; // q itself plus its term partners
};

LocalTerms
buildLocalTerms(const Architecture &arch, PhysQubit q,
                const std::vector<bool> &assigned)
{
    LocalTerms terms;
    const auto &adj = arch.adjacency();
    std::vector<bool> involved_mask(arch.numQubits(), false);
    auto involve = [&](PhysQubit x) {
        if (!involved_mask[x]) {
            involved_mask[x] = true;
            terms.involved.push_back(x);
        }
    };
    involve(q);

    // Conditions 1-4: edges incident to q.
    for (PhysQubit nb : adj[q]) {
        if (!assigned[nb])
            continue;
        terms.pairs.push_back({q, nb});
        involve(nb);
    }
    // Conditions 5-7 with q as the shared neighbour j.
    for (std::size_t x = 0; x < adj[q].size(); ++x) {
        for (std::size_t y = x + 1; y < adj[q].size(); ++y) {
            PhysQubit k = adj[q][x], i = adj[q][y];
            if (!assigned[k] || !assigned[i])
                continue;
            terms.triples.push_back({q, k, i});
            involve(k);
            involve(i);
        }
    }
    // Conditions 5-7 with q as one of the outer qubits: the shared
    // neighbour j is any neighbour of q, the other outer qubit any
    // other neighbour of j.
    for (PhysQubit j : adj[q]) {
        if (!assigned[j])
            continue;
        for (PhysQubit other : adj[j]) {
            if (other == q || !assigned[other])
                continue;
            terms.triples.push_back({j, std::min(q, other),
                                     std::max(q, other)});
            involve(j);
            involve(other);
        }
    }
    return terms;
}

} // namespace

FreqAllocResult
allocateFrequencies(const Architecture &arch,
                    const FreqAllocOptions &options,
                    const exec::Context &ctx)
{
    const std::size_t n = arch.numQubits();
    qpad_assert(n > 0, "cannot allocate frequencies on an empty chip");

    // Effective execution options: the context's token rides along
    // into the candidate-scan regions, and the BFS/refine loops poll
    // it between qubit visits below.
    const runtime::Options run_exec = ctx.apply(options.exec);

    // Candidate grid 5.00, 5.01, ..., 5.34 GHz.
    std::vector<double> candidates;
    for (double f = DeviceConstants::freq_min_ghz;
         f <= DeviceConstants::freq_max_ghz + 1e-9;
         f += options.grid_step_ghz)
        candidates.push_back(f);

    FreqAllocResult result;
    result.freqs.assign(n, 0.0);
    std::vector<bool> assigned(n, false);

    const PhysQubit center = centerQubit(arch.layout());
    const double mid = 0.5 * (DeviceConstants::freq_min_ghz +
                              DeviceConstants::freq_max_ghz);
    result.freqs[center] = mid;
    assigned[center] = true;
    result.order.push_back(center);
    result.local_scores.push_back(1.0);

    Rng rng(options.seed);

    // Breadth-first traversal of the coupling graph from the centre;
    // disconnected leftovers (possible on degenerate layouts) are
    // seeded from their own centre-most unvisited qubit.
    std::queue<PhysQubit> fifo;
    std::vector<bool> enqueued(n, false);
    fifo.push(center);
    enqueued[center] = true;

    // Evaluate every candidate frequency for q against the collision
    // terms it participates in (among assigned qubits) and return the
    // best (frequency, local yield) pair.
    auto optimize = [&](PhysQubit q) -> std::pair<double, double> {
        // Zero trials give no evidence to rank candidates (and would
        // make every score 0/0 = NaN, breaking the argmax): keep the
        // band middle with the same zero score estimateYield reports
        // for zero-trial runs.
        if (options.local_trials == 0)
            return {mid, 0.0};
        LocalTerms terms = buildLocalTerms(arch, q, assigned);
        const std::size_t n_inv = terms.involved.size();

        // Translate terms into local indices once.
        std::vector<std::size_t> index_of(n, SIZE_MAX);
        for (std::size_t idx = 0; idx < n_inv; ++idx)
            index_of[terms.involved[idx]] = idx;
        const std::size_t qi = index_of[q];

        // Terms re-indexed into the local involved set; the same
        // lists drive the scalar oracle and the batched kernel.
        std::vector<CollisionChecker::PairTerm> pairs;
        pairs.reserve(terms.pairs.size());
        for (const auto &p : terms.pairs)
            pairs.push_back({PhysQubit(index_of[p.a]),
                             PhysQubit(index_of[p.b])});
        std::vector<CollisionChecker::TripleTerm> triples;
        triples.reserve(terms.triples.size());
        for (const auto &t : terms.triples)
            triples.push_back({PhysQubit(index_of[t.j]),
                               PhysQubit(index_of[t.k]),
                               PhysQubit(index_of[t.i])});

        // Common random numbers: one post-fabrication frequency table
        // shared by all candidates (only q's own entry varies), so the
        // argmax is not washed out by sampling variance. The table is
        // generated ahead of the scan from the allocator's single RNG
        // stream; candidate evaluation below only reads it, which is
        // what makes the candidate scan safely parallel.
        const std::size_t trials = options.local_trials;
        std::vector<double> post(trials * n_inv);
        std::vector<double> q_noise(trials);
        // Lane draw order: one rng.next() seeds a lane sampler;
        // trial t of each 8-trial block is lane t % 8, reading its
        // involved-qubit deviates and then its candidate noise. The
        // trailing block discards the unused lanes — they are
        // independent streams, so the kept draws are the same for
        // every `trials` remainder.
        {
            constexpr std::size_t B = GaussianBlockSampler::kLanes;
            GaussianBlockSampler sampler(rng.next());
            std::vector<double> means(n_inv + 1);
            for (std::size_t idx = 0; idx < n_inv; ++idx)
                means[idx] = result.freqs[terms.involved[idx]];
            means[n_inv] = 0.0; // the q_noise row is pure noise
            std::vector<double> z((n_inv + 1) * B);
            for (std::size_t t0 = 0; t0 < trials; t0 += B) {
                const std::size_t active = std::min(B, trials - t0);
                sampler.fillAffine(z.data(), means.data(),
                                   options.sigma_ghz, n_inv + 1);
                for (std::size_t l = 0; l < active; ++l) {
                    double *row = &post[(t0 + l) * n_inv];
                    for (std::size_t idx = 0; idx < n_inv; ++idx)
                        row[idx] = z[idx * B + l];
                    q_noise[t0 + l] = z[n_inv * B + l];
                }
            }
        }

        // Batched evaluation transposes the CRN table once into
        // qubit-major lane blocks; per candidate only q's lanes are
        // overwritten on a scratch copy, and the kernel sees exactly
        // the values the scalar oracle reads through at(), so the
        // scores — and the committed argmax — are identical.
        constexpr std::size_t B = yield::BatchCollisionChecker::kLanes;
        const bool batched = yield::useBatchedKernel();
        const std::size_t n_blocks = (trials + B - 1) / B;
        const std::size_t block_doubles = n_inv * B;
        yield::BatchCollisionChecker batch;
        std::vector<double> blocks;
        if (batched) {
            batch = yield::BatchCollisionChecker(pairs, triples,
                                                 options.model);
            blocks.assign(n_blocks * block_doubles, 0.0);
            for (std::size_t t = 0; t < trials; ++t)
                for (std::size_t idx = 0; idx < n_inv; ++idx)
                    blocks[yield::BatchCollisionChecker::soaIndex(
                        t, idx, n_inv)] = post[t * n_inv + idx];
        }

        // Every term involves q by construction; index qi is
        // substituted with the candidate value at read time (scalar)
        // or written into the scratch block's lanes (batched)
        // instead of being stored in the shared table.
        // One fixed chunk per worker: the batched branch streams the
        // CRN block table once per chunk, so finer chunks — and in
        // particular guided sizing (grain 0), whose tail degenerates
        // to single-candidate chunks — would re-stream the table per
        // candidate. Candidate costs are uniform (same table, same
        // term lists), so there is no skew for guided to fix. Note
        // the trade-off this grain accepts: with exactly one chunk
        // per runner there is nothing left on the cursor to
        // rebalance, so if candidate costs ever became non-uniform
        // this site would need a finer grain first. Scores depend only on the read-only table,
        // so the chunking (unlike the table generation above) is
        // free to vary with the thread count.
        const std::size_t workers =
            runtime::resolveThreads(run_exec);
        const std::size_t grain =
            (candidates.size() + workers - 1) / workers;
        std::vector<double> scores(candidates.size());
        runtime::parallel_for(
            run_exec, candidates.size(), grain,
            [&](std::size_t begin, std::size_t end, std::size_t) {
                if (batched) {
                    // Blocks outer, candidates inner: each block is
                    // copied into the scratch once and only qubit
                    // qi's lanes are rewritten per candidate, so the
                    // CRN table is streamed once per worker instead
                    // of once per candidate.
                    std::vector<double> scratch(block_doubles);
                    std::vector<std::size_t> ok(end - begin, 0);
                    for (std::size_t bi = 0; bi < n_blocks; ++bi) {
                        const std::size_t t0 = bi * B;
                        const std::size_t active =
                            std::min(B, trials - t0);
                        std::memcpy(scratch.data(),
                                    &blocks[bi * block_doubles],
                                    block_doubles * sizeof(double));
                        for (std::size_t ci = begin; ci < end; ++ci) {
                            for (std::size_t l = 0; l < active; ++l)
                                scratch[qi * B + l] =
                                    candidates[ci] + q_noise[t0 + l];
                            ok[ci - begin] += std::size_t(
                                std::popcount(batch.survivorMask(
                                    scratch.data(), active)));
                        }
                    }
                    for (std::size_t ci = begin; ci < end; ++ci)
                        scores[ci] =
                            double(ok[ci - begin]) / double(trials);
                    return;
                }
                for (std::size_t ci = begin; ci < end; ++ci) {
                    const double cand = candidates[ci];
                    std::size_t ok = 0;
                    for (std::size_t t = 0; t < trials; ++t) {
                        const double *row = &post[t * n_inv];
                        const double qv = cand + q_noise[t];
                        auto at = [&](std::size_t idx) {
                            return idx == qi ? qv : row[idx];
                        };
                        bool failed = false;
                        for (const auto &p : pairs) {
                            if (yield::pairCollides(options.model,
                                                    at(p.a), at(p.b))) {
                                failed = true;
                                break;
                            }
                        }
                        if (!failed) {
                            for (const auto &tr : triples) {
                                if (yield::tripleCollides(
                                        options.model, at(tr.j),
                                        at(tr.k), at(tr.i))) {
                                    failed = true;
                                    break;
                                }
                            }
                        }
                        if (!failed)
                            ++ok;
                    }
                    scores[ci] = double(ok) / double(trials);
                }
            });

        // First strict maximum, matching the sequential scan order.
        double best_score = -1.0;
        double best_freq = mid;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            if (scores[ci] > best_score) {
                best_score = scores[ci];
                best_freq = candidates[ci];
            }
        }
        return {best_freq, best_score};
    };

    auto process = [&](PhysQubit q) {
        // Stop between qubit visits, never mid-scan: an aborted
        // allocation leaves no partial result behind, and a completed
        // one never saw the poll affect its draws.
        exec::throwIfStopped(run_exec.cancel);
        auto [freq, score] = optimize(q);
        result.freqs[q] = freq;
        assigned[q] = true;
        result.order.push_back(q);
        result.local_scores.push_back(score);
    };

    while (true) {
        while (!fifo.empty()) {
            PhysQubit u = fifo.front();
            fifo.pop();
            for (PhysQubit v : arch.adjacency()[u]) {
                if (!enqueued[v]) {
                    enqueued[v] = true;
                    process(v);
                    fifo.push(v);
                }
            }
        }
        // Any disconnected component left?
        auto it = std::find(enqueued.begin(), enqueued.end(), false);
        if (it == enqueued.end())
            break;
        PhysQubit seed = PhysQubit(it - enqueued.begin());
        result.freqs[seed] = mid;
        assigned[seed] = true;
        enqueued[seed] = true;
        result.order.push_back(seed);
        result.local_scores.push_back(1.0);
        fifo.push(seed);
    }

    // Coordinate-descent polish: revisit every qubit with the full
    // neighbourhood assigned and keep the per-qubit argmax.
    for (unsigned sweep = 0; sweep < options.refine_sweeps; ++sweep) {
        for (std::size_t idx = 0; idx < result.order.size(); ++idx) {
            exec::throwIfStopped(run_exec.cancel);
            PhysQubit q = result.order[idx];
            auto [freq, score] = optimize(q);
            result.freqs[q] = freq;
            result.local_scores[idx] = score;
        }
    }

    return result;
}

void
applyOptimizedFrequencies(Architecture &arch,
                          const FreqAllocOptions &options,
                          const exec::Context &ctx)
{
    FreqAllocResult result = allocateFrequencies(arch, options, ctx);
    arch.setAllFrequencies(result.freqs);
}

} // namespace qpad::design
