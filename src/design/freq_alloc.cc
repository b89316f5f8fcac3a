/**
 * @file
 * Algorithm 3 and its candidate scan.
 *
 * Exactness of the interval-mask scan (countSurvivors). Fix one
 * trial: every value but q's is a constant, and q's value at
 * candidate c is qv(c) = fl(cand[c] + noise). In real arithmetic,
 * each sub-condition of pairConditionMask / tripleConditionMask
 * that reads q is an open window or a half-line of qv:
 * - a pair with partner value x fires for qv within thr1 of x,
 *   thr2 of x -+ d/2 or thr3 of x -+ d, or beyond x - d or x + d;
 * - a triple with q outer and other outer value y fires for qv
 *   within thr5 of y, thr6 of y -+ d or thr7 of 2 fj + d - y;
 * - a triple with q the shared neighbour j fires for qv within
 *   thr7 / 2 of (fk + fi - d) / 2. Its conditions 5 and 6 do not
 *   read q: they kill every candidate or none.
 * The grid index u = (qv - noise - cand[0]) / step turns each window
 * into an open index interval whose candidates form one run. A pair
 * joins condition 3's window around x -+ d and condition 4's
 * half-line from there into one half-line when thr3 exceeds
 * 2 kEdgeGhz: a candidate near the inner edge then lies well inside
 * the window, so condition 3 kills it anyway.
 *
 * The floating-point predicate can disagree with the real one only
 * where the real value is within a few ulps of a threshold (and
 * since IEEE rounding is monotone, each edge flips once), and the
 * grid, built by repeated addition, strays from cand[0] + c * step
 * by a few ulps per point. With every value within kMaxGhz and the
 * grid within kGridDriftGhz of its nominal points, all of that stays
 * below 1e-10 GHz. A candidate more than kEdgeGhz (1e-8 GHz, i.e.
 * 1e-6 index units on the 10 MHz grid) from a computed edge is
 * therefore decided by the real-arithmetic run. The scan takes each
 * run as computed, except the one candidate, if any, within kEdgeGhz
 * of an edge: it settles that candidate by evaluating the term's own
 * predicate (yield::pairCollides / tripleCollides, the same operands
 * in the same order) there. Trials outside those bounds, and every
 * trial on a grid or model that fails them, settle every candidate
 * that way, so the survivor counts equal the predicate's on every
 * input.
 */

#include "design/freq_alloc.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace qpad::design
{

using arch::Architecture;
using arch::DeviceConstants;
using arch::Layout;
using arch::PhysQubit;
using yield::CollisionChecker;
using yield::CollisionModel;
using PairTerm = CollisionChecker::PairTerm;
using TripleTerm = CollisionChecker::TripleTerm;

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
    std::vector<PairTerm> pairs;
    std::vector<TripleTerm> triples;
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

/**
 * Draw one visit of q: its terms and the common-random-numbers
 * table. Lane draw order: one draw of the allocator's stream seeds a
 * lane sampler (`sampler_seed`); trial t of each 8-trial block is
 * lane t % 8, reading its involved-qubit deviates and then q's
 * noise. The trailing block discards the unused lanes; they are
 * independent streams, so the kept draws are the same for every
 * trial-count remainder.
 */
detail::LocalScan
drawLocalScan(const Architecture &arch, PhysQubit q,
              const std::vector<bool> &assigned,
              const std::vector<double> &freqs,
              const FreqAllocOptions &options, uint64_t sampler_seed)
{
    const LocalTerms terms = buildLocalTerms(arch, q, assigned);
    detail::LocalScan scan;
    const std::size_t n_inv = terms.involved.size();
    scan.n_inv = n_inv;

    std::vector<std::size_t> index_of(arch.numQubits(), SIZE_MAX);
    for (std::size_t idx = 0; idx < n_inv; ++idx)
        index_of[terms.involved[idx]] = idx;
    scan.qi = index_of[q];
    scan.pairs.reserve(terms.pairs.size());
    for (const auto &p : terms.pairs)
        scan.pairs.push_back(
            {PhysQubit(index_of[p.a]), PhysQubit(index_of[p.b])});
    scan.triples.reserve(terms.triples.size());
    for (const auto &t : terms.triples)
        scan.triples.push_back({PhysQubit(index_of[t.j]),
                                PhysQubit(index_of[t.k]),
                                PhysQubit(index_of[t.i])});

    const std::size_t trials = options.local_trials;
    constexpr std::size_t B = GaussianBlockSampler::kLanes;
    scan.post.resize(trials * n_inv);
    scan.q_noise.resize(trials);
    GaussianBlockSampler sampler(sampler_seed);
    std::vector<double> means(n_inv + 1);
    for (std::size_t idx = 0; idx < n_inv; ++idx)
        means[idx] = freqs[terms.involved[idx]];
    means[n_inv] = 0.0; // the q_noise row is pure noise
    std::vector<double> z((n_inv + 1) * B);
    for (std::size_t t0 = 0; t0 < trials; t0 += B) {
        const std::size_t active = std::min(B, trials - t0);
        sampler.fillAffine(z.data(), means.data(), options.sigma_ghz,
                           n_inv + 1);
        for (std::size_t l = 0; l < active; ++l) {
            double *row = &scan.post[(t0 + l) * n_inv];
            for (std::size_t idx = 0; idx < n_inv; ++idx)
                row[idx] = z[idx * B + l];
            scan.q_noise[t0 + l] = z[n_inv * B + l];
        }
    }
    return scan;
}

// Bounds of the exactness argument in the file comment.
constexpr double kEdgeGhz = 1e-8;
constexpr double kMaxGhz = 1e3;
constexpr double kGridDriftGhz = 1e-10;
// Keeps kEdgeGhz under 0.01 index units: one candidate per edge.
constexpr double kMinStepGhz = 1e-6;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Conditions 5 and 6: with q as the shared neighbour they skip q.
constexpr unsigned kNoQConditions = (1u << 5) | (1u << 6);

using Word = uint64_t;
constexpr std::size_t kWordBits = 64;

/** Bits of the candidates below c in one word (c clamped to 0..64). */
inline Word
below(std::ptrdiff_t c)
{
    const auto k = Word(std::clamp<std::ptrdiff_t>(c, 0, kWordBits));
    return ((Word{1} << (k % kWordBits)) - 1) | (Word{0} - (k / kWordBits));
}

/**
 * The interval-mask scan of one visit: its terms sorted by where q
 * sits in them, and the collision model's windows in index units.
 */
class MaskScan
{
  public:
    MaskScan(const detail::LocalScan &scan, const CollisionModel &model,
             const std::vector<double> &candidates, double step_ghz);

    /** Survivors per candidate over trials [begin, end). */
    std::vector<std::size_t> tally(std::size_t begin,
                                   std::size_t end) const;

  private:
    /**
     * A term and q's partner in it: a pair's other end, or a
     * triple's other outer qubit.
     */
    template <typename Term>
    struct WithPartner
    {
        Term term;
        std::size_t other;
    };

    const detail::LocalScan &scan_;
    const CollisionModel &model_;
    const std::vector<double> &cands_;
    std::size_t words_;
    std::vector<Word> valid_; // bits of real candidates
    // Whether computed edges may be trusted for in-bound trials.
    bool edges_ok_;
    // Whether condition 3's window around x -+ d swallows the edge of
    // condition 4's half-line there, so that each pair joins the two
    // into one half-line starting at outer_.
    bool merge34_;
    double inv_step_, eps_;
    // Half-widths and offsets of the windows, in index units.
    double w1_, w2_, w3_, w5_, w6_, w7_, half_d_, d_, outer_;

    std::vector<WithPartner<PairTerm>> pairs_;
    std::vector<WithPartner<TripleTerm>> outers_; // q is k or i
    std::vector<TripleTerm> centres_;             // q is j
};

MaskScan::MaskScan(const detail::LocalScan &scan,
                   const CollisionModel &model,
                   const std::vector<double> &candidates,
                   double step_ghz)
    : scan_(scan), model_(model), cands_(candidates)
{
    const std::size_t n = candidates.size();
    words_ = (n + kWordBits - 1) / kWordBits;
    valid_.assign(words_, ~Word{0});
    if (n % kWordBits != 0)
        valid_.back() = ~Word{0} >> (kWordBits - n % kWordBits);

    auto bounded = [](double v) { return std::fabs(v) <= kMaxGhz; };
    edges_ok_ = std::isfinite(step_ghz) && step_ghz >= kMinStepGhz &&
                bounded(step_ghz) && bounded(model.delta) &&
                bounded(model.thr1) && bounded(model.thr2) &&
                bounded(model.thr3) && bounded(model.thr5) &&
                bounded(model.thr6) && bounded(model.thr7);
    for (std::size_t c = 0; c < n && edges_ok_; ++c)
        edges_ok_ = bounded(candidates[c]) &&
                    std::fabs(candidates[c] -
                              (candidates[0] + double(c) * step_ghz)) <=
                        kGridDriftGhz;

    inv_step_ = 1.0 / step_ghz;
    eps_ = kEdgeGhz * inv_step_;
    w1_ = model.thr1 * inv_step_;
    w2_ = model.thr2 * inv_step_;
    w3_ = model.thr3 * inv_step_;
    w5_ = model.thr5 * inv_step_;
    w6_ = model.thr6 * inv_step_;
    w7_ = model.thr7 * inv_step_;
    half_d_ = -model.delta / 2 * inv_step_;
    d_ = -model.delta * inv_step_;
    // A candidate within eps_ of the inner edge is then decided by
    // condition 3, at least eps_ inside its window.
    merge34_ = w3_ > 2 * eps_;
    outer_ = merge34_ ? d_ - w3_ : d_;

    const std::size_t qi = scan.qi;
    for (const PairTerm &p : scan.pairs) {
        qpad_assert((p.a == qi) != (p.b == qi),
                    "pair term must contain q exactly once");
        pairs_.push_back({p, p.a == qi ? p.b : p.a});
    }
    for (const TripleTerm &t : scan.triples) {
        qpad_assert((t.j == qi) + (t.k == qi) + (t.i == qi) == 1,
                    "triple term must contain q exactly once");
        if (t.j == qi)
            centres_.push_back(t);
        else
            outers_.push_back({t, t.k == qi ? t.i : t.k});
    }
}

std::vector<std::size_t>
MaskScan::tally(std::size_t begin, std::size_t end) const
{
    const std::size_t n = cands_.size();
    const double n_d = double(n);
    const std::size_t qi = scan_.qi;
    // A local copy: stores through `dead` could alias a member.
    const std::size_t words = words_;
    // Survivor counts, bit-sliced: bit c of plane k is bit k of
    // candidate c's count. Adding a trial's survivor mask ripples a
    // carry through a few planes; no count can reach 2^planes.
    const std::size_t planes = std::bit_width(end - begin);
    std::vector<Word> counter(planes * words, 0);
    std::vector<Word> dead_words(words);
    Word *dead = dead_words.data();
    // Candidates within eps_ of an edge of the current term; a pair
    // term has at most 12 edges.
    std::array<std::size_t, 16> near{};
    std::size_t n_near = 0;

    for (std::size_t t = begin; t < end; ++t) {
        const double *row = &scan_.post[t * scan_.n_inv];
        const double noise = scan_.q_noise[t];
        auto at = [&](std::size_t idx, std::size_t c) {
            return idx == qi ? cands_[c] + noise : row[idx];
        };

        bool none_survive = false;
        for (const TripleTerm &tr : centres_)
            none_survive |= (yield::tripleConditionMask(
                                 model_, 0.0, row[tr.k], row[tr.i]) &
                             kNoQConditions) != 0;
        if (none_survive)
            continue;

        bool edges_ok = edges_ok_ && std::fabs(noise) <= kMaxGhz;
        for (std::size_t idx = 0; idx < scan_.n_inv; ++idx)
            edges_ok &= idx == qi || std::fabs(row[idx]) <= kMaxGhz;
        std::fill(dead, dead + words, Word{0});

        // Index position of the candidate whose qv equals `ghz`.
        const double shift = cands_[0] + noise;
        auto index = [&](double ghz) { return (ghz - shift) * inv_step_; };
        auto edge = [&](std::ptrdiff_t c) {
            if (c >= 0 && std::size_t(c) < n)
                near[n_near++] = std::size_t(c);
        };
        // Kill the candidates in the open index interval (lo, hi),
        // leaving any within eps_ of an edge to settle(). Edges are
        // clamped half a step outside the grid, where no candidate
        // is near them.
        auto run = [&](double lo, double hi) {
            if (!(hi > -1.0 && lo < n_d))
                return;
            const double a = std::min(std::max(lo, -0.5), n_d - 0.5) + 1;
            const double b = std::min(std::max(hi, -0.5), n_d - 0.5) + 1;
            // first: the first candidate above lo; past: one past the
            // last candidate below hi.
            auto first = std::ptrdiff_t(a), past = std::ptrdiff_t(b);
            const double fa = a - double(first), fb = b - double(past);
            if (std::fabs(fa - 0.5) > 0.5 - eps_ ||
                std::fabs(fb - 0.5) > 0.5 - eps_) [[unlikely]] {
                if (fa < eps_)
                    edge(first - 1);
                else if (fa > 1 - eps_)
                    edge(first++);
                if (fb < eps_)
                    edge(--past);
                else if (fb > 1 - eps_)
                    edge(past);
            }
            for (std::size_t w = 0; w < words; ++w) {
                const auto base = std::ptrdiff_t(w * kWordBits);
                dead[w] |= below(past - base) & ~below(first - base);
            }
        };
        auto window = [&](double centre, double half_width) {
            run(centre - half_width, centre + half_width);
        };
        // Decide the candidates the runs left open with the term's
        // own predicate: those near an edge, or all of them when the
        // edges cannot be trusted.
        auto settle = [&](auto &&collides) {
            auto check = [&](std::size_t c) {
                if (!((dead[c / kWordBits] >> (c % kWordBits)) & 1u) &&
                    collides(c))
                    dead[c / kWordBits] |= Word{1} << (c % kWordBits);
            };
            if (!edges_ok) {
                for (std::size_t c = 0; c < n; ++c)
                    check(c);
                return;
            }
            for (std::size_t e = 0; e < n_near; ++e)
                check(near[e]);
            n_near = 0;
        };

        for (const auto &[p, other] : pairs_) {
            if (edges_ok) {
                const double s = index(row[other]);
                window(s, w1_);
                window(s + half_d_, w2_);
                window(s - half_d_, w2_);
                run(s + outer_, kInf);
                run(-kInf, s - outer_);
                if (!merge34_) {
                    window(s + d_, w3_);
                    window(s - d_, w3_);
                }
            }
            settle([&](std::size_t c) {
                return yield::pairCollides(model_, at(p.a, c),
                                           at(p.b, c));
            });
        }
        for (const auto &[tr, other] : outers_) {
            if (edges_ok) {
                const double y = row[other];
                const double s = index(y);
                window(s, w5_);
                window(s + d_, w6_);
                window(s - d_, w6_);
                window(index(2 * row[tr.j] + model_.delta - y), w7_);
            }
            settle([&](std::size_t c) {
                return yield::tripleCollides(model_, at(tr.j, c),
                                             at(tr.k, c), at(tr.i, c));
            });
        }
        for (const TripleTerm &tr : centres_) {
            if (edges_ok)
                window(index((row[tr.k] + row[tr.i] - model_.delta) / 2),
                       w7_ / 2);
            settle([&](std::size_t c) {
                return yield::tripleCollides(model_, at(tr.j, c),
                                             at(tr.k, c), at(tr.i, c));
            });
        }

        for (std::size_t w = 0; w < words; ++w) {
            Word carry = ~dead[w] & valid_[w];
            for (Word *plane = &counter[w]; carry != 0; plane += words) {
                const Word next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
    }

    std::vector<std::size_t> counts(n, 0);
    for (std::size_t c = 0; c < n; ++c)
        for (std::size_t k = 0; k < planes; ++k)
            counts[c] |= std::size_t((counter[k * words + c / kWordBits] >>
                                      (c % kWordBits)) & 1u)
                         << k;
    return counts;
}

} // namespace

namespace detail
{

std::vector<double>
candidateGrid(double step_ghz)
{
    if (!std::isfinite(step_ghz) || step_ghz <= 0.0)
        qpad_fatal("frequency grid step must be a positive number of "
                   "GHz, got ", step_ghz);
    std::vector<double> candidates;
    for (double f = DeviceConstants::freq_min_ghz;
         f <= DeviceConstants::freq_max_ghz + 1e-9; f += step_ghz)
        candidates.push_back(f);
    return candidates;
}

std::vector<std::size_t>
countSurvivors(const LocalScan &scan, const CollisionModel &model,
               const std::vector<double> &candidates, double step_ghz,
               const runtime::Options &exec)
{
    const std::size_t n = candidates.size();
    const std::size_t trials = scan.trials();
    if (n == 0 || trials == 0)
        return std::vector<std::size_t>(n, 0);
    const MaskScan mask_scan(scan, model, candidates, step_ghz);
    // One chunk of trials per worker: a chunk's cost is its trials,
    // so equal chunks balance, and each candidate scan stays one
    // parallel region. Integer sums make the counts independent of
    // the chunking.
    const std::size_t workers = runtime::resolveThreads(exec);
    const std::size_t grain = (trials + workers - 1) / workers;
    return runtime::parallel_reduce(
        exec, trials, grain, std::vector<std::size_t>(n, 0),
        [&](std::size_t begin, std::size_t end, std::size_t) {
            return mask_scan.tally(begin, end);
        },
        [](std::vector<std::size_t> acc,
           const std::vector<std::size_t> &part) {
            for (std::size_t c = 0; c < acc.size(); ++c)
                acc[c] += part[c];
            return acc;
        });
}

FreqAllocResult
allocateFrequencies(const Architecture &arch,
                    const FreqAllocOptions &options,
                    const exec::Context &ctx, SurvivorCounter count)
{
    // A NaN sigma makes every collision comparison false: each
    // candidate would score 1.0 and the band floor would win.
    if (!std::isfinite(options.sigma_ghz) || options.sigma_ghz < 0.0)
        qpad_fatal("fabrication sigma must be a finite number of GHz "
                   ">= 0, got ", options.sigma_ghz);
    const std::size_t n = arch.numQubits();
    qpad_assert(n > 0, "cannot allocate frequencies on an empty chip");

    // Effective execution options: the context's token rides along
    // into the candidate-scan regions, and the BFS/refine loops poll
    // it between qubit visits below.
    const runtime::Options run_exec = ctx.apply(options.exec);

    // Candidate grid 5.00, 5.01, ..., 5.34 GHz.
    const std::vector<double> candidates =
        candidateGrid(options.grid_step_ghz);

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
        const LocalScan scan = drawLocalScan(
            arch, q, assigned, result.freqs, options, rng.next());
        const std::vector<std::size_t> ok =
            count(scan, options.model, candidates,
                  options.grid_step_ghz, run_exec);

        // First strict maximum, matching the sequential scan order.
        double best_score = -1.0;
        double best_freq = mid;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            const double score =
                double(ok[ci]) / double(options.local_trials);
            if (score > best_score) {
                best_score = score;
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

} // namespace detail

FreqAllocResult
allocateFrequencies(const Architecture &arch,
                    const FreqAllocOptions &options,
                    const exec::Context &ctx)
{
    return detail::allocateFrequencies(arch, options, ctx,
                                       &detail::countSurvivors);
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
