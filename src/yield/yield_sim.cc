#include "yield/yield_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/seed_seq.hh"

namespace qpad::yield
{

namespace
{

/**
 * Trials per RNG stream. Fixed (never derived from the thread
 * count) so the shard layout — and therefore every random draw —
 * is a pure function of (seed, trials). This MUST stay a fixed
 * grain, never guided (grain 0): the chunk index is the RNG shard,
 * so guided sizing would re-chunk the range and change every draw.
 * Trials are uniform-cost anyway — load balance comes from the
 * runners sharing one chunk cursor, not from chunk sizing — and the
 * fixed 1024-trial blocks keep the SoA lane kernels (batched
 * collision checker, GaussianBlockSampler) walking whole 8-lane
 * blocks.
 */
constexpr std::size_t kShardTrials = 1024;

// The lane draw order identifies sampler lanes with SoA block lanes;
// a diverging lane count would silently re-pair trials and draws.
static_assert(GaussianBlockSampler::kLanes ==
              BatchCollisionChecker::kLanes);

/** Mergeable per-shard tallies. */
struct ShardCounts
{
    std::size_t successes = 0;
    ConditionCounts condition_trials{};
};

ShardCounts
mergeCounts(ShardCounts acc, const ShardCounts &other)
{
    acc.successes += other.successes;
    for (std::size_t c = 0; c < acc.condition_trials.size(); ++c)
        acc.condition_trials[c] += other.condition_trials[c];
    return acc;
}

} // namespace

double
YieldResult::stderrEstimate() const
{
    if (trials == 0)
        return 0.0;
    return std::sqrt(yield * (1.0 - yield) / double(trials));
}

YieldResult
estimateYield(const CollisionChecker &checker,
              const std::vector<double> &pre_fab_freqs,
              const YieldOptions &options, const exec::Context &ctx)
{
    for (double f : pre_fab_freqs)
        qpad_assert(f > 0.0, "unassigned frequency in yield simulation");

    YieldResult result;
    result.trials = options.trials;
    // Zero-trial runs have nothing to tally; returning here keeps
    // yield at 0 instead of computing 0/0 below.
    if (options.trials == 0)
        return result;

    // The per-condition statistics need the scalar count walk; plain
    // success tallies go through the batched SoA kernel, which is
    // bit-identical (same conditions, same RNG draw order).
    const bool batched =
        !options.collect_condition_stats && useBatchedKernel();

    // One span + a few counter bumps per *estimate* (never per
    // trial): the Monte Carlo loop itself stays untouched.
    QPAD_SPAN("yield.estimate");
    {
        static obs::Counter &estimates = obs::counter("yield.estimates");
        static obs::Counter &trials = obs::counter("yield.trials");
        static obs::Counter &batched_runs =
            obs::counter("yield.batched_estimates");
        static obs::Counter &scalar_runs =
            obs::counter("yield.scalar_estimates");
        estimates.add();
        trials.add(options.trials);
        (batched ? batched_runs : scalar_runs).add();
    }
    const BatchCollisionChecker batch =
        batched ? BatchCollisionChecker(checker)
                : BatchCollisionChecker();

    // Evaluate one trial of the scalar walk (count statistics or
    // oracle check) on the post-fabrication frequencies in `post`.
    auto scalarTrial = [&](const std::vector<double> &post,
                           ShardCounts &local) {
        if (options.collect_condition_stats) {
            ConditionCounts counts = checker.countCollisions(post);
            bool failed = false;
            for (int c = 1; c <= 7; ++c) {
                if (counts[c] > 0) {
                    ++local.condition_trials[c];
                    failed = true;
                }
            }
            if (!failed)
                ++local.successes;
        } else {
            if (!checker.anyCollision(post))
                ++local.successes;
        }
    };

    // Each kShardTrials-sized block draws from its own child stream
    // of options.seed; partials merge in shard order. Thread count
    // affects wall clock only, never the tallies.
    const runtime::SeedSequence seeds(options.seed);
    ShardCounts totals = runtime::parallel_reduce(
        ctx.apply(options.exec), options.trials, kShardTrials,
        ShardCounts{},
        [&](std::size_t begin, std::size_t end, std::size_t shard) {
            ShardCounts local;
            const std::size_t nq = pre_fab_freqs.size();
            constexpr std::size_t B = BatchCollisionChecker::kLanes;
            // The shard's sampler fills a whole SoA block at once
            // (trial t+l = lane l, qubits in row order). All kLanes
            // lanes advance even in a remainder block — lanes are
            // independent streams, so discarding the inactive ones
            // cannot disturb draws elsewhere, which is what makes
            // the tallies remainder-independent. The scalar walk
            // reads the very same block, so kernel choice never
            // changes the stream.
            GaussianBlockSampler sampler(seeds.childSeed(shard));
            std::vector<double> block(nq * B);
            std::vector<double> post(nq);
            for (std::size_t t = begin; t < end; t += B) {
                const std::size_t active = std::min(B, end - t);
                sampler.fillAffine(block.data(), pre_fab_freqs.data(),
                                   options.sigma_ghz, nq);
                if (batched) {
                    local.successes += std::size_t(std::popcount(
                        batch.survivorMask(block.data(), active)));
                    continue;
                }
                for (std::size_t l = 0; l < active; ++l) {
                    for (std::size_t q = 0; q < nq; ++q)
                        post[q] = block[q * B + l];
                    scalarTrial(post, local);
                }
            }
            return local;
        },
        mergeCounts);

    result.successes = totals.successes;
    result.condition_trials = totals.condition_trials;
    result.yield = double(result.successes) / double(options.trials);
    return result;
}

YieldResult
estimateYield(const arch::Architecture &arch, const YieldOptions &options,
              const exec::Context &ctx)
{
    qpad_assert(arch.frequenciesAssigned(),
                "architecture '", arch.name(),
                "' has unassigned frequencies");
    CollisionChecker checker(arch, options.model);
    return estimateYield(checker, arch.frequencies(), options, ctx);
}

} // namespace qpad::yield
