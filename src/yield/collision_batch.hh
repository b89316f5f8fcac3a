/**
 * @file
 * Batched structure-of-arrays collision kernel: the survivor tally of
 * the yield Monte Carlo (estimateYield) on every build. Algorithm 3's
 * candidate scan uses neither this kernel nor the scalar walk: it
 * places collision runs on the candidate grid
 * (design::detail::countSurvivors).
 *
 * BatchCollisionChecker packs the term endpoints into flat index
 * arrays at construction and evaluates kLanes = 8 Monte Carlo trials
 * per call over a qubit-major frequency block. When the translation
 * unit is built with -mavx2 (the CMake probe runs an AVX2 snippet on
 * the build host before enabling it), per term the eight lane
 * comparisons are straight-line fabs/compare arithmetic with no
 * data-dependent branches; per-half dead-lane skips and an
 * all-lanes-dead early-out keep it ahead of the short-circuiting
 * scalar walk even on zero-yield inputs. The AVX2 lanes mirror
 * pairConditionMask / tripleConditionMask expression-for-expression
 * (same operand order, no algebraic rearrangement).
 *
 * Without AVX2 each lane takes the scalar walk's early exit instead,
 * calling pairCollides / tripleCollides on the block in place: the
 * portable build keeps the scalar walk's speed and has no copy of
 * the condition expressions of its own.
 *
 * Either way the kernel agrees bit-for-bit with the scalar
 * CollisionChecker walk, which stays as the condition-statistics
 * path and as the oracle: tests/test_yield.cc asserts the agreement
 * trial-for-trial, including remainder batches, and
 * bench/bench_collision_batch.cc times both.
 */

#ifndef QPAD_YIELD_COLLISION_BATCH_HH
#define QPAD_YIELD_COLLISION_BATCH_HH

#include <cstdint>
#include <vector>

#include "yield/collision.hh"

namespace qpad::yield
{

/** SoA collision predicate over blocks of kLanes trials. */
class BatchCollisionChecker
{
  public:
    /** Trials evaluated per block. */
    static constexpr std::size_t kLanes = 8;

    /** Pack the terms of a prebuilt scalar checker. */
    explicit BatchCollisionChecker(const CollisionChecker &checker);

    /**
     * Flat index of trial t, qubit q in a sequence of kLanes-trial
     * qubit-major blocks over nq qubits — the layout survivorMask
     * reads (block bi starts at bi * nq * kLanes). Single source for
     * every packer of such blocks.
     */
    static constexpr std::size_t
    soaIndex(std::size_t t, std::size_t q, std::size_t nq)
    {
        return (t / kLanes) * nq * kLanes + q * kLanes + t % kLanes;
    }

    /**
     * Evaluate `active` (1..kLanes) trials over a qubit-major block:
     * lane l of qubit q lives at post[q * kLanes + l]. Returns a
     * bitmask with bit l set iff trial l survives all seven
     * conditions; bits >= active are zero. Lanes >= active must
     * still hold readable doubles (the AVX2 lanes evaluate them
     * branch-free, then mask them off).
     */
    uint8_t survivorMask(const double *post,
                         std::size_t active = kLanes) const;

  private:
    CollisionModel model_;
    std::vector<uint32_t> pair_a_, pair_b_;
    std::vector<uint32_t> tri_j_, tri_k_, tri_i_;
};

} // namespace qpad::yield

#endif // QPAD_YIELD_COLLISION_BATCH_HH
