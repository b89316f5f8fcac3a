/**
 * @file
 * Lane-parallel Gaussian block sampler — the vectorized counterpart
 * of Rng::gaussian() for the Monte Carlo hot paths.
 *
 * GaussianBlockSampler runs kLanes = 8 independent xoshiro256**
 * generators with interleaved state (lane l is child stream l of the
 * sampler seed, see Rng::childSeed) and converts their output to
 * standard normal deviates with a batched Box-Muller transform. The
 * log/sin/cos evaluations use fixed polynomial kernels (Cephes
 * minimax coefficients) written against a small 8-wide vector layer
 * with exactly one definition of each arithmetic op, on GCC
 * vector extensions: the compiler lowers it to AVX2 when the
 * translation unit is built with -mavx2 (the same run-on-host CMake
 * probe as the batched collision kernel) and to SSE2 otherwise.
 * Every op in the pipeline is an IEEE-754 correctly-rounded
 * primitive (add, sub, mul, div, sqrt, floor, integer bit ops)
 * applied in one fixed order, and the file is compiled with
 * -ffp-contract=off, so the sampled bits are identical on AVX2 and
 * non-AVX2 builds. tests/test_gauss_block.cc pins golden bit
 * patterns on both.
 *
 * Draw-order contract (kDrawOrderVersion, see also common/rng.hh):
 * lane l produces an autonomous stream of deviates; a fill of n rows
 * appends n deviates to every lane at out[row * kLanes + lane]. The
 * per-lane streams are pure functions of the sampler seed — they do
 * not depend on how fills are sized or batched (an odd row count
 * carries the pending Box-Muller pair partner into the next fill),
 * which is what makes results independent of batch remainders.
 */

#ifndef QPAD_COMMON_GAUSS_BLOCK_HH
#define QPAD_COMMON_GAUSS_BLOCK_HH

#include <cstddef>
#include <cstdint>

namespace qpad
{

/**
 * Version of the random draw order shared by every Monte Carlo
 * consumer (yield simulation, frequency allocation): trials are
 * grouped in blocks of GaussianBlockSampler::kLanes, trial t of a
 * block consumes lane t % kLanes of a GaussianBlockSampler, qubits
 * in row order. The cache keys encode this value, so results stored
 * under another draw order can never be served.
 *
 * Bump on any change to draw consumption.
 */
constexpr uint8_t kDrawOrderVersion = 2;

/** 8-lane xoshiro256** + batched Box-Muller standard normals. */
class GaussianBlockSampler
{
  public:
    /** Independent generator lanes per block (= one SoA block). */
    static constexpr std::size_t kLanes = 8;

    /**
     * Seed the eight lanes as child streams 0..kLanes-1 of `seed`
     * (lane l state = Rng(Rng::childSeed(seed, l))).
     */
    explicit GaussianBlockSampler(uint64_t seed);

    /**
     * Append the next standard normal of every lane to each of
     * `rows` rows: out[r * kLanes + l] = lane l's deviate for row r.
     * Fills are composable: fill(a) then fill(b) writes the same
     * deviates as one fill(a + b).
     */
    void fillStandard(double *out, std::size_t rows);

    /**
     * Same draws as fillStandard, stored as
     * out[r * kLanes + l] = means[r] + sigma * z, computed in that
     * exact expression order on every build. The underlying
     * standard normals (and the carried odd-row partner) are
     * unaffected by `means`/`sigma`, so mixed-parameter fills stay
     * composable.
     */
    void fillAffine(double *out, const double *means, double sigma,
                    std::size_t rows);

  private:
    /** Interleaved xoshiro256** state: word w of lane l. */
    alignas(32) uint64_t state_[4][kLanes];
    /** Pending Box-Muller partner per lane (valid iff has_carry_). */
    alignas(32) double carry_[kLanes];
    bool has_carry_ = false;
};

} // namespace qpad

#endif // QPAD_COMMON_GAUSS_BLOCK_HH
