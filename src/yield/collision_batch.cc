#include "yield/collision_batch.hh"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace qpad::yield
{

BatchCollisionChecker::BatchCollisionChecker(
    const CollisionChecker &checker)
    : model_(checker.model())
{
    const auto &pairs = checker.pairs();
    pair_a_.reserve(pairs.size());
    pair_b_.reserve(pairs.size());
    for (const auto &p : pairs) {
        pair_a_.push_back(p.a);
        pair_b_.push_back(p.b);
    }
    const auto &triples = checker.triples();
    tri_j_.reserve(triples.size());
    tri_k_.reserve(triples.size());
    tri_i_.reserve(triples.size());
    for (const auto &t : triples) {
        tri_j_.push_back(t.j);
        tri_k_.push_back(t.k);
        tri_i_.push_back(t.i);
    }
}

namespace
{

constexpr std::size_t kLanes = BatchCollisionChecker::kLanes;

#ifdef __AVX2__

/** |x| with the sign bit cleared — exactly std::fabs, lane-wise. */
inline __m256d
absPd(__m256d x)
{
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/** Lane-wise a < b (ordered quiet compare, like the scalar `<`). */
inline __m256d
ltPd(__m256d a, __m256d b)
{
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}

#endif

} // namespace

uint8_t
BatchCollisionChecker::survivorMask(const double *post,
                                    std::size_t active) const
{
#ifdef __AVX2__
    const double d = model_.delta;
    const double t1 = model_.thr1, t2 = model_.thr2, t3 = model_.thr3;
    const double t5 = model_.thr5, t6 = model_.thr6, t7 = model_.thr7;

    // The lanes repeat the pairConditionMask / tripleConditionMask
    // expressions verbatim (operand order included, no
    // contraction-prone rearrangement): any algebraic change could
    // flip a trial sitting within one ulp of a threshold and break
    // the bit-identical batch/scalar contract.
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d vdh = _mm256_set1_pd(d / 2);
    const __m256d vt1 = _mm256_set1_pd(t1);
    const __m256d vt2 = _mm256_set1_pd(t2);
    const __m256d vt3 = _mm256_set1_pd(t3);
    const __m256d vt5 = _mm256_set1_pd(t5);
    const __m256d vt6 = _mm256_set1_pd(t6);
    const __m256d vt7 = _mm256_set1_pd(t7);

    // Lanes 0-3 and 4-7; a lane's register is all-ones once the
    // trial collided.
    __m256d dead_lo = _mm256_setzero_pd();
    __m256d dead_hi = _mm256_setzero_pd();
    auto all_dead = [&] {
        return (_mm256_movemask_pd(dead_lo) &
                _mm256_movemask_pd(dead_hi)) == 0xF;
    };

    for (std::size_t term = 0; term < pair_a_.size(); ++term) {
        const double *fa = post + std::size_t(pair_a_[term]) * kLanes;
        const double *fb = post + std::size_t(pair_b_[term]) * kLanes;
        for (int h = 0; h < 2; ++h) {
            // A half whose four lanes already collided cannot change
            // the outcome; skipping it halves the work in the common
            // case where one stubborn lane keeps the batch alive.
            __m256d &dead = h == 0 ? dead_lo : dead_hi;
            if (_mm256_movemask_pd(dead) == 0xF)
                continue;
            const __m256d a = _mm256_loadu_pd(fa + 4 * h);
            const __m256d b = _mm256_loadu_pd(fb + 4 * h);
            // c1: |a - b| < t1
            __m256d c = ltPd(absPd(_mm256_sub_pd(a, b)), vt1);
            // c2: |a - (b - d/2)| < t2, both orientations.
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            a, _mm256_sub_pd(b, vdh))),
                        vt2));
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            b, _mm256_sub_pd(a, vdh))),
                        vt2));
            // c3: |a - (b - d)| < t3, both orientations.
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            a, _mm256_sub_pd(b, vd))),
                        vt3));
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            b, _mm256_sub_pd(a, vd))),
                        vt3));
            // c4: a > b - d or b > a - d.
            c = _mm256_or_pd(
                c, ltPd(_mm256_sub_pd(b, vd), a));
            c = _mm256_or_pd(
                c, ltPd(_mm256_sub_pd(a, vd), b));
            dead = _mm256_or_pd(dead, c);
        }
        if (all_dead())
            return 0;
    }
    for (std::size_t term = 0; term < tri_j_.size(); ++term) {
        const double *fj = post + std::size_t(tri_j_[term]) * kLanes;
        const double *fk = post + std::size_t(tri_k_[term]) * kLanes;
        const double *fi = post + std::size_t(tri_i_[term]) * kLanes;
        for (int h = 0; h < 2; ++h) {
            __m256d &dead = h == 0 ? dead_lo : dead_hi;
            if (_mm256_movemask_pd(dead) == 0xF)
                continue;
            const __m256d j = _mm256_loadu_pd(fj + 4 * h);
            const __m256d k = _mm256_loadu_pd(fk + 4 * h);
            const __m256d i = _mm256_loadu_pd(fi + 4 * h);
            // c5: |i - k| < t5
            __m256d c = ltPd(absPd(_mm256_sub_pd(i, k)), vt5);
            // c6: |i - (k - d)| < t6, both orientations.
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            i, _mm256_sub_pd(k, vd))),
                        vt6));
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            k, _mm256_sub_pd(i, vd))),
                        vt6));
            // c7: |2 j + d - (k + i)| < t7.
            const __m256d two_j = _mm256_add_pd(j, j);
            c = _mm256_or_pd(
                c, ltPd(absPd(_mm256_sub_pd(
                            _mm256_add_pd(two_j, vd),
                            _mm256_add_pd(k, i))),
                        vt7));
            dead = _mm256_or_pd(dead, c);
        }
        if (all_dead())
            return 0;
    }

    const unsigned dead_bits =
        unsigned(_mm256_movemask_pd(dead_lo)) |
        (unsigned(_mm256_movemask_pd(dead_hi)) << 4);
    return static_cast<uint8_t>(~dead_bits & ((1u << active) - 1u));
#else
    // Without AVX2 each lane takes the scalar walk's early exit: it
    // stops at its first colliding term, reading the block in place
    // through the scalar predicates.
    auto survives = [&](const double *lane) {
        auto at = [lane](uint32_t q) {
            return lane[std::size_t(q) * kLanes];
        };
        for (std::size_t term = 0; term < pair_a_.size(); ++term)
            if (pairCollides(model_, at(pair_a_[term]),
                             at(pair_b_[term])))
                return false;
        for (std::size_t term = 0; term < tri_j_.size(); ++term)
            if (tripleCollides(model_, at(tri_j_[term]),
                               at(tri_k_[term]), at(tri_i_[term])))
                return false;
        return true;
    };
    uint8_t mask = 0;
    for (std::size_t l = 0; l < active; ++l)
        mask |= static_cast<uint8_t>(unsigned(survives(post + l)) << l);
    return mask;
#endif
}

} // namespace qpad::yield
