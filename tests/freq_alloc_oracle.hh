/**
 * @file
 * Test helper: the reference candidate scan of Algorithm 3. A plain
 * loop over every candidate and every trial that asks the scalar
 * collision predicates (yield::pairCollides / tripleCollides), the
 * same definition the yield model uses. It has the signature of
 * design::detail::countSurvivors, so it can stand in for the scan of
 * a whole allocation through design::detail::allocateFrequencies.
 */

#ifndef QPAD_TESTS_FREQ_ALLOC_ORACLE_HH
#define QPAD_TESTS_FREQ_ALLOC_ORACLE_HH

#include <vector>

#include "design/freq_alloc.hh"
#include "yield/collision.hh"

namespace qpad::test
{

inline std::vector<std::size_t>
oracleSurvivors(const design::detail::LocalScan &scan,
                const yield::CollisionModel &model,
                const std::vector<double> &candidates, double,
                const runtime::Options &)
{
    std::vector<std::size_t> ok(candidates.size(), 0);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        for (std::size_t t = 0; t < scan.trials(); ++t) {
            const double *row = &scan.post[t * scan.n_inv];
            const double qv = candidates[c] + scan.q_noise[t];
            auto at = [&](std::size_t idx) {
                return idx == scan.qi ? qv : row[idx];
            };
            bool failed = false;
            for (const auto &p : scan.pairs)
                failed = failed ||
                         yield::pairCollides(model, at(p.a), at(p.b));
            for (const auto &tr : scan.triples)
                failed = failed || yield::tripleCollides(model, at(tr.j),
                                                         at(tr.k),
                                                         at(tr.i));
            ok[c] += failed ? 0 : 1;
        }
    }
    return ok;
}

} // namespace qpad::test

#endif // QPAD_TESTS_FREQ_ALLOC_ORACLE_HH
