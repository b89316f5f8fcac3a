/**
 * @file
 * Experiment E5 (paper Figure 10): the main result. For each of the
 * twelve benchmarks, prints the yield vs normalized-reciprocal-gate-
 * count series of all five experiment configurations (ibm, eff-full,
 * eff-5-freq, eff-rd-bus, eff-layout-only).
 *
 * The paper's reading: eff-full points sit up and to the right of
 * the ibm baselines (better Pareto front); ising_model_16 collapses
 * to a vertical line (Section 5.3.1); qft_16's bus selection behaves
 * like random selection (Section 5.4.2).
 *
 * Set QPAD_FIG10_CSV=1 to additionally emit machine-readable CSV,
 * or QPAD_FIG10_CSV=only for CSV alone (no report text — the CSV is
 * then byte-identical between cold and warm cache passes, which the
 * CI two-pass job cmp-checks; the report would differ in its cache-
 * statistics line). QPAD_DEADLINE_MS=<millis> arms a deadline on the
 * sweep's request context; if it expires the run stops within one
 * chunk of work and exits 4 (CI gates on both the exit code and the
 * stop latency). QPAD_FIG10_SUITE=<substring>[,<substring>...]
 * restricts the sweep to matching benchmark names. --expect-warm
 * exits nonzero unless the sweep was FULLY warm: at least one
 * result-cache hit and zero misses. (Hits alone would not prove a
 * warm cache — a multi-benchmark sweep re-evaluates the ibm
 * baselines with identical keys and hits its own intra-run inserts;
 * a cold run necessarily misses its first lookups, so the zero-miss
 * requirement is what ties the gate to pre-populated state.)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "benchmarks/suite.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "exec/cancel.hh"
#include "exec/context.hh"

using namespace qpad;

namespace
{

/** Does `name` match the QPAD_FIG10_SUITE filter (empty = all)? */
bool
suiteSelected(const std::string &name)
{
    const char *filter = std::getenv("QPAD_FIG10_SUITE");
    if (!filter || !*filter)
        return true;
    std::string list(filter);
    for (std::size_t pos = 0; pos < list.size();) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item = list.substr(pos, comma - pos);
        if (!item.empty() && name.find(item) != std::string::npos)
            return true;
        pos = comma + 1;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bool expect_warm = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--expect-warm") == 0) {
            expect_warm = true;
        } else {
            std::fprintf(stderr, "usage: %s [--expect-warm]\n",
                         argv[0]);
            return 2;
        }
    }
    auto options = bench::paperOptions();
    const exec::Context ctx = bench::requestContext();
    // Request-scoped telemetry for the sweep: every span, log event,
    // and flight-recorder entry below carries this request's id (the
    // first context of the process, so id 1 — CI greps the deadline
    // dump for it). Observability only; stdout is unchanged.
    exec::RequestScope scope(ctx, "fig10_pareto");
    const char *csv_env = std::getenv("QPAD_FIG10_CSV");
    const bool csv = csv_env != nullptr;
    const bool csv_only = csv && std::strcmp(csv_env, "only") == 0;

    if (!csv_only) {
        eval::printHeader(std::cout,
                          "Figure 10: yield vs normalized "
                          "1/gate-count, five configurations");
        std::cout << "yield trials = " << options.yield_options.trials
                  << ", sigma = "
                  << options.yield_options.sigma_ghz * 1000
                  << " MHz\n\n";
    }

    std::size_t cache_hits = 0, cache_misses = 0;
    bool csv_header = true;
    try {
        for (const auto &info : benchmarks::paperSuite()) {
            if (!suiteSelected(info.name))
                continue;
            auto experiment = eval::runBenchmark(info, options, ctx);
            cache_hits += std::size_t(
                obs::valueOf(experiment.metrics, "cache.hits"));
            cache_misses += std::size_t(
                obs::valueOf(experiment.metrics, "cache.misses"));
            if (!csv_only)
                eval::printExperiment(std::cout, experiment);
            if (csv) {
                eval::printExperimentCsv(std::cout, experiment,
                                         csv_header);
                csv_header = false;
            }
            if (csv_only)
                continue;

            // Per-benchmark headline, matching Section 5.3: the most
            // simplified eff design against ibm(1), and the richest
            // eff design against ibm(4).
            const eval::DataPoint *ibm1 = nullptr, *ibm4 = nullptr;
            for (const auto &p : experiment.points) {
                if (p.arch_name == "ibm-16q-2qbus")
                    ibm1 = &p;
                if (p.arch_name == "ibm-20q-4qbus")
                    ibm4 = &p;
            }
            auto eff = experiment.config("eff-full");
            if (ibm1 && ibm4 && !eff.empty()) {
                const auto *eff_min = eff.front();
                const auto *eff_max = eff.back();
                auto ratio_cell = [](double num,
                                     const eval::DataPoint *den) {
                    double floor = den->yield_trials > 0
                                       ? 1.0 / double(den->yield_trials)
                                       : 1e-7;
                    std::string prefix = den->yield > 0 ? "" : ">=";
                    return prefix +
                           eval::formatFixed(
                               num / std::max(den->yield, floor), 1) +
                           "x";
                };
                std::cout
                    << "  summary: eff-min vs ibm(1): yield "
                    << ratio_cell(eff_min->yield, ibm1) << ", gates "
                    << eval::formatFixed(double(eff_min->gate_count) /
                                             ibm1->gate_count,
                                         3)
                    << ";  eff-max vs ibm(4): yield "
                    << ratio_cell(eff_max->yield, ibm4) << ", gates "
                    << eval::formatFixed(double(eff_max->gate_count) /
                                             ibm4->gate_count,
                                         3)
                    << "\n";
            }
            std::cout << "\n";
        }
    } catch (const exec::CancelledError &e) {
        // Distinct from the usage (2) and --expect-warm (3) exits so
        // CI can gate on "the deadline, and nothing else, fired".
        // Naming the request id ties the stderr line to the flight
        // dump and request report for the same run.
        std::fprintf(stderr,
                     "qpad bench: fig10 sweep stopped (request %llu): "
                     "%s\n",
                     (unsigned long long)scope.id(), e.what());
        return 4;
    }
    if (expect_warm && (cache_hits == 0 || cache_misses != 0)) {
        std::cerr << "--expect-warm: run was not fully warm ("
                  << cache_hits << " hits, " << cache_misses
                  << " misses; is QPAD_CACHE_DIR set and "
                     "populated?)\n";
        return 3;
    }
    return 0;
}
