#include "eval/experiment.hh"

#include <algorithm>
#include <functional>

#include "arch/ibm.hh"
#include "cache/yield_cache.hh"
#include "common/gauss_block.hh"
#include "common/logging.hh"
#include "obs/log.hh"
#include "obs/trace.hh"
#include "profile/coupling.hh"

namespace qpad::eval
{

using arch::Architecture;
using circuit::Circuit;

namespace
{

/**
 * Everything measure() reads besides the architecture: benchmark
 * identity (generate() is deterministic per name; the counts are an
 * integrity check), the mapper knobs, and the yield-measurement
 * policy including adaptive escalation (which changes yield_trials).
 * options.exec never affects the bytes of a DataPoint (runtime
 * contract) and is excluded.
 */
void
encodeMeasureInputs(cache::Encoder &enc,
                    const benchmarks::BenchmarkInfo &info,
                    const Circuit &circuit,
                    const ExperimentOptions &options)
{
    enc.str(info.name);
    enc.u64(circuit.numQubits());
    enc.u64(circuit.unitaryGateCount());
    const mapping::MappingOptions &mo = options.mapping_options;
    enc.f64(mo.extended_weight);
    enc.u64(mo.extended_set_size);
    enc.f64(mo.decay_delta);
    enc.u32(mo.initial_mapping_rounds);
    enc.u8(mo.sabre_initial_mapping ? 1 : 0);
    enc.u64(mo.seed);
    const yield::YieldOptions &yo = options.yield_options;
    enc.u64(yo.trials);
    enc.f64(yo.sigma_ghz);
    enc.u64(yo.seed);
    enc.u8(yo.collect_condition_stats ? 1 : 0);
    cache::encodeCollisionModel(enc, yo.model);
    // The draw order changes the drawn numbers.
    enc.u8(kDrawOrderVersion);
    enc.u8(options.adaptive_yield_trials ? 1 : 0);
    enc.u64(options.max_yield_trials);
}

/** Whole-point key of an ibm-baseline job: the fixed architecture
 * (coords, buses, frequencies) plus the measurement inputs. */
cache::Fingerprint
ibmPointKey(const benchmarks::BenchmarkInfo &info,
            const Circuit &circuit, const Architecture &baseline,
            const ExperimentOptions &options)
{
    cache::Encoder enc;
    enc.str("qpad.datapoint/v1");
    enc.str("ibm");
    cache::encodeArchitecture(enc, baseline);
    encodeMeasureInputs(enc, info, circuit, options);
    return enc.digest();
}

/**
 * Whole-point key of a design-flow job: the coupling profile (the
 * flow's only circuit-derived input), the full flow configuration,
 * and the measurement inputs. config/arch_name are encoded too so
 * two jobs that happen to share parameters still key separately —
 * their DataPoints differ in those strings.
 */
cache::Fingerprint
flowPointKey(const benchmarks::BenchmarkInfo &info,
             const Circuit &circuit,
             const profile::CouplingProfile &prof,
             const design::DesignFlowOptions &flow,
             const std::string &config, const std::string &arch_name,
             const ExperimentOptions &options)
{
    cache::Encoder enc;
    enc.str("qpad.datapoint/v1");
    enc.str("flow");
    enc.str(config);
    enc.str(arch_name);
    enc.u64(prof.num_qubits);
    for (std::size_t i = 0; i < prof.num_qubits; ++i)
        for (std::size_t j = i; j < prof.num_qubits; ++j)
            enc.u32(prof.strength(i, j));
    enc.u8(uint8_t(flow.bus_scheme));
    enc.u64(flow.max_buses);
    enc.u8(uint8_t(flow.freq_scheme));
    enc.u64(flow.bus_seed);
    const design::FreqAllocOptions &fo = flow.freq_options;
    enc.f64(fo.grid_step_ghz);
    enc.u64(fo.local_trials);
    enc.f64(fo.sigma_ghz);
    cache::encodeCollisionModel(enc, fo.model);
    enc.u64(fo.seed);
    enc.u32(fo.refine_sweeps);
    enc.u8(kDrawOrderVersion);
    encodeMeasureInputs(enc, info, circuit, options);
    return enc.digest();
}

/** Payload: the numeric fields only. config/arch_name are key
 * inputs the caller already holds, and norm_recip_gates is a
 * whole-run derived value recomputed by normalize(). Integers are
 * exact and the yield is stored as its IEEE-754 bit pattern, so a
 * decoded point is bit-identical to the computed one. */
std::vector<uint8_t>
encodeDataPoint(const DataPoint &point)
{
    cache::Encoder enc;
    enc.u64(point.num_qubits);
    enc.u64(point.num_edges);
    enc.u64(point.num_buses);
    enc.u64(point.gate_count);
    enc.u64(point.swaps);
    enc.f64(point.yield);
    enc.u64(point.yield_trials);
    return enc.bytes();
}

bool
decodeDataPoint(const std::vector<uint8_t> &blob, std::string config,
                std::string arch_name, DataPoint &point)
{
    cache::Decoder in(blob);
    uint64_t nq, ne, nb, gates, swaps, ytrials;
    double y;
    if (!in.u64(nq) || !in.u64(ne) || !in.u64(nb) ||
        !in.u64(gates) || !in.u64(swaps) || !in.f64(y) ||
        !in.u64(ytrials) || !in.atEnd())
        return false;
    // A mapped circuit always has gates; 0 means corruption (and
    // would trip normalize()'s divide-by-zero assert downstream).
    if (gates == 0)
        return false;
    point.config = std::move(config);
    point.arch_name = std::move(arch_name);
    point.num_qubits = std::size_t(nq);
    point.num_edges = std::size_t(ne);
    point.num_buses = std::size_t(nb);
    point.gate_count = std::size_t(gates);
    point.swaps = std::size_t(swaps);
    point.yield = y;
    point.yield_trials = std::size_t(ytrials);
    point.norm_recip_gates = 0.0; // filled by normalize()
    return true;
}

/**
 * Run one data-point job through the global cache: a warm rerun
 * skips design, mapping, and yield entirely; concurrent identical
 * jobs (dedup via Store::getOrCompute) compute once. Disabled cache
 * falls straight through to `compute`.
 */
DataPoint
memoizedPoint(const cache::Fingerprint &key, const std::string &config,
              const std::string &arch_name, const exec::Context &ctx,
              const std::function<DataPoint()> &compute)
{
    cache::Store &store = cache::globalStore();
    if (!store.options().enabled)
        return compute();
    const std::vector<uint8_t> blob = store.getOrCompute(
        key, [&] { return encodeDataPoint(compute()); }, ctx.token());
    DataPoint point;
    if (decodeDataPoint(blob, config, arch_name, point))
        return point;
    obs::logWarn("cache.record_dropped",
                 {{"kind", "data_point"}, {"key", key.hex()}});
    point = compute();
    store.put(key, encodeDataPoint(point));
    return point;
}

} // namespace

std::vector<const DataPoint *>
BenchmarkExperiment::config(const std::string &name) const
{
    std::vector<const DataPoint *> out;
    for (const auto &p : points)
        if (p.config == name)
            out.push_back(&p);
    return out;
}

double
BenchmarkExperiment::bestYield(const std::string &config_name) const
{
    double best = 0.0;
    for (const auto *p : config(config_name))
        best = std::max(best, p->yield);
    return best;
}

std::size_t
BenchmarkExperiment::bestGates(const std::string &config_name) const
{
    std::size_t best = SIZE_MAX;
    for (const auto *p : config(config_name))
        best = std::min(best, p->gate_count);
    return best;
}

DataPoint
measure(const std::string &config, const Architecture &arch,
        const Circuit &circuit, const ExperimentOptions &options,
        const exec::Context &ctx)
{
    QPAD_SPAN("eval.measure");
    // An already-stopped request does no work: a warm yield cache
    // would otherwise let a cancelled measurement run to completion.
    ctx.throwIfStopped();
    static obs::Counter &measurements =
        obs::counter("eval.measurements");
    measurements.add();

    DataPoint point;
    point.config = config;
    point.arch_name = arch.name();
    point.num_qubits = arch.numQubits();
    point.num_edges = arch.numEdges();
    point.num_buses = arch.fourQubitBuses().size();

    mapping::MappingResult mapped =
        mapping::mapCircuit(circuit, arch, options.mapping_options, ctx);
    point.gate_count = mapped.total_gates;
    point.swaps = mapped.swaps;

    // Every estimate goes through the result cache — including each
    // adaptive-escalation step, whose (arch, trials) pair is its own
    // key, so a 2M-trial retry found once is never recomputed.
    yield::YieldOptions yopts = options.yield_options;
    yield::YieldResult yr =
        cache::cachedEstimateYield(arch, yopts, ctx);
    while (options.adaptive_yield_trials && yr.successes == 0 &&
           yopts.trials < options.max_yield_trials) {
        // Stop between escalation steps: each step multiplies the
        // trial budget tenfold, so this is the last cheap exit
        // before a much longer estimate.
        ctx.throwIfStopped();
        static obs::Counter &escalations =
            obs::counter("yield.escalations");
        escalations.add();
        yopts.trials = std::min(options.max_yield_trials,
                                yopts.trials * 10);
        yr = cache::cachedEstimateYield(arch, yopts, ctx);
    }
    point.yield = yr.yield;
    point.yield_trials = yr.trials;
    return point;
}

BenchmarkExperiment
runBenchmark(const benchmarks::BenchmarkInfo &info,
             const ExperimentOptions &options,
             const exec::Context &ctx)
{
    QPAD_SPAN("eval.run_benchmark");
    static obs::Counter &benchmarks = obs::counter("eval.benchmarks");
    benchmarks.add();

    // An already-cancelled or expired request does no work at all.
    ctx.throwIfStopped();

    BenchmarkExperiment experiment;
    experiment.benchmark = info.name;

    Circuit circuit = info.generate();
    experiment.logical_qubits = circuit.numQubits();
    experiment.original_gates = circuit.unitaryGateCount();

    profile::CouplingProfile prof = profile::profileCircuit(circuit);

    // Every data point (design + mapping + yield) is an independent,
    // fully seeded job. Jobs are enumerated in the legacy sequential
    // order, then evaluated under options.exec; slot i of the job
    // list is slot i of experiment.points, so the report is the same
    // for any thread count.
    std::vector<std::function<DataPoint()>> jobs;

    // --- ibm: the four general-purpose baselines -------------------
    if (options.run_ibm) {
        for (Architecture &baseline : arch::ibmBaselines()) {
            if (baseline.numQubits() < circuit.numQubits())
                continue;
            jobs.push_back([baseline, &circuit, &options, &info,
                            ctx] {
                const cache::Fingerprint key =
                    ibmPointKey(info, circuit, baseline, options);
                return memoizedPoint(
                    key, "ibm", baseline.name(), ctx, [&] {
                        return measure("ibm", baseline, circuit,
                                       options, ctx);
                    });
            });
        }
    }

    // Shared flow pieces.
    design::DesignFlowOptions flow;
    flow.freq_options = options.freq_options;

    // How many weighted buses are worth adding at all.
    design::LayoutResult layout = design::designLayout(prof);
    Architecture bare(layout.layout, "eff-bare");
    design::BusSelectionResult all_weighted =
        design::selectBuses(bare, prof, SIZE_MAX);
    const std::size_t beneficial = all_weighted.selected.size();

    // Each flow job captures its own copy of `flow` with the fields
    // of that configuration baked in.
    auto flowJob = [&](design::DesignFlowOptions job_flow,
                       std::string config, std::string arch_name) {
        jobs.push_back([job_flow, config = std::move(config),
                        arch_name = std::move(arch_name), &prof,
                        &circuit, &options, &info, ctx] {
            const cache::Fingerprint key =
                flowPointKey(info, circuit, prof, job_flow, config,
                             arch_name, options);
            return memoizedPoint(key, config, arch_name, ctx, [&] {
                auto outcome = design::designArchitecture(
                    prof, job_flow, arch_name, ctx);
                return measure(config, outcome.architecture, circuit,
                               options, ctx);
            });
        });
    };

    // --- eff-full: Algorithm 1 + 2 + 3, sweeping K -----------------
    if (options.run_eff_full) {
        for (std::size_t k = 0; k <= beneficial; ++k) {
            flow.bus_scheme = design::BusScheme::Weighted;
            flow.max_buses = k;
            flow.freq_scheme = design::FreqScheme::Optimized;
            flowJob(flow, "eff-full",
                    "eff-full-k" + std::to_string(k));
        }
    }

    // --- eff-5-freq: layout + buses, IBM frequency tiling ----------
    if (options.run_eff_5_freq) {
        for (std::size_t k = 0; k <= beneficial; ++k) {
            flow.bus_scheme = design::BusScheme::Weighted;
            flow.max_buses = k;
            flow.freq_scheme = design::FreqScheme::FiveFrequency;
            flowJob(flow, "eff-5-freq",
                    "eff-5-freq-k" + std::to_string(k));
        }
    }

    // --- eff-rd-bus: random bus placement samples ------------------
    if (options.run_eff_rd_bus) {
        const std::size_t max_any = design::maxPlaceableBuses(bare);
        for (std::size_t s = 0; s < options.random_bus_samples; ++s) {
            if (max_any == 0)
                break;
            flow.bus_scheme = design::BusScheme::Random;
            flow.max_buses = 1 + s % max_any;
            flow.freq_scheme = design::FreqScheme::Optimized;
            flow.bus_seed = options.seed * 7919 + s;
            flowJob(flow, "eff-rd-bus",
                    "eff-rd-bus-s" + std::to_string(s));
        }
    }

    // --- eff-layout-only: layout + {no, max} buses, 5-freq ---------
    if (options.run_eff_layout_only) {
        for (bool max_buses : {false, true}) {
            flow.bus_scheme = max_buses ? design::BusScheme::Max
                                        : design::BusScheme::None;
            flow.max_buses = SIZE_MAX;
            flow.freq_scheme = design::FreqScheme::FiveFrequency;
            flowJob(flow, "eff-layout-only",
                    max_buses ? "eff-layout-only-max"
                              : "eff-layout-only-2q");
        }
    }

    const obs::Snapshot before = obs::snapshot();

    experiment.points.resize(jobs.size());
    // Guided sizing (grain 0): adaptive yield escalation makes some
    // data points ~100x dearer than others, so fixed chunks would
    // park a worker on whichever chunk drew the expensive points.
    // Guided chunks are claimed largest-first and shrink toward the
    // tail, so whichever runner is free takes the next one; safe here
    // because each job derives its seeds from the options alone,
    // never from the chunk index.
    runtime::parallel_for(
        ctx.apply(options.exec), jobs.size(), 0,
        [&](std::size_t begin, std::size_t end, std::size_t) {
            static obs::Counter &data_points =
                obs::counter("eval.data_points");
            for (std::size_t i = begin; i < end; ++i) {
                QPAD_SPAN("eval.data_point");
                data_points.add();
                experiment.points[i] = jobs[i]();
            }
        });

    // Surface this run's activity in the report: the metrics delta
    // carries every series the run moved.
    experiment.metrics = obs::deltaSince(before);

    normalize(experiment);
    return experiment;
}

void
normalize(BenchmarkExperiment &experiment)
{
    std::size_t max_gates = 0;
    for (const auto &p : experiment.points)
        max_gates = std::max(max_gates, p.gate_count);
    for (auto &p : experiment.points) {
        qpad_assert(p.gate_count > 0, "zero post-mapping gate count");
        p.norm_recip_gates = double(max_gates) / double(p.gate_count);
    }
}

} // namespace qpad::eval
