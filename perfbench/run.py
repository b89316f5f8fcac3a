#!/usr/bin/env python3
"""qpad benchmark: design-space sweeps timed end to end and by layer.

Run from the root of a qpad checkout:

    python3 perfbench/run.py --workload fig10-fast-1t --seed 0 \
        --seconds 35 --trace 0

builds the qpad_perf binary (perfbench/CMakeLists.txt) into
.bench_build/perfbench, runs it, checks every output and prints one
JSON object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The workloads, the
metrics and the checks are described in perfbench/README.md.

    python3 perfbench/run.py --write-golden [--workload <name>]

regenerates perfbench/golden/ from the current tree at the default
seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
GOLDEN = os.path.join(HERE, "golden")
BINARY = os.path.join(BUILD, "qpad_perf")

WORKLOADS = ("fig10-fast-1t", "fig10-paper-4t", "dse-sigma-4t")
DEFAULT_SEED = 0
# Set-up probes before each sweep; each sweep adds its own sample.
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150

# Work counters that depend only on the workload and the code, never
# on timing: a change means the workload changed, not its speed.
EXACT_REPLAY = ("mapping.calls", "mapping.distinct", "mapping.swaps",
                "mapping.gates_out", "freq_alloc.computed",
                "yield.trials", "yield.escalations")
EXACT_SWEEP = ("runtime.regions",)
# With one worker there is no dedup race, so cache traffic repeats too.
EXACT_SWEEP_1T = ("cache.hits", "cache.misses")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"{ROOT} is not a qpad checkout (no CMakeLists.txt and src/)")
    steps = [["cmake", "--build", BUILD, "--target", "qpad_perf",
              "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=800)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die(f"build step failed: {' '.join(cmd)}")


def child(workload, seed, phase, tag):
    """Run one qpad_perf process; returns (spawn_ns, result, prefix)."""
    prefix = os.path.join(OUT, f"{workload}.{tag}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--phase", phase, "--out", prefix]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"{' '.join(cmd)} exited {proc.returncode}")
    return spawn_ns, json.loads(proc.stdout.strip().splitlines()[-1]), \
        prefix


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def mismatched(lines, reference):
    """Lines that differ from the reference, length difference
    included (each counts as one failed point)."""
    bad = sum(a != b for a, b in zip(lines, reference))
    return bad + abs(len(lines) - len(reference))


def failed_points(res, differ):
    """Failed points of one process: broken invariants plus points
    that differ from the reference, at most the points it produced."""
    return min(res["points"], res["invalid_points"] + differ)


def golden_path(workload, ext):
    return os.path.join(GOLDEN, f"{workload}.{ext}")


def check_counters(name, got, expected, what):
    """Report (never fail on) a work counter that did not repeat."""
    for key, value in expected.items():
        if got.get(key) != value:
            print(f"perfbench: {name}: the workload changed: {key} = "
                  f"{got.get(key)} ({what}: {value})", file=sys.stderr)


def setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        spawn_ns, res, _ = child(workload, seed, "setup", "setup")
        samples.append((res["ready_ns"] - spawn_ns) * 1e-9)
    return samples


def sweep_counters(sweep):
    keys = EXACT_SWEEP + (EXACT_SWEEP_1T if sweep["threads"] == 1
                          else ())
    return {k: sweep["obs"][k] for k in keys}


def run_untraced(workload, seed, seconds):
    """--trace 0: repeated untraced sweeps, one process each."""
    setup = []
    golden = None
    if seed == DEFAULT_SEED:
        golden = read_lines(golden_path(workload, "csv"))
    sweeps, attempted, failed = [], 0, 0
    reference_points = None
    t0 = time.monotonic()
    while True:
        setup += setup_samples(workload, seed)
        spawn_ns, res, prefix = child(workload, seed, "sweep",
                                      f"sweep{len(sweeps)}")
        setup.append((res["ready_ns"] - spawn_ns) * 1e-9)
        points = read_lines(prefix + ".points")
        differ = 0
        if reference_points is None:
            reference_points = points
        else:
            differ = mismatched(points, reference_points)
            check_counters(workload, sweep_counters(res),
                           sweep_counters(sweeps[0]),
                           "first sweep of this run")
        if golden is not None:
            differ = max(differ,
                         mismatched(read_lines(prefix + ".csv"), golden))
        attempted += res["points"]
        failed += failed_points(res, differ)
        sweeps.append(res)
        elapsed = time.monotonic() - t0
        per_sweep = elapsed / len(sweeps)
        if elapsed + per_sweep > seconds and len(sweeps) >= 2:
            break
    if seed == DEFAULT_SEED:
        expected = load_golden_counters(workload)["sweep"]
        check_counters(workload, sweep_counters(sweeps[0]),
                       expected, "golden")

    latencies = [s for res in sweeps for s in res["program_s"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (statistics.median(
            res["points"] / res["wall_s"] for res in sweeps), "1/s"),
        "cpu_s": (statistics.median(res["cpu_s"] for res in sweeps),
                  "s"),
        "program_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (statistics.median(
            res["peak_rss_kb"] / 1024.0 for res in sweeps), "MB"),
        "points_ok": (1.0 - failed / attempted, "ratio"),
    }
    walls = " ".join(f"{res['wall_s']:.3f}" for res in sweeps)
    print(f"perfbench: {workload} seed {seed}: {len(sweeps)} sweeps "
          f"(wall s: {walls}), {len(setup)} set-ups, "
          f"{len(latencies)} programs", file=sys.stderr)
    return metrics, attempted, failed


def load_golden_counters(workload):
    with open(golden_path(workload, "counters.json")) as f:
        return json.load(f)


def run_traced(workload, seed, seconds):
    """--trace 1: one untraced sweep, then traced replays of it."""
    t0 = time.monotonic()
    _, sweep, sweep_prefix = child(workload, seed, "sweep", "reference")
    reference = read_lines(sweep_prefix + ".points")
    attempted, failed = sweep["points"], sweep["invalid_points"]
    replays = []
    while True:
        _, res, prefix = child(workload, seed, "replay",
                               f"replay{len(replays)}")
        attempted += res["points"]
        failed += failed_points(
            res, mismatched(read_lines(prefix + ".points"), reference))
        if replays:
            check_counters(workload, res["counters"],
                           replays[0]["counters"],
                           "first replay of this run")
        replays.append(res)
        elapsed = time.monotonic() - t0
        per_replay = (elapsed - sweep["wall_s"]) / len(replays)
        if elapsed + per_replay > seconds:
            break

    first = replays[0]
    counters = first["counters"]
    # The untraced sweep must have done the same work as the replay.
    check_counters(workload, {
        "mapping.calls": sweep["obs"]["eval.measurements"],
        "yield.trials": sweep["obs"]["yield.trials"],
        "yield.escalations": sweep["obs"]["yield.escalations"],
    }, {k: counters[k] for k in ("mapping.calls", "yield.trials",
                                 "yield.escalations")}, "replay")
    if seed == DEFAULT_SEED:
        check_counters(workload, {k: counters[k] for k in EXACT_REPLAY},
                       load_golden_counters(workload)["replay"],
                       "golden")

    def busy(layer):
        return statistics.median(
            r["layers"].get(f"{layer}.busy_s", 0.0) for r in replays)

    def spans(layer):
        return first["layers"].get(f"{layer}.spans", 0)

    obs = sweep["obs"]
    lookups = obs["cache.hits"] + obs["cache.misses"]
    m = {}
    m["mapping.calls"] = (counters["mapping.calls"], "count")
    m["mapping.distinct"] = (counters["mapping.distinct"], "count")
    m["mapping.distinct_ratio"] = (
        counters["mapping.distinct"] / counters["mapping.calls"], "ratio")
    m["mapping.busy_s"] = (busy("mapping"), "s")
    m["mapping.swaps"] = (counters["mapping.swaps"], "count")
    m["mapping.gates_out"] = (counters["mapping.gates_out"], "count")
    m["mapping.gates_per_s"] = (
        counters["mapping.gates_out"] / busy("mapping"), "1/s")
    for key in ("calls", "computed"):
        m[f"freq_alloc.{key}"] = (counters[f"freq_alloc.{key}"], "count")
    m["freq_alloc.busy_s"] = (busy("freq_alloc"), "s")
    m["freq_alloc.qubit_visits"] = (counters["freq_alloc.qubit_visits"],
                                    "count")
    for key in ("calls", "computed"):
        m[f"yield.{key}"] = (counters[f"yield.{key}"], "count")
    m["yield.busy_s"] = (busy("yield"), "s")
    m["yield.trials"] = (counters["yield.trials"], "count")
    m["yield.escalations"] = (counters["yield.escalations"], "count")
    m["yield.trials_per_s"] = (
        counters["yield.trials"] / busy("yield"), "1/s")
    for layer in ("layout", "buses", "profile", "generate"):
        m[f"{layer}.calls"] = (spans(layer), "count")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    m["cache.lookups"] = (lookups, "count")
    m["cache.hits"] = (obs["cache.hits"], "count")
    m["cache.hit_ratio"] = (obs["cache.hits"] / lookups, "ratio")
    m["cache.dedup_waits"] = (obs["cache.dedup_waits"], "count")
    m["cache.inserts"] = (obs["cache.inserts"], "count")
    m["cache.bytes"] = (obs["cache.bytes"], "bytes")
    m["cache.hit_busy_s"] = (busy("cache"), "s")
    m["runtime.regions"] = (obs["runtime.regions"], "count")
    m["runtime.chunks"] = (obs["runtime.chunks"], "count")
    m["runtime.steals"] = (obs["runtime.steals"], "count")
    m["runtime.idle_s"] = (obs["runtime.idle_s"], "s")
    m["runtime.utilization"] = (
        sweep["cpu_s"] / (sweep["wall_s"] * sweep["threads"]), "ratio")
    m["eval.residual_s"] = (busy("eval"), "s")
    m["eval.traced_total_s"] = (
        statistics.median(r["total_s"] for r in replays), "s")
    m["trace_overhead"] = (
        statistics.median(r["wall_s"] for r in replays) / sweep["wall_s"],
        "ratio")

    with open(prefix + ".layers.txt") as f:
        sys.stderr.write(f"perfbench: {workload} seed {seed}: "
                         f"{len(replays)} traced replays; spans in "
                         f"{prefix}.spans.json\n{f.read()}")
    return m, attempted, failed


def write_golden(workloads):
    os.makedirs(GOLDEN, exist_ok=True)
    for workload in workloads:
        _, sweep, prefix = child(workload, DEFAULT_SEED, "sweep",
                                 "golden")
        _, replay, rprefix = child(workload, DEFAULT_SEED, "replay",
                                   "golden-replay")
        if (sweep["invalid_points"] or replay["invalid_points"]
                or read_lines(prefix + ".points")
                != read_lines(rprefix + ".points")):
            die(f"{workload}: outputs failed their checks; "
                "golden files not written")
        with open(prefix + ".csv") as src, \
                open(golden_path(workload, "csv"), "w") as dst:
            dst.write(src.read())
        counters = {
            "sweep": sweep_counters(sweep),
            "replay": {k: replay["counters"][k] for k in EXACT_REPLAY},
        }
        with open(golden_path(workload, "counters.json"), "w") as f:
            json.dump(counters, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"perfbench: wrote golden files for {workload}",
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.write_golden:
        write_golden([args.workload] if args.workload else WORKLOADS)
        return
    if not args.workload:
        ap.error("--workload is required")
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed = run(args.workload, args.seed,
                                     args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
