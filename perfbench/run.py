#!/usr/bin/env python3
"""Repository benchmark: simulator host speed, set-up, memory and paper sim-time.

Run from the repository root:

    python3 perfbench/run.py --workload gups-mtm --seed 42 --seconds 50 --trace 0

It builds perfbench/ (the simulator libraries from src/, the harness in
perfbench/harness.cc and tools/mtmsim.cc) under .bench_build/, runs the
workload repeatedly for --seconds in fresh harness processes, checks every
run's outputs against each other and against mtmsim, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": runs, "failed": runs whose checks failed,
     "metrics": {name: {"value": ..., "unit": ...}, ...}}

--trace 0 reports the end-to-end metrics, measured with no timers inside the
simulator; --trace 1 alternates untraced runs with outside-in traced
replicas and reports the per-layer metrics. perfbench/README.md describes
every metric, workload and check.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

# Benchmark workload -> mtmsim --workload; every workload runs under MTM.
WORKLOADS = {"gups-mtm": "gups", "bfs-mtm": "bfs"}

REPO = Path(__file__).resolve().parent.parent
BUILD_DIR = REPO / ".bench_build" / "perfbench"
OUT_DIR = REPO / ".bench_build" / "out"
HARNESS = BUILD_DIR / "perfbench_harness"
MTMSIM = BUILD_DIR / "mtmsim"

# One invocation simulates STREAMS input streams, seeded --seed,
# --seed + STREAM_STRIDE, ...: bfs's simulated time alone differs by up to
# 1.6x between seeds, and averaging streams keeps most of that out of the
# spread (four streams still left 18.5% between ten --seed values).
STREAMS = 8
STREAM_STRIDE = 1_000_003
MIN_RUNS_PER_STREAM = 2  # untraced runs per stream with --trace 0, at least
RUN_TIMEOUT_S = 25       # one harness process; a run normally takes 2-4 s
TOTAL_BUDGET_S = 140     # no new run starts after this much wall time


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    steps = [
        ["cmake", "-S", str(REPO / "perfbench"), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "-j", "2"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(1)


def harness(*args, stream=None):
    """Runs one harness process; returns its JSON record tagged with the
    stream it ran, or None when the process failed."""
    cmd = [str(HARNESS)] + list(args)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: " + " ".join(cmd))
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr[-4000:])
        log(f"perfbench: exit {done.returncode}: " + " ".join(cmd))
        return None
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["stream"] = stream
    return record


def mtmsim_row(sim_workload, seed):
    """The CSV row `mtmsim --format=csv` prints for one seed, or None when
    mtmsim failed."""
    cmd = [str(MTMSIM), f"--workload={sim_workload}", "--solution=mtm", f"--seed={seed}",
           "--format=csv"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: " + " ".join(cmd))
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr[-4000:])
        log(f"perfbench: exit {done.returncode}: " + " ".join(cmd))
        return None
    return done.stdout.strip().splitlines()[-1]


def mtmsim_matches(row, records):
    """Whether mtmsim's row equals the CSV row of stream 0's runs."""
    ours = next((r["csv"] for r in records if r is not None and r["stream"] == 0), None)
    if row is None or row != ours:
        log("perfbench: check failed: mtmsim --format=csv row differs from the harness's "
            f"row for stream 0:\n  mtmsim:  {row}\n  harness: {ours}")
        return False
    return True


def by_stream(records):
    groups = {}
    for r in records:
        groups.setdefault(r["stream"], []).append(r)
    return groups


def check_runs(records):
    """Counts runs that crashed, failed their own output checks, or differ
    from the first run of the same stream in CSV row, sim time or any layer
    count. Traced replicas must match RunSimulation's runs byte for byte."""
    ok = [r for r in records if r is not None]
    reference = {s: rs[0] for s, rs in by_stream(ok).items()}
    orders = {s: {r["migration_orders"] for r in rs}
              for s, rs in by_stream([r for r in ok if r["mode"] == "trace"]).items()}
    failed = 0
    for r in records:
        problems = []
        if r is None:
            problems.append("harness process failed")
        else:
            problems += r["failures"]
            for key in ("csv", "sim_total_ns", "counts"):
                if r[key] != reference[r["stream"]][key]:
                    problems.append(f"{r['mode']} run differs from the stream's first run "
                                    f"in {key}")
            if r["mode"] == "trace" and len(orders[r["stream"]]) > 1:
                problems.append("traced runs of one stream disagree on migration orders")
        if problems:
            failed += 1
            log("perfbench: check failed: " + "; ".join(problems))
    return failed


def access_rate(record):
    return record["counts"]["total_accesses"] / record["run_cpu_s"]


def accesses_per_cpu_s(records):
    """Simulated accesses of all runs over their host CPU-seconds.

    On a shared host, whole runs slow down by up to 2x in episodes lasting
    about half a minute. The whole window's ratio is steadier between
    windows than any stream's fastest run, which depends on whether a quiet
    spell fell into the window (perfbench/README.md, "Host noise")."""
    return (sum(r["counts"]["total_accesses"] for r in records)
            / sum(r["run_cpu_s"] for r in records))


def mean_over_streams(records, value):
    """Mean over streams of value(runs of one stream)."""
    return statistics.fmean(value(rs) for rs in by_stream(records).values())


def end_to_end_metrics(e2e):
    return {
        "accesses_per_cpu_s": (accesses_per_cpu_s(e2e), "1/s"),
        "setup_s": (statistics.median([r["setup_cpu_s"] for r in e2e]), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in e2e]), "MB"),
        "sim_total_s": (mean_over_streams(e2e, lambda rs: rs[0]["sim_total_ns"] / 1e9), "s"),
    }


def per_layer_metrics(pairs, traced, failed, attempted):
    """Per-layer metrics of one 30M-access run: per stream, the median of its
    traced runs (times) or its exact value (counts), then the mean over
    streams."""

    def layer(name):
        return mean_over_streams(
            traced, lambda rs: statistics.median([r["layers"][name] for r in rs]))

    def count(name):
        return mean_over_streams(traced, lambda rs: rs[0]["counts"][name])

    accesses = count("total_accesses")
    migrated = count("migration.bytes_migrated")
    attempted_bytes = (migrated + count("migration.bytes_failed")
                       + count("migration.bytes_abandoned"))
    batch_us = [x for r in traced for x in r["batch_cpu_us"]]
    interval_ms = [x for r in traced for x in r["interval_cpu_ms"]]
    # Each traced run is compared with the untraced run of the same stream
    # just before it, so host drift between pairs cancels.
    overheads = [access_rate(u) / access_rate(t) - 1.0 for u, t in pairs]
    m = {
        "check_fail_ratio": (failed / attempted, "ratio"),
        "trace_overhead_pct": (statistics.median(overheads) * 100.0, "%"),
        "core.traced_accesses_per_cpu_s": (accesses_per_cpu_s(traced), "1/s"),
        "core.batch_cpu_us.p50": (stats.percentile(batch_us, 50), "us"),
        "core.batch_cpu_us.p99": (stats.percentile(batch_us, 99), "us"),
        "core.interval_cpu_ms.p50": (stats.percentile(interval_ms, 50), "ms"),
        "core.interval_cpu_ms.p90": (stats.percentile(interval_ms, 90), "ms"),
        "workloads.ns_per_access": (layer("workloads.next_batch_cpu_s") * 1e9 / accesses, "ns"),
        "sim.ns_per_access": (layer("sim.apply_cpu_s") * 1e9 / accesses, "ns"),
        "sim.app_s": (count("sim.app_ns") / 1e9, "s"),
        "profiling.sim_s": (count("profiling.ns") / 1e9, "s"),
        "migration.sim_s": (count("migration.ns") / 1e9, "s"),
        "migration.orders": (mean_over_streams(traced, lambda rs: rs[0]["migration_orders"]),
                             "count"),
        "migration.useful_ratio": (migrated / attempted_bytes if attempted_bytes else 0.0,
                                   "ratio"),
    }
    for name, unit in (("core.unattributed_pct", "%"), ("core.solution_build_cpu_s", "s"), ("workloads.build_cpu_s", "s"),
                       ("workloads.next_batch_cpu_s", "s"), ("sim.apply_cpu_s", "s"),
                       ("sim.prefault_cpu_s", "s"), ("profiling.scan_tick_cpu_s", "s"),
                       ("profiling.interval_end_cpu_s", "s"), ("migration.decide_cpu_s", "s"),
                       ("migration.submit_cpu_s", "s"), ("migration.poll_cpu_s", "s"),
                       ("migration.flush_cpu_s", "s")):
        m[name] = (layer(name), unit)
    for name, unit in (("sim.pt_generation_bumps", "count"), ("sim.pt_nodes", "count"),
                       ("sim.hint_faults", "count"), ("sim.write_track_faults", "count"),
                       ("sim.pebs_samples", "count"), ("mem.page_faults", "count"),
                       ("profiling.avg_regions", "count"), ("profiling.memory_bytes", "bytes"),
                       ("migration.bytes_migrated", "bytes"),
                       ("migration.bytes_failed", "bytes"),
                       ("migration.sync_fallbacks", "count"),
                       ("migration.reclaim_demotions", "count"),
                       ("migration.async_copies", "count")):
        m[name] = (count(name), unit)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    started = time.monotonic()
    sim_workload = WORKLOADS[args.workload]
    seeds = [(args.seed + i * STREAM_STRIDE) % 2**64 for i in range(STREAMS)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_out = OUT_DIR / f"spans-{args.workload}.csv"

    probe = harness("--mode=probe")
    if probe is not None:
        print(f"context: host reports {probe['hardware_concurrency']} CPUs; fixed work took "
              f"{probe['wall_ms_1_thread']:.1f} ms on 1 thread and "
              f"{probe['wall_ms_4_threads']:.1f} ms on 4 threads "
              f"(4-thread speedup {probe['speedup_4_over_1']:.2f}x)")

    def run(mode, stream, *extra):
        return harness(f"--mode={mode}", f"--workload={sim_workload}", f"--seed={seeds[stream]}",
                       *extra, stream=stream)

    def out_of_budget():
        return time.monotonic() - started > TOTAL_BUDGET_S

    # Checked against stream 0's runs once all runs are in; untimed.
    mtmsim = mtmsim_row(sim_workload, seeds[0])
    e2e, traced = [], []
    if args.trace == 0:
        # One traced replica proves the loop matches RunSimulation; it runs
        # first so the timed runs start with the binary's pages warm.
        traced.append(run("trace", 0, f"--spans-out={spans_out}"))
        deadline = time.monotonic() + args.seconds
        while not out_of_budget() and (len(e2e) < MIN_RUNS_PER_STREAM * STREAMS
                                       or time.monotonic() < deadline):
            e2e.append(run("e2e", len(e2e) % STREAMS))
    else:
        deadline = time.monotonic() + args.seconds

        def intervals_short():
            n = sum(len(r["interval_cpu_ms"]) for r in traced if r is not None)
            return stats.samples_beyond(n, 90) < 10

        while not out_of_budget() and (len(traced) < STREAMS or time.monotonic() < deadline
                                       or intervals_short()):
            stream = len(traced) % STREAMS
            e2e.append(run("e2e", stream))
            traced.append(run("trace", stream, f"--spans-out={spans_out}"))

    records = traced + e2e
    # The mtmsim run counts as one more attempted run.
    failed = check_runs(records) + (not mtmsim_matches(mtmsim, records))
    attempted = len(records) + 1
    pairs = [(u, t) for u, t in zip(e2e, traced) if u is not None and t is not None]
    e2e = [r for r in e2e if r is not None]
    traced = [r for r in traced if r is not None]
    if args.trace == 0 and e2e:
        metrics = end_to_end_metrics(e2e)
    elif args.trace == 1 and pairs:
        metrics = per_layer_metrics(pairs, traced, failed, attempted)
    else:
        log("perfbench: no usable run")
        return 1
    if len(e2e) >= 2:
        q1, q2, q3 = statistics.quantiles([access_rate(r) for r in e2e], n=4)
        print(f"host noise: untraced runs' accesses per CPU-second, quartiles "
              f"{q1:.4g} / {q2:.4g} / {q3:.4g}")
    print(f"runs: {len(e2e)} untraced, {len(traced)} traced over seeds "
          f"{', '.join(map(str, seeds))}; spans of the last traced run in "
          f"{spans_out.relative_to(REPO)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
