#!/usr/bin/env python3
"""Open-loop benchmark of Radical: one workload, one seed, every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds perfbench/ (and the src/
libraries it links) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs radical_perfbench again and again for --seconds
of wall time, at least MIN_REPS times. Every repetition is the same
simulation, so the virtual-time results and counts of all of them must agree
bit for bit; host-time figures are medians over the repetitions. Before each
repetition, SETUP_PROCS_PER_REP processes of radical_perfbench --setup-only
time the set-up; setup_s and the set-up phases are medians over all their
set-ups.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics: layer counts, span
statistics, set-up phases and the tracing overhead. It also writes a Perfetto
trace of two virtual seconds into the build directory.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit codes: 0 when every check passes, 1 when an output
check fails (the result line is still printed), 2 on a usage, environment or
build error (no result line). radical_perfbench refuses to run, and so makes
this script exit 2, when an environment variable would change the program
under test.
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

WORKLOADS = ("social_read", "forum_write", "hotel_raft", "hotel_failover")
MIN_REPS = 2
# Set-up takes milliseconds and its time differs between processes (the CPU
# they land on), so it is sampled in many short processes spread over the run.
SETUP_PROCS_PER_REP = 3
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# Per-layer counts, as radical_perfbench reports them.
LAYER_COUNTS = (
    ("sim.events_per_req", "count"),
    ("net.wan_msgs_per_req", "count"),
    ("net.wan_bytes_per_req", "B"),
    ("net.mesh_msgs_per_req", "count"),
    ("raft.commits_per_req", "count"),
    ("raft.appends_per_commit", "count"),
    ("raft.elections", "count"),
    ("raft.acquire_resubmits", "count"),
    ("raft.release_retries", "count"),
    ("lvi.validation_ok_pct", "%"),
    ("lvi.lock_waits_per_req", "count"),
    ("lvi.reexecutions", "count"),
    ("radical.spec_ok_pct", "%"),
    ("radical.retries_per_req", "count"),
    ("kv.cache_hit_pct", "%"),
    ("kv.primary_reads_per_req", "count"),
    ("kv.primary_writes_per_req", "count"),
)

# Span name -> per-layer metric, printed as p50 and p99 of the virtual span
# durations in the measured window.
SPANS = (
    ("server.admission", "lvi.admission_ms"),
    ("server.lock_wait", "lvi.lock_wait_ms"),
    ("server.validate", "lvi.validate_ms"),
    ("server.intent_write", "lvi.intent_write_ms"),
    ("server.backup_exec", "lvi.backup_exec_ms"),
    ("instantiation", "radical.instantiation_ms"),
    ("frw", "radical.frw_ms"),
    ("speculation", "radical.speculation_ms"),
    ("lvi_stall", "radical.lvi_stall_ms"),
    ("completion", "radical.completion_ms"),
)


class UsageError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds radical_perfbench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out, "--target", "radical_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "radical_perfbench")


def run_once(binary, workload, seed, traced=False, perfetto=None, scale=None,
             setup_only=False):
    """One radical_perfbench process; returns the JSON object it prints."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    if perfetto:
        cmd += ["--perfetto", perfetto]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          check=True, timeout=REP_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic_part(rep):
    """What must repeat bit for bit for one seed: virtual time and counts."""
    return json.dumps([rep["arrival_hash"], rep["arrivals"], rep["failed"], rep["measured"],
                       rep["virtual"], rep["layers"]], sort_keys=True)


def host_median(reps, key):
    return statistics.median(r["host"][key] for r in reps)


def setup_median(setups, key):
    """Median over every set-up of every --setup-only process."""
    return statistics.median(t for s in setups for t in s[key])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plain, setups):
    v = plain[0]["virtual"]
    return {
        "mean_ms": metric(v["mean_ms"], "ms"),
        "p99_ms": metric(v["p99_ms"], "ms"),
        "p999_ms": metric(v["p999_ms"], "ms"),
        "slo_pct": metric(v["slo_pct"], "%"),
        "setup_s": metric(setup_median(setups, "setup_s"), "s"),
        "peak_rss_mb": metric(host_median(plain, "peak_rss_mb"), "MB"),
    }


def per_layer(plain, traced, setups):
    first = traced[0]
    spans = first["spans"]
    out = {name: metric(first["layers"][name], unit) for name, unit in LAYER_COUNTS}
    out["host_us_per_req"] = metric(host_median(plain, "us_per_req"), "us")
    out["sim.host_ns_per_event"] = metric(host_median(plain, "ns_per_event"), "ns")
    out["lvi.backup_execs_per_req"] = metric(
        spans.get("server.backup_exec", {}).get("count", 0) / first["measured"], "count")
    out["lvi.lock_wait_mean_ms"] = metric(
        spans.get("server.lock_wait", {}).get("mean_ms", 0.0), "ms")
    out["radical.lvi_stall_mean_ms"] = metric(
        spans.get("lvi_stall", {}).get("mean_ms", 0.0), "ms")
    out["analysis.register_s"] = metric(setup_median(setups, "register_s"), "s")
    out["kv.seed_s"] = metric(setup_median(setups, "seed_s"), "s")
    out["kv.warm_s"] = metric(setup_median(setups, "warm_s"), "s")
    overhead = host_median(traced, "run_s") / host_median(plain, "run_s") - 1.0
    out["obs.tracing_overhead_pct"] = metric(100.0 * overhead, "%")
    return dict(sorted(out.items()))


def print_report(args, plain, traced, setups, metrics, problems):
    first = plain[0]
    v = first["virtual"]
    print(f"radical perfbench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"build={first['build_type']} compiler={first['compiler']} "
          f"repetitions={len(plain)}+{len(traced)} traced, "
          f"set-ups={sum(len(s['setup_s']) for s in setups)} in {len(setups)} processes")
    print(f"  arrivals {first['arrivals']}  measured {first['measured']}  "
          f"failed {first['failed']} ({v['failed_pct']:.3f} %)  "
          f"checked rows {first['checked_rows']}  "
          f"generator lag max {v['gen_lag_max_ms']:.3f} ms (virtual)")
    print(f"  virtual: p50_ms {v['p50_ms']:.3f}  p999_ms is p{v['tail_pct']:.3f} of "
          f"{first['measured']} measured requests (the highest percentile with >= 10 "
          f"beyond it, at most p99.9)")
    print(f"  host_us_per_req (wall, median) {host_median(plain, 'us_per_req'):.3f} us")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")
    if traced:
        spans = traced[0]["spans"]
        print("  span durations in the measured window (virtual):")
        for span, name in SPANS:
            s = spans.get(span)
            if s is None:
                print(f"  {name:<28} no spans")
                continue
            print(f"  {name:<28} p50 {s['p50_ms']:>9.3f} ms  p99 {s['p99_ms']:>9.3f} ms  "
                  f"n={s['count']}")
        print(f"  deployment build (Raft bootstrap included): "
              f"{setup_median(setups, 'deploy_build_s'):.6f} s")
    for problem in problems:
        print(f"  VIOLATION: {problem}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise UsageError("--seed must be >= 0 and --seconds > 0")

    binary = build()
    deadline = time.monotonic() + args.seconds
    plain, traced, setups = [], [], []

    def time_setups():
        for _ in range(SETUP_PROCS_PER_REP):
            setups.append(run_once(binary, args.workload, args.seed, setup_only=True))

    if args.trace:
        perfetto = os.path.join(build_dir(), "traces",
                                f"{args.workload}-seed{args.seed}.perfetto.json")
        os.makedirs(os.path.dirname(perfetto), exist_ok=True)
        while len(traced) < MIN_REPS - 1 or time.monotonic() < deadline:
            time_setups()
            plain.append(run_once(binary, args.workload, args.seed))
            traced.append(run_once(binary, args.workload, args.seed, traced=True,
                                   perfetto=None if traced else perfetto))
        print(f"perfetto trace: {perfetto}", file=sys.stderr)
    else:
        while len(plain) < MIN_REPS or time.monotonic() < deadline:
            time_setups()
            plain.append(run_once(binary, args.workload, args.seed))

    problems = sorted({v for rep in plain + traced for v in rep["violations"]})
    # Neither repeating a seed nor tracing may change the simulation.
    if (len({deterministic_part(r) for r in plain + traced}) != 1
            or len({json.dumps(r["spans"], sort_keys=True) for r in traced}) > 1):
        problems.append("repetitions of one seed disagree in virtual time or counts")
    correct = not problems and all(r["correct"] for r in plain + traced)

    metrics = per_layer(plain, traced, setups) if args.trace else end_to_end(plain, setups)
    print_report(args, plain, traced, setups, metrics, problems)
    print(json.dumps({
        "correct": correct,
        "attempted": plain[0]["arrivals"],
        "failed": plain[0]["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (UsageError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
