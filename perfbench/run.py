"""The descyc benchmark: one workload per invocation, every answer checked.

    python3 perfbench/run.py --workload {scan,verify,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; needs only the standard library and the
package sources under src/.  Each round of a workload runs in a fresh
interpreter (perfbench/round.py), one at a time, so caches start cold in
every round and a closed loop of one client drives the package.  A round
starts only while it is expected to end within --seconds; the first always
runs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
rounds, and setup_s as the median start-up time over SETUP_PROBES start-ups
that do no work and the start-ups of the rounds.
--trace 1 alternates an untraced and a traced round on the same inputs and
prints the per-layer metrics; trace.overhead_s is the difference of the two
walls.  Before the result, it prints each metric with its unit, the error
rate, and a run record (git rev, Python, nproc, load average, CPU steal,
per-round walls) that lets a noisy run be spotted.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "verify", "query")
SETUP_PROBES = 5
# A run is cut this long after --seconds: room for the set-up probes and the
# last round, which starts only while it is expected to end within --seconds.
ROUND_ALLOWANCE_S = 90.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


class RoundFailed(RuntimeError):
    pass


def spawn_round(workload, seed, index, mode, size, timeout):
    """Run one round in a fresh interpreter and return its JSON report, with
    setup_s: the time from spawning it until it was ready."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "round.py"),
           workload, str(seed), str(index), mode, size]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{mode} round {index} passed its {timeout:.0f} s limit") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{mode} round {index} exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def tail(latencies):
    """(value, percentile): the highest listed percentile with at least ten
    samples beyond it, nearest rank; the median when there are too few."""
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50.0


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far, from /proc/stat, or None."""
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) == 8 else None


def measure(workload, seed, seconds, trace, size="full"):
    """Run the rounds; returns (result dict for the last line, record dict)."""
    started = time.monotonic()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "git_rev": git_rev(),
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg()}
    ticks_start = cpu_ticks()

    def remaining():
        return seconds + ROUND_ALLOWANCE_S - (time.monotonic() - started)

    setups = [spawn_round(workload, seed, 0, "setup", size, remaining())["setup_s"]
              for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    plain, traced = [], []
    attempted = failed = 0
    begin = time.monotonic()
    try:
        index, last = 0, 0.0
        # A round (or pair) starts only if it is expected to end in time.
        while index == 0 or time.monotonic() - begin + last <= seconds:
            lap = time.monotonic()
            for mode in modes:
                report = spawn_round(workload, seed, index, mode, size, remaining())
                (traced if mode == "traced" else plain).append(report)
                attempted += report["attempted"]
                failed += report["failed"]
            last = time.monotonic() - lap
            index += 1
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        attempted += 1
        failed += 1
    if not plain or (trace and not traced):
        raise RoundFailed("no round completed")
    setups += [r["setup_s"] for r in plain]

    walls = [r["wall_s"] for r in plain]
    record.update(rounds=len(plain), walls_s=walls, setups_s=setups)
    if trace:
        metrics = per_layer(workload, plain, traced)
        record["traced_walls_s"] = [r["wall_s"] for r in traced]
    else:
        latencies = [x for r in plain for x in r["latencies_ms"]]
        tail_ms, tail_pct = tail(latencies)
        record.update(op_tail_percentile=tail_pct, op_count=len(latencies))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    record["loadavg_end"] = loadavg()
    ticks_end = cpu_ticks()
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        # share of CPU time the hypervisor gave to other guests during the run
        record["steal_share"] = (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def per_layer(workload, plain, traced):
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - plain_wall
    jobs1 = metrics.get("asymptotics.scan_jobs1_s", 0.0)
    metrics["asymptotics.parallel_speedup"] = jobs1 / plain_wall if workload == "scan" else 0.0
    return metrics


def with_units(metrics, declared):
    """The declared metrics, each as {"value", "unit"}, in declared order."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "descyc" / "__init__.py").is_file():
        print(f"perfbench: no descyc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
