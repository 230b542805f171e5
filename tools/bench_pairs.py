"""Compare this checkout with another over alternating benchmark pairs.

    python3 tools/bench_pairs.py --workload verify --parent DIR --pairs 10 \
        [--seed 1] [--trace {0,1}] [--label verify_pr30]

Runs ``perfbench/run.py`` once on each side per pair, through
tools/bench_record.py, so each side's src/ is byte-compiled first and each
side runs its own benchmark code for the ``run_seconds`` of its own
BENCHMARK.json.  The change (this checkout) goes first in even pairs and
the parent (DIR) in odd ones; pair k runs both sides at seed + k.  Then it
prints, for each metric that BENCHMARK.json declares (the end-to-end ones,
or the per-layer ones under --trace 1): each side's median and inclusive
quartiles over the pairs, the change's median gain against the parent's
interquartile spread, and in how many pairs the change was better (a tie
counts for neither side).  For an end-to-end metric it also prints whether
the change's median is worse than the parent's by more than that metric's
``bound``, a fraction of the parent median: the rule a change that claims
no gain is held to.  It also prints the failed and attempted
operations of each side.  The last pair is written to
BENCH_<label>_parent.json and BENCH_<label>_change.json (label defaults
to the workload) before the summary.  Exits 1 when a run fails, before
anything is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_bench_record()


def quartiles(values: list[float]) -> tuple[float, float]:
    """Lower and upper quartile, inclusive method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Medians, quartiles and wins of one metric over paired runs.

    parent[k] and change[k] come from pair k; better is "lower" or
    "higher".  gain is the parent's median minus the change's, signed so
    that a positive gain is an improvement, and spread is the parent's
    interquartile range.  Given the metric's bound, past_bound says
    whether the loss exceeds bound times the parent's median."""
    sign = 1 if better == "lower" else -1
    p_low, p_high = quartiles(parent)
    summary = {
        "parent_median": statistics.median(parent),
        "parent_quartiles": (p_low, p_high),
        "change_median": statistics.median(change),
        "change_quartiles": quartiles(change),
        "gain": sign * (statistics.median(parent) - statistics.median(change)),
        "spread": p_high - p_low,
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True)),
        "pairs": len(parent),
    }
    if bound is not None:
        summary["past_bound"] = -summary["gain"] > bound * abs(summary["parent_median"])
    return summary


def format_summary(name: str, unit: str, s: dict) -> str:
    verdict = ("" if "past_bound" not in s else
               "; WORSE than the parent past its bound" if s["past_bound"] else
               "; within its bound of the parent")
    return (f"{name}: parent {s['parent_median']:.6g} [{s['parent_quartiles'][0]:.6g},"
            f" {s['parent_quartiles'][1]:.6g}] {unit}, change {s['change_median']:.6g}"
            f" [{s['change_quartiles'][0]:.6g}, {s['change_quartiles'][1]:.6g}] {unit};"
            f" gain {s['gain']:.6g} against parent spread {s['spread']:.6g};"
            f" change better in {s['wins']}/{s['pairs']} pairs{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_record.WORKLOADS)
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="file label; defaults to the workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    label = args.label or args.workload
    bench_record.check_label(parser, label)
    sides = {"change": ROOT, "parent": args.parent}
    docs: dict[str, list[dict]] = {"change": [], "parent": []}
    for k in range(args.pairs):
        order = ("change", "parent") if k % 2 == 0 else ("parent", "change")
        for side in order:
            _, doc = bench_record.record(sides[side], args.workload,
                                         args.seed + k, args.trace)
            if doc is None:
                print(f"bench_pairs: the {side} run of pair {k} failed", file=sys.stderr)
                return 1
            docs[side].append(doc)
            wall = doc["result"]["metrics"].get("wall_s")
            print(f"pair {k} {side}: wall_s {wall['value']:.6g} s" if wall
                  else f"pair {k} {side}: done", file=sys.stderr)
    for side in ("parent", "change"):
        bench_record.write(f"{label}_{side}", docs[side][-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = docs["parent"] + docs["change"]
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if not all(name in d["result"]["metrics"] for d in runs):
            print(f"{name}: not reported by every run")
            continue
        values = {side: [d["result"]["metrics"][name]["value"] for d in docs[side]]
                  for side in docs}
        print(format_summary(name, metric["unit"],
                             summarize(values["parent"], values["change"], metric["better"],
                                       metric.get("bound"))))
    for side in ("parent", "change"):
        failed = sum(d["result"]["failed"] for d in docs[side])
        attempted = sum(d["result"]["attempted"] for d in docs[side])
        print(f"{side}: {failed} failed of {attempted} attempted operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
