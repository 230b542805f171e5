"""One round of a workload in a fresh interpreter; run.py starts one per round.

    python3 perfbench/round.py WORKLOAD SEED ROUND MODE SIZE

MODE is ``setup`` (import the package and make the inputs, then stop),
``plain`` (the timed phase, untraced) or ``traced`` (the same inputs under
the Tracer).  SIZE is ``full`` or ``tiny``.  Prints one JSON object:

    ready        time.monotonic() once the package is imported and the
                 inputs exist (run.py subtracts its own spawn time)
    wall_s       duration of the timed phase
    latencies_ms one entry per operation
    attempted, failed
    rss_mb       this process's ru_maxrss plus its largest child's
    layers       traced mode only: per-layer metrics of this round
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import descyc  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TRACE_DIR = ROOT / "perfbench" / "traces"

# Functions timed as spans, by module.  Names in COUNTED run once per mask in
# the hot loops, so they are only counted.
SPANNED = (
    "linear.alpha_table",
    "linear.beta_table",
    "linear.beta_mask",
    "cyclic.beta_cyc_mask",
    "cyclic.alpha_cyc_mask",
    "cyclic.beta_cyc_table",
    "lyndon.count_words_by_type",
    "lyndon.count_by_type_and_descents",
    "patterns.cycles_avoiding_monotone",
    "oracle.brute_tables",
    "oracle.brute_words",
    "oracle.brute_pattern_profile",
    "asymptotics.beta_deviation_scan",
    "verify.suite_oracle",
    "verify.suite_inversions",
    "verify.suite_corollaries",
    "verify.suite_lyndon",
    "verify.suite_patterns",
    "verify.suite_bounds",
)
COUNTED = ("core.quotient_mask", "lyndon.count_lyndon")


def _attempt(op):
    """op() or, if it raises, the exception (its traceback goes to stderr)."""
    try:
        return op()
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        return exc


def _timed(op):
    start = time.perf_counter()
    result = _attempt(op)
    return result, time.perf_counter() - start


def _scan(size, tracer):
    n = wl.SCAN_N[size]
    if tracer is None:
        report, wall = _timed(lambda: wl.scan_op(n))
        ok = not isinstance(report, Exception) and wl.scan_ok(n, report)
        return {"wall_s": wall, "latencies_ms": [wall * 1e3],
                "attempted": 1, "failed": int(not ok)}
    with tracer:
        report, wall = _timed(lambda: wl.scan_op(n))
    serial, jobs1_wall = _timed(lambda: wl.scan_op(n, jobs=1))
    failed = sum(isinstance(r, Exception) or not wl.scan_ok(n, r) for r in (report, serial))
    scan_s, table_s = tracer.children_time("asymptotics.beta_deviation_scan", "linear.beta_table")
    layers = {"asymptotics.serial_share": table_s / scan_s if scan_s else 0.0,
              "asymptotics.scan_jobs1_s": jobs1_wall}
    return {"wall_s": wall, "latencies_ms": [wall * 1e3],
            "attempted": 2, "failed": failed, "layers": layers}


def _verify(size, tracer):
    max_n = wl.VERIFY_MAX_N[size]
    if tracer is None:
        report, wall = _timed(lambda: wl.verify_op(max_n))
    else:
        with tracer:
            report, wall = _timed(lambda: wl.verify_op(max_n))
    if isinstance(report, Exception):
        attempted = failed = wl.VERIFY_CHECKS[max_n]
    else:
        attempted, failed = wl.verify_failures(max_n, report)
    return {"wall_s": wall, "latencies_ms": [wall * 1e3],
            "attempted": attempted, "failed": failed, "layers": {}}


def _query(stream, tracer):
    answers = []
    latencies = []
    clock = time.perf_counter
    with tracer if tracer is not None else contextlib.nullcontext():
        start = clock()
        for q in stream:
            t0 = clock()
            answers.append(_attempt(lambda: wl.answer(q)))
            latencies.append((clock() - t0) * 1e3)
        wall = clock() - start
    failed = wl.query_failures(stream, answers, wl.Reference())
    return {"wall_s": wall, "latencies_ms": latencies,
            "attempted": len(stream), "failed": failed,
            "layers": {"workload.repeat_share": wl.repeat_share(stream)}}


def main(argv: list[str]) -> int:
    workload, seed, round_index, mode, size = argv
    seed, round_index = int(seed), int(round_index)
    if not Path(descyc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"round.py: imported descyc from {descyc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    stream = (wl.query_stream(seed, round_index, wl.QUERY_COUNT[size])
              if workload == "query" else None)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = Tracer(SPANNED, COUNTED) if mode == "traced" else None
    if workload == "scan":
        out = _scan(size, tracer)
    elif workload == "verify":
        out = _verify(size, tracer)
    else:
        out = _query(stream, tracer)
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update(ready=ready, rss_mb=kib / 1024)
    if tracer is None:
        out.pop("layers", None)
    else:
        # metrics a workload does not exercise read 0
        layers = dict.fromkeys(("asymptotics.serial_share", "asymptotics.scan_jobs1_s",
                                "workload.repeat_share"), 0.0)
        layers.update(out["layers"], **tracer.summary())
        out["layers"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{workload}-{size}-seed{seed}-round{round_index}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
