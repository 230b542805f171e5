"""Record one benchmark run to BENCH_<label>.json.

    python3 tools/bench_record.py --workload scan --seed 7 --label scan_change \
        [--root CHECKOUT] [--trace {0,1}]

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace X`` of the
checkout at --root (default: this one), so a parent commit checked out
elsewhere can be measured with its own benchmark code; T is the
``run_seconds`` of that checkout's BENCHMARK.json.  --trace 0 (the default)
records the end-to-end metrics, --trace 1 the per-layer ones.  The
checkout's src/ is byte-compiled first, so a fresh copy and a working tree
both run from cached bytecode.  Writes the metric lines, the error-rate
line, the run record and the result JSON that run.py prints to
BENCH_<label>.json at the root of this repository, and exits with run.py's
exit code; nothing is written when run.py fails.  The file's "source" names
the tree that was measured: the checkout's HEAD, whether ``git status
--porcelain`` listed anything, and the SHA-256 of ``git diff HEAD`` (all
null when --root is not the top of a git checkout).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "verify", "query")


def parse_output(text: str) -> dict:
    """Split run.py's stdout into metric lines, error rate, record and result."""
    lines = text.strip().splitlines()
    doc = {"metric_lines": [], "error_rate": None, "record": None,
           "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("record "):
            doc["record"] = json.loads(line[len("record "):])
        elif line.startswith("error_rate = "):
            doc["error_rate"] = line
        elif " = " in line:
            doc["metric_lines"].append(line)
    return doc


def _git(root: Path, *args: str):
    """git's stdout in root, or None when git fails or is missing."""
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def source_state(root: Path) -> dict:
    """The commit of the checkout at root, whether its tree differs from
    that commit, and a hash of the difference; nulls outside a checkout."""
    top_rev = (_git(root, "rev-parse", "--show-toplevel", "HEAD") or b"").decode().splitlines()
    if len(top_rev) != 2 or Path(top_rev[0]).resolve() != root.resolve():
        return {"rev": None, "dirty": None, "diff_sha256": None}
    diff = _git(root, "diff", "HEAD")
    return {"rev": top_rev[1],
            "dirty": bool(_git(root, "status", "--porcelain")),
            "diff_sha256": None if diff is None else hashlib.sha256(diff).hexdigest()}


def record(root: Path, workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    """Byte-compile root's src/ and run its perfbench once.

    Returns run.py's exit code and, when it succeeded, the record's
    command, source and parsed output (None otherwise)."""
    root = root.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    source = source_state(root)
    compileall.compile_dir(root / "src", quiet=1)
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run([sys.executable, *cmd], cwd=root, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        print(f"bench_record: run.py exited with code {done.returncode}", file=sys.stderr)
        return done.returncode, None
    return 0, {"command": ["python3", *cmd], "source": source,
               **parse_output(done.stdout)}


def write(label: str, doc: dict) -> None:
    """Write one record to BENCH_<label>.json at the root of this repository."""
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({"label": label, **doc}, indent=2) + "\n")
    print(f"wrote {out.name}")


def check_label(parser: argparse.ArgumentParser, label: str) -> None:
    if not label.replace("_", "").replace("-", "").isalnum():
        parser.error(f"label must be letters, digits, '_' or '-': {label!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose perfbench/run.py is run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_label(parser, args.label)
    code, doc = record(args.root, args.workload, args.seed, args.trace)
    if doc is not None:
        write(args.label, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
