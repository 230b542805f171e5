"""Command-line surface: compute single statistics, run verification
suites, drive deviation scans, print sequences, and manage golden CSVs.

Exit codes are stable for CI use: 0 success, 1 a verification or golden
comparison failed, 2 usage or domain error (an input above a documented
size cap included), 3 an internal error (a
violated invariant or any other unexpected exception; the traceback goes
to stderr).  Output is byte-identical across repeated runs and across
--jobs settings; timing is only included when --timing is passed, since it
is inherently nondeterministic (`verify --timing` writes it to stderr, so
its stdout is unchanged).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import asymptotics, cyclic, linear, lyndon, oracle, patterns, verify
from .core import DescentSet, DomainError, check_size, csv_field

GOLDEN_DEFAULT_MAX_N = 6

# Largest --max-n of `sequence eulerian-cyc-row`: its time grows about as
# max_n**4, and at 300 the whole sequence takes about 1.8 s on one core.
EULERIAN_CYC_ROW_CAP = 300


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t.strip()) for t in text.split(","))
    except ValueError:
        raise DomainError(f"bad {what}: {text!r}") from None


# The statistics of n alone, in the order `sequence` lists them; each
# serves both `compute` and `sequence`.  Here and in _COMPUTE a package
# function is looked up on each call, so a rebound module attribute (a
# test's patch) takes effect.
_OF_N = {
    "alt-cycles": lambda n: cyclic.alternating_cycles(n),
    "cycles-avoid-123": lambda n: patterns.cycles_avoiding_incr3(n),
    "cycles-avoid-321": lambda n: patterns.cycles_avoiding_decr3(n),
    "gamma": lambda n: patterns.gamma(n),
    "gamma-star": lambda n: patterns.gamma_star(n),
    "euler": lambda n: linear.euler_zigzag(n),
}


def _of_n(name: str):
    return ("n",), (), lambda a: _OF_N[name](a.n)


def _descent_set(args: argparse.Namespace) -> DescentSet:
    return DescentSet.from_text(args.n, args.set or "")


def _cycle_type(args: argparse.Namespace) -> lyndon.Partition:
    return lyndon.Partition(_parse_int_list(args.type, "type"))


def _type_descent_count(args: argparse.Namespace) -> int:
    lam = _cycle_type(args)
    n = args.n if args.n is not None else lam.n
    if n != lam.n:
        raise DomainError(f"--n {n} does not match type size {lam.n}")
    return lyndon.count_by_type_and_descents(
        lam, DescentSet.from_text(n, args.set or ""), exact=not args.contained)


# Every `compute` statistic, in the order --help lists them: the flags it
# requires, checked in this order, the flags it may take besides, and its
# value from the parsed arguments.  Any other flag is refused.
_COMPUTE = {
    "alpha": (("n",), ("set",), lambda a: linear.alpha(_descent_set(a))),
    "beta": (("n",), ("set",), lambda a: linear.beta(_descent_set(a))),
    "alpha-cyc": (("n",), ("set",), lambda a: cyclic.alpha_cyc(_descent_set(a))),
    "beta-cyc": (("n",), ("set",), lambda a: cyclic.beta_cyc(_descent_set(a))),
    "eulerian": (("n", "k"), (), lambda a: linear.eulerian(a.n, a.k)),
    "eulerian-cyc": (("n", "k"), (), lambda a: cyclic.cyclic_eulerian(a.n, a.k)),
    "euler": _of_n("euler"),
    "euler-k": (("n", "k"), (), lambda a: linear.generalized_euler(a.n, a.k)),
    "alt-cycles": _of_n("alt-cycles"),
    "kz-cycles": (("n", "k"), (), lambda a: cyclic.kz_cycles(a.n, a.k)),
    "gamma": _of_n("gamma"),
    "gamma-star": _of_n("gamma-star"),
    "cycles-avoid-123": _of_n("cycles-avoid-123"),
    "cycles-avoid-321": _of_n("cycles-avoid-321"),
    "lyndon-count": (("n", "evaluation"), (), lambda a: lyndon.count_lyndon(
        a.n, _parse_int_list(a.evaluation, "evaluation"))),
    "type-descent-count": (("type",), ("n", "set", "contained"), _type_descent_count),
}
# The flags of `compute` besides --format, in the order --help lists them;
# each is None unless given.
_COMPUTE_FLAGS = ("n", "k", "set", "evaluation", "type", "contained")

STATISTICS = tuple(_COMPUTE)
SEQUENCES = (*_OF_N, "eulerian-cyc-row")


def _compute_value(args: argparse.Namespace) -> int:
    required, optional, value = _COMPUTE[args.statistic]
    for name in required:
        if getattr(args, name) is None:
            raise DomainError(f"{args.statistic} requires --{name}")
    for name in _COMPUTE_FLAGS:
        if getattr(args, name) is not None and name not in required + optional:
            raise DomainError(f"{args.statistic} does not take --{name}")
    return value(args)


def _cmd_compute(args: argparse.Namespace) -> int:
    value = _compute_value(args)
    if args.format == "json":
        doc = {"statistic": args.statistic, "value": value}
        for key in _COMPUTE_FLAGS:
            arg = getattr(args, key)
            if arg is not None:
                doc[key] = arg
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        # only type-descent-count may omit --n, which is then its type's size
        n = _cycle_type(args).n if args.n is None else args.n
        print("statistic,n,value")
        print(f"{args.statistic},{n},{value}")
    else:
        print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.suite, args.max_n)
    if args.format == "json":
        doc = {
            "suite": report.suite,
            "max_n": report.max_n,
            "passed": report.passed,
            "checks": [
                {"label": r.label, "ok": r.ok, "witness": r.witness}
                for r in report.results
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        print("status,label,witness")
        for r in report.results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status},{csv_field(r.label)},{csv_field(r.witness)}")
    else:
        for r in report.results:
            tail = f"  ({r.witness})" if r.witness else ""
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.label}{tail}")
        total = len(report.results)
        failed = sum(1 for r in report.results if not r.ok)
        print(f"{total - failed}/{total} checks passed")
    if args.timing:
        for r in report.results:
            print(f"{r.label} {r.seconds:.4f}", file=sys.stderr)
    return 0 if report.passed else 1


def _parse_family(text: str, n: int) -> asymptotics.Family:
    parts = text.split(":")
    if parts[0] == "all-proper" and len(parts) == 1:
        return asymptotics.Family.all_proper(n)
    if parts[0] == "periodic" and len(parts) == 3:
        try:
            ell = int(parts[1])
        except ValueError:
            raise DomainError(f"bad period {parts[1]!r}") from None
        pattern = _parse_int_list(parts[2], "pattern")
        return asymptotics.Family.periodic(n, ell, pattern)
    if parts[0] == "alt-threshold" and len(parts) == 2:
        try:
            eps = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"bad threshold {parts[1]!r}") from None
        return asymptotics.Family.alt_threshold(n, eps)
    raise DomainError(
        f"bad family {text!r}; expected all-proper, periodic:L:PATTERN,"
        " or alt-threshold:EPS")


def _parse_range(args: argparse.Namespace) -> range:
    if (args.n is None) == (args.n_range is None):
        raise DomainError("give exactly one of --n or --n-range")
    if args.n is not None:
        return range(args.n, args.n + 1)
    pieces = args.n_range.split(":")
    if len(pieces) not in (2, 3):
        raise DomainError(f"bad range {args.n_range!r}; expected START:STOP[:STEP]")
    try:
        start, stop = int(pieces[0]), int(pieces[1])
        step = int(pieces[2]) if len(pieces) == 3 else 1
    except ValueError:
        raise DomainError(f"bad range {args.n_range!r}") from None
    if step < 1 or stop < start:
        raise DomainError(f"bad range {args.n_range!r}")
    return range(start, stop + 1, step)


def _cmd_scan(args: argparse.Namespace) -> int:
    # every family first, so an over-cap n fails before any scan runs
    families = [_parse_family(args.family, n) for n in _parse_range(args)]
    reports = [asymptotics.beta_deviation_scan(family, jobs=args.jobs)
               for family in families]
    rows = [r.to_json_dict(include_timing=args.timing) for r in reports]
    if args.format == "json":
        print(json.dumps({"reports": rows}, sort_keys=True))
    elif args.format == "csv":
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(csv_field(str(v)) for v in row.values()))
    else:
        for r in reports:
            dev = r.max_deviation
            approx = f"{float(dev):.6g}"
            line = (f"n={r.n} family={r.family} max_deviation={dev} (~{approx})"
                    f" argmax={{{r.argmax.to_text()}}} members={r.member_count}")
            if args.timing:
                line += f" elapsed_ms={int(r.elapsed_s * 1000)}"
            print(line)
    return 0


def _sequence_rows(name: str, max_n: int) -> list[tuple[int, ...]]:
    if name == "eulerian-cyc-row":
        # the largest row's (max_n, max_n) fails here, before the first row
        linear.check_power_sum("cyclic eulerian", max_n, max_n)
        check_size("eulerian-cyc-row", max_n, 1, EULERIAN_CYC_ROW_CAP)
        return [
            (n, k, value)
            for n in range(1, max_n + 1)
            for k, value in enumerate(cyclic.cyclic_eulerian_row(n), 1)
        ]
    func = _OF_N[name]
    func(max_n)  # an over-cap max_n fails here, before the smaller rows
    return [(n, func(n)) for n in range(1, max_n + 1)]


def _cmd_sequence(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise DomainError(f"--max-n must be >= 1, got {args.max_n}")
    rows = _sequence_rows(args.name, args.max_n)
    triple = args.name == "eulerian-cyc-row"
    if args.format == "json":
        print(json.dumps({"name": args.name, "rows": [list(r) for r in rows]},
                         sort_keys=True))
    else:
        if args.format == "csv":
            print("n,k,value" if triple else "n,value")
        for row in rows:
            print(",".join(str(x) for x in row))
    return 0


def _golden_files(max_n: int) -> dict[str, str]:
    files = {}
    for n in range(1, max_n + 1):
        b_table, bc_table, _ = oracle.brute_tables(n)
        files[f"beta_n{n}.csv"] = b_table.to_csv()
        files[f"beta_cyc_n{n}.csv"] = bc_table.to_csv()
    return files


def _cmd_golden(args: argparse.Namespace) -> int:
    if not 1 <= args.max_n <= oracle.ENUMERATION_CAP:
        raise DomainError(
            f"--max-n must be in 1..{oracle.ENUMERATION_CAP}, got {args.max_n}")
    directory = Path(args.dir)
    files = _golden_files(args.max_n)
    if args.bless:
        directory.mkdir(parents=True, exist_ok=True)
        for name, body in sorted(files.items()):
            (directory / name).write_text(body)
            print(f"wrote {directory / name}")
        return 0
    stale = []
    for name, body in sorted(files.items()):
        path = directory / name
        if not path.exists():
            stale.append(f"missing {path}")
        elif path.read_text() != body:
            stale.append(f"mismatch {path}")
    for line in stale:
        print(line)
    if not stale:
        print(f"{len(files)} golden files match")
    return 1 if stale else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descyc",
        description="Exact descent-set statistics of permutations and cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ("plain", "json", "csv"), "default": "plain"}

    p = sub.add_parser("compute", help="print one exact statistic")
    p.add_argument("statistic", choices=STATISTICS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--set", help="comma-separated ascending descent set")
    p.add_argument("--evaluation", help="comma-separated letter multiplicities")
    p.add_argument("--type", help="comma-separated cycle-type parts, descending")
    p.add_argument("--contained", action="store_true", default=None,
                   help="count descent sets contained in --set, not equal to it")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--max-n", type=int, required=True,
                   help="largest size to check; each check clamps this to"
                        " the cap it is rated for")
    p.add_argument("--timing", action="store_true",
                   help="write each check's wall seconds to stderr")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="deviation scan over a subset family")
    p.add_argument("--family", required=True,
                   help="all-proper | periodic:L:PATTERN | alt-threshold:EPS")
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", help="START:STOP[:STEP], inclusive")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="include elapsed_ms (nondeterministic) in the output")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sequence", help="print a sequence table")
    p.add_argument("name", choices=SEQUENCES)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("golden", help="check or regenerate golden CSVs")
    p.add_argument("--dir", default="golden")
    p.add_argument("--max-n", type=int, default=GOLDEN_DEFAULT_MAX_N)
    p.add_argument("--bless", action="store_true",
                   help="rewrite the files instead of comparing")
    p.set_defaults(func=_cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact counts can run past Python's default int-to-str digit limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a bug, not bad input; exit 1 stays reserved for failed checks
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
