import argparse
import csv
import json
import time
from pathlib import Path

import jsonschema
import pytest

from descyc import asymptotics, cli, cyclic
from descyc.cli import main
from descyc.core import InvariantViolation

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "scan_report.schema.json"
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_values(capsys):
    for argv, expected in [
        (("compute", "beta-cyc", "--n", "6", "--set", "3"), "3"),
        (("compute", "alpha-cyc", "--n", "3", "--set", "1"), "1"),
        (("compute", "alt-cycles", "--n", "4"), "1"),
        (("compute", "beta", "--n", "1", "--set", ""), "1"),
        (("compute", "alpha", "--n", "6", "--set", "1,2"), "30"),
        (("compute", "eulerian", "--n", "4", "--k", "2"), "11"),
        (("compute", "eulerian-cyc", "--n", "4", "--k", "2"), "3"),
        (("compute", "euler", "--n", "8"), "1385"),
        (("compute", "beta", "--n", "8", "--set", "2,4,6"), "1385"),
        (("compute", "euler-k", "--n", "6", "--k", "3"), "19"),
        (("compute", "kz-cycles", "--n", "6", "--k", "3"), "3"),
        (("compute", "gamma", "--n", "6"), "349"),
        (("compute", "gamma-star", "--n", "5"), "19"),
        (("compute", "cycles-avoid-123", "--n", "4"), "4"),
        (("compute", "cycles-avoid-321", "--n", "4"), "4"),
        (("compute", "lyndon-count", "--n", "3", "--evaluation", "1,2"), "1"),
        (("compute", "type-descent-count", "--type", "2,2", "--set", "1,3"), "1"),
        (("compute", "type-descent-count", "--type", "4", "--set", "2",
          "--contained"), "1"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.strip() == expected, argv


def test_compute_formats(capsys):
    code, out, _ = run_cli(capsys, "compute", "beta", "--n", "6", "--set", "1,2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 10 and doc["n"] == 6 and doc["set"] == "1,2"
    code, out, _ = run_cli(capsys, "compute", "gamma", "--n", "4",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["statistic,n,value", "gamma,4,17"]
    # without --n the n column is the size of the cycle type
    code, out, _ = run_cli(capsys, "compute", "type-descent-count", "--type", "2,2",
                           "--set", "1,3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["statistic,n,value", "type-descent-count,4,1"]
    code, out, _ = run_cli(capsys, "compute", "type-descent-count", "--type", "4",
                           "--set", "2", "--contained", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"statistic": "type-descent-count", "value": 1,
                               "type": "4", "set": "2", "contained": True}


def test_compute_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "beta", "--n", "6", "--set", "4,2")
    assert code == 2 and "ascending" in err
    code, _, err = run_cli(capsys, "compute", "beta", "--n", "6", "--set", "6")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "eulerian", "--n", "4")
    assert code == 2 and "requires" in err
    code, _, err = run_cli(capsys, "compute", "type-descent-count",
                           "--type", "2,2", "--n", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "type-descent-count", "--type", "")
    assert code == 2 and "cycle type ()" in err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nonsense", "--n", "4"])
    assert exc.value.code == 2


def test_every_missing_flag_refused(capsys):
    # the required flags suffice, and each one left out in turn is named
    sample = {"n": "4", "k": "2", "evaluation": "2,2", "type": "2,2"}

    def given(flags):
        return [a for flag in flags for a in (f"--{flag}", sample[flag])]

    for stat in cli.STATISTICS:
        required = cli._COMPUTE[stat][0]
        code, _, err = run_cli(capsys, "compute", stat, *given(required))
        assert code == 0, (stat, err)
        for missing in required:
            argv = ["compute", stat, *given(f for f in required if f != missing)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {stat} requires --{missing}\n", argv


def test_every_unread_flag_refused(capsys):
    # a statistic takes its required and optional flags, and refuses the rest
    # after the required ones are checked
    sample = {"n": ["4"], "k": ["2"], "set": ["1"], "evaluation": ["2,2"],
              "type": ["2,2"], "contained": []}

    def given(flags):
        return [a for flag in flags for a in (f"--{flag}", *sample[flag])]

    for stat in cli.STATISTICS:
        required, optional, _ = cli._COMPUTE[stat]
        for flag in optional:
            code, _, err = run_cli(capsys, "compute", stat, *given(required + (flag,)))
            assert code == 0, (stat, flag, err)
        for flag in sample:
            if flag in required + optional:
                continue
            argv = ["compute", stat, *given(required + (flag,))]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {stat} does not take --{flag}\n", argv
            if required:
                # a missing required flag is named first
                argv = ["compute", stat, *given(required[1:] + (flag,))]
                code, _, err = run_cli(capsys, *argv)
                assert err == f"error: {stat} requires --{required[0]}\n", argv


def test_sequences_match_compute(capsys):
    def computed(*argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 0, (argv, err)
        return int(out)

    for name in cli.SEQUENCES:
        code, out, err = run_cli(capsys, "sequence", name, "--max-n", "5",
                                 "--format", "json")
        assert code == 0, (name, err)
        rows = json.loads(out)["rows"]
        if name == "eulerian-cyc-row":
            expected = [[n, k, computed("eulerian-cyc", "--n", str(n), "--k", str(k))]
                        for n in range(1, 6) for k in range(1, n + 1)]
        else:
            expected = [[n, computed(name, "--n", str(n))] for n in range(1, 6)]
        assert rows == expected, name


def test_choices_order_pinned():
    # --help and argparse's invalid-choice message print these in order
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command):
        (found,) = [a.choices for a in commands[command]._actions
                    if a.choices and not a.option_strings]
        return found

    assert choices("compute") == (
        "alpha", "beta", "alpha-cyc", "beta-cyc", "eulerian", "eulerian-cyc",
        "euler", "euler-k", "alt-cycles", "kz-cycles", "gamma", "gamma-star",
        "cycles-avoid-123", "cycles-avoid-321", "lyndon-count",
        "type-descent-count")
    assert choices("sequence") == (
        "alt-cycles", "cycles-avoid-123", "cycles-avoid-321", "gamma",
        "gamma-star", "euler", "eulerian-cyc-row")
    assert choices("verify") == (
        "oracle", "inversions", "corollaries", "lyndon", "patterns", "bounds",
        "all")


def test_unbounded_inputs_capped(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "compute", "alt-cycles", "--n", "20000")
    assert code == 2 and not out and "capped at n = 2000" in err
    code, out, err = run_cli(capsys, "sequence", "euler", "--max-n", "5000")
    assert code == 2 and not out and "capped at n = 2000" in err
    code, out, err = run_cli(capsys, "compute", "euler", "--n", "2001")
    assert code == 2 and not out and "capped at n = 2000" in err
    for name in ("gamma", "gamma-star"):
        code, out, err = run_cli(capsys, "compute", name, "--n", "3000")
        assert code == 2 and not out and "capped at n = 700" in err, name
    # the power sums are refused on k * n before any power or divisor
    for argv in (("compute", "eulerian", "--n", str(10**18), "--k", "3"),
                 ("compute", "eulerian-cyc", "--n", "20000", "--k", "10000"),
                 ("sequence", "eulerian-cyc-row", "--max-n", "1000000")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and not out and "capped at k*n = 10000000" in err, argv
    # an over-cap scan exits 2 before any scan, any n-bit pattern mask or
    # any search for the alt-threshold's least alternation number
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called before the cap check")
        return record

    monkeypatch.setattr(asymptotics, "beta_deviation_scan", refuse("scan"))
    qualifies = asymptotics._alt_qualifies

    def search_below_cap(alt, n, epsilon):
        # an n-range builds each family up to the first n over the cap
        if n > asymptotics.SCAN_CAP:
            calls.append("threshold")
        return qualifies(alt, n, epsilon)

    monkeypatch.setattr(asymptotics, "_alt_qualifies", search_below_cap)
    for argv, message in [
        # the member mask would be empty at n = 25, which is refused later
        (("--family", "periodic:30:25", "--n", "25"),
         "periodic:30:25 scan capped at n = 24"),
        (("--family", "periodic:2:1", "--n", "3000000"),
         "periodic:2:1 scan capped at n = 24"),
        (("--family", "all-proper", "--n-range", "29:33"),
         "all-proper scan capped at n = 32"),
        (("--family", "alt-threshold:0.25", "--n-range", "1:1000000000000"),
         "alt-threshold:1/4 scan capped at n = 24"),
        (("--family", "alt-threshold:1/100001", "--n", "12"),
         "denominator capped at 100000, got 100001"),
        (("--family", "alt-threshold:1/1000000000", "--n", "24"),
         "denominator capped at 100000, got 1000000000"),
        (("--family", "alt-threshold:1e-400", "--n", "12"),
         "denominator capped at 100000, got 1" + "0" * 400),
        (("--family", "alt-threshold:49999999/100000000", "--n", "12"),
         "denominator capped at 100000, got 100000000"),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and not out and message in err, argv
    assert calls == []


def test_statistics_of_n_refused_at_once(capsys):
    # each capped term is refused before any work that grows with n, such
    # as the O(sqrt n) divisor list of the cycle counts
    for name in cli._OF_N:
        for argv in (("compute", name, "--n", str(10**18)),
                     ("sequence", name, "--max-n", str(10**18))):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert code == 2 and not out and "capped at n =" in err, argv


BIG = str(10**18)
# One over-cap argv per statistic and per sequence.  A name that has no row
# here fails test_every_name_refuses_hostile_input.
HOSTILE = {
    ("compute", "alpha"): ("--n", BIG),
    ("compute", "beta"): ("--n", BIG),
    ("compute", "alpha-cyc"): ("--n", BIG),
    ("compute", "beta-cyc"): ("--n", BIG),
    ("compute", "eulerian"): ("--n", BIG, "--k", "3"),
    ("compute", "eulerian-cyc"): ("--n", BIG, "--k", "3"),
    ("compute", "euler"): ("--n", BIG),
    ("compute", "euler-k"): ("--n", BIG, "--k", "3"),
    ("compute", "alt-cycles"): ("--n", BIG),
    ("compute", "kz-cycles"): ("--n", BIG, "--k", "3"),
    ("compute", "gamma"): ("--n", BIG),
    ("compute", "gamma-star"): ("--n", BIG),
    ("compute", "cycles-avoid-123"): ("--n", BIG),
    ("compute", "cycles-avoid-321"): ("--n", BIG),
    ("compute", "lyndon-count"): ("--n", BIG, "--evaluation", BIG),
    ("compute", "type-descent-count"): (
        "--type", ",".join(["1"] * 63), "--set", ",".join(map(str, range(1, 63)))),
    ("sequence", "alt-cycles"): ("--max-n", BIG),
    ("sequence", "cycles-avoid-123"): ("--max-n", BIG),
    ("sequence", "cycles-avoid-321"): ("--max-n", BIG),
    ("sequence", "gamma"): ("--max-n", BIG),
    ("sequence", "gamma-star"): ("--max-n", BIG),
    ("sequence", "euler"): ("--max-n", BIG),
    ("sequence", "eulerian-cyc-row"): ("--max-n", BIG),
}


def test_every_name_refuses_hostile_input(capsys):
    # every input is answered or refused in bounded time: here, refused
    assert set(HOSTILE) == ({("compute", name) for name in cli.STATISTICS}
                            | {("sequence", name) for name in cli.SEQUENCES})
    for (command, name), flags in HOSTILE.items():
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, name, *flags)
        assert time.perf_counter() - start < 1, (command, name)
        assert code == 2 and not out and err.startswith("error: "), (command, name)


def test_new_caps_answer_at_the_cap(capsys):
    # over each cap the input is refused; at the cap it is still answered
    for argv, message in [
        (("compute", "euler", "--n", "2001"), "zigzag numbers capped at n = 2000, got 2001"),
        (("compute", "alt-cycles", "--n", "2001"),
         "zigzag numbers capped at n = 2000, got 2001"),
        (("sequence", "euler", "--max-n", "2001"),
         "zigzag numbers capped at n = 2000, got 2001"),
        (("compute", "euler", "--n", "-1"), "zigzag numbers needs n >= 0, got -1"),
        (("compute", "cycles-avoid-123", "--n", "0"),
         "cycles avoiding 123 needs n >= 1, got 0"),
        (("compute", "cycles-avoid-321", "--n", "-1"),
         "cycles avoiding 321 needs n >= 1, got -1"),
        (("compute", "euler-k", "--n", "2001", "--k", "2001"),
         "generalized zigzag capped at n = 2000, got 2001"),
        (("compute", "kz-cycles", "--n", "2001", "--k", "2001"),
         "kz cycles capped at n = 2000, got 2001"),
        (("compute", "lyndon-count", "--n", "50001", "--evaluation", "25001,25000"),
         "Lyndon counts capped at n = 50000, got 50001"),
        (("sequence", "eulerian-cyc-row", "--max-n", "301"),
         "eulerian-cyc-row capped at n = 300, got 301"),
        (("compute", "type-descent-count", "--type", "19"),
         "type counts capped at n = 18, got 19"),
        (("compute", "type-descent-count", "--type", "12,12",
          "--set", "2,4,6,8,10,12,14,16,18,20,22"),
         "type counts capped at n = 18, got 24"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    for argv, expected in [
        (("compute", "euler-k", "--n", "2000", "--k", "2000"), "1"),
        (("compute", "kz-cycles", "--n", "2000", "--k", "2000"), "0"),
        (("compute", "lyndon-count", "--n", "50000", "--evaluation", "50000"), "0"),
        (("compute", "type-descent-count", "--type", "18", "--set", "2,4,6,8,10,12,14,16"),
         str(cyclic.beta_cyc_mask(18, sum(1 << (i - 1) for i in range(2, 17, 2))))),
        (("compute", "type-descent-count", "--type", ",".join(["1"] * 18)), "1"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.strip()) == (0, expected), (argv, err)
    # the zigzag numbers are the generalized zigzag numbers at k = 2
    code, zigzag, _ = run_cli(capsys, "compute", "euler", "--n", "2000")
    assert code == 0 and zigzag.strip()
    assert run_cli(capsys, "compute", "euler-k", "--n", "2000", "--k", "2") == (0, zigzag, "")


def test_compute_beyond_digit_limit(capsys):
    code, plain, _ = run_cli(capsys, "compute", "eulerian-cyc", "--n", "3000",
                             "--k", "1500")
    assert code == 0
    code, doc, _ = run_cli(capsys, "compute", "eulerian-cyc", "--n", "3000",
                           "--k", "1500", "--format", "json")
    assert code == 0
    expected = str(cyclic.cyclic_eulerian(3000, 1500))
    assert len(expected) > 4300
    assert plain.strip() == expected
    assert str(json.loads(doc)["value"]) == expected


def test_internal_errors_exit_3(capsys, monkeypatch):
    def violated(n, k):
        raise InvariantViolation("planted")

    monkeypatch.setattr(cyclic, "cyclic_eulerian", violated)
    code, out, err = run_cli(capsys, "compute", "eulerian-cyc", "--n", "4",
                             "--k", "2")
    assert code == 3 and not out
    assert "Traceback" in err and "InvariantViolation: planted" in err
    monkeypatch.setattr(cyclic, "cyclic_eulerian", lambda n, k: n // 0)
    code, _, err = run_cli(capsys, "compute", "eulerian-cyc", "--n", "4",
                           "--k", "2")
    assert code == 3 and "ZeroDivisionError" in err
    # a signed divisor sum that divides exactly but counts below zero
    generalized_euler = cyclic.generalized_euler
    monkeypatch.setattr(cyclic, "generalized_euler", lambda n, k: -generalized_euler(n, k))
    code, out, err = run_cli(capsys, "compute", "kz-cycles", "--n", "6", "--k", "3")
    assert code == 3 and not out and "InvariantViolation: kz_cycles negative" in err


def test_verify_reports_violations_as_failures(capsys, monkeypatch):
    _, clean, _ = run_cli(capsys, "verify", "corollaries", "--max-n", "18")

    def violated(n):
        raise InvariantViolation(f"planted at n={n}")

    monkeypatch.setattr(cyclic, "alternating_cycles", violated)
    code, out, _ = run_cli(capsys, "verify", "corollaries", "--max-n", "18")
    assert code == 1
    lines, clean_lines = out.splitlines()[:-1], clean.splitlines()[:-1]
    assert len(lines) == len(clean_lines)
    failed = 0
    for line, clean_line in zip(lines, clean_lines):
        label = clean_line.removeprefix("PASS  ")
        if label.startswith("alternating cycles n="):
            n = label.removeprefix("alternating cycles n=")
            assert line == f"FAIL  {label}  (planted at n={n})"
        elif label == "spot values":
            assert line == "FAIL  spot values  (planted at n=4)"
        else:
            assert line == clean_line
        failed += line != clean_line
    assert failed == 19
    assert out.splitlines()[-1] == (
        f"{len(lines) - failed}/{len(lines)} checks passed")


def _csv_rows(text):
    rows = list(csv.reader(text.splitlines()))
    assert rows and all(len(row) == len(rows[0]) for row in rows), rows
    return rows


def test_csv_rows_keep_the_header_width(capsys, monkeypatch):
    # a family with several residues and a witness with a comma and a
    # double quote are each one field
    code, out, _ = run_cli(capsys, "scan", "--family", "periodic:3:1,2",
                           "--n-range", "9:11", "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    assert [row[1] for row in rows[1:]] == ["periodic:3:1,2"] * 3
    assert rows[1][4] == "1,2,4,5,7,8"

    def violated(n):
        raise InvariantViolation(f'planted "here", at n={n}')

    monkeypatch.setattr(cyclic, "alternating_cycles", violated)
    code, out, _ = run_cli(capsys, "verify", "corollaries", "--max-n", "9",
                           "--format", "csv")
    assert code == 1
    rows = _csv_rows(out)
    assert rows[0] == ["status", "label", "witness"]
    failed = [row for row in rows[1:] if row[0] == "FAIL"]
    assert ["FAIL", "alternating cycles n=9", 'planted "here", at n=9'] in failed
    assert len(failed) == 10


def test_verify_commands(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "1")
    assert code == 0
    assert "checks passed" in out
    code, out, _ = run_cli(capsys, "verify", "inversions", "--max-n", "8")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
    code, out, _ = run_cli(capsys, "verify", "inversions", "--max-n", "6",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["passed"] is True and len(doc["checks"]) == 6
    # a request that selects no check is refused, not passed vacuously
    for fmt in ("plain", "json", "csv"):
        code, out, err = run_cli(capsys, "verify", "bounds", "--max-n", "1",
                                 "--format", fmt)
        assert (code, out) == (2, "") and err == (
            "error: suite 'bounds' has no check at max_n = 1; use max_n >= 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything", "--max-n", "3"])
    assert exc.value.code == 2


def test_verify_timing_goes_to_stderr(capsys, monkeypatch):
    # one "label seconds" line per check on stderr; stdout and the exit
    # code are those of the same run without the flag, passing or failing
    def violated(n):
        raise InvariantViolation(f"planted at n={n}")

    for suite, plant in (("lyndon", False), ("corollaries", True)):
        if plant:
            monkeypatch.setattr(cyclic, "alternating_cycles", violated)
        argv = ("verify", suite, "--max-n", "4")
        labels = [check["label"] for check in
                  json.loads(run_cli(capsys, *argv, "--format", "json")[1])["checks"]]
        for fmt in ("plain", "json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            timed = run_cli(capsys, *argv, "--format", fmt, "--timing")
            assert (code, err) == (int(plant), "")
            assert timed[:2] == (code, out), (suite, fmt)
            lines = timed[2].splitlines()
            assert [line.rsplit(" ", 1)[0] for line in lines] == labels, (suite, fmt)
            assert all(float(line.rsplit(" ", 1)[1]) >= 0 for line in lines)


def test_scan_output_and_determinism(capsys):
    runs = []
    for jobs in ("1", "2", "4"):
        code, out, _ = run_cli(capsys, "scan", "--family", "all-proper",
                               "--n", "10", "--jobs", jobs, "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    doc = json.loads(runs[0])
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(doc, schema)
    report = doc["reports"][0]
    assert report["member_count"] == 510
    assert "elapsed_ms" not in report


def test_scan_range_and_formats(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "periodic:2:2",
                           "--n-range", "8:12:2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n=8 family=periodic:2:2 max_deviation=1/1385")
    code, out, _ = run_cli(capsys, "scan", "--family", "alt-threshold:0.25",
                           "--n", "12", "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "n,family,max_deviation_num,max_deviation_den,argmax_set,member_count"
    assert rows[1] == "12,alt-threshold:1/4,1,1,,2048"
    code, out, _ = run_cli(capsys, "scan", "--family", "all-proper", "--n", "8",
                           "--format", "json", "--timing")
    doc = json.loads(out)
    assert "elapsed_ms" in doc["reports"][0]
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))


def test_scan_matches_reference_report(capsys):
    # reports of exhaustive scans, which pin every maximum and the tie
    # order of the argmax
    for family, sizes, name in [
        ("all-proper", "3:18", "scan_all_proper_3_18.json"),
        ("alt-threshold:2/5", "3:20", "scan_alt_threshold_2_5_3_20.json"),
        ("alt-threshold:49/100", "3:20", "scan_alt_threshold_49_100_3_20.json"),
    ]:
        code, out, _ = run_cli(capsys, "scan", "--family", family,
                               "--n-range", sizes, "--format", "json")
        assert code == 0
        assert out == (DATA_DIR / name).read_text(), family


def test_scan_errors(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "bogus", "--n", "5")
    assert code == 2 and "bad family" in err
    code, out, err = run_cli(capsys, "scan", "--family", "periodic:2:1", "--n", "2")
    assert code == 2 and not out and "periodic:2:1" in err
    code, _, err = run_cli(capsys, "scan", "--family", "all-proper")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--family", "all-proper",
                           "--n", "5", "--n-range", "3:5")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--family", "all-proper",
                           "--n-range", "9:3")
    assert code == 2
    code, out, err = run_cli(capsys, "scan", "--family", "alt-threshold:1/4",
                             "--n", "0")
    assert code == 2 and not out and err == "error: alt-threshold:1/4 needs n >= 1, got 0\n"


def test_sequence_outputs(capsys):
    code, out, _ = run_cli(capsys, "sequence", "gamma", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "6,349" and lines[0] == "1,1"
    code, out, _ = run_cli(capsys, "sequence", "euler", "--max-n", "1")
    assert out.splitlines() == ["1,1"]
    code, out, _ = run_cli(capsys, "sequence", "alt-cycles", "--max-n", "4")
    assert out.splitlines()[-1] == "4,1"
    code, out, _ = run_cli(capsys, "sequence", "eulerian-cyc-row", "--max-n", "4",
                           "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert lines[-4:] == ["4,1,0", "4,2,3", "4,3,3", "4,4,0"]
    code, out, _ = run_cli(capsys, "sequence", "gamma-star", "--max-n", "5",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["rows"][-1] == [5, 19]
    with pytest.raises(SystemExit):
        main(["sequence", "unknown", "--max-n", "3"])


def test_byte_identical_repeat_runs(capsys):
    first = run_cli(capsys, "scan", "--family", "all-proper", "--n", "9",
                    "--format", "csv")
    second = run_cli(capsys, "scan", "--family", "all-proper", "--n", "9",
                     "--format", "csv")
    assert first == second
    a = run_cli(capsys, "sequence", "cycles-avoid-123", "--max-n", "10")
    b = run_cli(capsys, "sequence", "cycles-avoid-123", "--max-n", "10")
    assert a == b


def test_golden_roundtrip(tmp_path, capsys):
    target = tmp_path / "golden"
    code, out, _ = run_cli(capsys, "golden", "--dir", str(target), "--bless",
                           "--max-n", "4")
    assert code == 0
    code, out, _ = run_cli(capsys, "golden", "--dir", str(target), "--max-n", "4")
    assert code == 0 and "8 golden files match" in out
    (target / "beta_n3.csv").write_text("mask,set,count\n0,,999\n")
    code, out, _ = run_cli(capsys, "golden", "--dir", str(target), "--max-n", "4")
    assert code == 1 and "mismatch" in out
    code, out, _ = run_cli(capsys, "golden", "--dir", str(tmp_path / "void"),
                           "--max-n", "2")
    assert code == 1 and "missing" in out


def test_checked_in_golden_files_match(capsys):
    code, out, _ = run_cli(capsys, "golden", "--dir", str(GOLDEN_DIR),
                           "--max-n", "6")
    assert code == 0, out
