"""Acceptance gate: every criterion the package must meet, at its stated
size and tolerance.  All checks are exact (tolerance zero); the two scan
criteria additionally carry wall-clock budgets.

Each test prints one PASS line on success (visible with -s or -rP); a
failure raises with a witness.
"""

import json
import time

from conftest import assert_passed
from descyc import asymptotics, cli, patterns, verify


def _record(line):
    print(line)


def test_criterion_1_oracle_gate():
    start = time.monotonic()
    assert_passed(verify.suite_oracle(9))
    elapsed = time.monotonic() - start
    assert elapsed < 180, f"oracle gate took {elapsed:.0f}s"
    _record(f"PASS criterion 1: oracle gate n<=9 ({elapsed:.1f}s)")


def test_criterion_2_main_theorem_closure():
    start = time.monotonic()
    assert_passed(verify.suite_inversions(12))
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"closure took {elapsed:.0f}s"
    _record(f"PASS criterion 2: four-identity closure n<=12 ({elapsed:.1f}s)")


def test_criterion_3_corollary_suite():
    start = time.monotonic()
    assert_passed(
        [verify._check_prefix_identity(n) for n in range(2, 15)]
        + [verify._check_gcd_shortcuts(n) for n in range(1, 15)]
        + [verify._check_complements(n) for n in range(1, 13)])
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"corollary suite took {elapsed:.0f}s"
    _record(f"PASS criterion 3: corollary suite ({elapsed:.1f}s)")


def test_criterion_4_sum_rules():
    start = time.monotonic()
    assert_passed(
        [verify._check_cycle_sum_rules(n) for n in range(1, 15)]
        + [verify._check_beta_sum_rule(n) for n in range(1, 13)])
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"sum rules took {elapsed:.0f}s"
    _record(f"PASS criterion 4: sum rules ({elapsed:.1f}s)")


def test_criterion_5_special_descent_sets():
    start = time.monotonic()
    assert_passed(
        [verify._check_alternating_cycles(n) for n in range(1, 19)]
        + [verify._check_kz_cycles(18), verify._check_spot_values()])
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"special sets took {elapsed:.0f}s"
    _record(f"PASS criterion 5: special descent sets ({elapsed:.1f}s)")


def test_criterion_6_word_counts():
    start = time.monotonic()
    assert_passed(
        [verify._check_word_counts(n) for n in range(1, 9)]
        + [verify._check_type_sums(n) for n in range(1, 9)])
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"word counts took {elapsed:.0f}s"
    _record(f"PASS criterion 6: word counts by type ({elapsed:.1f}s)")


def test_criterion_7_pattern_suite():
    start = time.monotonic()
    assert patterns.gamma(4) == 17
    assert patterns.gamma_star(4) == 6
    assert patterns.gamma_star(5) == 19
    assert patterns.cycles_avoiding_incr3(4) == 4
    assert patterns.cycles_avoiding_decr3(4) == 4
    assert_passed(verify.suite_patterns(21))
    elapsed = time.monotonic() - start
    assert elapsed < 180, f"pattern suite took {elapsed:.0f}s"
    _record(f"PASS criterion 7: pattern suite ({elapsed:.1f}s)")


def test_criterion_8_asymptotic_properties():
    start = time.monotonic()
    assert_passed(verify.suite_bounds(18))
    scan_start = time.monotonic()
    reports = [
        asymptotics.beta_deviation_scan(
            asymptotics.Family.all_proper(20), jobs=jobs).to_json_dict()
        for jobs in (1, 4, 8)
    ]
    scan_elapsed = time.monotonic() - scan_start
    assert reports[0] == reports[1] == reports[2]
    assert scan_elapsed < 600, f"n=20 scans took {scan_elapsed:.0f}s"
    trend = [
        (n, asymptotics.beta_deviation_scan(
            asymptotics.Family.all_proper(n)).max_deviation)
        for n in range(3, 29)
    ]
    trend_text = ", ".join(f"n={n}: {float(dev):.4f}" for n, dev in trend)
    elapsed = time.monotonic() - start
    _record(f"PASS criterion 8: asymptotic properties ({elapsed:.1f}s; "
            f"n=20 scans {scan_elapsed:.1f}s)")
    _record(f"INFO criterion 8 trend (reported, not asserted): {trend_text}")


def test_criterion_9_determinism(tmp_path, capsys):
    start = time.monotonic()
    code = cli.main(["verify", "all", "--max-n", "9"])
    out_first = capsys.readouterr().out
    assert code == 0, out_first
    assert out_first.splitlines()[-1] == "160/160 checks passed"
    target = tmp_path / "golden"
    assert cli.main(["golden", "--dir", str(target), "--bless", "--max-n", "6"]) == 0
    capsys.readouterr()
    first = {p.name: p.read_bytes() for p in sorted(target.glob("*.csv"))}
    assert cli.main(["golden", "--dir", str(target), "--bless", "--max-n", "6"]) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in sorted(target.glob("*.csv"))}
    assert first == second and len(first) == 12
    code = cli.main(["scan", "--family", "all-proper", "--n", "12",
                     "--format", "json"])
    run_a = capsys.readouterr().out
    code = cli.main(["scan", "--family", "all-proper", "--n", "12",
                     "--format", "json"])
    run_b = capsys.readouterr().out
    assert run_a == run_b
    json.loads(run_a)
    elapsed = time.monotonic() - start
    _record(f"PASS criterion 9: determinism ({elapsed:.1f}s)")
