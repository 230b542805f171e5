"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Every workload runs at its tiny size, plain and traced, and must emit each
metric BENCHMARK.json declares with its unit and no failed operation; each
checker must count one deliberately wrong answer as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from descyc import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TinyWorkloads(unittest.TestCase):
    def test_every_metric_emitted_with_no_failures(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result, record = run.measure(workload, 7, 0.2, trace, size="tiny")
                    metrics = run.with_units(result["metrics"], declared)
                    self.assertEqual(
                        {name: m["unit"] for name, m in metrics.items()},
                        {m["name"]: m["unit"] for m in declared})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(record["workload"], workload)


class Checkers(unittest.TestCase):
    def test_wrong_scan_report_fails(self):
        report = wl.scan_op(8)
        self.assertTrue(wl.scan_ok(8, report))
        wrong = dataclasses.replace(report, max_deviation=Fraction(1, 8))
        self.assertFalse(wl.scan_ok(8, wrong))

    def test_tiny_scan_reference_matches_enumeration(self):
        n = 8
        betas, cycles, _ = oracle.brute_tables(n)
        best = max(
            (abs(Fraction(n * c, b) - 1), mask)
            for mask, (b, c) in enumerate(zip(betas.counts, cycles.counts))
            if 0 < mask < (1 << (n - 1)) - 1)
        deviation, _, members = wl.SCAN_EXPECTED[n]
        self.assertEqual(best[0], deviation)
        self.assertEqual(members, (1 << (n - 1)) - 2)

    def test_wrong_verify_result_fails(self):
        max_n = wl.VERIFY_MAX_N["tiny"]
        report = wl.verify_op(max_n)
        self.assertEqual(wl.verify_failures(max_n, report), (71, 0))
        results = list(report.results)
        results[3] = dataclasses.replace(results[3], ok=False, witness="planted")
        planted = dataclasses.replace(report, results=tuple(results))
        self.assertEqual(wl.verify_failures(max_n, planted), (71, 1))
        short = dataclasses.replace(report, results=tuple(results[4:]))
        self.assertEqual(wl.verify_failures(max_n, short)[1], 4)

    def test_query_stream_splits_fresh_calls_evenly(self):
        stream = wl.query_stream(5, 0, 200)
        fresh = list(dict.fromkeys(stream))
        self.assertAlmostEqual(wl.repeat_share(stream), 1 - len(fresh) / 200)
        counts = [sum(q[0] == kind for q in fresh) for kind in wl.QUERY_KINDS]
        self.assertLessEqual(max(counts) - min(counts), 1)

    def test_wrong_query_answer_fails(self):
        stream = wl.query_stream(5, 0, 200)
        answers = [wl.answer(q) for q in stream]
        self.assertEqual(wl.query_failures(stream, answers, wl.Reference()), 0)
        for kind in wl.QUERY_KINDS:
            index = next(i for i, q in enumerate(stream) if q[0] == kind)
            wrong = list(answers)
            wrong[index] += 1
            with self.subTest(kind=kind):
                self.assertEqual(wl.query_failures(stream, wrong, wl.Reference()), 1)
        raised = list(answers)
        raised[0] = ValueError("planted")
        self.assertEqual(wl.query_failures(stream, raised, wl.Reference()), 1)


class TracerBindings(unittest.TestCase):
    def test_rebinds_imported_names_and_restores_them(self):
        from descyc import asymptotics, linear, verify
        originals = (linear.beta_table, asymptotics.beta_table, verify._SUITE_FUNCS["lyndon"])
        with Tracer(["linear.beta_table", "verify.suite_lyndon"]) as tracer:
            self.assertIsNot(asymptotics.beta_table, originals[1])
            self.assertIs(asymptotics.beta_table, linear.beta_table)
            self.assertIsNot(verify._SUITE_FUNCS["lyndon"], originals[2])
            linear.beta_table(5)
        self.assertEqual(
            (linear.beta_table, asymptotics.beta_table, verify._SUITE_FUNCS["lyndon"]),
            originals)
        self.assertEqual(tracer.summary()["linear.beta_table.calls"], 1)


if __name__ == "__main__":
    unittest.main()
