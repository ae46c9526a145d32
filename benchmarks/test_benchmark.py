"""Tests of the benchmark's oracle, input generator and tracer.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from oracle import QISet  # noqa: E402
from workloads import WORKLOADS, Request, make_deck  # noqa: E402

from afideals import cli  # noqa: E402

HALF = QISet("01")  # {1/2}
PAIR = QISet("0011")  # {1/4, 1/8}


def distance_request(*options, sets=(HALF, PAIR), **fields):
    argv = ("distance", *options, *(s.word_literal() for s in sets))
    return Request(argv, "distance", sets, **fields)


def verdict(request, rc, stdout, stderr=""):
    return oracle.check(oracle.Expected(request), rc, stdout, stderr)


class OracleValues(unittest.TestCase):
    def test_readme_example(self):
        self.assertEqual(oracle.hausdorff(HALF, PAIR), Fraction(3, 8))
        self.assertEqual(oracle.d_phi(HALF, PAIR, "derived"), Fraction(1, 8))
        lo, hi = oracle.beta_bracket(HALF, PAIR, "derived", 60)
        self.assertTrue(lo <= Fraction(13, 128) <= hi)
        lo, hi = oracle.beta_bracket(HALF, PAIR, "paper", 60)
        self.assertTrue(lo <= Fraction(21, 128) <= hi)

    def test_hausdorff_with_limit_point(self):
        # {1/2, 1/4, ...} with 0 against {0}: the farthest point is 1/2.
        self.assertEqual(oracle.hausdorff(QISet("0", "1"), QISet("", "", zero=True)), Fraction(1, 2))
        self.assertEqual(oracle.hausdorff(QISet("1"), QISet("", "", zero=True)), 1)

    def test_brackets_nest(self):
        a, b = QISet("1", "01"), QISet("", "001")
        outer = oracle.beta_bracket(a, b, "derived", 10)
        inner = oracle.beta_bracket(a, b, "derived", 30)
        self.assertTrue(outer[0] <= inner[0] and inner[1] <= outer[1])
        self.assertEqual(outer[1] - outer[0], Fraction(1, 2 ** 10))

    def test_ideal_levels_pass_and_broken_levels_fail(self):
        levels = oracle.ideal_levels(QISet("0110100111", "011"), 24)
        self.assertIsNone(oracle.ideal_problem(levels))
        levels[10].discard(min(levels[10]))
        self.assertIsNotNone(oracle.ideal_problem(levels))


class OracleRejectsPerturbedOutput(unittest.TestCase):
    def test_exact_values(self):
        request = distance_request()
        good = "hausdorff: 3/8\nphi: 1/8\nbeta: 13/128\n"
        self.assertIsNone(verdict(request, 0, good))
        self.assertIn("hausdorff", verdict(request, 0, good.replace("3/8", "5/16")))
        self.assertIn("phi", verdict(request, 0, good.replace("phi: 1/8", "phi: 1/16")))
        self.assertIn("beta", verdict(request, 0, good.replace("13/128", "13/128000")))
        self.assertIsNotNone(verdict(request, 0, good.replace("beta: 13/128\n", "")))
        self.assertIsNotNone(verdict(request, 3, good))

    def test_json_decimals(self):
        request = distance_request("--json", "--decimal", "6", json=True, decimal=6)
        rc, stdout, stderr, crash, _ = run.call(cli, request)
        self.assertIsNone(verdict(request, rc, stdout, stderr))
        self.assertIsNotNone(verdict(request, rc, stdout.replace("0.375000", "0.375001"), stderr))

    def test_interval_must_enclose_the_bracket(self):
        a, b = QISet("1", "01"), QISet("", "001")
        request = distance_request("--metric", "beta", sets=(a, b), metric="beta")
        rc, stdout, stderr, crash, _ = run.call(cli, request)
        self.assertIsNone(verdict(request, rc, stdout, stderr))
        lo, hi = (Fraction(x) for x in stdout.split(": ", 1)[1].strip()[1:-1].split(", "))
        shift = (hi - lo) * Fraction(3, 2)
        shifted = f"beta: [{lo + shift}, {hi + shift}]\n"
        self.assertIn("misses", verdict(request, 0, shifted))
        wide = f"beta: [{lo - 1}, {hi}]\n"
        self.assertIn("certificate", verdict(request, 0, wide))

    def test_descriptor_levels(self):
        s = QISet("01", "", zero=True)
        request = Request(("descriptor", "--depth", "32", s.word_literal()), "descriptor", (s,))
        rc, stdout, stderr, crash, _ = run.call(cli, request)
        self.assertIsNone(verdict(request, rc, stdout, stderr))
        self.assertIsNotNone(verdict(request, rc, stdout.replace("u_3 = {1}", "u_3 = {1,3}"), stderr))

    def test_error_requests_and_check_transcripts(self):
        request = Request(("distance", "1/3", "1/2"), "error", exit_code=1)
        self.assertIsNone(verdict(request, 1, "", "error: bad point token: '1/3'\n"))
        self.assertIsNotNone(verdict(request, 3, "", "error: bad point token: '1/3'\n"))
        self.assertIsNotNone(verdict(request, 1, "hausdorff: 1\n", "error: x\n"))
        request = Request(("check", "--seed", "5"), "check", check_seed=5)
        good = "seed=5 scale=60\nexact-arithmetic: PASS (9 cases)\nresult: all suites passed\n"
        self.assertIsNone(verdict(request, 0, good))
        self.assertIsNotNone(verdict(request, 0, good.replace("PASS (9", "FAIL (1/9")))
        self.assertIsNotNone(verdict(request, 0, good.replace("seed=5", "seed=6")))


class Crashing:
    @staticmethod
    def main(argv):
        raise ZeroDivisionError("1/0")


def crash_result(request):
    outcomes = run.Outcomes()
    rc, stdout, stderr, crash, _ = run.call(Crashing, request)
    outcomes.add((0, 0), request, rc, stdout, stderr, crash)
    return outcomes.result(1, {})


class Accounting(unittest.TestCase):
    def test_known_defect_crash_fails_the_request_only(self):
        request = Request(("distance", "1/0", "1"), "error", exit_code=1,
                          known_crash="ZeroDivisionError")
        self.assertEqual(crash_result(request),
                         {"correct": True, "attempted": 1, "failed": 1, "metrics": {}})

    def test_any_other_crash_makes_the_run_incorrect(self):
        self.assertEqual(crash_result(distance_request()),
                         {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        request = Request(("distance", "1/0", "1"), "error", exit_code=1,
                          known_crash="ValueError")
        self.assertFalse(crash_result(request)["correct"])

    def test_generator_marks_only_zero_denominators(self):
        for request in make_deck(WORKLOADS["distance"], 5)[0]:
            zero = any("/0" in arg for arg in request.argv)
            self.assertEqual(request.known_crash, "ZeroDivisionError" if zero else None,
                             request.argv)

    def test_library_agrees_with_oracle_on_the_cli_mix_part(self):
        outcomes = run.Outcomes()
        block = [r for r in make_deck(WORKLOADS["distance"], 11)[0] if r.part == "cli-mix"]
        for i, request in enumerate(block):
            rc, stdout, stderr, crash, _ = run.call(cli, request)
            outcomes.add((0, i), request, rc, stdout, stderr, crash)
        crashes, wrong, failed, reasons = outcomes.verify()
        self.assertEqual(wrong, 0, reasons)


class Generator(unittest.TestCase):
    def test_same_seed_same_deck(self):
        for workload in WORKLOADS.values():
            self.assertEqual(make_deck(workload, 3), make_deck(workload, 3))
            self.assertNotEqual(make_deck(workload, 3), make_deck(workload, 4))

    def test_cli_mix_keeps_zero_denominators(self):
        argv = [r.argv for block in make_deck(WORKLOADS["distance"], 1) for r in block
                if r.part == "cli-mix"]
        self.assertTrue(any(any("/0" in arg for arg in a) for a in argv))

    def test_distance_block_composition(self):
        for block in make_deck(WORKLOADS["distance"], 2):
            parts = [r.part for r in block]
            self.assertEqual({p: parts.count(p) for p in parts},
                             {"cli-mix": 600, "long-period": 40, "long-head": 38})

    def test_long_period_ranges(self):
        for block in make_deck(WORKLOADS["distance"], 2):
            for r in block:
                if r.part != "long-period":
                    continue
                p, q = (len(s.period) for s in r.sets)
                self.assertTrue(p <= 127 and q <= 113)
                self.assertTrue(all(s.infinite for s in r.sets))


class Definition(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_report(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        reported = run.end_to_end(WORKLOADS["check"], [0.001] * 40, 1.0, [0.1])
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         {name: m["unit"] for name, m in reported.items()})
        traced = dict(tracer.per_layer_names(), **{"trace.overhead_pct": "%"},
                      **{name: "ms" for name in run.scaling_names()})
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, traced)


class PaceScaling(unittest.TestCase):
    def test_factor_comes_from_the_chunks_around_a_request(self):
        pace = run.Pace()
        pace.times = [run.PACE_REF_S, 2 * run.PACE_REF_S, 3 * run.PACE_REF_S]
        self.assertAlmostEqual(pace.scale(), 0.5)
        self.assertAlmostEqual(pace.at(0), 1.0)  # before the first chunk: only chunk 0
        self.assertAlmostEqual(pace.at(1), 1 / 1.5)  # between chunks 0 and 1
        self.assertAlmostEqual(pace.at(3), 1 / 3)  # after the last chunk: only chunk 2

    def test_chunks_stay_out_of_loop_time(self):
        pace = run.Pace()
        pace.tick(force=True)
        pace.tick()  # too soon after the last chunk: no chunk
        self.assertEqual(len(pace.times), 1)
        self.assertGreater(pace.spent, 0)

    def test_set_up_lies_between_two_chunks(self):
        loaded = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "afideals"}
        pace, setups = run.Pace(), []
        try:
            run.set_up(WORKLOADS["distance"], setups, pace)
        finally:  # set_up imports afideals afresh; the other tests hold the first import
            sys.modules.update(loaded)
        self.assertEqual(len(pace.times), 2)
        self.assertEqual(setups[0][1], 1)


class Tracing(unittest.TestCase):
    def test_wraps_names_imported_elsewhere_and_restores_them(self):
        package = {name: sys.modules[f"afideals.{name}"] for name in run.MODULES}
        package["afideals"] = sys.modules["afideals"]
        original = package["cli"].d_phi
        trace = tracer.Tracer()
        trace.install(package)
        try:
            self.assertIsNot(package["cli"].d_phi, original)
            self.assertIs(package["cli"].d_phi, package["metrics"].d_phi)
            run.call(cli, distance_request())
        finally:
            trace.uninstall()
        self.assertIs(package["cli"].d_phi, original)
        self.assertEqual(trace.missing, [])
        self.assertEqual(trace.calls["metrics.d_phi"], 1)
        self.assertGreater(trace.calls["exact.BinaryWord.bit"], 0)
        self.assertGreater(trace.self_s["cli.build_parser"], 0)


if __name__ == "__main__":
    unittest.main()
