import json
import tracemalloc
from fractions import Fraction

import pytest

from afideals.bratteli import parse_diagram, qi_diagram
from afideals.cli import MAX_DEPTH, main
from afideals.metrics import d_beta
from afideals.qi import ideal_of_closed_set, parse_closed_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistance:
    def test_all_metrics_derived(self, capsys):
        code, out, _ = run(capsys, "distance", "1/2", "1/4,1/8")
        assert code == 0
        assert out.splitlines() == ["hausdorff: 3/8", "phi: 1/8", "beta: 13/128"]

    def test_paper_convention_beta(self, capsys):
        code, out, _ = run(capsys, "distance", "--convention", "paper",
                           "--metric", "beta", "1/2", "1/4,1/8")
        assert code == 0
        assert out == "beta: 21/128\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "distance", "--json", "1/2", "1/4,1/16")
        assert code == 0
        assert json.loads(out) == {"hausdorff": "7/16", "phi": "1/8", "beta": "51/512"}

    def test_decimal_column(self, capsys):
        code, out, _ = run(capsys, "distance", "--json", "--decimal", "4",
                           "--metric", "phi", "1/2", "1/4,1/8")
        assert code == 0
        assert json.loads(out) == {"phi": "1/8", "phi_decimal": "0.1250"}

    def test_beta_falls_back_to_interval(self, capsys):
        code, out, _ = run(capsys, "distance", "--metric", "beta", "--depth", "8",
                           "head=;period=10", "")
        assert code == 0
        assert out.startswith("beta: [") and out.rstrip().endswith("]")
        lo, hi = map(Fraction, out.strip()[len("beta: ["):-1].split(", "))
        exact = d_beta(*(ideal_of_closed_set(parse_closed_set(s))
                         for s in ("head=;period=10", "")))
        assert lo <= exact <= hi == lo + Fraction(1, 256)

    def test_long_periods_print_interval(self, capsys):
        # the exact value's numerator has about 8600 digits, past str()'s limit
        a, b = "head=;period=1" + "0" * 126, "head=;period=1" + "0" * 112
        code, out, err = run(capsys, "distance", "--metric", "beta", a, b)
        assert (code, err) == (0, "")
        assert out.startswith("beta: [") and out.rstrip().endswith("]")

    def test_long_head_literal_memory(self, capsys):
        # Level sets built level by level once took O(head**2) memory here.
        literal = "head=" + "0" * 1999 + "1;period="
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "distance", literal, "0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert [line.split(":")[0] for line in out.splitlines()] == ["hausdorff", "phi", "beta"]
        assert peak < 8_000_000

    def test_hausdorff_of_empty_set_is_domain_error(self, capsys):
        code, out, err = run(capsys, "distance", "--metric", "hausdorff", "", "1")
        assert code == 3
        assert "error" in err

    def test_bad_point_is_usage_error(self, capsys):
        for bad in ("1/3", "1/0", "0/0", "1/2,1/0"):
            code, _, err = run(capsys, "distance", bad, "1")
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_decimal_rejected(self, capsys):
        code, out, err = run(capsys, "distance", "--decimal", "-2", "1/2", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "--decimal" in err


class TestPaperTable:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "paper-table")
        assert code == 0
        assert out.splitlines() == [
            "m n k d_hausdorff d_phi d_beta",
            "1 2 1 3/8 1/4 37/128",
            "1 2 2 7/16 1/4 145/512",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "paper-table", "--json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["d_beta"] == "37/128"
        assert rows[1]["d_beta"] == "145/512"


class TestDescriptor:
    def test_derived(self, capsys):
        code, out, _ = run(capsys, "descriptor", "--depth", "3", "1/2")
        assert code == 0
        assert out.splitlines() == ["u_1 = {}", "u_2 = {1}", "u_3 = {1,3}"]

    def test_paper(self, capsys):
        code, out, _ = run(capsys, "descriptor", "--convention", "paper",
                           "--depth", "3", "1/2")
        assert code == 0
        assert out.splitlines() == ["u_1 = {1}", "u_2 = {1}", "u_3 = {1,3}"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "descriptor", "--json", "--depth", "2", "0")
        assert code == 0
        assert json.loads(out) == {"1": "{}", "2": "{1}"}

    def test_paper_rejects_triple(self, capsys):
        code, _, err = run(capsys, "descriptor", "--convention", "paper",
                           "1/2,1/4,1/8")
        assert code == 3
        assert "error" in err


class TestDiagram:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "diagram", "--depth", "4")
        assert code == 0
        assert parse_diagram(out) == qi_diagram(4)

    def test_depth_two_text(self, capsys):
        code, out, _ = run(capsys, "diagram", "--depth", "2")
        assert code == 0
        assert out == "dims: 1\nedges: 1>1:1 1>2:1\ndims: 1 1\n"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "diagram", "--depth", "3", "--dot")
        assert code == 0
        assert out.startswith("digraph") and '"v2_2" -> "v3_3"' in out

    def test_rejects_zero_depth(self, capsys):
        code, _, err = run(capsys, "diagram", "--depth", "0")
        assert code == 1
        assert "error" in err

    def test_rejects_depth_above_cap(self, capsys, monkeypatch):
        # Rejected before any diagram is built, so this stays fast.
        code, out, err = run(capsys, "diagram", "--depth", str(MAX_DEPTH + 1))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(MAX_DEPTH) in err
        monkeypatch.setenv("AFIDEALS_DEPTH", "100000")
        code, out, err = run(capsys, "diagram")
        assert (code, out) == (1, "")
        assert err.startswith("error:")


class TestCheck:
    def test_deterministic_pass(self, capsys):
        code1, out1, _ = run(capsys, "check", "--seed", "7")
        code2, out2, _ = run(capsys, "check", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: all suites passed" in out1
        assert out1.count("PASS") == 7

    def test_injected_failure(self, capsys):
        code, out, _ = run(capsys, "check", "--seed", "7", "--inject-failure")
        assert code == 2
        assert "FAIL" in out


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "distance", "--bogus", "1", "1/2")
        assert code == 1
        assert "error" in err

    def test_env_depth_override(self, capsys, monkeypatch):
        monkeypatch.setenv("AFIDEALS_DEPTH", "2")
        code, out, _ = run(capsys, "descriptor", "0")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_env_depth_must_be_int(self, capsys, monkeypatch):
        monkeypatch.setenv("AFIDEALS_DEPTH", "two")
        code, _, err = run(capsys, "diagram")
        assert code == 1
        assert "AFIDEALS_DEPTH" in err
