import json
import tracemalloc
from fractions import Fraction

import pytest

from afideals.cli import MAX_DEPTH, main
from afideals.metrics import d_beta
from afideals.qi import MAX_LITERAL_BITS, ideal_of_closed_set, parse_closed_set

COVERS = "error: paper convention covers only singletons and pairs of isolated points\n"
SINGLETON = "error: first set must be a singleton {2**-m}\n"
SINGLETON_M = "error: first set must be a singleton {2**-m} with m >= 1\n"
PAIR = "error: second set must be a pair {2**-n, 2**-(n+k)}\n"
PAIR_NK = "error: second set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1\n"
ONE_SINGLETON_M = "error: set must be a singleton {2**-m} with m >= 1\n"
ONE_PAIR_NK = "error: set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1\n"
NINES = "9" * 5000  # past the 4300 digits int() reads
BIG = "9" * 4000  # an int, far out of range


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

    def test_decimal_above_cap_rejected(self, capsys):
        # 5000 digits would pass the 4300 digits str() converts from an int
        code, out, err = run(capsys, "distance", "--decimal", "5000", "1/2", "1/4")
        assert (code, out) == (1, "")
        assert err == "error: --decimal must be at most 1000, got 5000\n"
        code, out, err = run(capsys, "distance", "--json", "--decimal", "1000",
                             "--metric", "phi", "1/2", "1/4,1/8")
        assert (code, err) == (0, "")
        assert json.loads(out)["phi_decimal"] == "0.125" + "0" * 997

    @pytest.mark.parametrize("a, b, err", [
        ("1/2,0", "1/4,1/8", SINGLETON),
        ("1/2", "1/4,0", PAIR),
        ("head=;period=01", "1/4,1/8", SINGLETON),
        ("1/2", "head=;period=01", PAIR),
        ("1/2,1/4,1/8", "1/4,1/8", SINGLETON_M),
        ("1/2", "1/2,1/4,1/8", PAIR_NK),
        ("1", "1/4,1/8", SINGLETON_M),
        ("1/2", "1,1/4", PAIR_NK),
    ])
    def test_paper_convention_shapes(self, capsys, a, b, err):
        assert run(capsys, "distance", "--convention", "paper", a, b) == (3, "", err)


class TestLiteralCap:
    AT_CAP = (
        "head=" + "0" * (MAX_LITERAL_BITS - 1) + "1;period=",
        "head=" + "0" * 1000 + ";period=1" + "0" * (MAX_LITERAL_BITS - 1001),
        "1/" + str(2 ** (MAX_LITERAL_BITS - 1)),
    )

    def test_at_cap_gives_all_metrics(self, capsys):
        for literal in self.AT_CAP:
            code, out, err = run(capsys, "distance", literal, "0")
            assert (code, err) == (0, "")
            assert [line.split(":")[0] for line in out.splitlines()] == ["hausdorff", "phi", "beta"]

    def test_over_cap_is_usage_error(self, capsys):
        over = MAX_LITERAL_BITS + 1
        for literal in ("head=" + "0" * (over - 1) + "1;period=",
                        "head=0;period=1" + "0" * (over - 2),
                        "1/2,1/" + str(2 ** (over - 1))):
            code, out, err = run(capsys, "distance", "1/2", literal)
            assert (code, out) == (1, "")
            assert err == (f"error: closed-set literal needs {over} bits, "
                           f"more than the {MAX_LITERAL_BITS} allowed\n")

    def test_token_past_int_digit_limit_is_short_usage_error(self, capsys):
        # int() reads at most 4300 digits; such a token is not echoed whole.
        for literal in ("1/1" + "0" * 4300, "1" * 4301 + "/2", "1/2," + "8" * 6000):
            code, out, err = run(capsys, "distance", literal, "0")
            assert (code, out) == (1, "")
            assert err.startswith("error: bad point token: '") and err.count("\n") == 1
            assert len(err) < 200

    def test_token_within_int_digit_limit_is_echoed(self, capsys):
        # echoed by its start and length, like a token past the limit
        literal = "1/" + "3" * 4300
        assert run(capsys, "distance", literal, "0") == (
            1, "", "error: bad point token: '1/3333333333333333333333'... (4302 characters)\n")

    def test_long_bad_literal_is_clipped(self, capsys):
        literal = "head=" + "2" * 4300 + ";period="
        assert run(capsys, "distance", "1/2", literal) == (
            1, "", "error: bad closed-set literal: 'head=2222222222222222222'... (4313 characters)\n")


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

    @pytest.mark.parametrize("literal, err", [
        ("0", COVERS),
        ("1/2,0", COVERS),
        ("head=;period=01", COVERS),
        ("1/2,1/4,1/8", COVERS),
        ("1", ONE_SINGLETON_M),
        ("1,1/4", ONE_PAIR_NK),
    ])
    def test_paper_convention_shapes(self, capsys, literal, err):
        assert run(capsys, "descriptor", "--convention", "paper", literal) == (3, "", err)


class TestDiagram:
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

    def test_env_seed_must_be_int(self, capsys, monkeypatch):
        monkeypatch.setenv("AFIDEALS_SEED", "x")
        assert run(capsys, "check") == (
            1, "", "error: environment variable AFIDEALS_SEED must be an integer, got 'x'\n")

    def test_unused_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("AFIDEALS_DEPTH", "x")
        code, out, err = run(capsys, "paper-table")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "1 2 1 3/8 1/4 37/128"
        # an explicit flag leaves the variable unread as well
        code, out, err = run(capsys, "descriptor", "--depth", "2", "0")
        assert (code, out, err) == (0, "u_1 = {}\nu_2 = {1}\n", "")
        monkeypatch.delenv("AFIDEALS_DEPTH")
        monkeypatch.setenv("AFIDEALS_SEED", "x")
        code, out, err = run(capsys, "distance", "1/2", "1/4,1/8")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["hausdorff: 3/8", "phi: 1/8", "beta: 13/128"]


class TestLongValues:
    """An option or environment value is echoed whole only while short; a long
    one is shown by its start and length, so no error line passes 200 characters."""

    @pytest.mark.parametrize("argv, err", [
        (("distance", "--depth", "abc", "1/2", "1/4"),
         "argument --depth: invalid int value: 'abc'"),
        (("distance", "--decimal", "1.5", "1/2", "1/4"),
         "argument --decimal: invalid int value: '1.5'"),
        (("check", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
        (("distance", "--metric", "xx", "1/2", "1/4"),
         "argument --metric: invalid choice: 'xx' (choose from 'phi', 'beta', 'hausdorff', 'all')"),
        (("distance", "--convention", "xx", "1/2", "1/4"),
         "argument --convention: invalid choice: 'xx' (choose from 'paper', 'derived')"),
        (("bogus",), "argument command: invalid choice: 'bogus' (choose from 'distance', "
                     "'paper-table', 'descriptor', 'diagram', 'check')"),
        (("distance", "1/2", "1/4", "extra"), "unrecognized arguments: extra"),
        (("distance", "--de=3", "1/2", "1/4"), "ambiguous option: --de=3 could match --depth, --decimal"),
        (("distance", "--json=1", "1/2", "1/4"), "argument --json: ignored explicit argument '1'"),
    ])
    def test_short_values_echoed_whole(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("argv, err", [
        (("distance", "--depth", NINES, "1/2", "1/4"),
         "argument --depth: invalid int value: '999999999999999999999999'... (5000 characters)"),
        (("distance", "--decimal", NINES, "1/2", "1/4"),
         "argument --decimal: invalid int value: '999999999999999999999999'... (5000 characters)"),
        (("check", "--seed", NINES),
         "argument --seed: invalid int value: '999999999999999999999999'... (5000 characters)"),
        (("distance", "--depth", BIG, "1/2", "1/4"),
         "depth must be between 1 and 1024, got 999999999999999999999999... (4000 characters)"),
        (("diagram", "--depth", "-" + BIG),
         "depth must be between 1 and 1024, got -99999999999999999999999... (4001 characters)"),
        (("distance", "--decimal", BIG, "1/2", "1/4"),
         "--decimal must be at most 1000, got 999999999999999999999999... (4000 characters)"),
        (("distance", "--metric", "x" * 5000, "1/2", "1/4"),
         "argument --metric: invalid choice: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters) "
         "(choose from 'phi', 'beta', 'hausdorff', 'all')"),
        (("descriptor", "--convention", "x" * 5000, "1/2"),
         "argument --convention: invalid choice: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters) "
         "(choose from 'paper', 'derived')"),
    ], ids=["depth-int", "decimal-int", "seed-int", "depth-range", "depth-negative",
            "decimal-range", "metric-choice", "convention-choice"])
    def test_long_values_clipped(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("name, value, err", [
        ("AFIDEALS_DEPTH", "x", "environment variable AFIDEALS_DEPTH must be an integer, got 'x'"),
        ("AFIDEALS_DEPTH", "x" * 5000, "environment variable AFIDEALS_DEPTH must be an integer, "
                                       "got 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
        ("AFIDEALS_DEPTH", BIG,
         "depth must be between 1 and 1024, got 999999999999999999999999... (4000 characters)"),
        ("AFIDEALS_SEED", NINES, "environment variable AFIDEALS_SEED must be an integer, "
                                 "got '999999999999999999999999'... (5000 characters)"),
    ], ids=["depth-short", "depth-int", "depth-range", "seed-int"])
    def test_environment_values(self, capsys, monkeypatch, name, value, err):
        monkeypatch.setenv(name, value)
        command = "check" if name == "AFIDEALS_SEED" else "diagram"
        assert run(capsys, command) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("argv", [
        ("x" * 5000,),
        ("distance", "1/2", "1/4") + ("extra",) * 2000,
        ("distance", "--de=" + "3" * 5000, "1/2", "1/4"),
        ("distance", "--json=" + "1" * 5000, "1/2", "1/4"),
        ("distance", "--metric", "\x01" * 5000, "1/2", "1/4"),
        ("distance", "--convention", "\udcff" * 5000, "1/2", "1/4"),
        ("distance", "head=;period=" + "\x01" * 5000, "1/2"),
        ("distance", "1/2," + "\U0010ffff" * 5000, "1/2"),
    ], ids=["command", "unrecognized", "ambiguous", "explicit-flag", "control-choice",
            "surrogate-choice", "control-literal", "astral-token"])
    def test_every_error_line_is_short(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201
