import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import afideals
from afideals import cli
from afideals.bratteli import level_set
from afideals.cli import MAX_DEPTH, CliUsageError, build_parser, main
from afideals.metrics import d_beta, descriptor
from afideals.qi import MAX_LITERAL_BITS, hausdorff, ideal_of_closed_set, parse_closed_set
import pins
from test_cli_fuzz import random_argv

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
    ], ids=[
        # Frozen as first generated from the parameters, messages included, so
        # that rewording a message no longer renames a test.
        "1/2,0-1/4,1/8-error: first set must be a singleton {2**-m}\n",
        "1/2-1/4,0-error: second set must be a pair {2**-n, 2**-(n+k)}\n",
        "head=;period=01-1/4,1/8-error: first set must be a singleton {2**-m}\n",
        "1/2-head=;period=01-error: second set must be a pair {2**-n, 2**-(n+k)}\n",
        "1/2,1/4,1/8-1/4,1/8-error: first set must be a singleton {2**-m} with m >= 1\n",
        "1/2-1/2,1/4,1/8-error: second set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1\n",
        "1-1/4,1/8-error: first set must be a singleton {2**-m} with m >= 1\n",
        "1/2-1,1/4-error: second set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1\n",
    ])
    def test_paper_convention_shapes(self, capsys, a, b, err):
        assert run(capsys, "distance", "--convention", "paper", a, b) == (3, "", err)


class TestLiteralCap:
    AT_CAP = (
        "head=" + "0" * (MAX_LITERAL_BITS - 1) + "1;period=",
        "head=" + "0" * 1000 + ";period=1" + "0" * (MAX_LITERAL_BITS - 1001),
        "1/" + str(2 ** (MAX_LITERAL_BITS - 1)),
    )
    # Output of test_coprime_periods_at_cap_hausdorff's request as the
    # tuple-backed words printed it after a 2 s scan over the lcm of the two
    # periods, pinned as text rather than recomputed.
    CAP_HAUSDORFF_NUMERATOR = (
        "3155957624151465556710437176627924996137119401339402737512729045656704603405"
        "0674700387892003440345179383513633712791034662226131982901290131922023814890"
        "9014849910911790048789958498024906148946355430250374844409846453049010181833"
        "5562679501400241813522517738852737920414344489833158307207871831288976946326"
        "7111244466200847990645200170690004462397320484409498361384841607089190455266"
        "3168557755373619070939229655526793005063104075757796397971695760785192359504"
        "2313206174523992647541036105972373215520637057585795173892255657719335670737"
        "5975232632348795302184897991798960384013285786443826762648582220269388292050"
        "386943"
    )
    CAP_HAUSDORFF_DENOMINATOR = (
        "6311915248302931113420874353255849992274238802678805475025458091313409206810"
        "1349400775784006880690358767027267425582069324452263965802580263844047629781"
        "8029699821823580097579916996049812297892710860500749688819692906098020363667"
        "1125359002800483627045035477705475840828688979666316614415743662577953892653"
        "4222488932401695981290400341380008924794640968818996722769683214178380910532"
        "6337115510747238141878459311053586010126208151515592795943391521570384719008"
        "4626412349047985295082072211944746431041274115171590347784511315438671341475"
        "1950465264697590604369795983597920768026571572887653525297164440538776584100"
        "773888"
    )

    def test_at_cap_gives_all_metrics(self, capsys):
        for literal in self.AT_CAP:
            code, out, err = run(capsys, "distance", literal, "0")
            assert (code, err) == (0, "")
            assert [line.split(":")[0] for line in out.splitlines()] == ["hausdorff", "phi", "beta"]

    def test_coprime_periods_at_cap_hausdorff(self, capsys):
        # Periods 2039 and 2029: the first point of the first set outside the
        # second comes after about 3.7 million positions, inside their lcm.
        a = "head=;period=1" + "0" * 2038
        b = "head=;period=" + "1" * 2028 + "0"
        assert len(a) - len("head=;period=") == 2039
        code, out, err = run(capsys, "distance", "--metric", "hausdorff", a, b)
        assert (code, err) == (0, "")
        assert out == (f"hausdorff: {self.CAP_HAUSDORFF_NUMERATOR}"
                       f"/{self.CAP_HAUSDORFF_DENOMINATOR}\n")

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

    def test_json_rows_follow_the_published_forms(self, capsys):
        # The rows are printed as data; each must be what the published
        # forms give: d_phi = 2**-(min(m,n)+1) and
        # d_beta = (4**-(n+k) + 2**-m + 4**-n) / 2, with d_hausdorff the
        # distance between {2**-m} and {2**-n, 2**-(n+k)}.
        code, out, _ = run(capsys, "paper-table", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [(r["m"], r["n"], r["k"]) for r in rows] == [(1, 2, 1), (1, 2, 2)]
        for r in rows:
            m, n, k = r["m"], r["n"], r["k"]
            singleton = parse_closed_set(f"1/{2 ** m}")
            pair = parse_closed_set(f"1/{2 ** n},1/{2 ** (n + k)}")
            assert Fraction(r["d_phi"]) == Fraction(1, 2 ** (min(m, n) + 1))
            assert Fraction(r["d_beta"]) == (
                Fraction(1, 4 ** (n + k)) + Fraction(1, 2 ** m) + Fraction(1, 4 ** n)) / 2
            assert Fraction(r["d_hausdorff"]) == hausdorff(singleton, pair)


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

    @pytest.mark.parametrize("convention, literal", [
        ("derived", "head=0110;period=101"), ("derived", "1,1/2,1/8"), ("derived", ""),
        ("derived", "head=11;period=;zero=1"), ("paper", "1/4"), ("paper", "1/2,1/8"),
    ])
    def test_levels_match_level_set(self, capsys, convention, literal):
        # the command reads all levels from one to_finite; level_set reads each alone
        e = descriptor(parse_closed_set(literal), convention)
        for depth in (1, 9, 40):
            code, out, err = run(capsys, "descriptor", "--json", "--convention", convention,
                                 "--depth", str(depth), literal)
            assert (code, err) == (0, "")
            assert json.loads(out) == {
                str(p): "{" + ",".join(map(str, sorted(level_set(e, p)))) + "}"
                for p in range(1, depth + 1)}

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
    ], ids=[
        # Frozen as first generated, like TestDistance's.
        "0-error: paper convention covers only singletons and pairs of isolated points\n",
        "1/2,0-error: paper convention covers only singletons and pairs of isolated points\n",
        "head=;period=01-error: paper convention covers only singletons and pairs of isolated "
        "points\n",
        "1/2,1/4,1/8-error: paper convention covers only singletons and pairs of isolated "
        "points\n",
        "1-error: set must be a singleton {2**-m} with m >= 1\n",
        "1,1/4-error: set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1\n",
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

    def test_rejects_depth_above_cap(self, capsys):
        # Rejected before any diagram is built, so this stays fast.
        code, out, err = run(capsys, "diagram", "--depth", str(MAX_DEPTH + 1))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(MAX_DEPTH) in err


class TestCheck:
    def test_deterministic_pass(self, capsys):
        code1, out1, _ = run(capsys, "check", "--seed", "7")
        code2, out2, _ = run(capsys, "check", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: all suites passed" in out1
        assert out1.count("PASS") == 7


# Runs each command of argv[2] in one fresh interpreter, after importing
# `afideals.checks` first when argv[1] says so, and reports how many times
# checks.py had executed after each.  The "exec" audit event fires for every
# module body, whether or not a .pyc exists.
PROBE = """
import contextlib, io, json, os, sys
executed = []
def record(event, args):
    if event == "exec":
        executed.append(getattr(args[0], "co_filename", ""))
sys.addaudithook(record)
first = None
if sys.argv[1] == "checks-first":
    from afideals import checks as first
import afideals.cli
report = {
    "registered": "afideals.checks" in sys.modules,
    "shared": afideals.cli.checks is sys.modules.get("afideals.checks")
              is getattr(afideals, "checks", None)
              and (first is None or first is afideals.cli.checks),
    "runs": [],
}
suites = os.path.join("afideals", "checks.py")
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = afideals.cli.main(argv)
    report["runs"].append([rc, sum(name.endswith(suites) for name in executed)])
print(json.dumps(report))
"""


class TestLazyChecks:
    """`cli` registers `afideals.checks` in sys.modules and as the package's
    attribute, as an import would, without running it (benchmarks/run.py
    looks it up there), and only `check` runs it."""

    def probe(self, order, commands):
        env = {**os.environ, "PYTHONPATH": str(Path(afideals.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", PROBE, order, json.dumps(commands)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_only_check_executes_the_suites(self):
        report = self.probe("cli-first", [
            ["distance", "1/2", "1/4,1/8"], ["descriptor", "1/2"], ["diagram", "--depth", "3"],
            ["paper-table"], ["check", "--seed", "1"]])
        assert report["registered"] and report["shared"]
        assert report["runs"] == [[0, 0]] * 4 + [[0, 1]]

    def test_cli_keeps_a_module_imported_before_it(self):
        # A replaced entry would load the suites twice, and a test patching
        # the first module object would not reach the one `check` runs.
        report = self.probe("checks-first", [["check", "--seed", "1"]])
        assert report["registered"] and report["shared"]
        assert report["runs"] == [[0, 1]]


# What the `afideals` console script runs.
ENTRY = "import sys; from afideals.cli import main; sys.exit(main())"


class TestClosedPipe:
    """A reader that stops after the first line ends the command quietly:
    exit 1, as Python exits on EPIPE, with nothing on stderr."""

    @pytest.mark.parametrize("argv, first", [
        (["descriptor", "--depth", "1024", "1/2"], b"u_1 = {}\n"),
        (["diagram", "--depth", "1024", "--dot"], b"digraph bratteli {\n"),
    ], ids=["descriptor", "diagram-dot"])
    def test_exits_quietly(self, argv, first):
        env = {**os.environ, "PYTHONPATH": str(Path(afideals.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (line, proc.returncode, err) == (first, 1, b"")

    def test_in_process_calls_keep_no_descriptor(self):
        # main returns after a closed pipe, so whatever it opens to quiet
        # stdout must be closed again: three calls, each into a fresh pipe
        # whose reader is gone, leave the lowest free descriptor where it was.
        def lowest_free():
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        saved = os.dup(1)
        try:
            before = lowest_free()
            codes = []
            for _ in range(3):
                read, write = os.pipe()
                os.close(read)
                os.dup2(write, 1)
                os.close(write)
                with open(1, "w", closefd=False) as out, contextlib.redirect_stdout(out):
                    codes.append(main(["diagram", "--depth", "200", "--dot"]))
            after = lowest_free()
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        assert (codes, after) == ([1, 1, 1], before)


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "distance", "--bogus", "1", "1/2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [["-h"], ["distance", "--help"], ["check", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        # argparse ends the process after --help; main returns its code instead.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: afideals")

    def test_no_hidden_options(self):
        # A test hook hidden from --help would still ship in the CLI.
        def parsers(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from parsers(sub)

        hidden = [(p.prog, a.option_strings or a.dest)
                  for command in [*cli._COMMANDS, None] for p in parsers(build_parser(command))
                  for a in p._actions if a.help == argparse.SUPPRESS]
        assert hidden == []

    @pytest.mark.parametrize("bare, explicit", [
        (["check"], ["check", "--seed", "0"]),
        (["diagram"], ["diagram", "--depth", "32"]),
        (["descriptor", "1/2"], ["descriptor", "--depth", "32", "1/2"]),
        (["distance", "--metric", "beta", "head=;period=10", ""],
         ["distance", "--metric", "beta", "--depth", "32", "head=;period=10", ""]),
    ], ids=["check", "diagram", "descriptor", "distance"])
    def test_defaults_come_from_the_parser(self, capsys, monkeypatch, bare, explicit):
        # Variables named after the settings are not read: each default is the parser's.
        monkeypatch.setenv("AFIDEALS_DEPTH", "x")
        monkeypatch.setenv("AFIDEALS_SEED", "x")
        assert run(capsys, *bare) == run(capsys, *explicit)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # main picks the subcommand to build from sys.argv when given no argv
        monkeypatch.setattr(sys, "argv", ["afideals", "distance", "1/2", "1/4,1/8"])
        code = main()
        assert (code, *capsys.readouterr()) == run(capsys, "distance", "1/2", "1/4,1/8")
        assert code == 0


def subcommands(parser) -> dict:
    """The top-level parser's subcommand parsers by name."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(parser) -> tuple:
    """What a parser accepts: each action's attributes and the defaults, with
    `func` by name."""
    actions = [(a.option_strings, a.dest, a.default, a.type, a.choices, a.metavar, a.help)
               for a in parser._actions]
    defaults = {k: getattr(v, "__name__", v) for k, v in parser._defaults.items()}
    return actions, defaults


def full_parser() -> argparse.ArgumentParser:
    """The reference parser: build_parser's top level with all five
    subcommands given -h and their arguments from `cli._COMMANDS`."""
    parser = cli._Parser(prog="afideals", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (text, _, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
    return parser


def first_command(argv):
    """The first token of argv that names a subcommand, or None: the
    subcommand `cli.main` gives -h and its arguments."""
    return next((token for token in argv if token in cli._COMMANDS), None)


def outcome(parser, argv) -> tuple:
    """The parsed namespace (`func` by name), the usage error, or --help's
    exit code and text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except CliUsageError as exc:
        return "error", str(exc)
    except SystemExit as shown:
        return "help", shown.code, out.getvalue()
    return "args", {k: getattr(v, "__name__", v) for k, v in vars(args).items()}


class TestNamedParser:
    """build_parser(command) gives -h and options only to `command`'s
    subcommand; these compare it with full_parser(), which gives them to all."""

    @pytest.mark.parametrize("name", list(subcommands(build_parser())))
    def test_named_subcommand_keeps_every_option(self, name):
        full, named = full_parser(), build_parser(name)
        assert options(subcommands(named)[name]) == options(subcommands(full)[name])
        assert list(subcommands(named)) == list(subcommands(full))
        assert ({n: p.prog for n, p in subcommands(named).items()}
                == {n: p.prog for n, p in subcommands(full).items()})
        assert named.format_help() == full.format_help()

    def test_unnamed_subcommands_get_no_options(self):
        # Each entry the line does not name is bare: no action, not even -h,
        # and no defaults.  A line that names none gets five bare entries.
        names = list(subcommands(full_parser()))
        for name in [*names, None]:
            others = [p for n, p in subcommands(build_parser(name)).items() if n != name]
            assert len(others) == len(names) - (name is not None)
            assert all(p._actions == [] and p._defaults == {} for p in others), name

    def test_first_token_parser_parses_like_the_full_one(self):
        golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
        rng = random.Random(2049)
        # A later token names another subcommand or asks for help: the lines
        # that would reach a bare entry if argparse handed them on.
        explicit = [
            ["check", "distance", "-h"], ["distance", "check", "-h"], ["diagram", "--", "-h"],
            ["paper-table", "--help", "check"], ["descriptor", "diagram", "-h"],
            ["distance", "1/2", "descriptor", "--help"], ["diagram", "-h", "distance"],
            ["check", "--seed", "1", "paper-table", "-h"], ["paper-table", "--", "check", "-h"],
            ["descriptor", "--", "distance", "--help"], ["distance", "paper-table", "check"],
            # Something before the first subcommand name: an option, `--`,
            # a typo, -h or a negative number.
            ["-x", "distance", "1/2", "1/4"], ["--json", "paper-table"],
            ["--", "distance", "1/2", "1/4"], ["typo", "distance", "1/2", "1/4"],
            ["-h", "distance"], ["-x", "check", "--seed", "3"], ["-1", "distance"],
        ]
        lines = ([case["argv"] for case in golden] + explicit
                 + [random_argv(rng) for _ in range(500)])
        # the fuzzer's edits put an option, a set or a typo first in some lines
        assert any(a and a[0] not in cli._COMMANDS for a in lines)
        for argv in lines:
            named = build_parser(first_command(argv))
            assert outcome(named, argv) == outcome(full_parser(), argv), [a[:40] for a in argv]

    @pytest.mark.parametrize("argv, command", [
        ([], None), (["distance", "1/2", "1/4"], "distance"), (["-h"], None),
        (["-x", "distance", "1/2", "1/4"], "distance"), (["--", "check"], "check"),
        (["typo", "diagram", "check"], "diagram"), (["--json", "paper-table", "check"], "paper-table"),
    ])
    def test_main_names_the_first_subcommand_token(self, capsys, monkeypatch, argv, command):
        named = []
        monkeypatch.setattr(cli, "build_parser", lambda name: named.append(name)
                            or build_parser(name))
        main(argv)
        assert named == [command]


# Runs each argv of argv[1] as pins.capture does, after dropping every
# afideals module and pins (which holds cli.main), so that each call meets a
# freshly imported afideals.cli.
FRESH = """
import importlib, json, sys
records = []
for argv in json.loads(sys.argv[1]):
    for name in [n for n in sys.modules if n == "pins" or n.split(".")[0] == "afideals"]:
        del sys.modules[name]
    records.append(importlib.import_module("pins").capture(argv))
print(json.dumps(records))
"""

# A success, a usage error, --help, a domain error, the other four
# subcommands, the top-level -h, a first-token typo, an unknown option before
# the subcommand, then the first success again.
SEQUENCE = (
    (["distance", "1/2", "1/4,1/8"], 0),
    (["distance", "1/3", "1/2"], 1),
    (["distance", "--help"], 0),
    (["distance", "", "1/2"], 3),
    (["paper-table", "--json"], 0),
    (["descriptor", "--depth", "6", "--convention", "paper", "1/4,1/8"], 0),
    (["diagram", "--depth", "3", "--dot"], 0),
    (["check", "--seed", "1"], 0),
    (["-h"], 0),
    (["distnace", "1/2", "1/4,1/8"], 1),
    (["-x", "check", "--seed", "1"], 1),
    (["distance", "1/2", "1/4,1/8"], 0),
)


class TestRepeatedMain:
    """One process's cli.main answers each line as a fresh import does, so
    nothing a request leaves behind reaches the next."""

    def test_sequence_matches_fresh_imports(self):
        argvs = [argv for argv, _ in SEQUENCE]
        here = [pins.capture(argv) for argv in argvs]
        assert [record["rc"] for record in here] == [rc for _, rc in SEQUENCE]
        tests = Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(afideals.__file__).parents[1]), str(tests)])}
        done = subprocess.run([sys.executable, "-c", FRESH, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert here == json.loads(done.stdout)


class TestLongValues:
    """An option value is echoed whole only while short; a long one is shown
    by its start and length, so no error line passes 200 characters."""

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

    def test_long_argparse_messages_keep_their_start(self, capsys):
        code, out, err = run(capsys, "distance", "--json=" + "1" * 3000, "1/2", "1/4")
        assert (code, out) == (1, "")
        assert err == ("error: argument --json: ignored explicit argument '" + "1" * 116
                       + "... (3045 characters)\n")
        code, out, err = run(capsys, "distance", "1/2", "1/4", *(f"x{i}" for i in range(2000)))
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 ")
        assert err.endswith("... (10913 characters)\n") and len(err) <= 201

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
