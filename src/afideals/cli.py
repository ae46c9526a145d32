"""Command-line front end.

Subcommands: distance, paper-table, descriptor, diagram, check.
All numeric output is exact-rational text; `--decimal N` adds a clearly
labeled approximate column.  Exit codes: 0 ok, 1 usage or parse error,
2 suite failure, 3 domain error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction

from .bratteli import qi_diagram, to_finite
from .metrics import (
    MalformedComparisonError,
    d_beta,
    d_beta_truncated,
    d_phi,
    descriptor,
    descriptors,
    settles,
)
from .qi import DescriptorConventionError, EmptySetError, clip, hausdorff, parse_closed_set


def _lazy_import(name: str):
    """The module `name`, whose body runs on its first attribute access.

    An entry already in sys.modules is returned as it is, so whoever imported
    the module first and `cli` share one module object.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)
        spec.loader.exec_module(module)
    return module


# Only `check` runs the suites, so the other commands never compile them.  The
# module is registered now rather than imported inside cmd_check because
# benchmarks/run.py looks it up in sys.modules after importing only `cli`.
checks = _lazy_import(f"{__package__}.checks")

# qi_diagram builds O(depth**2) edges, 0.25-0.38 s at this depth (in-process,
# best of 3), so larger depths are refused rather than left to run; a
# truncated d_beta at this depth takes 0.03-0.06 ms (best of 5 x 100).
# Python 3.11.7 on 2 shared x86_64 vCPUs; the ranges are the host's drift.
MAX_DEPTH = 1024

# The decimal column goes through str(), which converts at most 4300 digits
# of an int, so larger digit counts are refused.
MAX_DECIMAL = 1000

# argparse messages that echo an argument whole (an unrecognized or ambiguous
# option, a value for a flag) keep their start and length past this length,
# so no error line passes 200 characters.
MAX_MESSAGE = 192

_DOMAIN_ERRORS = (EmptySetError, MalformedComparisonError, DescriptorConventionError)


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if len(message) > MAX_MESSAGE:
            message = f"{message[:MAX_MESSAGE - 32]}... ({len(message)} characters)"
        raise CliUsageError(message)

    def _check_value(self, action, value):
        # argparse's check, echoing a long rejected choice clipped
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {clip(value)} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _int(text: str) -> int:
    """int() for argparse, echoing a long rejected value clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)}") from None


def _decimal(x: Fraction, digits: int) -> str:
    """x >= 0 truncated to `digits` decimal places."""
    scaled = x.numerator * 10**digits // x.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{whole}.{str(frac).zfill(digits)}" if digits else str(whole)


def _parse_set(text: str):
    try:
        return parse_closed_set(text)
    except ValueError as exc:
        raise CliUsageError(str(exc))


def cmd_distance(args) -> int:
    a = _parse_set(args.set_a)
    b = _parse_set(args.set_b)
    results = {}
    if args.metric in ("hausdorff", "all"):
        results["hausdorff"] = hausdorff(a, b)
    if args.metric in ("phi", "beta", "all"):
        di, dj = descriptors(a, b, args.convention)
        if args.metric in ("phi", "all"):
            results["phi"] = d_phi(di, dj)
        if args.metric in ("beta", "all"):
            # d_beta is exact for every pair, but when D never settles its
            # numerator can pass the 4300 digits str() converts, so print the
            # depth-N interval instead.
            if settles(di, dj):
                results["beta"] = d_beta(di, dj)
            else:
                results["beta"] = d_beta_truncated(di, dj, args.depth)
    out = {}
    for name, value in results.items():
        out[name] = str(value)
        if args.decimal is not None and isinstance(value, Fraction):
            out[f"{name}_decimal"] = _decimal(value, args.decimal)
    if args.json:
        print(json.dumps(out))
    else:
        for name, value in out.items():
            print(f"{name}: {value}")
    return 0


# The two published comparison rows as printed: m, n, k, then d_hausdorff,
# d_phi and d_beta.
_PAPER_ROWS = (
    (1, 2, 1, "3/8", "1/4", "37/128"),
    (1, 2, 2, "7/16", "1/4", "145/512"),
)


def cmd_paper_table(args) -> int:
    """The two published comparison rows, printed as the paper prints them.

    The rows are data, not computed: d_phi and d_beta follow from the
    published closed forms (see `metrics`), and d_hausdorff is `hausdorff`
    of the two sets.  Definition-level evaluation of d_beta over the
    published level sets gives 21/128 and 81/512 instead; `distance
    --convention paper` reports those.
    """
    names = ("m", "n", "k", "d_hausdorff", "d_phi", "d_beta")
    if args.json:
        print(json.dumps([dict(zip(names, row)) for row in _PAPER_ROWS]))
    else:
        for row in (names, *_PAPER_ROWS):
            print(*row)
    return 0


def _format_set(s) -> str:
    return "{" + ",".join(str(k) for k in sorted(s)) + "}"


def cmd_descriptor(args) -> int:
    e = descriptor(_parse_set(args.set), args.convention)
    sets = to_finite(e, args.depth).all_sets
    levels = {p: _format_set(s) for p, s in enumerate(sets, 1)}
    if args.json:
        print(json.dumps({str(p): v for p, v in levels.items()}))
    else:
        for p, v in levels.items():
            print(f"u_{p} = {v}")
    return 0


def cmd_diagram(args) -> int:
    d = qi_diagram(args.depth)
    if args.dot:
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        for n in range(1, d.depth + 1):
            for k in range(1, d.width(n) + 1):
                lines.append(f'  "v{n}_{k}";')
        for n in range(1, d.depth):
            for (k, j), m in sorted(d.edges(n).items()):
                lines.append(f'  "v{n}_{k}" -> "v{n + 1}_{j}" [label="{m}"];')
        lines.append("}")
    else:
        lines = []
        for n in range(1, d.depth + 1):
            lines.append("dims: " + " ".join(map(str, d.dims(n))))
            if n < d.depth:
                edges = sorted(d.edges(n).items())
                lines.append("edges: " + " ".join(f"{k}>{j}:{m}" for (k, j), m in edges))
    print("\n".join(lines))
    return 0


def cmd_check(args) -> int:
    transcript, ok = checks.run_check(args.seed)
    sys.stdout.write(transcript)
    return 0 if ok else 2


# Options that several subcommands take, each as a name and its add_argument
# keywords.
_CONVENTION = ("--convention", {"choices": ("paper", "derived"), "default": "derived"})
_DEPTH = ("--depth", {"type": _int, "default": 32})
_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of text"})

# Each subcommand: its line in the top-level --help, its handler, and its
# arguments in --help order.
_COMMANDS = {
    "distance": ("metric distances between two closed sets' ideals", cmd_distance, (
        _CONVENTION,
        ("--depth", {**_DEPTH[1], "help": "levels summed when beta is printed as an interval "
                                          "[S_N, S_N + 2^-N], because the excluded words "
                                          "never agree"}),
        _JSON,
        ("--metric", {"choices": ("phi", "beta", "hausdorff", "all"), "default": "all"}),
        ("--decimal", {"type": _int, "metavar": "N",
                       "help": "add an approximate decimal column with N digits"}),
        ("set_a", {}),
        ("set_b", {}),
    )),
    "paper-table": ("reproduce the two published comparison rows", cmd_paper_table, (_JSON,)),
    "descriptor": ("print level index sets of a closed set's ideal", cmd_descriptor,
                   (_CONVENTION, _DEPTH, _JSON, ("set", {}))),
    "diagram": ("emit the quantized-interval diagram", cmd_diagram,
                (_DEPTH, ("--dot", {"action": "store_true",
                                    "help": "emit DOT for external rendering"}))),
    "check": ("run the seeded randomized invariant suites", cmd_check,
              (("--seed", {"type": _int, "default": 0}),)),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser, built from `_COMMANDS`: every subcommand is listed,
    but only `command`'s gets -h and its arguments; the others are bare
    entries, built without either.

    `_run` passes the line's first token that names a subcommand, or None,
    and no other entry can be reached.  argparse hands the rest of the line
    to the entry its first positional token names, and refuses the line when
    that token names none.  Every token before it starts with "-" (the top
    level has no option that takes a value), as no subcommand name does, so
    that entry is the first one the line names.  The invalid-choice message
    reads the names, and the top-level --help the help lines, from the
    subparsers action, never from the entries themselves.
    """
    parser = _Parser(prog="afideals", description=__doc__)
    # argparse would format the top-level usage without positionals to get
    # this prefix of the subcommands' progs.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            for argument, keywords in arguments:
                p.add_argument(argument, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        # Flushed here, so that a reader who closed the pipe early is met in
        # this block and not by the interpreter's own flush at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The SIGPIPE recipe of the `signal` docs: send what is left of stdout
        # to devnull, so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE.  The devnull file is closed once copied,
        # since main returns to its caller rather than exiting.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code


def _run(argv: list) -> int:
    try:
        args = build_parser(next((t for t in argv if t in _COMMANDS), None)).parse_args(argv)
        if not 1 <= getattr(args, "depth", 1) <= MAX_DEPTH:
            raise CliUsageError(
                f"depth must be between 1 and {MAX_DEPTH}, got {clip(str(args.depth), str)}")
        decimal = getattr(args, "decimal", None)
        if decimal is not None and not 0 <= decimal <= MAX_DECIMAL:
            bound = "at least 0" if decimal < 0 else f"at most {MAX_DECIMAL}"
            raise CliUsageError(f"--decimal must be {bound}, got {clip(str(decimal), str)}")
        return _COMMANDS[args.command][1](args)
    except SystemExit as shown:
        # argparse ends with SystemExit after printing --help; main returns
        # its code instead.  Only --help gets here: _Parser.error raises
        # first, and there is no --version.
        return shown.code
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
