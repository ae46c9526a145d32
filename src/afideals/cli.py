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

from .bratteli import qi_diagram, serialize_diagram, to_finite
from .metrics import (
    MalformedComparisonError,
    closed_form_dbeta,
    closed_form_dhausdorff,
    closed_form_dphi,
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

# qi_diagram builds O(depth**2) edges, about 0.4 s at this depth, so larger
# depths are refused rather than left to run; a truncated d_beta at this
# depth takes about 0.5 ms (best of 5, Python 3.11, shared 2-vCPU host).
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


class _HelpShown(Exception):
    """--help has printed; args[0] is the exit code argparse would end with."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if len(message) > MAX_MESSAGE:
            message = f"{message[:MAX_MESSAGE - 32]}... ({len(message)} characters)"
        raise CliUsageError(message)

    def exit(self, status=0, message=None):
        # argparse ends the process here after --help; main returns the code
        # instead.  Only --help gets here: error() above raises first, and
        # there is no --version.
        raise _HelpShown(status)

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


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise CliUsageError(f"environment variable {name} must be an integer, got {clip(raw)}")


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


_PAPER_ROWS = ((1, 2, 1), (1, 2, 2))


def cmd_paper_table(args) -> int:
    """The two published comparison rows, from the published closed forms.

    Note: definition-level evaluation of d_beta over the published level
    sets gives 21/128 and 81/512 instead; `distance --convention paper`
    reports those.  This command reproduces the publication as printed.
    """
    rows = [{"m": m, "n": n, "k": k,
             "d_hausdorff": str(closed_form_dhausdorff(m, n, k)),
             "d_phi": str(closed_form_dphi(m, n, k)),
             "d_beta": str(closed_form_dbeta(m, n, k))}
            for m, n, k in _PAPER_ROWS]
    if args.json:
        print(json.dumps(rows))
    else:
        print(*rows[0])  # the column names
        for r in rows:
            print(*r.values())
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
        print("\n".join(lines))
    else:
        sys.stdout.write(serialize_diagram(d))
    return 0


def cmd_check(args) -> int:
    transcript, ok = checks.run_check(args.seed)
    sys.stdout.write(transcript)
    return 0 if ok else 2


# Each subcommand and its line in the top-level --help.
_COMMANDS = {
    "distance": "metric distances between two closed sets' ideals",
    "paper-table": "reproduce the two published comparison rows",
    "descriptor": "print level index sets of a closed set's ideal",
    "diagram": "emit the quantized-interval diagram",
    "check": "run the seeded randomized invariant suites",
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser, listing every subcommand but giving options only to
    `command`'s.

    A line whose first token names a subcommand reaches no other
    subcommand's parser, so main builds only that one's options.  When
    `command` names none (None, an option, a typo), argparse may hand the
    rest of the line to any subcommand, so all of them get their options.
    """
    # --depth and --seed default to None; main fills them in from the
    # environment, so a variable is read only by the commands it configures.
    parser = _Parser(prog="afideals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    if command in parsers:
        parsers = {command: parsers[command]}

    def add_common(p, depth_help=None):
        p.add_argument("--convention", choices=("paper", "derived"), default="derived")
        p.add_argument("--depth", type=_int, help=depth_help)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    if p := parsers.get("distance"):
        add_common(p, depth_help="levels summed when beta is printed as an interval "
                                 "[S_N, S_N + 2^-N], because the excluded words never agree")
        p.add_argument("--metric", choices=("phi", "beta", "hausdorff", "all"), default="all")
        p.add_argument("--decimal", type=_int, metavar="N",
                       help="add an approximate decimal column with N digits")
        p.add_argument("set_a")
        p.add_argument("set_b")
        p.set_defaults(func=cmd_distance)

    if p := parsers.get("paper-table"):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=cmd_paper_table)

    if p := parsers.get("descriptor"):
        add_common(p)
        p.add_argument("set")
        p.set_defaults(func=cmd_descriptor)

    if p := parsers.get("diagram"):
        p.add_argument("--depth", type=_int)
        p.add_argument("--dot", action="store_true", help="emit DOT for external rendering")
        p.set_defaults(func=cmd_diagram)

    if p := parsers.get("check"):
        p.add_argument("--seed", type=_int)
        p.set_defaults(func=cmd_check)

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
        # Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv: list) -> int:
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if getattr(args, "depth", 1) is None:
            args.depth = _env_int("AFIDEALS_DEPTH", 32)
        if getattr(args, "seed", 0) is None:
            args.seed = _env_int("AFIDEALS_SEED", 0)
        if not 1 <= getattr(args, "depth", 1) <= MAX_DEPTH:
            raise CliUsageError(
                f"depth must be between 1 and {MAX_DEPTH}, got {clip(str(args.depth), str)}")
        decimal = getattr(args, "decimal", None)
        if decimal is not None and not 0 <= decimal <= MAX_DECIMAL:
            bound = "at least 0" if decimal < 0 else f"at most {MAX_DECIMAL}"
            raise CliUsageError(f"--decimal must be {bound}, got {clip(str(decimal), str)}")
        return args.func(args)
    except _HelpShown as shown:
        return shown.args[0]
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
