"""Command-line front end.

Subcommands: distance, paper-table, descriptor, diagram, check.
All numeric output is exact-rational text; `--decimal N` adds a clearly
labeled approximate column.  Exit codes: 0 ok, 1 usage or parse error,
2 suite failure, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bratteli import level_set, qi_diagram, serialize_diagram
from .checks import run_check
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
from .qi import DescriptorConventionError, EmptySetError, hausdorff, parse_closed_set

# qi_diagram builds O(depth**2) edges, about 0.6 s at this depth, so larger
# depths are refused rather than left to run; a truncated d_beta at this
# depth takes about 0.6 ms.
MAX_DEPTH = 1024

# The decimal column goes through str(), which converts at most 4300 digits
# of an int, so larger digit counts are refused.
MAX_DECIMAL = 1000

_DOMAIN_ERRORS = (EmptySetError, MalformedComparisonError, DescriptorConventionError)


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise CliUsageError(f"environment variable {name} must be an integer, got {raw!r}")


def _decimal(x: Fraction, digits: int) -> str:
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x.numerator * 10**digits // x.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


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
    rows = []
    for m, n, k in _PAPER_ROWS:
        rows.append(
            {
                "m": m,
                "n": n,
                "k": k,
                "d_hausdorff": str(closed_form_dhausdorff(m, n, k)),
                "d_phi": str(closed_form_dphi(m, n, k)),
                "d_beta": str(closed_form_dbeta(m, n, k)),
            }
        )
    if args.json:
        print(json.dumps(rows))
    else:
        print("m n k d_hausdorff d_phi d_beta")
        for r in rows:
            print(f"{r['m']} {r['n']} {r['k']} {r['d_hausdorff']} {r['d_phi']} {r['d_beta']}")
    return 0


def _format_set(s) -> str:
    return "{" + ",".join(str(k) for k in sorted(s)) + "}"


def cmd_descriptor(args) -> int:
    e = descriptor(_parse_set(args.set), args.convention)
    levels = {p: _format_set(level_set(e, p)) for p in range(1, args.depth + 1)}
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
    transcript, ok = run_check(args.seed, inject_failure=args.inject_failure)
    sys.stdout.write(transcript)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    # --depth and --seed default to None; main fills them in from the
    # environment, so a variable is read only by the commands it configures.
    parser = _Parser(prog="afideals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, convention_default="derived", depth_help=None):
        p.add_argument("--convention", choices=("paper", "derived"), default=convention_default)
        p.add_argument("--depth", type=int, help=depth_help)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("distance", help="metric distances between two closed sets' ideals")
    add_common(p, depth_help="levels summed when beta is printed as an interval "
                             "[S_N, S_N + 2^-N], because the excluded words never agree")
    p.add_argument("--metric", choices=("phi", "beta", "hausdorff", "all"), default="all")
    p.add_argument("--decimal", type=int, metavar="N",
                   help="add an approximate decimal column with N digits")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("paper-table", help="reproduce the two published comparison rows")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_paper_table)

    p = sub.add_parser("descriptor", help="print level index sets of a closed set's ideal")
    add_common(p)
    p.add_argument("set")
    p.set_defaults(func=cmd_descriptor)

    p = sub.add_parser("diagram", help="emit the quantized-interval diagram")
    p.add_argument("--depth", type=int)
    p.add_argument("--dot", action="store_true", help="emit DOT for external rendering")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("check", help="run the seeded randomized invariant suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "depth", 1) is None:
            args.depth = _env_int("AFIDEALS_DEPTH", 32)
        if getattr(args, "seed", 0) is None:
            args.seed = _env_int("AFIDEALS_SEED", 0)
        if not 1 <= getattr(args, "depth", 1) <= MAX_DEPTH:
            raise CliUsageError(f"depth must be between 1 and {MAX_DEPTH}, got {args.depth}")
        decimal = getattr(args, "decimal", None)
        if decimal is not None and not 0 <= decimal <= MAX_DECIMAL:
            bound = "at least 0" if decimal < 0 else f"at most {MAX_DECIMAL}"
            raise CliUsageError(f"--decimal must be {bound}, got {decimal}")
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
