"""Seeded request decks for the two benchmark workloads.

Inputs come from the benchmark's own `random.Random(seed)`, never from
`afideals.checks`, so a change to the library's check suites cannot change
what is measured.  A deck is a list of blocks; every block of a workload
has the same composition (so many small, middle and large requests), the
closed loop runs whole blocks, and each block's order is shuffled.

The `distance` workload mixes three parts in every block; each request
carries its part's name (see NOTES.md for why each part exists):

* cli-mix      heads 0-5, periods 1-3, 600 requests a block, of which 60
               are malformed input or domain errors;
* long-period  pairs of infinite sets, density 1/2, heads 0-4, coprime
               periods from a fixed ladder of 17 pairs from 17/11 up to
               127/113;
* long-head    finite or zero-containing pairs with heads 64-512, and
               periodic pairs sent as `--metric beta --depth N`, N 64-512.

The `check` workload sends `check --seed s` for the fixed seeds 1-20 in
every block.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace

from oracle import QISet


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str  # "distance", "descriptor", "check" or "error"
    sets: tuple = ()
    metric: str = "all"
    convention: str = "derived"
    depth: int = 32
    decimal: int | None = None
    json: bool = False
    exit_code: int = 0
    check_seed: int | None = None
    # The name of an exception that a known defect lets escape cli.main on
    # this input.  It counts as a failed request; any other escape makes the
    # run incorrect.
    known_crash: str | None = None
    part: str = ""  # the part of its workload's block, for context lines and trace shares


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _small_set(rng: random.Random) -> QISet:
    """Nonempty set with a head of at most 5 and a period of at most 3 bits."""
    while True:
        period = _bits(rng, rng.randint(1, 3)) if rng.random() < 0.4 else ""
        s = QISet(_bits(rng, rng.randint(0, 5)), period, zero=rng.random() < 0.3)
        if not s.empty:
            return s


def _literal(rng: random.Random, s: QISet) -> str:
    if not s.infinite and rng.random() < 0.5:
        return s.points_literal()
    return s.word_literal()


def _distance(rng, a, b, *, metric="all", convention="derived", depth=None,
              decimal=None, as_json=False) -> Request:
    argv = ["distance"]
    if metric != "all":
        argv += ["--metric", metric]
    if convention != "derived":
        argv += ["--convention", convention]
    if depth is not None:
        argv += ["--depth", str(depth)]
    if as_json:
        argv.append("--json")
    if decimal is not None:
        argv += ["--decimal", str(decimal)]
    argv += [_literal(rng, a), _literal(rng, b)]
    return Request(tuple(argv), "distance", (a, b), metric, convention,
                   32 if depth is None else depth, decimal, as_json)


def _paper_pair(rng: random.Random) -> tuple:
    """A singleton and a pair of isolated points, at point indices 2..5 (values 1/2 .. 1/16)."""
    m = rng.randint(2, 5)
    n = rng.randint(2, 4)
    nk = rng.randint(n + 1, 5)
    single = "".join("1" if i == m else "0" for i in range(1, m + 1))
    pair = "".join("1" if i in (n, nk) else "0" for i in range(1, nk + 1))
    return QISet(single), QISet(pair)


def _malformed(rng: random.Random, kind: int) -> Request:
    """kind 0-2 bad bits, 3-4 non-dyadic, 5-6 zero denominator, 7-9 empty set.

    A zero denominator is a domain error (exit 1), but the library lets
    ZeroDivisionError escape cli.main on it: the known defect is kept in the
    deck so that it shows in `failed`.
    """
    good = _literal(rng, _small_set(rng))
    known_crash = "ZeroDivisionError" if 5 <= kind < 7 else None
    if kind < 3:
        bad, code = f"head={_bits(rng, 2)}{rng.choice('2x')}{_bits(rng, 2)};period=1", 1
    elif kind < 5:
        bad, code = rng.choice(["1/3", "3/4", "1/2,1/6", "2", "5/8"]), 1
    elif kind < 7:
        bad, code = rng.choice(["1/0", "1/2,1/0", "0/0"]), 1
    else:
        bad, code = "", 3
    pair = [good, bad] if rng.random() < 0.5 else [bad, good]
    return Request(("distance", *pair), "error", exit_code=code, known_crash=known_crash)


def _cli_mix_block(rng: random.Random) -> list:
    block = []
    for _ in range(28):
        block.append(_distance(rng, _small_set(rng), _small_set(rng)))
    for _ in range(18):
        block.append(_distance(rng, _small_set(rng), _small_set(rng),
                               decimal=6, as_json=True))
    for _ in range(14):
        block.append(_distance(rng, _small_set(rng), _small_set(rng), metric="beta"))
    for _ in range(10):
        block.append(_distance(rng, *_paper_pair(rng), convention="paper"))
    for _ in range(20):
        s = _small_set(rng)
        block.append(Request(("descriptor", "--depth", "32", _literal(rng, s)),
                             "descriptor", (s,)))
    block.extend(_malformed(rng, kind) for kind in range(10))
    return block


def _periodic_set(rng: random.Random, period_len: int) -> QISet:
    period = _bits(rng, period_len)
    while "1" not in period or "0" not in period:
        period = _bits(rng, period_len)
    return QISet(_bits(rng, rng.randint(0, 4)), period)


# Period pairs of one long-period part: 33 small, 6 middle and 1 large, so
# the distance block's p95 falls among the small steps of the two ladders.
# The pairs are fixed and the seed draws the bits, heads and order, so every
# seed asks for the same amount of work.
_SMALL_PERIODS = ((17, 13), (19, 17), (23, 19), (29, 23), (31, 29), (19, 13),
                  (23, 17), (29, 19), (31, 23), (17, 11), (25, 23))
_MIDDLE_PERIODS = ((61, 59), (59, 53), (61, 53), (57, 55), (59, 56), (61, 58))
_LARGE_PERIODS = ((127, 113),)


def _long_period_block(rng: random.Random) -> list:
    pairs = _SMALL_PERIODS * 3 + _MIDDLE_PERIODS + _LARGE_PERIODS
    return [_distance(rng, _periodic_set(rng, p), _periodic_set(rng, q)) for p, q in pairs]


def _head_set(rng: random.Random, head_len: int, zero: bool) -> QISet:
    return QISet(_bits(rng, head_len - 1) + "1", "", zero)


# Head lengths, and separately truncation depths, of one long-head part:
# 15 small, 3 middle and 1 large, for the same percentile placement.
_SIZES = tuple(64 + 96 * i // 14 for i in range(15)) + (200, 260, 320, 512)


def _long_head_block(rng: random.Random) -> list:
    block = []
    for size in _SIZES:
        # One finite set and one holding 0, with nearly equal heads, so every
        # seed asks for the same work and peak memory.
        a, b = _head_set(rng, size, False), _head_set(rng, size - rng.randint(0, 8), True)
        block.append(_distance(rng, a, b))
        a, b = _periodic_set(rng, rng.randint(2, 7)), _periodic_set(rng, rng.randint(2, 7))
        block.append(_distance(rng, a, b, metric="beta", depth=size))
    return block


# The `check --seed` values of every check block.  They are fixed, as the
# ladders are, because one check costs 0.35-0.52 s depending on its seed:
# every bench seed asks for the same work and only shuffles the order.
# Twenty put the median and p75 among seeds of nearly equal cost.
_CHECK_SEEDS = tuple(range(1, 21))


def _check_block(rng: random.Random) -> list:
    return [Request(("check", "--seed", str(s)), "check", check_seed=s, part="check")
            for s in _CHECK_SEEDS]


def _tag(part: str, block: list) -> list:
    return [replace(request, part=part) for request in block]


def _distance_block(rng: random.Random) -> list:
    """Six cli-mix blocks, one long-period block and one long-head block.

    678 requests.  The 600 cheap cli-mix requests put the median latency
    near the 57th percentile of the cli-mix part, inside its dense band of
    requests that need no d_beta fallback (about the cheapest 65%).  The 78
    long requests take most of the time, so throughput and the p95 tail
    follow the kernels; the p95 falls among the long ladders' small steps.
    """
    return (_tag("cli-mix", [r for _ in range(6) for r in _cli_mix_block(rng)])
            + _tag("long-period", _long_period_block(rng))
            + _tag("long-head", _long_head_block(rng)))


DECK_BLOCKS = 8  # distinct blocks in a deck; the loop cycles through them


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_block: Callable[[random.Random], list]
    tail_pct: float  # fixed so that a faster program does not move the percentile
    warm_up: tuple  # small fixed argv lists, one per path the workload takes


_DISTANCE_WARM_UP = (
    ("distance", "1/2", "1/4,1/8"),
    ("distance", "--metric", "beta", "--depth", "64", "head=1;period=01", "head=;period=011"),
    ("distance", "--json", "--decimal", "6", "1/2", "0"),
    ("distance", "--convention", "paper", "1/2", "1/4,1/8"),
    ("descriptor", "--depth", "32", "1/2"),
    ("distance", "1/3", "1/2"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("distance", "cli-mix (heads <= 5, periods <= 3, all options, 10% malformed), "
                 "long-period (periods to 127/113) and long-head (heads, depths 64-512) "
                 "requests mixed: argparse/fallback, hausdorff and d_beta",
                 _distance_block, 95.0, _DISTANCE_WARM_UP),
        Workload("check", "check --seed over 20 fixed seeds in a seeded order: the only path "
                 "to is_ideal, ideal_closure and qi_diagram, with the suites' own oracles beside "
                 "the kernels",
                 _check_block, 75.0, (("check", "--seed", "0"),)),
    )
}


# The three points on each scaling axis of the traced run's scaling report.
SCALING_PERIODS = ((31, 29), (61, 59), (127, 113))
SCALING_HEADS = (128, 256, 512)
SCALING_DEPTHS = (64, 128, 256)


def scaling_requests(seed: int) -> list:
    """(label, traced layers, request) at each point of the distance scaling axes."""
    rng = random.Random(f"scaling:{seed}")
    points = []
    for p, q in SCALING_PERIODS:
        a, b = _periodic_set(rng, p), _periodic_set(rng, q)
        points.append((f"p{p}-{q}", ("qi.hausdorff",), _distance(rng, a, b, metric="hausdorff")))
    for h in SCALING_HEADS:
        a, b = _head_set(rng, h, False), _head_set(rng, h, True)
        points.append((f"h{h}", ("metrics.d_beta", "qi.ideal_of_closed_set"),
                       _distance(rng, a, b, metric="beta")))
    for n in SCALING_DEPTHS:
        a, b = _periodic_set(rng, 5), _periodic_set(rng, 7)
        points.append((f"n{n}", ("metrics.d_beta_truncated",),
                       _distance(rng, a, b, metric="beta", depth=n)))
    return points


def make_deck(workload: Workload, seed: int) -> list:
    """The workload's blocks for this seed; the same seed gives the same deck."""
    rng = random.Random(f"{workload.name}:{seed}")
    deck = []
    for _ in range(DECK_BLOCKS):
        block = workload.make_block(rng)
        rng.shuffle(block)
        deck.append(block)
    return deck
