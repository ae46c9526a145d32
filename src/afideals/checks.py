"""Seeded randomized invariant suites backing the `check` command.

Every suite is a pure function of the RNG it is handed, so a fixed seed
yields a byte-identical transcript.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .bratteli import (
    EventualDescriptor,
    FiniteDescriptor,
    ideal_closure,
    is_ideal,
    qi_diagram,
    to_finite,
)
from .exact import BinaryWord, geom_block, pow2, word_weight
from .metrics import d_beta, d_beta_truncated, d_phi
from .qi import (
    ZERO,
    ClosedSubsetQI,
    QIPoint,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
    point_distance,
)


def random_word(rng: random.Random, max_head: int = 5, max_period: int = 3,
                periodic_prob: float = 0.4) -> BinaryWord:
    head = [rng.randint(0, 1) for _ in range(rng.randint(0, max_head))]
    period = []
    if rng.random() < periodic_prob:
        period = [rng.randint(0, 1) for _ in range(rng.randint(1, max_period))]
    return BinaryWord(head, period)


def random_closed_set(rng: random.Random, nonempty: bool = True,
                      allow_infinite: bool = True) -> ClosedSubsetQI:
    while True:
        word = random_word(rng, periodic_prob=0.4 if allow_infinite else 0.0)
        zero = word.is_eventually_zero() and rng.random() < 0.3
        s = ClosedSubsetQI(word, include_zero=zero)
        if not (nonempty and s.is_empty()):
            return s


def random_finite_or_zero_set(rng: random.Random) -> ClosedSubsetQI:
    """Finite sets, with or without 0: their ideals' excluded words are
    eventually zero, so every pair's d_beta has a short exact value."""
    return random_closed_set(rng, nonempty=False, allow_infinite=False)


def random_ideal(rng: random.Random) -> EventualDescriptor:
    return ideal_of_closed_set(random_finite_or_zero_set(rng))


def member_values(s: ClosedSubsetQI, upto: int) -> frozenset:
    """Values of the points of s with index <= upto, plus 0 when s holds it."""
    members = {pow2(1 - i) for i in s.word.ones(upto)}
    if s.contains_zero:
        members.add(Fraction(0))
    return frozenset(members)


def support_disjoint_oracle(s: ClosedSubsetQI, members: frozenset, p: int, k: int) -> bool:
    """Brute force: is the support of summand k at level p disjoint from s?

    Works with explicit point values rather than word bits: summand k < p
    spans the characteristic function of {2**(1-k)}, summand p spans that
    of the tail interval [0, 2**(1-p)].  `members` are s's point values
    from `member_values`, listed past index p and past the head of s.
    """
    if k < p:
        return pow2(1 - k) not in members
    if s.contains_zero or not s.word.is_eventually_zero():
        return False
    bound = pow2(1 - p)
    return all(x > bound for x in members)


def _suite_exact(rng: random.Random, scale: int):
    failures = []
    cases = 0
    for _ in range(scale):
        a = rng.randint(1, 40)
        b = rng.randint(a, 40)
        cases += 1
        if geom_block(a, b) != sum(pow2(-p) for p in range(a, b + 1)):
            failures.append(f"geom_block({a},{b}) disagrees with loop sum")
    for _ in range(scale // 4):
        w = random_word(rng)
        for i in rng.sample(range(1, 101), 5):
            cases += 1
            if word_weight(w, i) != w.bit(i) * pow2(-i) + word_weight(w, i + 1):
                failures.append(f"word_weight recurrence fails at {i} for {w!r}")
    for _ in range(scale):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        cases += 1
        if (x + y) - y != x:
            failures.append(f"inexact arithmetic on {x}, {y}")
    return cases, failures


def _suite_closure(rng: random.Random, scale: int):
    failures = []
    cases = 0
    diagram = qi_diagram(8)
    for _ in range(scale):
        small = [frozenset(k for k in range(1, p + 1) if rng.random() < 0.2)
                 for p in range(1, 9)]
        big = [s | frozenset(k for k in range(1, p + 1) if rng.random() < 0.2)
               for p, s in enumerate(small, 1)]
        c_small = ideal_closure(diagram, FiniteDescriptor(small))
        c_big = ideal_closure(diagram, FiniteDescriptor(big))
        cases += 1
        if not is_ideal(diagram, c_small):
            failures.append(f"closure of {small} is not an ideal")
        if ideal_closure(diagram, c_small) != c_small:
            failures.append(f"closure not idempotent on {small}")
        if not all(c_small.sets(p) <= c_big.sets(p) for p in range(1, 9)):
            failures.append(f"closure not monotone on {small} vs {big}")
    return cases, failures


def _suite_hausdorff_metric(rng: random.Random, scale: int):
    failures = []
    cases = 0
    for _ in range(scale):
        s = random_closed_set(rng)
        t = random_closed_set(rng)
        u = random_closed_set(rng)
        dst, dsu, dtu = hausdorff(s, t), hausdorff(s, u), hausdorff(t, u)
        cases += 1
        if (dst == 0) != (s == t):
            failures.append(f"coincidence fails for {s!r}, {t!r}")
        if dst != hausdorff(t, s):
            failures.append(f"symmetry fails for {s!r}, {t!r}")
        if dst > dsu + dtu:
            failures.append(f"triangle fails for {s!r}, {t!r}, {u!r}")
    return cases, failures


def _brute_directed(a: ClosedSubsetQI, b: ClosedSubsetQI, depth: int) -> Fraction:
    best = Fraction(0)
    for k in a.point_indices(depth):
        best = max(best, point_distance(QIPoint(k), b))
    if a.contains_zero:
        best = max(best, point_distance(ZERO, b))
    return best


def _sup_cutoff(s: ClosedSubsetQI, t: ClosedSubsetQI) -> int:
    """Depth past which both membership words are jointly periodic, with margin."""
    heads = max(len(s.word.head), len(t.word.head))
    periods = math.lcm(max(1, len(s.word.period)), max(1, len(t.word.period)))
    return heads + 2 * periods + 2


def _suite_hausdorff_cutoff(rng: random.Random, scale: int):
    failures = []
    cases = 0
    for _ in range(scale):
        s = random_closed_set(rng)
        t = random_closed_set(rng)
        depth = _sup_cutoff(s, t) + 32
        brute = max(_brute_directed(s, t, depth), _brute_directed(t, s, depth))
        cases += 1
        if hausdorff(s, t) != brute:
            failures.append(f"cutoff unsound for {s!r}, {t!r}")
    return cases, failures


def _suite_ideal_metrics(rng: random.Random, scale: int):
    failures = []
    cases = 0
    for _ in range(scale):
        i, j, k = (random_ideal(rng) for _ in range(3))
        dij, dik, djk = d_phi(i, j), d_phi(i, k), d_phi(j, k)
        bij, bik, bjk = d_beta(i, j), d_beta(i, k), d_beta(j, k)
        cases += 1
        if (dij == 0) != (i == j) or (bij == 0) != (i == j):
            failures.append(f"coincidence fails for {i!r}, {j!r}")
        if dij != d_phi(j, i) or bij != d_beta(j, i):
            failures.append(f"symmetry fails for {i!r}, {j!r}")
        if dij > dik + djk or bij > bik + bjk:
            failures.append(f"triangle fails for {i!r}, {j!r}, {k!r}")
        if bij > 2 * dij:
            failures.append(f"d_beta > 2*d_phi for {i!r}, {j!r}")
        if bij > Fraction(2, 3) or dij > Fraction(1, 2):
            failures.append(f"global bound broken for {i!r}, {j!r}")
    return cases, failures


def _suite_correspondence(rng: random.Random, scale: int):
    failures = []
    cases = 0
    diagram = qi_diagram(32)
    for _ in range(scale):
        s = random_closed_set(rng, nonempty=False)
        e = ideal_of_closed_set(s)
        finite = to_finite(e, 32)
        cases += 1
        # Listed as far as the deepest probe of a per-level listing, at level 12.
        members = member_values(s, len(s.word.head) + 2 * max(1, len(s.word.period)) + 14)
        ok = all(
            (k in level) == support_disjoint_oracle(s, members, p, k)
            for p, level in enumerate(finite.all_sets[:12], 1)
            for k in range(1, p + 1)
        )
        if not ok:
            failures.append(f"support-disjointness oracle disagrees for {s!r}")
        if closed_set_of_ideal(e) != s:
            failures.append(f"round trip fails for {s!r}")
        if not is_ideal(diagram, finite):
            failures.append(f"derived descriptor not an ideal for {s!r}")
        h = len(s.word.head) + 2
        head = [s.word.bit(k) | rng.randint(0, 1) for k in range(1, h + 1)]
        period = tuple(s.word.bit(h + 1 + r) for r in range(len(s.word.period)))
        t = ClosedSubsetQI(BinaryWord(head, period), include_zero=s.contains_zero)
        f = ideal_of_closed_set(t)
        if not all(map(frozenset.__le__, to_finite(f, 32).all_sets, finite.all_sets)):
            failures.append(f"antitone correspondence fails for {s!r} inside {t!r}")
    return cases, failures


def _suite_truncation(rng: random.Random, scale: int):
    failures = []
    cases = 0
    for _ in range(scale):
        i, j = random_ideal(rng), random_ideal(rng)
        exact = d_beta(i, j)
        depth = rng.randint(2, 24)
        lo_iv = d_beta_truncated(i, j, depth)
        hi_iv = d_beta_truncated(i, j, depth + 1)
        cases += 1
        if lo_iv.width != pow2(-depth):
            failures.append(f"interval width wrong at depth {depth}")
        if not lo_iv.encloses(hi_iv):
            failures.append(f"intervals not nested at depth {depth}")
        if not lo_iv.contains(exact):
            failures.append(f"interval misses exact value for {i!r}, {j!r}")
    return cases, failures


SUITES = [
    ("exact-arithmetic", _suite_exact),
    ("closure-fixpoint", _suite_closure),
    ("hausdorff-metric", _suite_hausdorff_metric),
    ("hausdorff-cutoff", _suite_hausdorff_cutoff),
    ("ideal-metrics", _suite_ideal_metrics),
    ("correspondence", _suite_correspondence),
    ("truncation", _suite_truncation),
]


def run_check(seed: int, scale: int = 60, inject_failure: bool = False):
    """Run every suite; returns (transcript, all_passed)."""
    lines = [f"seed={seed} scale={scale}"]
    ok = True
    for name, suite in SUITES:
        rng = random.Random(f"{seed}:{name}")
        cases, failures = suite(rng, scale)
        if inject_failure:
            failures = failures + [f"injected violation in {name}"]
            inject_failure = False
        if failures:
            ok = False
            lines.append(f"{name}: FAIL ({len(failures)}/{cases} cases failed)")
            lines.extend(f"  {f}" for f in failures[:5])
        else:
            lines.append(f"{name}: PASS ({cases} cases)")
    lines.append("result: " + ("all suites passed" if ok else "suite failures detected"))
    return "\n".join(lines) + "\n", ok
