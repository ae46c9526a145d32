"""Seeded randomized invariant suites backing the `check` command.

Every suite is a pure function of the RNG it is handed, so a fixed seed
yields a byte-identical transcript.  Each stays a plain function that
returns (cases, failures): its number of cases and a (case, message) pair
per broken property, so a FAIL line counts each failing case once however
many of its properties break.  `run_check` reads that pair,
`benchmarks/tracer.py` times the suites through `SUITES`, and the mutant
tests in `tests/test_check_oracles.py` read the FAIL lines built from it.
A suite with one case per loop iteration numbers its cases with the loop
variable and returns SCALE.  The two diagrams the suites read,
`CLOSURE_DIAGRAM` and `CORRESPONDENCE_DIAGRAM`, are built once per import,
so their offsets are derived once per process rather than once per call.
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
from .exact import BinaryWord, pow2, word_weight
from .metrics import d_beta, d_beta_truncated, d_phi
from .qi import (
    ClosedSubsetQI,
    _distance,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
)


# Cases per suite: each suite's loop count derives from it.
SCALE = 60

# The diagrams of the closure-fixpoint and correspondence suites.
CLOSURE_DIAGRAM = qi_diagram(8)
CORRESPONDENCE_DIAGRAM = qi_diagram(32)


def _below(getrandbits, n: int) -> int:
    """The value `randrange(n)` draws, from the same stream: n.bit_length()
    random bits, drawn again while they reach n (CPython's
    `_randbelow_with_getrandbits`), without randrange's argument handling."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_mask(rng: random.Random, n: int) -> int:
    """n bits, the first as bit 0, each `_below(getrandbits, 2)` inline."""
    getrandbits = rng.getrandbits
    mask = 0
    for k in range(n):
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        mask |= r << k
    return mask


def random_word(rng: random.Random, periodic_prob: float = 0.4) -> BinaryWord:
    """A head of at most 5 bits, then with probability periodic_prob a
    period of 1 to 3 bits."""
    h = _below(rng.getrandbits, 6)  # randint(0, 5)
    head = random_mask(rng, h)
    period = length = 0
    if rng.random() < periodic_prob:
        length = 1 + _below(rng.getrandbits, 3)  # randint(1, 3)
        period = random_mask(rng, length)
    return BinaryWord.from_masks(head, h, period, length)


def random_closed_set(rng: random.Random, nonempty: bool = True,
                      allow_infinite: bool = True) -> ClosedSubsetQI:
    while True:
        word = random_word(rng, periodic_prob=0.4 if allow_infinite else 0.0)
        zero = word.is_eventually_zero() and rng.random() < 0.3
        s = ClosedSubsetQI(word, include_zero=zero)
        if not (nonempty and s.is_empty()):
            return s


def random_ideal(rng: random.Random) -> EventualDescriptor:
    """The ideal of a finite set, with or without 0: its excluded word is
    eventually zero, so every pair's d_beta has a short exact value."""
    return ideal_of_closed_set(random_closed_set(rng, nonempty=False, allow_infinite=False))


def member_values(s: ClosedSubsetQI, upto: int) -> frozenset:
    """Values of the points of s with index <= upto, plus 0 when s holds it,
    as ints in the unit 2**-upto: x_i = 2**(1-i) is 1 << (upto + 1 - i)."""
    members = {1 << (upto + 1 - i) for i in s.word.ones(upto)}
    if s.contains_zero:
        members.add(0)
    return frozenset(members)


def support_disjoint_oracle(s: ClosedSubsetQI, members: frozenset, upto: int,
                            p: int, k: int) -> bool:
    """Brute force: is the support of summand k at level p disjoint from s?

    Works with explicit point values rather than word bits: summand k < p
    spans the characteristic function of {2**(1-k)}, summand p spans that
    of the tail interval [0, 2**(1-p)].  `members` are s's point values
    from `member_values(s, upto)`, in its unit, with upto past index p and
    past the head of s.  The answer for k < p does not depend on p, so the
    `correspondence` suite evaluates it once per summand: once for each
    point summand k and once for the tail summand of each level.
    """
    if k < p:
        return 1 << (upto + 1 - k) not in members
    if s.contains_zero or not s.word.is_eventually_zero():
        return False
    bound = 1 << (upto + 1 - p)
    return all(x > bound for x in members)


def _suite_exact(rng: random.Random):
    failures = []
    cases = 0
    for _ in range(SCALE // 4):
        w = random_word(rng)
        for i in rng.sample(range(1, 101), 5):
            cases += 1
            if word_weight(w, i) != w.bit(i) * pow2(-i) + word_weight(w, i + 1):
                failures.append((cases, f"word_weight recurrence fails at {i} for {w!r}"))
    return cases, failures


def _level_sets(masks) -> list:
    """Level masks as the list of index sets a failure line shows."""
    return list(FiniteDescriptor._of_masks(masks).all_sets)


# Where level p starts among a seed's 36 bits, and its mask.
_CUTS = [(p * (p - 1) // 2, (1 << p) - 1) for p in range(1, 9)]


def _closure_seeds(draw):
    """Seeds small and big >= small on qi_diagram(8), from 72 draws in turn:
    level p holds index k with probability 0.2, as bit k-1."""
    bits = 0
    for i in range(72):
        if draw() < 0.2:
            bits |= 1 << i
    small = [bits >> at & m for at, m in _CUTS]
    return small, [s | bits >> 36 + at & m for s, (at, m) in zip(small, _CUTS)]


def _suite_closure(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        small, big = _closure_seeds(rng.random)
        c_small = ideal_closure(CLOSURE_DIAGRAM, FiniteDescriptor._of_masks(small))
        c_big = ideal_closure(CLOSURE_DIAGRAM, FiniteDescriptor._of_masks(big))
        if not is_ideal(CLOSURE_DIAGRAM, c_small):
            failures.append((case, f"closure of {_level_sets(small)} is not an ideal"))
        if ideal_closure(CLOSURE_DIAGRAM, c_small) != c_small:
            failures.append((case, f"closure not idempotent on {_level_sets(small)}"))
        if not c_small <= c_big:
            failures.append((case, f"closure not monotone on {_level_sets(small)} "
                                   f"vs {_level_sets(big)}"))
    return SCALE, failures


def _suite_hausdorff_metric(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        s = random_closed_set(rng)
        t = random_closed_set(rng)
        u = random_closed_set(rng)
        dst, dsu, dtu = hausdorff(s, t), hausdorff(s, u), hausdorff(t, u)
        if (dst == 0) != (s == t):
            failures.append((case, f"coincidence fails for {s!r}, {t!r}"))
        if dst != hausdorff(t, s):
            failures.append((case, f"symmetry fails for {s!r}, {t!r}"))
        if dst > dsu + dtu:
            failures.append((case, f"triangle fails for {s!r}, {t!r}, {u!r}"))
    return SCALE, failures


def _brute_directed(a: ClosedSubsetQI, b: ClosedSubsetQI, depth: int) -> Fraction:
    """Largest exact distance to a nonempty b from a point of a with index
    <= depth, or from 0 when a holds it.  Each distance is the pair (n, e)
    for n / 2**e that `point_distance` reduces; pairs compare by shifting."""
    points = a.word.ones(depth)
    if a.contains_zero:
        points.append(None)
    n, e = 0, 0
    for k in points:
        m, f = _distance(k, b)
        if m << e > n << f:
            n, e = m, f
    return Fraction(n, 1 << e)


def _sup_cutoff(s: ClosedSubsetQI, t: ClosedSubsetQI) -> int:
    """Depth past which both membership words are jointly periodic, with margin."""
    heads = max(s.word.head_len, t.word.head_len)
    periods = math.lcm(s.word.period_len or 1, t.word.period_len or 1)
    return heads + 2 * periods + 2


def _suite_hausdorff_cutoff(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        s = random_closed_set(rng)
        t = random_closed_set(rng)
        depth = _sup_cutoff(s, t) + 32
        brute = max(_brute_directed(s, t, depth), _brute_directed(t, s, depth))
        if hausdorff(s, t) != brute:
            failures.append((case, f"cutoff unsound for {s!r}, {t!r}"))
    return SCALE, failures


# d_beta and d_phi at most, attained against the whole algebra.
BETA_SUP, PHI_SUP = Fraction(2, 3), Fraction(1, 2)


def _suite_ideal_metrics(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        i, j, k = (random_ideal(rng) for _ in range(3))
        dij, dik, djk = d_phi(i, j), d_phi(i, k), d_phi(j, k)
        bij, bik, bjk = d_beta(i, j), d_beta(i, k), d_beta(j, k)
        if (dij == 0) != (i == j) or (bij == 0) != (i == j):
            failures.append((case, f"coincidence fails for {i!r}, {j!r}"))
        if dij != d_phi(j, i) or bij != d_beta(j, i):
            failures.append((case, f"symmetry fails for {i!r}, {j!r}"))
        if dij > dik + djk or bij > bik + bjk:
            failures.append((case, f"triangle fails for {i!r}, {j!r}, {k!r}"))
        if 3 * bij > 5 * dij:
            failures.append((case, f"3*d_beta > 5*d_phi for {i!r}, {j!r}"))
        if bij > BETA_SUP or dij > PHI_SUP:
            failures.append((case, f"global bound broken for {i!r}, {j!r}"))
    return SCALE, failures


def _suite_correspondence(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        s = random_closed_set(rng, nonempty=False)
        e = ideal_of_closed_set(s)
        finite = to_finite(e, 32)
        # Listed as far as the deepest probe, the tail summand of level 12.
        upto = s.word.head_len + 2 * (s.word.period_len or 1) + 14
        members = member_values(s, upto)
        points = sum(1 << k - 1 for k in range(1, 12)
                     if support_disjoint_oracle(s, members, upto, 12, k))
        tails = sum(1 << p - 1 for p in range(1, 13)
                    if support_disjoint_oracle(s, members, upto, p, p))
        oracle = FiniteDescriptor._of_masks(points & (1 << p) - 1 | tails & 1 << p
                                            for p in range(12))
        if to_finite(e, 12) != oracle:
            failures.append((case, f"support-disjointness oracle disagrees for {s!r}"))
        if closed_set_of_ideal(e) != s:
            failures.append((case, f"round trip fails for {s!r}"))
        if not is_ideal(CORRESPONDENCE_DIAGRAM, finite):
            failures.append((case, f"derived descriptor not an ideal for {s!r}"))
        # t holds s: s's first h bits with random ones added, then s's period.
        h, length = s.word.head_len + 2, s.word.period_len
        added = random_mask(rng, h)
        period = s.word.prefix(h + length) >> h
        word = BinaryWord.from_masks(s.word.prefix(h) | added, h, period, length)
        t = ClosedSubsetQI(word, include_zero=s.contains_zero)
        f = ideal_of_closed_set(t)
        if not to_finite(f, 32) <= finite:
            failures.append((case, f"antitone correspondence fails for {s!r} inside {t!r}"))
    return SCALE, failures


def _suite_truncation(rng: random.Random):
    failures = []
    for case in range(1, SCALE + 1):
        i, j = random_ideal(rng), random_ideal(rng)
        exact = d_beta(i, j)
        depth = rng.randint(2, 24)
        lo_iv = d_beta_truncated(i, j, depth)
        hi_iv = d_beta_truncated(i, j, depth + 1)
        if lo_iv.width != pow2(-depth):
            failures.append((case, f"interval width wrong at depth {depth} for {i!r}, {j!r}"))
        if not lo_iv.encloses(hi_iv):
            failures.append((case, f"intervals not nested at depth {depth} for {i!r}, {j!r}"))
        if not lo_iv.contains(exact):
            failures.append(
                (case, f"interval misses exact value at depth {depth} for {i!r}, {j!r}"))
    return SCALE, failures


SUITES = [
    ("exact-arithmetic", _suite_exact),
    ("closure-fixpoint", _suite_closure),
    ("hausdorff-metric", _suite_hausdorff_metric),
    ("hausdorff-cutoff", _suite_hausdorff_cutoff),
    ("ideal-metrics", _suite_ideal_metrics),
    ("correspondence", _suite_correspondence),
    ("truncation", _suite_truncation),
]


def run_check(seed: int):
    """Run every suite; returns (transcript, all_passed)."""
    lines = [f"seed={seed} scale={SCALE}"]
    ok = True
    for name, suite in SUITES:
        rng = random.Random(f"{seed}:{name}")
        cases, failures = suite(rng)
        if failures:
            ok = False
            failed = len({case for case, _ in failures})
            lines.append(f"{name}: FAIL ({failed}/{cases} cases failed)")
            lines.extend(f"  {message}" for _, message in failures[:5])
        else:
            lines.append(f"{name}: PASS ({cases} cases)")
    lines.append("result: " + ("all suites passed" if ok else "suite failures detected"))
    return "\n".join(lines) + "\n", ok
