"""The pair kernels against the one-direction code they replaced.

`first_outside` gives both directions' first points outside from one read
of a pair, `hausdorff` takes both directed distances from that pair, and
`d_beta_truncated` builds both endpoints from the partial sum's one
numerator.  The earlier code is kept here as references: a one-direction
first point outside, a Hausdorff distance from two calls of it, and a
truncation that adds the tail bound 2**-depth to a `Fraction` partial sum.
`first_diff_index` is checked beside them against a plain XOR scan.
They must agree on every ordered pair of the 176 sets with head <= 4 and
period <= 3 (with and without 0), on the long-period ladder and on
literals at the 2,048-bit cap.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from afideals.exact import BinaryWord, bit_text, first_diff_index, first_outside, pow2
from afideals.metrics import CertifiedValue, d_beta_truncated
from afideals.qi import (
    MAX_LITERAL_BITS,
    ClosedSubsetQI,
    _distance,
    _larger,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
)
from test_check_oracles import SHORT


def reference_first_hit(u, v, hits):
    """Least position whose bit is set in hits(a, b), a and b being the
    words' bits as masks, or None: the heads and the longer period first,
    then the heads and the joint period."""
    h = max(u.head_len, v.head_len)
    for n in (h + max(u.period_len, v.period_len, 1),
              h + math.lcm(u.period_len or 1, v.period_len or 1)):
        x = hits(u.prefix(n), v.prefix(n))
        if x:
            return (x & -x).bit_length()
    return None


def reference_first_outside(u, v):
    """Least position where u has bit 1 and v bit 0, or None."""
    return reference_first_hit(u, v, lambda a, b: a & ~b)


def reference_first_diff_index(u, v):
    """Least position where the two words differ, or None."""
    return reference_first_hit(u, v, lambda a, b: a ^ b)


def reference_hausdorff(s, t):
    """The larger of two directed distances, each from its own first point
    outside and the least point of its set."""
    def directed(a, b):
        k0 = reference_first_outside(a.word, b.word)
        far = _distance(None if a.contains_zero else a.word.last_one(), b)
        return far if k0 is None else _larger(_distance(k0, b), far)

    n, e = _larger(directed(s, t), directed(t, s))
    return Fraction(n, 1 << e)


def reference_truncated(i, j, depth):
    """The partial sum S_depth as a Fraction, bracketed by adding 2**-depth."""
    diff = bit_text(i.excluded.prefix(depth - 1) ^ j.excluded.prefix(depth - 1), depth - 1)
    tails = bit_text(i.tail.prefix(depth) ^ j.tail.prefix(depth), depth)
    diff = diff or "0"
    partial = Fraction(4 * int(diff, 4) - 2 * int(diff, 2) + int(tails, 4), 1 << 2 * depth)
    return CertifiedValue(partial, partial + pow2(-depth))


def assert_pair_agrees(s, t, depths, i=None, j=None):
    assert first_outside(s.word, t.word) == (reference_first_outside(s.word, t.word),
                                             reference_first_outside(t.word, s.word))
    assert first_diff_index(s.word, t.word) == reference_first_diff_index(s.word, t.word)
    if not (s.is_empty() or t.is_empty()):
        assert hausdorff(s, t) == reference_hausdorff(s, t), (s, t)
    i, j = i or ideal_of_closed_set(s), j or ideal_of_closed_set(t)
    for depth in depths:
        value = d_beta_truncated(i, j, depth)
        assert value == reference_truncated(i, j, depth), (s, t, depth)
        assert (type(value.lo), type(value.hi)) == (Fraction, Fraction)


def test_every_short_pair():
    ideals = {s: ideal_of_closed_set(s) for s in SHORT}
    # The truncation depth cycles through 1..8 over the pairs.
    for n, (s, t) in enumerate(product(SHORT, repeat=2)):
        assert_pair_agrees(s, t, (1 + n % 8,), ideals[s], ideals[t])


def test_short_pairs_cover_every_outcome():
    # Hits in either direction, on either window, and none at all.
    outcomes = {tuple(k is None for k in first_outside(s.word, t.word))
                for s in SHORT for t in SHORT}
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
    joint = [(s, t) for s in SHORT for t in SHORT
             if reference_first_outside(s.word, t.word) is not None
             and reference_first_outside(s.word, t.word) > max(s.word.head_len, t.word.head_len)
             + max(s.word.period_len, t.word.period_len, 1)]
    assert len(joint) > 50


LADDER = [(17, 11), (19, 13), (23, 17), (31, 29), (57, 55), (61, 59), (127, 113)]


def ladder_set(rng, period, density):
    head = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
    bits = "".join("1" if rng.random() < density else "0" for _ in range(period))
    return parse_closed_set(f"head={head};period={bits or '0'}")


@pytest.mark.parametrize("p, q", LADDER, ids=[f"{p}-{q}" for p, q in LADDER])
def test_long_period_ladder(p, q):
    rng = random.Random(p * q)
    for density in (0.5, 0.9, 0.1):
        for _ in range(3):
            s, t = ladder_set(rng, p, density), ladder_set(rng, q, density)
            assert_pair_agrees(s, t, depths=(7, p + q))
            assert_pair_agrees(t, s, depths=(64,))


def cap_literals():
    """Literals of up to MAX_LITERAL_BITS bits: a sparse and a dense period
    of coprime lengths near 2,000, a seeded period beside a head, 2,048-bit
    heads with and without 0, and point lists that end at x_2048."""
    rng = random.Random(2048)

    def bits(n):
        return "".join(rng.choice("01") for _ in range(n))

    last = str(pow2(1 - MAX_LITERAL_BITS))
    return [
        "head=000000000;period=1" + "0" * 2038,
        "head=;period=" + "1" * 1000 + "0" + "1" * 1028,
        f"head={bits(19)};period={bits(2029)}",
        f"head={bits(2047)}1;period=",
        f"head={bits(2047)}1;period=;zero=1",
        "1," + last,
        "1/2,0," + last,
    ]


def test_cap_literals():
    sets = [parse_closed_set(text) for text in cap_literals()]
    for s in sets:
        for t in sets:
            assert_pair_agrees(s, t, depths=(64, MAX_LITERAL_BITS))
    # The sparse period's points meet the dense period's one gap only past
    # both periods, inside their joint period of 2039 * 2029 bits.
    k, l = first_outside(sets[0].word, sets[1].word)
    assert (sets[0].word.period_len, sets[1].word.period_len) == (2039, 2029)
    assert 2039 + 2029 < k < 2039 * 2029 and l == 1


def test_first_difference_in_the_short_window_reads_no_joint_period(monkeypatch):
    # Bit 1 tells the cap pair apart.  first_outside reads their joint period
    # of 2039 * 2029 bits for the other direction; the first difference must
    # stop at the heads and the longer period.
    u, v = (parse_closed_set(text).word for text in cap_literals()[:2])
    reads, prefix = [], BinaryWord.prefix
    monkeypatch.setattr(BinaryWord, "prefix", lambda w, n: reads.append(n) or prefix(w, n))
    assert first_diff_index(u, v) == first_diff_index(v, u) == 1
    assert max(reads) == max(u.head_len, v.head_len) + max(u.period_len, v.period_len) == 2039


def test_one_read_with_no_joint_window():
    # Eventually zero words share the window of the heads and one bit.
    u, v = BinaryWord("101"), BinaryWord("011")
    assert first_outside(u, v) == (1, 2)
    assert first_outside(u, u) == (None, None)
    s = ClosedSubsetQI(u)
    assert hausdorff(s, ClosedSubsetQI(v)) == reference_hausdorff(s, ClosedSubsetQI(v))
