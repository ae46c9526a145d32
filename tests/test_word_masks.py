"""The mask-backed BinaryWord against the tuple implementation it replaced.

TupleWord, tuple_xor, tuple_first_index, TupleWord.next_one and
tuple_weight are the earlier tuple-based word code, kept as a reference:
every position is a tuple element and every kernel walks the bits one by
one.  The mask kernels must agree with them on every short word pair, on
seeded longer words and on the long-period ladder.
"""

import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from afideals.bratteli import EventualDescriptor
from afideals.exact import (
    BinaryWord,
    first_diff_index,
    first_outside,
    word_weight,
    word_xor,
)
from afideals.metrics import d_beta
from bits import bit_strings, random_bits


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class TupleWord:
    """The tuple-backed word: canonical head and primitive period as tuples."""

    def __init__(self, head=(), period=()):
        head = tuple(map(int, head))
        period = tuple(map(int, period))
        assert {*head, *period} <= {0, 1}
        period = _primitive(period) if any(period) else ()
        if period:
            while head and head[-1] == period[-1]:
                head = head[:-1]
                period = period[-1:] + period[:-1]
        elif 1 in head:
            head = head[:len(head) - head[::-1].index(1)]
        else:
            head = ()
        self.head = head
        self.period = period

    def bit(self, k: int) -> int:
        if k <= len(self.head):
            return self.head[k - 1]
        if not self.period:
            return 0
        return self.period[(k - len(self.head) - 1) % len(self.period)]

    def prefix(self, n: int) -> tuple:
        rest = n - len(self.head)
        if rest <= 0:
            return self.head[:n]
        if not self.period:
            return self.head + (0,) * rest
        return self.head + (self.period * -(-rest // len(self.period)))[:rest]

    def next_one(self, i: int):
        for k in range(i + 1, max(i, len(self.head)) + len(self.period) + 1):
            if self.bit(k):
                return k
        return None


def tuple_xor(u: TupleWord, v: TupleWord) -> TupleWord:
    h = max(len(u.head), len(v.head))
    lu, lv = len(u.period), len(v.period)
    length = 0 if lu == 0 and lv == 0 else math.lcm(lu or 1, lv or 1)
    bits = tuple(map(operator.xor, u.prefix(h + length), v.prefix(h + length)))
    return TupleWord(bits[:h], bits[h:])


def tuple_first_index(u: TupleWord, v: TupleWord, pred):
    h = max(len(u.head), len(v.head))
    length = math.lcm(len(u.period) or 1, len(v.period) or 1)
    for k in range(1, h + length + 1):
        if pred(u.bit(k), v.bit(k)):
            return k
    return None


def tuple_weight(w: TupleWord, from_index: int = 1, base: int = 2) -> Fraction:
    h, length = len(w.head), len(w.period)
    head = int("".join(map(str, w.head[from_index - 1:])) or "0", base)
    if not length:
        return Fraction(head, base**h)
    start = max(from_index, h + 1)
    shift = (start - h - 1) % length
    block = int("".join(map(str, w.period[shift:] + w.period[:shift])), base)
    repunit = base**length - 1
    return Fraction(head * base ** (start - 1 - h) * repunit + block,
                    base ** (start - 1) * repunit)


def text(bits) -> str:
    return "".join(map(str, bits))


def both(head, period):
    return BinaryWord(head, period), TupleWord(head, period)


def assert_same_word(w: BinaryWord, t: TupleWord):
    assert (w.head, w.period) == (text(t.head), text(t.period))
    assert (w.head_len, w.period_len) == (len(t.head), len(t.period))


def assert_canonical(w: BinaryWord):
    period = w.period
    assert _primitive(period) == period
    assert not period or "1" in period
    if period and w.head:
        assert w.head[-1] != period[-1]
    if not period and w.head:
        assert w.head[-1] == "1"


def assert_pair_agrees(u, v, tu, tv, probes=()):
    assert_same_word(word_xor(u, v), tuple_xor(tu, tv))
    assert first_diff_index(u, v) == tuple_first_index(tu, tv, operator.ne)
    outside = (tuple_first_index(tu, tv, operator.gt), tuple_first_index(tv, tu, operator.gt))
    assert first_outside(u, v) == outside
    assert first_outside(v, u) == outside[::-1]
    for i in probes:
        assert u.next_one(i) == tu.next_one(i)


SHORT = [(head, period) for head in bit_strings(4) for period in bit_strings(3)]


def test_every_short_word_is_canonical_like_the_tuple_word():
    for head, period in SHORT:
        w, t = both(head, period)
        assert_same_word(w, t)
        assert_canonical(w)
        for n in range(12):
            assert w.prefix(n) == sum(b << k for k, b in enumerate(t.prefix(n)))
        for i in range(10):
            assert w.next_one(i) == t.next_one(i)
        for start in range(1, 9):
            for base in (2, 4):
                assert word_weight(w, start, base) == tuple_weight(t, start, base)


def test_every_short_pair_against_tuple_words():
    words = {BinaryWord(*hp): TupleWord(*hp) for hp in SHORT}
    for (u, tu), (v, tv) in product(words.items(), repeat=2):
        assert_pair_agrees(u, v, tu, tv)


def test_d_beta_is_the_weight_of_both_xors_on_every_short_pair():
    words = sorted({BinaryWord(*hp) for hp in SHORT}, key=lambda w: f"head={w.head};period={w.period}")
    tails = [w for w in words if w.period in ("", "1")]
    rng = random.Random(41)
    for e, f in product(words, repeat=2):
        for t, u in ((rng.choice(tails), rng.choice(tails)) for _ in range(3)):
            expected = (word_weight(word_xor(e, f), 1, 4)
                        + word_weight(word_xor(t, u), 1, 4))
            assert d_beta(EventualDescriptor(e, t), EventualDescriptor(f, u)) == expected


def random_parts(rng, max_head, max_period):
    """Random head and period bits.  Some periods repeat a shorter block, and
    some heads end with the period continued backwards, which canonical form
    absorbs into the period."""
    head = random_bits(rng, rng.randint(0, max_head))
    period = random_bits(rng, rng.randint(0, max_period))
    if rng.random() < 0.3:
        block = random_bits(rng, rng.randint(1, 5))
        period = block * rng.randint(2, max_period // len(block))
    if period and rng.random() < 0.3:
        run = text(period[-1 - k % len(period)] for k in range(rng.randint(0, max_head)))
        head = head[:rng.randint(0, 3)] + run[::-1]
    return head, period


def test_seeded_long_words_against_tuple_words():
    rng = random.Random(2718)
    for _ in range(400):
        (u, tu), (v, tv) = (both(*random_parts(rng, 30, 23)) for _ in range(2))
        assert_same_word(u, tu)
        assert_canonical(u)
        assert_pair_agrees(u, v, tu, tv, probes=rng.sample(range(0, 80), 6))
        start = rng.randint(1, 60)
        for base in (2, 4):
            assert word_weight(u, start, base) == tuple_weight(tu, start, base)


LADDER = [(17, 11), (19, 13), (23, 17), (31, 29), (57, 55), (61, 59), (127, 113)]


@pytest.mark.parametrize("p, q", LADDER, ids=[f"{p}-{q}" for p, q in LADDER])
def test_long_period_ladder_against_tuple_words(p, q):
    rng = random.Random(p * q)
    for _ in range(3):
        parts = [(random_bits(rng, rng.randint(0, 4)), random_bits(rng, n)) for n in (p, q)]
        (u, tu), (v, tv) = (both(*hp) for hp in parts)
        assert_pair_agrees(u, v, tu, tv, probes=(0, 3, p + 5))
        assert word_weight(word_xor(u, v), 1, 4) == tuple_weight(tuple_xor(tu, tv), 1, 4)


def test_absorbed_head_is_canonicalized_whole():
    w = BinaryWord("10" * 1024, "10")
    assert w == BinaryWord("", "10")
    assert BinaryWord("0" + "110" * 300, "110") == BinaryWord("0", "110")
    # A one-bit period takes in the whole run of its bit that ends the head,
    # through the text constructor and through the masks alike.
    for head, period, canonical in [("1" * 2048, "1", ("", "1")),
                                    ("0" + "1" * 2047, "1", ("0", "1")),
                                    ("1" + "0" * 2047, "", ("1", "")),
                                    ("1" + "0" * 2047, "00", ("1", ""))]:
        expected = BinaryWord(*canonical)
        masks = (int(head[::-1], 2), len(head), int(period[::-1] or "0", 2), len(period))
        for w in (BinaryWord(head, period), BinaryWord.from_masks(*masks)):
            assert w == expected and hash(w) == hash(expected), (head, period)
            assert (w.head, w.period) == canonical
            scan = sum(w.bit(k) << k - 1 for k in range(1, 4097))
            assert w.prefix(4096) == scan
            assert [w.prefix(n) for n in range(4)] == [scan & (1 << n) - 1 for n in range(4)]


class TestBitValidation:
    # Each part is '0'/'1' text: other characters raise ValueError, and
    # anything but a str, sequences of bits included, raises TypeError.
    @pytest.mark.parametrize("head, period, error", [
        ((0.5, 1.9), "", TypeError),
        ((1.0,), "", TypeError),
        ("", (Fraction(1),), TypeError),
        ("1a", "", ValueError),
        ("", "0 1", ValueError),
        ((2,), "", TypeError),
        ((-1,), "", TypeError),
        (("01",), "", TypeError),
        ((None,), "", TypeError),
        ((48, 49), "", TypeError),
        ((1, "0", 0.0), "", TypeError),
        (("1", 2), "", TypeError),
        ((True, "x"), "", TypeError),
        ((1, 0), "", TypeError),
        ("", [0, 1], TypeError),
        (b"01", "", TypeError),
        (None, "", TypeError),
        ("2", "", ValueError),
        ("-1", "", ValueError),
        ("1.0", "", ValueError),
        ("\x00\x01", "", ValueError),
    ], ids=["floats", "integral-float", "fraction", "letter", "space", "two", "minus-one",
            "two-characters", "none", "character-codes", "mixed-float", "mixed-two",
            "mixed-letter", "int-tuple", "int-list", "bytes", "none-part", "text-two",
            "text-minus-one", "text-float", "text-character-codes"])
    def test_rejects_anything_but_bits(self, head, period, error):
        message = "^bits must be 0 or 1$" if error is ValueError else "^bits must be a str"
        with pytest.raises(error, match=message):
            BinaryWord(head, period)

    def test_reads_text_position_one_first(self):
        w = BinaryWord("1011", "10")
        assert w == BinaryWord.from_masks(0b1101, 4, 0b01, 2)
        assert (w.head, w.period) == ("1011", "10")
        assert repr(w) == "BinaryWord(head='1011', period='10')"
        assert BinaryWord() == BinaryWord("", "") == BinaryWord.from_masks(0, 0)

    def test_from_masks_rejects_bits_past_the_length(self):
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            BinaryWord.from_masks(0b100, 2)
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            BinaryWord.from_masks(0, 0, 0b10, 1)


def assert_repr_round_trips(w: BinaryWord):
    assert eval(repr(w)) == w
    assert BinaryWord(w.head, w.period) == w


def test_repr_round_trips_on_short_and_seeded_words():
    short = {BinaryWord(*hp) for hp in SHORT}
    for w in short:
        assert_repr_round_trips(w)
    rng = random.Random(1618)
    for _ in range(200):
        assert_repr_round_trips(BinaryWord(*random_parts(rng, 30, 23)))
    tails = [w for w in short if w.period in ("", "1")]
    for excluded, tail in product(short, tails):
        e = EventualDescriptor(excluded, tail)
        assert eval(repr(e)) == e
