import random
from fractions import Fraction

import pytest

from afideals.exact import (
    BinaryWord,
    first_diff_index,
    first_outside,
    pow2,
    word_weight,
    word_xor,
)
from afideals.qi import ClosedSubsetQI, format_closed_set, parse_closed_set
from bits import random_bits


def test_pow2_examples():
    assert pow2(-3) == Fraction(1, 8)
    assert pow2(0) == 1
    assert pow2(4) == 16
    for e in range(-300, 301):
        assert pow2(e) == Fraction(2) ** e


def test_double_dyadic_series_is_two_thirds():
    # sum over n >= 1 of 2**-n * (sum of 2**-k for k = 1..n)
    ones = BinaryWord("", "1")
    assert word_weight(ones) - word_weight(ones, 1, 4) == Fraction(2, 3)
    # truncated double-loop oracle
    depth = 64
    partial = sum(pow2(-(n + k)) for n in range(1, depth + 1) for k in range(1, n + 1))
    assert abs(partial - Fraction(2, 3)) < pow2(-60)


def test_quarter_weight_matches_truncation():
    # the sum of 4**-p for p >= a, as the base-4 weight of the all-ones word
    ones = BinaryWord("", "1")
    for a in range(1, 6):
        partial = sum(Fraction(4) ** (-p) for p in range(a, a + 64))
        assert word_weight(ones, a, 4) == Fraction(4) ** (1 - a) / 3
        assert abs(word_weight(ones, a, 4) - partial) < pow2(-120)


class TestBinaryWord:
    def test_canonical_period_is_primitive(self):
        assert BinaryWord("", "1010") == BinaryWord("", "10")
        assert BinaryWord("", "00") == BinaryWord()
        # Every spelling of the zero tail, by either constructor, is one word
        # shown with the empty period, its head ending at its last 1.
        for head in ["", "1", "0110"]:
            mask, shown = int(head[::-1] or "0", 2), head[:head.rfind("1") + 1]
            spellings = [w for length in range(5)
                         for w in (BinaryWord(head, "0" * length),
                                   BinaryWord.from_masks(mask, len(head), 0, length))]
            for w in spellings:
                assert (w, hash(w)) == (spellings[0], hash(spellings[0]))
                assert (w.period, w.period_len, w.is_eventually_zero()) == ("", 0, True)
                assert w.last_one() == len(shown)
                assert repr(w) == f"BinaryWord(head={shown!r}, period='')"

    def test_canonical_head_is_shortest(self):
        assert BinaryWord("1", "01") == BinaryWord("", "10")
        assert BinaryWord("100") == BinaryWord("1")

    def test_equal_streams_compare_equal(self):
        rng = random.Random(5)
        for _ in range(200):
            head = random_bits(rng, rng.randint(0, 4))
            period = random_bits(rng, rng.randint(0, 3))
            w = BinaryWord(head, period)
            padded = BinaryWord(head + "".join(str(w.bit(len(head) + 1 + i)) for i in range(3)),
                                "".join(str(w.bit(len(head) + 4 + i))
                                        for i in range(2 * max(1, len(period))))
                                if period else "")
            assert (w == padded) == all(
                w.bit(k) == padded.bit(k) for k in range(1, 30)
            )
            if w == padded:
                assert hash(w) == hash(padded)

    def test_prefix_and_ones_match_bit_scan(self):
        rng = random.Random(9)
        for _ in range(300):
            w = BinaryWord(random_bits(rng, rng.randint(0, 6)), random_bits(rng, rng.randint(0, 5)))
            for n in range(len(w.head) + 3 * max(1, len(w.period)) + 1):
                assert w.prefix(n) == sum(w.bit(k) << (k - 1) for k in range(1, n + 1))
                assert w.ones(n) == [k for k in range(1, n + 1) if w.bit(k)]
        with pytest.raises(ValueError):
            w.prefix(-1)

    def test_bit_rejects_nonpositive_positions(self):
        with pytest.raises(ValueError):
            BinaryWord("1").bit(0)

    def test_next_one_rejects_negative_positions(self):
        assert BinaryWord("1").next_one(0) == 1
        with pytest.raises(ValueError, match=r"^positions start at 1, got 0$"):
            BinaryWord("1").next_one(-1)

    def test_last_one(self):
        assert BinaryWord().last_one() == 0
        assert BinaryWord("011").last_one() == 3
        assert BinaryWord("", "1").last_one() is None


def test_word_xor_bitwise():
    rng = random.Random(7)
    for _ in range(200):
        u = BinaryWord(random_bits(rng, rng.randint(0, 4)), random_bits(rng, rng.randint(0, 3)))
        v = BinaryWord(random_bits(rng, rng.randint(0, 4)), random_bits(rng, rng.randint(0, 3)))
        x = word_xor(u, v)
        assert all(x.bit(k) == (u.bit(k) ^ v.bit(k)) for k in range(1, 40))


def test_first_diff_index():
    assert first_diff_index(BinaryWord("1"), BinaryWord("1")) is None
    assert first_diff_index(BinaryWord("1"), BinaryWord("01")) == 1
    assert first_diff_index(BinaryWord("", "10"), BinaryWord("", "1")) == 2
    assert BinaryWord("01").next_one(2) is None
    assert BinaryWord("1", "001").next_one(1) == 4
    # The first hit lies past both periods (2 and 3) but inside the joint one.
    u, v = BinaryWord("", "01"), BinaryWord("", "110")
    assert first_outside(u, v) == (6, 1)
    assert first_outside(v, u) == (1, 6)
    assert first_outside(v, BinaryWord("", "1")) == (None, 3)
    assert first_outside(v, v) == (None, None)

    def scan(k, found):
        return next((i for i in range(k, 400) if found(i)), None)

    rng = random.Random(17)
    for _ in range(300):
        u, v = (BinaryWord(random_bits(rng, rng.randint(0, 6)), random_bits(rng, rng.randint(0, 7)))
                for _ in range(2))
        for i in rng.sample(range(0, 30), 4):
            assert u.next_one(i) == scan(i + 1, u.bit)
        assert first_outside(u, v) == (scan(1, lambda k: u.bit(k) > v.bit(k)),
                                       scan(1, lambda k: v.bit(k) > u.bit(k)))
        assert first_diff_index(u, v) == scan(1, lambda k: u.bit(k) != v.bit(k))


def test_word_weight_examples():
    assert word_weight(BinaryWord("11")) == Fraction(3, 4)
    assert word_weight(BinaryWord()) == 0
    w = BinaryWord("", "10")
    assert word_weight(w) == Fraction(2, 3)
    partial = sum(pow2(-k) for k in range(1, 65) if w.bit(k))
    assert abs(word_weight(w) - partial) < pow2(-60)
    assert word_weight(BinaryWord("", "1"), 1, 4) == Fraction(1, 3)
    assert word_weight(BinaryWord("11"), 1, 4) == Fraction(5, 16)
    assert word_weight(w, 2, 4) == Fraction(1, 60)
    partial = sum(Fraction(4) ** -k for k in range(1, 65) if w.bit(k))
    assert abs(word_weight(w, 1, 4) - partial) < pow2(-120)


def test_word_weight_rejects_start_below_one():
    with pytest.raises(ValueError, match=r"^positions start at 1, got 0$"):
        word_weight(BinaryWord("1"), 0)


def test_word_weight_recurrence():
    rng = random.Random(3)
    for _ in range(20):
        w = BinaryWord(random_bits(rng, rng.randint(0, 5)), random_bits(rng, rng.randint(0, 3)))
        for base in (2, 4):
            for i in range(1, 101):
                assert word_weight(w, i, base) == (
                    w.bit(i) * Fraction(base) ** -i + word_weight(w, i + 1, base)
                )


def test_exact_arithmetic_roundtrip():
    rng = random.Random(9)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        y = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert (x + y) - y == x


def test_rational_serialization():
    assert str(Fraction(37, 128)) == "37/128"
    assert str(Fraction(5)) == "5"


def test_word_serialization_round_trip():
    w = BinaryWord("01", "10")
    s = ClosedSubsetQI(w)
    assert format_closed_set(s) == "head=01;period=10"
    assert parse_closed_set(format_closed_set(s)) == s
    assert parse_closed_set("head=;period=") == ClosedSubsetQI()
    with pytest.raises(ValueError):
        parse_closed_set("head=2;period=")
