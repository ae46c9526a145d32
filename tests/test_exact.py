import operator
import random
from fractions import Fraction

import pytest

from afideals.exact import (
    BinaryWord,
    EmptyRangeError,
    first_diff_index,
    first_index,
    format_word,
    geom_block,
    pow2,
    word_weight,
    word_xor,
)
from afideals.qi import ClosedSubsetQI, format_closed_set, parse_closed_set


def test_pow2_examples():
    assert pow2(-3) == Fraction(1, 8)
    assert pow2(0) == 1
    assert pow2(4) == 16
    for e in range(-300, 301):
        assert pow2(e) == Fraction(2) ** e


def test_geom_block_examples():
    assert geom_block(1) == 1
    assert geom_block(1, 2) == Fraction(3, 4)
    with pytest.raises(EmptyRangeError):
        geom_block(3, 2)


def test_geom_block_against_loop_sum():
    rng = random.Random(11)
    for _ in range(300):
        a = rng.randint(1, 40)
        b = rng.randint(a, 40)
        assert geom_block(a, b) == sum(pow2(-p) for p in range(a, b + 1))


def test_double_dyadic_series_is_two_thirds():
    # sum over n >= 1 of 2**-n * (sum of 2**-k for k = 1..n)
    assert geom_block(1) - word_weight(BinaryWord((), (1,)), 1, 4) == Fraction(2, 3)
    # truncated double-loop oracle
    depth = 64
    partial = sum(pow2(-(n + k)) for n in range(1, depth + 1) for k in range(1, n + 1))
    assert abs(partial - Fraction(2, 3)) < pow2(-60)


def test_quarter_weight_matches_truncation():
    # the sum of 4**-p for p >= a, as the base-4 weight of the all-ones word
    ones = BinaryWord((), (1,))
    for a in range(1, 6):
        partial = sum(Fraction(4) ** (-p) for p in range(a, a + 64))
        assert word_weight(ones, a, 4) == Fraction(4) ** (1 - a) / 3
        assert abs(word_weight(ones, a, 4) - partial) < pow2(-120)


class TestBinaryWord:
    def test_canonical_period_is_primitive(self):
        assert BinaryWord((), (1, 0, 1, 0)) == BinaryWord((), (1, 0))
        assert BinaryWord((), (0, 0)) == BinaryWord()

    def test_canonical_head_is_shortest(self):
        assert BinaryWord((1,), (0, 1)) == BinaryWord((), (1, 0))
        assert BinaryWord((1, 0, 0), ()) == BinaryWord((1,), ())

    def test_equal_streams_compare_equal(self):
        rng = random.Random(5)
        for _ in range(200):
            head = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            period = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]
            w = BinaryWord(head, period)
            padded = BinaryWord(head + [w.bit(len(head) + 1 + i) for i in range(3)],
                                [w.bit(len(head) + 4 + i) for i in range(2 * max(1, len(period)))]
                                if period else [])
            assert (w == padded) == all(
                w.bit(k) == padded.bit(k) for k in range(1, 30)
            )
            if w == padded:
                assert hash(w) == hash(padded)

    def test_prefix_and_ones_match_bit_scan(self):
        rng = random.Random(9)
        for _ in range(300):
            head = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            period = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
            w = BinaryWord(head, period)
            for n in range(len(w.head) + 3 * max(1, len(w.period)) + 1):
                assert w.prefix(n) == tuple(w.bit(k) for k in range(1, n + 1))
                assert w.ones(n) == [k for k in range(1, n + 1) if w.bit(k)]
        with pytest.raises(ValueError):
            w.prefix(-1)

    def test_bit_rejects_nonpositive_positions(self):
        with pytest.raises(ValueError):
            BinaryWord((1,)).bit(0)

    def test_last_one(self):
        assert BinaryWord().last_one() == 0
        assert BinaryWord((0, 1, 1)).last_one() == 3
        assert BinaryWord((), (1,)).last_one() is None


def test_word_xor_bitwise():
    rng = random.Random(7)
    for _ in range(200):
        u = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 4))],
                       [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
        v = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 4))],
                       [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
        x = word_xor(u, v)
        assert all(x.bit(k) == (u.bit(k) ^ v.bit(k)) for k in range(1, 40))


def test_first_diff_index():
    assert first_diff_index(BinaryWord((1,)), BinaryWord((1,))) is None
    assert first_diff_index(BinaryWord((1,)), BinaryWord((0, 1))) == 1
    assert first_diff_index(BinaryWord((), (1, 0)), BinaryWord((), (1,))) == 2
    assert BinaryWord((0, 1)).next_one(2) is None
    assert BinaryWord((1,), (0, 0, 1)).next_one(1) == 4
    # The first hit lies past both periods (2 and 3) but inside the joint one.
    u, v = BinaryWord((), (0, 1)), BinaryWord((), (1, 1, 0))
    assert first_index(u, v, operator.gt) == 6
    assert first_index(v, u, operator.gt) == 1
    assert first_index(v, BinaryWord((), (1,)), operator.gt) is None

    def scan(k, found):
        return next((i for i in range(k, 400) if found(i)), None)

    rng = random.Random(17)
    for _ in range(300):
        u, v = (BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 6))],
                           [rng.randint(0, 1) for _ in range(rng.randint(0, 7))])
                for _ in range(2))
        for i in rng.sample(range(0, 30), 4):
            assert u.next_one(i) == scan(i + 1, u.bit)
        for pred in (operator.ne, operator.gt, operator.and_):
            assert first_index(u, v, pred) == scan(1, lambda k: pred(u.bit(k), v.bit(k)))
        assert first_diff_index(u, v) == scan(1, lambda k: u.bit(k) != v.bit(k))


def test_word_weight_examples():
    assert word_weight(BinaryWord((1, 1))) == Fraction(3, 4)
    assert word_weight(BinaryWord()) == 0
    w = BinaryWord((), (1, 0))
    assert word_weight(w) == Fraction(2, 3)
    partial = sum(pow2(-k) for k in range(1, 65) if w.bit(k))
    assert abs(word_weight(w) - partial) < pow2(-60)
    assert word_weight(BinaryWord((), (1,)), 1, 4) == Fraction(1, 3)
    assert word_weight(BinaryWord((1, 1)), 1, 4) == Fraction(5, 16)
    assert word_weight(w, 2, 4) == Fraction(1, 60)
    partial = sum(Fraction(4) ** -k for k in range(1, 65) if w.bit(k))
    assert abs(word_weight(w, 1, 4) - partial) < pow2(-120)


def test_word_weight_recurrence():
    rng = random.Random(3)
    for _ in range(20):
        w = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 5))],
                       [rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
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
    w = BinaryWord((0, 1), (1, 0))
    assert format_word(w) == "head=01;period=10"
    s = ClosedSubsetQI(w)
    assert format_closed_set(s) == "head=01;period=10"
    assert parse_closed_set(format_closed_set(s)) == s
    assert parse_closed_set("head=;period=") == ClosedSubsetQI()
    with pytest.raises(ValueError):
        parse_closed_set("head=2;period=")
