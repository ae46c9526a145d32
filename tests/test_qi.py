import random
from fractions import Fraction
from itertools import product

import pytest

from afideals.bratteli import EventualDescriptor, level_set
from afideals.checks import random_closed_set
from afideals.exact import BinaryWord, pow2
from afideals.qi import (
    ZERO,
    ClosedSubsetQI,
    DescriptorConventionError,
    EmptySetError,
    QIPoint,
    closed_set_of_ideal,
    contains,
    format_closed_set,
    hausdorff,
    ideal_of_closed_set,
    paper_table_descriptor,
    parse_closed_set,
    point_distance,
)


def enumerate_values(s: ClosedSubsetQI, depth: int):
    """Member values of s with index <= depth, plus 0 when present."""
    vals = [pow2(1 - k) for k in s.point_indices(depth)]
    if s.contains_zero:
        vals.append(Fraction(0))
    return vals


def random_bits(rng, n: int, one: bool = False):
    """n random bits; with `one`, at least one of them is 1."""
    bits = [rng.randint(0, 1) for _ in range(n)]
    if one and not any(bits):
        bits[rng.randrange(n)] = 1
    return bits


def all_words(max_head: int, max_period: int) -> set:
    """Every canonical word with head and period at most these lengths."""
    return {BinaryWord(head, period)
            for h in range(max_head + 1) for head in product((0, 1), repeat=h)
            for p in range(max_period + 1) for period in product((0, 1), repeat=p)}


class TestQIPoint:
    def test_values(self):
        assert QIPoint(1).value == 1
        assert QIPoint(4).value == Fraction(1, 8)
        assert ZERO.value == 0 and ZERO.is_zero

    def test_from_value(self):
        assert QIPoint.from_value(Fraction(1, 8)) == QIPoint(4)
        assert QIPoint.from_value(0) == ZERO
        for bad in (Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                QIPoint.from_value(bad)

    def test_round_trip(self):
        for k in range(1, 40):
            assert QIPoint.from_value(QIPoint(k).value) == QIPoint(k)


class TestClosedSubset:
    def test_infinite_sets_contain_zero(self):
        s = ClosedSubsetQI(BinaryWord((), (1, 0)))
        assert s.contains_zero and not s.is_finite

    def test_finite_set_with_explicit_zero(self):
        s = parse_closed_set("1/2,0")
        assert s.contains_zero and not s.is_finite
        assert contains(s, QIPoint(2)) and contains(s, ZERO)
        assert not contains(s, QIPoint(1))

    def test_empty(self):
        assert parse_closed_set("").is_empty()
        assert not parse_closed_set("0").is_empty()
        assert ClosedSubsetQI().is_empty()
        assert ClosedSubsetQI(BinaryWord((0, 0), (0,))).is_empty()
        assert not ClosedSubsetQI(BinaryWord(), include_zero=True).is_empty()
        assert not ClosedSubsetQI(BinaryWord((), (1,))).is_empty()
        assert not ClosedSubsetQI(BinaryWord((0, 1))).is_empty()

    def test_from_points_order_independent(self):
        assert parse_closed_set("1/8,1,1/2") == parse_closed_set("1,1/2,1/8")


class TestPointDistance:
    def test_member_distance_zero(self):
        s = parse_closed_set("1,1/4")
        assert point_distance(QIPoint(1), s) == 0

    def test_example(self):
        s = parse_closed_set("1/4,1/8")
        assert point_distance(QIPoint(2), s) == Fraction(1, 4)

    def test_zero_to_finite_set(self):
        assert point_distance(ZERO, parse_closed_set("1,1/2")) == Fraction(1, 2)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            point_distance(ZERO, parse_closed_set(""))

    def test_exhaustive_against_enumeration(self):
        for word in all_words(5, 3):
            for zero in {False, word.is_eventually_zero()}:
                s = ClosedSubsetQI(word, include_zero=zero)
                if s.is_empty():
                    continue
                vals = enumerate_values(s, len(word.head) + 2 * max(1, len(word.period)) + 12)
                for x in [QIPoint(i) for i in range(1, 13)] + [ZERO]:
                    assert point_distance(x, s) == min(abs(x.value - v) for v in vals)

    def test_against_enumeration_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            s = random_closed_set(rng)
            depth = len(s.word.head) + 2 * max(1, len(s.word.period)) + 40
            vals = enumerate_values(s, depth)
            for i in list(rng.sample(range(1, 12), 4)) + [None]:
                x = QIPoint(i)
                assert point_distance(x, s) == min(abs(x.value - v) for v in vals)


class TestHausdorff:
    def test_published_rows(self):
        assert hausdorff(parse_closed_set("1/2"), parse_closed_set("1/4,1/8")) == Fraction(3, 8)
        assert hausdorff(parse_closed_set("1/2"), parse_closed_set("1/4,1/16")) == Fraction(7, 16)

    def test_identity_and_symmetry(self):
        s = parse_closed_set("1,1/8,0")
        t = parse_closed_set("1/2")
        assert hausdorff(s, s) == 0
        assert hausdorff(s, t) == hausdorff(t, s)

    def test_singleton_vs_pair_sweep(self):
        for m in range(1, 9):
            a = ClosedSubsetQI.from_points([pow2(-m)])
            for n in range(1, 9):
                for k in range(1, 9):
                    b = ClosedSubsetQI.from_points([pow2(-n), pow2(-(n + k))])
                    expected = max(
                        abs(pow2(-m) - pow2(-n)), abs(pow2(-m) - pow2(-(n + k)))
                    )
                    assert hausdorff(a, b) == expected

    def test_against_brute_force(self):
        rng = random.Random(13)
        pairs = [(random_closed_set(rng), random_closed_set(rng)) for _ in range(150)]
        for p, q in ((5, 3), (7, 5), (11, 9), (13, 11)):
            for _ in range(4):
                s = ClosedSubsetQI(BinaryWord(random_bits(rng, 2), random_bits(rng, p, one=True)))
                # A period of q with a single 0: s may first leave t only after
                # both periods, inside the joint one.
                dense = [1] * q
                dense[rng.randrange(q)] = 0
                # t covers every point of s for more than one joint period
                # (p*q positions) before its own words take over.
                cover = [s.word.bit(k) | rng.randint(0, 1)
                         for k in range(1, 3 + p * q + rng.randint(1, p * q))]
                period = random_bits(rng, q, one=True) if rng.random() < 0.5 else ()
                for t in (ClosedSubsetQI(BinaryWord((), dense)),
                          ClosedSubsetQI(BinaryWord(cover, period), rng.random() < 0.5)):
                    pairs += [(s, t), (t, s)]
        for s, t in pairs:
            depth = (len(s.word.head) + len(t.word.head)
                     + 4 * max(1, len(s.word.period)) * max(1, len(t.word.period)) + 40)
            # Member values times 2**(depth-1), so the scan stays in integers.
            sv = [1 << (depth - k) for k in s.point_indices(depth)] + [0] * s.contains_zero
            tv = [1 << (depth - k) for k in t.point_indices(depth)] + [0] * t.contains_zero
            brute = max(
                max(min(abs(x - y) for y in tv) for x in sv),
                max(min(abs(x - y) for y in sv) for x in tv),
            )
            assert hausdorff(s, t) == Fraction(brute, 1 << (depth - 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            hausdorff(parse_closed_set(""), parse_closed_set("1"))


class TestIdealOfClosedSet:
    def test_singleton_levels(self):
        e = ideal_of_closed_set(parse_closed_set("1/2"))
        assert level_set(e, 1) == frozenset()
        assert level_set(e, 2) == frozenset({1})
        assert level_set(e, 3) == frozenset({1, 3})
        assert level_set(e, 6) == frozenset({1, 3, 4, 5, 6})

    def test_empty_set_gives_full_algebra(self):
        e = ideal_of_closed_set(parse_closed_set(""))
        assert all(level_set(e, p) == frozenset(range(1, p + 1)) for p in range(1, 10))

    def test_zero_gives_vanish_at_zero(self):
        e = ideal_of_closed_set(parse_closed_set("0"))
        assert all(level_set(e, p) == frozenset(range(1, p)) for p in range(1, 10))

    def test_infinite_set(self):
        # members at every odd index: tail summand never enters
        e = ideal_of_closed_set(ClosedSubsetQI(BinaryWord((), (1, 0))))
        assert level_set(e, 5) == frozenset({2, 4})

    def test_antitone(self):
        small = parse_closed_set("1/2")
        large = parse_closed_set("1/2,1/8,0")
        ei, ej = ideal_of_closed_set(small), ideal_of_closed_set(large)
        assert all(level_set(ej, p) <= level_set(ei, p) for p in range(1, 20))


class TestClosedSetOfIdeal:
    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(300):
            s = random_closed_set(rng, nonempty=False)
            assert closed_set_of_ideal(ideal_of_closed_set(s)) == s

    def test_rejects_table_convention(self):
        with pytest.raises(DescriptorConventionError):
            closed_set_of_ideal(paper_table_descriptor(1))

    def test_rejects_inconsistent_tail_flag(self):
        e = EventualDescriptor(BinaryWord((), (1, 0)), BinaryWord((), (1,)))
        with pytest.raises(DescriptorConventionError):
            closed_set_of_ideal(e)


class TestPaperTableDescriptor:
    def test_singleton_branches(self):
        e = paper_table_descriptor(2)
        assert level_set(e, 1) == frozenset({1})
        assert level_set(e, 2) == frozenset({1, 2})
        assert level_set(e, 3) == frozenset({1, 2})
        assert level_set(e, 4) == frozenset({1, 2, 4})

    def test_pair_branches(self):
        e = paper_table_descriptor((2, 1))
        assert level_set(e, 2) == frozenset({1, 2})
        assert level_set(e, 3) == frozenset({1, 2})
        assert level_set(e, 4) == frozenset({1, 2})
        assert level_set(e, 5) == frozenset({1, 2, 5})

    def test_pair_middle_branch(self):
        e = paper_table_descriptor((2, 3))
        assert level_set(e, 4) == frozenset({1, 2, 4})
        assert level_set(e, 5) == frozenset({1, 2, 4, 5})
        assert level_set(e, 6) == frozenset({1, 2, 4, 5})
        assert level_set(e, 7) == frozenset({1, 2, 4, 5, 7})

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            paper_table_descriptor(0)
        with pytest.raises(ValueError):
            paper_table_descriptor((1, 0))


class TestSerialization:
    def test_point_list_round_trip(self):
        for text in ("1,1/2,1/8", "1/4", "0", "1/2,0"):
            s = parse_closed_set(text)
            assert format_closed_set(s) == text
            assert parse_closed_set(format_closed_set(s)) == s

    def test_word_form(self):
        s = parse_closed_set("head=;period=10")
        assert s == ClosedSubsetQI(BinaryWord((), (1, 0)))
        assert format_closed_set(s) == "head=;period=10"

    def test_empty(self):
        assert format_closed_set(parse_closed_set("")) == "head=;period="

    def test_rejects_garbage(self):
        for bad in ("1/3", "2", "head=21;period=", "1,,1/2"):
            with pytest.raises(ValueError):
                parse_closed_set(bad)

    def test_point_tokens(self):
        assert parse_closed_set("0") == parse_closed_set("0/5") == ClosedSubsetQI(include_zero=True)
        assert parse_closed_set("2/4") == parse_closed_set("01/2") == parse_closed_set("1/2")
        assert parse_closed_set("1,3/24") == ClosedSubsetQI(BinaryWord((1, 0, 0, 1)))

    @pytest.mark.parametrize("token", ["1/3", "2", "5/8", "-1/2", "1/0", "0/0", "0.5", "+1/2", ""])
    def test_bad_point_token_message(self, token):
        with pytest.raises(ValueError) as info:
            parse_closed_set("1/2," + token)
        assert str(info.value) == f"bad point token: {token!r}"
