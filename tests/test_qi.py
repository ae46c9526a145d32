import random
from fractions import Fraction

import pytest

from afideals.bratteli import EventualDescriptor, level_set
from afideals.checks import random_closed_set
from afideals.exact import BinaryWord, pow2
from afideals.metrics import MalformedComparisonError, descriptor
from afideals.qi import (
    ClosedSubsetQI,
    DescriptorConventionError,
    EmptySetError,
    closed_set_of_ideal,
    format_closed_set,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
    point_distance,
)
from bits import bit_strings


def enumerate_values(s: ClosedSubsetQI, depth: int):
    """Member values of s with index <= depth, plus 0 when present."""
    vals = [pow2(1 - k) for k in s.word.ones(depth)]
    if s.contains_zero:
        vals.append(Fraction(0))
    return vals


def value(i) -> Fraction:
    """The point x_i = 2**(1-i), or 0 when i is None."""
    return Fraction(0) if i is None else pow2(1 - i)


def random_bits(rng, n: int, one: bool = False) -> str:
    """n random bits; with `one`, at least one of them is 1."""
    bits = [str(rng.randint(0, 1)) for _ in range(n)]
    if one and "1" not in bits:
        bits[rng.randrange(n)] = "1"
    return "".join(bits)


def all_words(max_head: int, max_period: int) -> set:
    """Every canonical word with head and period at most these lengths."""
    return {BinaryWord(head, period)
            for head in bit_strings(max_head) for period in bit_strings(max_period)}


class TestPointIndex:
    def test_values(self):
        # index k is the point 2**(1-k), None the point 0: their distance to {0}
        to_zero = parse_closed_set("0")
        assert point_distance(1, to_zero) == 1
        assert point_distance(4, to_zero) == Fraction(1, 8)
        assert point_distance(None, to_zero) == 0

    def test_round_trip(self):
        # a point's value, written as a literal, parses back to its index
        for k in range(1, 40):
            s = parse_closed_set(str(pow2(1 - k)))
            assert s.word.ones(40) == [k] and s.word.bit(k)

    def test_rejects_index_below_one(self):
        for i in (0, -1):
            with pytest.raises(ValueError):
                point_distance(i, parse_closed_set("1"))


class TestClosedSubset:
    def test_infinite_sets_contain_zero(self):
        s = ClosedSubsetQI(BinaryWord("", "10"))
        assert s.contains_zero and not s.is_finite

    def test_finite_set_with_explicit_zero(self):
        s = parse_closed_set("1/2,0")
        assert s.contains_zero and not s.is_finite
        assert s.word.bit(2) and s.contains_zero
        assert not s.word.bit(1)

    def test_empty(self):
        assert parse_closed_set("").is_empty()
        assert not parse_closed_set("0").is_empty()
        assert ClosedSubsetQI().is_empty()
        assert ClosedSubsetQI(BinaryWord("00", "0")).is_empty()
        assert not ClosedSubsetQI(BinaryWord(), include_zero=True).is_empty()
        assert not ClosedSubsetQI(BinaryWord("", "1")).is_empty()
        assert not ClosedSubsetQI(BinaryWord("01")).is_empty()

    def test_point_list_order_independent(self):
        assert parse_closed_set("1/8,1,1/2") == parse_closed_set("1,1/2,1/8")


class TestPointDistance:
    def test_member_distance_zero(self):
        s = parse_closed_set("1,1/4")
        assert point_distance(1, s) == 0

    def test_example(self):
        s = parse_closed_set("1/4,1/8")
        assert point_distance(2, s) == Fraction(1, 4)

    def test_zero_to_finite_set(self):
        assert point_distance(None, parse_closed_set("1,1/2")) == Fraction(1, 2)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            point_distance(None, parse_closed_set(""))

    def test_exhaustive_against_enumeration(self):
        for word in all_words(5, 3):
            for zero in {False, word.is_eventually_zero()}:
                s = ClosedSubsetQI(word, include_zero=zero)
                if s.is_empty():
                    continue
                vals = enumerate_values(s, len(word.head) + 2 * max(1, len(word.period)) + 12)
                for i in [*range(1, 13), None]:
                    assert point_distance(i, s) == min(abs(value(i) - v) for v in vals)

    def test_against_enumeration_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            s = random_closed_set(rng)
            depth = len(s.word.head) + 2 * max(1, len(s.word.period)) + 40
            vals = enumerate_values(s, depth)
            for i in list(rng.sample(range(1, 12), 4)) + [None]:
                assert point_distance(i, s) == min(abs(value(i) - v) for v in vals)


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
            a = parse_closed_set(f"1/{2**m}")
            for n in range(1, 9):
                for k in range(1, 9):
                    b = parse_closed_set(f"1/{2**n},1/{2**(n + k)}")
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
                gap = rng.randrange(q)
                dense = "1" * gap + "0" + "1" * (q - 1 - gap)
                # t covers every point of s for more than one joint period
                # (p*q positions) before its own words take over.
                cover = "".join(str(s.word.bit(k) | rng.randint(0, 1))
                                for k in range(1, 3 + p * q + rng.randint(1, p * q)))
                period = random_bits(rng, q, one=True) if rng.random() < 0.5 else ""
                for t in (ClosedSubsetQI(BinaryWord("", dense)),
                          ClosedSubsetQI(BinaryWord(cover, period), rng.random() < 0.5)):
                    pairs += [(s, t), (t, s)]
        for s, t in pairs:
            depth = (len(s.word.head) + len(t.word.head)
                     + 4 * max(1, len(s.word.period)) * max(1, len(t.word.period)) + 40)
            # Member values times 2**(depth-1), so the scan stays in integers.
            sv = [1 << (depth - k) for k in s.word.ones(depth)] + [0] * s.contains_zero
            tv = [1 << (depth - k) for k in t.word.ones(depth)] + [0] * t.contains_zero
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
        e = ideal_of_closed_set(ClosedSubsetQI(BinaryWord("", "10")))
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
            closed_set_of_ideal(descriptor(parse_closed_set("1/2"), "paper"))

    def test_rejects_inconsistent_tail_flag(self):
        # Excluded points recur forever, yet the tail summand is eventually in.
        e = EventualDescriptor(BinaryWord("", "10"), BinaryWord("", "1"))
        with pytest.raises(DescriptorConventionError,
                           match=r"^level 1 is \[1\], support rule gives \[\]$"):
            closed_set_of_ideal(e)


def table_singleton(m: int) -> EventualDescriptor:
    """The published table's descriptor of {2**-m}, by its formula:
    excluded word 0^m 1, tail word 1^m 0 1 1 ..."""
    return EventualDescriptor(BinaryWord("0" * m + "1"), BinaryWord("1" * m + "0", "1"))


def table_pair(n: int, k: int) -> EventualDescriptor:
    """The published table's descriptor of {2**-n, 2**-(n+k)}, by its formula:
    excluded word 0^n 1 0^(k-1) 1, tail word 1^n 0 1^(k-1) 0 1 1 ..."""
    return EventualDescriptor(BinaryWord("0" * n + "1" + "0" * (k - 1) + "1"),
                              BinaryWord("1" * n + "0" + "1" * (k - 1) + "0", "1"))


class TestPaperTableDescriptor:
    def test_singleton_branches(self):
        e = descriptor(parse_closed_set("1/4"), "paper")
        assert level_set(e, 1) == frozenset({1})
        assert level_set(e, 2) == frozenset({1, 2})
        assert level_set(e, 3) == frozenset({1, 2})
        assert level_set(e, 4) == frozenset({1, 2, 4})

    def test_pair_branches(self):
        e = descriptor(parse_closed_set("1/4,1/8"), "paper")
        assert level_set(e, 2) == frozenset({1, 2})
        assert level_set(e, 3) == frozenset({1, 2})
        assert level_set(e, 4) == frozenset({1, 2})
        assert level_set(e, 5) == frozenset({1, 2, 5})

    def test_pair_middle_branch(self):
        e = descriptor(parse_closed_set("1/4,1/32"), "paper")
        assert level_set(e, 4) == frozenset({1, 2, 4})
        assert level_set(e, 5) == frozenset({1, 2, 4, 5})
        assert level_set(e, 6) == frozenset({1, 2, 4, 5})
        assert level_set(e, 7) == frozenset({1, 2, 4, 5, 7})

    def test_matches_published_formula(self):
        for m in range(1, 65):
            s = parse_closed_set(f"1/{2**m}")
            assert descriptor(s, "paper") == table_singleton(m)
        for n in range(1, 33):
            for k in range(1, 33):
                s = parse_closed_set(f"1/{2**n},1/{2**(n + k)}")
                assert descriptor(s, "paper") == table_pair(n, k)

    def test_rejects_bad_args(self):
        # m = 0 and n = 0 put the point 1 = 2**0 in the set
        with pytest.raises(MalformedComparisonError):
            descriptor(parse_closed_set("1"), "paper")
        with pytest.raises(MalformedComparisonError):
            descriptor(parse_closed_set("1,1/2"), "paper")

    @pytest.mark.parametrize("text", ["1/2,0", "head=;period=01"])
    def test_rejects_sets_outside_the_table(self, text):
        # A set holding 0, or with points accumulating at 0, has no table row.
        with pytest.raises(MalformedComparisonError,
                           match="^paper convention covers only singletons and pairs"):
            descriptor(parse_closed_set(text), "paper")


class TestSerialization:
    def test_point_list_round_trip(self):
        for text in ("1,1/2,1/8", "1/4", "0", "1/2,0"):
            s = parse_closed_set(text)
            assert format_closed_set(s) == text
            assert parse_closed_set(format_closed_set(s)) == s

    def test_word_form(self):
        s = parse_closed_set("head=;period=10")
        assert s == ClosedSubsetQI(BinaryWord("", "10"))
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
        assert parse_closed_set("1,3/24") == ClosedSubsetQI(BinaryWord("1001"))

    # Both parts take ASCII digits only, though int() reads any Unicode digit.
    @pytest.mark.parametrize("token", ["1/3", "2", "5/8", "-1/2", "1/0", "0/0", "0.5", "+1/2", "",
                                       "١/2", "１/4"])
    def test_bad_point_token_message(self, token):
        with pytest.raises(ValueError) as info:
            parse_closed_set("1/2," + token)
        assert str(info.value) == f"bad point token: {token!r}"
