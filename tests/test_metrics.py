import random
from itertools import product
from fractions import Fraction

import pytest

from afideals.bratteli import EventualDescriptor, level_set
from afideals.checks import random_ideal, random_word
from afideals.exact import BinaryWord, pow2, word_xor
from afideals.metrics import (
    CertifiedValue,
    MalformedComparisonError,
    _pair_indices,
    _singleton_index,
    closed_form_dbeta,
    closed_form_dhausdorff,
    closed_form_dphi,
    d_beta,
    d_beta_truncated,
    d_phi,
    descriptor,
    descriptors,
    first_disagreement,
    settles,
)
from afideals.qi import (
    ClosedSubsetQI,
    EmptySetError,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
    paper_table_descriptor,
    parse_closed_set,
)


def truncation_oracle(i, j, depth: int) -> Fraction:
    """Direct double sum over levels and symmetric-difference indices."""
    return sum(
        (pow2(-(p + k)) for p in range(1, depth + 1)
         for k in level_set(i, p) ^ level_set(j, p)),
        Fraction(0),
    )


def random_eventual(rng: random.Random) -> EventualDescriptor:
    """A derived descriptor of an infinite set, a paper-table descriptor, or
    a random excluded word with a random eventually constant tail word
    (heads up to 6); periods up to 6."""
    kind = rng.randrange(3)
    if kind == 0:
        word = random_word(rng, max_head=6, max_period=6, periodic_prob=1.0)
        return ideal_of_closed_set(ClosedSubsetQI(word))
    if kind == 1:
        n = rng.randint(1, 5)
        return paper_table_descriptor(n if rng.random() < 0.5 else (n, rng.randint(1, 4)))
    word = random_word(rng, max_head=6, max_period=6, periodic_prob=0.7)
    tail = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 6))],
                      (1,) if rng.random() < 0.5 else ())
    return EventualDescriptor(word, tail)


def eventual_pairs(seed: int, count: int) -> list:
    """Seeded pairs of `random_eventual` descriptors."""
    rng = random.Random(seed)
    return [(random_eventual(rng), random_eventual(rng)) for _ in range(count)]


FULL = ideal_of_closed_set(parse_closed_set(""))
VANISH_AT_ZERO = ideal_of_closed_set(parse_closed_set("0"))


class TestCertifiedValue:
    def test_interval(self):
        v = CertifiedValue(0, Fraction(1, 2))
        assert (v.lo, v.hi, v.width) == (0, Fraction(1, 2), Fraction(1, 2))
        assert str(v) == "[0, 1/2]"
        assert v == CertifiedValue(Fraction(0), Fraction(1, 2)) != CertifiedValue(0, 1)

    def test_containment(self):
        outer = CertifiedValue(0, 1)
        inner = CertifiedValue(Fraction(1, 4), Fraction(1, 2))
        assert outer.encloses(inner) and not inner.encloses(outer)
        assert inner.contains(Fraction(1, 3))
        with pytest.raises(ValueError):
            CertifiedValue(1, 0)


class TestFirstDisagreement:
    def test_equal(self):
        e = paper_table_descriptor(3)
        assert first_disagreement(e, e) is None

    def test_published_rows_disagree_at_two(self):
        a = paper_table_descriptor(1)
        for selector in ((2, 1), (2, 2)):
            assert first_disagreement(a, paper_table_descriptor(selector)) == 2

    def test_derived_rows_disagree_at_three(self):
        a = ideal_of_closed_set(parse_closed_set("1/2"))
        b = ideal_of_closed_set(parse_closed_set("1/4,1/8"))
        assert first_disagreement(a, b) == 3

    def test_tail_flag_only(self):
        assert first_disagreement(FULL, VANISH_AT_ZERO) == 1

    def test_matches_level_scan(self):
        # Excluded words here have heads <= 10 and joint periods <= 30, so any
        # disagreement shows by level 41 and a scan to 80 sees it.
        rng = random.Random(37)
        pairs = [(random_ideal(rng), random_ideal(rng)) for _ in range(100)]
        for i, j in pairs + eventual_pairs(37, 200):
            scan = next((p for p in range(1, 81) if level_set(i, p) != level_set(j, p)), None)
            assert first_disagreement(i, j) == scan


class TestDPhi:
    def test_published_rows(self):
        a = paper_table_descriptor(1)
        assert d_phi(a, paper_table_descriptor((2, 1))) == Fraction(1, 4)
        assert d_phi(a, paper_table_descriptor((2, 2))) == Fraction(1, 4)

    def test_derived_rows(self):
        a = ideal_of_closed_set(parse_closed_set("1/2"))
        b = ideal_of_closed_set(parse_closed_set("1/4,1/8"))
        assert d_phi(a, b) == Fraction(1, 8)

    def test_zero_iff_equal_and_symmetry(self):
        rng = random.Random(19)
        pairs = [(random_ideal(rng), random_ideal(rng)) for _ in range(200)]
        for i, j in pairs + eventual_pairs(19, 200):
            assert d_phi(i, j) == d_phi(j, i)
            assert (d_phi(i, j) == 0) == (i == j)

class TestDBeta:
    def test_published_rows_definition_level(self):
        # exact summation over the published level sets
        a = paper_table_descriptor(1)
        for selector, expected in (((2, 1), Fraction(21, 128)), ((2, 2), Fraction(81, 512))):
            b = paper_table_descriptor(selector)
            value = d_beta(a, b)
            assert value == expected
            partial = truncation_oracle(a, b, 200)
            assert partial <= value <= partial + pow2(-200)

    def test_derived_row(self):
        a = ideal_of_closed_set(parse_closed_set("1/2"))
        b = ideal_of_closed_set(parse_closed_set("1/4,1/8"))
        assert d_beta(a, b) == Fraction(13, 128)

    def test_full_vs_vanish_at_zero(self):
        assert d_beta(FULL, VANISH_AT_ZERO) == Fraction(1, 3)

    def test_singleton_vs_zero(self):
        for r in (1, 2, 5):
            e = ideal_of_closed_set(ClosedSubsetQI.from_points([pow2(-r)]))
            assert d_beta(e, VANISH_AT_ZERO) == Fraction(4) ** (-r) / 3 + 0
            assert d_phi(e, VANISH_AT_ZERO) == pow2(-(r + 2))

    def test_periodic_difference_inside_truncation_brackets(self):
        i = ideal_of_closed_set(ClosedSubsetQI(BinaryWord((), (1, 0))))
        assert not settles(i, FULL)
        # the tail flags differ and D has a 1 at every odd k
        assert d_beta(i, FULL) == Fraction(4, 15) + Fraction(1, 3)
        for n, (i, j) in enumerate([(i, FULL)] + eventual_pairs(31, 30)):
            value = d_beta(i, j)
            for depth in (8, 20, 40, 70, 200)[: 5 if n % 15 == 0 else 4]:
                partial = truncation_oracle(i, j, depth)
                assert partial <= value <= partial + pow2(-depth)

    def test_matches_truncation_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            i, j = random_ideal(rng), random_ideal(rng)
            value = d_beta(i, j)
            partial = truncation_oracle(i, j, 80)
            assert partial <= value <= partial + pow2(-80)


class TestDBetaTruncated:
    def test_interval_shape(self):
        a = paper_table_descriptor(1)
        b = paper_table_descriptor((2, 1))
        iv = d_beta_truncated(a, b, 12)
        assert iv.width == pow2(-12)
        assert iv.contains(Fraction(21, 128))
        assert d_beta_truncated(a, b, 13).lo >= iv.lo
        assert iv.encloses(d_beta_truncated(a, b, 13))

    def test_periodic_difference_supported(self):
        i = ideal_of_closed_set(ClosedSubsetQI(BinaryWord((), (1, 0))))
        iv = d_beta_truncated(i, FULL, 40)
        assert iv.width == pow2(-40)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            d_beta_truncated(FULL, VANISH_AT_ZERO, 0)


def d_hausdorff_of_ideals(i, j):
    """d_H between two ideals: the Hausdorff distance of their vanishing sets."""
    return hausdorff(closed_set_of_ideal(i), closed_set_of_ideal(j))


class TestDHausdorffIdeal:
    def test_published_rows(self):
        a = ideal_of_closed_set(parse_closed_set("1/2"))
        assert d_hausdorff_of_ideals(
            a, ideal_of_closed_set(parse_closed_set("1/4,1/8"))
        ) == Fraction(3, 8)
        assert d_hausdorff_of_ideals(
            a, ideal_of_closed_set(parse_closed_set("1/4,1/16"))
        ) == Fraction(7, 16)

    def test_singleton_vs_zero(self):
        e = ideal_of_closed_set(parse_closed_set("1"))
        assert d_hausdorff_of_ideals(e, VANISH_AT_ZERO) == 1

    def test_empty_spectrum(self):
        # the full algebra vanishes nowhere, so d_H to it is undefined
        with pytest.raises(EmptySetError):
            d_hausdorff_of_ideals(FULL, VANISH_AT_ZERO)


class TestClosedForms:
    def test_dphi(self):
        assert closed_form_dphi(1, 2, 1) == Fraction(1, 4)
        assert closed_form_dphi(5, 3, 7) == pow2(-4)

    def test_dbeta_published_values(self):
        assert closed_form_dbeta(1, 2, 1) == Fraction(37, 128)
        assert closed_form_dbeta(1, 2, 2) == Fraction(145, 512)

    def test_dbeta_requires_m_below_n(self):
        with pytest.raises(ValueError):
            closed_form_dbeta(2, 2, 1)

    def test_dhausdorff(self):
        assert closed_form_dhausdorff(1, 2, 1) == Fraction(3, 8)
        assert closed_form_dhausdorff(1, 2, 2) == Fraction(7, 16)
        assert closed_form_dhausdorff(5, 3, 7) == Fraction(3, 32)
        for m in range(1, 8):
            for n in range(1, 8):
                for k in range(1, 8):
                    expected = max(
                        abs(pow2(-m) - pow2(-n)), abs(pow2(-m) - pow2(-(n + k)))
                    )
                    assert closed_form_dhausdorff(m, n, k) == expected


class TestComparisonScaffolding:
    def test_index_extraction(self):
        assert _singleton_index(parse_closed_set("1/2")) == 1
        assert _pair_indices(parse_closed_set("1/4,1/16")) == (2, 2)

    def test_index_extraction_rejects(self):
        for bad in ("", "1", "1/2,1/4", "0", "1/2,0"):
            with pytest.raises(MalformedComparisonError):
                _singleton_index(parse_closed_set(bad))
        for bad in ("", "1/4", "1,1/2", "1/2,1/4,1/8"):
            with pytest.raises(MalformedComparisonError):
                _pair_indices(parse_closed_set(bad))

    def test_compare_paper(self):
        a, b = parse_closed_set("1/2"), parse_closed_set("1/4,1/8")
        di, dj = descriptors(a, b, "paper")
        assert (di, dj) == (paper_table_descriptor(1), paper_table_descriptor((2, 1)))
        assert (di, dj) == (descriptor(a, "paper"), descriptor(b, "paper"))
        assert hausdorff(a, b) == Fraction(3, 8)
        assert d_phi(di, dj) == Fraction(1, 4)
        assert d_beta(di, dj) == Fraction(21, 128)

    def test_compare_derived(self):
        a, b = parse_closed_set("1/2"), parse_closed_set("1/4,1/8")
        di, dj = descriptors(a, b, "derived")
        assert (di, dj) == (descriptor(a, "derived"), descriptor(b, "derived"))
        assert hausdorff(a, b) == Fraction(3, 8)
        assert d_phi(di, dj) == Fraction(1, 8)
        assert d_beta(di, dj) == Fraction(13, 128)

    def test_compare_rejects_unknown_convention(self):
        a, b = parse_closed_set("1/2"), parse_closed_set("1/4,1/8")
        with pytest.raises(ValueError, match="unknown convention"):
            descriptors(a, b, "other")
        with pytest.raises(ValueError, match="unknown convention"):
            descriptor(a, "other")


def test_beta_at_most_twice_phi():
    rng = random.Random(29)
    pairs = [(random_ideal(rng), random_ideal(rng)) for _ in range(400)]
    for i, j in pairs + eventual_pairs(29, 200):
        assert d_beta(i, j) <= 2 * d_phi(i, j)
        assert d_beta(i, j) <= Fraction(2, 3)
        assert d_phi(i, j) <= Fraction(1, 2)


def test_level_sets_match_set_builder():
    rng = random.Random(37)
    for _ in range(200):
        e = random_eventual(rng)
        s = ClosedSubsetQI(e.excluded, include_zero=rng.random() < 0.5)
        derived = ideal_of_closed_set(s)
        for p in range(1, len(e.tail.head) + 12):
            rule = {k for k in range(1, p) if e.excluded.bit(k) == 0}
            assert level_set(e, p) == frozenset(rule | ({p} if e.tail.bit(p) else set()))
            tail_meets = s.contains_zero or s.word.last_one() >= p
            assert level_set(derived, p) == frozenset(rule | (set() if tail_meets else {p}))


def test_settles_matches_xor_word():
    rng = random.Random(41)
    words = []
    for p, q in ((3, 2), (6, 6), (31, 29), (61, 61), (127, 113), (113, 113)):
        u = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 9))],
                       [rng.randint(0, 1) for _ in range(p)])
        v = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 9))],
                       [rng.randint(0, 1) for _ in range(q)])
        # a word with u's tail from past u's head on, after a different head
        h = len(u.head) + rng.randint(0, 4)
        tail = BinaryWord([rng.randint(0, 1) for _ in range(h)],
                          [u.bit(k) for k in range(h + 1, h + 1 + len(u.period))])
        words += [(u, v), (u, tail), (tail, u)]
    pairs = [(i.excluded, j.excluded) for i, j in eventual_pairs(41, 300)] + words
    seen = set()
    for u, v in pairs:
        i = EventualDescriptor(u, BinaryWord())
        j = EventualDescriptor(v, BinaryWord((), (1,)))
        expected = word_xor(u, v).is_eventually_zero()
        assert settles(i, j) == settles(j, i) == expected
        seen.add(expected)
    assert seen == {True, False}


def small_closed_sets() -> list:
    """Every nonempty closed set whose word has a head of at most 4 bits and
    a period of at most 3."""
    words = {BinaryWord(head, period)
             for h in range(5) for head in product((0, 1), repeat=h)
             for q in range(4) for period in product((0, 1), repeat=q)}
    sets = {ClosedSubsetQI(w, zero) for w in words for zero in (False, True)}
    return sorted((s for s in sets if not s.is_empty()), key=repr)


def level_masks(e: EventualDescriptor, depth: int) -> list:
    """Levels 1..depth of e, each as the integer sum of 2**(depth-k) over its indices k."""
    return [sum(1 << (depth - k) for k in level_set(e, p)) for p in range(1, depth + 1)]


def check_against_levels(i, j, mi, mj, depth, truncations):
    """d_beta inside the depth-N brackets of the level-set double sum,
    first_disagreement equal to a level scan, and d_beta_truncated equal to
    the double sum at each depth in `truncations`.  The scan must reach
    every disagreement: `depth` lies past the last one either pair can have.
    Values are compared as integer numerators over 2**(2n)."""
    sums, total = [], 0
    for p, (a, b) in enumerate(zip(mi, mj), 1):
        total += (a ^ b) << (depth - p)  # the level-p summands, over 2**(2*depth)
        sums.append(total)
    value = d_beta(i, j)

    def bracketed(x: Fraction, n: int) -> bool:
        lo = sums[n - 1] >> 2 * (depth - n)
        return lo * x.denominator <= x.numerator << 2 * n <= (lo + (1 << n)) * x.denominator

    def equals(x: Fraction, n: int, offset: int) -> bool:
        lo = sums[n - 1] >> 2 * (depth - n)
        return x.numerator << 2 * n == (lo + offset) * x.denominator

    assert bracketed(value, depth)
    scan = next((p for p, (a, b) in enumerate(zip(mi, mj), 1) if a != b), None)
    assert first_disagreement(i, j) == scan
    for n in truncations:
        iv = d_beta_truncated(i, j, n)
        assert equals(iv.lo, n, 0) and equals(iv.hi, n, 1 << n) and bracketed(value, n)


def test_exhaustive_small_sets_against_level_sets():
    # Excluded words with heads <= 4 and joint periods <= 6 differ first by
    # position 10, and tail words (0 up to a last point <= 4, then 1) by 5,
    # so every disagreement shows by level 11.
    sets = small_closed_sets()
    assert len(sets) == 175
    ideals = [ideal_of_closed_set(s) for s in sets]
    masks = [level_masks(e, 16) for e in ideals]
    n = 0
    for i, mi in zip(ideals, masks):
        for j, mj in zip(ideals, masks):
            check_against_levels(i, j, mi, mj, 16, (1 + n % 16,))
            n += 1
    assert n == 30625


def test_two_word_descriptors_against_level_sets():
    # Tail-word heads end by level 10, and excluded words have heads <= 10
    # and joint periods <= 30, so every disagreement shows by level 41.
    pairs = eventual_pairs(43, 240)
    # A tail word that is 1 somewhere but eventually 0 comes from neither
    # convention.
    assert sum(1 in e.tail.head and not e.tail.period for pair in pairs for e in pair) > 40
    for n, (i, j) in enumerate(pairs):
        mi, mj = level_masks(i, 80), level_masks(j, 80)
        check_against_levels(i, j, mi, mj, 80, (1 + n % 16, 17 + n % 24, 80))
