import math
import operator
import random
from collections import Counter
from itertools import combinations, product
from fractions import Fraction

import pytest

from afideals.bratteli import (
    EventualDescriptor,
    FiniteDescriptor,
    first_disagreement,
    ideal_closure,
    is_ideal,
    level_set,
    qi_diagram,
    to_finite,
)
from afideals.checks import random_ideal, random_mask
from afideals.exact import BinaryWord, pow2, word_xor
from afideals.metrics import (
    CertifiedValue,
    MalformedComparisonError,
    d_beta,
    d_beta_truncated,
    d_phi,
    descriptor,
    descriptors,
    settles,
)
from afideals.qi import (
    ClosedSubsetQI,
    EmptySetError,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
)
from bits import intersection, random_bits, short_sets, union


def truncation_oracle(i, j, depth: int) -> Fraction:
    """Direct double sum over levels and symmetric-difference indices."""
    return sum(
        (pow2(-(p + k)) for p in range(1, depth + 1)
         for k in level_set(i, p) ^ level_set(j, p)),
        Fraction(0),
    )


def random_word_upto_6(rng: random.Random, periodic_prob: float) -> BinaryWord:
    """A head of at most 6 bits, then with probability periodic_prob a
    period of 1 to 6 bits, drawn as `random_word` draws its shorter ones."""
    h = rng.randint(0, 6)
    head = random_mask(rng, h)
    length = rng.randint(1, 6) if rng.random() < periodic_prob else 0
    return BinaryWord.from_masks(head, h, random_mask(rng, length), length)


def random_eventual(rng: random.Random) -> EventualDescriptor:
    """A derived descriptor of an infinite set, a paper-table descriptor, or
    a random excluded word with a random eventually constant tail word
    (heads up to 6); periods up to 6."""
    kind = rng.randrange(3)
    if kind == 0:
        word = random_word_upto_6(rng, periodic_prob=1.0)
        return ideal_of_closed_set(ClosedSubsetQI(word))
    if kind == 1:
        n = rng.randint(1, 5)
        return table(n) if rng.random() < 0.5 else table(n, rng.randint(1, 4))
    word = random_word_upto_6(rng, periodic_prob=0.7)
    tail = BinaryWord(random_bits(rng, rng.randint(0, 6)), "1" if rng.random() < 0.5 else "")
    return EventualDescriptor(word, tail)


def eventual_pairs(seed: int, count: int) -> list:
    """Seeded pairs of `random_eventual` descriptors."""
    rng = random.Random(seed)
    return [(random_eventual(rng), random_eventual(rng)) for _ in range(count)]


def table(m: int, k: int = 0) -> EventualDescriptor:
    """Published table descriptor of {2**-m}, or with k of {2**-m, 2**-(m+k)}."""
    points = f"1/{2**m}" + (f",1/{2**(m + k)}" if k else "")
    return descriptor(parse_closed_set(points), "paper")


def family_sets(m: int, n: int, k: int) -> tuple:
    """The paper's test family: {2**-m} and {2**-n, 2**-(n+k)}."""
    return parse_closed_set(str(pow2(-m))), parse_closed_set(f"{pow2(-n)},{pow2(-(n + k))}")


def paper_descriptors(m: int, n: int, k: int) -> tuple:
    """The paper-convention descriptors of {2**-m} and {2**-n, 2**-(n+k)}."""
    return descriptors(*family_sets(m, n, k), "paper")


def family_forms(m: int, n: int, k: int) -> dict:
    """(d_phi, d_beta) between {2**-m} and {2**-n, 2**-(n+k)} under each
    convention, in the five regimes the `metrics` docstring derives, with
    q, r, s = 4**-m, 4**-n, 4**-(n+k)."""
    q, r, s = (Fraction(1, 4**e) for e in (m, n, n + k))
    if m == n:
        return {"paper": (pow2(-(n + k + 1)), s / 2), "derived": (pow2(-(n + 2)), r / 12 + s / 6)}
    if m == n + k:
        return {"paper": (pow2(-(n + 1)), r / 2), "derived": (pow2(-(n + 2)), r / 4)}
    phi = pow2(-(min(m, n) + 1))
    derived_beta = q / 6 + r / 4 + s / 3 if m > n + k else q / 3 + r / 4 + s / 6
    return {"paper": (phi, (q + r + s) / 2), "derived": (phi / 2, derived_beta)}


FULL = ideal_of_closed_set(parse_closed_set(""))
VANISH_AT_ZERO = ideal_of_closed_set(parse_closed_set("0"))
# The 175 nonempty closed sets whose words have heads <= 4 and periods <= 3.
SMALL_SETS = [s for s in short_sets() if not s.is_empty()]


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

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.2), (0, 0.5), (Fraction(1, 3), 1.0),
                                        ("1/3", 1), (Fraction(1, 3), "1")],
                             ids=["floats", "float-hi", "float-hi-fraction-lo", "text",
                                  "text-hi-fraction-lo"])
    def test_rejects_non_exact_endpoints(self, lo, hi):
        with pytest.raises(TypeError, match="^endpoints must be int or Fraction, got "):
            CertifiedValue(lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (False, True), (True, 2), (-3, Fraction(1, 2)),
                                        (Fraction(1, 4), 1)],
                             ids=["ints", "bools", "bool-int", "int-fraction", "fraction-int"])
    def test_int_and_bool_endpoints_become_fractions(self, lo, hi):
        v = CertifiedValue(lo, hi)
        assert (type(v.lo), type(v.hi)) == (Fraction, Fraction)
        assert (v.lo, v.hi) == (lo, hi)
        assert type(v.width) is Fraction

    def test_fraction_endpoints_are_kept(self):
        lo, hi = Fraction(1, 3), Fraction(5, 12)
        v = CertifiedValue(lo, hi)
        assert v.lo is lo and v.hi is hi

    @pytest.mark.parametrize("lo, hi", [(1, 0), (True, False), (Fraction(1, 2), Fraction(1, 3)),
                                        (1, Fraction(1, 2))],
                             ids=["ints", "bools", "fractions", "int-fraction"])
    def test_reversed_endpoints_raise(self, lo, hi):
        with pytest.raises(ValueError, match="^lo must not exceed hi$"):
            CertifiedValue(lo, hi)


@pytest.mark.parametrize("value", [
    BinaryWord("10", "01"),
    FiniteDescriptor([{1}, {1, 3}]),
    EventualDescriptor(BinaryWord("1"), BinaryWord("", "1")),
    CertifiedValue(0, Fraction(1, 2)),
    ClosedSubsetQI(BinaryWord("1", "10"), include_zero=True),
], ids=lambda value: type(value).__name__)
def test_equality_with_other_types_is_false(value):
    """Each value type's == is False, and != True, against an object and a
    tuple of the value's own fields."""
    fields = tuple(getattr(value, slot) for slot in type(value).__slots__)
    for other in (object(), fields):
        assert not value == other and value != other, other
        assert not other == value and other != value, other


class TestFirstDisagreement:
    def test_equal(self):
        e = table(3)
        assert first_disagreement(e, e) is None

    def test_published_rows_disagree_at_two(self):
        a = table(1)
        for k in (1, 2):
            assert first_disagreement(a, table(2, k)) == 2

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
        a = table(1)
        assert d_phi(a, table(2, 1)) == Fraction(1, 4)
        assert d_phi(a, table(2, 2)) == Fraction(1, 4)

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
        a = table(1)
        for k, expected in ((1, Fraction(21, 128)), (2, Fraction(81, 512))):
            b = table(2, k)
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

    def test_full_vs_zero_ideal(self):
        # The zero ideal vanishes at every point: both words differ everywhere.
        zero = ideal_of_closed_set(parse_closed_set("head=;period=1"))
        assert d_beta(FULL, zero) == Fraction(2, 3)

    def test_singleton_vs_zero(self):
        for r in (1, 2, 5):
            e = ideal_of_closed_set(parse_closed_set(f"1/{2**r}"))
            assert d_beta(e, VANISH_AT_ZERO) == Fraction(4) ** (-r) / 3 + 0
            assert d_phi(e, VANISH_AT_ZERO) == pow2(-(r + 2))

    def test_periodic_difference_inside_truncation_brackets(self):
        i = ideal_of_closed_set(ClosedSubsetQI(BinaryWord("", "10")))
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
        a = table(1)
        b = table(2, 1)
        iv = d_beta_truncated(a, b, 12)
        assert iv.width == pow2(-12)
        assert iv.contains(Fraction(21, 128))
        assert d_beta_truncated(a, b, 13).lo >= iv.lo
        assert iv.encloses(d_beta_truncated(a, b, 13))

    def test_periodic_difference_supported(self):
        i = ideal_of_closed_set(ClosedSubsetQI(BinaryWord("", "10")))
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


class TestComparisonScaffolding:
    def test_index_extraction(self):
        a, b = parse_closed_set("1/2"), parse_closed_set("1/4,1/16")
        assert descriptors(a, b, "paper") == (table(1), table(2, 2))

    def test_index_extraction_rejects(self):
        singleton, pair = parse_closed_set("1/2"), parse_closed_set("1/4,1/8")
        for bad in ("", "1", "1/2,1/4", "0", "1/2,0"):
            with pytest.raises(MalformedComparisonError, match="^first set"):
                descriptors(parse_closed_set(bad), pair, "paper")
        for bad in ("", "1/4", "1,1/2", "1/2,1/4,1/8"):
            with pytest.raises(MalformedComparisonError, match="^second set"):
                descriptors(singleton, parse_closed_set(bad), "paper")

    def test_compare_paper(self):
        a, b = parse_closed_set("1/2"), parse_closed_set("1/4,1/8")
        di, dj = descriptors(a, b, "paper")
        assert (di, dj) == (table(1), table(2, 1))
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


def test_beta_over_phi_peaks_at_five_thirds():
    """d_beta <= 2 d_phi holds but is never attained.  With m the first
    level of disagreement, d_phi = 2**-m, D has no 1 before index m - 1 and
    the tails agree before level m, so d_beta is at most the sum of 4**-k
    over k >= max(m - 1, 1) plus that of 4**-p over p >= m: 5/3 d_phi at
    m = 2, less at every other m.  The short sets attain 5/3 at {1} against
    head=0;period=1."""
    ideals = [ideal_of_closed_set(s) for s in SMALL_SETS]
    assert len(ideals) == 175
    ratios = [d_beta(i, j) / d_phi(i, j) for i, j in product(ideals, repeat=2) if i != j]
    assert max(ratios) == Fraction(5, 3)
    i, j = (ideal_of_closed_set(parse_closed_set(t)) for t in ("1", "head=0;period=1"))
    assert (d_beta(i, j), d_phi(i, j)) == (Fraction(5, 12), Fraction(1, 4))
    for i, j in eventual_pairs(29, 200):
        assert d_beta(i, j) <= Fraction(5, 3) * d_phi(i, j)


def test_metric_comparison_constants():
    """On the short sets, d_phi <= d_H/2, d_H <= 4 d_phi, d_beta <= 3/4 d_H,
    4 d_phi**2 <= 3 d_beta and d_H**2 <= 12 d_beta for every pair, and a
    witness pair attains each bound.  No constant bounds d_H by d_beta:
    {x_k} against {x_k, 0} has d_H**2 = 12 d_beta but d_H = 6 * 2**k d_beta."""
    def values(s, t):
        i, j = ideal_of_closed_set(s), ideal_of_closed_set(t)
        return hausdorff(s, t), d_phi(i, j), d_beta(i, j)

    for s, t in combinations(SMALL_SETS, 2):
        h, phi, beta = values(s, t)
        assert 2 * phi <= h <= 4 * phi and 4 * beta <= 3 * h, (s, t)
        assert 4 * phi**2 <= 3 * beta and h**2 <= 12 * beta, (s, t)
    witnesses = {("1", "1,1/2"): lambda h, phi, beta: 2 * phi == h,
                 ("0", "1"): lambda h, phi, beta: h == 4 * phi,
                 ("1", "1/2"): lambda h, phi, beta: 4 * beta == 3 * h,
                 ("1", "1,0"): lambda h, phi, beta: 4 * phi**2 == 3 * beta and h**2 == 12 * beta}
    for (a, b), attained in witnesses.items():
        assert attained(*values(parse_closed_set(a), parse_closed_set(b))), (a, b)
    for k in range(1, 65):
        point = f"1/{2**(k - 1)}"
        h, _, beta = values(parse_closed_set(point), parse_closed_set(point + ",0"))
        assert h**2 == 12 * beta and h == 6 * 2**k * beta, k


def test_how_much_each_metric_resolves():
    """Over the 15,225 unordered pairs of the short sets: how many distinct
    values each metric takes, and how many pairs share its most common
    value.  d_beta refines neither other metric, nor does either refine it:
    486 of its fibres hold more than one d_H value and 75 more than one
    d_phi value.  Its values and the digit words c_k = D_k + Delta_k
    correspond one to one, as the digit lemma in the `metrics` docstring
    says; 24 digits decide every pair here."""
    ideals = [ideal_of_closed_set(s) for s in SMALL_SETS]
    values = {"phi": {}, "hausdorff": {}, "beta": {}}
    words, digits_of = {}, {}
    for (s, i), (t, j) in combinations(zip(SMALL_SETS, ideals), 2):
        h, phi, beta = hausdorff(s, t), d_phi(i, j), d_beta(i, j)
        for name, value in (("phi", phi), ("hausdorff", h), ("beta", beta)):
            values[name].setdefault(value, []).append((h, phi))
        d = i.excluded.prefix(24) ^ j.excluded.prefix(24)
        delta = i.tail.prefix(24) ^ j.tail.prefix(24)
        c = tuple((d >> k & 1) + (delta >> k & 1) for k in range(24))
        words.setdefault(beta, set()).add(c)
        digits_of.setdefault(c, set()).add(beta)
    assert sum(map(len, values["beta"].values())) == 15_225
    resolved = {name: (len(fibres), max(map(len, fibres.values())))
                for name, fibres in values.items()}
    assert resolved == {"phi": (8, 7_743), "hausdorff": (26, 4_076), "beta": (663, 95)}
    fibres = values["beta"].values()
    assert sum(len({h for h, _ in pairs}) > 1 for pairs in fibres) == 486
    assert sum(len({phi for _, phi in pairs}) > 1 for pairs in fibres) == 75
    assert len(words) == len(digits_of) == 663
    assert all(len(c) == 1 for c in words.values())
    assert all(len(beta) == 1 for beta in digits_of.values())


@pytest.mark.parametrize("max_head, max_period, sets, pairs, distinct", [
    (2, 2, 19, 171, (4, 8, 37)),
    (3, 2, 39, 741, (5, 12, 95)),
    (3, 3, 87, 3_741, (7, 20, 287)),
])
def test_distinct_values_on_smaller_grids(max_head, max_period, sets, pairs, distinct):
    """How many distinct values d_phi, d_H and d_beta take over the unordered
    pairs of nonempty sets with head <= max_head and period <= max_period.
    test_how_much_each_metric_resolves pins the grid (4, 3): 8, 26 and 663."""
    grid = [s for s in short_sets(max_head, max_period) if not s.is_empty()]
    ideals = [ideal_of_closed_set(s) for s in grid]
    values = (set(), set(), set())
    count = 0
    for (s, i), (t, j) in combinations(zip(grid, ideals), 2):
        count += 1
        for seen, value in zip(values, (d_phi(i, j), hausdorff(s, t), d_beta(i, j))):
            seen.add(value)
    assert (len(grid), count) == (sets, pairs)
    assert tuple(map(len, values)) == distinct


def test_whole_algebra_is_isolated():
    """The whole algebra, the ideal of the empty set, lies at d_phi = 1/2,
    the global bound, from the ideal of every nonempty short set: it differs
    from each at level 1.  Its d_beta to them ranges over [1/3, 2/3], least
    at {0} and greatest at the zero ideal head=;period=1."""
    beta = {}
    for s in SMALL_SETS:
        e = ideal_of_closed_set(s)
        assert e != FULL and d_phi(FULL, e) == Fraction(1, 2), s
        beta[s] = d_beta(FULL, e)
    assert len(beta) == 175
    low, high = min(beta.values()), max(beta.values())
    assert (low, high) == (Fraction(1, 3), Fraction(2, 3))
    assert [s for s, value in beta.items() if value == low] == [parse_closed_set("0")]
    assert ([s for s, value in beta.items() if value == high]
            == [parse_closed_set("head=;period=1")])


def test_paper_convention_breaks_hausdorff_bound():
    """{2^-n} vs {2^-n, 2^-(n+k)} at n = 3: d_H / d_phi is 2^(k+1) - 2 under
    the paper convention, without bound in k, and 4 - 2^(2-k) < 4 under the
    derived one, where d_H <= 4 d_phi holds."""
    for k in range(1, 9):
        a, b = parse_closed_set("1/8"), parse_closed_set(f"1/8,1/{2**(3 + k)}")
        h = hausdorff(a, b)
        paper, derived = (h / d_phi(*descriptors(a, b, convention))
                          for convention in ("paper", "derived"))
        assert paper == 2**(k + 1) - 2, k
        assert derived == 4 - pow2(2 - k), k
    assert (paper, derived) == (510, Fraction(255, 64))


def test_paper_convention_extremes():
    """Over the paper's triples (m, n, k) with m, n, k <= 8, {2^-m} against
    {2^-n, 2^-(n+k)}: d_beta / d_phi peaks at 21/32 at the three triples
    named, and d_beta / d_phi**2 bottoms out at 2 on the slices m = n and
    m = n + k, as the `metrics` docstring derives."""
    over_phi, over_phi_squared = {}, {}
    for m, n, k in product(range(1, 9), repeat=3):
        i, j = paper_descriptors(m, n, k)
        phi, beta = d_phi(i, j), d_beta(i, j)
        over_phi[m, n, k], over_phi_squared[m, n, k] = beta / phi, beta / phi**2
    top, bottom = max(over_phi.values()), min(over_phi_squared.values())
    assert top == Fraction(21, 32)
    assert sorted(t for t, r in over_phi.items() if r == top) == [(1, 2, 1), (2, 1, 2), (3, 1, 1)]
    assert bottom == 2
    at_bottom = sorted(t for t, r in over_phi_squared.items() if r == bottom)
    assert at_bottom == [(m, n, k) for m, n, k in product(range(1, 9), repeat=3)
                         if m in (n, n + k)]
    assert len(at_bottom) == 92


def test_paper_beta_closed_form_below_the_diagonal():
    """README's corrected d_beta for m < n under the paper convention,
    (4**-(n+k) + 4**-m + 4**-n) / 2, on the 1,920 triples with m < n and
    m, n, k <= 16."""
    triples = [(m, n, k) for m, n, k in product(range(1, 17), repeat=3) if m < n]
    assert len(triples) == 1_920
    for m, n, k in triples:
        expected = (Fraction(1, 4**(n + k)) + Fraction(1, 4**m) + Fraction(1, 4**n)) / 2
        assert d_beta(*paper_descriptors(m, n, k)) == expected, (m, n, k)


def test_paper_phi_closed_form_on_the_diagonal():
    """README's corrected d_phi on the m = n slice under the paper
    convention, 2**-(n+k+1), on the 256 pairs with n, k <= 16."""
    for n, k in product(range(1, 17), repeat=2):
        assert d_phi(*paper_descriptors(n, n, k)) == pow2(-(n + k + 1)), (n, k)


def test_family_closed_forms():
    """d_phi and d_beta between {2**-m} and {2**-n, 2**-(n+k)} equal the
    `metrics` docstring's closed forms under both conventions on all 4,096
    triples with m, n, k <= 16, every regime among them.  README's two
    corrected paper-convention forms, written out as published, are pinned
    on their own by the two tests above."""
    regimes = Counter()
    for m, n, k in product(range(1, 17), repeat=3):
        a, b = family_sets(m, n, k)
        for convention, forms in family_forms(m, n, k).items():
            i, j = descriptors(a, b, convention)
            assert (d_phi(i, j), d_beta(i, j)) == forms, (m, n, k, convention)
        regimes[(m > n) - (m < n), (m > n + k) - (m < n + k)] += 1
    assert regimes == {(-1, -1): 1_920, (0, -1): 256, (1, -1): 1_240, (1, 0): 120, (1, 1): 560}


def test_beta_puts_the_meet_between():
    """The ideal M of S ∪ S' is I ∩ J, the meet of the ideals I and J of S
    and S', and d_beta(I, J) = d_beta(I, M) + d_beta(M, J) on all 15,400
    pairs of short sets, the empty set among them (proof in the `metrics`
    docstring).  d_phi does so on the 3,388 pairs where S ∪ S' is S or S',
    so that M is I or J, and on none of the other 12,012."""
    sets = short_sets()
    ideals = {s: ideal_of_closed_set(s) for s in sets}
    pairs = list(combinations(sets, 2))
    assert len(pairs) == 15_400
    nested, phi_between = set(), set()
    for s, t in pairs:
        u = union(s, t)
        i, j, m = ideals[s], ideals[t], ideal_of_closed_set(u)
        assert d_beta(i, j) == d_beta(i, m) + d_beta(m, j), (s, t)
        if u in (s, t):
            nested.add((s, t))
        if d_phi(i, j) == d_phi(i, m) + d_phi(m, j):
            phi_between.add((s, t))
    assert len(nested) == 3_388
    assert phi_between == nested


def last_point(s: ClosedSubsetQI):
    """The index L of the last point of s: 0 for the empty set, infinite
    when s holds 0."""
    return math.inf if s.contains_zero else s.word.last_one()


def depth_12_levels(sets) -> dict:
    """Each set's ideal at depth 12, as its tuple of level index sets."""
    return {s: to_finite(ideal_of_closed_set(s), 12).all_sets for s in sets}


def levelwise_union(f: tuple, g: tuple) -> FiniteDescriptor:
    """The descriptor whose every level is the union of f's and g's."""
    return FiniteDescriptor(map(operator.or_, f, g))


def test_ideal_lattice_table():
    """The join K of the ideals I and J of S and S' is the ideal of S ∩ S'.
    On the 15,400 pairs of short sets, d_beta puts K between on 14,165.  On
    each pair its defect d_beta(I, K) + d_beta(K, J) - d_beta(I, J) is twice
    the sum of 4**-p over L_V < p <= min(L, L'), with L_V the last point of
    S ∩ S', and the 1,235 pairs with a defect are exactly those whose
    level-wise union at depth 12 is not an ideal of qi_diagram(12).  d_phi
    puts K between only on the 3,388 nested pairs.  d_H puts the meet's
    hull S ∪ S' between only on the 3,213 nested pairs of the 15,225
    nonempty ones, and the join's hull S ∩ S' only on the same 3,213 of the
    14,550 with a nonempty intersection (proofs in the `metrics`
    docstring)."""
    sets = short_sets()
    ideals = {s: ideal_of_closed_set(s) for s in sets}
    diagram, levels = qi_diagram(12), depth_12_levels(sets)
    pairs = list(combinations(sets, 2))
    nested, defective, not_ideal, phi_between = set(), set(), set(), set()
    hull_pairs, join_hull_pairs, hull_meet_between, hull_join_between = [], [], set(), set()
    for s, t in pairs:
        u, v = union(s, t), intersection(s, t)
        i, j, k = ideals[s], ideals[t], ideal_of_closed_set(v)
        if u in (s, t):
            nested.add((s, t))
        low, high = last_point(v), min(last_point(s), last_point(t))
        added = range(low + 1, high + 1) if low < high else ()
        defect = d_beta(i, k) + d_beta(k, j) - d_beta(i, j)
        assert defect == 2 * sum((Fraction(1, 4**p) for p in added), Fraction(0)), (s, t)
        if defect:
            defective.add((s, t))
        if not is_ideal(diagram, levelwise_union(levels[s], levels[t])):
            not_ideal.add((s, t))
        if d_phi(i, j) == d_phi(i, k) + d_phi(k, j):
            phi_between.add((s, t))
        if s.is_empty() or t.is_empty():
            continue
        hull_pairs.append((s, t))
        h = hausdorff(s, t)
        if h == hausdorff(s, u) + hausdorff(u, t):
            hull_meet_between.add((s, t))
        if v.is_empty():
            continue
        join_hull_pairs.append((s, t))
        if h == hausdorff(s, v) + hausdorff(v, t):
            hull_join_between.add((s, t))
    assert (len(pairs), len(hull_pairs), len(join_hull_pairs)) == (15_400, 15_225, 14_550)
    assert len(pairs) - len(defective) == 14_165
    assert defective == not_ideal
    assert len(nested) == 3_388 and phi_between == nested
    nonempty_nested = nested.intersection(hull_pairs)
    assert len(nonempty_nested) == 3_213
    assert hull_meet_between == hull_join_between == nonempty_nested


def test_closure_of_the_union_is_the_ideal_of_the_intersection():
    """ideal_closure of the level-wise union of the depth-12 ideals of S and
    S' is the depth-12 ideal of S ∩ S' on all 15,400 pairs of short sets:
    the Bratteli layer's saturation and the closed-set correspondence give
    the same join."""
    sets = short_sets()
    diagram, levels = qi_diagram(12), depth_12_levels(sets)
    pairs = list(combinations(sets, 2))
    assert len(pairs) == 15_400
    for s, t in pairs:
        closure = ideal_closure(diagram, levelwise_union(levels[s], levels[t]))
        assert closure == to_finite(ideal_of_closed_set(intersection(s, t)), 12), (s, t)


def test_published_level_sets_are_not_ideals():
    """On the 78 paper shapes with m <= 12 and n + k <= 12, at depth 16, as
    the `metrics` docstring proves: (a) the published level sets are the
    support-rule ideal I plus, for each p < L with x_p outside S, the tail
    summand p at level p, which I lacks; (b) they fail is_ideal, and
    ideal_closure gives the whole algebra; (c) I is an ideal, and the
    closure of I plus any one added tail holds index L at level L + 1, which
    the published level sets leave out."""
    depth = 16
    diagram = qi_diagram(depth)
    whole = FiniteDescriptor(range(1, p + 1) for p in range(1, depth + 1))
    shapes = ([(m + 1,) for m in range(1, 13)]
              + [(n + 1, n + k + 1) for n in range(1, 12) for k in range(1, 13 - n)])
    assert len(shapes) == 78
    added = 0
    for points in shapes:
        s = parse_closed_set(",".join(str(pow2(1 - k)) for k in points))
        last = points[-1]
        ideal = to_finite(ideal_of_closed_set(s), depth).all_sets
        published = to_finite(descriptor(s, "paper"), depth).all_sets
        tails = [p for p in range(1, last) if p not in points]
        assert not any(p in ideal[p - 1] for p in tails), s
        assert published == tuple(level | {p} if p in tails else level
                                  for p, level in enumerate(ideal, 1)), s
        assert published[0] == {1} and last not in published[last], s
        assert not is_ideal(diagram, FiniteDescriptor(published)), s
        assert ideal_closure(diagram, FiniteDescriptor(published)) == whole, s
        assert is_ideal(diagram, FiniteDescriptor(ideal)), s
        for p in tails:
            closure = ideal_closure(diagram, FiniteDescriptor(
                level | {p} if n == p else level for n, level in enumerate(ideal, 1)))
            assert last in closure.sets(last + 1), (s, p)
        added += len(tails)
    assert added == 584


def test_added_tails_scale_d_phi():
    """On the 792 pairs {2**-m} against {2**-n, 2**-(n+k)} with m <= 12 and
    n + k <= 12, the paper d_phi is exactly twice the derived one off the
    m = n slice and 2**(1-k) times it on the slice, as (d) in the `metrics`
    docstring derives from the added tails."""
    factors = Counter()
    for m, n in product(range(1, 13), range(1, 12)):
        for k in range(1, 13 - n):
            a, b = family_sets(m, n, k)
            paper, derived = (d_phi(*descriptors(a, b, convention))
                              for convention in ("paper", "derived"))
            factor = pow2(1 - k) if m == n else 2
            assert paper == factor * derived, (m, n, k)
            factors[m == n] += 1
    assert factors == {False: 726, True: 66}


def points_between(low: int, high) -> ClosedSubsetQI:
    """The points x_(low+1) ... x_high, with 0 when high is infinite."""
    if high == math.inf:
        return ClosedSubsetQI(BinaryWord("0" * low, "1"))
    return ClosedSubsetQI(BinaryWord("0" * low + "1" * (high - low)))


def test_where_beta_from_a_set_ties():
    """For each short set S, group the short sets R by d_beta(S, R): the
    pairs R != R' that share a group, 1,048 summed over S, are exactly
    those of the rule in the `metrics` docstring.  With L < L' the last
    points of R and R', R' is R plus every point x_(L+1) ... x_L' (and 0
    when L' is infinite), and S holds none of those points but holds a point
    past x_L' (0 when L' is infinite)."""
    sets = short_sets()
    ideals = {s: ideal_of_closed_set(s) for s in sets}
    ties = set()
    for s in sets:
        groups = {}
        for t in sets:
            groups.setdefault(d_beta(ideals[s], ideals[t]), []).append(t)
        ties |= {(s, t, u) for group in groups.values() for t, u in combinations(group, 2)}
    extensions = []
    for t, u in combinations(sets, 2):
        (low, shorter), (high, longer) = sorted(((last_point(t), t), (last_point(u), u)),
                                                key=operator.itemgetter(0))
        if low == high:
            continue
        added = points_between(low, high)
        if longer == union(shorter, added):
            extensions.append((t, u, high, added))
    predicted = {(s, t, u) for s in sets for t, u, high, added in extensions
                 if intersection(s, added).word == BinaryWord()
                 and (s.contains_zero if high == math.inf else last_point(s) > high)}
    assert len(ties) == 1_048
    assert ties == predicted


def test_union_ors_the_words_and_zero_flags():
    """bits.union, which the meet tests build S ∪ S' with, holds exactly the
    points of either set, and bits.intersection, which the join tests build
    S ∩ S' with, exactly the points of both, checked bit by bit past both
    heads and the joint period."""
    sets = short_sets()
    for s, t in combinations(sets, 2):
        u, v = union(s, t), intersection(s, t)
        assert u.contains_zero == (s.contains_zero or t.contains_zero), (s, t)
        assert v.contains_zero == (s.contains_zero and t.contains_zero), (s, t)
        for k in range(1, 17):
            assert u.word.bit(k) == s.word.bit(k) | t.word.bit(k), (s, t, k)
            assert v.word.bit(k) == s.word.bit(k) & t.word.bit(k), (s, t, k)


def test_equal_values_hash_equal_and_reprs():
    """Equal descriptors and equal brackets, built apart, hash equal and
    find each other as dict keys; the reprs of a bracket and a diagram are
    pinned."""
    e = EventualDescriptor(BinaryWord("10", "01"), BinaryWord("", "1"))
    twin = EventualDescriptor(BinaryWord("1001", "01"), BinaryWord("11", "1"))
    assert e == twin and hash(e) == hash(twin)
    assert {e: "e", FULL: "full"}[twin] == "e"
    v = CertifiedValue(0, Fraction(1, 2))
    w = CertifiedValue(Fraction(0), Fraction(2, 4))
    assert v == w and hash(v) == hash(w)
    assert {v: "v", CertifiedValue(0, 1): "other"}[w] == "v"
    assert repr(v) == "CertifiedValue([0, 1/2])"
    assert repr(qi_diagram(3)) == "BratteliDiagram(depth=3)"


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
        u = BinaryWord(random_bits(rng, rng.randint(0, 9)), random_bits(rng, p))
        v = BinaryWord(random_bits(rng, rng.randint(0, 9)), random_bits(rng, q))
        # a word with u's tail from past u's head on, after a different head
        h = len(u.head) + rng.randint(0, 4)
        tail = BinaryWord(random_bits(rng, h), "".join(
            str(u.bit(k)) for k in range(h + 1, h + 1 + len(u.period))))
        words += [(u, v), (u, tail), (tail, u)]
    pairs = [(i.excluded, j.excluded) for i, j in eventual_pairs(41, 300)] + words
    seen = set()
    for u, v in pairs:
        i = EventualDescriptor(u, BinaryWord())
        j = EventualDescriptor(v, BinaryWord("", "1"))
        expected = word_xor(u, v).is_eventually_zero()
        assert settles(i, j) == settles(j, i) == expected
        seen.add(expected)
    assert seen == {True, False}


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
    sets = SMALL_SETS
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
    assert sum("1" in e.tail.head and not e.tail.period for pair in pairs for e in pair) > 40
    for n, (i, j) in enumerate(pairs):
        mi, mj = level_masks(i, 80), level_masks(j, 80)
        check_against_levels(i, j, mi, mj, 80, (1 + n % 16, 17 + n % 24, 80))
