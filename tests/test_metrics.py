import random
from itertools import combinations, product
from fractions import Fraction

import pytest

from afideals.bratteli import EventualDescriptor, level_set
from afideals.checks import random_ideal, random_mask
from afideals.exact import BinaryWord, pow2, word_xor
from afideals.metrics import (
    CertifiedValue,
    MalformedComparisonError,
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
    parse_closed_set,
)
from bits import bit_strings, random_bits


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


class TestClosedForms:
    def test_dphi(self):
        assert closed_form_dphi(1, 2, 1) == Fraction(1, 4)
        assert closed_form_dphi(5, 3, 7) == pow2(-4)

    def test_dbeta_published_values(self):
        assert closed_form_dbeta(1, 2, 1) == Fraction(37, 128)
        assert closed_form_dbeta(1, 2, 2) == Fraction(145, 512)

    @pytest.mark.parametrize("form", [closed_form_dphi, closed_form_dbeta, closed_form_dhausdorff])
    @pytest.mark.parametrize("args", [(0, 2, 1), (1, 0, 1), (1, 2, 0), (-1, 2, 1)])
    def test_rejects_arguments_below_one(self, form, args):
        with pytest.raises(ValueError, match="^m, n, k must be positive$"):
            form(*args)

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
    ideals = [ideal_of_closed_set(s) for s in small_closed_sets()]
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

    for s, t in combinations(small_closed_sets(), 2):
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


def test_whole_algebra_is_isolated():
    """The whole algebra, the ideal of the empty set, lies at d_phi = 1/2,
    the global bound, from the ideal of every nonempty short set: it differs
    from each at level 1.  Its d_beta to them ranges over [1/3, 2/3], least
    at {0} and greatest at the zero ideal head=;period=1."""
    beta = {}
    for s in small_closed_sets():
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
    {2^-n, 2^-(n+k)}: d_beta / d_phi peaks at 21/32 and d_beta / d_phi**2
    bottoms out at 2, each at the triples named."""
    over_phi, over_phi_squared = {}, {}
    for m, n, k in product(range(1, 9), repeat=3):
        a = parse_closed_set(str(pow2(-m)))
        b = parse_closed_set(f"{pow2(-n)},{pow2(-(n + k))}")
        i, j = descriptors(a, b, "paper")
        phi, beta = d_phi(i, j), d_beta(i, j)
        over_phi[m, n, k], over_phi_squared[m, n, k] = beta / phi, beta / phi**2
    top, bottom = max(over_phi.values()), min(over_phi_squared.values())
    assert top == Fraction(21, 32)
    assert sorted(t for t, r in over_phi.items() if r == top) == [(1, 2, 1), (2, 1, 2), (3, 1, 1)]
    assert bottom == 2
    at_bottom = sorted(t for t, r in over_phi_squared.items() if r == bottom)
    assert len(at_bottom) == 92 and at_bottom[0] == (1, 1, 1)


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


def small_closed_sets() -> list:
    """Every nonempty closed set whose word has a head of at most 4 bits and
    a period of at most 3."""
    words = {BinaryWord(head, period) for head in bit_strings(4) for period in bit_strings(3)}
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
    assert sum("1" in e.tail.head and not e.tail.period for pair in pairs for e in pair) > 40
    for n, (i, j) in enumerate(pairs):
        mi, mj = level_masks(i, 80), level_masks(j, 80)
        check_against_levels(i, j, mi, mj, 80, (1 + n % 16, 17 + n % 24, 80))
