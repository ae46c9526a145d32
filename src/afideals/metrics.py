"""Three metrics on ideal descriptors of the quantized interval.

d_phi scores only the first level where two ideals disagree; d_beta weights
every disagreeing summand at every level by 2**-(level+index); the dual
Hausdorff metric (`qi.hausdorff`) measures the vanishing sets.  All values
are exact rationals, with certified intervals for truncated evaluation.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .bratteli import EventualDescriptor, first_disagreement
from .exact import pow2, word_weight, word_xor
from .qi import ClosedSubsetQI, ideal_of_closed_set, paper_table_descriptor


class MalformedComparisonError(ValueError):
    """Paper-convention inputs must be a singleton or a two-point set."""


class CertifiedValue:
    """A bracket [lo, hi] certified to contain a limit."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("lo must not exceed hi")
        self._lo = lo
        self._hi = hi

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def width(self) -> Fraction:
        return self._hi - self._lo

    def contains(self, x) -> bool:
        return self._lo <= x <= self._hi

    def encloses(self, other: "CertifiedValue") -> bool:
        return self._lo <= other._lo and other._hi <= self._hi

    def __eq__(self, other):
        if not isinstance(other, CertifiedValue):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __str__(self):
        return f"[{self._lo}, {self._hi}]"

    def __repr__(self):
        return f"CertifiedValue({self})"


def d_phi(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """2**-(first level of disagreement), or 0 for equal ideals."""
    m = first_disagreement(i, j)
    if m is None:
        return Fraction(0)
    return pow2(-m)


def settles(i: EventualDescriptor, j: EventualDescriptor) -> bool:
    """Whether D, the XOR of the excluded words, is eventually zero.

    Canonical words agree eventually iff their primitive periods have equal
    length and the words agree on one period after the longer head: past
    that head both repeat with that length, and an eventually periodic word
    has one primitive period.
    """
    u, v = i.excluded, j.excluded
    if len(u.period) != len(v.period):
        return False
    h = max(len(u.head), len(v.head))
    return u.prefix(h + len(u.period))[h:] == v.prefix(h + len(v.period))[h:]


def _digits(bits) -> str:
    return "".join(map(str, bits)) or "0"


def d_beta(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """Sum over levels p and disagreeing indices k of 2**-(p+k), exactly.

    Level p differs in each k < p where D, the XOR of the excluded words,
    has a 1, and in p itself where the tail words differ.  Summing over p
    first, a D-bit at k weighs 4**-k and a tail difference at p weighs 4**-p.
    """
    return (word_weight(word_xor(i.excluded, j.excluded), 1, 4)
            + word_weight(word_xor(i.tail, j.tail), 1, 4))


def _word_sum(i: EventualDescriptor, j: EventualDescriptor, n: int) -> Fraction:
    """The partial sum S_n from the first n bits of the two XOR words.

    Levels p <= n weigh a D-bit at k < n by 2**-k (2**-k - 2**-n) and a tail
    difference at p by 4**-p; the sum is one integer numerator over 2**(2n).
    """
    diff = _digits(map(operator.xor, i.excluded.prefix(n - 1), j.excluded.prefix(n - 1)))
    tails = _digits(map(operator.xor, i.tail.prefix(n), j.tail.prefix(n)))
    return Fraction(4 * int(diff, 4) - 2 * int(diff, 2) + int(tails, 4), 1 << 2 * n)


def d_beta_truncated(i: EventualDescriptor, j: EventualDescriptor, depth: int) -> CertifiedValue:
    """Partial sum through `depth` levels, bracketed by the 2**-depth tail bound."""
    if depth < 1:
        raise ValueError("depth must be positive")
    partial = _word_sum(i, j, depth)
    return CertifiedValue(partial, partial + pow2(-depth))


def closed_form_dphi(m: int, n: int, k: int) -> Fraction:
    """Published first-disagreement value 2**-(min(m,n)+1)."""
    if min(m, n, k) < 1:
        raise ValueError("m, n, k must be positive")
    return pow2(-(min(m, n) + 1))


def closed_form_dbeta(m: int, n: int, k: int) -> Fraction:
    """Published value (1/2)(2**-2(n+k) + 2**-m + 4**-n), asserted for m < n."""
    if min(m, n, k) < 1:
        raise ValueError("m, n, k must be positive")
    if m >= n:
        raise ValueError("closed form is only asserted for m < n")
    return (pow2(-2 * (n + k)) + pow2(-m) + Fraction(4) ** (-n)) / 2


def closed_form_dhausdorff(m: int, n: int, k: int) -> Fraction:
    """Hausdorff distance between {2**-m} and {2**-n, 2**-(n+k)}."""
    if min(m, n, k) < 1:
        raise ValueError("m, n, k must be positive")
    if m <= n:
        return abs(pow2(-m) - pow2(-(n + k)))
    return abs(pow2(-m) - pow2(-n))


def _singleton_index(s: ClosedSubsetQI, role: str = "first set") -> int:
    if not s.is_finite:
        raise MalformedComparisonError(f"{role} must be a singleton {{2**-m}}")
    ones = s.word.ones(len(s.word.head))
    if len(ones) != 1 or ones[0] < 2:
        raise MalformedComparisonError(f"{role} must be a singleton {{2**-m}} with m >= 1")
    return ones[0] - 1


def _pair_indices(s: ClosedSubsetQI, role: str = "second set"):
    if not s.is_finite:
        raise MalformedComparisonError(f"{role} must be a pair {{2**-n, 2**-(n+k)}}")
    ones = s.word.ones(len(s.word.head))
    if len(ones) != 2 or ones[0] < 2:
        raise MalformedComparisonError(
            f"{role} must be a pair {{2**-n, 2**-(n+k)}} with n, k >= 1"
        )
    return ones[0] - 1, ones[1] - ones[0]


def descriptor(s: ClosedSubsetQI, convention: str) -> EventualDescriptor:
    """Ideal descriptor of a closed set: "paper" uses the published table
    (a singleton or a pair), "derived" the support-disjointness rule."""
    if convention == "derived":
        return ideal_of_closed_set(s)
    if convention != "paper":
        raise ValueError(f"unknown convention: {convention!r}")
    if s.is_finite:
        ones = s.word.ones(len(s.word.head))
        if len(ones) == 1:
            return paper_table_descriptor(_singleton_index(s, "set"))
        if len(ones) == 2:
            return paper_table_descriptor(_pair_indices(s, "set"))
    raise MalformedComparisonError(
        "paper convention covers only singletons and pairs of isolated points"
    )


def descriptors(a: ClosedSubsetQI, b: ClosedSubsetQI, convention: str):
    """Ideal descriptors of a comparison's two sets; under "paper" the first
    must be a singleton and the second a pair."""
    if convention == "paper":
        _singleton_index(a)
        _pair_indices(b)
    return descriptor(a, convention), descriptor(b, convention)
