"""Three metrics on ideal descriptors of the quantized interval.

d_phi scores only the first level where two ideals disagree; d_beta weights
every disagreeing summand at every level by 2**-(level+index); the dual
Hausdorff metric measures the vanishing sets.  All values are exact
rationals, with certified intervals for truncated evaluation.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction

from .bratteli import EventualDescriptor, FiniteDescriptor, first_disagreement, level_set
from .exact import format_rational, pow2, word_weight, word_xor
from .qi import (
    ClosedSubsetQI,
    closed_set_of_ideal,
    format_closed_set,
    hausdorff,
    ideal_of_closed_set,
    paper_table_descriptor,
)


class DepthMismatchError(ValueError):
    """Truncated descriptors must share a depth."""


class EmptySpectrumError(ValueError):
    """The full algebra has empty vanishing set; Hausdorff distance undefined."""


class MalformedComparisonError(ValueError):
    """Comparison inputs must be a singleton and a two-point set."""


class CertifiedValue:
    """Either an exact rational or a bracket [lo, hi] containing the limit."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("lo must not exceed hi")
        self._lo = lo
        self._hi = hi

    @classmethod
    def exact(cls, value) -> "CertifiedValue":
        return cls(value, value)

    @classmethod
    def interval(cls, lo, hi) -> "CertifiedValue":
        return cls(lo, hi)

    @property
    def kind(self) -> str:
        return "exact" if self._lo == self._hi else "interval"

    @property
    def value(self) -> Fraction:
        if self._lo != self._hi:
            raise ValueError("interval value is not exact")
        return self._lo

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
        if self.kind == "exact":
            return format_rational(self._lo)
        return f"[{format_rational(self._lo)}, {format_rational(self._hi)}]"

    def __repr__(self):
        return f"CertifiedValue({self})"


def _level_of(desc, p: int) -> frozenset:
    if isinstance(desc, EventualDescriptor):
        return level_set(desc, p)
    return desc.sets(p)


def _level_sum(i, j, n: int) -> int:
    """The numerator over 2**(2n) of the sum of 2**-(p+k) over levels p <= n
    and k in the level-p difference; level p of the diagram has width p."""
    return sum(1 << (2 * n - p - k)
               for p in range(1, n + 1) for k in _level_of(i, p) ^ _level_of(j, p))


def d_phi(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """2**-(first level of disagreement), or 0 for equal ideals."""
    m = first_disagreement(i, j)
    if m is None:
        return Fraction(0)
    return pow2(-m)


def d_phi_truncated(i: FiniteDescriptor, j: FiniteDescriptor) -> CertifiedValue:
    """Exact when a disagreement is visible; otherwise [0, 2**-(depth+1)]."""
    if i.depth != j.depth:
        raise DepthMismatchError(f"depths differ: {i.depth} vs {j.depth}")
    for p in range(1, i.depth + 1):
        if i.sets(p) != j.sets(p):
            return CertifiedValue.exact(pow2(-p))
    return CertifiedValue.interval(Fraction(0), pow2(-(i.depth + 1)))


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

    Levels up to the last explicit level M of either are summed directly.
    Past M, level p differs in each k < p where D, the XOR of the excluded
    words, has a 1, and in p itself where the tail words differ.  Summing
    over p first, a D-bit at k <= M weighs 2**-M * 2**-k, one at k > M
    weighs 4**-k, and a tail difference at p > M weighs 4**-p.
    """
    top = max(i.last_explicit, j.last_explicit)
    diff = word_xor(i.excluded, j.excluded)
    total = word_weight(diff, top + 1, 4) + word_weight(word_xor(i.tail, j.tail), top + 1, 4)
    if top:
        head = _level_sum(i, j, top) + int(_digits(diff.prefix(top)), 2)
        total += Fraction(head, 1 << 2 * top)
    return total


def _word_sum(i: EventualDescriptor, j: EventualDescriptor, n: int) -> Fraction:
    """The partial sum S_n from the first n bits of the two XOR words.

    Levels up to M = min(last explicit level, n) go through _level_sum.
    Levels M < p <= n weigh a D-bit at k < n by 2**-k (2**-max(M,k) - 2**-n)
    and a tail difference at p by 4**-p; the sum is one integer numerator
    over 2**(2n).
    """
    top = min(max(i.last_explicit, j.last_explicit), n)
    diff = _digits(map(operator.xor, i.excluded.prefix(n - 1), j.excluded.prefix(n - 1)))
    tails = _digits(map(operator.xor, i.tail.prefix(n)[top:], j.tail.prefix(n)[top:]))
    low = diff[top:] or "0"
    numerator = (
        (_level_sum(i, j, top) << 2 * (n - top))
        + int(diff[:top] or "0", 2) * ((1 << 2 * (n - top)) - (1 << (n - top)))
        + 4 * int(low, 4) - 2 * int(low, 2)
        + int(tails, 4)
    )
    return Fraction(numerator, 1 << 2 * n)


def d_beta_truncated(i, j, depth: int) -> CertifiedValue:
    """Partial sum through `depth` levels, bracketed by the 2**-depth tail bound."""
    if depth < 1:
        raise ValueError("depth must be positive")
    for desc in (i, j):
        if isinstance(desc, FiniteDescriptor) and desc.depth < depth:
            raise DepthMismatchError(f"descriptor depth {desc.depth} below {depth}")
    if isinstance(i, EventualDescriptor) and isinstance(j, EventualDescriptor):
        partial = _word_sum(i, j, depth)
    else:
        partial = Fraction(_level_sum(i, j, depth), 1 << 2 * depth)
    return CertifiedValue.interval(partial, partial + pow2(-depth))


def d_hausdorff_ideal(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """Hausdorff distance between the vanishing sets of two ideals."""
    s, t = closed_set_of_ideal(i), closed_set_of_ideal(j)
    if s.is_empty() or t.is_empty():
        raise EmptySpectrumError(
            "empty-spectrum: the full algebra has no vanishing set to measure"
        )
    return hausdorff(s, t)


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


def _singleton_index(s: ClosedSubsetQI) -> int:
    if not s.is_finite or s.contains_zero:
        raise MalformedComparisonError("first set must be a singleton {2**-m}")
    ones = s.word.ones(len(s.word.head))
    if len(ones) != 1 or ones[0] < 2:
        raise MalformedComparisonError("first set must be a singleton {2**-m} with m >= 1")
    return ones[0] - 1


def _pair_indices(s: ClosedSubsetQI):
    if not s.is_finite or s.contains_zero:
        raise MalformedComparisonError("second set must be a pair {2**-n, 2**-(n+k)}")
    ones = s.word.ones(len(s.word.head))
    if len(ones) != 2 or ones[0] < 2:
        raise MalformedComparisonError(
            "second set must be a pair {2**-n, 2**-(n+k)} with n, k >= 1"
        )
    return ones[0] - 1, ones[1] - ones[0]


class ComparisonReport:
    """All three metric values for a singleton-vs-pair comparison."""

    __slots__ = ("convention", "set_a", "set_b", "d_hausdorff", "d_phi", "d_beta")

    def __init__(self, convention, set_a, set_b, dh, dphi, dbeta):
        # d_beta <= 2*d_phi is the sharp comparison between the two level
        # metrics; together with the global 2/3 and 1/2 bounds it holds for
        # every pair of ideal descriptors.
        if not (dbeta <= 2 * dphi or dphi == 0 == dbeta):
            raise ValueError("d_beta exceeds twice d_phi; inputs are not ideal descriptors")
        if not (dbeta <= Fraction(2, 3) and dphi <= Fraction(1, 2)):
            raise ValueError("global metric bounds violated; inputs are not ideal descriptors")
        self.convention = convention
        self.set_a = set_a
        self.set_b = set_b
        self.d_hausdorff = dh
        self.d_phi = dphi
        self.d_beta = dbeta

    def as_dict(self) -> dict:
        return {
            "convention": self.convention,
            "set_a": self.set_a,
            "set_b": self.set_b,
            "d_hausdorff": format_rational(self.d_hausdorff),
            "d_phi": format_rational(self.d_phi),
            "d_beta": format_rational(self.d_beta),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def to_text(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.as_dict().items())

    def __repr__(self):
        return f"ComparisonReport({self.as_dict()!r})"


def descriptors(a: ClosedSubsetQI, b: ClosedSubsetQI, convention: str):
    """Ideal descriptors of two closed sets: "paper" uses the published table
    (a singleton and a pair), "derived" the support-disjointness rule."""
    if convention == "paper":
        return (
            paper_table_descriptor(_singleton_index(a)),
            paper_table_descriptor(_pair_indices(b)),
        )
    if convention == "derived":
        return ideal_of_closed_set(a), ideal_of_closed_set(b)
    raise ValueError(f"unknown convention: {convention!r}")


def compare(a: ClosedSubsetQI, b: ClosedSubsetQI, convention: str = "paper") -> ComparisonReport:
    """Compare the ideals of a singleton and a two-point set under a convention.

    Both shapes are checked under either convention; the Hausdorff value is
    convention-free.
    """
    _singleton_index(a)
    _pair_indices(b)
    di, dj = descriptors(a, b, convention)
    return ComparisonReport(
        convention,
        format_closed_set(a),
        format_closed_set(b),
        hausdorff(a, b),
        d_phi(di, dj),
        d_beta(di, dj),
    )
