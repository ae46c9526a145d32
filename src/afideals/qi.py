"""The quantized interval: closed subsets, Hausdorff distance, and the
closed-set / ideal-descriptor correspondence.

Points are x_k = 2**(1-k) for k >= 1 together with the limit point 0.
A closed subset is an eventually periodic membership word over the x_k;
a set with infinitely many points automatically contains 0, and a finite
set may carry 0 explicitly.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

from .bratteli import EventualDescriptor, first_disagreement, level_set
from .exact import BinaryWord, first_index, format_word, pow2

__all__ = [
    "ZERO",
    "QIPoint",
    "ClosedSubsetQI",
    "EmptySetError",
    "DescriptorConventionError",
    "contains",
    "point_distance",
    "hausdorff",
    "ideal_of_closed_set",
    "closed_set_of_ideal",
    "paper_table_descriptor",
    "parse_closed_set",
    "format_closed_set",
    "clip",
]

# Largest closed-set literal parse_closed_set accepts, in bits: head plus
# period of a word, or the largest point index of a point list.  At this
# size an exact d_beta's denominator has at most about 1,234 digits, under
# the 4300 digits str() converts from an int.
MAX_LITERAL_BITS = 2048

# Longest rendering of a user's value that an error message echoes whole.
CLIP_LIMIT = 64

_POINT_TOKEN = re.compile(r"(-?\d+)(?:/(0*[1-9]\d*))?")


class EmptySetError(ValueError):
    """Distance to the empty set is undefined."""


class DescriptorConventionError(ValueError):
    """Descriptor does not arise from the support-disjointness convention."""


class QIPoint:
    """A point of the quantized interval: index k denotes 2**(1-k), None denotes 0."""

    __slots__ = ("_index",)

    def __init__(self, index=None):
        if index is not None and index < 1:
            raise ValueError("point indices start at 1")
        self._index = index

    @property
    def index(self):
        return self._index

    @property
    def is_zero(self) -> bool:
        return self._index is None

    @property
    def value(self) -> Fraction:
        if self._index is None:
            return Fraction(0)
        return pow2(1 - self._index)

    def __eq__(self, other):
        if not isinstance(other, QIPoint):
            return NotImplemented
        return self._index == other._index

    def __hash__(self):
        return hash(self._index)

    def __repr__(self):
        return "QIPoint(0)" if self.is_zero else f"QIPoint(index={self._index})"


ZERO = QIPoint(None)


class ClosedSubsetQI:
    """Closed subset of the quantized interval.

    bit(k) of the word says whether x_k = 2**(1-k) belongs to the set.
    Infinitely many points force the limit point 0 in; a finite set is
    closed with or without 0, so 0-membership is tracked explicitly there.
    """

    __slots__ = ("_word", "_zero")

    def __init__(self, word: BinaryWord = BinaryWord(), include_zero: bool = False):
        self._word = word
        self._zero = bool(include_zero) or not word.is_eventually_zero()

    @property
    def word(self) -> BinaryWord:
        return self._word

    @property
    def contains_zero(self) -> bool:
        return self._zero

    @property
    def is_finite(self) -> bool:
        return self._word.is_eventually_zero() and not self._zero

    def is_empty(self) -> bool:
        # Only the all-zero word is canonically empty in head and period.
        return not (self._zero or self._word.head or self._word.period)

    def __eq__(self, other):
        if not isinstance(other, ClosedSubsetQI):
            return NotImplemented
        return self._word == other._word and self._zero == other._zero

    def __hash__(self):
        return hash((self._word, self._zero))

    def __repr__(self):
        return f"ClosedSubsetQI({format_closed_set(self)!r})"


def contains(s: ClosedSubsetQI, x: QIPoint) -> bool:
    if x.is_zero:
        return s.contains_zero
    return bool(s.word.bit(x.index))


def point_distance(x: QIPoint, s: ClosedSubsetQI) -> Fraction:
    """Exact distance from a point to a nonempty closed subset.

    Members below x_i lie less than x_i (the distance to 0) away, members
    above it at least x_i: the nearest is the next member below, else 0,
    else the smallest member.  With j the next member below x_i and m the
    last point of s, a point outside s is at distance

    * (2**(j-i) - 1) / 2**(j-1) = x_i - x_j from x_i when j exists,
    * 2**(1-i) = x_i from x_i when s holds 0 but no j,
    * (2**(i-m) - 1) / 2**(i-1) = x_m - x_i from x_i otherwise (m < i),
    * 2**(1-m) = x_m from the point 0.

    The first and third numerators are odd, so each fraction is reduced.
    """
    if s.is_empty():
        raise EmptySetError("distance to the empty set is undefined")
    if contains(s, x):
        return Fraction(0)
    if x.is_zero:
        return pow2(1 - s.word.last_one())
    i = x.index
    j = s.word.next_one(i)
    if j is not None:
        return Fraction((1 << (j - i)) - 1, 1 << (j - 1))
    if s.contains_zero:
        return pow2(1 - i)
    m = s.word.last_one()
    return Fraction((1 << (i - m)) - 1, 1 << (i - 1))


def hausdorff(s: ClosedSubsetQI, t: ClosedSubsetQI) -> Fraction:
    """Exact Hausdorff distance between two nonempty closed subsets.

    The directed distance from a to b is attained at the first point x_k0
    of a outside b or at the least point of a (0 when a holds it, else its
    last point); no scan bound is needed:

    * Points x_k of a past k0 with a member of b below them have
      d(x_k, b) < x_k <= x_k0 / 2, while d(x_k0, b) >= x_k0 / 2: members
      of b below x_k0 lie at most at x_k0 / 2, members above at least at
      2 x_k0.
    * The other points of a outside b lie below every point of b, so b
      holds no 0, and their distance is the least point of b minus
      themselves: largest at the least point of a.
    """
    if s.is_empty() or t.is_empty():
        raise EmptySetError("Hausdorff distance to the empty set is undefined")

    def directed(a: ClosedSubsetQI, b: ClosedSubsetQI) -> Fraction:
        k0 = first_index(a.word, b.word, operator.gt)
        far = point_distance(ZERO if a.contains_zero else QIPoint(a.word.last_one()), b)
        return far if k0 is None else max(point_distance(QIPoint(k0), b), far)

    return max(directed(s, t), directed(t, s))


def ideal_of_closed_set(s: ClosedSubsetQI) -> EventualDescriptor:
    """Descriptor of the ideal of functions vanishing on s.

    Summand k < p corresponds to the isolated point x_k and belongs to the
    ideal iff x_k is outside s, so the excluded word is s's own word.  The
    tail summand p belongs iff s misses [0, 2**(1-p)] entirely: s is finite
    and its last point comes before x_p.  So the tail word is 0 up to the
    last point of a finite set and 1 after it, and 0 throughout otherwise.
    """
    if s.is_finite:
        tail = BinaryWord((0,) * s.word.last_one(), (1,))
    else:
        tail = BinaryWord()
    return EventualDescriptor(s.word, tail)


def closed_set_of_ideal(e: EventualDescriptor) -> ClosedSubsetQI:
    """Inverse of ideal_of_closed_set; rejects descriptors of any other shape."""
    zero = e.tail.is_eventually_zero()
    if not (zero or e.excluded.is_eventually_zero()):
        raise DescriptorConventionError(
            "tail word eventually 1 but excluded points recur forever"
        )
    s = ClosedSubsetQI(e.excluded, include_zero=zero)
    check = ideal_of_closed_set(s)
    if e != check:
        p = first_disagreement(e, check)
        raise DescriptorConventionError(
            f"level {p} is {sorted(level_set(e, p))}, support rule gives "
            f"{sorted(level_set(check, p))}"
        )
    return s


def paper_table_descriptor(selector) -> EventualDescriptor:
    """Descriptor following the published level-set table verbatim.

    `selector` is either an integer m (the singleton {2**-m}) or a pair
    (n, k) (the two-point set {2**-n, 2**-(n+k)}).  These patterns differ
    from the support-disjointness convention at levels up to m (resp. n):
    there the table keeps the tail summand inside the ideal.  The excluded
    word marks the set's points x_(m+1) (resp. x_(n+1), x_(n+k+1)), and the
    table's tail summand is missing just at those levels: the tail word is
    1^m 0 1 1 ... (resp. 1^n 0 1^(k-1) 0 1 1 ...).
    """
    if isinstance(selector, int):
        m = selector
        if m < 1:
            raise ValueError("m must be positive")
        excluded = BinaryWord([0] * m + [1])
        tail = BinaryWord([1] * m + [0], [1])
    else:
        n, k = selector
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        bits = [0] * (n + k + 1)
        bits[n] = 1
        bits[n + k] = 1
        excluded = BinaryWord(bits)
        tail = BinaryWord([1] * n + [0] + [1] * (k - 1) + [0], [1])
    return EventualDescriptor(excluded, tail)


def parse_closed_set(text: str) -> ClosedSubsetQI:
    """Parse the shared closed-set grammar.

    Either a comma list of dyadic points ("1,1/2,1/8", optionally with "0",
    empty for the empty set) or an explicit word "head=BITS;period=BITS"
    with an optional ";zero=1" suffix for finite sets containing 0.  A
    literal over MAX_LITERAL_BITS is refused.
    """
    text = text.strip()
    if text.startswith("head="):
        m = re.fullmatch(r"head=([01]*);period=([01]*)(;zero=1)?", text)
        if m is None:
            raise ValueError(f"bad closed-set literal: {clip(text)}")
        _check_size(len(m.group(1)) + len(m.group(2)))
        return ClosedSubsetQI(BinaryWord(m.group(1), m.group(2)), include_zero=bool(m.group(3)))
    if not text:
        return ClosedSubsetQI()
    indices = set()
    zero = False
    for token in text.split(","):
        token = token.strip()
        n, d = _point_token(token)
        if n == 0:
            zero = True
        # n/d is x_m = 2**(1-m) exactly when d/n is a power of two 2**(m-1).
        elif n < 0 or d % n or (d // n) & (d // n - 1):
            raise ValueError(f"bad point token: {clip(token)}")
        else:
            indices.add((d // n).bit_length())
    last = max(indices, default=0)
    _check_size(last)
    return ClosedSubsetQI(BinaryWord([k in indices for k in range(1, last + 1)]), zero)


def _point_token(token: str) -> tuple:
    """Numerator and denominator of an "n" or "n/d" token, as ints."""
    m = _POINT_TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(f"bad point token: {clip(token)}")
    try:
        return int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # int() refuses strings past its digit limit
        raise ValueError(f"bad point token: {clip(token)} has an integer over the "
                         f"{sys.get_int_max_str_digits()} digits int() reads") from None


def clip(text: str, show=repr) -> str:
    """show(text), or when that passes CLIP_LIMIT characters, show() of the
    text's start followed by its length, so an error line stays short."""
    shown = show(text)
    if len(shown) <= CLIP_LIMIT:
        return shown
    start = text[:24]
    while len(show(start)) > 26:  # escapes such as \x01 lengthen a repr
        start = start[:-1]
    return f"{show(start)}... ({len(text)} characters)"


def _check_size(bits: int):
    if bits > MAX_LITERAL_BITS:
        raise ValueError(
            f"closed-set literal needs {bits} bits, more than the {MAX_LITERAL_BITS} allowed"
        )


def format_closed_set(s: ClosedSubsetQI) -> str:
    if s.word.is_eventually_zero():
        parts = [str(pow2(1 - k)) for k in s.word.ones(len(s.word.head))]
        if s.contains_zero:
            parts.append("0")
        if parts:
            return ",".join(parts)
        return format_word(s.word)
    return format_word(s.word)
