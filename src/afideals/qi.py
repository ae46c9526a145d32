"""The quantized interval: closed subsets, Hausdorff distance, and the
closed-set / ideal-descriptor correspondence.

Points are x_k = 2**(1-k) for k >= 1 together with the limit point 0; a
point is passed as its index k, and None stands for 0.
A closed subset is an eventually periodic membership word over the x_k;
a set with infinitely many points automatically contains 0, and a finite
set may carry 0 explicitly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .bratteli import EventualDescriptor, first_disagreement, level_set
from .exact import BinaryWord, first_outside, pow2

# Largest closed-set literal parse_closed_set accepts, in bits: head plus
# period of a word, or the largest point index of a point list.  At this
# size an exact d_beta whose excluded words settle, the only kind the CLI
# computes, has a denominator of at most about 1,234 digits, under the 4300
# digits str() converts from an int.  When they never settle, the
# denominator grows with the lcm of the two periods (see metrics.d_beta).
MAX_LITERAL_BITS = 2048

# Longest rendering of a user's value that an error message echoes whole.
CLIP_LIMIT = 64

_POINT_TOKEN = re.compile(r"(\d+)(?:/(0*[1-9]\d*))?", re.ASCII)


class EmptySetError(ValueError):
    """Distance to the empty set is undefined."""


class DescriptorConventionError(ValueError):
    """Descriptor does not arise from the support-disjointness convention."""


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
        return not (self._zero or self._word.head_mask or self._word.period_mask)

    def __eq__(self, other):
        if not isinstance(other, ClosedSubsetQI):
            return NotImplemented
        return self._word == other._word and self._zero == other._zero

    def __hash__(self):
        return hash((self._word, self._zero))

    def __repr__(self):
        return f"ClosedSubsetQI({format_closed_set(self)!r})"


def point_distance(i: int | None, s: ClosedSubsetQI) -> Fraction:
    """Exact distance from the point x_i (the point 0 when i is None) to a
    nonempty closed subset.

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
    n, e = _distance(i, s)
    return Fraction(n, 1 << e)


def _distance(i: int | None, s: ClosedSubsetQI) -> tuple:
    """point_distance(i, s) as (n, e), the dyadic rational n / 2**e."""
    w = s.word
    if i is None:
        return (0, 0) if s.contains_zero else (1, w.last_one() - 1)
    if w.bit(i):
        return 0, 0
    j = w.next_one(i)
    if j is not None:
        return (1 << (j - i)) - 1, j - 1
    if s.contains_zero:
        return 1, i - 1
    return (1 << (i - w.last_one())) - 1, i - 1


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
    # Both directions' first points outside come from one read of the pair.
    k, l = first_outside(s.word, t.word)
    best = _larger(_distance(None if s.contains_zero else s.word.last_one(), t),
                   _distance(None if t.contains_zero else t.word.last_one(), s))
    if k is not None:
        best = _larger(best, _distance(k, t))
    if l is not None:
        best = _larger(best, _distance(l, s))
    n, e = best
    return Fraction(n, 1 << e)


def _larger(x: tuple, y: tuple) -> tuple:
    """The larger of two dyadic rationals given as (n, e) for n / 2**e.
    Comparing shifted numerators costs one pass over the larger; Fraction
    would multiply, which takes milliseconds at the literal cap, where the
    first point outside can lie millions of positions deep."""
    return x if x[0] << y[1] >= y[0] << x[1] else y


def ideal_of_closed_set(s: ClosedSubsetQI) -> EventualDescriptor:
    """Descriptor of the ideal of functions vanishing on s.

    Summand k < p corresponds to the isolated point x_k and belongs to the
    ideal iff x_k is outside s, so the excluded word is s's own word.  The
    tail summand p belongs iff s misses [0, 2**(1-p)] entirely: s is finite
    and its last point comes before x_p.  So the tail word is 0 up to the
    last point of a finite set and 1 after it, and 0 throughout otherwise.
    """
    if s.is_finite:
        tail = BinaryWord.from_masks(0, s.word.last_one(), 1, 1)
    else:
        tail = BinaryWord()
    return EventualDescriptor(s.word, tail)


def closed_set_of_ideal(e: EventualDescriptor) -> ClosedSubsetQI:
    """Inverse of ideal_of_closed_set; rejects descriptors of any other shape."""
    s = ClosedSubsetQI(e.excluded, include_zero=e.tail.is_eventually_zero())
    check = ideal_of_closed_set(s)
    if e != check:
        p = first_disagreement(e, check)
        raise DescriptorConventionError(
            f"level {p} is {sorted(level_set(e, p))}, support rule gives "
            f"{sorted(level_set(check, p))}"
        )
    return s


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
    mask = 0
    zero = False
    for token in text.split(","):
        token = token.strip()
        n, d = _point_token(token)
        if n == 0:
            zero = True
        # n/d is x_m = 2**(1-m) exactly when d/n is a power of two 2**(m-1).
        elif d % n or (d // n) & (d // n - 1):
            raise ValueError(f"bad point token: {clip(token)}")
        else:
            mask |= 1 << (d // n).bit_length() - 1
    _check_size(mask.bit_length())
    return ClosedSubsetQI(BinaryWord.from_masks(mask, mask.bit_length()), zero)


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
        parts = [str(pow2(1 - k)) for k in s.word.ones(s.word.head_len)]
        if s.contains_zero:
            parts.append("0")
        if parts:
            return ",".join(parts)
    return f"head={s.word.head};period={s.word.period}"
