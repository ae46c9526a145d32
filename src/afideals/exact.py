"""Exact dyadic arithmetic and eventually periodic binary words.

Every metric value produced by this package is a `fractions.Fraction`;
nothing on the value path ever touches floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress


class EmptyRangeError(ValueError):
    """Raised when a geometric block is requested over an empty range."""


def pow2(e: int) -> Fraction:
    """2**e as a reduced fraction, for any signed integer e."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def geom_block(a: int, b=None) -> Fraction:
    """Sum of 2**-p for p = a..b, exactly.

    `b` may be None (or math.inf) for the infinite tail, which sums to
    2**(1-a).  An empty range (a > b) is an error, not zero.
    """
    if a < 1:
        raise ValueError(f"block must start at a positive index, got a={a}")
    if b is None or b == math.inf:
        return pow2(1 - a)
    if a > b:
        raise EmptyRangeError(f"empty block: a={a} > b={b}")
    return pow2(1 - a) - pow2(-b)


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class BinaryWord:
    """An infinite bit sequence b(1), b(2), ... that is eventually periodic.

    Stored as an explicit head followed by a repeating period; an empty
    period means every later bit is zero.  Construction canonicalizes
    (primitive period, shortest possible head), so two words denote the
    same bit stream if and only if they compare equal structurally.
    """

    __slots__ = ("_head", "_period")

    def __init__(self, head=(), period=()):
        head = tuple(map(int, head))
        period = tuple(map(int, period))
        if not {*head, *period} <= {0, 1}:
            raise ValueError("bits must be 0 or 1")
        if not any(period):
            period = ()
        else:
            period = _primitive(period)
        if period:
            while head and head[-1] == period[-1]:
                head = head[:-1]
                period = period[-1:] + period[:-1]
        elif 1 in head:
            head = head[:len(head) - head[::-1].index(1)]
        else:
            head = ()
        self._head = head
        self._period = period

    @property
    def head(self) -> tuple:
        return self._head

    @property
    def period(self) -> tuple:
        return self._period

    def bit(self, k: int) -> int:
        """Bit at position k >= 1."""
        if k < 1:
            raise ValueError(f"positions start at 1, got {k}")
        if k <= len(self._head):
            return self._head[k - 1]
        if not self._period:
            return 0
        return self._period[(k - len(self._head) - 1) % len(self._period)]

    def prefix(self, n: int) -> tuple:
        """Bits 1..n: the head, then the period repeated (zeros when empty)."""
        if n < 0:
            raise ValueError(f"prefix length must be at least 0, got {n}")
        head, period = self._head, self._period
        rest = n - len(head)
        if rest <= 0:
            return head[:n]
        if not period:
            return head + (0,) * rest
        return head + (period * -(-rest // len(period)))[:rest]

    def is_eventually_zero(self) -> bool:
        return not self._period

    def last_one(self):
        """Largest position carrying a 1, for eventually-zero words.

        Returns 0 for the all-zero word and None when ones recur forever.
        """
        # A canonical eventually-zero word's head ends with its last 1.
        return None if self._period else len(self._head)

    def next_one(self, i: int):
        """Least position > i carrying a 1, or None; past the head the word
        repeats, so the rest of the head and one period hold every later bit."""
        for k in range(i + 1, max(i, len(self._head)) + len(self._period) + 1):
            if self.bit(k):
                return k
        return None

    def ones(self, upto: int):
        """Positions <= upto carrying a 1."""
        return list(compress(range(1, upto + 1), self.prefix(max(upto, 0))))

    def __eq__(self, other):
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return self._head == other._head and self._period == other._period

    def __hash__(self):
        return hash((self._head, self._period))

    def __repr__(self):
        return f"BinaryWord(head={self._head!r}, period={self._period!r})"


def word_xor(u: BinaryWord, v: BinaryWord) -> BinaryWord:
    """Bitwise XOR of two words (eventually periodic again)."""
    h = max(len(u.head), len(v.head))
    lu, lv = len(u.period), len(v.period)
    if lu == 0 and lv == 0:
        length = 0
    else:
        length = math.lcm(lu or 1, lv or 1)
    bits = tuple(map(operator.xor, u.prefix(h + length), v.prefix(h + length)))
    return BinaryWord(bits[:h], bits[h:])


def first_index(u: BinaryWord, v: BinaryWord, pred):
    """Least position k where pred(u.bit(k), v.bit(k)) holds, or None; past
    both heads the pair repeats, so the heads and one joint period suffice."""
    h = max(len(u.head), len(v.head))
    length = math.lcm(len(u.period) or 1, len(v.period) or 1)
    for k in range(1, h + length + 1):
        if pred(u.bit(k), v.bit(k)):
            return k
    return None


def first_diff_index(u: BinaryWord, v: BinaryWord):
    """Least position where the two words differ, or None when equal."""
    return first_index(u, v, operator.ne)


def word_weight(w: BinaryWord, from_index: int = 1, base: int = 2) -> Fraction:
    """Sum of base**-k over positions k >= from_index with bit 1, exactly:
    the bits of the head, and of one period repeated, read as base-`base` digits."""
    if from_index < 1:
        raise ValueError(f"positions start at 1, got {from_index}")
    h, length = len(w.head), len(w.period)
    head = int("".join(map(str, w.head[from_index - 1:])) or "0", base)
    if not length:
        return Fraction(head, base**h)
    # The head over base**h plus the block of one period over
    # base**(start-1) * (base**length - 1), as one fraction.
    start = max(from_index, h + 1)
    shift = (start - h - 1) % length
    block = int("".join(map(str, w.period[shift:] + w.period[:shift])), base)
    repunit = base**length - 1
    return Fraction(head * base ** (start - 1 - h) * repunit + block, base ** (start - 1) * repunit)


def format_word(w: BinaryWord) -> str:
    head = "".join(map(str, w.head))
    period = "".join(map(str, w.period))
    return f"head={head};period={period}"

