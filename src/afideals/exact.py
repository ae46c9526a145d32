"""Exact dyadic arithmetic and eventually periodic binary words.

Every metric value produced by this package is an exact Fraction, or a
`metrics.CertifiedValue` bracket of two; nothing on the value path ever
touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count


def pow2(e: int) -> Fraction:
    """2**e as a reduced fraction, for any signed integer e."""
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _read_bits(bits: str) -> tuple:
    """(mask, length) of '0'/'1' text, position k as bit k-1."""
    if not isinstance(bits, str):
        raise TypeError(f"bits must be a str of 0s and 1s, got {type(bits).__name__}")
    if bits.strip("01"):
        raise ValueError("bits must be 0 or 1")
    return int(bits[::-1] or "0", 2), len(bits)


def bit_text(mask: int, n: int) -> str:
    """Bits 1..n of a mask below 2**n as '0'/'1' characters, position 1 first."""
    return bin(mask | 1 << n)[:2:-1]


# bytes.translate table from the characters '0' and '1' to the bytes 0 and 1.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def positions(mask: int):
    """Iterator over the positions k whose bit k-1 is set, in increasing order."""
    return compress(count(1), bin(mask)[:1:-1].encode().translate(_SELECTORS))


def _rotate(mask: int, length: int, e: int) -> int:
    """A `length`-bit mask rotated so that bit e comes first."""
    return mask >> e | (mask & ((1 << e) - 1)) << (length - e)


def _primitive(period: int, length: int) -> int:
    """Length of the primitive period of a `length`-bit period mask.

    The rotations that fix the period are the multiples of its primitive
    length, so dividing out one prime factor of `length` at a time while
    the rotation by the quotient still fixes it ends at that length.
    """
    d = rest = length
    q = 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while d % q == 0 and _rotate(period, length, d // q) == period:
                d //= q
        q += 1
    return d


def _repeat(mask: int, length: int, n: int) -> int:
    """A `length`-bit mask repeated by doubling until it covers n bits."""
    while length < n:
        mask |= mask << length
        length *= 2
    return mask


class BinaryWord:
    """An infinite bit sequence b(1), b(2), ... that is eventually periodic.

    Stored as a head of `head_len` bits followed by a repeating period of
    `period_len` bits, each as an int mask with position k of the part as
    bit k-1; an empty period means every later bit is zero.  Construction
    canonicalizes (primitive period, shortest possible head), so two words
    denote the same bit stream if and only if they compare equal
    structurally.  The parts are read and shown as '0'/'1' text, position 1
    first: `BinaryWord("1011", "01")` is 1011 followed by 01 repeated.
    """

    __slots__ = ("_head_mask", "_head_len", "_period_mask", "_period_len")

    def __init__(self, head: str = "", period: str = ""):
        self._canonicalize(*_read_bits(head), *_read_bits(period))

    @classmethod
    def from_masks(cls, head_mask: int, head_len: int, period_mask: int = 0,
                   period_len: int = 0) -> "BinaryWord":
        """The word whose head and period are these masks of these lengths,
        position k of each part as bit k-1; a set bit at or past its part's
        length raises ValueError."""
        if head_mask >> head_len or period_mask >> period_len:
            raise ValueError("bits must be 0 or 1")
        w = cls.__new__(cls)
        w._canonicalize(head_mask, head_len, period_mask, period_len)
        return w

    def _canonicalize(self, head: int, h: int, period: int, length: int):
        if not period:
            # Eventually zero: the head ends with its last 1.
            h, length = head.bit_length(), 0
        else:
            if length > 1:
                length = _primitive(period, length)
                period &= (1 << length) - 1
            if h:
                # Head bits that continue the period backwards are absorbed
                # into it; each one absorbed rotates the period by one place.
                width = h + -h % length
                behind = _repeat(period, length, width) >> (width - h) & ((1 << h) - 1)
                kept = (head ^ behind).bit_length()
                shift = (h - kept) % length
                period = _rotate(period, length, length - shift)
                head &= (1 << kept) - 1
                h = kept
        self._head_mask, self._head_len = head, h
        self._period_mask, self._period_len = period, length

    @property
    def head(self) -> str:
        return bit_text(self._head_mask, self._head_len)

    @property
    def period(self) -> str:
        return bit_text(self._period_mask, self._period_len)

    @property
    def head_mask(self) -> int:
        return self._head_mask

    @property
    def head_len(self) -> int:
        return self._head_len

    @property
    def period_mask(self) -> int:
        return self._period_mask

    @property
    def period_len(self) -> int:
        return self._period_len

    def bit(self, k: int) -> int:
        """Bit at position k >= 1."""
        if k < 1:
            raise ValueError(f"positions start at 1, got {k}")
        if k <= self._head_len:
            return self._head_mask >> (k - 1) & 1
        if not self._period_len:
            return 0
        return self._period_mask >> (k - self._head_len - 1) % self._period_len & 1

    def prefix(self, n: int) -> int:
        """Bits 1..n as a mask, position k as bit k-1: the head, then the
        period repeated (zeros when empty)."""
        if n < 0:
            raise ValueError(f"prefix length must be at least 0, got {n}")
        h = self._head_len
        if n <= h:
            return self._head_mask & ((1 << n) - 1)
        if not self._period_len:
            return self._head_mask
        rest = _repeat(self._period_mask, self._period_len, n - h) & ((1 << (n - h)) - 1)
        return self._head_mask | rest << h

    def is_eventually_zero(self) -> bool:
        return not self._period_len

    def last_one(self):
        """Largest position carrying a 1, for eventually-zero words.

        Returns 0 for the all-zero word and None when ones recur forever.
        """
        # A canonical eventually-zero word's head ends with its last 1.
        return None if self._period_len else self._head_len

    def next_one(self, i: int):
        """Least position > i carrying a 1, or None; past the head the word
        repeats, so the rest of the head and one period hold every later bit."""
        if i < 0:
            raise ValueError(f"positions start at 1, got {i + 1}")
        rest = self._head_mask >> i
        if rest:
            return i + (rest & -rest).bit_length()
        length = self._period_len
        if not length:
            return None
        # Bit j of `ahead` is the period bit at position start + 1 + j.
        start = max(i, self._head_len)
        r = (start - self._head_len) % length
        ahead = _rotate(self._period_mask, length, r)
        return start + (ahead & -ahead).bit_length()

    def ones(self, upto: int):
        """Positions <= upto carrying a 1."""
        return list(positions(self.prefix(max(upto, 0))))

    def __eq__(self, other):
        if not isinstance(other, BinaryWord):
            return NotImplemented
        return (self._head_mask == other._head_mask and self._head_len == other._head_len
                and self._period_mask == other._period_mask
                and self._period_len == other._period_len)

    def __hash__(self):
        return hash((self._head_mask, self._head_len, self._period_mask, self._period_len))

    def __repr__(self):
        return f"BinaryWord(head={self.head!r}, period={self.period!r})"


def _joint(u: BinaryWord, v: BinaryWord) -> tuple:
    """(h, L, a, b): the longer head h, the joint period L = lcm of both
    periods (1 for an empty one) and both words' bits 1..h+L as masks.
    Past h both words repeat with period L, so these bits decide them."""
    h = max(u._head_len, v._head_len)
    length = math.lcm(u._period_len or 1, v._period_len or 1)
    return h, length, u.prefix(h + length), v.prefix(h + length)


def word_xor(u: BinaryWord, v: BinaryWord) -> BinaryWord:
    """Bitwise XOR of two words (eventually periodic again)."""
    h, length, a, b = _joint(u, v)
    x = a ^ b
    return BinaryWord.from_masks(x & ((1 << h) - 1), h, x >> h, length)


def first_diff_index(u: BinaryWord, v: BinaryWord):
    """Least position where the two words differ, or None when equal.  Past
    both heads the pair repeats with the joint period, so the heads and one
    joint period suffice.  The heads and the longer period are tried first:
    a difference there costs only the words' own bits, where the joint
    period can be their product.  The joint period is read only when it is
    longer than the longer period."""
    h = max(u._head_len, v._head_len)
    n = h + max(u._period_len, v._period_len, 1)
    x = u.prefix(n) ^ v.prefix(n)
    if not x:
        length = math.lcm(u._period_len or 1, v._period_len or 1)
        if h + length > n:
            x = u.prefix(h + length) ^ v.prefix(h + length)
    return (x & -x).bit_length() or None


def first_outside(u: BinaryWord, v: BinaryWord) -> tuple:
    """(k, l): the least position where u has bit 1 and v bit 0, and the
    least where v has 1 and u 0, each None when there is none.  Past both
    heads the pair repeats with the joint period, so the heads and one joint
    period suffice.  Both come from one read of the heads and the longer
    period; the joint period is read once, and only when it is longer and a
    direction found nothing in that window."""
    h = max(u._head_len, v._head_len)
    n = h + max(u._period_len, v._period_len, 1)
    a, b = u.prefix(n), v.prefix(n)
    x, y = a & ~b, b & ~a
    if not (x and y):
        length = math.lcm(u._period_len or 1, v._period_len or 1)
        if h + length > n:
            a, b = u.prefix(h + length), v.prefix(h + length)
            x, y = x or a & ~b, y or b & ~a
    return (x & -x).bit_length() or None, (y & -y).bit_length() or None


def _weight(x: int, h: int, length: int, base: int) -> tuple:
    """Numerator and denominator of the sum of base**-k over the set bits k
    of a word whose bits 1..h+length are the mask x, the last `length` of
    them repeating forever.  With X those bits read as base-`base` digits,
    bit 1 first, the head is X // base**length over base**h and the period
    block X % base**length over base**h * (base**length - 1); together they
    are (X - X // base**length) / (base**h * (base**length - 1))."""
    digits = int(bit_text(x, h + length), base)
    block = base**length
    return digits - digits // block, base**h * (block - 1)


def xor_weight(u: BinaryWord, v: BinaryWord) -> tuple:
    """Numerator and denominator of the sum of 4**-k over the positions k
    where the two words differ, read off their joint bits: past the longer
    head their XOR repeats with the joint period."""
    h, length, a, b = _joint(u, v)
    return _weight(a ^ b, h, length, 4)


def word_weight(w: BinaryWord, from_index: int = 1, base: int = 2) -> Fraction:
    """Sum of base**-k over positions k >= from_index with bit 1, exactly:
    the bits of the head, and of one period repeated, read as base-`base` digits."""
    if from_index < 1:
        raise ValueError(f"positions start at 1, got {from_index}")
    # The word from from_index on has head h and the same period length.
    skip = from_index - 1
    h = max(w._head_len - skip, 0)
    length = w._period_len or 1
    num, den = _weight(w.prefix(skip + h + length) >> skip, h, length, base)
    return Fraction(num, den * base**skip)


def format_word(w: BinaryWord) -> str:
    return f"head={w.head};period={w.period}"
