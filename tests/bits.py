"""Helpers shared by the test modules: bit strings, which the tests build
their words from ('0'/'1' text, position 1 first, as `BinaryWord` reads
them), the exhaustive word and closed-set sweeps built from them, and the
union and intersection of two closed sets, built from their words' masks."""

import math
import operator
from itertools import product

from afideals.exact import BinaryWord
from afideals.qi import ClosedSubsetQI


def bit_strings(n: int) -> list:
    """Every bit string of at most n bits, shortest first."""
    return ["".join(bits) for m in range(n + 1) for bits in product("01", repeat=m)]


def random_bits(rng, n: int, one: bool = False) -> str:
    """n bits, one `rng.randint(0, 1)` draw each; with `one`, at least one
    of them is 1, set by one more draw when none is."""
    bits = [str(rng.randint(0, 1)) for _ in range(n)]
    if one and "1" not in bits:
        bits[rng.randrange(n)] = "1"
    return "".join(bits)


def all_words(max_head: int, max_period: int) -> set:
    """Every canonical word with head and period at most these lengths."""
    return {BinaryWord(head, period)
            for head in bit_strings(max_head) for period in bit_strings(max_period)}


def short_sets(max_head: int = 4, max_period: int = 3) -> list:
    """Every closed set whose word has a head of at most `max_head` bits and a
    period of at most `max_period`, with and without 0, sorted by repr; by
    default 176 sets, the empty set among them."""
    return sorted({ClosedSubsetQI(w, zero) for w in all_words(max_head, max_period)
                   for zero in (False, True)}, key=repr)


def _bitwise(s: ClosedSubsetQI, t: ClosedSubsetQI, op) -> BinaryWord:
    """The word of op on both words' bits, taken over the longer head and
    the lcm of the periods, past which both repeat."""
    u, v = s.word, t.word
    h = max(u.head_len, v.head_len)
    length = math.lcm(u.period_len or 1, v.period_len or 1)
    bits = op(u.prefix(h + length), v.prefix(h + length))
    return BinaryWord.from_masks(bits & ((1 << h) - 1), h, bits >> h, length)


def union(s: ClosedSubsetQI, t: ClosedSubsetQI) -> ClosedSubsetQI:
    """S ∪ S': both words and both zero flags OR-ed."""
    return ClosedSubsetQI(_bitwise(s, t, operator.or_), s.contains_zero or t.contains_zero)


def intersection(s: ClosedSubsetQI, t: ClosedSubsetQI) -> ClosedSubsetQI:
    """S ∩ S': both words and both zero flags AND-ed."""
    return ClosedSubsetQI(_bitwise(s, t, operator.and_), s.contains_zero and t.contains_zero)
