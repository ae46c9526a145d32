"""Helpers shared by the test modules: bit strings, which the tests build
their words from ('0'/'1' text, position 1 first, as `BinaryWord` reads
them), and the exhaustive word and closed-set sweeps built from them."""

from itertools import product

from afideals.exact import BinaryWord
from afideals.qi import ClosedSubsetQI


def bit_strings(n: int) -> list:
    """Every bit string of at most n bits, shortest first."""
    return ["".join(bits) for m in range(n + 1) for bits in product("01", repeat=m)]


def random_bits(rng, n: int) -> str:
    """n bits, one `rng.randint(0, 1)` draw each."""
    return "".join(str(rng.randint(0, 1)) for _ in range(n))


def all_words(max_head: int, max_period: int) -> set:
    """Every canonical word with head and period at most these lengths."""
    return {BinaryWord(head, period)
            for head in bit_strings(max_head) for period in bit_strings(max_period)}


def short_sets() -> list:
    """Every closed set whose word has a head of at most 4 bits and a period
    of at most 3, with and without 0, sorted by repr: 176 sets, the empty
    set among them."""
    return sorted({ClosedSubsetQI(w, zero) for w in all_words(4, 3) for zero in (False, True)},
                  key=repr)
