"""Bit-string helpers for the test modules, which build their words from
'0'/'1' text, position 1 first, as `BinaryWord` reads them."""

from itertools import product


def bit_strings(n: int) -> list:
    """Every bit string of at most n bits, shortest first."""
    return ["".join(bits) for m in range(n + 1) for bits in product("01", repeat=m)]


def random_bits(rng, n: int) -> str:
    """n bits, one `rng.randint(0, 1)` draw each."""
    return "".join(str(rng.randint(0, 1)) for _ in range(n))
