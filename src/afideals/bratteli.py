"""Bratteli diagrams and level-wise ideal descriptors.

A diagram records, per level, the dimensions of the simple direct summands
and the edge multiplicities into the next level.  An ideal meets each level
in a direct sum of full summands, so an ideal truncated to finitely many
levels is just a family of index sets that is forward-closed along edges
and saturated backwards.
"""

from __future__ import annotations

import operator
from itertools import chain, compress

from .exact import BinaryWord, first_diff_index


class WidthMismatchError(ValueError):
    """Descriptor and diagram disagree on a level width."""


class BratteliDiagram:
    """Per-level summand dimensions plus edge multiplicities between levels.

    Levels are numbered from 1, summand indices within a level from 1.
    Zero entries of an edge map are dropped on construction, so every edge
    listed exists.
    """

    __slots__ = ("_dims", "_edges")

    def __init__(self, dims, edges):
        self._dims = tuple(tuple(int(d) for d in level) for level in dims)
        edges = tuple(edges)
        if not self._dims:
            raise ValueError("a diagram needs at least one level")
        if len(edges) != len(self._dims) - 1:
            raise ValueError("need exactly depth-1 edge maps")
        for n, level in enumerate(self._dims, 1):
            if any(d < 1 for d in level):
                raise ValueError(f"nonpositive dimension at level {n}")
        maps = []
        for n, gap in enumerate(edges, 1):
            width, below = len(self._dims[n - 1]), len(self._dims[n])
            kept = {}
            for (k, j), m in gap.items():
                k, j, m = int(k), int(j), int(m)
                if m == 0:
                    continue
                if not (1 <= k <= width and 1 <= j <= below):
                    raise ValueError(f"edge ({k},{j}) out of range between levels {n} and {n + 1}")
                if m < 0:
                    raise ValueError(f"negative number of edges ({k},{j}) at level {n}")
                kept[(k, j)] = m
            maps.append(kept)
        self._edges = tuple(maps)

    @property
    def depth(self) -> int:
        return len(self._dims)

    def _level(self, n: int) -> int:
        if not 1 <= n <= len(self._dims):
            raise ValueError(f"level {n} outside 1..{len(self._dims)}")
        return n - 1

    def _gap(self, n: int) -> int:
        if not 1 <= n < len(self._dims):
            raise ValueError(f"gap {n} outside 1..{len(self._dims) - 1}")
        return n - 1

    def width(self, n: int) -> int:
        return len(self._dims[self._level(n)])

    def dims(self, n: int) -> tuple:
        return self._dims[self._level(n)]

    def edges(self, n: int) -> dict:
        """Edge counts between level n and level n+1, keyed by (k, j)."""
        return dict(self._edges[self._gap(n)])

    def successors(self, n: int, k: int) -> frozenset:
        """Indices at level n+1 reached from summand k by at least one edge."""
        gap = self._edges[self._gap(n)]
        if not 1 <= k <= self.width(n):
            raise ValueError(f"summand {k} outside 1..{self.width(n)} at level {n}")
        return frozenset(j for kk, j in gap if kk == k)

    def _pullback(self, n: int, below) -> set:
        """Summands of level n all of whose successors lie in `below` at level
        n+1, from one pass over the gap's edges."""
        leaving = {k for k, j in self._edges[self._gap(n)] if j not in below}
        return set(range(1, len(self._dims[n - 1]) + 1)).difference(leaving)

    def __repr__(self):
        return f"BratteliDiagram(depth={self.depth})"


def qi_diagram(depth: int) -> BratteliDiagram:
    """The quantized-interval diagram: level n has n one-dimensional summands.

    Between levels n and n+1, summand k < n passes straight to k, while the
    tail summand n splits into the new isolated point n and the new tail n+1.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    dims = [(1,) * n for n in range(1, depth + 1)]
    edges = []
    for n in range(1, depth):
        gap = {(k, k): 1 for k in range(1, n)}
        gap[(n, n)] = 1
        gap[(n, n + 1)] = 1
        edges.append(gap)
    return BratteliDiagram(dims, edges)


class FiniteDescriptor:
    """Depth-truncated ideal: one index subset per level."""

    __slots__ = ("_sets",)

    def __init__(self, sets):
        self._sets = tuple(frozenset(map(int, s)) for s in sets)
        if not self._sets:
            raise ValueError("a descriptor needs at least one level")
        for n, s in enumerate(self._sets, 1):
            if s and min(s) < 1:
                raise ValueError(f"nonpositive index at level {n}")

    @classmethod
    def _trusted(cls, sets) -> "FiniteDescriptor":
        """Levels that are already frozensets of positive ints, kept as they are."""
        f = cls.__new__(cls)
        f._sets = tuple(sets)
        if not f._sets:
            raise ValueError("a descriptor needs at least one level")
        return f

    @property
    def depth(self) -> int:
        return len(self._sets)

    def sets(self, n: int) -> frozenset:
        if not 1 <= n <= len(self._sets):
            raise ValueError(f"level {n} outside 1..{len(self._sets)}")
        return self._sets[n - 1]

    @property
    def all_sets(self) -> tuple:
        return self._sets

    def __eq__(self, other):
        if not isinstance(other, FiniteDescriptor):
            return NotImplemented
        return self._sets == other._sets

    def __hash__(self):
        return hash(self._sets)

    def __repr__(self):
        return f"FiniteDescriptor({[sorted(s) for s in self._sets]!r})"


def _check_widths(d: BratteliDiagram, f: FiniteDescriptor):
    if f.depth > d.depth:
        raise WidthMismatchError(f"descriptor depth {f.depth} exceeds diagram depth {d.depth}")
    for n, s in enumerate(f.all_sets, 1):
        width = len(d._dims[n - 1])
        if s and max(s) > width:
            k = next(k for k in s if k > width)
            raise WidthMismatchError(f"index {k} exceeds width {width} at level {n}")


def is_ideal(d: BratteliDiagram, f: FiniteDescriptor) -> bool:
    """Forward closure and saturation at every level below the truncation depth:
    level n is exactly the pullback of level n+1, the summands all of whose
    successors lie in it.  One pass over the edges.

    The final level only needs to receive edges correctly, so it imposes no
    condition of its own; saturation there would need the next level.
    """
    _check_widths(d, f)
    sets = f.all_sets
    return all(sets[n - 1] == d._pullback(n, sets[n]) for n in range(1, f.depth))


def ideal_closure(d: BratteliDiagram, seed: FiniteDescriptor) -> FiniteDescriptor:
    """Smallest descriptor containing the seed that satisfies both closure laws.

    Two sweeps, following the correspondence between ideals and directed
    hereditary vertex sets (Bratteli, Trans. AMS 171, 1972).  Forward
    propagation runs from level 1 down; level n receives nothing after its
    own step, so each level pushes its final set and the result is forward
    closed.  Saturation then runs from the bottom level up and adds to
    level n the pullback of level n+1, which is final by then, so each
    level ends saturated.  Saturation adds only k whose successors are
    already present, so forward closure still holds.  Both rules add only
    indices that every ideal holding the seed contains, so the result is
    the smallest.
    """
    _check_widths(d, seed)
    sets = [set(s) for s in seed.all_sets]
    for n in range(1, seed.depth):
        here = sets[n - 1]
        sets[n].update(j for k, j in d._edges[n - 1] if k in here)
    for n in range(seed.depth - 1, 0, -1):
        sets[n - 1] |= d._pullback(n, sets[n])
    return FiniteDescriptor(sets)


class EventualDescriptor:
    """Finitely presented ideal over the quantized-interval diagram shape.

    Two words carry the levels: level p holds the indices k < p whose
    excluded bit E_k is 0, plus the tail index p itself when the tail bit
    T_p is 1, where T is eventually constant.  Both words are read off the
    level sets (E_k from level k+1, T_p from whether p lies in level p), so
    structural equality is semantic (level-wise) equality.
    """

    __slots__ = ("_excluded", "_tail")

    def __init__(self, excluded: BinaryWord, tail: BinaryWord):
        if tail.period not in ((), (1,)):
            raise ValueError("the tail word must be eventually constant")
        self._excluded = excluded
        self._tail = tail

    @property
    def excluded(self) -> BinaryWord:
        return self._excluded

    @property
    def tail(self) -> BinaryWord:
        return self._tail

    def __eq__(self, other):
        if not isinstance(other, EventualDescriptor):
            return NotImplemented
        return self._excluded == other._excluded and self._tail == other._tail

    def __hash__(self):
        return hash((self._excluded, self._tail))

    def __repr__(self):
        return f"EventualDescriptor(excluded={self._excluded!r}, tail={self._tail!r})"


def level_set(e: EventualDescriptor, p: int) -> frozenset:
    """Index set at level p (width p on the quantized-interval diagram): the
    indices k < p whose excluded bit is 0, plus p when the tail bit is set."""
    if p < 1:
        raise ValueError("levels start at 1")
    keep = chain(map(operator.not_, e.excluded.prefix(p - 1)), (e.tail.bit(p),))
    return frozenset(compress(range(1, p + 1), keep))


def first_disagreement(i: EventualDescriptor, j: EventualDescriptor):
    """Least level where the two descriptors differ, or None when equal.

    Level p differs in the tail index p where the tail words differ, and in
    every k < p where the excluded words differ, so from level k+1 on.
    """
    t = first_diff_index(i.tail, j.tail)
    k = first_diff_index(i.excluded, j.excluded)
    if k is not None:
        k += 1
    return min((p for p in (t, k) if p is not None), default=None)


def to_finite(e: EventualDescriptor, depth: int) -> FiniteDescriptor:
    """Levels 1..depth, as level_set gives them, from one prefix of each word:
    level p holds the indices k < p kept so far, plus p when T_p is set."""
    excluded, tail = e.excluded.prefix(depth), e.tail.prefix(depth)
    kept, levels = frozenset(), []
    for p in range(1, depth + 1):
        levels.append(kept | {p} if tail[p - 1] else kept)
        if not excluded[p - 1]:
            kept = kept | {p}
    return FiniteDescriptor._trusted(levels)


def serialize_diagram(d: BratteliDiagram) -> str:
    lines = []
    for n in range(1, d.depth + 1):
        lines.append("dims: " + " ".join(str(x) for x in d.dims(n)))
        if n < d.depth:
            parts = [f"{k}>{j}:{m}" for (k, j), m in sorted(d.edges(n).items())]
            lines.append("edges: " + " ".join(parts))
    return "\n".join(lines) + "\n"
