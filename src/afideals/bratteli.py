"""Bratteli diagrams and level-wise ideal descriptors.

A diagram records, per level, the dimensions of the simple direct summands
and the edge multiplicities into the next level.  An ideal meets each level
in a direct sum of full summands, so an ideal truncated to finitely many
levels is just a family of index sets that is forward-closed along edges
and saturated backwards.  Each level's set is stored as one int, index k
as bit k-1.  `ideal_closure` applies the closure laws a few big-int
operations per level, since each level depends on the one before.
`is_ideal` tests every level at once: the descriptor's levels are joined
into one int at a fixed stride of whole bytes, level n at byte (n-1)*size,
and the diagram keeps, for each edge offset, one int holding every gap's
mask at the same stride, so saturation is one shift-and-AND per offset.
"""

from __future__ import annotations

from collections import defaultdict

from .exact import BinaryWord, first_diff_index, positions


class WidthMismatchError(ValueError):
    """Descriptor and diagram disagree on a level width."""


class BratteliDiagram:
    """Per-level summand dimensions plus edge multiplicities between levels.

    Levels are numbered from 1, summand indices within a level from 1.
    Zero entries of an edge map are dropped on construction, so every edge
    listed exists.  Each gap is also read by offset: for every d = j - k
    that occurs, the mask of summands k with an edge to k + d, and for
    `is_ideal` one int per offset that joins every gap's mask.  Both are
    derived on first use, so building a diagram costs no more.
    """

    __slots__ = ("_dims", "_edges", "_offsets", "_joined")

    def __init__(self, dims, edges):
        self._dims = tuple(map(tuple, dims))
        edges = tuple(edges)
        if not self._dims:
            raise ValueError("a diagram needs at least one level")
        if len(edges) != len(self._dims) - 1:
            raise ValueError("need exactly depth-1 edge maps")
        for n, level in enumerate(self._dims, 1):
            if not all(type(d) is int for d in level):
                raise ValueError(f"non-int dimension at level {n}")
            if any(d < 1 for d in level):
                raise ValueError(f"nonpositive dimension at level {n}")
        maps = []
        for n, gap in enumerate(edges, 1):
            width, below = len(self._dims[n - 1]), len(self._dims[n])
            kept = {}
            for (k, j), m in gap.items():
                if not (type(k) is int and type(j) is int and type(m) is int):
                    raise ValueError(f"non-int edge entry ({k!r},{j!r}): {m!r} at level {n}")
                if m == 0:
                    continue
                if not (1 <= k <= width and 1 <= j <= below):
                    raise ValueError(f"edge ({k},{j}) out of range between levels {n} and {n + 1}")
                if m < 0:
                    raise ValueError(f"negative number of edges ({k},{j}) at level {n}")
                kept[(k, j)] = m
            maps.append(kept)
        self._edges = tuple(maps)
        self._offsets = self._joined = None

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

    def _derive(self):
        """Read the edges by offset d = j - k: bit k-1 of gap n's mask M_d is
        set when summand k of level n has an edge to summand k + d of level
        n+1.  `_offsets[n-1]` lists (d, M_d) for gap n.  `_joined` is
        (size, full, ((d, J_d), ...)): J_d holds every gap's M_d at a stride
        of `size` bytes, wider than every level, gap n at byte (n-1)*size,
        and `full` every level's full mask at the same stride.  One pass over
        the edges fills a row of '0'/'1' per offset: J_d reads the whole row
        and each M_d its gap's stretch of it, so this is linear in the
        masks' size.
        """
        size = max(map(len, self._dims)) // 8 + 1
        stride, gaps = 8 * size, len(self._edges)
        rows = defaultdict(lambda: bytearray(b"0") * (stride * gaps))
        for n, gap in enumerate(self._edges):
            end = stride * (gaps - n)  # a row's first char is its top bit
            for k, j in gap:
                rows[j - k][end - k] = 49  # '1'
        joined = tuple((d, int(row, 2)) for d, row in rows.items())
        self._offsets = tuple(tuple((d, int(row[end - stride:end], 2)) for d, row in rows.items())
                              for end in range(stride * gaps, 0, -stride))
        self._joined = size, _join(((1 << len(level)) - 1 for level in self._dims), size), joined

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
    """Depth-truncated ideal: one index subset per level, held as a mask
    with bit k-1 set for index k."""

    __slots__ = ("_masks",)

    def __init__(self, sets):
        masks = []
        for n, s in enumerate(sets, 1):
            mask = 0
            for k in s:
                if k < 1:
                    raise ValueError(f"nonpositive index at level {n}")
                mask |= 1 << (k - 1)
            masks.append(mask)
        self._masks = _levels(masks)

    @classmethod
    def _of_masks(cls, masks):
        f = cls.__new__(cls)
        f._masks = _levels(masks)
        return f

    @property
    def depth(self) -> int:
        return len(self._masks)

    def sets(self, n: int) -> frozenset:
        if not 1 <= n <= len(self._masks):
            raise ValueError(f"level {n} outside 1..{len(self._masks)}")
        return _indices(self._masks[n - 1])

    @property
    def all_sets(self) -> tuple:
        return tuple(map(_indices, self._masks))

    def __le__(self, other):
        """Level-wise inclusion; both descriptors must have the same depth."""
        if not isinstance(other, FiniteDescriptor):
            return NotImplemented
        if len(self._masks) != len(other._masks):
            raise ValueError(f"depths differ: {self.depth} and {other.depth}")
        return not any(a & ~b for a, b in zip(self._masks, other._masks))

    def __eq__(self, other):
        if not isinstance(other, FiniteDescriptor):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self):
        return hash(self._masks)

    def __repr__(self):
        return f"FiniteDescriptor({[sorted(s) for s in self.all_sets]!r})"


def _levels(masks) -> tuple:
    masks = tuple(masks)
    if not masks:
        raise ValueError("a descriptor needs at least one level")
    return masks


def _indices(mask: int) -> frozenset:
    """Indices k whose bit k-1 is set."""
    return frozenset(positions(mask))


def _join(masks, size: int) -> int:
    """The masks as one int, the i-th at bit 8 * size * i; OverflowError when
    a mask does not fit in `size` bytes."""
    return int.from_bytes(b"".join(m.to_bytes(size, "little") for m in masks), "little")


def _check_widths(d: BratteliDiagram, f: FiniteDescriptor):
    if f.depth > d.depth:
        raise WidthMismatchError(f"descriptor depth {f.depth} exceeds diagram depth {d.depth}")
    for n, mask in enumerate(f._masks, 1):
        width = len(d._dims[n - 1])
        over = mask >> width
        if over:
            k = width + (over & -over).bit_length()
            raise WidthMismatchError(f"index {k} exceeds width {width} at level {n}")


def is_ideal(d: BratteliDiagram, f: FiniteDescriptor) -> bool:
    """Forward closure and saturation at every level below the truncation depth:
    level n is exactly the pullback of level n+1, the summands all of whose
    successors lie in it.

    All levels at once: with the levels joined at the diagram's stride,
    shifting the complement down one stride puts level n+1's complement at
    level n's place, and M_d of gap n reads it only inside that place.  So
    one shift-and-AND per offset gives every level's leaving summands, and
    one comparison below the last level tests them all.  The width check is
    one AND; only when it fails does the per-level check run, for its message.

    The final level only needs to receive edges correctly, so it imposes no
    condition of its own; saturation there would need the next level.
    """
    if d._joined is None:
        d._derive()
    size, full, joined = d._joined
    try:
        levels = _join(f._masks, size)
    except OverflowError:
        levels = -1  # a level wider than the stride; fails the AND below
    if f.depth > d.depth or levels & ~full:
        _check_widths(d, f)
    stride = 8 * size
    outside = ~levels >> stride
    leaving = 0
    for offset, m in joined:
        leaving |= m & (outside >> offset if offset >= 0 else outside << -offset)
    return not (levels ^ full ^ leaving) & ((1 << stride * (f.depth - 1)) - 1)


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
    the smallest.  Over gap n's (d, M_d), level n+1 gains each (level n &
    M_d) moved up by d, and level n each summand in no M_d & (level n+1's
    complement moved down by d).
    """
    _check_widths(d, seed)
    if d._offsets is None:
        d._derive()
    gaps = d._offsets[:seed.depth - 1]
    masks = list(seed._masks)
    for n, gap in enumerate(gaps, 1):
        here, reached = masks[n - 1], 0
        for offset, m in gap:
            reached |= (here & m) << offset if offset >= 0 else (here & m) >> -offset
        masks[n] |= reached
    for n in range(len(gaps), 0, -1):
        outside, leaving = ~masks[n], 0
        for offset, m in gaps[n - 1]:
            leaving |= m & (outside >> offset if offset >= 0 else outside << -offset)
        masks[n - 1] |= ((1 << len(d._dims[n - 1])) - 1) ^ leaving
    return FiniteDescriptor._of_masks(masks)


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
        if tail.period_len > 1:
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
    below = (1 << (p - 1)) - 1
    return _indices(~e.excluded.prefix(p - 1) & below | e.tail.bit(p) << (p - 1))


def first_disagreement(i: EventualDescriptor, j: EventualDescriptor):
    """Least level where the two descriptors differ, or None when equal.

    Level p differs in the tail index p where the tail words differ, and in
    every k < p where the excluded words differ, so from level k+1 on.
    """
    t = first_diff_index(i.tail, j.tail)
    k = first_diff_index(i.excluded, j.excluded)
    if k is None:
        return t
    return k + 1 if t is None or k < t else t


def to_finite(e: EventualDescriptor, depth: int) -> FiniteDescriptor:
    """Levels 1..depth, as level_set gives them, from one prefix of each word:
    level p is ~E on bits below p - 1, plus bit p - 1 of T."""
    kept, tail = ~e.excluded.prefix(depth), e.tail.prefix(depth)
    levels = [kept & ((1 << p) - 1) | tail & 1 << p for p in range(depth)]
    return FiniteDescriptor._of_masks(levels)


def serialize_diagram(d: BratteliDiagram) -> str:
    lines = []
    for n in range(1, d.depth + 1):
        lines.append("dims: " + " ".join(str(x) for x in d.dims(n)))
        if n < d.depth:
            parts = [f"{k}>{j}:{m}" for (k, j), m in sorted(d.edges(n).items())]
            lines.append("edges: " + " ".join(parts))
    return "\n".join(lines) + "\n"
