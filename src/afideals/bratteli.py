"""Bratteli diagrams and level-wise ideal descriptors.

A diagram records, per level, the dimensions of the simple direct summands
and the edge multiplicities into the next level.  An ideal meets each level
in a direct sum of full summands, so an ideal truncated to finitely many
levels is just a family of index sets that is forward-closed along edges
and saturated backwards.
"""

from __future__ import annotations

import re

from .exact import BinaryWord, format_word, parse_word


class WidthMismatchError(ValueError):
    """Descriptor and diagram disagree on a level width."""


class BratteliDiagram:
    """Per-level summand dimensions plus edge multiplicities between levels.

    Levels are numbered from 1, summand indices within a level from 1.
    Zero-multiplicity edges are dropped on construction so equal diagrams
    compare equal structurally.
    """

    __slots__ = ("_dims", "_edges")

    def __init__(self, dims, edges):
        self._dims = tuple(tuple(int(d) for d in level) for level in dims)
        self._edges = tuple(
            {(int(k), int(j)): int(m) for (k, j), m in gap.items() if int(m) != 0}
            for gap in edges
        )
        if not self._dims:
            raise ValueError("a diagram needs at least one level")
        if len(self._edges) != len(self._dims) - 1:
            raise ValueError("need exactly depth-1 edge maps")
        for n, level in enumerate(self._dims, 1):
            if any(d < 1 for d in level):
                raise ValueError(f"nonpositive dimension at level {n}")
        for n, gap in enumerate(self._edges, 1):
            for (k, j), m in gap.items():
                if not (1 <= k <= self.width(n) and 1 <= j <= self.width(n + 1)):
                    raise ValueError(f"edge ({k},{j}) out of range between levels {n} and {n + 1}")
                if m < 0:
                    raise ValueError(f"negative multiplicity on edge ({k},{j}) at level {n}")

    @property
    def depth(self) -> int:
        return len(self._dims)

    def width(self, n: int) -> int:
        return len(self._dims[n - 1])

    def dims(self, n: int) -> tuple:
        return self._dims[n - 1]

    def edges(self, n: int) -> dict:
        """Multiplicity map between level n and level n+1."""
        return dict(self._edges[n - 1])

    def multiplicity(self, n: int, k: int, j: int) -> int:
        return self._edges[n - 1].get((k, j), 0)

    def successors(self, n: int, k: int) -> frozenset:
        """Indices at level n+1 reached from summand k with positive multiplicity."""
        return frozenset(j for (kk, j), m in self._edges[n - 1].items() if kk == k and m > 0)

    def __eq__(self, other):
        if not isinstance(other, BratteliDiagram):
            return NotImplemented
        return self._dims == other._dims and self._edges == other._edges

    def __hash__(self):
        return hash((self._dims, tuple(frozenset(g.items()) for g in self._edges)))

    def __repr__(self):
        return f"BratteliDiagram(depth={self.depth})"


def validate_diagram(d: BratteliDiagram) -> list:
    """All invariant violations, as human-readable strings; empty iff valid.

    Checks the unital-embedding dimension law and that every summand past
    the first level receives at least one positive-multiplicity edge.
    """
    report = []
    for n in range(1, d.depth):
        gap = d.edges(n)
        for j in range(1, d.width(n + 1) + 1):
            total = sum(m * d.dims(n)[k - 1] for (k, jj), m in gap.items() if jj == j)
            if total != d.dims(n + 1)[j - 1]:
                report.append(
                    f"unitality violated at level {n + 1}, summand {j}: "
                    f"dim {d.dims(n + 1)[j - 1]} != embedded sum {total}"
                )
            if not any(jj == j and m > 0 for (k, jj), m in gap.items()):
                report.append(f"orphan summand at level {n + 1}, index {j}: no incoming edge")
    return report


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
        self._sets = tuple(frozenset(int(k) for k in s) for s in sets)
        if not self._sets:
            raise ValueError("a descriptor needs at least one level")
        for n, s in enumerate(self._sets, 1):
            if any(k < 1 for k in s):
                raise ValueError(f"nonpositive index at level {n}")

    @property
    def depth(self) -> int:
        return len(self._sets)

    def sets(self, n: int) -> frozenset:
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
    for n in range(1, f.depth + 1):
        for k in f.sets(n):
            if k > d.width(n):
                raise WidthMismatchError(f"index {k} exceeds width {d.width(n)} at level {n}")


def is_ideal(d: BratteliDiagram, f: FiniteDescriptor) -> bool:
    """Forward closure and saturation at every level below the truncation depth.

    The final level only needs to receive edges correctly, so it imposes no
    condition of its own; saturation there would need the next level.
    """
    _check_widths(d, f)
    for n in range(1, f.depth):
        for k in range(1, d.width(n) + 1):
            succ = d.successors(n, k)
            if k in f.sets(n):
                if not succ <= f.sets(n + 1):
                    return False
            elif succ <= f.sets(n + 1):
                return False
    return True


def ideal_closure(d: BratteliDiagram, seed: FiniteDescriptor) -> FiniteDescriptor:
    """Smallest descriptor containing the seed that satisfies both closure laws.

    Alternates forward propagation along edges with backward saturation
    until a fixpoint; both rules only ever add indices, so this terminates.
    """
    _check_widths(d, seed)
    sets = [set(seed.sets(n)) for n in range(1, seed.depth + 1)]
    changed = True
    while changed:
        changed = False
        for n in range(1, seed.depth):
            for k in list(sets[n - 1]):
                for j in d.successors(n, k):
                    if j not in sets[n]:
                        sets[n].add(j)
                        changed = True
            for k in range(1, d.width(n) + 1):
                if k not in sets[n - 1] and d.successors(n, k) <= sets[n]:
                    sets[n - 1].add(k)
                    changed = True
    return FiniteDescriptor(sets)


class EventualDescriptor:
    """Finitely presented ideal over the quantized-interval diagram shape.

    Levels below p0 are listed explicitly; from level p0 on, level p holds
    the indices k <= p-1 whose excluded bit is 0, plus the tail index p
    itself when the tail flag is set.  Construction trims explicit levels
    that already follow the eventual rule, so structural equality is
    semantic (level-wise) equality.
    """

    __slots__ = ("_p0", "_head", "_excluded", "_tail")

    def __init__(self, p0: int, head, excluded: BinaryWord, include_tail: bool):
        head = tuple(frozenset(int(k) for k in s) for s in head)
        if p0 < 1:
            raise ValueError("p0 must be positive")
        if len(head) != p0 - 1:
            raise ValueError(f"need {p0 - 1} explicit levels, got {len(head)}")
        for p, s in enumerate(head, 1):
            if any(not 1 <= k <= p for k in s):
                raise ValueError(f"index out of range at explicit level {p}")
        tail = bool(include_tail)
        while p0 > 1 and head[-1] == _eventual_rule(excluded, tail, p0 - 1):
            head = head[:-1]
            p0 -= 1
        self._p0 = p0
        self._head = head
        self._excluded = excluded
        self._tail = tail

    @property
    def p0(self) -> int:
        return self._p0

    @property
    def head(self) -> tuple:
        return self._head

    @property
    def excluded(self) -> BinaryWord:
        return self._excluded

    @property
    def include_tail(self) -> bool:
        return self._tail

    def __eq__(self, other):
        if not isinstance(other, EventualDescriptor):
            return NotImplemented
        return (
            self._p0 == other._p0
            and self._head == other._head
            and self._excluded == other._excluded
            and self._tail == other._tail
        )

    def __hash__(self):
        return hash((self._p0, self._head, self._excluded, self._tail))

    def __repr__(self):
        return (
            f"EventualDescriptor(p0={self._p0}, head={[sorted(s) for s in self._head]!r}, "
            f"excluded={self._excluded!r}, include_tail={self._tail})"
        )


def _eventual_rule(excluded: BinaryWord, include_tail: bool, p: int) -> frozenset:
    s = {k for k in range(1, p) if excluded.bit(k) == 0}
    if include_tail:
        s.add(p)
    return frozenset(s)


def level_set(e: EventualDescriptor, p: int) -> frozenset:
    """Index set at level p (width p on the quantized-interval diagram)."""
    if p < 1:
        raise ValueError("levels start at 1")
    if p < e.p0:
        return e.head[p - 1]
    return _eventual_rule(e.excluded, e.include_tail, p)


def to_finite(e: EventualDescriptor, depth: int) -> FiniteDescriptor:
    return FiniteDescriptor([level_set(e, p) for p in range(1, depth + 1)])


def serialize_diagram(d: BratteliDiagram) -> str:
    lines = []
    for n in range(1, d.depth + 1):
        lines.append("dims: " + " ".join(str(x) for x in d.dims(n)))
        if n < d.depth:
            parts = [f"{k}>{j}:{m}" for (k, j), m in sorted(d.edges(n).items())]
            lines.append("edges: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> BratteliDiagram:
    dims, edges = [], []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for ln in lines:
        if ln.startswith("dims:"):
            dims.append(tuple(int(x) for x in ln[len("dims:"):].split()))
        elif ln.startswith("edges:"):
            gap = {}
            for part in ln[len("edges:"):].split():
                m = re.fullmatch(r"(\d+)>(\d+):(\d+)", part)
                if m is None:
                    raise ValueError(f"bad edge entry: {part!r}")
                gap[(int(m.group(1)), int(m.group(2)))] = int(m.group(3))
            edges.append(gap)
        else:
            raise ValueError(f"bad diagram line: {ln!r}")
    return BratteliDiagram(dims, edges)


def _format_set(s) -> str:
    return "{" + ",".join(str(k) for k in sorted(s)) + "}"


def serialize_descriptor(e: EventualDescriptor) -> str:
    levels = ",".join(_format_set(s) for s in e.head)
    return (
        f"p0={e.p0}; exclude={format_word(e.excluded)}; "
        f"tail={1 if e.include_tail else 0}; head_levels=[{levels}]"
    )


def parse_descriptor(text: str) -> EventualDescriptor:
    m = re.fullmatch(
        r"p0=(\d+); exclude=(head=[01]*;period=[01]*); tail=([01]); head_levels=\[(.*)\]",
        text.strip(),
    )
    if m is None:
        raise ValueError(f"bad descriptor literal: {text!r}")
    word = parse_word(m.group(2))
    raw = m.group(4)
    head = []
    if raw:
        for item in re.findall(r"\{([0-9,]*)\}", raw):
            head.append(frozenset(int(x) for x in item.split(",") if x))
        if len(re.findall(r"\{[0-9,]*\}", raw)) != raw.count("{"):
            raise ValueError(f"bad head levels: {raw!r}")
    return EventualDescriptor(int(m.group(1)), head, word, m.group(3) == "1")
