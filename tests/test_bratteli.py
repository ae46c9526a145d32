import random
from itertools import product

import pytest

from afideals.bratteli import (
    BratteliDiagram,
    EventualDescriptor,
    FiniteDescriptor,
    WidthMismatchError,
    ideal_closure,
    is_ideal,
    level_set,
    parse_diagram,
    qi_diagram,
    serialize_diagram,
    to_finite,
    validate_diagram,
)
from afideals.exact import BinaryWord
from afideals.qi import ideal_of_closed_set, paper_table_descriptor, parse_closed_set


def brute_closure(d, seed):
    """Independent closure oracle: repeated single-rule application."""
    sets = [set(seed.sets(n)) for n in range(1, seed.depth + 1)]
    while True:
        before = [set(s) for s in sets]
        for n in range(1, seed.depth):
            for k in range(1, d.width(n) + 1):
                succ = {j for (kk, j), m in d.edges(n).items() if kk == k and m > 0}
                if k in sets[n - 1]:
                    sets[n] |= succ
                if succ <= sets[n] and k not in sets[n - 1]:
                    sets[n - 1].add(k)
        if sets == before:
            return FiniteDescriptor(sets)


def scan_successors(d, n, k):
    return {j for (kk, j), m in d.edges(n).items() if kk == k and m > 0}


def ideal_by_definition(d, f):
    """Forward closed and saturated at every level below the last, from edges(n) alone."""
    for n in range(1, f.depth):
        for k in range(1, d.width(n) + 1):
            inside = scan_successors(d, n, k) <= f.sets(n + 1)
            if k in f.sets(n) and not inside:
                return False
            if k not in f.sets(n) and inside:
                return False
    return True


def random_diagram(rng):
    """Widths up to 5, dimensions up to 3, each edge present with multiplicity
    0, 1 or 2: orphan summands and summands without successors both occur."""
    widths = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
    dims = [[rng.randint(1, 3) for _ in range(w)] for w in widths]
    edges = [
        {(k, j): rng.randint(0, 2)
         for k in range(1, w + 1) for j in range(1, w_next + 1) if rng.random() < 0.4}
        for w, w_next in zip(widths, widths[1:])
    ]
    return BratteliDiagram(dims, edges)


def random_levels(rng, d, depth, density):
    return FiniteDescriptor([
        frozenset(k for k in range(1, d.width(n) + 1) if rng.random() < density)
        for n in range(1, depth + 1)
    ])


class TestQiDiagram:
    def test_level_three_shape(self):
        d = qi_diagram(3)
        assert d.dims(3) == (1, 1, 1)
        assert d.edges(2) == {(1, 1): 1, (2, 2): 1, (2, 3): 1}

    def test_depth_one(self):
        d = qi_diagram(1)
        assert d.depth == 1
        assert d.dims(1) == (1,)

    def test_valid_by_direct_unitality_sums(self):
        d = qi_diagram(8)
        assert validate_diagram(d) == []
        for n in range(1, 8):
            for j in range(1, d.width(n + 1) + 1):
                embedded = sum(
                    d.multiplicity(n, k, j) * d.dims(n)[k - 1]
                    for k in range(1, d.width(n) + 1)
                )
                assert embedded == d.dims(n + 1)[j - 1]


class TestLevelAccessors:
    @pytest.mark.parametrize("name, args", [
        ("width", (0,)), ("width", (5,)),
        ("dims", (0,)), ("dims", (5,)),
        ("edges", (0,)), ("edges", (4,)),
        ("multiplicity", (0, 1, 1)), ("multiplicity", (4, 1, 1)),
        ("successors", (0, 3)), ("successors", (4, 1)),
        ("successors", (2, 0)), ("successors", (2, 3)),
    ])
    def test_diagram_rejects_out_of_range(self, name, args):
        with pytest.raises(ValueError):
            getattr(qi_diagram(4), name)(*args)

    def test_diagram_range_ends(self):
        d = qi_diagram(4)
        assert d.width(4) == 4 and d.dims(1) == (1,)
        assert d.edges(3) == {(1, 1): 1, (2, 2): 1, (3, 3): 1, (3, 4): 1}
        assert d.multiplicity(3, 3, 4) == 1
        assert d.successors(1, 1) == {1, 2} and d.successors(3, 3) == {3, 4}

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_descriptor_sets_rejects_out_of_range(self, n):
        f = FiniteDescriptor([(1,), (1, 2), ()])
        assert f.sets(3) == frozenset()
        with pytest.raises(ValueError):
            f.sets(n)


class TestValidateDiagram:
    def test_unitality_violation(self):
        d = qi_diagram(5)
        dims = [list(d.dims(n)) for n in range(1, 6)]
        dims[3][0] = 2
        bad = BratteliDiagram(dims, [d.edges(n) for n in range(1, 5)])
        report = validate_diagram(bad)
        assert any("unitality" in line and "level 4" in line for line in report)

    def test_orphan_summand(self):
        bad = BratteliDiagram([(1,), (1, 1)], [{(1, 1): 1}])
        report = validate_diagram(bad)
        assert any("orphan" in line for line in report)


class TestIsIdeal:
    def test_full_and_empty(self):
        d = qi_diagram(5)
        full = FiniteDescriptor([range(1, n + 1) for n in range(1, 6)])
        empty = FiniteDescriptor([()] * 5)
        assert is_ideal(d, full)
        assert is_ideal(d, empty)

    def test_vanish_at_zero(self):
        d = qi_diagram(6)
        f = FiniteDescriptor([range(1, n) for n in range(1, 7)])
        assert is_ideal(d, f)

    def test_rejects_forward_violation(self):
        d = qi_diagram(3)
        # tail summand 1 at level 1 must push into both successors at level 2
        f = FiniteDescriptor([(1,), (1,), (1,)])
        assert not is_ideal(d, f)

    def test_rejects_unsaturated(self):
        d = qi_diagram(2)
        # both successors of the level-1 summand are present, so it must be too
        f = FiniteDescriptor([(), (1, 2)])
        assert not is_ideal(d, f)

    def test_width_mismatch(self):
        d = qi_diagram(3)
        with pytest.raises(WidthMismatchError):
            is_ideal(d, FiniteDescriptor([(1,), (1, 3)]))


class TestIdealClosure:
    def test_fixed_point_on_ideals(self):
        d = qi_diagram(6)
        f = FiniteDescriptor([range(1, n) for n in range(1, 7)])
        assert ideal_closure(d, f) == f

    def test_empty_seed(self):
        d = qi_diagram(4)
        empty = FiniteDescriptor([()] * 4)
        assert ideal_closure(d, empty) == empty

    def test_forward_fill_from_single_summand(self):
        d = qi_diagram(6)
        seed = FiniteDescriptor([(), (), (3,), (), (), ()])
        closed = ideal_closure(d, seed)
        assert closed == FiniteDescriptor([(), (), (3,), (3, 4), (3, 4, 5), (3, 4, 5, 6)])
        assert closed == brute_closure(d, seed)

    def test_idempotent_and_monotone(self):
        rng = random.Random(21)
        d = qi_diagram(8)
        for _ in range(100):
            small = [frozenset(k for k in range(1, p + 1) if rng.random() < 0.25)
                     for p in range(1, 9)]
            big = [s | frozenset(k for k in range(1, p + 1) if rng.random() < 0.25)
                   for p, s in enumerate(small, 1)]
            c_small = ideal_closure(d, FiniteDescriptor(small))
            c_big = ideal_closure(d, FiniteDescriptor(big))
            assert is_ideal(d, c_small)
            assert ideal_closure(d, c_small) == c_small
            assert all(c_small.sets(p) <= c_big.sets(p) for p in range(1, 9))
            assert c_small == brute_closure(d, FiniteDescriptor(small))


class TestGeneralDiagrams:
    def test_random_diagrams_against_definition(self):
        rng = random.Random(43)
        orphans = sinks = 0
        for _ in range(500):
            d = random_diagram(rng)
            for n in range(1, d.depth):
                for k in range(1, d.width(n) + 1):
                    assert d.successors(n, k) == scan_successors(d, n, k)
                    sinks += not scan_successors(d, n, k)
            orphans += any("orphan" in line for line in validate_diagram(d))
            seed = random_levels(rng, d, rng.randint(1, d.depth), 0.3)
            closed = ideal_closure(d, seed)
            assert closed == brute_closure(d, seed)
            assert is_ideal(d, closed)
            n = rng.randint(1, closed.depth)
            toggled = FiniteDescriptor(
                [s ^ {rng.randint(1, d.width(n))} if p == n else s
                 for p, s in enumerate(closed.all_sets, 1)]
            )
            for f in (seed, closed, toggled, random_levels(rng, d, d.depth, 0.6)):
                assert is_ideal(d, f) == ideal_by_definition(d, f)
        assert orphans > 50 and sinks > 50

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_qi_diagrams_against_definition(self, n):
        rng = random.Random(n)
        d = qi_diagram(n)
        for p in range(1, n):
            for k in range(1, p + 1):
                assert d.successors(p, k) == scan_successors(d, p, k)
        seed = random_levels(rng, d, n, 2 / n)
        closed = ideal_closure(d, seed)
        assert closed == brute_closure(d, seed)
        for f in (seed, closed, random_levels(rng, d, n, 0.5)):
            assert is_ideal(d, f) == ideal_by_definition(d, f)


class TestLevelSet:
    def test_paper_singleton_pattern(self):
        for m in (1, 3, 5):
            e = paper_table_descriptor(m)
            for p in range(1, m + 1):
                assert level_set(e, p) == frozenset(range(1, p + 1))
            assert level_set(e, m + 1) == frozenset(range(1, m + 1))
            for p in range(m + 2, m + 8):
                assert level_set(e, p) == frozenset(range(1, m + 1)) | frozenset(
                    range(m + 2, p + 1)
                )

    def test_full_algebra(self):
        e = EventualDescriptor(BinaryWord(), BinaryWord((), (1,)))
        for p in (1, 2, 7, 30):
            assert level_set(e, p) == frozenset(range(1, p + 1))

    def test_derived_singleton_level(self):
        e = ideal_of_closed_set(parse_closed_set("1/2"))
        assert level_set(e, 3) == frozenset({1, 3})


def all_words(max_head: int, max_period: int) -> set:
    """Every canonical word with head and period at most these lengths."""
    return {BinaryWord(head, period)
            for h in range(max_head + 1) for head in product((0, 1), repeat=h)
            for p in range(max_period + 1) for period in product((0, 1), repeat=p)}


class TestToFinite:
    DEPTHS = (1, 2, 7, 32)

    def assert_levels_match(self, e):
        levels = tuple(level_set(e, p) for p in range(1, max(self.DEPTHS) + 1))
        for n in self.DEPTHS:
            assert to_finite(e, n).all_sets == levels[:n]

    def test_exhaustive_short_descriptors(self):
        tails = [w for w in all_words(4, 1) if w.period in ((), (1,))]
        for excluded in all_words(4, 3):
            for tail in tails:
                self.assert_levels_match(EventualDescriptor(excluded, tail))

    def test_random_general_tails(self):
        rng = random.Random(23)
        from afideals.checks import random_word

        for _ in range(300):
            excluded = random_word(rng, max_head=40, max_period=9)
            tail = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 40))],
                              (1,) if rng.random() < 0.5 else ())
            self.assert_levels_match(EventualDescriptor(excluded, tail))


class TestEventualDescriptor:
    def test_rejects_tail_word_that_never_settles(self):
        with pytest.raises(ValueError, match="eventually constant"):
            EventualDescriptor(BinaryWord(), BinaryWord((), (1, 0)))

    def test_repr_names_both_words(self):
        e = paper_table_descriptor((2, 1))
        text = repr(e)
        assert text == (
            "EventualDescriptor(excluded=BinaryWord(head=(0, 0, 1, 1), period=()), "
            "tail=BinaryWord(head=(1, 1, 0, 0), period=(1,)))"
        )
        assert eval(text) == e


class TestSymdiffLevel:
    def test_paper_patterns(self):
        a = paper_table_descriptor(1)
        b = paper_table_descriptor((2, 1))
        assert level_set(a, 2) ^ level_set(b, 2) == frozenset({2})
        assert level_set(a, 5) ^ level_set(b, 5) == frozenset({2, 3, 4})

    def test_width_bound(self):
        rng = random.Random(4)
        from afideals.checks import random_ideal

        for _ in range(100):
            i, j = random_ideal(rng), random_ideal(rng)
            for p in range(1, 20):
                assert len(level_set(i, p) ^ level_set(j, p)) <= p


def test_eventual_descriptor_prefix_ideal_extends():
    rng = random.Random(17)
    from afideals.checks import random_word

    found = 0
    d = qi_diagram(64)
    for _ in range(400):
        word = random_word(rng)
        tail = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 3))],
                          (1,) if rng.random() < 0.5 else ())
        e = EventualDescriptor(word, tail)
        check_depth = (len(e.tail.head) + len(e.excluded.head)
                       + 2 * max(1, len(e.excluded.period)) + 4)
        if is_ideal(d, to_finite(e, check_depth)):
            found += 1
            assert is_ideal(d, to_finite(e, 64))
    assert found > 10


class TestSerialization:
    def test_diagram_round_trip(self):
        d = qi_diagram(5)
        text = serialize_diagram(d)
        assert parse_diagram(text) == d
        assert serialize_diagram(parse_diagram(text)) == text

    def test_diagram_format_shape(self):
        text = serialize_diagram(qi_diagram(2))
        assert text == "dims: 1\nedges: 1>1:1 1>2:1\ndims: 1 1\n"
