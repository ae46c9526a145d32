import random

import pytest

from afideals.bratteli import (
    BratteliDiagram,
    EventualDescriptor,
    FiniteDescriptor,
    WidthMismatchError,
    ideal_closure,
    is_ideal,
    level_set,
    qi_diagram,
    to_finite,
)
from afideals.exact import BinaryWord
from afideals.metrics import descriptor
from afideals.qi import ideal_of_closed_set, parse_closed_set
from bits import all_words, random_bits


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


def set_pullback(d, n, below):
    """Set-based reference: summands of level n with no edge leaving `below`."""
    leaving = {k for k, j in d.edges(n) if j not in below}
    return frozenset(range(1, d.width(n) + 1)) - leaving


def set_is_ideal(d, levels):
    return all(levels[n - 1] == set_pullback(d, n, levels[n]) for n in range(1, len(levels)))


def set_closure(d, levels):
    """Set-based reference for the two-sweep closure, on plain index sets."""
    sets = [set(s) for s in levels]
    for n in range(1, len(sets)):
        here = sets[n - 1]
        sets[n].update(j for k, j in d.edges(n) if k in here)
    for n in range(len(sets) - 1, 0, -1):
        sets[n - 1] |= set_pullback(d, n, sets[n])
    return tuple(map(frozenset, sets))


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


def random_diagram_parts(rng):
    """Widths up to 5, dimensions up to 3, each pair of summands joined by
    0, 1 or 2 edges: orphan summands and summands without successors both occur."""
    widths = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
    dims = [[rng.randint(1, 3) for _ in range(w)] for w in widths]
    edges = [
        {(k, j): rng.randint(0, 2)
         for k in range(1, w + 1) for j in range(1, w_next + 1) if rng.random() < 0.4}
        for w, w_next in zip(widths, widths[1:])
    ]
    return dims, edges


def random_diagram(rng):
    return BratteliDiagram(*random_diagram_parts(rng))


def random_level_sets(rng, d, depth, density):
    return [frozenset(k for k in range(1, d.width(n) + 1) if rng.random() < density)
            for n in range(1, depth + 1)]


def random_levels(rng, d, depth, density):
    return FiniteDescriptor(random_level_sets(rng, d, depth, density))


class TestQiDiagram:
    def test_level_three_shape(self):
        d = qi_diagram(3)
        assert d.dims(3) == (1, 1, 1)
        assert d.edges(2) == {(1, 1): 1, (2, 2): 1, (2, 3): 1}

    def test_depth_one(self):
        d = qi_diagram(1)
        assert d.depth == 1
        assert d.dims(1) == (1,)

    def test_rejects_depth_below_one(self):
        with pytest.raises(ValueError, match="^depth must be at least 1$"):
            qi_diagram(0)

    @pytest.mark.parametrize("dims, edges, message", [
        ([], [], "a diagram needs at least one level"),
        ([(1,), (1,)], [], "need exactly depth-1 edge maps"),
        ([(1,), (1, 0)], [{(1, 1): 1}], "nonpositive dimension at level 2"),
        ([(1,), (1,)], [{(1, 2): 1}], "edge (1,2) out of range between levels 1 and 2"),
        ([(1,), (1,)], [{(1, 1): -1}], "negative number of edges (1,1) at level 1"),
        # Entries that int() would truncate or parse are refused, not coerced.
        ([(1.9,), ("2", 1)], [{(1.7, "2"): 2.5}], "non-int dimension at level 1"),
        ([(1,), ("2", 1)], [{(1, 2): 2}], "non-int dimension at level 2"),
        ([(1,), (2, 1)], [{(1.7, "2"): 2.5}], "non-int edge entry (1.7,'2'): 2.5 at level 1"),
        ([(1,), (2, 1)], [{(1, 2): 2.5}], "non-int edge entry (1,2): 2.5 at level 1"),
        ([(1,), (1,), (1,)], [{(1, 1): 1}, {(1, True): 1}],
         "non-int edge entry (1,True): 1 at level 2"),
    ], ids=["no-levels", "edge-map-count", "dimension", "edge-range", "multiplicity",
            "float-dimension", "text-dimension", "float-and-text-edge", "float-multiplicity",
            "bool-index"])
    def test_constructor_rejects_bad_input(self, dims, edges, message):
        with pytest.raises(ValueError) as info:
            BratteliDiagram(dims, edges)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_valid_by_direct_unitality_sums(self):
        d = qi_diagram(8)
        for n in range(1, 8):
            embedded = [0] * d.width(n + 1)
            for (k, j), m in d.edges(n).items():
                embedded[j - 1] += m * d.dims(n)[k - 1]
            assert embedded == list(d.dims(n + 1))


class TestLevelAccessors:
    @pytest.mark.parametrize("name, args", [
        ("width", (0,)), ("width", (5,)),
        ("dims", (0,)), ("dims", (5,)),
        ("edges", (0,)), ("edges", (4,)),
        ("width", (-1,)), ("edges", (-1,)),
        ("successors", (0, 3)), ("successors", (4, 1)),
        ("successors", (2, 0)), ("successors", (2, 3)),
    ], ids=[  # frozen as first generated, so removing a case renumbers none
        "width-args0", "width-args1", "dims-args2", "dims-args3", "edges-args4", "edges-args5",
        "width-args6", "edges-args7", "successors-args8", "successors-args9",
        "successors-args10", "successors-args11",
    ])
    def test_diagram_rejects_out_of_range(self, name, args):
        with pytest.raises(ValueError):
            getattr(qi_diagram(4), name)(*args)

    def test_diagram_range_ends(self):
        d = qi_diagram(4)
        assert d.width(4) == 4 and d.dims(1) == (1,)
        assert d.edges(3) == {(1, 1): 1, (2, 2): 1, (3, 3): 1, (3, 4): 1}
        assert d.successors(1, 1) == {1, 2} and d.successors(3, 3) == {3, 4}

    def test_descriptor_round_trips_through_masks(self):
        rng = random.Random(53)
        for _ in range(200):
            depth = rng.randint(1, 12)
            levels = [frozenset(rng.sample(range(1, 300), rng.randint(0, 6))) for _ in range(depth)]
            # Lists with repeats, tuples and ranges are accepted as levels too.
            f = FiniteDescriptor([sorted(s) * 2 for s in levels])
            assert f.all_sets == tuple(levels)
            assert [f.sets(n) for n in range(1, depth + 1)] == levels
            assert f == FiniteDescriptor(levels) and hash(f) == hash(FiniteDescriptor(levels))
            assert eval(repr(f)) == f
        assert FiniteDescriptor([range(1, 4), ()]).all_sets == (frozenset({1, 2, 3}), frozenset())

    def test_level_wise_inclusion(self):
        rng = random.Random(59)
        for _ in range(300):
            depth = rng.randint(1, 6)
            a = [frozenset(k for k in range(1, 9) if rng.random() < 0.3) for _ in range(depth)]
            b = [s | frozenset(k for k in range(1, 9) if rng.random() < 0.3) for s in a]
            if rng.random() < 0.5:
                b[rng.randrange(depth)] = frozenset(k for k in range(1, 9) if rng.random() < 0.3)
            fa, fb = FiniteDescriptor(a), FiniteDescriptor(b)
            assert (fa <= fb) == all(map(frozenset.__le__, a, b))
            assert (fb >= fa) == (fa <= fb)
        with pytest.raises(ValueError, match="depths differ"):
            FiniteDescriptor([(1,)]) <= FiniteDescriptor([(1,), ()])
        with pytest.raises(TypeError):
            FiniteDescriptor([(1,)]) <= [frozenset({1})]

    @pytest.mark.parametrize("levels", [[(1,), (0, 1)], [(1,), (2, -3)]])
    def test_descriptor_rejects_nonpositive_index(self, levels):
        with pytest.raises(ValueError, match="^nonpositive index at level 2$"):
            FiniteDescriptor(levels)

    # Indices that int() or a shift would truncate, parse or crash on are refused.
    @pytest.mark.parametrize("levels, message", [
        ([[True, 2]], "non-int index True at level 1"),
        ([[2.0]], "non-int index 2.0 at level 1"),
        ([["1"]], "non-int index '1' at level 1"),
        ([(1,), (1, False)], "non-int index False at level 2"),
    ], ids=["bool", "float", "text", "bool-at-level-2"])
    def test_descriptor_rejects_non_int_index(self, levels, message):
        with pytest.raises(ValueError) as info:
            FiniteDescriptor(levels)
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("n", [0, 4, -1])
    def test_descriptor_sets_rejects_out_of_range(self, n):
        f = FiniteDescriptor([(1,), (1, 2), ()])
        assert f.sets(3) == frozenset()
        with pytest.raises(ValueError):
            f.sets(n)


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

    @pytest.mark.parametrize("check", [is_ideal, ideal_closure])
    def test_width_error_names_least_offending_index(self, check):
        with pytest.raises(WidthMismatchError, match="^index 3 exceeds width 2 at level 2$"):
            check(qi_diagram(2), FiniteDescriptor([(1,), (3, 9)]))
        with pytest.raises(WidthMismatchError, match="^index 5 exceeds width 3 at level 3$"):
            check(qi_diagram(4), FiniteDescriptor([(1,), (2,), (40, 7, 1, 5, 6, 300)]))


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
            orphans += any(len({j for _, j in d.edges(n)}) < d.width(n + 1)
                           for n in range(1, d.depth))
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

    def test_random_diagrams_against_set_reference(self):
        rng = random.Random(47)
        seen = {"negative offset": 0, "positive offset": 0, "multiplicity 2": 0, "zero entry": 0,
                "closure first, across a negative offset": 0}
        for i in range(400):
            dims, edges = random_diagram_parts(rng)
            d = BratteliDiagram(dims, edges)
            negative = [any(j < k for (k, j), m in gap.items() if m) for gap in edges]
            for gap in edges:
                seen["negative offset"] += any(j < k for (k, j), m in gap.items() if m)
                seen["positive offset"] += any(j > k for (k, j), m in gap.items() if m)
                seen["multiplicity 2"] += 2 in gap.values()
                seen["zero entry"] += 0 in gap.values()
            for n in range(1, d.depth):
                for k in range(1, d.width(n) + 1):
                    assert d.successors(n, k) == scan_successors(d, n, k)
            for density in (0.2, 0.5, 0.8):
                levels = random_level_sets(rng, d, rng.randint(1, d.depth), density)
                f = FiniteDescriptor(levels)
                if i % 2 and density == 0.2:
                    # The diagram's first use: ideal_closure derives its offsets.
                    assert ideal_closure(d, f).all_sets == set_closure(d, levels)
                    seen["closure first, across a negative offset"] += any(negative[:len(levels) - 1])
                assert is_ideal(d, f) == set_is_ideal(d, levels)
                closed = ideal_closure(d, f).all_sets
                assert closed == set_closure(d, levels)
                assert is_ideal(d, FiniteDescriptor(closed)) and set_is_ideal(d, closed)
        assert min(seen.values()) > 50, seen

    def test_joined_levels_against_per_level_pullbacks(self):
        """`is_ideal` joins every level at a byte stride; the reference checks
        level n against the pullback of level n+1 one level at a time, on
        diagrams whose widths straddle byte boundaries and whose edges run at
        negative offsets, with descriptors of every depth up to the diagram's."""
        rng = random.Random(61)
        seen = {"negative offset": 0, "stride over one byte": 0, "shallower": 0,
                "accepted": 0, "rejected": 0}
        for _ in range(300):
            widths = [rng.choice((1, 2, 7, 8, 9, 15, 16, 17, 23)) for _ in range(rng.randint(2, 7))]
            edges = [{(k, j): rng.randint(1, 2)
                      for k in range(1, w + 1) for j in range(1, v + 1) if rng.random() < 2 / v}
                     for w, v in zip(widths, widths[1:])]
            d = BratteliDiagram([(1,) * w for w in widths], edges)
            seen["negative offset"] += any(j < k for gap in edges for k, j in gap)
            seen["stride over one byte"] += max(widths) >= 8
            depth = rng.randint(1, d.depth)
            seen["shallower"] += depth < d.depth
            seed = random_level_sets(rng, d, depth, 0.15)
            closed = set_closure(d, seed)
            n = rng.randint(1, depth)
            toggled = [s ^ {rng.randint(1, d.width(n))} if p == n else s
                       for p, s in enumerate(closed, 1)]
            for levels in (seed, closed, toggled, random_level_sets(rng, d, depth, 0.7)):
                expected = set_is_ideal(d, levels)
                assert is_ideal(d, FiniteDescriptor(levels)) == expected, (widths, edges, levels)
                seen["accepted" if expected else "rejected"] += 1
        assert min(seen.values()) > 50, seen

    def test_joined_width_check_keeps_both_messages(self):
        # Width 9 gives a stride of two bytes.  Index 12 at level 1 lies inside
        # level 1's place and index 20 at level 2 past it; both, and a level
        # the diagram lacks, are reported as the per-level check reports them.
        d = BratteliDiagram([(1,) * 3, (1,) * 9, (1,) * 2], [{(3, 9): 1, (2, 1): 1}, {(9, 1): 1}])
        assert is_ideal(d, FiniteDescriptor([(1, 2), range(1, 9), ()]))
        for levels, message in [
            ([(1, 12)], "^index 12 exceeds width 3 at level 1$"),
            ([(), (20,)], "^index 20 exceeds width 9 at level 2$"),
            ([(), (20, 10, 30)], "^index 10 exceeds width 9 at level 2$"),
            ([(), (), (3,)], "^index 3 exceeds width 2 at level 3$"),
            ([(1,), (), (), ()], "^descriptor depth 4 exceeds diagram depth 3$"),
            ([(4,), (), (), (1,)], "^descriptor depth 4 exceeds diagram depth 3$"),
        ]:
            with pytest.raises(WidthMismatchError, match=message):
                is_ideal(d, FiniteDescriptor(levels))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64])
    def test_qi_diagrams_against_set_reference(self, n):
        rng = random.Random(n)
        d = qi_diagram(n)
        for density in (1 / n, 0.5, 0.9):
            levels = random_level_sets(rng, d, rng.randint(1, n), density)
            f = FiniteDescriptor(levels)
            assert is_ideal(d, f) == set_is_ideal(d, levels)
            assert ideal_closure(d, f).all_sets == set_closure(d, levels)
        assert is_ideal(d, FiniteDescriptor([range(1, p + 1) for p in range(1, n + 1)]))

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
            e = descriptor(parse_closed_set(f"1/{2**m}"), "paper")
            for p in range(1, m + 1):
                assert level_set(e, p) == frozenset(range(1, p + 1))
            assert level_set(e, m + 1) == frozenset(range(1, m + 1))
            for p in range(m + 2, m + 8):
                assert level_set(e, p) == frozenset(range(1, m + 1)) | frozenset(
                    range(m + 2, p + 1)
                )

    def test_full_algebra(self):
        e = EventualDescriptor(BinaryWord(), BinaryWord("", "1"))
        for p in (1, 2, 7, 30):
            assert level_set(e, p) == frozenset(range(1, p + 1))

    def test_derived_singleton_level(self):
        e = ideal_of_closed_set(parse_closed_set("1/2"))
        assert level_set(e, 3) == frozenset({1, 3})

    def test_rejects_level_below_one(self):
        with pytest.raises(ValueError, match="^levels start at 1$"):
            level_set(ideal_of_closed_set(parse_closed_set("1/2")), 0)


class TestToFinite:
    DEPTHS = (1, 2, 7, 32)

    def assert_levels_match(self, e):
        levels = tuple(level_set(e, p) for p in range(1, max(self.DEPTHS) + 1))
        for n in self.DEPTHS:
            assert to_finite(e, n).all_sets == levels[:n]

    def test_exhaustive_short_descriptors(self):
        tails = [w for w in all_words(4, 1) if w.period in ("", "1")]
        for excluded in all_words(4, 3):
            for tail in tails:
                self.assert_levels_match(EventualDescriptor(excluded, tail))

    def test_random_general_tails(self):
        rng = random.Random(23)
        from afideals.checks import random_mask

        for _ in range(300):
            h = rng.randint(0, 40)
            head = random_mask(rng, h)
            length = rng.randint(1, 9) if rng.random() < 0.4 else 0
            excluded = BinaryWord.from_masks(head, h, random_mask(rng, length), length)
            tail = BinaryWord(random_bits(rng, rng.randint(0, 40)),
                              "1" if rng.random() < 0.5 else "")
            self.assert_levels_match(EventualDescriptor(excluded, tail))


    @pytest.mark.parametrize("depth, message", [
        (0, "^a descriptor needs at least one level$"),
        (-1, "^prefix length must be at least 0, got -1$"),
    ])
    def test_rejects_depth_below_one(self, depth, message):
        with pytest.raises(ValueError, match=message):
            to_finite(ideal_of_closed_set(parse_closed_set("1/2")), depth)


class TestEventualDescriptor:
    def test_rejects_tail_word_that_never_settles(self):
        with pytest.raises(ValueError, match="eventually constant"):
            EventualDescriptor(BinaryWord(), BinaryWord("", "10"))

    def test_repr_names_both_words(self):
        e = descriptor(parse_closed_set("1/4,1/8"), "paper")
        text = repr(e)
        assert text == (
            "EventualDescriptor(excluded=BinaryWord(head='0011', period=''), "
            "tail=BinaryWord(head='1100', period='1'))"
        )
        assert eval(text) == e


class TestSymdiffLevel:
    def test_paper_patterns(self):
        a = descriptor(parse_closed_set("1/2"), "paper")
        b = descriptor(parse_closed_set("1/4,1/8"), "paper")
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
        tail = BinaryWord(random_bits(rng, rng.randint(0, 3)), "1" if rng.random() < 0.5 else "")
        e = EventualDescriptor(word, tail)
        check_depth = (len(e.tail.head) + len(e.excluded.head)
                       + 2 * max(1, len(e.excluded.period)) + 4)
        if is_ideal(d, to_finite(e, check_depth)):
            found += 1
            assert is_ideal(d, to_finite(e, 64))
    assert found > 10

