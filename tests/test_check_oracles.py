"""The `check` suites' brute-force oracles, and the suites' power to fail.

The oracles compute in integers: point values in one unit 2**-upto, and
distances as dyadic pairs (n, e) for n / 2**e.  The `Fraction` versions
they replaced are kept here as references, and both must agree on every
set with head <= 4 and period <= 3 (with and without 0, and the empty
set) and on 400 seeded sets.

The mutation tests break one kernel as `check` sees it, run the CLI's
`check --seed 1`, and require exit 2 with the matching suite's FAIL line,
no FAIL line counting more failed cases than the suite ran,
at most five failure lines whose `ClosedSubsetQI('...')` literals parse
back to sets that show the same mismatch, and the failed result line: a
failure is reproducible from its transcript alone.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from afideals import checks, cli
from afideals.bratteli import FiniteDescriptor, is_ideal, qi_diagram, to_finite
from afideals.exact import BinaryWord, pow2
from afideals.qi import (
    ClosedSubsetQI,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
    point_distance,
)


def reference_member_values(s, upto):
    members = {pow2(1 - i) for i in s.word.ones(upto)}
    if s.contains_zero:
        members.add(Fraction(0))
    return frozenset(members)


def reference_support_disjoint_oracle(s, members, p, k):
    if k < p:
        return pow2(1 - k) not in members
    if s.contains_zero or not s.word.is_eventually_zero():
        return False
    bound = pow2(1 - p)
    return all(x > bound for x in members)


def reference_brute_directed(a, b, depth):
    best = Fraction(0)
    for k in a.word.ones(depth):
        best = max(best, point_distance(k, b))
    if a.contains_zero:
        best = max(best, point_distance(None, b))
    return best


def bit_lists(n):
    return [list(bits) for m in range(n + 1) for bits in itertools.product((0, 1), repeat=m)]


def short_sets():
    """Every set whose word has head <= 4 and period <= 3, with and without
    0; the empty set is among them."""
    words = {BinaryWord(head, period) for head in bit_lists(4) for period in bit_lists(3)}
    return sorted({ClosedSubsetQI(w, z) for w in words for z in (False, True)}, key=repr)


def seeded_sets():
    rng = random.Random(20)
    return [checks.random_closed_set(rng, nonempty=False) for _ in range(400)]


SHORT = short_sets()
SEEDED = seeded_sets()


def suite_upto(s):
    """How far the `correspondence` suite lists s's members."""
    return s.word.head_len + 2 * (s.word.period_len or 1) + 14


def test_short_sets_include_the_empty_set():
    assert ClosedSubsetQI() in SHORT
    assert len(SHORT) == 176


@pytest.mark.parametrize("family", [SHORT, SEEDED], ids=["short", "seeded"])
def test_member_values_scale_to_reference(family):
    for s in family:
        for upto in (suite_upto(s), s.word.head_len + 1):
            unit = 1 << upto
            scaled = frozenset(Fraction(x, unit) for x in checks.member_values(s, upto))
            assert scaled == reference_member_values(s, upto), (s, upto)


@pytest.mark.parametrize("family", [SHORT, SEEDED], ids=["short", "seeded"])
def test_support_disjoint_oracle_matches_reference(family):
    for s in family:
        upto = suite_upto(s)
        members = checks.member_values(s, upto)
        reference = reference_member_values(s, upto)
        for p in range(1, 13):
            for k in range(1, p + 1):
                assert (checks.support_disjoint_oracle(s, members, upto, p, k)
                        == reference_support_disjoint_oracle(s, reference, p, k)), (s, p, k)


def test_brute_directed_matches_reference_on_short_pairs():
    nonempty = [s for s in SHORT if not s.is_empty()]
    for a in SHORT:
        for b in nonempty:
            depth = checks._sup_cutoff(a, b)
            value = checks._brute_directed(a, b, depth)
            assert type(value) is Fraction
            assert value == reference_brute_directed(a, b, depth), (a, b)


def test_brute_directed_matches_reference_on_seeded_pairs():
    nonempty = [s for s in SEEDED if not s.is_empty()]
    for a, b in zip(nonempty, nonempty[1:] + nonempty[:1]):
        depth = checks._sup_cutoff(a, b) + 32
        assert checks._brute_directed(a, b, depth) == reference_brute_directed(a, b, depth), (a, b)


def union(s, t):
    """s ∪ t, from both words' bits through the longer head and the joint period."""
    h = max(s.word.head_len, t.word.head_len)
    length = math.lcm(s.word.period_len or 1, t.word.period_len or 1)
    bits = s.word.prefix(h + length) | t.word.prefix(h + length)
    word = BinaryWord.from_masks(bits & ((1 << h) - 1), h, bits >> h, length)
    return ClosedSubsetQI(word, include_zero=s.contains_zero or t.contains_zero)


def one_directed_hausdorff(s, t):
    """Only the directed distance from t to s: d_H(s, s ∪ t)."""
    return hausdorff(s, union(s, t))


def tail_dropped_to_finite(e, depth, level=3):
    """to_finite without index `level` in level `level`: its tail summand."""
    f = to_finite(e, depth)
    return FiniteDescriptor(f.sets(n) - {n} if n == level else f.sets(n)
                            for n in range(1, depth + 1))


def oracle_descriptor(s):
    """Levels 1..12 from the reference support-disjointness oracle."""
    members = reference_member_values(s, suite_upto(s))
    return FiniteDescriptor(
        {k for k in range(1, p + 1) if reference_support_disjoint_oracle(s, members, p, k)}
        for p in range(1, 13))


def finite(s, depth):
    return checks.to_finite(ideal_of_closed_set(s), depth)


# Each failure message's prefix, with the mismatch it reports, recomputed
# from the sets its line names through the kernels `check` sees.
MISMATCHES = {
    "cutoff unsound for": lambda s, t: checks.hausdorff(s, t) != max(
        reference_brute_directed(s, t, checks._sup_cutoff(s, t) + 32),
        reference_brute_directed(t, s, checks._sup_cutoff(s, t) + 32)),
    "support-disjointness oracle disagrees for": lambda s: finite(s, 12) != oracle_descriptor(s),
    "derived descriptor not an ideal for": lambda s: not is_ideal(qi_diagram(32), finite(s, 32)),
    "antitone correspondence fails for": lambda s, t: not finite(t, 32) <= finite(s, 32),
}

SET_LITERAL = re.compile(r"ClosedSubsetQI\('[^']*'\)")


def failure_lines(transcript, suite):
    """The failure lines under `suite`'s FAIL line."""
    lines = transcript.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{suite}: "))
    assert lines[start].startswith(f"{suite}: FAIL"), lines[start]
    return list(itertools.takewhile(lambda line: line.startswith("  "), lines[start + 1:]))


def shows_mismatch(line):
    """Whether the sets a failure line names, parsed back from its
    literals, show the mismatch the line reports."""
    message = line.strip()
    prefix = next(p for p in MISMATCHES if message.startswith(p))
    sets = []
    for literal in SET_LITERAL.findall(message):
        sets.append(eval(literal, {"ClosedSubsetQI": parse_closed_set}))
        assert repr(sets[-1]) == literal
    return MISMATCHES[prefix](*sets)


@pytest.mark.parametrize("name,mutant,suite", [
    ("hausdorff", one_directed_hausdorff, "hausdorff-cutoff"),
    ("to_finite", tail_dropped_to_finite, "correspondence"),
], ids=["hausdorff-one-direction", "to-finite-drops-a-tail"])
def test_broken_kernel_fails_its_suite(name, mutant, suite, monkeypatch, capsys):
    monkeypatch.setattr(checks, name, mutant)
    assert cli.main(["check", "--seed", "1"]) == 2
    transcript, err = capsys.readouterr()
    assert err == ""
    verdict = re.search(rf"^{suite}: FAIL \((\d+)/{checks.SCALE} cases failed\)$",
                        transcript, re.MULTILINE)
    assert verdict, transcript
    assert int(verdict.group(1)) <= checks.SCALE
    # A case that breaks several properties counts once on every FAIL line.
    for failed, cases in re.findall(r"^\S+: FAIL \((\d+)/(\d+) cases failed\)$",
                                    transcript, re.MULTILINE):
        assert int(failed) <= int(cases), transcript
    lines = failure_lines(transcript, suite)
    assert 0 < min(5, int(verdict.group(1))) <= len(lines) <= 5
    assert transcript.splitlines()[-1] == "result: suite failures detected"
    for line in lines:
        assert SET_LITERAL.search(line), line
        assert shows_mismatch(line), line
    monkeypatch.undo()
    assert not any(shows_mismatch(line) for line in lines)
