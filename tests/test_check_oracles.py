"""The `check` suites' brute-force oracles, and the suites' power to fail.

The oracles compute in integers: point values in one unit 2**-upto, and
distances as dyadic pairs (n, e) for n / 2**e.  The `Fraction` versions
they replaced are kept here as references, and both must agree on every
set with head <= 4 and period <= 3 (with and without 0, and the empty
set) and on 400 seeded sets.

The mutation tests break one kernel as `check` sees it, each aimed at
one failure message of one suite, run the CLI's `check --seed 1`, and
require exit 2 with the matching suite's FAIL line, no FAIL line
counting more failed cases than the suite ran, at most five failure
lines, among them the message aimed at, whose literals
(closed sets, ideal descriptors, words, level index sets, ints) read back
to values that show the same mismatch under the broken kernel and none
under the real one, and the failed result line: a failure is
reproducible from its transcript alone.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from afideals import checks, cli
from afideals.bratteli import (
    EventualDescriptor,
    FiniteDescriptor,
    ideal_closure,
    is_ideal,
    to_finite,
)
from afideals.exact import BinaryWord, pow2, word_weight, word_xor, xor_weight
from afideals.metrics import CertifiedValue, d_beta, d_beta_truncated, d_phi
from afideals.qi import (
    ClosedSubsetQI,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
    point_distance,
)
from bits import short_sets, union


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


def one_directed_hausdorff(s, t):
    """Only the directed distance from t to s: d_H(s, s ∪ t)."""
    return hausdorff(s, union(s, t))


def near_as_zero_hausdorff(s, t):
    """hausdorff read as 0 below 1/8: symmetric, but 0 for distinct sets."""
    d = hausdorff(s, t)
    return Fraction(0) if d < Fraction(1, 8) else d


def half_return_hausdorff(s, t):
    """The larger of the directed distance from s to t and half the one back:
    0 only for equal sets, but no longer symmetric."""
    both = union(s, t)
    return max(hausdorff(t, both), hausdorff(s, both) / 2)


def squared_hausdorff(s, t):
    """hausdorff squared: symmetric and 0 only for equal sets, but the
    triangle inequality fails."""
    return hausdorff(s, t) ** 2


def tail_blind_d_beta(i, j):
    """d_beta without the tail words' term: 0 for ideals that differ only
    in their tail summands."""
    return Fraction(*xor_weight(i.excluded, j.excluded))


def shifted_truncation(i, j, depth):
    """d_beta_truncated moved up by 1: the right width and nested, but the
    exact value lies outside."""
    value = d_beta_truncated(i, j, depth)
    return CertifiedValue(value.lo + 1, value.hi + 1)


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


def closure(sets):
    """The closure `check` sees of the levels `sets` on its qi_diagram(8)."""
    return checks.ideal_closure(checks.CLOSURE_DIAGRAM, FiniteDescriptor(sets))


def closes_again(sets):
    """Whether closing the closure of the levels `sets` changes it."""
    closed = closure(sets)
    return checks.ideal_closure(checks.CLOSURE_DIAGRAM, closed) != closed


def seed_as_closure(d, seed):
    """An ideal_closure that adds nothing to its seed."""
    return seed


def left_grown_closure(d, seed):
    """ideal_closure of the seed with index k-1 added beside each index k:
    monotone and an ideal, but it grows again on its own result."""
    return ideal_closure(d, FiniteDescriptor(s | {k - 1 for k in s if k > 1}
                                             for s in seed.all_sets))


def whole_as_zero_closure(d, seed):
    """ideal_closure that gives the zero ideal in place of the whole algebra:
    idempotent and an ideal, but no longer monotone."""
    closed = ideal_closure(d, seed)
    whole = FiniteDescriptor(range(1, d.width(n) + 1) for n in range(1, seed.depth + 1))
    return FiniteDescriptor([()] * seed.depth) if closed == whole else closed


def halved_d_phi(i, j):
    """d_phi at half its value: a metric, but 5*d_phi/2 falls below 3*d_beta."""
    return d_phi(i, j) / 2


def doubled_d_phi(i, j):
    """d_phi at twice its value: a metric, but it passes its sup 1/2."""
    return 2 * d_phi(i, j)


def tail_weight_difference(i, j):
    """d_beta with W4(T_i) - W4(T_j) in place of W4(T_i XOR T_j): antisymmetric
    in the tail words."""
    return (word_weight(word_xor(i.excluded, j.excluded), 1, 4)
            + word_weight(i.tail, 1, 4) - word_weight(j.tail, 1, 4))


def exact_ended_truncation(i, j, depth):
    """A bracket of the right width around d_beta that ends at the exact
    value at odd depths and starts there at even ones: never nested."""
    x, w = d_beta(i, j), pow2(-depth)
    return CertifiedValue(x - w, x) if depth % 2 else CertifiedValue(x, x + w)


def doubled_width(i, j, depth):
    """d_beta_truncated bracketed by 2**(1-depth), twice the tail bound."""
    value = d_beta_truncated(i, j, depth)
    return CertifiedValue(value.lo, value.hi + pow2(-depth))


def one_late_word_weight(w, from_index=1, base=2):
    """word_weight summed from one position past `from_index`."""
    return word_weight(w, from_index + 1, base)


def zero_dropped_closed_set(e):
    """closed_set_of_ideal without the point 0 of a finite set."""
    return ClosedSubsetQI(closed_set_of_ideal(e).word)


def whole_when_holding_one(e, depth):
    """to_finite that fills every level at depth 32 when the set holds the
    point 1 (E_1 = 1): still an ideal, but a larger set may get a larger one."""
    if depth < 32 or not e.excluded.bit(1):
        return to_finite(e, depth)
    return FiniteDescriptor(range(1, n + 1) for n in range(1, depth + 1))


# Per suite, each failure message's prefix with the mismatch it reports,
# recomputed from the values its line names through the kernels `check` sees.
MISMATCHES = {
    "exact-arithmetic": {
        "word_weight recurrence fails at": lambda i, w: (
            checks.word_weight(w, i) != w.bit(i) * pow2(-i) + checks.word_weight(w, i + 1)),
    },
    "closure-fixpoint": {
        "closure of": lambda small: not checks.is_ideal(checks.CLOSURE_DIAGRAM, closure(small)),
        "closure not idempotent on": closes_again,
        "closure not monotone on": lambda small, big: not closure(small) <= closure(big),
    },
    "hausdorff-metric": {
        "coincidence fails for": lambda s, t: (checks.hausdorff(s, t) == 0) != (s == t),
        "symmetry fails for": lambda s, t: checks.hausdorff(s, t) != checks.hausdorff(t, s),
        "triangle fails for": lambda s, t, u: (
            checks.hausdorff(s, t) > checks.hausdorff(s, u) + checks.hausdorff(t, u)),
    },
    "hausdorff-cutoff": {
        "cutoff unsound for": lambda s, t: checks.hausdorff(s, t) != max(
            reference_brute_directed(s, t, checks._sup_cutoff(s, t) + 32),
            reference_brute_directed(t, s, checks._sup_cutoff(s, t) + 32)),
    },
    "ideal-metrics": {
        "coincidence fails for": lambda i, j: (
            (checks.d_phi(i, j) == 0) != (i == j) or (checks.d_beta(i, j) == 0) != (i == j)),
        "symmetry fails for": lambda i, j: (
            checks.d_phi(i, j) != checks.d_phi(j, i) or checks.d_beta(i, j) != checks.d_beta(j, i)),
        "triangle fails for": lambda i, j, k: (
            checks.d_phi(i, j) > checks.d_phi(i, k) + checks.d_phi(j, k)
            or checks.d_beta(i, j) > checks.d_beta(i, k) + checks.d_beta(j, k)),
        "3*d_beta > 5*d_phi for": lambda i, j: 3 * checks.d_beta(i, j) > 5 * checks.d_phi(i, j),
        "global bound broken for": lambda i, j: (
            checks.d_beta(i, j) > Fraction(2, 3) or checks.d_phi(i, j) > Fraction(1, 2)),
    },
    "correspondence": {
        "support-disjointness oracle disagrees for": lambda s: (
            finite(s, 12) != oracle_descriptor(s)),
        "round trip fails for": lambda s: checks.closed_set_of_ideal(ideal_of_closed_set(s)) != s,
        "derived descriptor not an ideal for": lambda s: (
            not is_ideal(checks.CORRESPONDENCE_DIAGRAM, finite(s, 32))),
        "antitone correspondence fails for": lambda s, t: not finite(t, 32) <= finite(s, 32),
    },
    "truncation": {
        "interval width wrong at depth": lambda depth, i, j: (
            checks.d_beta_truncated(i, j, depth).width != pow2(-depth)),
        "intervals not nested at depth": lambda depth, i, j: not (
            checks.d_beta_truncated(i, j, depth).encloses(
                checks.d_beta_truncated(i, j, depth + 1))),
        "interval misses exact value at depth": lambda depth, i, j: not (
            checks.d_beta_truncated(i, j, depth).contains(checks.d_beta(i, j))),
    },
}

# The values a failure line names, each as its repr: a closed set, an ideal
# descriptor, a word, a list of level index sets, or an int.
WORD = r"BinaryWord\(head='[01]*', period='[01]*'\)"
LITERAL = re.compile("|".join([
    r"ClosedSubsetQI\('[^']*'\)",
    rf"EventualDescriptor\(excluded={WORD}, tail={WORD}\)",
    WORD,
    r"\[(?:frozenset\((?:\{[\d, ]*\})?\)(?:, )?)*\]",
    r"\d+",
]))
NAMES = {"ClosedSubsetQI": parse_closed_set, "EventualDescriptor": EventualDescriptor,
         "BinaryWord": BinaryWord, "frozenset": frozenset}


def failure_lines(transcript, suite):
    """The failure lines under `suite`'s FAIL line."""
    lines = transcript.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{suite}: "))
    assert lines[start].startswith(f"{suite}: FAIL"), lines[start]
    return list(itertools.takewhile(lambda line: line.startswith("  "), lines[start + 1:]))


def shows_mismatch(suite, line):
    """Whether the values a failure line names, read back from their
    literals, show the mismatch the line reports."""
    message = line.strip()
    prefix = next(p for p in MISMATCHES[suite] if message.startswith(p))
    literals = LITERAL.findall(message[len(prefix):])
    assert literals, line
    values = [eval(literal, NAMES) for literal in literals]
    assert [repr(value) for value in values] == literals, line
    return MISMATCHES[suite][prefix](*values)


@pytest.mark.parametrize("name,mutant,suite,message", [
    ("hausdorff", one_directed_hausdorff, "hausdorff-cutoff", "cutoff unsound for"),
    ("to_finite", tail_dropped_to_finite, "correspondence",
     "support-disjointness oracle disagrees for"),
    ("ideal_closure", seed_as_closure, "closure-fixpoint", "closure of"),
    ("d_beta", tail_weight_difference, "ideal-metrics", "symmetry fails for"),
    ("d_beta_truncated", doubled_width, "truncation", "interval width wrong at depth"),
    ("word_weight", one_late_word_weight, "exact-arithmetic", "word_weight recurrence fails at"),
    ("closed_set_of_ideal", zero_dropped_closed_set, "correspondence", "round trip fails for"),
    ("ideal_closure", left_grown_closure, "closure-fixpoint", "closure not idempotent on"),
    ("ideal_closure", whole_as_zero_closure, "closure-fixpoint", "closure not monotone on"),
    ("d_phi", halved_d_phi, "ideal-metrics", "3*d_beta > 5*d_phi for"),
    ("d_phi", doubled_d_phi, "ideal-metrics", "global bound broken for"),
    ("to_finite", whole_when_holding_one, "correspondence", "antitone correspondence fails for"),
    ("d_beta_truncated", exact_ended_truncation, "truncation", "intervals not nested at depth"),
    ("hausdorff", near_as_zero_hausdorff, "hausdorff-metric", "coincidence fails for"),
    ("hausdorff", half_return_hausdorff, "hausdorff-metric", "symmetry fails for"),
    ("hausdorff", squared_hausdorff, "hausdorff-metric", "triangle fails for"),
    ("d_beta", tail_blind_d_beta, "ideal-metrics", "coincidence fails for"),
    ("d_beta_truncated", shifted_truncation, "truncation", "interval misses exact value at depth"),
], ids=["hausdorff-one-direction", "to-finite-drops-a-tail", "closure-adds-nothing",
        "d-beta-asymmetric", "truncated-width-doubled", "word-weight-one-late",
        "closed-set-drops-zero", "closure-grows-again", "closure-whole-as-zero",
        "d-phi-halved", "d-phi-doubled", "to-finite-whole-when-holding-one",
        "truncation-ends-at-exact", "hausdorff-near-as-zero", "hausdorff-half-return",
        "hausdorff-squared", "d-beta-tail-blind", "truncation-shifted"])
def test_broken_kernel_fails_its_suite(name, mutant, suite, message, monkeypatch, capsys):
    monkeypatch.setattr(checks, name, mutant)
    assert cli.main(["check", "--seed", "1"]) == 2
    transcript, err = capsys.readouterr()
    assert err == ""
    verdict = re.search(rf"^{suite}: FAIL \((\d+)/\d+ cases failed\)$", transcript, re.MULTILINE)
    assert verdict, transcript
    # A case that breaks several properties counts once on every FAIL line.
    for failed, cases in re.findall(r"^\S+: FAIL \((\d+)/(\d+) cases failed\)$",
                                    transcript, re.MULTILINE):
        assert int(failed) <= int(cases), transcript
    lines = failure_lines(transcript, suite)
    assert 0 < min(5, int(verdict.group(1))) <= len(lines) <= 5
    assert any(line.strip().startswith(message) for line in lines), transcript
    assert transcript.splitlines()[-1] == "result: suite failures detected"
    for line in lines:
        assert shows_mismatch(suite, line), line
    monkeypatch.undo()
    assert not any(shows_mismatch(suite, line) for line in lines)


def test_run_check_builds_no_diagram(monkeypatch):
    """The suites read the two diagrams built when `checks` is imported, so
    a `qi_diagram` that raises leaves every transcript as it was."""
    expected = [checks.run_check(seed) for seed in (1, 2, 3)]

    def no_diagram(depth):
        raise AssertionError(f"qi_diagram({depth}) called during check")

    monkeypatch.setattr(checks, "qi_diagram", no_diagram)
    assert [checks.run_check(seed) for seed in (1, 2, 3)] == expected
