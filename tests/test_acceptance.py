"""Acceptance criteria, one pass/fail line per clause.

Every clause is asserted exactly as stated, at zero tolerance.  Three
clauses fail when evaluated against the definition-level metrics (see the
README's "Published closed forms" note): the published d_beta row values,
the published d_beta closed form, the d_phi closed form on the m = n
slice, and the claimed d_beta <= (1/2) d_phi comparison.  The failing
tests are kept faithful to the stated values rather than adjusted.
"""

import random
import time
from fractions import Fraction

from afideals.bratteli import level_set
from afideals.checks import random_closed_set, random_ideal
from afideals.exact import BinaryWord, pow2, word_weight
from afideals.metrics import d_beta, d_beta_truncated, d_phi, descriptors
from afideals.qi import (
    ClosedSubsetQI,
    closed_set_of_ideal,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
)

PAPER_ROWS = (
    # (m, n, k, expected d_H, expected d_phi, expected d_beta)
    (1, 2, 1, Fraction(3, 8), Fraction(1, 4), Fraction(37, 128)),
    (1, 2, 2, Fraction(7, 16), Fraction(1, 4), Fraction(145, 512)),
)

VANISH_AT_ZERO = ideal_of_closed_set(parse_closed_set("0"))


def report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({desc}){detail}"


def table_pair(m, n, k):
    a = parse_closed_set(f"1/{2**m}")
    b = parse_closed_set(f"1/{2**n},1/{2**(n + k)}")
    return (a, b), descriptors(a, b, "paper")


class TestCriterion1PaperTable:
    def test_hausdorff_and_phi_rows(self):
        start = time.perf_counter()
        ok = True
        for m, n, k, dh, dphi, _ in PAPER_ROWS:
            (a, b), (di, dj) = table_pair(m, n, k)
            ok = ok and hausdorff(a, b) == dh and d_phi(di, dj) == dphi
        elapsed = time.perf_counter() - start
        report(1, "table rows, d_H and d_phi exact", ok)
        assert elapsed < 1.0

    def test_beta_rows(self):
        start = time.perf_counter()
        mismatches = []
        for m, n, k, _, _, dbeta in PAPER_ROWS:
            _, (di, dj) = table_pair(m, n, k)
            got = d_beta(di, dj)
            if got != dbeta:
                mismatches.append(f"(m,n,k)=({m},{n},{k}): stated {dbeta}, computed {got}")
        elapsed = time.perf_counter() - start
        report(1, "table rows, d_beta exact", not mismatches,
               "; " + "; ".join(mismatches) if mismatches else "")
        assert elapsed < 1.0


class TestCriterion2ClosedFormSweeps:
    def test_beta_sweep(self):
        start = time.perf_counter()
        bad = 0
        total = 0
        for m in range(1, 9):
            for n in range(m + 1, 9):
                for k in range(1, 9):
                    _, (di, dj) = table_pair(m, n, k)
                    stated = (pow2(-2 * (n + k)) + pow2(-m) + Fraction(4) ** (-n)) / 2
                    total += 1
                    if d_beta(di, dj) != stated:
                        bad += 1
        elapsed = time.perf_counter() - start
        report(2, "d_beta closed-form sweep, m < n", bad == 0,
               f"; {bad}/{total} triples deviate from the stated form" if bad else "")
        assert elapsed < 5.0

    def test_phi_sweep_distinct_indices(self):
        start = time.perf_counter()
        ok = True
        for m in range(1, 9):
            for n in range(1, 9):
                if m == n:
                    continue
                for k in range(1, 9):
                    _, (di, dj) = table_pair(m, n, k)
                    ok = ok and d_phi(di, dj) == pow2(-(min(m, n) + 1))
        elapsed = time.perf_counter() - start
        report(2, "d_phi closed-form sweep, m != n", ok)
        assert elapsed < 5.0

    def test_phi_sweep_equal_indices(self):
        bad = 0
        total = 0
        for n in range(1, 9):
            for k in range(1, 9):
                _, (di, dj) = table_pair(n, n, k)
                total += 1
                if d_phi(di, dj) != pow2(-(n + 1)):
                    bad += 1
        report(2, "d_phi closed-form sweep, m = n slice", bad == 0,
               f"; {bad}/{total} pairs deviate from the stated form" if bad else "")

    def test_hausdorff_sweep(self):
        start = time.perf_counter()
        ok = True
        for m in range(1, 9):
            for n in range(1, 9):
                for k in range(1, 9):
                    (a, b), _ = table_pair(m, n, k)
                    if m <= n:
                        stated = abs(pow2(-m) - pow2(-(n + k)))
                    else:
                        stated = abs(pow2(-m) - pow2(-n))
                    ok = ok and hausdorff(a, b) == stated
        elapsed = time.perf_counter() - start
        report(2, "d_H closed-form sweep, both branches", ok)
        assert elapsed < 5.0


class TestCriterion3HalfPhiBound:
    def test_beta_at_most_half_phi(self):
        rng = random.Random("acceptance:3")
        violations = 0
        total = 0
        worst = None
        pairs = [table_pair(m, n, k)[1] for m, n, k, *_ in PAPER_ROWS]
        pairs += [(random_ideal(rng), random_ideal(rng)) for _ in range(1000)]
        for di, dj in pairs:
            b, f = d_beta(di, dj), d_phi(di, dj)
            total += 1
            if b > f / 2:
                violations += 1
                if worst is None or b - f / 2 > worst[0]:
                    worst = (b - f / 2, b, f)
        detail = ""
        if violations:
            detail = (f"; {violations}/{total} pairs violate the bound, worst: "
                      f"d_beta={worst[1]} vs (1/2)d_phi={worst[2] / 2}")
        report(3, "d_beta <= (1/2) d_phi on seeded pairs plus table rows",
               violations == 0, detail)


class TestCriterion4GlobalBound:
    def test_two_thirds_bound_and_double_series(self):
        rng = random.Random("acceptance:4")
        ok = all(
            d_beta(random_ideal(rng), random_ideal(rng)) <= Fraction(2, 3)
            for _ in range(1000)
        )
        # sum over n >= 1, k = 1..n of 2**-(n+k), assembled exactly
        ones = BinaryWord((), (1,))
        series = word_weight(ones) - word_weight(ones, 1, 4)
        ok = ok and series == Fraction(2, 3)
        report(4, "d_beta <= 2/3 and double series equals 2/3 exactly", ok)


class TestCriterion5MetricAxioms:
    def test_phi_and_beta_axioms(self):
        rng = random.Random("acceptance:5a")
        ok = True
        for _ in range(1000):
            i, j, k = (random_ideal(rng) for _ in range(3))
            for d in (d_phi, d_beta):
                ok = ok and (d(i, j) == 0) == (i == j)
                ok = ok and d(i, j) == d(j, i)
                ok = ok and d(i, j) <= d(i, k) + d(j, k)
            if not ok:
                break
        report(5, "metric axioms for d_phi and d_beta, 1000 triples", ok)

    def test_hausdorff_axioms(self):
        rng = random.Random("acceptance:5b")
        ok = True
        for _ in range(1000):
            s, t, u = (random_closed_set(rng) for _ in range(3))
            ok = ok and (hausdorff(s, t) == 0) == (s == t)
            ok = ok and hausdorff(s, t) == hausdorff(t, s)
            ok = ok and hausdorff(s, t) <= hausdorff(s, u) + hausdorff(t, u)
            if not ok:
                break
        report(5, "metric axioms for d_H, 1000 triples", ok)


def value_oracle(s: ClosedSubsetQI, p: int, k: int) -> bool:
    """Support-disjointness by explicit point values, independent of qi.py.

    Summand k < p spans the indicator of the single point 2**(1-k);
    summand p spans the indicator of the closed interval [0, 2**(1-p)].
    """
    probe = len(s.word.head) + 2 * max(1, len(s.word.period)) + p + 2
    values = [pow2(1 - i) for i in range(1, probe + 1) if s.word.bit(i)]
    if s.contains_zero:
        values.append(Fraction(0))
    if k < p:
        return pow2(1 - k) not in values
    return not s.contains_zero and all(v > pow2(1 - p) for v in values)


class TestCriterion6OracleEquivalence:
    def test_support_disjointness_and_round_trip(self):
        rng = random.Random("acceptance:6")
        ok = True
        for _ in range(200):
            s = random_closed_set(rng, nonempty=False)
            e = ideal_of_closed_set(s)
            ok = ok and all(
                (k in level_set(e, p)) == value_oracle(s, p, k)
                for p in range(1, 13)
                for k in range(1, p + 1)
            )
            ok = ok and closed_set_of_ideal(e) == s
            if not ok:
                break
        report(6, "support-disjointness oracle and round trip, 200 sets", ok)


class TestCriterion7CertifiedTruncation:
    def test_interval_width_nesting_containment(self):
        rng = random.Random("acceptance:7")
        ok = True
        for _ in range(200):
            i, j = random_ideal(rng), random_ideal(rng)
            exact = d_beta(i, j)
            depth = rng.randint(2, 30)
            iv = d_beta_truncated(i, j, depth)
            deeper = d_beta_truncated(i, j, depth + 1)
            ok = ok and iv.width == pow2(-depth)
            ok = ok and deeper.width == pow2(-(depth + 1))
            ok = ok and iv.encloses(deeper)
            ok = ok and iv.contains(exact) and deeper.contains(exact)
            if not ok:
                break
        report(7, "certified truncation intervals, 200 cases", ok)


class TestCriterion8Convergence:
    def test_strict_decrease_and_beta_formula(self):
        ok = True
        prev = None
        for r in range(1, 13):
            s = parse_closed_set(f"1/{2**r}")
            e = ideal_of_closed_set(s)
            db = d_beta(e, VANISH_AT_ZERO)
            dp = d_phi(e, VANISH_AT_ZERO)
            dh = hausdorff(s, parse_closed_set("0"))
            ok = ok and db == Fraction(4) ** (-r) / 3
            ok = ok and d_beta_truncated(e, VANISH_AT_ZERO, 60).contains(db)
            if prev is not None:
                ok = ok and db < prev[0] and dp < prev[1] and dh < prev[2]
            prev = (db, dp, dh)
        ok = ok and prev[0] < pow2(-20) and prev[1] < pow2(-10) and prev[2] <= pow2(-11)
        report(8, "three-metric strict convergence and exact d_beta law", ok)
