"""Reference answers for the benchmark's requests, computed without afideals.

Every expected value is recomputed from the definitions in the README on
the benchmark's own set model, so no defect in the library can hide in
the check:

* d_H by brute force over member values through the cutoff plus 32
  positions, the bound the `hausdorff-cutoff` check suite uses;
* level sets straight from the support-disjointness rule (or the
  published table for `--convention paper`), which give d_phi and the
  `descriptor` listing;
* d_beta as the bracket [S_D, S_D + 2**-D] from an integer partial sum
  over levels 1..D.  An exact answer must lie inside a deep bracket; an
  interval answer at depth d must be at most 2**-d wide and enclose the
  bracket at D = d or at a deeper D.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# Exact d_beta answers are checked against a bracket this many levels past
# the point where both membership words repeat jointly.
_BETA_MARGIN = 40


@dataclass(frozen=True)
class QISet:
    """Closed subset of the quantized interval {2**(1-k) : k >= 1} with 0.

    Bit k of the word `head` + `period` repeated says whether 2**(1-k) is
    a member.  A period without a 1 means finitely many points; a set with
    infinitely many points contains 0, a finite one only when `zero`.
    """

    head: str = ""
    period: str = ""
    zero: bool = False

    @property
    def infinite(self) -> bool:
        return "1" in self.period

    @property
    def has_zero(self) -> bool:
        return self.zero or self.infinite

    @property
    def empty(self) -> bool:
        return not self.has_zero and "1" not in self.head

    @property
    def last_point(self) -> int:
        """Largest member index of a finite set; 0 when it has none."""
        return self.head.rfind("1") + 1

    def bit(self, k: int) -> bool:
        if k <= len(self.head):
            return self.head[k - 1] == "1"
        if not self.infinite:
            return False
        return self.period[(k - len(self.head) - 1) % len(self.period)] == "1"

    def word_literal(self) -> str:
        text = f"head={self.head};period={self.period}"
        return text + ";zero=1" if self.zero and not self.infinite else text

    def points_literal(self) -> str:
        """Comma list of dyadic values; only for finite sets."""
        parts = [f"1/{2 ** (k - 1)}" if k > 1 else "1"
                 for k, bit in enumerate(self.head, 1) if bit == "1"]
        if self.zero:
            parts.append("0")
        return ",".join(parts)


def _joint_period(a: QISet, b: QISet) -> int:
    return math.lcm(max(1, len(a.period)), max(1, len(b.period)))


def _settle(a: QISet, b: QISet) -> int:
    """Levels after which both words, and so both level rules, repeat jointly."""
    return max(len(a.head), len(b.head)) + _joint_period(a, b) + 2


# --- Hausdorff distance ------------------------------------------------------

def hausdorff(a: QISet, b: QISet) -> Fraction:
    depth = max(len(a.head), len(b.head)) + 2 * _joint_period(a, b) + 2 + 32
    return max(_directed(a, b, depth), _directed(b, a, depth))


def _directed(a: QISet, b: QISet, depth: int) -> Fraction:
    """sup over members x of a (indices <= depth, and 0) of dist(x, b)."""
    # One extra head and period of b so each enumerated x sees b's next point.
    top = depth + len(b.head) + len(b.period) + 2
    members = [k for k in range(1, top + 1) if b.bit(k)]
    value = lambda k: 1 << (top - k)  # 2**(1-k), scaled by 2**(top-1)
    best = 0
    for k in range(1, depth + 1):
        if not a.bit(k) or b.bit(k):
            continue
        x = value(k)
        i = bisect.bisect_left(members, k)
        near = [x] if b.has_zero else []
        if i > 0:
            near.append(value(members[i - 1]) - x)
        if i < len(members):
            near.append(x - value(members[i]))
        best = max(best, min(near))
    if a.has_zero and not b.has_zero:
        best = max(best, value(b.last_point))
    return Fraction(best, 1 << (top - 1))


# --- Level sets ---------------------------------------------------------------

def _level_masks(s: QISet, convention: str, upto: int, width: int):
    """Yield the level-p index set for p = 1..upto as an int with bit width-k per index k.

    Derived rule: summand k < p spans the indicator of {2**(1-k)} and
    belongs to the ideal iff that point is outside s; the tail summand p
    spans [0, 2**(1-p)] and belongs iff s misses that interval.  The
    published table keeps the tail summand at every level and drops only
    the indices of the set's own points.
    """
    prefix = 0
    for p in range(1, upto + 1):
        if p > 1 and not s.bit(p - 1):
            prefix |= 1 << (width - (p - 1))
        if convention == "paper":
            tail = not s.bit(p)
        else:
            tail = not s.has_zero and s.last_point < p
        yield prefix | (1 << (width - p)) if tail else prefix


def _mask_indices(mask: int, width: int) -> list:
    return [width - i for i in range(width, -1, -1) if mask >> i & 1]


def d_phi(a: QISet, b: QISet, convention: str) -> Fraction:
    """2**-p for the first level p whose index sets differ; 0 when none does."""
    upto = _settle(a, b)
    levels = zip(_level_masks(a, convention, upto, upto),
                 _level_masks(b, convention, upto, upto))
    for p, (ma, mb) in enumerate(levels, 1):
        if ma != mb:
            return Fraction(1, 1 << p)
    return Fraction(0)


def beta_bracket(a: QISet, b: QISet, convention: str, depth: int):
    """(S_D, S_D + 2**-D): S_D sums 2**-(p+k) over p <= D and k in the level-p symmetric difference."""
    width = depth + 1
    levels = zip(_level_masks(a, convention, depth, width),
                 _level_masks(b, convention, depth, width))
    total = 0
    for p, (ma, mb) in enumerate(levels, 1):
        total += (ma ^ mb) << (depth - p)
    lo = Fraction(total, 1 << (width + depth))
    return lo, lo + Fraction(1, 1 << depth)


def descriptor_lines(s: QISet, depth: int) -> list:
    return [
        f"u_{p} = {{{','.join(map(str, _mask_indices(mask, depth)))}}}"
        for p, mask in enumerate(_level_masks(s, "derived", depth, depth), 1)
    ]


# --- Checking program output --------------------------------------------------

def _decimal(x: Fraction, digits: int) -> str:
    scaled = x.numerator * 10 ** digits // x.denominator
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{whole}.{str(frac).zfill(digits)}" if digits else str(whole)


def _parse_value(text: str):
    """A Fraction, or a (lo, hi) pair for an interval "[lo, hi]"."""
    if text.startswith("[") and text.endswith("]"):
        lo, hi = text[1:-1].split(", ")
        return Fraction(lo), Fraction(hi)
    return Fraction(text)


class Expected:
    """Oracle values for one request, each computed on first use."""

    def __init__(self, request):
        self.request = request

    @cached_property
    def hausdorff(self) -> Fraction:
        return hausdorff(*self.request.sets)

    @cached_property
    def phi(self) -> Fraction:
        return d_phi(*self.request.sets, self.request.convention)

    @cached_property
    def beta_at_depth(self) -> tuple:
        r = self.request
        return beta_bracket(*r.sets, r.convention, r.depth)

    @cached_property
    def beta_deep(self) -> tuple:
        r = self.request
        return beta_bracket(*r.sets, r.convention, max(r.depth, _settle(*r.sets) + _BETA_MARGIN))

    @cached_property
    def descriptor(self) -> list:
        return descriptor_lines(self.request.sets[0], self.request.depth)


def _check_beta(exp: Expected, value):
    if isinstance(value, Fraction):
        lo, hi = exp.beta_deep
        if not lo <= value <= hi:
            return f"beta {value} outside oracle bracket [{lo}, {hi}]"
        return None
    lo, hi = value
    depth = exp.request.depth
    if not lo <= hi or hi - lo > Fraction(1, 1 << depth):
        return f"beta interval [{lo}, {hi}] is not a depth-{depth} certificate"
    for olo, ohi in (exp.beta_at_depth, exp.beta_deep):
        if lo <= olo and ohi <= hi:
            return None
    return f"beta interval [{lo}, {hi}] misses the oracle bracket"


def _check_distance(exp: Expected, stdout: str):
    r = exp.request
    if r.json:
        out = json.loads(stdout)
    else:
        out = dict(line.split(": ", 1) for line in stdout.splitlines())
    names = ["hausdorff", "phi", "beta"] if r.metric == "all" else [r.metric]
    values = {}
    for name in names:
        if name not in out:
            return f"missing {name}"
        values[name] = _parse_value(out[name])
    wanted = set(names)
    if r.decimal is not None:
        for name, value in values.items():
            if isinstance(value, Fraction):
                wanted.add(f"{name}_decimal")
                if out.get(f"{name}_decimal") != _decimal(value, r.decimal):
                    return f"{name}_decimal does not truncate {value}"
    if set(out) != wanted:
        return f"unexpected keys {sorted(set(out) - wanted)}"
    for name, value in values.items():
        if name == "beta":
            problem = _check_beta(exp, value)
            if problem:
                return problem
        elif value != getattr(exp, name):
            return f"{name} {value} != oracle {getattr(exp, name)}"
    return None


def check(exp: Expected, rc: int, stdout: str, stderr: str):
    """None when the output is right, else a one-line reason."""
    r = exp.request
    if r.kind == "error":
        if rc != r.exit_code:
            return f"exit {rc}, expected {r.exit_code}"
        if stdout or not stderr.startswith("error: ") or stderr.count("\n") != 1:
            return "error exit without a single 'error:' line"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    try:
        if r.kind == "distance":
            return _check_distance(exp, stdout)
        if r.kind == "descriptor":
            if stdout.splitlines() != exp.descriptor:
                return "descriptor levels differ from the support-disjointness rule"
            return None
    except ValueError as exc:  # unparsable output, including bad JSON
        return f"unparsable output: {exc}"
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith(f"seed={r.check_seed} "):
        return "check transcript does not start with its seed"
    if lines[-1] != "result: all suites passed" or any("FAIL" in ln for ln in lines):
        return "check reported failures"
    return None


# --- Bratteli layer -------------------------------------------------------------

def ideal_levels(s: QISet, depth: int) -> list:
    """Level sets 1..depth of the ideal of functions vanishing on s."""
    return [set(_mask_indices(m, depth)) for m in _level_masks(s, "derived", depth, depth)]


def ideal_problem(levels: list):
    """None when the level sets form an ideal of the quantized-interval diagram.

    There, summand k < n of level n passes to k at level n+1 and the tail
    summand n splits into n and n+1.  Below the last level an ideal holds
    k exactly when it holds every successor of k (forward closure plus
    saturation).
    """
    for n in range(1, len(levels)):
        here, below = levels[n - 1], levels[n]
        for k in range(1, n + 1):
            successors = {k} if k < n else {n, n + 1}
            if (k in here) != (successors <= below):
                return f"level {n} index {k} breaks forward closure or saturation"
    return None


def closure_problem(closure: list, seed: list, ideal: list):
    """None when `closure` holds the seed, is an ideal, and lies inside `ideal` (an ideal holding the seed)."""
    if any(not s <= c for s, c in zip(seed, closure)):
        return "closure drops an index of its seed"
    if any(not c <= i for c, i in zip(closure, ideal)):
        return "closure is larger than an ideal that holds the seed"
    return ideal_problem(closure)
