"""Three metrics on ideal descriptors of the quantized interval.

d_phi scores only the first level where two ideals disagree; d_beta weights
every disagreeing summand at every level by 2**-(level+index); the dual
Hausdorff metric (`qi.hausdorff`) measures the vanishing sets.  All values
are exact rationals, with certified intervals for truncated evaluation.

How the three compare, for the ideals that the support-disjointness rule
(`qi.ideal_of_closed_set`) gives two nonempty closed sets S and S'.  Write
x_k = 2**(1-k), L for the index of a set's last point (infinite when it
holds 0), D and Delta for the XORs of the two excluded words E and of the
two tail words T, k* and t* for their first 1s, and W4 for the sum of
4**-k over a word's 1s.  E_k = 1 iff x_k is in the set, and T_p = 1 iff
L < p.  Level p differs in each k < p with D_k = 1 and in p when
Delta_p = 1, so d_phi = 2**-m with m = min(k* + 1, t*), and
d_beta = W4(D) + W4(Delta).  A nonempty set has T_1 = 0, so m >= 2.

* d_phi <= d_H / 2.  If m = k* + 1, x_k* lies in one set only, and every
  other point is at least x_k* / 2 = 2**(1-m) from it.  If m = t* <= k*,
  one set has L < m, so it lies in {x_1 ... x_(m-1)}.  The other has
  T_m = 0, so a point in [0, x_m], at least x_(m-1) - x_m = 2**(1-m) from
  the first set.
* d_H <= 4 d_phi.  The sets share their points x_k with k <= m - 2, and
  T_(m-1).  If T_(m-1) = 1, both lie in {x_1 ... x_(m-2)} and are equal.
  Otherwise each has a point in [0, x_(m-1)], so each of its points is
  shared or lies within x_(m-1) = 2**(2-m) of the other set.
* 4 d_phi**2 <= 3 d_beta, that is d_beta >= (4/3) 4**-m.  If m = k* + 1,
  W4(D) >= 4**-k* = 4 * 4**-m.  If m = t* <= k*, say T_m = 1 and
  T'_m = 0; then Delta is 1 from m through L'.  For infinite L' that is
  W4(Delta) = (4/3) 4**-m.  Otherwise x_L' is in S' only, and D_L' = 1
  adds 4**-L', more than the (4/3) 4**-(L'+1) that Delta lacks past L'.
* d_H**2 <= 12 d_beta: d_H**2 <= 16 d_phi**2 <= 12 d_beta.
* 3 d_beta <= 5 d_phi.  D is 0 below m - 1 and Delta below m, so
  d_beta <= (4/3)(4**(1-m) + 4**-m) = (20/3) 4**-m, which is (5/3) d_phi
  at m = 2 and less past it.  (For the empty set, m = 1 and
  d_beta <= 2/3 = (4/3) d_phi.)
* d_beta <= (3/4) d_H.  For m >= 3, d_beta <= (20/3) 4**-m
  <= (5/6) 2**-m <= (5/12) d_H by the bounds above.  At m = 2, either
  x_1 = 1 is in one set only, or one set is {1} and the other holds more.

  - 1 in S only: unless 1/2 is in S', d_H >= d(1, S') >= 3/4, and
    (3/4) d_H >= 9/16 > 5/12 >= d_beta.  If it is, d_H >= 1/2, and
    Delta_2 = 1 only for S = {1}.  For S != {1},
    d_beta <= 1/4 + 1/16 + 1/48 + 1/48 = 17/48 < 3/8.  For S = {1},
    d_beta <= 1/4 + 2 (4**-2 + ... + 4**-L') < 5/12, and d_H = 1 - x_L':
    S' = {1/2} gives d_beta = 3/8 = (3/4) d_H, the equality case, and
    L' >= 3 gives d_H >= 3/4.
  - S = {1} inside S': d_H = 1 - x_L', and D and Delta are 0 outside
    2..L', so d_beta <= (1/6)(1 - 4**(1-L')) <= (1/4) d_H.

The empty set, whose ideal is the whole algebra, has T = 1 throughout.
Against a nonempty S, Delta_1 = 1, so d_phi = 1/2, and as in the third
bullet d_beta >= 1/3, with equality only at {0}; d_beta <= 2/3, with
equality only when S holds every point.

So d_phi is within a factor 4 of d_H, d_beta <= (3/4) d_H and
d_H <= sqrt(12 d_beta): on nonempty sets all three give the topology of
d_H, and the empty set is isolated in each.  The quantized interval is
compact, so its compact sets are its closed sets, and Fell's topology on
closed subsets (J. M. G. Fell, A Hausdorff topology for the closed subsets
of a locally compact non-Hausdorff space, Proc. Amer. Math. Soc. 13 (1962),
472-476) is the Vietoris topology: on nonempty sets it is the topology of
d_H, and the empty set is isolated.  Through the hull map, which takes an
ideal of the algebra to the closed set where it vanishes, d_phi and d_beta
therefore both metrize the Fell topology of the ideal space.  No constant
bounds d_H by d_beta: {x_k} against {x_k, 0} has d_H = 6 * 2**k * d_beta,
so d_beta is uniformly but not Lipschitz equivalent to d_H.

Digit lemma: d_beta = sum of c_k 4**-k over k >= 1, with digits
c_k = D_k + Delta_k in {0, 1, 2}, and two pairs of descriptors have equal
d_beta exactly when their digit words c agree.  Let c and c' first differ
at k.  Their k-th terms differ by at least 4**-k, while the digits are
below 3, so the rest adds at most 2 (4**-(k+1) + 4**-(k+2) + ...)
= (2/3) 4**-k: the values differ by at least (1/3) 4**-k.  So a d_beta
value and its digit word determine each other.  On the 175 nonempty sets
with heads <= 4 and periods <= 3, d_beta takes 663 values on the 15,225
pairs, one per digit word, against 26 for d_H and 8 for d_phi
(tests/test_metrics.py::test_how_much_each_metric_resolves).

Where d_beta(S, .) fails to separate, for the ideals of the
support-disjointness rule.  Fix S, with word e, last point L_S and tail
word s, s_k = 1 iff L_S < k.  Let R != R' be two sets with words r, r'
and last points x_L, x_L', named so that L <= L'.  By the digit lemma
d_beta(S, R) = d_beta(S, R') exactly when, for every k,
(e_k ^ r_k) + (s_k ^ [L < k]) = (e_k ^ r'_k) + (s_k ^ [L' < k]).  For
k <= L and for k > L' the two tail terms agree, so r_k = r'_k there; if
L = L', R and R' then share every x_k and hold 0 alike, so R = R', and
hence L < L'.  For L < k <= L', r_k = 0 and the tail terms are 1 - s_k and
s_k, so e_k + 1 - s_k = (e_k ^ r'_k) + s_k.  If s_k = 1, then e_k = 0 and
the left is 0 while the right is at least 1; so s_k = 0, and
e_k + 1 = e_k ^ r'_k forces e_k = 0 and r'_k = 1.  So S ties R and R'
exactly when both hold:

* R' is R plus every point x_(L+1) ... x_L' (with 0 when L' is infinite);
* S holds none of those points, but holds a point past x_L' (0 when L'
  is infinite), since s_L' = 0 says L_S >= L' and e_L' = 0.

Every tied digit is then 1, from D against R' and from Delta against R: a
1 is the one digit that does not say which word it came from.  Summed over
the 176 short sets S, 1,048 pairs R, R' of short sets tie from S
(tests/test_metrics.py::test_where_beta_from_a_set_ties).

The ideal lattice.  Read an ideal as the set of its summands, index k at
level p, and let mu(X) sum 2**-(p+k) over a set X of them, so that
d_beta(I, J) = mu(I ^ J), with ^ the symmetric difference.  Let I and J be
the ideals of S and S', and L, L' the indices of their last points, with
L = 0 for the empty set.

* (a) d_beta puts the meet between.  The ideal M of the union of S and S',
  the functions that vanish on both sets, is the intersection of I and J,
  their meet.  M lies in both I and J, so I ^ J is the disjoint union of
  I ^ M = I - J and M ^ J = J - I, and mu(I ^ J) = mu(I ^ M) + mu(M ^ J):
  d_beta(I, J) = d_beta(I, M) + d_beta(M, J)
  (tests/test_metrics.py::test_beta_puts_the_meet_between).
* (b) The join's defect is what saturation adds.  The join K of I and J,
  the least ideal holding both, is the ideal of V, the intersection of S
  and S'.  The level-wise union U of I and J is forward closed, as both
  are, so K is U saturated.  I and J lie in U and U in K, so I ^ K = K - I
  is the disjoint union of K - U and U - I = J - I, and K ^ J that of
  K - U and I - J.  So d_beta(I, K) + d_beta(K, J) - d_beta(I, J) =
  2 mu(K - U), which is 0 exactly when U is already an ideal.  Level p of
  K and of U hold the same k < p, since x_k is outside V exactly when it
  is outside S or S'.  They differ only in p itself, which K holds when
  L_V < p and U when min(L, L') < p.  So K - U is the summands p at
  level p with L_V < p <= min(L, L'), and the defect is
  2 (4**-(L_V+1) + ... + 4**-min(L, L')).
* (c) d_phi and d_H put neither between unless one set holds the other,
  when the meet and the join are I or J and the sums hold trivially.
  d_phi is an ultrametric: ideals that agree with a third one through
  level m - 1 agree with each other there, so d_phi(I, J) <=
  max(d_phi(I, X), d_phi(X, J)) for every ideal X, and the sum of the two
  equals d_phi(I, J) only when a term is 0, when X is I or J.  For the
  hulls, let h(A, B) be the largest distance from a point of A to B, so
  that d_H(A, B) = max(h(A, B), h(B, A)).  Every point of the union not in
  S lies in S', so d_H(S, S u S') = h(S', S) and d_H(S u S', S') =
  h(S, S'), and their sum is the maximum of the two only when the other is
  0, when one set holds the other.  For nonempty V, d_H(S, V) >= h(S, V)
  >= h(S, S') and d_H(V, S') >= h(S', V) >= h(S', S), so the same holds.

(tests/test_metrics.py::test_ideal_lattice_table counts each case on the
short sets, and test_closure_of_the_union_is_the_ideal_of_the_intersection
checks K against the Bratteli layer's saturation.)

The paper's test family.  Compare A = {2**-m} with B = {2**-n, 2**-(n+k)},
m, n, k >= 1, whose points are x_a, x_b and x_c with a = m + 1,
b = n + 1 and c = n + k + 1, and write q, r, s for 4**-m, 4**-n and
4**-(n+k).  Both conventions take each set's own word as E, so D is 1 at
{a} ^ {b, c}: at a, b and c when m is neither n nor n + k, at c alone when
m = n, at b alone when m = n + k.  Its least index k* is a for m < n, c for
m = n and b for m > n.

* Paper convention: T is the complement of E, so Delta = D.  Level k*
  already differs in k* itself, and no level before it differs, so
  d_phi = 2**-k*: 2**-(min(m, n)+1) for m != n and 2**-(n+k+1) for m = n.
  d_beta = 2 W4(D), half the sum of 4**-e over e in {m} ^ {n, n+k}:
  (q + r + s)/2 off the two slices, s/2 at m = n and r/2 at m = n + k.
* Derived convention: T is 0 through the last point, L = a for A and c
  for B, so Delta is 1 at the p with min(a, c) < p <= max(a, c), and
  W4(Delta) = |q - s|/12.  The first disagreement is at min(k* + 1, t*),
  where t* = min(a, c) + 1 is the first 1 of Delta (none when a = c):
  both are a + 1 for m < n, t* = b + 1 < c + 1 for m = n, and
  k* + 1 = b + 1 < t* for m > n.  So it is at min(m, n) + 2, and
  d_phi = 2**-(min(m, n)+2) throughout, half the published form.
  d_beta = W4(D) + W4(Delta): q/3 + r/4 + s/6 for m < n
  and for n < m < n + k, r/12 + s/6 at m = n, r/4 at m = n + k, and
  q/6 + r/4 + s/3 for m > n + k.

So under the paper convention d_beta/d_phi is 2**-m (1 + 4**(m-n) +
4**(m-n-k)) for m < n and 2**-n (1 + 4**(n-m) + 4**-k) for n < m != n + k,
where m - n and k are distinct; either is at most (21/16) 2**-min(m, n),
with equality only when the two exponents of 4 are -1 and -2.  On the
slices it is 2**-(n+k) and 2**-n.  So its peak is 21/32, where also
min(m, n) = 1: at (1, 2, 1), (2, 1, 2) and (3, 1, 1) only.  d_beta/d_phi**2
is twice the bracket above off the slices, so more than 2, and exactly 2 on
both slices (tests/test_metrics.py::test_family_closed_forms and
test_paper_convention_extremes).

The paper publishes d_phi = 2**-(min(m, n)+1) and, for m < n,
d_beta = (4**-(n+k) + 2**-m + 4**-n)/2, and tabulates d_H, d_phi and
d_beta at (1, 2, 1) as 3/8, 1/4, 37/128 and at (1, 2, 2) as 7/16, 1/4,
145/512.  The tabulated d_phi and d_beta are these forms' values there, and
d_H is the two sets' Hausdorff distance; `afideals paper-table` prints the
rows as data.  The published d_beta has 2**-m where the paper convention's
sum above has 4**-m, so it gives 37/128 and 145/512 where the sum gives
21/128 and 81/512.

The published level sets are not ideals.  For a paper shape S, write I for
its ideal under the support-disjointness rule and L for the index of its
last point (a for A, c for B above).

* (a) The published level sets are I plus, for each p < L with x_p outside
  S, the tail summand p at level p, and the union is disjoint.  Both take
  S's word as E, so level p of each holds the same k < p.  The published
  level p holds p itself when x_p is outside S, and I's when L < p.  Past
  L both hold it, and at L neither does, since x_L is in S.  Below L only
  the published sets hold it, when x_p is outside S.
* (b) They are not an ideal, and their closure is the whole algebra.  On
  the quantized-interval diagram the tail summand q of level q splits into
  q and q + 1, the tail of level q + 1, while each k < q passes to k.  So
  forward closure from the tail summand p of level p alone gives every
  index from p through q at each level q >= p.  x_1 = 1 is never in a
  paper shape, so L >= 2 and level 1 holds its only summand, the tail 1,
  whose closure is the whole algebra.  The published sets leave index L
  out of level L + 1, since x_L is in S, so they are not that closure, and
  is_ideal fails on them.
* (c) I is the largest ideal inside them.  By (a), an ideal inside them
  but not inside I holds one of the added tails p < L at level p, and by
  (b) then index L at level L + 1, which they leave out.  So the closure
  of I plus any one added tail leaves the published level sets, and every
  ideal inside them lies in I.
* (d) The added tails double d_phi off the m = n slice.  By (a), the
  published level p holds the tail p exactly when x_p is outside S: the
  added tails hold it for p < L, I for p > L, and neither at L.  So the
  added tails turn the tail word into the complement of E, Delta = D, and
  the first disagreement moves from min(k* + 1, t*) to k*, whose level
  differs in k* itself: the paper d_phi is 2**(min(k* + 1, t*) - k*) times
  the derived one.  Off the slice t* > k* (t* = a + 1 = k* + 1 for m < n,
  t* = min(a, c) + 1 > b + 1 = k* + 1 for m > n, and none at m = n + k),
  so the factor is 2.  On the slice, k* = c = n + k + 1 and
  t* = b + 1 = n + 2, so it is 2**(1-k): the added tails move the first
  disagreement k - 1 levels later.

(tests/test_metrics.py::test_published_level_sets_are_not_ideals checks
(a)-(c) at depth 16 with is_ideal and ideal_closure as the oracle: (a) and
(b) on the 78 shapes with m <= 12 and n + k <= 12, and (c) on each of
their 584 added tails.  test_added_tails_scale_d_phi checks (d) on the 792
pairs of those shapes, {2**-m} against {2**-n, 2**-(n+k)}.)
"""

from __future__ import annotations

from fractions import Fraction

from .bratteli import EventualDescriptor, first_disagreement
from .exact import BinaryWord, bit_text, pow2, xor_weight
from .qi import ClosedSubsetQI, ideal_of_closed_set


class MalformedComparisonError(ValueError):
    """Paper-convention inputs must be a singleton or a two-point set."""


def _endpoint(x) -> Fraction:
    """x as an exact Fraction; a Fraction is kept as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"endpoints must be int or Fraction, got {type(x).__name__}")


class CertifiedValue:
    """A bracket [lo, hi] certified to contain a limit."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = _endpoint(lo), _endpoint(hi)
        if lo > hi:
            raise ValueError("lo must not exceed hi")
        self._lo = lo
        self._hi = hi

    @property
    def lo(self) -> Fraction:
        return self._lo

    @property
    def hi(self) -> Fraction:
        return self._hi

    @property
    def width(self) -> Fraction:
        return self._hi - self._lo

    def contains(self, x) -> bool:
        return self._lo <= x <= self._hi

    def encloses(self, other: "CertifiedValue") -> bool:
        return self._lo <= other._lo and other._hi <= self._hi

    def __eq__(self, other):
        if not isinstance(other, CertifiedValue):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __str__(self):
        return f"[{self._lo}, {self._hi}]"

    def __repr__(self):
        return f"CertifiedValue({self})"


def d_phi(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """2**-(first level of disagreement), or 0 for equal ideals."""
    m = first_disagreement(i, j)
    if m is None:
        return Fraction(0)
    return pow2(-m)


def settles(i: EventualDescriptor, j: EventualDescriptor) -> bool:
    """Whether D, the XOR of the excluded words, is eventually zero.

    Canonical words agree eventually iff their primitive periods have equal
    length and the words agree on one period after the longer head: past
    that head both repeat with that length, and an eventually periodic word
    has one primitive period.
    """
    u, v = i.excluded, j.excluded
    length = u.period_len
    if length != v.period_len:
        return False
    h = max(u.head_len, v.head_len)
    return u.prefix(h + length) >> h == v.prefix(h + length) >> h


def d_beta(i: EventualDescriptor, j: EventualDescriptor) -> Fraction:
    """Sum over levels p and disagreeing indices k of 2**-(p+k), exactly.

    Level p differs in each k < p where D, the XOR of the excluded words,
    has a 1, and in p itself where the tail words differ.  Summing over p
    first, a D-bit at k weighs 4**-k and a tail difference at p weighs 4**-p.
    Both sums come from the words' masks, and are added as one fraction.

    When D settles, the denominator divides 3 times a power of 4; for sets
    within qi.MAX_LITERAL_BITS it has at most about 1,234 digits.  When D
    never settles, its period is the lcm of the two periods, and the
    denominator grows with it: 36,419 digits at periods 251 and 241.
    Reducing that fraction is then nearly all the cost, quadratic in the
    lcm.  Random words with coprime periods took 0.018-0.030 s at 251/241,
    0.31-0.33 s at 509/503 and 5.2-6.4 s at 1021/1019, where xor_weight took
    0.022 s of it (in-process, best of 3 in each of three runs, Python
    3.11.7 on 2 shared x86_64 vCPUs; the ranges are the host's drift).  The
    CLI prints the certified interval for such pairs instead.
    """
    num, den = xor_weight(i.excluded, j.excluded)
    tail_num, tail_den = xor_weight(i.tail, j.tail)
    return Fraction(num * tail_den + tail_num * den, den * tail_den)


def _word_sum(i: EventualDescriptor, j: EventualDescriptor, n: int) -> int:
    """The numerator N of the partial sum S_n = N / 4**n, from the first n
    bits of the two XOR words.

    Levels p <= n weigh a D-bit at k < n by 2**-k (2**-k - 2**-n) and a tail
    difference at p by 4**-p, so every term is a whole number of 4**-n.
    """
    diff = bit_text(i.excluded.prefix(n - 1) ^ j.excluded.prefix(n - 1), n - 1) or "0"
    tails = bit_text(i.tail.prefix(n) ^ j.tail.prefix(n), n)
    return 4 * int(diff, 4) - 2 * int(diff, 2) + int(tails, 4)


def d_beta_truncated(i: EventualDescriptor, j: EventualDescriptor, depth: int) -> CertifiedValue:
    """Partial sum through `depth` levels, bracketed by the 2**-depth tail
    bound: both endpoints share the partial sum's numerator N over 4**depth,
    N for the low end and N + 2**depth for the high one."""
    if depth < 1:
        raise ValueError("depth must be positive")
    num, den = _word_sum(i, j, depth), 1 << 2 * depth
    return CertifiedValue(Fraction(num, den), Fraction(num + (1 << depth), den))


# The paper's two shapes by number of points: how the shape is named, and
# the bound on its parameters that excludes the point 1 = 2**0.
_PAPER_SHAPES = {
    1: ("a singleton {2**-m}", "m >= 1"),
    2: ("a pair {2**-n, 2**-(n+k)}", "n, k >= 1"),
}


def _paper_table(s: ClosedSubsetQI, role: str, points: int) -> EventualDescriptor:
    """The published table's descriptor of s, which must be `points` isolated
    points other than 1.

    For the singleton {2**-m} and the pair {2**-n, 2**-(n+k)} the table
    excludes the set's points, as the support-disjointness convention does,
    but keeps the tail summand inside the ideal at every level except those
    points: the excluded word is the set's word and the tail word is its
    complement, eventually 1 (1^m 0 1 1 ... for the singleton).
    """
    shape, bound = _PAPER_SHAPES[points]
    if not s.is_finite:
        raise MalformedComparisonError(f"{role} must be {shape}")
    if s.word.head_mask.bit_count() != points or s.word.bit(1):
        raise MalformedComparisonError(f"{role} must be {shape} with {bound}")
    h = s.word.head_len
    complement = BinaryWord.from_masks(s.word.head_mask ^ ((1 << h) - 1), h, 1, 1)
    return EventualDescriptor(s.word, complement)


def descriptor(s: ClosedSubsetQI, convention: str) -> EventualDescriptor:
    """Ideal descriptor of a closed set: "paper" uses the published table
    (a singleton or a pair), "derived" the support-disjointness rule."""
    if convention == "derived":
        return ideal_of_closed_set(s)
    if convention != "paper":
        raise ValueError(f"unknown convention: {convention!r}")
    points = s.word.head_mask.bit_count()
    if s.is_finite and points in _PAPER_SHAPES:
        return _paper_table(s, "set", points)
    raise MalformedComparisonError(
        "paper convention covers only singletons and pairs of isolated points"
    )


def descriptors(a: ClosedSubsetQI, b: ClosedSubsetQI, convention: str):
    """Ideal descriptors of a comparison's two sets; under "paper" the first
    must be a singleton and the second a pair."""
    if convention == "paper":
        return _paper_table(a, "first set", 1), _paper_table(b, "second set", 2)
    return descriptor(a, convention), descriptor(b, convention)
