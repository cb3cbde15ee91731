"""Locating polynomial roots relative to the unit circle, and Salem / 2-Salem /
Perron labelling of monic integer polynomials.

The root counts are exact and come from one signed remainder sequence.  The
Cayley transform q(s) = (1 - s)^n h((1 + s)/(1 - s)) of a squarefree h takes
the open unit disk to the open left half-plane and the circle to the
imaginary axis.  The remainder sequence of the real and imaginary parts of
q(iy) ends at their gcd, whose real roots are the circle roots of h and whose
other roots are its inversion pairs z, 1/z; the turn of arg q(iy) over the
real line, a Cauchy index read from the same sequence, places the rest.  It
takes O(n^2) coefficient operations and decides inside, on and outside for
every squarefree h; unit_circle_root_count is its on count.  Yun's factors
give multiplicities; 464 of the 465 classify_mix inputs take one gcd.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .intpoly import (
    IntPoly,
    _divide_cyclotomic,
    _taylor_shift,
    reciprocity_type,
    squarefree_decomposition,
    squarefree_part,
)
from . import roots
from .record import Record
from .roots import _cauchy_index_and_gcd, largest_root_above_one


class NumberClass(Record):
    """Exact root location counts of a polynomial relative to the unit circle."""

    roots_outside_unit_disk: int
    roots_on_unit_circle: int
    roots_inside: int
    labels: frozenset[str] = frozenset()

    @property
    def degree(self) -> int:
        return self.roots_outside_unit_disk + self.roots_on_unit_circle + self.roots_inside


def strip_cyclotomic(p: IntPoly) -> tuple[IntPoly, list[tuple[int, int]]]:
    """Divide out every cyclotomic factor of p.

    Returns (core, factors) with factors a list of (cyclotomic index,
    multiplicity) in ascending index and core * prod Phi_n^mult == p exactly.
    The candidates are the n with phi(n) <= deg p, with no cap, divided by
    intpoly._divide_cyclotomic: screened once by p's values at its probes,
    then divided at one power of two, with one readback."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    d = p.degree
    return _divide_cyclotomic(p, [(n, d) for n, _ in _cyclotomic_candidates(d)])


@functools.cache
def _cyclotomic_candidates(d: int) -> tuple[tuple[int, int], ...]:
    """(n, phi(n)) for every n with phi(n) <= d, ascending in n; (1, 1) alone
    for d < 1.  Taken from the table of the least power of two >= d, so that
    a run of new degrees builds a table only when it passes a power of two."""
    if d < 1:
        return ((1, 1),)
    return tuple(c for c in _candidate_table(1 << (d - 1).bit_length()) if c[1] <= d)


@functools.cache
def _candidate_table(d: int) -> tuple[tuple[int, int], ...]:
    """(n, phi(n)) for every n with phi(n) <= d, ascending in n.  Each prime q
    of such an n has q - 1 <= d.  walk(i, n, f) lists n, of totient f, times
    every product of powers of the primes from the i-th on, taken in
    increasing order, and stops at the first prime that takes phi past d."""
    sieve = bytearray([1]) * (d + 2)
    primes = []
    for q in range(2, d + 2):
        if sieve[q]:
            primes.append(q)
            sieve[q * q::q] = bytes(len(sieve[q * q::q]))
    out = []

    def walk(i: int, n: int, f: int) -> None:
        out.append((n, f))
        for q in primes[i:]:
            g = f * (q - 1)
            if g > d:
                break
            i += 1
            m = n * q
            while g <= d:
                walk(i, m, g)
                m, g = m * q, g * q

    walk(0, 1, 1)
    return tuple(sorted(out))


def unit_circle_root_count(p: IntPoly) -> int:
    """Number of distinct roots of p with |t| = 1.

    Requires p reciprocal or anti-reciprocal (after taking the squarefree
    part); the count is taken in the squarefree sense, each circle root once.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant == 0:
        raise ValueError("polynomial must not vanish at 0")
    s = squarefree_part(p)
    if reciprocity_type(s) == "neither":
        raise ValueError("polynomial is not reciprocal up to sign")
    return disk_root_counts(s)[1]


def _cayley(h: IntPoly) -> IntPoly:
    """q(s) = (1 - s)^n h((1 + s)/(1 - s)), n = deg h: a root z of h inside
    the unit disk becomes a root of q in the open left half-plane, a root
    outside the closed disk one in the open right half-plane, a root on the
    circle one on the imaginary axis, and z = -1 drops the degree of q.
    q is made primitive, which may flip its sign: that flips both A and B of
    `disk_root_counts` and keeps the Cauchy index, the gcd and every count.
    """
    n = h.degree
    # g(x) = h(x - 1), so h(z) (1 - s)^n = sum g_k 2^k (1 - s)^(n - k) = r(1 - s)
    g = _taylor_shift(h.coeffs, -1)
    r = _taylor_shift([g[n - j] << (n - j) for j in range(n + 1)], 1)
    return IntPoly(-c if j % 2 else c for j, c in enumerate(r)).primitive()


def disk_root_counts(s: IntPoly) -> tuple[int, int, int]:
    """(inside, on, outside) counts of the roots of squarefree s, s(0) != 0,
    relative to the unit circle.

    With q the Cayley transform of s, write q(iy) = A(y) + i B(y); one of A, B
    has degree deg q and the other less.  One signed remainder sequence of
    the two ends at g = gcd(A, B), whose roots y are those with iy and -iy
    both roots of q: a real y is a circle root of s other than -1, counted
    as the Cauchy index of g'/g, and a non-real pair y, -y is an inversion
    pair z, 1/z of s, one root inside and one outside.  The other roots of q
    turn arg q(iy) by pi (inside - outside) as y runs over the real line:
    -pi I(B/A) when deg A > deg B and pi I(A/B) otherwise, I the Cauchy
    index in lowest terms, read from the same sequence.  A root at -1 shows
    as deg q < deg s.
    """
    n = s.degree
    q = _cayley(s)
    # q(iy) = sum q_k i^k y^k: even k go to A with sign (-1)^(k/2), odd k to B
    # with sign (-1)^((k-1)/2).
    a = IntPoly(c if k % 4 == 0 else -c if k % 4 == 2 else 0 for k, c in enumerate(q.coeffs))
    b = IntPoly(c if k % 4 == 1 else -c if k % 4 == 3 else 0 for k, c in enumerate(q.coeffs))
    if a.degree > b.degree:
        index, g = _cauchy_index_and_gcd(b, a)
        index = -index
    else:
        index, g = _cauchy_index_and_gcd(a, b)
    axis = roots.cauchy_index(g.derivative(), g) if g.degree > 0 else 0
    pairs = (g.degree - axis) // 2
    inside = pairs + (q.degree - g.degree + index) // 2
    on = axis + n - q.degree
    return inside, on, n - inside - on


def _location_counts(p: IntPoly) -> tuple[tuple[int, int, int], tuple[int, int], IntPoly]:
    """(outside, on, inside) root counts of p with multiplicity, the numbers of
    distinct roots (outside, on), and the product of Yun's factors of p, which
    is its squarefree part for monic p; needs p(0) != 0."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant == 0:
        raise ValueError("zero constant term")
    outside = on = inside = distinct_outside = distinct_on = 0
    factors = squarefree_decomposition(p)
    # Yun's factors are pairwise coprime, so their distinct roots add up.
    for f, mult in factors:
        i, c, o = disk_root_counts(f)
        outside += mult * o
        on += mult * c
        inside += mult * i
        distinct_outside += o
        distinct_on += c
    s = functools.reduce(IntPoly.__mul__, [f for f, _ in factors]) if factors else IntPoly([1])
    return (outside, on, inside), (distinct_outside, distinct_on), s


# The bits k of the dyadic scales c = m / 2^k that _is_perron tries, coarsest first.
_SCALE_BITS = (4, 8, 16, 32, 64, 128)


def _inside_scaled(p: IntPoly, c: Fraction) -> int:
    """Number of roots z of squarefree p with |z| < c for rational c > 0, from
    the unit-disk count of p(ct) cleared of denominators."""
    n = p.degree
    scaled = IntPoly(coeff * c.numerator**i * c.denominator ** (n - i)
                     for i, coeff in enumerate(p.coeffs)).primitive()
    return disk_root_counts(scaled)[0]


def _is_perron(p: IntPoly, outside: int) -> bool | None:
    """Whether the largest real root of squarefree p strictly dominates all
    other root moduli.

    outside is the number of roots of p outside the closed unit disk.  The
    top root comes from roots.largest_root_above_one: with none above 1, p
    is not Perron, and with one root outside, that root is the top root.  A
    real root below -1, the top root of p(-t) above 1, whose modulus is at
    least the top root's gives False, by compare.  The other moduli are set
    against the top root by disk counts of p(ct) at dyadic scales
    c = m / 2^k, k in _SCALE_BITS, on a bracket (low, high] of the top root
    refined to 2^-k: all but one root below c = floor(low 2^k) / 2^k < top
    gives True, and fewer than deg p roots below c' = ceil(high 2^k) / 2^k
    > top gives False.  Each count is exact, a root of modulus c included.
    Few-bit scales keep the coefficients of p(ct) short, and most inputs are
    decided at k = 4 or 8.

    Returns None when undecided: above degree 64, or when no rung decides,
    as for a complex pair of the same modulus as the top root.
    """
    if outside == 0:
        return False
    top = largest_root_above_one(p, Fraction(1, 64))
    if top is None:
        return False
    if outside == 1:
        # complex roots pair up, so the one root outside is real: the top root
        return True
    if p.degree > 64:
        return None
    mirrored = IntPoly((-1) ** (i % 2) * c for i, c in enumerate(p.coeffs))
    neg_top = largest_root_above_one(mirrored, Fraction(1, 64))
    if neg_top is not None and roots.compare(neg_top, top) >= 0:
        return False
    for k in _SCALE_BITS:
        top = top.refined(Fraction(1, 1 << k))
        lo, hi = math.floor(top.low * (1 << k)), math.ceil(top.high * (1 << k))
        if lo == hi:
            # the top root is m / 2^k itself: step one unit outward on each side
            lo, hi = lo - 1, hi + 1
        if _inside_scaled(p, Fraction(lo, 1 << k)) >= p.degree - 1:
            return True
        if _inside_scaled(p, Fraction(hi, 1 << k)) < p.degree:
            return False
    return None


def classify(p: IntPoly) -> NumberClass:
    """Exact unit-circle root counts plus Salem / 2-Salem / Perron / cyclotomic labels.

    Requires p monic with nonzero constant term.  Labels are decided on the
    squarefree part after stripping cyclotomic factors; a core with exactly
    one root outside the closed disk and at least one on the circle is
    necessarily irreducible (any monic non-cyclotomic integer factor has a
    root outside the closed disk), so the 'salem' label is certified.  With
    two roots outside, an irreducible core cannot be told apart from a
    product of two Salem polynomials by counts alone; 'two_salem' follows
    the counts.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("polynomial must be monic")
    if p.constant == 0:
        raise ValueError("zero constant term")
    (outside, on, inside), (s_outside, s_on), s = _location_counts(p)
    labels = set()
    perron = _is_perron(s, s_outside) if s.degree >= 1 else False
    core, _factors = strip_cyclotomic(s)
    if core.degree <= 0:
        labels.add("cyclotomic")
    else:
        # s is squarefree, so its cyclotomic part has deg s - deg core distinct
        # roots, all on the circle, and the core keeps every other root of s.
        # With one root outside the closed disk, s is Perron exactly when
        # that root lies above 1.
        c_out, c_on = s_outside, s_on - (s.degree - core.degree)
        if c_out == 1 and c_on >= 1 and perron:
            labels.add("salem")
        if c_out == 2 and c_on >= 1:
            labels.add("two_salem")
    if perron:
        labels.add("perron")
    return NumberClass(outside, on, inside, frozenset(labels))
