"""Locating polynomial roots relative to the unit circle, and Salem / 2-Salem /
Perron labelling of monic integer polynomials.

The root counts are exact.  Roots on the circle are counted through the
trace substitution x = t + 1/t on the inversion-symmetric part; the counts
inside and outside for the remaining part come from the signature of the
Schur-Cohn quadratic form, which is computable in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intpoly import (
    ExactDivisionError,
    IntPoly,
    cyclotomic,
    exact_div,
    palindromic_reduce,
    poly_gcd,
    reciprocity_type,
    squarefree_decomposition,
    squarefree_part,
    totient_sieve,
)
from . import roots
from .roots import count_roots_open, isolate_largest_real_root, sturm_count


@dataclass(frozen=True)
class NumberClass:
    """Exact root location counts of a polynomial relative to the unit circle."""

    roots_outside_unit_disk: int
    roots_on_unit_circle: int
    roots_inside: int
    labels: frozenset[str] = field(default_factory=frozenset)

    @property
    def degree(self) -> int:
        return self.roots_outside_unit_disk + self.roots_on_unit_circle + self.roots_inside


def strip_cyclotomic(p: IntPoly) -> tuple[IntPoly, list[tuple[int, int]]]:
    """Divide out every cyclotomic factor of p.

    Returns (core, factors) with factors a list of (cyclotomic index,
    multiplicity) and core * prod Phi_n^mult == p exactly.  Candidate indices
    n are exactly those with phi(n) <= deg p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    core = p
    factors: list[tuple[int, int]] = []
    deg = core.degree
    if deg < 1:
        return core, factors
    limit = 2 * deg * deg + 6  # phi(n) >= sqrt(n/2), so phi(n) <= deg forces n <= 2 deg^2
    phi = totient_sieve(limit)
    for n in range(1, limit + 1):
        if phi[n] > core.degree:
            continue
        f = cyclotomic(n)
        mult = 0
        while core.degree >= f.degree:
            try:
                core = exact_div(core, f)
            except ExactDivisionError:
                break
            mult += 1
        if mult:
            factors.append((n, mult))
        if core.degree < 1:
            break
    return core, factors


def _remove_root(p: IntPoly, at: int) -> tuple[IntPoly, int]:
    """Divide out (t - at) as often as it divides; returns (quotient, multiplicity)."""
    lin = IntPoly([-at, 1])
    mult = 0
    while p.degree >= 1 and p(at) == 0:
        p = exact_div(p, lin)
        mult += 1
    return p, mult


def unit_circle_root_count(p: IntPoly) -> int:
    """Number of distinct roots of p with |t| = 1.

    Requires p reciprocal or anti-reciprocal (after taking the squarefree
    part); the count is taken in the squarefree sense, each circle root once.
    Roots at t = 1 and t = -1 are handled explicitly; the rest pair up under
    conjugation and are counted by the trace substitution.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant == 0:
        raise ValueError("polynomial must not vanish at 0")
    s = squarefree_part(p)
    if reciprocity_type(s) == "neither":
        raise ValueError("polynomial is not reciprocal up to sign")
    s, m1 = _remove_root(s, 1)
    s, m_1 = _remove_root(s, -1)
    count = (1 if m1 else 0) + (1 if m_1 else 0)
    if s.degree == 0:
        return count
    # The remainder is reciprocal of even degree with no root at +-1.
    if reciprocity_type(s) != "reciprocal" or s.degree % 2 != 0:
        raise ValueError("unexpected structure after removing roots at +-1")
    q = palindromic_reduce(s)
    return count + 2 * count_roots_open(q, Fraction(-2), Fraction(2))


def _schur_cohn_matrix(p: IntPoly) -> list[list[int]]:
    """The integer symmetric matrix of the Schur-Cohn form of p.

    Entries h[j][k] = sum_v (q_{j-v} q_{k-v} - p_{j-v} p_{k-v}) with q the
    reversed coefficient sequence; its signature equals (#roots inside the
    open unit disk) - (#outside the closed disk) whenever p has no circle
    roots and no pair of roots r, s with r*s = 1.
    """
    n = p.degree
    a = list(p.coeffs)
    q = list(reversed(a))
    h = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            acc = 0
            for v in range(min(j, k) + 1):
                acc += q[j - v] * q[k - v] - a[j - v] * a[k - v]
            h[j][k] = h[k][j] = acc
    return h


def _charpoly_int(mat: list[list[int]]) -> IntPoly:
    """Characteristic polynomial det(xI - M) of an integer matrix, exactly.

    Faddeev-LeVerrier recurrence; every division is exact for integer input.
    """
    n = len(mat)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_0 = I
    for k in range(1, n + 1):
        # M_k = A * (M_{k-1} + c_{k-1} I); c_k = -trace(M_k)/k
        am = [[sum(mat[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        c_k, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        coeffs[n - k] = c_k
        if k < n:
            for i in range(n):
                am[i][i] += c_k
            m = am
    return IntPoly(coeffs)


def charpoly_int_matrix(mat: list[list[int]]) -> IntPoly:
    """Public wrapper: det(xI - M) for a square integer matrix."""
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    if not mat:
        return IntPoly([1])
    return _charpoly_int(mat)


def _descartes_positive(p: IntPoly) -> int:
    """Sign variations of the coefficient sequence (exact root count when all roots real)."""
    count = 0
    prev = 0
    for c in p.coeffs:
        s = (c > 0) - (c < 0)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def disk_root_counts(h: IntPoly) -> tuple[int, int]:
    """(inside, outside) counts relative to the unit circle for squarefree h
    with gcd(h, rev h) = 1, i.e. no circle roots and no inversion root pairs.
    """
    n = h.degree
    if n == 0:
        return 0, 0
    mat = _schur_cohn_matrix(h)
    chi = _charpoly_int(mat)
    # Symmetric matrix: all eigenvalues real, so Descartes is exact.
    pos = _descartes_positive(chi)
    neg = _descartes_positive(IntPoly((-1) ** (i % 2) * c for i, c in enumerate(chi.coeffs)))
    if pos + neg != n:
        raise ArithmeticError("degenerate Schur-Cohn form; input had inversion-paired roots")
    # signature = inside - outside
    sig = pos - neg
    inside = (n + sig) // 2
    return inside, n - inside


def _root_counts_squarefree(s: IntPoly) -> tuple[int, int, int]:
    """(outside, on, inside) for a squarefree s with s(0) != 0."""
    g = poly_gcd(s, s.reversed())
    h = exact_div(s, g) if g.degree > 0 else s
    on = unit_circle_root_count(g) if g.degree > 0 else 0
    off_pairs = (g.degree - on) // 2
    inside_h, outside_h = disk_root_counts(h.primitive())
    return off_pairs + outside_h, on, off_pairs + inside_h


def root_location_counts(p: IntPoly) -> tuple[int, int, int]:
    """(outside, on, inside) root counts of p with multiplicity; needs p(0) != 0."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.constant == 0:
        raise ValueError("zero constant term")
    outside = on = inside = 0
    for f, mult in squarefree_decomposition(p):
        o, c, i = _root_counts_squarefree(f)
        outside += mult * o
        on += mult * c
        inside += mult * i
    return outside, on, inside


def _is_perron(p: IntPoly, outside: int) -> bool | None:
    """Whether the largest real root of squarefree p strictly dominates all
    other root moduli.

    Returns None when undecided: above degree 64, or when the scaled disk
    count below stays inconclusive.
    """
    bound = roots.cauchy_bound(p)
    above_one = sturm_count(p, 1, bound)
    if outside == 1:
        # The unique root outside the closed disk is real (complex roots pair up);
        # it dominates iff it lies in (1, inf) rather than (-inf, -1).
        return above_one == 1
    if outside == 0:
        return False
    if above_one == 0:
        return False
    if p.degree > 64:
        # the scaled-disk certification below is quartic in the degree;
        # beyond spot-check scale the label is left undecided
        return None
    top = isolate_largest_real_root(p, Fraction(1, 10**12))
    # A negative root of equal or larger modulus rules top out.
    mirrored = IntPoly((-1) ** (i % 2) * c for i, c in enumerate(p.coeffs))
    if sturm_count(mirrored, 1, bound) > 0:
        neg_top = isolate_largest_real_root(mirrored, Fraction(1, 10**12))
        if roots.compare(neg_top, top) >= 0:
            return False
    # Count roots of modulus < c for rational c just below the top root:
    # p(c t) scaled to integer coefficients, then a unit-disk count.
    for _ in range(5):
        c = top.low if top.width > 0 else top.low - Fraction(1, 10**15)
        scaled = IntPoly(coeff * c.numerator**i * c.denominator ** (p.degree - i)
                         for i, coeff in enumerate(p.coeffs)).primitive()
        try:
            if poly_gcd(scaled, scaled.reversed()).degree == 0:
                inside, _ = disk_root_counts(scaled)
                if inside >= p.degree - 1:
                    return True
        except ArithmeticError:
            pass
        if top.width == 0:
            return None
        top = top.refined(top.width / 2**10)
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
    outside, on, inside = root_location_counts(p)
    labels = set()
    s = squarefree_part(p)
    core, _factors = strip_cyclotomic(s)
    if core.degree <= 0:
        labels.add("cyclotomic")
    else:
        c_out, c_on, c_in = _root_counts_squarefree(core)
        core_above_one = sturm_count(core, 1, roots.cauchy_bound(core))
        if c_out == 1 and c_on >= 1 and core_above_one == 1:
            labels.add("salem")
        if c_out == 2 and c_on >= 1:
            labels.add("two_salem")
    perron = _is_perron(s, _root_counts_squarefree(s)[0]) if s.degree >= 1 else False
    if perron:
        labels.add("perron")
    return NumberClass(outside, on, inside, frozenset(labels))
