"""Independent test oracles.

Everything here deliberately avoids the code paths it checks: word counts
come from a breadth-first walk of the geometric representation in floating
point, group orders from permutation closures, root locations from a
Durand-Kerner solver, gcds, squarefree parts and squarefree factors from the
oracle's own signed remainder sequence of textbook pseudo-remainders on
IntPoly (the package's runs on coefficient lists), isolating intervals from
plain bisection over the whole Fujiwara power-of-two grid (the isolation
that seeded root isolation must reproduce exactly), characteristic
polynomials from evaluation and Lagrange
interpolation over exact rationals, tree polynomials from explicit integer
matrices (weighted adjacency, product of reflections) and from the matching
polynomial built by dense products, unit-disk root counts
from the signature of the Schur-Cohn quadratic form, unit-circle root counts
from the trace substitution x = t + 1/t, the adjacency transfer a^2 = 2 + r +
1/r of a polynomial's roots from a resultant over Z[x], growth series from
the alternating sum over every one of the 2^n vertex subsets, cyclotomic
factors from trial division by every Phi_n with phi(n) <= deg over a totient
sieve, Perron verdicts from Schur-Cohn counts of p(ct) at 40-bit scales c just
below the top root (isolated on the reference Sturm chains), spherical types
from a component search over a copy of each subdiagram's weight table, the
domination order from every injection of vertices, with weights ordered by an
explicit key that puts infinity on top.  None of these are production paths;
they exist to cross-check the exact implementations.  A few helpers that only
tests use (Solomon's growth polynomial, the reciprocity check of a growth
series, the printing of Coxeter symbols, the count of roots in an open
interval) live here as well.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from fractions import Fraction

from coxgrowth.diagram import INF, CoxeterDiagram, DiagramError, SphericalType, WeightedTree
from coxgrowth.growth import GrowthFunction
from coxgrowth.intpoly import (
    ExactDivisionError,
    IntPoly,
    cyclotomic,
    exact_div,
    reciprocity_type,
)


# -- breadth-first word counts in the geometric representation ---------------------------


def bfs_word_counts(d: CoxeterDiagram, max_length: int) -> list[int]:
    """Number of group elements of each word length 0..max_length-1.

    Elements are the reflection matrices of the geometric representation,
    multiplied in floating point and hashed on entries rounded to 1e-6.
    Reliable only for small ranks and short lengths; a test oracle, never a
    production path.
    """
    n = d.n
    b = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                b[i][j] = 1.0
            else:
                m = d.weights[i][j]
                b[i][j] = -1.0 if m == INF else -math.cos(math.pi / m)
    gens = []
    for i in range(n):
        g = [[1.0 if a == c else 0.0 for c in range(n)] for a in range(n)]
        for c in range(n):
            g[i][c] -= 2.0 * b[i][c]
        gens.append(g)

    def matmul(x, y):
        return [[sum(x[a][k] * y[k][c] for k in range(n)) for c in range(n)] for a in range(n)]

    def key(m):
        return tuple(round(v * 10**6) for row in m for v in row)

    identity = [[1.0 if a == c else 0.0 for c in range(n)] for a in range(n)]
    seen = {key(identity)}
    frontier = [identity]
    counts = [1]
    for _ in range(1, max_length):
        nxt = []
        for m in frontier:
            for g in gens:
                cand = matmul(m, g)
                k = key(cand)
                if k not in seen:
                    seen.add(k)
                    nxt.append(cand)
        counts.append(len(nxt))
        frontier = nxt
    return counts


# -- group orders by permutation closure ---------------------------------------------------


def _mulclose(gens: list[tuple], compose) -> int:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def symmetric_group_order(n: int) -> int:
    """Order of the group generated by adjacent transpositions of n+1 points."""
    base = tuple(range(n + 1))
    gens = []
    for i in range(n):
        p = list(base)
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return _mulclose(gens, lambda a, g: tuple(a[x] for x in g))


def signed_permutation_order(n: int, even_signs_only: bool = False) -> int:
    """Order of the signed-permutation group on n letters (all or even sign changes).

    Elements are tuples of signed images of 1..n; generators are the adjacent
    transpositions plus either the last-coordinate sign flip or the
    swap-and-negate of the last two coordinates.
    """
    base = tuple(range(1, n + 1))
    gens = []
    for i in range(n - 1):
        p = list(base)
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    if even_signs_only:
        p = list(base)
        p[n - 2], p[n - 1] = -base[n - 1], -base[n - 2]
        gens.append(tuple(p))
    else:
        p = list(base)
        p[n - 1] = -base[n - 1]
        gens.append(tuple(p))

    def compose(a, g):
        # (a * g)(x): apply g's pattern to a
        out = []
        for img in g:
            v = a[abs(img) - 1]
            out.append(v if img > 0 else -v)
        return tuple(out)

    return _mulclose(gens, compose)


def dihedral_order(m: int) -> int:
    """Order of the group generated by the two standard reflections of an m-gon."""
    a = tuple((-k) % m for k in range(m))
    b = tuple((1 - k) % m for k in range(m))
    return _mulclose([a, b], lambda x, g: tuple(x[v] for v in g))


# -- gcds and squarefree parts by pseudo-remainders on IntPoly ---------------------------------


def reference_pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """The remainder of lc(b)^(deg a - deg b + 1) a by b in Z[t] (a itself
    when deg a < deg b), by the textbook loop r -> lc(b) r - lc(r) t^j b with
    the unused powers of lc(b) multiplied in at the end."""
    da, db = a.degree, b.degree
    if da < db:
        return a
    r, steps = a, 0
    while r.degree >= db:
        r = r * b.leading - b.shift(r.degree - db) * r.leading
        steps += 1
    return r * b.leading ** (da - db + 1 - steps)


def reference_signed_remainders(f0: IntPoly, f1: IntPoly) -> tuple[IntPoly, ...]:
    """The signed remainder sequence f0, f1, f2, ... with f_(k+1) the primitive
    part of -prem(f_(k-1), f_k) up to a positive factor: the pseudo-remainder
    scales by lc^k, k = deg f_(k-1) - deg f_k + 1, when k > 0, so a negative
    odd power is undone.  It ends at the last nonzero member, and keeps f1
    when it is zero."""
    chain = [f0, f1]
    while not chain[-1].is_zero():
        r = reference_pseudo_rem(chain[-2], chain[-1])
        if r.is_zero():
            break
        k = chain[-2].degree - chain[-1].degree + 1
        if not (chain[-1].leading < 0 and k > 0 and k % 2 == 1):
            r = -r
        chain.append(r.primitive() if r.leading > 0 else -r.primitive())
    return tuple(chain)


def reference_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient: the primitive part of
    the last member of the signed remainder sequence."""
    if a.is_zero() or b.is_zero():
        return (a + b).primitive()
    r0, r1 = a.primitive(), b.primitive()
    if r0.degree < r1.degree:
        r0, r1 = r1, r0
    return reference_signed_remainders(r0, r1)[-1].primitive()


def reference_squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.degree <= 0:
        return p.primitive()
    return exact_div(p.primitive(), reference_gcd(p, p.derivative())).primitive()


def reference_squarefree_factors(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """(f_i, i) with p = content * prod f_i^i, f_i squarefree, primitive and
    of positive degree, by the gcd tower p_0 = primitive part of p, p_k =
    gcd(p_(k-1), p_(k-1)'): q_k = p_(k-1) / p_k is the product of the
    factors of multiplicity at least k, and f_k = q_k / q_(k+1)."""
    towers = [p.primitive()] if p.degree > 0 else []
    while towers and towers[-1].degree > 0:
        towers.append(reference_gcd(towers[-1], towers[-1].derivative()))
    qs = [exact_div(hi, lo) for hi, lo in zip(towers, towers[1:])] + [IntPoly([1])]
    return [(exact_div(q, q_next), k) for k, (q, q_next) in enumerate(zip(qs, qs[1:]), start=1)
            if q.degree > q_next.degree]


# -- root location by a floating-point solver -----------------------------------------------


def complex_roots(p: IntPoly, iterations: int = 400) -> list[complex]:
    """All complex roots by Durand-Kerner iteration (float precision)."""
    sf = p
    n = sf.degree
    if n < 1:
        return []
    coeffs = [c / sf.leading for c in sf.coeffs]

    def value(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(iterations):
        moved = 0.0
        for i in range(n):
            num = value(zs[i])
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            step = num / den
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return zs


def root_location_counts_float(p: IntPoly, tol: float = 1e-6) -> tuple[int, int, int]:
    """(outside, on, inside) unit-circle counts of the squarefree part, by modulus."""
    sf = reference_squarefree_part(p)
    outside = on = inside = 0
    for z in complex_roots(sf):
        r = abs(z)
        if abs(r - 1.0) < tol:
            on += 1
        elif r > 1.0:
            outside += 1
        else:
            inside += 1
    return outside, on, inside


def real_root_count_bisection(p: IntPoly, a: Fraction, b: Fraction, depth: int = 20) -> int:
    """Distinct real roots in (a, b] by sign-change counting on a fine grid.

    The grid is refined adaptively; correct when no two roots or a root and
    a grid point collide below the final resolution (overwhelmingly the case
    for random integer polynomials).
    """
    sf = reference_squarefree_part(p)
    if sf.degree < 1:
        return 0
    pieces = 64
    prev = None
    for _ in range(depth):
        xs = [a + (b - a) * k / pieces for k in range(pieces + 1)]
        signs = [sf.sign_at(x) for x in xs]
        count = 0
        run = signs[0]
        for s in signs[1:]:
            if s == 0:
                count += 1  # a root exactly at a grid point in (a, b]
                run = 0
                continue
            if run != 0 and s != run:
                count += 1
            run = s
        if count == prev:
            return count
        prev = count
        pieces *= 4
    return prev


# -- reference root isolation: bisection from the whole grid --------------------------------


def _reference_sturm_chain(sf: IntPoly) -> tuple[IntPoly, ...]:
    return reference_signed_remainders(sf, sf.derivative())


def _reference_variations(chain: list[IntPoly], x: Fraction) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def reference_count(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in (a, b]: a Sturm count on the squarefree part."""
    sf = reference_squarefree_part(p)
    if sf.degree < 1:
        return 0
    chain = _reference_sturm_chain(sf)
    return _reference_variations(chain, a) - _reference_variations(chain, b)


def reference_counts_with_multiplicity(p: IntPoly, x: Fraction) -> tuple[int, int]:
    """The real roots of p above x and equal to x, counted with multiplicity,
    for p with real roots only: the roots of p_k, p_0 = p and p_(k+1) =
    gcd(p_k, p_k'), are those of p of multiplicity above k, so each p_k
    adds its distinct roots once."""
    above = equal = 0
    while p.degree >= 1:
        above += reference_count(p, x, max(x, _reference_bound(p)))
        equal += p.sign_at(x) == 0
        p = reference_gcd(p, p.derivative())
    return above, equal


def count_roots_open(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in the open interval (a, b): the Sturm count
    over (a, b], less one when b is a root."""
    return reference_count(p, a, b) - (p.sign_at(b) == 0)


def reference_root_bound(p: IntPoly) -> Fraction:
    """The least power of two B >= 2 above Fujiwara's bound
    2 max_k |a_(n-k) / a_n|^(1/k), the k = n term halved: B/2 = 2^m, m
    raised from 0 until 2^(mk) exceeds every ratio, each compared as an
    exact Fraction (no bit lengths)."""
    n = p.degree
    ratios = [Fraction(abs(p.coeffs[n - k]), abs(p.leading)) for k in range(1, n)]
    ratios.append(Fraction(abs(p.coeffs[0]), 2 * abs(p.leading)))
    half = Fraction(1)
    while any(r >= half**k for k, r in enumerate(ratios, 1)):
        half *= 2
    return 2 * half


_reference_bound = reference_root_bound  # the name the isolation oracles use


def _reference_refine(sf: IntPoly, chain, lo: Fraction, hi: Fraction,
                      width: Fraction) -> tuple[Fraction, Fraction]:
    """Sign bisection of a bracket holding one root of sf in (lo, hi]; a lower
    end that is another root stays, with the sign of sf at the first probe
    lo + (hi - lo) / 4**m that a Sturm recount shows no root in (lo, probe]."""
    s_hi = sf.sign_at(hi)
    if s_hi == 0:
        return hi, hi
    s_lo = sf.sign_at(lo)
    if s_lo == 0:
        probe = lo + (hi - lo) / 4
        while _reference_variations(chain, lo) != _reference_variations(chain, probe):
            probe = lo + (probe - lo) / 4
        s_lo = sf.sign_at(probe)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sf.sign_at(mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_root_is_simple(p: IntPoly, low: Fraction, high: Fraction) -> bool:
    """Whether the one root of p in (low, high], or at low = high, is simple in
    p: gcd(p, p') has no root there."""
    g = reference_gcd(p, p.derivative())
    if g.degree < 1:
        return True
    if low == high:
        return g.sign_at(low) != 0
    return reference_count(g, low, high) == 0


def reference_isolate_largest(p: IntPoly, width: Fraction):
    """(low, high) of the largest real root, or None when
    there is none: bisection from (-B, B], B the Fujiwara power of two of p,
    recounting both ends at every step."""
    sf = reference_squarefree_part(p)
    if sf.degree < 1:
        return None
    chain = _reference_sturm_chain(sf)
    bound = _reference_bound(p)
    if _reference_variations(chain, -bound) == _reference_variations(chain, bound):
        return None
    lo, hi = -bound, bound
    while _reference_variations(chain, lo) - _reference_variations(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _reference_variations(chain, mid) - _reference_variations(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
    lo, hi = _reference_refine(sf, chain, lo, hi, width)
    return lo, hi


def reference_isolate_smallest_positive(p: IntPoly, width: Fraction, upper: Fraction | None = None):
    """(low, high) of the smallest root in (0, upper], or None
    when there is none: bisection from (0, upper], recounting both ends at every step."""
    sf = reference_squarefree_part(p)
    if sf.degree < 1:
        return None
    chain = _reference_sturm_chain(sf)
    lo, hi = Fraction(0), upper if upper is not None else _reference_bound(sf)
    if _reference_variations(chain, lo) == _reference_variations(chain, hi):
        return None
    while _reference_variations(chain, lo) - _reference_variations(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _reference_variations(chain, lo) - _reference_variations(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    lo, hi = _reference_refine(sf, chain, lo, hi, width)
    return lo, hi


def reference_refined(p: IntPoly, low: Fraction, high: Fraction,
                      width: Fraction) -> tuple[Fraction, Fraction]:
    """The refinement of a bracket holding one root of p in (low, high]."""
    if high - low <= width:
        return low, high
    sf = reference_squarefree_part(p)
    return _reference_refine(sf, _reference_sturm_chain(sf), low, high, width)


def reference_real_root_count(p: IntPoly) -> int:
    """Distinct real roots of p: a Sturm count over the interval (-B, B]."""
    sf = reference_squarefree_part(p)
    if sf.degree < 1:
        return 0
    bound = _reference_bound(sf)
    return reference_count(sf, -bound, bound)


def reference_growth_rate(den: IntPoly, width: Fraction):
    """(low, high) of the growth rate of a series with the
    reduced denominator den; None when den has no root in (0, 1).  Counts the
    roots in (0, 1), isolates the smallest positive root R of den and the
    largest real root of the primitive part of its reversal, and checks that
    1/R meets the latter.
    """
    if den.degree < 1:
        return None
    inside = reference_count(den, Fraction(0), Fraction(1))
    if reference_squarefree_part(den).sign_at(Fraction(1)) == 0:
        inside -= 1
    if inside == 0:
        return None
    lo, hi = reference_isolate_smallest_positive(den, width / 4, Fraction(1))
    while lo <= 0:
        lo, hi = reference_refined(den, lo, hi, (hi - lo) / 4)
    rate = reference_isolate_largest(den.reversed().primitive(), width)
    if 1 / lo < rate[0] or 1 / hi > rate[1]:
        raise ArithmeticError("reciprocal pairing check failed")
    return rate


# -- characteristic polynomial by evaluation-interpolation -----------------------------------


def charpoly_interpolated(mat: list[list[int]]) -> IntPoly:
    """det(xI - M) by exact determinant evaluation at integer points plus
    Lagrange interpolation; independent of any recurrence."""
    n = len(mat)
    xs = list(range(n + 1))
    ys = [_det_int([[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)])
          for x in xs]
    coeffs = _lagrange(xs, ys)
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(int(c) for c in coeffs)


def _det_int(m: list[list[int]]) -> int:
    swaps, pivots = _bareiss(m)
    if len(pivots) < len(m):
        return 0
    return (-1) ** swaps * pivots[-1] if pivots else 1


def _bareiss(m: list[list[int]]) -> tuple[int, list[int]]:
    """(swaps, pivots) of fraction-free Bareiss elimination of an n x n
    integer matrix, which swaps a row with a nonzero entry into a vanishing
    pivot.  The pivots stop short of n when a column has no such row (the
    determinant is 0); otherwise the last is (-1)^swaps times the
    determinant.  With no swap, the k-th pivot is the k-th leading principal
    minor."""
    n = len(m)
    m = [row[:] for row in m]
    swaps, pivots, prev = 0, [], 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                break
            m[k], m[swap] = m[swap], m[k]
            swaps += 1
        pivots.append(m[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return swaps, pivots


def _poly_mul_linear(basis: list[Fraction], root: int) -> list[Fraction]:
    """Multiply an ascending coefficient list by (x - root)."""
    out = [Fraction(0)] * (len(basis) + 1)
    for k, c in enumerate(basis):
        out[k + 1] += c
        out[k] -= root * c
    return out


def _lagrange(xs, ys) -> list[Fraction]:
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j != i:
                basis = _poly_mul_linear(basis, xs[j])
                denom *= xs[i] - xs[j]
        for k, c in enumerate(basis):
            coeffs[k] += ys[i] * c / denom
    return coeffs


# -- unit-disk root counts from the Schur-Cohn signature -------------------------------------


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


def _descartes_positive(p: IntPoly) -> int:
    """Sign variations of the coefficient sequence (exact root count when all roots real)."""
    signs = [c > 0 for c in p.coeffs if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def schur_cohn_disk_counts(h: IntPoly) -> tuple[int, int]:
    """(pos, neg), the signature of the Schur-Cohn matrix of h.

    pos - neg = (#roots inside the open unit disk) - (#outside the closed
    disk).  When pos + neg = deg h, the form is nondegenerate (h has no
    circle root and no pair of roots r, s with r*s = 1), and pos and neg are
    the inside and outside counts.  By Jacobi's rule, neg is the number of
    sign changes in 1, D_1, ..., D_n, the leading principal minors, when
    none of them vanishes; otherwise both are read off the characteristic
    polynomial by Descartes' rule (exact, since a symmetric matrix has real
    eigenvalues).
    """
    n = h.degree
    if n == 0:
        return 0, 0
    mat = _schur_cohn_matrix(h)
    swaps, minors = _bareiss(mat)
    if swaps == 0 and len(minors) == n:
        signs = [True] + [d > 0 for d in minors]
        neg = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
        return n - neg, neg
    chi = charpoly_interpolated(mat)
    pos = _descartes_positive(chi)
    neg = _descartes_positive(IntPoly((-1) ** (i % 2) * c for i, c in enumerate(chi.coeffs)))
    return pos, neg


# -- unit-circle root counts by the trace substitution ---------------------------------------


def palindromic_reduce(p: IntPoly) -> IntPoly:
    """For reciprocal p of even degree 2d, the q of degree d with p(t) = t^d q(t + 1/t)."""
    if reciprocity_type(p) != "reciprocal":
        raise ValueError("palindromic reduction needs a reciprocal polynomial")
    if p.degree % 2 != 0:
        raise ValueError("palindromic reduction needs even degree")
    d = p.degree // 2
    residual = list(p.coeffs) + [0] * (2 * d + 1 - len(p.coeffs))
    q = [0] * (d + 1)
    # t^(d-k) (t^2+1)^k has top coefficient at t^(d+k); peel from the top down.
    for k in range(d, -1, -1):
        q[k] = residual[d + k]
        if q[k]:
            term = (IntPoly([1, 0, 1]) ** k).shift(d - k) * q[k]
            for j, c in enumerate(term.coeffs):
                residual[j] -= c
    if any(residual):
        raise ValueError("polynomial is not expressible in t + 1/t")
    return IntPoly(q)


def reference_unit_circle_root_count(p: IntPoly) -> int:
    """Distinct roots of p with |t| = 1, for p whose squarefree part s is
    reciprocal or anti-reciprocal.  The roots 1 and -1 are divided out of s;
    the rest is reciprocal of even degree, and x = t + 1/t takes its circle
    roots, in conjugate pairs, to the roots of palindromic_reduce in (-2, 2),
    counted on the oracle's own Sturm chain."""
    s = reference_squarefree_part(p)
    if reciprocity_type(s) == "neither":
        raise ValueError("polynomial is not reciprocal up to sign")
    count = 0
    for at in (1, -1):
        if s(at) == 0:
            s = exact_div(s, IntPoly([-at, 1]))
            count += 1
    if s.degree == 0:
        return count
    # s(+-1) != 0, so the reduced polynomial has no root at +-2
    return count + 2 * reference_count(palindromic_reduce(s), Fraction(-2), Fraction(2))


def reference_disk_counts(s: IntPoly) -> tuple[int, int, int]:
    """(inside, on, outside) root counts of squarefree s, s(0) != 0, relative
    to the unit circle.  g = gcd(s, rev s) holds the circle roots and the
    pairs z, 1/z, one root inside and one outside each; g is reciprocal up
    to sign, so its circle roots are counted by the trace substitution.  The
    Schur-Cohn form of s / g is nondegenerate and gives the rest."""
    g = reference_gcd(s, s.reversed())
    on = reference_unit_circle_root_count(g) if g.degree > 0 else 0
    inside, outside = schur_cohn_disk_counts(exact_div(s.primitive(), g))
    pairs = (g.degree - on) // 2
    return inside + pairs, on, outside + pairs


# -- weighted-tree matrices ------------------------------------------------------------------


@functools.cache
def _edge_square(m) -> int:
    """4cos^2(pi/m), an integer for m in {3, 4, 6, inf}; computed in floating point."""
    value = 4.0 if m == INF else 4 * math.cos(math.pi / m) ** 2
    if abs(value - round(value)) > 1e-9:
        raise ValueError(f"4cos^2(pi/{m}) is not an integer")
    return round(value)


def weighted_adjacency_matrix(n: int, edges) -> list[list[int]]:
    """An integer matrix with the spectrum of the tree's 2cos(pi/m) adjacency matrix.

    Each edge puts c = 4cos^2(pi/m) above the diagonal and 1 below it; on a
    tree this matrix is diagonally similar to the symmetric one with sqrt(c).
    """
    a = [[0] * n for _ in range(n)]
    for i, j, m in edges:
        i, j = min(i, j), max(i, j)
        a[i][j], a[j][i] = _edge_square(m), 1
    return a


def coxeter_element_matrix(n: int, edges) -> list[list[int]]:
    """The product s_0 s_1 ... s_(n-1) of the simple reflections of a Cartan
    matrix with a_ii = 2 and a_ij a_ji = 4cos^2(pi/m) on each edge.

    s_i fixes every simple root but the i-th coordinate: s_i(x)_i = x_i - sum_j a_ij x_j.
    """
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        i, j = min(i, j), max(i, j)
        cartan[i][j], cartan[j][i] = -_edge_square(m), -1
    product = [[int(r == c) for c in range(n)] for r in range(n)]
    for i in range(n):
        s = [[int(r == c) - (cartan[i][c] if r == i else 0) for c in range(n)] for r in range(n)]
        product = [[sum(product[r][k] * s[k][c] for k in range(n)) for c in range(n)]
                   for r in range(n)]
    return product


# -- tree polynomials by dense products of the matching polynomial ---------------------------


# (M, F) of each path hanging from its top vertex, by the squares of its
# edges from the top down; () is the single vertex
_PATH_PAIRS: dict[tuple[int, ...], tuple[IntPoly, IntPoly]] = {(): (IntPoly([1]), IntPoly([1]))}


def _reference_path_pair(squares: tuple[int, ...]) -> tuple[IntPoly, IntPoly]:
    """(M, F) of a hanging path, memoized with every shorter path below it:
    the top vertex's one child c gives M = M_c + a y F_c and F = M_c."""
    for k in range(len(squares) - 1, -1, -1):
        if squares[k:] not in _PATH_PAIRS:
            full, free = _PATH_PAIRS[squares[k + 1:]]
            _PATH_PAIRS[squares[k:]] = full + (free * squares[k]).shift(1), full
    return _PATH_PAIRS[squares]


def reference_matching_polynomial(tree: WeightedTree) -> IntPoly:
    """The weighted matching polynomial sum_k m_k y^k of a tree, by dense
    products: rooted at vertex 0, each vertex v keeps M_v over all matchings
    of its subtree and F_v over those that leave v free, and attaching a
    child c by an edge of square a gives M_v <- M_v M_c + a y F_v F_c and
    F_v <- F_v M_c.  A subtree that is a hanging path takes its pair from
    _reference_path_pair, so the arms of a star cost no products."""
    adj: list[list] = [[] for _ in range(tree.n)]
    for i, j, w in tree.edge_list:
        adj[i].append((j, w))
        adj[j].append((i, w))
    parent = [-1] * tree.n
    square = [0] * tree.n  # of the edge to the parent
    order = [0]
    for v in order:
        for u, w in adj[v]:
            if u != parent[v]:
                parent[u] = v
                square[u] = _edge_square(w)
                order.append(u)
    children: list[list[int]] = [[] for _ in range(tree.n)]
    for c in order[1:]:
        children[parent[c]].append(c)
    below: list[tuple[int, ...] | None] = [None] * tree.n  # the squares of a hanging path
    full: list[IntPoly] = [None] * tree.n
    free: list[IntPoly] = [None] * tree.n
    for v in reversed(order):
        kids = children[v]
        if not kids or len(kids) == 1 and below[kids[0]] is not None:
            below[v] = (square[kids[0]], *below[kids[0]]) if kids else ()
            continue
        for c in kids:
            if below[c] is not None:
                full[c], free[c] = _reference_path_pair(below[c])
            edge = (free[c] * square[c]).shift(1)
            if c == kids[0]:  # M_v = F_v = 1 so far
                full[v], free[v] = full[c] + edge, full[c]
            else:
                full[v], free[v] = full[v] * full[c] + free[v] * edge, free[v] * full[c]
    return full[0] if below[0] is None else _reference_path_pair(below[0])[0]


def reference_tree_polynomials(tree: WeightedTree) -> tuple[IntPoly, IntPoly]:
    """The adjacency polynomial sum_k (-1)^k m_k x^(n-2k) and the Coxeter
    polynomial sum_k (-1)^k m_k t^k (1+t)^(n-2k) from the matching numbers
    m_k, the latter expanded by the binomial theorem."""
    n, matching = tree.n, reference_matching_polynomial(tree).coeffs
    chi = [0] * (n + 1)
    phi = [0] * (n + 1)
    for k, m in enumerate(matching):
        chi[n - 2 * k] = (-1) ** k * m
        for j, binom in enumerate(_binomial_row(n - 2 * k), k):
            phi[j] += (-1) ** k * m * binom
    return IntPoly(chi), IntPoly(phi)


@functools.cache
def _binomial_row(m: int) -> tuple[int, ...]:
    """The binomial coefficients C(m, j) for j = 0..m."""
    return tuple(math.comb(m, j) for j in range(m + 1))


# -- random trees -----------------------------------------------------------------------------


def random_tree_edges(n: int, rng) -> list[tuple[int, int, int]]:
    """A uniformly random labeled tree on n vertices from a random sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1, 3)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v), 3))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b), 3))
    return edges


# -- polygon growth denominators by dense products -------------------------------------------


def reference_polygon_delta(*ps: int) -> IntPoly:
    """[2]P - kP + sum_i prod_(j!=i) [p_j] with P = prod [p_i], by dense
    products of the brackets."""
    brs = [IntPoly([1] * p) for p in ps]
    whole = IntPoly([1])
    for b in brs:
        whole = whole * b
    out = IntPoly([1, 1]) * whole - whole * len(ps)
    for i in range(len(ps)):
        partial = IntPoly([1])
        for j, b in enumerate(brs):
            if j != i:
                partial = partial * b
        out = out + partial
    return out


# -- spherical types from the subdiagram's weight table -------------------------------------


_REFERENCE_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "H3": (1, 5, 9),
    "H4": (1, 11, 19, 29),
}


def _reference_component_type(d: CoxeterDiagram, vertices: list[int]) -> SphericalType | None:
    """The catalog type of one connected component, read from a copy of its
    weight table: degrees by counting rows, the path word by walking the
    table from an end, the arms of a branch vertex likewise."""
    r = len(vertices)
    sub = [[d.weight(a, b) for b in vertices] for a in vertices]
    for row in sub:
        if any(w == INF for w in row):
            return None
    if r == 1:
        return SphericalType("A", 1, (1,))
    deg = [sum(1 for b in range(r) if b != a and sub[a][b] >= 3) for a in range(r)]
    if sum(deg) // 2 != r - 1:
        return None  # the component is connected, so there is a cycle
    if r == 2:
        m = sub[0][1]
        if m == 3:
            return SphericalType("A", 2, (1, 2))
        return SphericalType("I2", 2, (1, m - 1), m=m)
    if max(deg) > 3 or deg.count(3) > 1:
        return None
    if max(deg) == 2:
        order = [deg.index(1)]
        while len(order) < r:
            nxt = [b for b in range(r) if sub[order[-1]][b] >= 3 and (len(order) < 2 or b != order[-2])]
            order.append(nxt[0])
        word = tuple(sub[order[t]][order[t + 1]] for t in range(r - 1))
        words = {word, word[::-1]}
        if all(w == 3 for w in word):
            return SphericalType("A", r, tuple(range(1, r + 1)))
        if any(w == (4,) + (3,) * (r - 2) for w in words):
            return SphericalType("B", r, tuple(range(1, 2 * r, 2)))
        if r == 4 and word == (3, 4, 3):
            return SphericalType("F4", 4, _REFERENCE_EXPONENTS["F4"])
        if r == 3 and (5, 3) in words:
            return SphericalType("H3", 3, _REFERENCE_EXPONENTS["H3"])
        if r == 4 and any(w == (5, 3, 3) for w in words):
            return SphericalType("H4", 4, _REFERENCE_EXPONENTS["H4"])
        return None
    # exactly one branch vertex: D or E, all weights 3
    if any(sub[a][b] not in (2, 3) for a in range(r) for b in range(a + 1, r)):
        return None
    center = deg.index(3)
    arms = []
    for start in (b for b in range(r) if sub[center][b] >= 3):
        length = 1
        prev, cur = center, start
        while deg[cur] == 2:
            nxt = [b for b in range(r) if sub[cur][b] >= 3 and b != prev]
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return SphericalType("D", r, tuple(range(1, 2 * r - 2, 2)) + (r - 1,))
    if arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        fam = {2: "E6", 3: "E7", 4: "E8"}[arms[2]]
        return SphericalType(fam, r, _REFERENCE_EXPONENTS[fam])
    return None


def reference_finite_type(d: CoxeterDiagram) -> list[SphericalType] | None:
    """The component types of d by a depth-first component search over the
    weight table, in the order of their least vertices; None when a
    component is not spherical."""
    seen: set[int] = set()
    out = []
    for start in range(d.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(d.n):
                if u not in seen and (d.weights[v][u] == INF or d.weights[v][u] >= 3):
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        t = _reference_component_type(d, sorted(comp))
        if t is None:
            return None
        out.append(t)
    return out


def _reference_weight_key(w) -> tuple[int, int]:
    """A key ordering edge weights: the integers by value, infinity above them."""
    return (1, 0) if w == INF else (0, w)


def _reference_injects(d: CoxeterDiagram, e: CoxeterDiagram, related) -> bool:
    """Whether some injection f of d's vertices into e's has related(m, m') for
    the weights m of every pair {a, b} and m' of {f(a), f(b)}, by trying each."""
    return any(all(related(d.weights[a][b], e.weights[f[a]][f[b]])
                   for a, b in itertools.combinations(range(d.n), 2))
               for f in itertools.permutations(range(e.n), d.n))


def reference_dominates(d: CoxeterDiagram, e: CoxeterDiagram) -> str:
    """diagram.dominates by brute force: 'isomorphic' for a weight-preserving
    bijection, else 'less' or 'greater' for an injection that raises no weight
    in that direction, else 'incomparable'."""
    def leq(m, m2):
        return _reference_weight_key(m) <= _reference_weight_key(m2)

    if d.n == e.n and _reference_injects(d, e, lambda m, m2: m == m2):
        return "isomorphic"
    if _reference_injects(d, e, leq):
        return "less"
    if _reference_injects(e, d, leq):
        return "greater"
    return "incomparable"


# -- the Steinberg sum over every vertex subset ---------------------------------------------


def _bracket_factorization(k: int) -> dict[int, int]:
    """[k] as a multiset of cyclotomic indices: divisors d > 1 of k."""
    return {d: 1 for d in range(2, k + 1) if k % d == 0}


def _merge_factors(dst: dict[int, int], src: dict[int, int]):
    for d, e in src.items():
        dst[d] = dst.get(d, 0) + e


def _factored_poly(fac: dict[int, int]) -> IntPoly:
    out = IntPoly([1])
    for d, e in sorted(fac.items()):
        out = out * cyclotomic(d) ** e
    return out


def _solomon_factorization(types) -> dict[int, int]:
    fac: dict[int, int] = {}
    for t in types:
        for e in t.exponents:
            _merge_factors(fac, _bracket_factorization(e + 1))
    return fac


def subset_sweep_growth(d: CoxeterDiagram) -> GrowthFunction:
    """The growth series from the alternating sum, typing every one of the
    2^n vertex subsets and building each distinct cofactor of a spherical
    subset once, times the summed signs of its subsets."""
    terms: list[tuple[int, dict[int, int]]] = [(1, {})]  # the empty subset
    verts = list(range(d.n))
    for r in range(1, d.n + 1):
        for subset in itertools.combinations(verts, r):
            if any(d.weights[a][b] == INF for a, b in itertools.combinations(subset, 2)):
                continue
            types = reference_finite_type(d.subdiagram(subset))
            if types is None:
                continue
            terms.append(((-1) ** r, _solomon_factorization(types)))
    common: dict[int, int] = {}
    for _, fac in terms:
        for idx, e in fac.items():
            common[idx] = max(common.get(idx, 0), e)
    # subsets of one cofactor add their signs before it is expanded
    signs: dict[tuple[tuple[int, int], ...], int] = {}
    for sign, fac in terms:
        cofactor = tuple((idx, common[idx] - fac.get(idx, 0)) for idx in sorted(common))
        signs[cofactor] = signs.get(cofactor, 0) + sign
    num = IntPoly()
    for cofactor, sign in signs.items():
        num = num + _factored_poly(dict(cofactor)) * sign
    den = _factored_poly(common)
    # 1/f(1/t) = num/den, so f(t) = den(1/t) / num(1/t).
    dn, dd = num.degree, den.degree
    f_num, f_den = den.reversed(), num.reversed()
    if dn > dd:
        f_num = f_num.shift(dn - dd)
    elif dd > dn:
        f_den = f_den.shift(dd - dn)
    f = GrowthFunction(f_num, f_den)
    if f.denominator(0) == 0 or f(Fraction(0)) != 1:
        raise ArithmeticError("growth series must start at 1")
    return f


# -- cyclotomic factors by trial division over a totient sieve ------------------------------


def totient_sieve(n: int) -> list[int]:
    """phi(0..n) by the sieve of Euler's product formula."""
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:  # prime
            for j in range(i, n + 1, i):
                phi[j] -= phi[j] // i
    return phi


def reference_strip_cyclotomic(p: IntPoly) -> tuple[IntPoly, list[tuple[int, int]]]:
    """(core, factors) of p by trial division by every Phi_n with phi(n) <= deg,
    for every n up to 2 deg^2 + 6 (phi(n) >= sqrt(n/2))."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    core = p
    factors: list[tuple[int, int]] = []
    deg = core.degree
    if deg < 1:
        return core, factors
    limit = 2 * deg * deg + 6
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


# -- the Perron check at 40-bit scales ------------------------------------------------------


def _reference_not_above(p: IntPoly, p_bracket, q: IntPoly, q_bracket) -> bool:
    """Whether the top root of p, in p_bracket, is at most the top root of q,
    in q_bracket; a bracket (low, high] is a point when low = high.  When a
    root of gcd(p, q) lies in p's bracket, the top root of p is a real root of
    q and so at most q's top; otherwise the two differ, and both brackets are
    refined until they are disjoint."""
    (p_lo, p_hi), (q_lo, q_hi) = p_bracket, q_bracket
    g = reference_gcd(p, q)
    if g.degree > 0 and (g.sign_at(p_hi) == 0 if p_lo == p_hi else reference_count(g, p_lo, p_hi) > 0):
        return True
    while q_lo < p_hi and p_lo < q_hi:
        p_lo, p_hi = reference_refined(p, p_lo, p_hi, (p_hi - p_lo) / 2**10)
        q_lo, q_hi = reference_refined(q, q_lo, q_hi, (q_hi - q_lo) / 2**10)
    return p_hi <= q_lo


def reference_is_perron(p: IntPoly, outside: int) -> bool | None:
    """Whether the largest real root of squarefree p strictly dominates all
    other root moduli, None when undecided: Schur-Cohn counts of p(ct) at c
    the lower end of the top root's bracket, refined from 1e-12 by 2^-10 for
    up to five rounds.  Roots are counted and isolated on the reference
    Sturm chains."""
    bound = _reference_bound(p)
    above_one = reference_count(p, Fraction(1), bound)
    if outside == 1:
        # The unique root outside the closed disk is real (complex roots pair up);
        # it dominates iff it lies in (1, inf) rather than (-inf, -1).
        return above_one == 1
    if outside == 0:
        return False
    if above_one == 0:
        return False
    if p.degree > 64:
        return None
    low, high = reference_isolate_largest(p, Fraction(1, 10**12))
    # A negative root of equal or larger modulus rules the top root out; p(-t)
    # has the same Fujiwara bound as p.
    mirrored = IntPoly((-1) ** (i % 2) * c for i, c in enumerate(p.coeffs))
    if reference_count(mirrored, Fraction(1), bound) > 0:
        neg_low, neg_high = reference_isolate_largest(mirrored, Fraction(1, 10**12))
        if _reference_not_above(p, (low, high), mirrored, (neg_low, neg_high)):
            return False
    # Count roots of modulus < c for rational c just below the top root:
    # p(c t) scaled to integer coefficients, then a unit-disk count.
    for _ in range(5):
        c = low if high > low else low - Fraction(1, 10**15)
        scaled = IntPoly(coeff * c.numerator**i * c.denominator ** (p.degree - i)
                         for i, coeff in enumerate(p.coeffs)).primitive()
        pos, neg = schur_cohn_disk_counts(scaled)
        # a degenerate form (a root of scaled on the circle, or paired with its
        # inverse) leaves the inside count open
        if pos + neg == p.degree and pos >= p.degree - 1:
            return True
        if high == low:
            return None
        low, high = reference_refined(p, low, high, (high - low) / 2**10)
    return None


# -- helpers that only tests use ------------------------------------------------------------


def solomon_poly(types) -> IntPoly:
    """Growth polynomial of a finite Coxeter group: the product of the brackets
    [e + 1] over its exponents e, built from their cyclotomic factors."""
    return _factored_poly(_solomon_factorization(types))


def reciprocity_check(f: GrowthFunction, n: int) -> bool:
    """Whether f(1/t) equals f(t) for even n and -f(t) for odd n, exactly."""
    dn, dd = f.numerator.degree, f.denominator.degree
    g = GrowthFunction(f.numerator.reversed().shift(max(dd - dn, 0)),
                       f.denominator.reversed().shift(max(dn - dd, 0)))
    return g == (f if n % 2 == 0 else GrowthFunction(-f.numerator, f.denominator))


def format_coxeter_symbol(d: CoxeterDiagram) -> str:
    """Print a diagram as a linear or cyclic Coxeter symbol.

    Only diagrams whose edges (weight >= 3) form a path covering all vertices
    with weight-2 non-adjacent pairs, or a full cycle, have a symbol.
    """
    def weight(w) -> str:
        return "inf" if w == INF else str(w)

    deg = {i: [] for i in range(d.n)}
    for i, j, _ in d.edges():
        deg[i].append(j)
        deg[j].append(i)
    counts = sorted(len(v) for v in deg.values())
    edges = d.edges()
    if d.n >= 2 and len(edges) == d.n - 1 and counts[0] == 1 and counts[-1] <= 2:
        # a path; walk it from the lower-numbered endpoint
        ends = sorted(i for i in range(d.n) if len(deg[i]) == 1)
        order = [ends[0]]
        while len(order) < d.n:
            nxt = [v for v in deg[order[-1]] if len(order) < 2 or v != order[-2]]
            if not nxt:
                raise DiagramError("diagram is not a path")
            order.append(nxt[0])
        for a, b in itertools.combinations(order, 2):
            if abs(order.index(a) - order.index(b)) > 1 and d.weight(a, b) != 2:
                raise DiagramError("non-consecutive weights prevent a linear symbol")
        ws = [d.weight(order[k], order[k + 1]) for k in range(d.n - 1)]
        return "[" + ",".join(weight(w) for w in ws) + "]"
    if len(edges) == d.n and all(len(v) == 2 for v in deg.values()) and d.n >= 3:
        # a cycle; rotate/reflect to the lexicographically smallest weight word
        order = [0]
        while len(order) < d.n:
            nxt = [v for v in deg[order[-1]] if len(order) < 2 or v != order[-2]]
            order.append(nxt[0])
        for a, b in itertools.combinations(range(d.n), 2):
            if d.weight(a, b) != 2 and b not in deg[a]:
                raise DiagramError("chords prevent a cyclic symbol")
        ws = [d.weight(order[k], order[(k + 1) % d.n]) for k in range(d.n)]
        best = min(
            (seq[i:] + seq[:i] for seq in (ws, ws[::-1]) for i in range(d.n)),
            key=lambda seq: [_reference_weight_key(w) for w in seq],
        )
        parts = []
        for w, group in itertools.groupby(best):
            k = len(list(group))
            parts.append(weight(w) + (f"^{k}" if k > 1 else ""))
        return "[(" + ",".join(parts) + ")]"
    raise DiagramError("diagram has no linear or cyclic Coxeter symbol")


# -- trace forms and tree edits -------------------------------------------------------------


def expand_trace_form(q: IntPoly, d: int | None = None) -> IntPoly:
    """Inverse of palindromic_reduce: t^d q(t + 1/t) with d = deg q by default."""
    if d is None:
        d = q.degree
    if d < q.degree:
        raise ValueError("d must be at least deg q")
    out = IntPoly()
    for k, c in enumerate(q.coeffs):
        if c:
            out = out + (IntPoly([1, 0, 1]) ** k).shift(d - k) * c
    return out


def reference_alpha_eliminant(p: IntPoly) -> IntPoly:
    """A primitive polynomial in a vanishing whenever a^2 = 2 + r + 1/r for a
    root r of p, p(0) != 0, by elimination rather than the trace polynomial:
    p(s) reduced mod s^2 = x s - 1 over Z[x] to u(x) s + v(x) gives the
    resultant R(x) = Res_s(s^2 - x s + 1, p(s)) = u^2 + u v x + v^2, the
    product over both roots of s^2 - x s + 1, which vanishes exactly at x = r
    + 1/r; then x -> a^2 - 2.  For p = +-rev p each root r appears with 1/r,
    so R is a square: degree 2 deg p."""
    if p.constant == 0:
        raise ValueError("p(0) must be nonzero")
    u, v, x = IntPoly(), IntPoly(), IntPoly([0, 1])
    for c in reversed(p.coeffs):  # (u s + v) s + c, with s^2 = x s - 1
        u, v = u * x + v, -u + IntPoly([c])
    out, power, sub = IntPoly(), IntPoly([1]), IntPoly([-2, 0, 1])
    for c in (u * u + u * v * x + v * v).coeffs:
        out, power = out + power * c, power * sub
    return out.primitive()


def tree_degrees(tree: WeightedTree) -> collections.Counter:
    """The degree of each vertex of the tree, read from its edge list."""
    return collections.Counter(v for i, j, _ in tree.edge_list for v in (i, j))


def relabel_tree(tree: WeightedTree, perm: dict[int, int]) -> WeightedTree:
    """The same tree with vertex v renamed perm[v]."""
    return WeightedTree(tree.n, [(perm[i], perm[j], w) for i, j, w in tree.edge_list])


def with_edge_weight(tree: WeightedTree, i: int, j: int, w) -> WeightedTree:
    """The same tree with the weight of its edge {i, j} set to w."""
    i, j = min(i, j), max(i, j)
    if (i, j) not in {(a, b) for a, b, _ in tree.edge_list}:
        raise ValueError(f"({i}, {j}) is not an edge")
    return WeightedTree(tree.n, [(a, b, w if (a, b) == (i, j) else m) for a, b, m in tree.edge_list])
