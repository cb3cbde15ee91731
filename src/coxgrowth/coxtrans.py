"""Coxeter transformations of weighted trees: the matching recursion behind
every tree characteristic polynomial, the bipartite order of a weight-3 tree
(its biadjacency block X), and spectral-radius extraction.

For a tree all products of the generators in any order are conjugate, so the
characteristic polynomial is well defined.  Edge weights m contribute the
integer 4cos^2(pi/m) in {1, 2, 3, 4} for m in {3, 4, 6, inf}, so these
characteristic polynomials have exact integer coefficients.

Both tree polynomials are sums over the weighted matching numbers m_k (over
k-edge matchings, of the products of 4cos^2(pi/m)): the adjacency polynomial
is sum_k (-1)^k m_k x^(n-2k), the Coxeter polynomial sum_k (-1)^k m_k
(1+t)^(n-2k) t^k, each built as one integer at t = 2^K and read back, by
one recursion, _tree_polynomial, over WeightedTree.rooted() with each weight
m read as a = 4cos^2(pi/m) (_rooted); char_poly_star walks a star's arms,
with no tree built.  A tree above TREE_VERTEX_BOUND vertices raises
ValueError.  The spectral radius is roots.largest_root_above_one of phi, or
exactly 1 when that gives None; alpha_from_lambda maps a +-reciprocal core
to T(a^2 - 4), T its trace polynomial (roots._trace).
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import INF, DiagramError, WeightedTree, _star_size
from .growth import polygon_delta
from .intpoly import IntPoly, _signed_digits, _taylor_shift
from .record import Record
from .roots import DEFAULT_WIDTH, RootInterval, _trace, largest_root_above_one, sqrt_interval

# 4cos^2(pi/m) for the weights with rational value; 2, no edge, is the root's
_EDGE_COEFF = {2: 0, 3: 1, 4: 2, 6: 3, INF: 4}

# The most vertices of a tree whose polynomials are built.  On 2 CPUs a `coxtrans`
# process takes about 1 s on Path:1200 and 7-10 s on Star:4,...,4 (399 arms) or
# Star:2,...,2 (1199 arms), most of it stripping cyclotomic factors: char_poly_star
# builds either star's phi in 0.7-1.0 s.
TREE_VERTEX_BOUND = 1200


def _edge_coefficient(w) -> int:
    try:
        return _EDGE_COEFF[w]
    except (KeyError, TypeError):
        raise DiagramError(
            f"weight {w!r} has irrational 4cos^2(pi/m); exact mode supports 3, 4, 6, inf"
        ) from None


def _check_vertices(n: int) -> None:
    """Raise ValueError when a tree of n vertices is above TREE_VERTEX_BOUND."""
    if n > TREE_VERTEX_BOUND:
        raise ValueError(f"{n} vertices exceed the tree vertex bound {TREE_VERTEX_BOUND}")


def _rooted(tree: WeightedTree) -> list[tuple[int, int, int]]:
    """WeightedTree.rooted with each weight m as a = 4cos^2(pi/m), the root
    as (0, -1, 0); ValueError above the bound."""
    _check_vertices(tree.n)
    return [(v, up, _edge_coefficient(w)) for v, up, w in tree.rooted()]


def _weight3_rooted(tree: WeightedTree) -> list[tuple[int, int, int]]:
    """_rooted of a tree whose edge weights are all 3; DiagramError otherwise."""
    if tree.weights_used() - {3}:
        raise DiagramError("the 0/1 adjacency of a tree requires all edge weights 3")
    return _rooted(tree)


class BipartiteOrder(Record):
    """A two-coloring of a weight-3 tree with the vertex order V1 then V2.

    The biadjacency block X has 0/1 entries, rows indexed by V1 and columns
    by V2.
    """

    tree: WeightedTree
    part1: tuple[int, ...]
    part2: tuple[int, ...]
    x_block: tuple[tuple[int, ...], ...]


def bipartite_order(tree: WeightedTree) -> BipartiteOrder:
    """V1 holds the vertices at even depth below vertex 0, V2 those at odd
    depth; within each class vertices keep index order."""
    edges = _weight3_rooted(tree)[:-1]  # (v, parent, 1), children first
    side = [0] * tree.n
    for v, up, _ in reversed(edges):
        side[v] = 1 - side[up]
    parts = tuple(tuple(v for v in range(tree.n) if side[v] == s) for s in (0, 1))
    pos = {v: i for part in parts for i, v in enumerate(part)}
    x = [[0] * len(parts[1]) for _ in parts[0]]
    for v, up, _ in edges:
        row, col = (v, up) if side[v] == 0 else (up, v)
        x[pos[row]][pos[col]] = 1
    return BipartiteOrder(tree, *parts, tuple(tuple(r) for r in x))


def _merge(ps: list[tuple[int, int]]) -> tuple[int, int]:
    """The children's pairs (M_c, w F_c) of one vertex merged as (P P', Q P' +
    P Q') into (P, Q) = (prod M_c, sum_c w F_c prod_(c' != c) M_c'), in a
    balanced tree so that many children cost few wide products."""
    while len(ps) > 1:
        ps = [(p * r, q * r + p * s) for (p, q), (r, s) in zip(ps[::2], ps[1::2])] + ps[len(ps) & ~1:]
    return ps[0]


def _tree_polynomial(rooted: list[tuple[int, int, int]], coxeter: bool) -> IntPoly:
    """The Coxeter polynomial sum_k (-1)^k m_k t^k (1+t)^(n-2k) of the rooted
    tree (_rooted), or its adjacency polynomial sum_k (-1)^k m_k t^(n-2k):
    the sum over the matchings of the products of u = t + 1 (or t) over
    unmatched vertices and w = -a t (or -a) over matched edges, a =
    4cos^2(pi/m).

    Each vertex v keeps M_v over all matchings of its subtree and F_v over
    those leaving v free, less v's u (Schwenk 1974).  It runs on integers: at
    t = 1 with w = a, which sums the terms' 1-norms and so bounds every
    coefficient, then at t = 2^K with K one bit wider, where the n + 1 signed
    base-2^K digits of the value are the coefficients."""
    unit = int(coxeter)  # u = t + unit and w = -a t^unit: shifts and adds

    def value(k: int, sign: int) -> int:  # at t = 2^k, with w = sign a 2^(k unit)
        pairs: dict[int, list] = {}  # (M_c, w F_c) of each vertex's children
        for v, up, a in rooted:
            # Two or more pairs merge into (P, Q) (_merge); then F_v = P, M_v = u P + Q.
            ps = pairs.pop(v, None)
            p, q = (1, 0) if ps is None else ps[0] if len(ps) == 1 else _merge(ps)
            full = (p << k) + unit * p + q
            if up >= 0:
                pairs.setdefault(up, []).append((full, sign * a * p << k * unit))
        return full

    k = value(0, 1).bit_length() + 1
    return IntPoly(_signed_digits(value(k, -1), k, len(rooted) + 1))


def char_poly_recursive(tree: WeightedTree) -> IntPoly:
    """Characteristic polynomial of the tree's Coxeter transformation,
    phi(t) = sum_k (-1)^k m_k t^k (1+t)^(n-2k) over the weighted matching
    numbers m_k, evaluated at one power of two and read back."""
    return _tree_polynomial(_rooted(tree), coxeter=True)


def char_poly_star(*ps: int) -> IntPoly:
    """Characteristic polynomial of the star-graph Coxeter transformation.

    _tree_polynomial's matching recursion on the star's shape, with no tree
    or edge list built; the size is checked against TREE_VERTEX_BOUND first.
    An arm of p - 1 vertices is a path: each vertex has one child, so from
    the tip the vertex step is (P, Q) -> (M, w F) = ((P << k) + P + Q,
    sign P << k), from (1, 0), and one walk to the longest arm passes every
    distinct arm length once.  The center merges its arms' pairs with
    _merge, as a branch vertex does, and M = (P << k) + P + Q.  As in
    _tree_polynomial, the pass at k = 0 with sign +1 bounds the
    coefficients, and the pass at K, one bit wider, with sign -1 is read
    back.  No arm comes from a bracket [p] or from delta's formula, so
    delta = phi compares two independent computations."""
    n = _star_size(ps)
    _check_vertices(n)
    lengths = set(ps)

    def value(k: int, sign: int) -> int:  # at t = 2^k, as in _tree_polynomial
        arm = {}  # p: (M, w F) of an arm of p - 1 vertices, at its vertex next to the center
        m, w = 1, 0
        for p in range(2, max(ps) + 1):
            m, w = (m << k) + m + w, sign * m << k
            if p in lengths:
                arm[p] = m, w
        m, w = _merge([arm[p] for p in ps])
        return (m << k) + m + w

    k = value(0, 1).bit_length() + 1
    return IntPoly(_signed_digits(value(k, -1), k, n + 1))


def verify_delta_eq_phi(*ps: int) -> bool:
    """Exact equality of the polygon denominator and the star characteristic
    polynomial.  phi comes first: its vertex bound rejects an oversized star
    before polygon_delta, whose cost is quadratic in the parameters, runs."""
    phi = char_poly_star(*ps)
    return polygon_delta(*ps) == phi


def spectral_radius_coxeter(tree: WeightedTree, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval around the spectral radius of the tree's Coxeter
    transformation.

    Eigenvalues off the unit circle come in real positive pairs r, 1/r, so
    the radius is the largest real root of the characteristic polynomial
    when that root exceeds 1, and exactly 1 otherwise.
    """
    phi = char_poly_recursive(tree)
    return spectral_radius_from_charpoly(phi, width)


def spectral_radius_from_charpoly(phi: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Largest real root when it exceeds 1 (roots.largest_root_above_one);
    otherwise the exact value 1 (finite or affine type), reported as the
    root of t - 1.

    A tree with one adjacency eigenvalue above 2, as every hyperbolic star,
    has phi with one root above 1 and every other root on the unit circle or
    inside it (alpha^2 = 2 + lambda + 1/lambda).  phi = +-rev phi, and the
    roots lambda + 1/lambda - 2 = alpha^2 - 4 of its trace polynomial T are
    real, one of them positive: T reads one variation and certifies the top
    root simple and alone above 1, with no Taylor shift of phi; the
    certificate's window is shifted only when it starts below 1, or when two
    or more eigenvalues exceed 2."""
    iv = largest_root_above_one(phi, width)
    return RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1)) if iv is None else iv


def alpha_from_lambda(lam: RootInterval | IntPoly,
                      width: Fraction = DEFAULT_WIDTH):
    """Transfer from a Coxeter-transformation radius r to the adjacency
    eigenvalue a with a^2 = 2 + r + 1/r.

    An interval argument is mapped by outward-rounded interval arithmetic; a
    polynomial p = +-rev p, p(0) != 0, to T(a^2 - 4), primitive, T its trace
    polynomial (roots._trace), whose roots are the r + 1/r - 2 over the roots
    r of p.  Any other polynomial raises ValueError.
    """
    if isinstance(lam, IntPoly):
        trace = _trace(lam.primitive())
        if trace is None:
            raise ValueError("polynomial must be +-reciprocal of degree >= 1 with p(0) != 0")
        return IntPoly([c for b in _taylor_shift(trace.coeffs, -4) for c in (b, 0)]).primitive()
    if lam.low <= 0:
        raise ValueError("interval must be strictly positive")
    # r + 1/r is monotone on each side of 1; evaluate on endpoints and
    # include the minimum value 2 when the interval straddles 1.
    cands = [lam.low + 1 / lam.low, lam.high + 1 / lam.high]
    lo, hi = min(cands), max(cands)
    if lam.low <= 1 <= lam.high:
        lo = Fraction(2)
    slo, shi = sqrt_interval(lo + 2, hi + 2, width)
    return slo, shi


def star_spectral_radius(*ps: int, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Spectral radius of the star graph's Coxeter transformation."""
    return spectral_radius_from_charpoly(char_poly_star(*ps), width)


def coxeter_tree_radius_equals_polygon_rate(ps) -> bool:
    """Theorem 2 on one polygon, as the paper proves it: the growth
    denominator delta equals the star's Coxeter polynomial phi, phi = +-rev phi,
    and phi's largest real root r, the spectral radius, exceeds 1.  Then r is
    the growth rate.  The numerator [2] prod [p_i] is a product of Phi_d, so
    cancelling removes only roots of unity, and 1/r stays a pole.  A smaller
    positive pole s would, by reciprocity, make 1/s > r a root of phi; and the
    smallest positive pole is the radius of convergence (Pringsheim).  phi =
    delta is monic, phi(1) = P (2 - k + sum 1/p_i), P = prod p_i: below 0, so a
    root above 1, on hyperbolic polygons only (the others have radius 1)."""
    phi = char_poly_star(*ps)
    return polygon_delta(*ps) == phi and phi.reversed() in (phi, -phi) and phi(1) < 0
