"""Coxeter transformations of weighted trees: the bipartite matrix and its
characteristic polynomial by block determinant, the matching recursion
behind every tree characteristic polynomial, and spectral-radius extraction.

For a tree all products of the generators in any order are conjugate, so the
characteristic polynomial is well defined; the bipartite ordering makes it
computable from the biadjacency block X alone.  Edge weights m contribute
the integer 4cos^2(pi/m) in {1, 2, 3, 4} for m in {3, 4, 6, inf}, so these
characteristic polynomials have exact integer coefficients.

Both tree polynomials are sums over the weighted matching numbers m_k (over
k-edge matchings, of the products of 4cos^2(pi/m)): the adjacency polynomial
is sum_k (-1)^k m_k x^(n-2k), the Coxeter polynomial sum_k (-1)^k m_k
(1+t)^(n-2k) t^k, each built as one integer at t = 2^K and read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import INF, DiagramError, WeightedTree, star_diagram
from .growth import _bracket_factorization, _reduced_growth, growth_rate, polygon_delta
from .intpoly import IntPoly, _signed_digits, resultant_eliminate
from .roots import DEFAULT_WIDTH, RootInterval, compare, largest_root_above_one, sqrt_interval

# 4cos^2(pi/m) for the weights with rational value
_EDGE_COEFF = {3: 1, 4: 2, 6: 3, INF: 4}

# The most vertices of a tree whose polynomials are built.  The cost grows as
# about n^3: a `coxtrans` process takes 1-2 s on Path:1200 or a 400-arm star.
TREE_VERTEX_BOUND = 1200


def _edge_coefficient(w) -> int:
    try:
        return _EDGE_COEFF[w]
    except (KeyError, TypeError):
        raise DiagramError(
            f"weight {w!r} has irrational 4cos^2(pi/m); exact mode supports 3, 4, 6, inf"
        ) from None


@dataclass(frozen=True)
class BipartiteOrder:
    """A two-coloring of a tree with the vertex order V1 then V2.

    The biadjacency block X has rows indexed by V1 and columns by V2; for
    weight-3 trees its entries are 0/1.
    """

    tree: WeightedTree
    part1: tuple[int, ...]
    part2: tuple[int, ...]
    x_block: tuple[tuple[int, ...], ...]


def bipartite_order(tree: WeightedTree) -> BipartiteOrder:
    """Two-color from vertex 0; within each class vertices keep index order."""
    if tree.weights_used() - {3}:
        raise DiagramError("the 0/1 biadjacency block requires all weights 3")
    adj = tree.adjacency()
    color = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in adj[v]:
            if u not in color:
                color[u] = 1 - color[v]
                stack.append(u)
    part1 = tuple(v for v in range(tree.n) if color[v] == 0)
    part2 = tuple(v for v in range(tree.n) if color[v] == 1)
    pos2 = {v: c for c, v in enumerate(part2)}
    x = [[0] * len(part2) for _ in part1]
    for r, v in enumerate(part1):
        for u, _ in adj[v]:
            x[r][pos2[u]] = 1
    return BipartiteOrder(tree, part1, part2, tuple(tuple(row) for row in x))


def charpoly_int_matrix(mat: list[list[int]]) -> IntPoly:
    """Characteristic polynomial det(xI - M) of a square integer matrix, exactly.

    Faddeev-LeVerrier recurrence; every division is exact for integer input.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
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


@dataclass(frozen=True)
class BipartiteCoxeterResult:
    order: BipartiteOrder
    matrix: tuple[tuple[int, ...], ...]  # the Coxeter transformation itself
    char_poly: IntPoly


def bipartite_coxeter_matrix(tree: WeightedTree) -> BipartiteCoxeterResult:
    """The bipartite Coxeter transformation of a weight-3 tree and its
    characteristic polynomial, via the two-block determinant reduction.

    With X the biadjacency block and G = X X^T (or X^T X, whichever is
    smaller), det(tI - C) = (t+1)^|n1 - n2| * t^m * g((t+1)^2 / t) for
    g = det(xI - G) of degree m.
    """
    order = bipartite_order(tree)
    n1, n2 = len(order.part1), len(order.part2)
    x = order.x_block
    # C = -(I X; 0 I)(I 0; -X^T I) assembled explicitly
    n = n1 + n2
    c = [[0] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            c[i][j] = -(1 if i == j else 0) + sum(x[i][k] * x[j][k] for k in range(n2))
        for k in range(n2):
            c[i][n1 + k] = -x[i][k]
    for k in range(n2):
        for j in range(n1):
            c[n1 + k][j] = x[j][k]
        c[n1 + k][n1 + k] = -1
    # Gram block on the smaller side
    if n1 <= n2:
        g = [[sum(x[i][k] * x[j][k] for k in range(n2)) for j in range(n1)] for i in range(n1)]
        m, extra = n1, n2 - n1
    else:
        g = [[sum(x[i][a] * x[i][b] for i in range(n1)) for b in range(n2)] for a in range(n2)]
        m, extra = n2, n1 - n2
    gpoly = charpoly_int_matrix(g)
    acc = IntPoly()
    tp1 = IntPoly([1, 1])
    for i, coeff in enumerate(gpoly.coeffs):
        if coeff:
            acc = acc + (tp1 ** (2 * i)).shift(m - i) * coeff
    phi = (tp1 ** extra) * acc
    return BipartiteCoxeterResult(order, tuple(tuple(row) for row in c), phi)


def _check_vertices(n: int) -> None:
    """Raise ValueError when a tree of n vertices is above TREE_VERTEX_BOUND."""
    if n > TREE_VERTEX_BOUND:
        raise ValueError(f"{n} vertices exceed the tree vertex bound {TREE_VERTEX_BOUND}")


def _rooted(tree: WeightedTree) -> list[tuple[int, int, int]]:
    """The tree rooted at 0 as (v, parent, a = 4cos^2(pi/m) of the edge to it),
    children first, the root as (0, -1, 0); ValueError above the bound."""
    _check_vertices(tree.n)
    adj = tree.adjacency()
    order = [(0, -1, 0)]
    for v, up, _ in order:  # breadth-first; the list grows while it is walked
        for c, w in adj[v]:
            if c != up:
                order.append((c, v, _edge_coefficient(w)))
    return order[::-1]


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
            # The pairs merge as (P P', Q P' + P Q'), in a balanced tree so that
            # many children cost few wide products; then F_v = P, M_v = u P + Q.
            ps = pairs.pop(v, [])
            while len(ps) > 1:
                ps = [(p * r, q * r + p * s) for (p, q), (r, s) in zip(ps[::2], ps[1::2])
                      ] + ps[len(ps) & ~1:]
            p, q = ps[0] if ps else (1, 0)
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
    """Characteristic polynomial of the star-graph Coxeter transformation."""
    return char_poly_recursive(star_diagram(*ps))


def verify_delta_eq_phi(*ps: int) -> bool:
    """Exact equality of the polygon denominator and the star characteristic polynomial."""
    return polygon_delta(*ps) == char_poly_star(*ps)


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
    root of t - 1."""
    iv = largest_root_above_one(phi, width)
    return RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1)) if iv is None else iv


def alpha_from_lambda(lam: RootInterval | IntPoly,
                      width: Fraction = DEFAULT_WIDTH):
    """Transfer from a Coxeter-transformation radius r to the adjacency
    eigenvalue a with a^2 = 2 + r + 1/r.

    An interval argument is mapped by outward-rounded interval arithmetic;
    a polynomial argument is mapped by resultant elimination.
    """
    if isinstance(lam, IntPoly):
        return resultant_eliminate(lam)
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
    """Theorem 2 on one polygon: its growth denominator equals the star
    graph's Coxeter polynomial phi, and its growth rate (from phi, once
    proven equal) is certified equal to the spectral radius read from phi."""
    phi = char_poly_star(*ps)
    if polygon_delta(*ps) != phi:
        return False
    f = _reduced_growth(_bracket_factorization((2, *ps)), phi)
    return compare(growth_rate(f), spectral_radius_from_charpoly(phi)) == 0
