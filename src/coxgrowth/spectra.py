"""Exact adjacency spectra of trees (characteristic polynomials from the
matching recursion of coxtrans, taken as one integer at a power of two and
read back; eigenvalue counts at a rational point from the tree's leaves-up
pivots, which place its radius), the classification of trees with spectral
radius in (2, sqrt(2 + sqrt 5)), the weight-4 leaf replacement, and the
non-realization pipeline for the smallest tetrahedral growth rate.

Trees are rooted through coxtrans._weight3_rooted, the one check that every
weight is 3.  The counts follow Jacobs-Trevisan, "Locating the eigenvalues
of trees", Linear Algebra Appl. 434 (2011): _adjacency_radius bisects by
them, and place puts a tree's radius below, at or above a root interval, as
the non-realization sweep does for every tree.  Bounds above PROP52_BOUND
raise ValueError before any tree is built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .diagram import CoxeterDiagram, DiagramError, WeightedTree, h_graph, star_diagram
from .intpoly import IntPoly
from .numclass import strip_cyclotomic
from .record import Record
from .roots import (DEFAULT_WIDTH, RootInterval, _check_width, compare, isolate_largest_real_root,
                    root_bound, sturm_count)
from .coxtrans import _rooted, _tree_polynomial, _weight3_rooted, alpha_from_lambda
from .growth import growth_rate, steinberg_growth

# Below this Coxeter-transformation spectral radius, the radius is always
# attained on a tree with constant edge weight 3 (weight-4 leaf replacement
# plus the classification of minimal diagrams); used by the pipeline as a
# cited reduction step.
WEIGHT3_TREE_THRESHOLD = Fraction("1.35999")


def adjacency_char_poly(tree: WeightedTree) -> IntPoly:
    """det(tI - A) for the 0/1 adjacency matrix of a weight-3 tree."""
    return _tree_polynomial(_weight3_rooted(tree), coxeter=False)


def spectral_radius_adjacency(tree: WeightedTree, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval around the largest adjacency eigenvalue, on
    adjacency_char_poly(tree) itself."""
    return _adjacency_radius(_weight3_rooted(tree), width)


def _eigenvalue_counts(rooted: list[tuple[int, int, int]], x: Fraction) -> tuple[int, int]:
    """The eigenvalues of A, the adjacency matrix (entries sqrt(a)) of the
    rooted tree (coxtrans._rooted), above x and at x, with multiplicity: by
    Sylvester's law of inertia, the negative and zero pivots of xI - A taken
    leaves-up, d_v = x - sum_c a_c / d_c over v's children c.  A zero child
    pivot pairs that child with v, one negative and one positive eigenvalue,
    and cuts v off from its parent (Jacobs-Trevisan 2011).  For x = u / D,
    d_v = m_v / (D f_v), f_v the product of the children's m_c, so m_v =
    u f_v - D^2 sum_c a_c f_c prod_(c' != c) m_c', with no gcd taken."""
    u, dd = x.numerator, x.denominator**2
    # per vertex: f_v, sum_c a_c f_c / m_c as a numerator over f_v, and its
    # zero children not yet paired; the root's parent, -1, is the last slot
    slots = len(rooted) + 1
    prods, sums, zeros = [1] * slots, [0] * slots, [0] * slots
    above = 0
    for v, up, a in rooted:
        if zeros[v]:  # paired with a zero child
            above, zeros[v] = above + 1, zeros[v] - 1
            continue
        f = prods[v]
        m = u * f - dd * sums[v]
        if m == 0:
            zeros[up] += 1
            continue
        above += (m < 0) != (f < 0)
        sums[up] = sums[up] * m + prods[up] * a * f
        prods[up] *= m
    return above, sum(zeros)


def _adjacency_radius(rooted: list, width: Fraction) -> RootInterval:
    """The largest root of chi = det(tI - A) of the rooted tree, simple
    (Perron-Frobenius), on chi, in isolate_largest_real_root's cell: the
    grid (-B, B], B = root_bound(chi), bisected by _eigenvalue_counts to
    cells at most width, deeper while another eigenvalue shares the cell, or
    a midpoint with no eigenvalue above it and one at it, as a point."""
    _check_width(width)
    chi = _tree_polynomial(rooted, coxeter=False)
    hi = root_bound(chi)
    lo, above_lo = -hi, len(rooted)
    while hi - lo > width or above_lo > 1:
        mid = (lo + hi) / 2
        above, equal = _eigenvalue_counts(rooted, mid)
        if above:
            lo, above_lo = mid, above
        elif equal:
            return RootInterval(chi, mid, mid, multiplicity_free=True)
        else:
            hi = mid
    return RootInterval(chi, lo, hi, multiplicity_free=True)


def place(tree: WeightedTree, iv: RootInterval) -> int:
    """The adjacency radius of a weight-3 tree against the root of iv: -1
    below, 0 equal, 1 above.  Two eigenvalue counts decide most trees: above
    when an eigenvalue exceeds iv.high, below when none exceeds iv.low, and
    equal when none does and iv is a point with an eigenvalue at it.  A
    radius in (iv.low, iv.high] goes to roots.compare, which decides equality
    by algebra.  It takes a tree, as its callers hold trees; a weight other
    than 3 raises DiagramError."""
    rooted = _weight3_rooted(tree)
    if _eigenvalue_counts(rooted, iv.high)[0]:
        return 1
    above, at = _eigenvalue_counts(rooted, iv.low)
    if not above:
        return 0 if at and iv.low == iv.high else -1
    return compare(_adjacency_radius(rooted, Fraction(1, 10**7)), iv)


# -- the small-spectral-radius tree families -----------------------------------------


class TreeFamilyItem(Record):
    """One tree from the classification of adjacency spectral radius in
    (2, sqrt(2 + sqrt 5)), tagged by its family."""

    family: str
    params: tuple[int, ...]
    tree: WeightedTree


_SPORADIC_H = [(2, 1, 3), (3, 4, 3), (3, 5, 4), (4, 7, 4), (4, 8, 5)]


def brouwer_neumaier_enumerate(r_max: int = 25, j_max: int = 25) -> list[TreeFamilyItem]:
    """All trees of the classification within the given parameter bounds.

    Star families: (2,3,r) r>=7; (2,4,r) r>=5; (2,q,r) q>=r>=5; (3,3,r) r>=4;
    (3,4,4).  H families: (i,j,k) with j>=i+k; (3,j,k) j>=k+2; (2,j,k)
    j>=k-1; and five sporadic trees.  Items are deduplicated up to graph
    isomorphism (H(i,j,k) and H(k,j,i) coincide; families overlap).
    """
    stars: set[tuple[int, int, int]] = set()
    for r in range(7, r_max + 1):
        stars.add((2, 3, r))
    for r in range(5, r_max + 1):
        stars.add((2, 4, r))
    for q in range(5, r_max + 1):
        for r in range(5, q + 1):
            stars.add(tuple(sorted((2, q, r))))
    for r in range(4, r_max + 1):
        stars.add((3, 3, r))
    stars.add((3, 4, 4))
    hs: set[tuple[int, int, int]] = set()

    def add_h(i, j, k):
        if i < 2 or k < 2 or j < 1:
            return
        lo, hi = min(i, k), max(i, k)
        if (lo, hi) == (2, 2):
            return  # both branch vertices carry two pendants: radius exactly 2
        hs.add((lo, j, hi))

    for i in range(2, j_max + 1):
        for k in range(i, j_max + 1):
            for j in range(i + k, j_max + 1):
                add_h(i, j, k)
    for k in range(2, j_max + 1):
        for j in range(k + 2, j_max + 1):
            add_h(3, j, k)
    for k in range(2, j_max + 2):
        for j in range(max(1, k - 1), j_max + 1):
            add_h(2, j, k)
    for i, j, k in _SPORADIC_H:
        if j <= j_max:
            add_h(i, j, k)
    items = [TreeFamilyItem("star", p, star_diagram(*p)) for p in sorted(stars)]
    items += [TreeFamilyItem("h", p, h_graph(*p)) for p in sorted(hs)]
    return items


# -- weight-4 leaf replacement ----------------------------------------------------------


class LeafReplacementResult(Record):
    original: WeightedTree
    replaced: WeightedTree
    original_radius: RootInterval
    replaced_radius: RootInterval
    certified_equal: bool


def weight4_leaf_replace(tree: WeightedTree, width: Fraction = Fraction(1, 10**12)) -> LeafReplacementResult:
    """Replace the unique weight-4 leaf edge by two weight-3 leaves and
    certify that the adjacency spectral radius is unchanged.

    The two largest eigenvalues are isolated at the given width and compared
    by roots.compare: they are certified equal exactly when the gcd of the
    two characteristic polynomials has a root where the intervals overlap.
    """
    heavy = [(i, j, w) for i, j, w in tree.edge_list if w != 3]
    if len(heavy) != 1 or heavy[0][2] != 4:
        raise DiagramError("need exactly one non-3 edge, of weight 4")
    i, j, _ = heavy[0]
    deg = Counter(v for a, b, _ in tree.edge_list for v in (a, b))
    if deg[i] == 1:
        leaf, anchor = i, j
    elif deg[j] == 1:
        leaf, anchor = j, i
    else:
        raise DiagramError("the weight-4 edge must end in a leaf")
    edges = [(a, b, w) for a, b, w in tree.edge_list if (a, b) != (i, j)]
    # reuse the old leaf slot for the first new leaf, append the second
    edges += [(anchor, leaf, 3), (anchor, tree.n, 3)]
    replaced = WeightedTree(tree.n + 1, edges)
    r_in = _adjacency_radius(_rooted(tree), width)  # entries 2cos(pi/m)
    r_out = spectral_radius_adjacency(replaced, width)
    return LeafReplacementResult(tree, replaced, r_in, r_out, compare(r_in, r_out) == 0)


# -- the non-realization pipeline --------------------------------------------------------


# Table 1: the eight trees whose adjacency radii bracket alpha0, with their
# published 7-decimal radii and the side of alpha0 each radius lies on; the
# one copy, read by spectra --table1, verify table1 and the Prop 5.2 brackets.
TABLE1 = (
    ("star", (2, 4, 5), "2.0153161", "below"),
    ("star", (2, 4, 6), "2.0236833", "above"),
    ("star", (2, 5, 5), "2.0285235", "above"),
    ("star", (3, 3, 4), "2.0285235", "above"),
    ("h", (2, 9, 3), "2.0227871", "above"),
    ("h", (2, 10, 3), "2.0220988", "below"),
    ("h", (3, 20, 3), "2.0227871", "above"),
    ("h", (3, 21, 3), "2.0224205", "below"),
)

# The largest r_max or j_max that the non-realization sweep accepts.  Its trees
# grow as about r_max^2 + j_max^3: on a 2-CPU host prop52_pipeline(b, b) takes
# 0.15 s at b = 25 (1445 trees), 0.54 s at 35, 0.96 s at 40 (5642) and 2.7 s at 50 (10867).
PROP52_BOUND = 40


class Alpha0Report(Record):
    """The sweep's verdict on alpha0; bracketing holds the (family, params,
    side) of each Table 1 tree, its side of alpha0 ('below', 'at' or 'above')
    as read from the sweep, and at_value the (family, params) of every tree
    whose radius equals alpha0, each of which fails the report.  Below plus
    above equals the trees checked only when at_value is empty."""

    passed: bool
    alpha0: RootInterval
    items_checked: int
    items_below: int
    items_above: int
    monotone_families: dict
    bracketing: tuple[tuple[str, tuple[int, ...], str], ...] = ()
    at_value: tuple[tuple[str, tuple[int, ...]], ...] = ()


def _alpha0_interval(width: Fraction = Fraction(1, 10**13)) -> RootInterval:
    """The adjacency-eigenvalue transfer of the smallest tetrahedral growth rate,
    a simple root of T(a^2 - 4), of degree 10, T the trace polynomial of the
    denominator core of the computed growth series (the rate and its
    reciprocal give one root of T), so no root value is taken on trust.
    """
    f = _tetrahedral_353_growth()
    lam = growth_rate(f, Fraction(1, 10**15))
    core, _ = strip_cyclotomic(f.denominator)
    apoly = alpha_from_lambda(core)
    lo, hi = alpha_from_lambda(lam, width / 2)
    if sturm_count(apoly, lo, hi) != 1:
        raise ArithmeticError("transfer interval does not isolate a root")
    return RootInterval(apoly, lo, hi).refined(width)


@cache  # a Record, immutable, so the sweep and the pipeline share one series
def _tetrahedral_353_growth():
    return steinberg_growth(CoxeterDiagram(4, {(0, 1): 3, (1, 2): 5, (2, 3): 3}))


def _increasing(make, params) -> bool:
    """Whether the adjacency radii of make(*p), p over params, are certified
    strictly increasing in that order: each tree is placed against the
    radius of the one before it; False at the first step where it is not above."""
    trees = [make(*p) for p in params]
    return all(place(b, spectral_radius_adjacency(a, Fraction(1, 10**7))) == 1 for a, b in zip(trees, trees[1:]))


def verify_alpha0_not_tree_radius(r_max: int = 25, j_max: int = 25) -> Alpha0Report:
    """Certify that no tree in the small-radius classification attains the
    transferred tetrahedral value.

    Every enumerated tree within the bounds is placed against the value by
    place; one at the value is named in at_value and fails the report.  The
    unbounded families are closed by the Table 1 trees, each on its published
    side of the value as read from the sweep and kept as the report's
    bracketing (so H(2,j,3) and H(3,j,3) straddle it between consecutive
    parameters, and Star(2,4,r) between r = 5 and 6), and by the radii of
    H(2,j,3) for j <= 30, H(3,j,3) and Star(2,3,r), certified monotone by
    _increasing: a cited extrapolation past the bounds, flagged in the
    report.  Bounds below 25 or above PROP52_BOUND raise ValueError before
    any tree is built.
    """
    if r_max < 25 or j_max < 25:
        raise ValueError("bounds must cover at least r_max=25, j_max=25")
    if max(r_max, j_max) > PROP52_BOUND:
        raise ValueError(f"bounds must be at most r_max={PROP52_BOUND}, j_max={PROP52_BOUND}")
    alpha0 = _alpha0_interval()
    sides = {(item.family, item.params): ("below", "at", "above")[place(item.tree, alpha0) + 1]
             for item in brouwer_neumaier_enumerate(r_max, j_max)}
    tally = Counter(sides.values())
    at_value = tuple(key for key, side in sides.items() if side == "at")
    # certified monotone brackets for the unbounded families
    mono = {
        "H(2,j,3) decreasing to j<=30": _increasing(h_graph, [(2, j, 3) for j in range(30, 0, -1)]),
        "H(3,j,3) decreasing on 4..25": _increasing(h_graph, [(3, j, 3) for j in range(25, 3, -1)]),
        "Star(2,3,r) increasing on 7..25": _increasing(star_diagram, [(2, 3, r) for r in range(7, 26)]),
    }
    brackets = tuple((family, params, sides[family, params]) for family, params, _, _ in TABLE1)
    passed = (not at_value and all(mono.values())
              and brackets == tuple((f, p, side) for f, p, _, side in TABLE1))
    return Alpha0Report(passed, alpha0, len(sides), tally["below"], tally["above"], mono, brackets, at_value)


class Prop52Report(Record):
    passed: bool
    lambda0: RootInterval
    alpha0: RootInterval
    lambda_below_threshold: bool
    alpha_in_window: bool
    tree_report: Alpha0Report
    notes: tuple[str, ...]


def prop52_pipeline(r_max: int = 25, j_max: int = 25) -> Prop52Report:
    """The full non-realization argument for the smallest tetrahedral rate.

    Chains: the growth rate of the [3,5,3] simplex group, the reduction to
    weight-3 trees below the 1.35999 threshold (cited, not re-derived), the
    eigenvalue transfer, the window (2, sqrt(2+sqrt 5)), and the certified
    sweep of the small-radius tree classification.
    """
    tree_report = verify_alpha0_not_tree_radius(r_max, j_max)
    lam = growth_rate(_tetrahedral_353_growth(), Fraction(1, 10**12))
    below = lam.high < WEIGHT3_TREE_THRESHOLD
    # window: 2 < alpha0 < sqrt(2 + sqrt 5), the largest root of t^4 - 4t^2 - 1
    upper_poly = IntPoly([-1, 0, -4, 0, 1])
    upper = isolate_largest_real_root(upper_poly, Fraction(1, 10**12))
    alpha0 = tree_report.alpha0
    in_window = alpha0.low > 2 and compare(alpha0, upper) < 0
    notes = (
        "radii below 1.35999 are attained on trees with all edge weights 3 "
        "(weight-4 leaf replacement; classification of minimal diagrams, cited)",
        "families unbounded in their parameter are closed by the certified "
        "monotone brackets (extrapolation beyond the enumerated range)",
    )
    passed = below and in_window and tree_report.passed
    return Prop52Report(passed, lam, alpha0, below, in_window, tree_report, notes)
