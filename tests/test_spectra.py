import json
import math
import random
from fractions import Fraction

import pytest

from coxgrowth.diagram import INF, DiagramError, WeightedTree, h_graph, path_tree, star_diagram
from coxgrowth.intpoly import IntPoly, parse_poly
from coxgrowth.numclass import strip_cyclotomic
from coxgrowth.roots import RootInterval, compare, isolate_largest_real_root
from coxgrowth.spectra import (
    adjacency_char_poly,
    brouwer_neumaier_enumerate,
    place,
    prop52_pipeline,
    spectral_radius_adjacency,
    verify_alpha0_not_tree_radius,
    weight4_leaf_replace,
)
from coxgrowth import cli, roots, spectra
from coxgrowth.coxtrans import _rooted, _tree_polynomial, alpha_from_lambda
from coxgrowth.growth import growth_rate
from coxgrowth.spectra import _increasing

from oracles import (
    _reference_bound,
    charpoly_interpolated,
    random_tree_edges,
    reference_counts_with_multiplicity,
    reference_alpha_eliminant,
    reference_isolate_largest,
    reference_tree_polynomials,
    tree_degrees,
    with_edge_weight,
)

TABLE1 = [
    ("star", (2, 4, 5), "2.0153161"),
    ("star", (2, 4, 6), "2.0236833"),
    ("star", (2, 5, 5), "2.0285235"),
    ("star", (3, 3, 4), "2.0285235"),
    ("h", (2, 9, 3), "2.0227871"),
    ("h", (2, 10, 3), "2.0220988"),
    ("h", (3, 20, 3), "2.0227871"),
    ("h", (3, 21, 3), "2.0224205"),
]


def _build(kind, params):
    return star_diagram(*params) if kind == "star" else h_graph(*params)


def test_long_path_radius_is_two_cos_pi_over_n_plus_one():
    # the adjacency radius of the path on n vertices is 2 cos(pi / (n + 1)); the
    # float value lies within 1e-15 of it, so the interval holds it when it holds
    # the float value 1e-15 away from either end
    width = Fraction(1, 10**9)
    for n in (400, 1200):
        iv = spectral_radius_adjacency(path_tree(n), width)
        x = Fraction(2 * math.cos(math.pi / (n + 1)))
        assert iv.width <= width
        assert iv.low + Fraction(1, 10**15) < x < iv.high - Fraction(1, 10**15)


# Trees of the Prop 5.2 sweep at bound 40 where the float estimate from the
# polynomial misses the Descartes certificate's window; that of g(y), chi =
# x^e g(x^2), meets it on the _CERTIFYING ones
_DECLINING = [("h", (2, 40, 36)), ("h", (7, 38, 31)), ("h", (9, 39, 26)), ("h", (11, 40, 19)),
              ("h", (14, 31, 15)), ("h", (20, 40, 20))]
_CERTIFYING = [("star", (2, 18, 40)), ("h", (4, 38, 29)), ("h", (6, 33, 27)), ("h", (8, 40, 10))]


def _no_polynomial_root(*args):
    raise AssertionError("a tree adjacency radius took a root route of the polynomial")


def test_tree_radii_certify_by_eigenvalue_counts(monkeypatch):
    width = Fraction(1, 10**7)
    for kind, params in _DECLINING:
        chi = adjacency_char_poly(_build(kind, params))
        assert roots._descartes_largest(chi, chi.primitive(), width) is None, params
    for kind, params in _CERTIFYING:
        chi = adjacency_char_poly(_build(kind, params))
        iv = roots._descartes_largest(chi, chi.primitive(), width)
        assert (iv.low, iv.high) == reference_isolate_largest(chi, width), params
    for name in ("_descartes_largest", "_bisection_largest", "_taylor_shift"):
        monkeypatch.setattr(roots, name, _no_polynomial_root)
    for kind, params in _DECLINING + _CERTIFYING:
        tree = _build(kind, params)
        iv = spectral_radius_adjacency(tree, width)
        assert (iv.low, iv.high) == reference_isolate_largest(adjacency_char_poly(tree), width)
    iv = spectral_radius_adjacency(path_tree(100), width)
    chi = adjacency_char_poly(path_tree(100))
    assert (iv.low, iv.high) == reference_isolate_largest(chi, width)
    # the oracle takes seconds on Path:600; its radius 2 cos(pi / 601) lies
    # more than 1e-15 inside the grid cell that the oracle would give
    x = Fraction(2 * math.cos(math.pi / 601))
    iv = spectral_radius_adjacency(path_tree(600), width)
    step = 2 * _reference_bound(adjacency_char_poly(path_tree(600)))
    while step > width:
        step /= 2
    assert iv.high - iv.low == step and (iv.low / step).denominator == 1
    assert iv.low + Fraction(1, 10**15) < x < iv.high - Fraction(1, 10**15)
    heavy = with_edge_weight(star_diagram(2, 3, 7), 8, 9, 4)  # 9 ends the longest arm
    res = weight4_leaf_replace(heavy, width)
    for iv, chi in [(res.original_radius, _tree_polynomial(_rooted(heavy), coxeter=False)),
                    (res.replaced_radius, adjacency_char_poly(res.replaced))]:
        assert (iv.low, iv.high) == reference_isolate_largest(chi, width)


def test_wide_cells_holding_the_next_eigenvalue_are_bisected_further():
    # at these widths the radius's cell also holds the second eigenvalue
    for tree in (path_tree(20), star_diagram(2, 3, 7), h_graph(2, 10, 3), star_diagram(5, 5, 5, 5)):
        chi = adjacency_char_poly(tree)
        for width in (Fraction(1, 2), Fraction(1, 8), Fraction(1, 1000)):
            iv = spectral_radius_adjacency(tree, width)
            assert (iv.low, iv.high) == reference_isolate_largest(chi, width), (tree.edge_list, width)


# Trees with zero pivots at x = 0, 1 or 2: paths, D4, the affine D~4, E~6,
# E~7, E~8 and D~n
_ZERO_PIVOT_TREES = ([path_tree(n) for n in range(1, 12)]
                     + [star_diagram(*ps) for ps in [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)]]
                     + [h_graph(2, j, 2) for j in range(1, 6)])


def _check_counts(tree, xs):
    """The eigenvalue counts of the tree at each x against the oracle's dense
    polynomial; the numbers of points with an eigenvalue at x and with two."""
    chi = reference_tree_polynomials(tree)[0]
    rooted = _rooted(tree)
    hits = [0, 0]
    for x in xs:
        above, equal = spectra._eigenvalue_counts(rooted, x)
        assert (above, equal) == reference_counts_with_multiplicity(chi, x), (tree.edge_list, x)
        hits[0] += equal > 0
        hits[1] += equal > 1
    return hits


def test_eigenvalue_counts_match_the_dense_oracle():
    rng = random.Random(26)
    hits = [0, 0]
    for tree in _ZERO_PIVOT_TREES:
        xs = [Fraction(k) for k in (-2, -1, 0, 1, 2)]
        xs += [Fraction(rng.randint(-2**12, 2**12), 2**10) for _ in range(4)]
        hits = [h + k for h, k in zip(hits, _check_counts(tree, xs))]
    for _ in range(60):
        n = rng.randint(1, 12)
        edges = [(i, j, rng.choice([3, 4, 6, INF])) for i, j, _ in random_tree_edges(n, rng)]
        xs = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
        xs += [Fraction(rng.randint(-5 * 2**8, 5 * 2**8), 2**rng.randint(0, 8)) for _ in range(3)]
        hits = [h + k for h, k in zip(hits, _check_counts(WeightedTree(n, edges), xs))]
    assert hits[0] >= 40 and hits[1] >= 5, hits


@pytest.mark.parametrize("tree,radius", [(path_tree(1), 0), (path_tree(2), 1)]
                         + [(star_diagram(*ps), 2) for ps in [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)]]
                         + [(h_graph(2, 4, 2), 2)])
def test_radii_on_the_grid_are_points(tree, radius):
    width = Fraction(1, 10**9)
    iv = spectral_radius_adjacency(tree, width)
    assert (iv.low, iv.high) == (radius, radius)
    assert (iv.low, iv.high) == reference_isolate_largest(adjacency_char_poly(tree), width)


def test_adjacency_basics():
    assert adjacency_char_poly(WeightedTree(1, [])) == IntPoly([0, 1])
    assert adjacency_char_poly(path_tree(2)) == IntPoly([-1, 0, 1])
    assert adjacency_char_poly(star_diagram(2, 2, 2)) == IntPoly([0, 0, -3, 0, 1])


def test_adjacency_rejects_weights():
    with pytest.raises(DiagramError):
        adjacency_char_poly(WeightedTree(2, [(0, 1, 4)]))


def test_adjacency_matches_dense_determinant():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 10)
        tree = WeightedTree(n, random_tree_edges(n, rng))
        adj = [[0] * n for _ in range(n)]
        for i, j, _ in tree.edge_list:
            adj[i][j] = adj[j][i] = 1
        assert adjacency_char_poly(tree) == charpoly_interpolated(adj)


@pytest.mark.parametrize("kind,params,expected", TABLE1)
def test_table1_values(kind, params, expected):
    iv = spectral_radius_adjacency(_build(kind, params), Fraction(1, 10**9))
    assert abs(iv.midpoint() - Fraction(expected)) < Fraction(1, 10**6)


def test_enumeration_families():
    items = brouwer_neumaier_enumerate(8, 8)
    stars = {it.params for it in items if it.family == "star"}
    hs = {it.params for it in items if it.family == "h"}
    assert {(2, 3, 7), (2, 3, 8), (2, 4, 5), (3, 3, 4), (3, 4, 4), (2, 5, 5)} <= stars
    assert {(2, 1, 3), (3, 4, 3), (3, 5, 4), (4, 7, 4), (4, 8, 5)} <= hs
    assert (2, 4, 4) not in stars  # spectral radius 2 exactly, not in the open window
    # no duplicates up to isomorphism: params are normalized with ends sorted
    assert len(items) == len({(it.family, it.params) for it in items})
    assert all(p[0] <= p[2] for p in hs)


def test_enumerated_radii_lie_in_window():
    # every item with at most 30 vertices has radius strictly in (2, sqrt(2+sqrt5))
    upper = isolate_largest_real_root(IntPoly([-1, 0, -4, 0, 1]), Fraction(1, 10**12))
    two = IntPoly([-2, 1])
    for item in brouwer_neumaier_enumerate(10, 12):
        if item.tree.n > 30:
            continue
        iv = spectral_radius_adjacency(item.tree, Fraction(1, 10**9))
        assert iv.low > 2, item
        assert compare(iv, upper) < 0, item


def test_subgraph_monotonicity():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 12)
        tree = WeightedTree(n, random_tree_edges(n, rng))
        # grab a random subtree by deleting a leaf
        deg = tree_degrees(tree)
        leaf = next(v for v in range(n) if deg[v] == 1)
        keep = [v for v in range(n) if v != leaf]
        relabel = {v: i for i, v in enumerate(keep)}
        sub = WeightedTree(n - 1, [(relabel[i], relabel[j], w)
                                   for i, j, w in tree.edge_list
                                   if i != leaf and j != leaf])
        big = spectral_radius_adjacency(tree, Fraction(1, 10**9))
        small = spectral_radius_adjacency(sub, Fraction(1, 10**9))
        assert small.low <= big.high + Fraction(1, 10**9)


def test_h2j3_monotone():
    # the H(2,j,3) radius strictly decreases in j, so it increases along j = 30..1
    assert _increasing(h_graph, [(2, j, 3) for j in range(30, 0, -1)])


def test_a_family_that_does_not_increase_is_reported_not_raised():
    assert _increasing(h_graph, [(2, j, 3) for j in range(1, 10)]) is False


def _point(x):
    return RootInterval(IntPoly([-x, 1]), Fraction(x), Fraction(x))


@pytest.mark.parametrize("tree,iv,side", [(path_tree(2), _point(1), 0)]
                         + [(star_diagram(*ps), _point(2), 0) for ps in [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)]]
                         + [(star_diagram(2, 3, 7), _point(2), 1), (path_tree(3), _point(2), -1)]
                         + [(path_tree(2), RootInterval(IntPoly([-2, 0, 1]), Fraction(1), Fraction(2)), -1)])
def test_place_at_a_point_and_at_a_lower_end(tree, iv, side):
    # Path:2 has radius 1, and affine D4, E6, E7 and E8 have radius exactly 2:
    # no eigenvalue exceeds the point, so only the count at it tells 0 from -1;
    # a radius at the lower end of (1, 2], around sqrt 2, is below its root
    assert place(tree, iv) == side


@pytest.mark.parametrize("family,params,side", [(f, p, side) for f, p, _, side in spectra.TABLE1])
def test_place_puts_each_table1_tree_on_its_published_side(family, params, side):
    assert place(_build(family, params), spectra._alpha0_interval()) == {"below": -1, "above": 1}[side]


def test_place_rejects_a_weight_other_than_3():
    with pytest.raises(DiagramError):
        place(WeightedTree(3, [(0, 1, 3), (1, 2, 4)]), _point(2))


def test_weight4_leaf_replace_path():
    t = WeightedTree(2, [(0, 1, 4)])
    res = weight4_leaf_replace(t)
    assert res.certified_equal
    assert res.replaced.n == 3
    assert set(res.replaced.weights_used()) == {3}


@pytest.mark.parametrize("params", [(2, 4, 5), (2, 3, 7)])
def test_weight4_leaf_replace_promoted_star(params):
    s = star_diagram(*params)
    deg = tree_degrees(s)
    i, j, _ = next(e for e in s.edge_list if deg[e[0]] == 1 or deg[e[1]] == 1)
    res = weight4_leaf_replace(with_edge_weight(s, i, j, 4))
    assert res.certified_equal
    assert res.original_radius.overlaps(res.replaced_radius)


def test_weight4_leaf_replace_rejections():
    with pytest.raises(DiagramError):
        weight4_leaf_replace(path_tree(3))  # no weight-4 edge
    t = WeightedTree(3, [(0, 1, 4), (1, 2, 4)])
    with pytest.raises(DiagramError):
        weight4_leaf_replace(t)  # two heavy edges
    # weight-4 edge not at a leaf
    t2 = WeightedTree(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)])
    with pytest.raises(DiagramError):
        weight4_leaf_replace(t2)


def test_alpha0_report():
    rep = verify_alpha0_not_tree_radius(25, 25)
    assert rep.passed
    assert rep.items_checked == rep.items_below + rep.items_above
    assert abs(rep.alpha0.midpoint() - Fraction("2.0226674")) < Fraction(1, 10**6)
    assert rep.alpha0.poly.degree == 10
    assert rep.bracketing == tuple((family, params, side) for family, params, _, side in spectra.TABLE1)
    sides = {(family, params): side for family, params, side in rep.bracketing}
    assert sides[("h", (2, 9, 3))] == "above"
    assert sides[("h", (2, 10, 3))] == "below"
    assert sides[("h", (3, 20, 3))] == "above"
    assert sides[("h", (3, 21, 3))] == "below"
    assert sides[("star", (2, 4, 5))] == "below"
    with pytest.raises(ValueError):
        verify_alpha0_not_tree_radius(10, 10)
    with pytest.raises(ValueError):
        verify_alpha0_not_tree_radius(25, 41)


@pytest.mark.parametrize("width", [Fraction(1, 10**13), Fraction(1, 2 * 10**13), Fraction(1, 10**40)])
def test_alpha0_is_the_resultants_root(width):
    # T(a^2 - 4) and the resultant, its square, have one squarefree part, so
    # the interval and its refinement are the same on either
    f = spectra._tetrahedral_353_growth()
    core = strip_cyclotomic(f.denominator)[0]
    lo, hi = alpha_from_lambda(growth_rate(f, Fraction(1, 10**15)), width / 2)
    alpha0 = spectra._alpha0_interval(width)
    assert alpha0 == RootInterval(reference_alpha_eliminant(core), lo, hi).refined(width)
    assert alpha0.poly == alpha_from_lambda(core) and alpha0.poly.degree == core.degree


def test_the_pipeline_builds_the_353_series_once(monkeypatch):
    calls = []
    steinberg = spectra.steinberg_growth
    monkeypatch.setattr(spectra, "steinberg_growth", lambda d: calls.append(d) or steinberg(d))
    spectra._tetrahedral_353_growth.cache_clear()
    assert prop52_pipeline(25, 25).passed
    assert len(calls) == 1


def test_a_table1_tree_on_the_wrong_side_is_reported_not_raised(monkeypatch):
    wrong = [(f, p, r, "above" if (f, p) == ("star", (2, 4, 5)) else side)
             for f, p, r, side in spectra.TABLE1]
    monkeypatch.setattr(spectra, "TABLE1", tuple(wrong))
    rep = verify_alpha0_not_tree_radius(25, 25)
    assert rep.passed is False
    assert all(rep.monotone_families.values())


def test_a_tree_the_two_counts_leave_undecided_goes_to_compare(monkeypatch, capsys):
    # no real tree reaches this branch: a target interval is planted around a radius
    own = spectral_radius_adjacency(star_diagram(2, 4, 5), Fraction(1, 10**13))
    monkeypatch.setattr(spectra, "_alpha0_interval", lambda: own)
    # Star(2,3,10), swept before Star(2,4,5), has the same radius: the two
    # polynomials share the factor t^9 - 8t^7 + 20t^5 - 17t^3 + 3t.  Both are
    # placed at the value and fail the report, which still counts the rest.
    rep = verify_alpha0_not_tree_radius(25, 25)
    assert rep.passed is False
    assert (rep.items_checked, rep.items_below, rep.items_above) == (1445, 3, 1440)
    assert rep.at_value == (("star", (2, 3, 10)), ("star", (2, 4, 5)))
    assert prop52_pipeline(25, 25).passed is False
    assert cli.main(["verify", "prop52", "--json", "--no-meta"]) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["passed"] is False
    assert (payload["trees_checked"], payload["below_value"], payload["above_value"]) == (1445, 3, 1440)
    # the rational 2.0153161, just above that radius 2.01531606..., as a root
    c = Fraction(20153161, 10**7)
    other = RootInterval(IntPoly([-c.numerator, c.denominator]), c - Fraction(1, 10**6), c)
    monkeypatch.setattr(spectra, "_alpha0_interval", lambda: other)
    calls, compare = [], spectra.compare
    monkeypatch.setattr(spectra, "compare", lambda a, b: calls.append(a) or compare(a, b))
    rep = verify_alpha0_not_tree_radius(25, 25)
    assert any(iv.poly == adjacency_char_poly(star_diagram(2, 4, 5)) for iv in calls)
    sides = {(family, params): side for family, params, side in rep.bracketing}
    assert sides["star", (2, 4, 5)] == "below"
    assert sides["h", (2, 10, 3)] == "above"


def test_a_tree_at_the_value_fails_the_report_with_every_bracket_right(monkeypatch):
    # alpha0 planted as the radius of Star(2,3,7), the smallest in the sweep,
    # with every Table 1 side set to the one the sweep reads: only the tree
    # at the value fails the report
    own = spectral_radius_adjacency(star_diagram(2, 3, 7), Fraction(1, 10**13))
    monkeypatch.setattr(spectra, "_alpha0_interval", lambda: own)
    monkeypatch.setattr(spectra, "TABLE1", tuple((f, p, r, "above") for f, p, r, _ in spectra.TABLE1))
    rep = verify_alpha0_not_tree_radius(25, 25)
    assert all(rep.monotone_families.values())
    assert all(side == "above" for _, _, side in rep.bracketing)
    assert rep.at_value == (("star", (2, 3, 7)),) and rep.passed is False
    assert (rep.items_below, rep.items_above) == (0, 1444)


def test_prop52_pipeline():
    rep = prop52_pipeline(25, 25)
    assert rep.passed
    assert abs(rep.lambda0.midpoint() - Fraction("1.350980")) < Fraction(1, 10**6)
    assert rep.lambda_below_threshold
    assert rep.alpha_in_window
    assert rep.alpha0.low > 2
    # strictly below sqrt(2 + sqrt 5) ~ 2.058
    assert rep.alpha0.high < Fraction("2.06")
    assert rep.alpha0 == rep.tree_report.alpha0


def test_a_value_above_the_window_is_reported_not_raised(monkeypatch):
    # sqrt 5 lies above sqrt(2 + sqrt 5): the window check reads False, the
    # sweep places every tree below it, and nothing raises
    root5 = RootInterval(IntPoly([-5, 0, 1]), Fraction(2), Fraction(3)).refined(Fraction(1, 10**13))
    monkeypatch.setattr(spectra, "_alpha0_interval", lambda: root5)
    rep = prop52_pipeline(25, 25)
    assert rep.passed is False and rep.alpha_in_window is False
    assert rep.alpha0 == root5 and rep.lambda_below_threshold
    assert rep.tree_report.items_above == 0


def test_h283_core_matches_435_growth_core():
    from coxgrowth.coxtrans import char_poly_recursive
    from coxgrowth.growth import steinberg_growth
    from coxgrowth.diagram import parse_coxeter_symbol
    phi = char_poly_recursive(h_graph(2, 8, 3))
    phi_core, _ = strip_cyclotomic(phi)
    den = steinberg_growth(parse_coxeter_symbol("[4,3,5]")).denominator
    den_core, _ = strip_cyclotomic(den)
    assert phi_core == den_core == parse_poly("1,-1,1,-2,1,-2,1,-1,1")
