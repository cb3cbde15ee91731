import itertools
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from coxgrowth import coxtrans
from coxgrowth.coxtrans import (
    TREE_VERTEX_BOUND,
    _rooted,
    _tree_polynomial,
    alpha_from_lambda,
    bipartite_order,
    char_poly_recursive,
    char_poly_star,
    coxeter_tree_radius_equals_polygon_rate,
    spectral_radius_coxeter,
    spectral_radius_from_charpoly,
    star_spectral_radius,
    verify_delta_eq_phi,
)
from coxgrowth.diagram import (
    INF,
    DiagramError,
    WeightedTree,
    h_graph,
    parse_coxeter_symbol,
    path_tree,
    polygon_is_hyperbolic,
    star_diagram,
)
from coxgrowth.growth import _hyperbolic_tuples, growth_rate, polygon_delta, polygon_growth, steinberg_growth
from coxgrowth.intpoly import IntPoly, bracket, parse_poly, squarefree_part
from coxgrowth.numclass import strip_cyclotomic
from coxgrowth.roots import RootInterval, compare, isolate_largest_real_root, sqrt_interval
from coxgrowth.spectra import adjacency_char_poly, brouwer_neumaier_enumerate

from oracles import (
    charpoly_interpolated,
    coxeter_element_matrix,
    random_tree_edges,
    reference_alpha_eliminant,
    reference_count,
    reference_tree_polynomials,
    reference_root_is_simple,
    relabel_tree,
    weighted_adjacency_matrix,
)

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")
H283_CHARPOLY = parse_poly("1,1,-1,-2,-1,0,0,0,0,0,-1,-2,-1,1,1")

PAPER_X_BLOCK = (
    (1, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 0, 1),
)


def _oracle_char_poly(tree: WeightedTree) -> IntPoly:
    """det(tI - C) of the dense Coxeter element, by evaluation-interpolation."""
    return charpoly_interpolated(coxeter_element_matrix(tree.n, tree.edge_list))


def test_base_cases():
    assert char_poly_recursive(WeightedTree(1, [])) == IntPoly([1, 1])
    assert char_poly_recursive(path_tree(2)) == IntPoly([1, 1, 1])
    assert _oracle_char_poly(path_tree(2)) == IntPoly([1, 1, 1])
    assert coxeter_element_matrix(1, []) == [[-1]]
    assert _oracle_char_poly(WeightedTree(1, [])) == IntPoly([1, 1])


def test_h283_x_block_and_charpoly():
    assert bipartite_order(h_graph(2, 8, 3)).x_block == PAPER_X_BLOCK
    assert _oracle_char_poly(h_graph(2, 8, 3)) == H283_CHARPOLY
    assert char_poly_recursive(h_graph(2, 8, 3)) == H283_CHARPOLY


def test_bipartition_is_proper():
    rng = random.Random(24)
    trees = [h_graph(2, 8, 3)] + [WeightedTree(n, random_tree_edges(n, rng))
                                  for n in (1, 2, 5, 9, 12) for _ in range(4)]
    for tree in trees:
        order = bipartite_order(tree)
        assert sorted(order.part1 + order.part2) == list(range(tree.n))
        assert order.part1 == tuple(sorted(order.part1)) and 0 in order.part1
        assert order.part2 == tuple(sorted(order.part2))
        part1 = set(order.part1)
        for i, j, _ in order.tree.edge_list:
            assert (i in part1) != (j in part1)
        edges = {frozenset(e[:2]) for e in tree.edge_list}
        assert order.x_block == tuple(
            tuple(int(frozenset((v, u)) in edges) for u in order.part2) for v in order.part1)


def test_star_closed_form():
    for k in range(1, 8):
        expected = IntPoly([1, 1]) ** (k - 1) * IntPoly([1, -(k - 2), 1])
        assert char_poly_star(*([2] * k)) == expected


def test_star_single_arm_bracket():
    assert char_poly_star(3) == bracket(4)


def test_star_237_is_lehmer():
    assert char_poly_star(2, 3, 7) == LEHMER
    assert char_poly_star(2, 3, 7) == char_poly_recursive(star_diagram(2, 3, 7))


def test_star_recursion_identities():
    rng = random.Random(8)
    for _ in range(100):
        k = rng.randint(1, 4)
        ps = tuple(rng.randint(2, 8) for _ in range(k))
        p = rng.randint(4, 9)
        assert char_poly_star(*ps, p) == (IntPoly([1, 1]) * char_poly_star(*ps, p - 1)
                                          - char_poly_star(*ps, p - 2).shift(1))
        assert char_poly_star(*ps, 3) == (IntPoly([1, 1]) * char_poly_star(*ps, 2)
                                          - char_poly_star(*ps).shift(1))


def test_star_polynomial_matches_the_tree_route_on_every_fifth_delta_phi_tuple():
    # verify delta-phi at its caps: 1..6 arms, each parameter in 2..12
    stars = [ps for k in range(1, 7) for ps in itertools.combinations_with_replacement(range(2, 13), k)][::5]
    assert len(stars) == 2475
    for ps in stars:
        assert char_poly_star(*ps) == char_poly_recursive(star_diagram(*ps)), ps


def _forbid(monkeypatch, module, *names, raising=True):
    def fail(*args, **kwargs):
        raise AssertionError("called")
    for name in names:
        monkeypatch.setattr(module, name, fail, raising=raising)


@pytest.mark.parametrize("ps", [
    (7, 3, 7, 3, 2),   # repeated and unsorted arm lengths
    (2, 12, 2, 5, 12, 5, 5),
    (4,) * 399,        # Star:4,...,4, 1198 vertices
    (2,) * 1199,       # 1199 leaves, 1200 vertices
])
def test_star_polynomial_matches_the_tree_route_on_repeated_and_long_arm_lists(ps):
    assert char_poly_star(*ps) == char_poly_recursive(star_diagram(*ps))


def test_star_polynomial_builds_no_tree(monkeypatch):
    from coxgrowth import diagram, growth, intpoly
    _forbid(monkeypatch, diagram, "WeightedTree", "star_diagram")
    with monkeypatch.context() as m:
        # phi is built without delta or a bracket [p], so delta = phi compares
        # two independent computations; coxtrans imports no bracket today, and
        # one imported later would be caught too
        _forbid(m, growth, "polygon_delta")
        _forbid(m, intpoly, "bracket")
        _forbid(m, coxtrans, "polygon_delta", "_tree_polynomial")
        _forbid(m, coxtrans, "bracket", raising=False)
        assert char_poly_star(2, 3, 7) == LEHMER
        assert char_poly_star(7, 3, 7, 3, 2) == char_poly_star(2, 3, 3, 7, 7)
    assert verify_delta_eq_phi(2, 3, 7)
    assert coxeter_tree_radius_equals_polygon_rate((2, 3, 7))


def test_oversized_star_is_rejected_before_any_work(monkeypatch):
    # 1 + 1 + 2 + 999999 vertices: the bound fires on the count alone, before
    # any edge, tree or polygon_delta (quadratic in the parameters) is built
    from coxgrowth import coxtrans, diagram
    _forbid(monkeypatch, diagram, "WeightedTree", "star_diagram")
    _forbid(monkeypatch, coxtrans, "polygon_delta", "_tree_polynomial", "_merge")
    for build in (lambda: char_poly_star(2, 3, 1_000_000), lambda: verify_delta_eq_phi(2, 3, 1_000_000),
                  lambda: coxeter_tree_radius_equals_polygon_rate((2, 3, 1_000_000)),
                  lambda: star_spectral_radius(2, 3, 1_000_000), lambda: char_poly_star(2, 1200)):
        with pytest.raises(ValueError, match=r"^\d+ vertices exceed the tree vertex bound 1200$"):
            build()


def test_star_polynomial_at_the_vertex_bound_and_its_errors():
    assert char_poly_star(2, 1199) == bracket(TREE_VERTEX_BOUND + 1)  # the path A_1200
    with pytest.raises(DiagramError, match="star needs at least one arm"):
        char_poly_star()
    with pytest.raises(DiagramError, match="star parameters must be at least 2"):
        char_poly_star(1, 10**9)  # the parameters are checked before the size


@pytest.mark.parametrize("n", range(1, 7))
def test_paths_recursion_vs_determinant(n):
    tree = path_tree(n)
    assert char_poly_recursive(tree) == _oracle_char_poly(tree)


def test_weighted_trees_match_matrix_oracles():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [(i, j, rng.choice([3, 4, 6, INF])) for i, j, _ in random_tree_edges(n, rng)]
        tree = WeightedTree(n, edges)
        assert char_poly_recursive(tree) == charpoly_interpolated(coxeter_element_matrix(n, edges))
        assert (_tree_polynomial(_rooted(tree), coxeter=False)
                == charpoly_interpolated(weighted_adjacency_matrix(n, edges)))


def test_long_path_polynomials():
    tree = path_tree(600)
    assert char_poly_recursive(tree) == bracket(601)
    chi_prev, chi = IntPoly([1]), IntPoly([0, 1])
    for _ in range(599):
        chi_prev, chi = chi, chi.shift(1) - chi_prev
    assert adjacency_char_poly(tree) == chi


def _tree_polynomials(tree):
    return _tree_polynomial(_rooted(tree), coxeter=False), char_poly_recursive(tree)


def test_tree_polynomials_match_dense_oracle_on_prop52_trees():
    for item in brouwer_neumaier_enumerate(25, 25):
        chi, phi = reference_tree_polynomials(item.tree)
        assert adjacency_char_poly(item.tree) == chi, item.params
        assert char_poly_recursive(item.tree) == phi, item.params


def test_tree_polynomials_match_dense_oracle_on_hyperbolic_stars():
    for k in range(3, 7):
        for ps in itertools.combinations_with_replacement(range(2, 13), k):
            if polygon_is_hyperbolic(ps):
                tree = star_diagram(*ps)
                expected = reference_tree_polynomials(tree)
                assert (adjacency_char_poly(tree), char_poly_star(*ps)) == expected, ps


def test_tree_polynomials_match_dense_oracle_on_weighted_trees():
    rng = random.Random(15)
    for w in (4, 6, INF):
        for n in range(1, 25):
            tree = path_tree(n, w)
            assert _tree_polynomials(tree) == reference_tree_polynomials(tree), (n, w)
    for _ in range(200):
        n = rng.randint(1, 40)
        edges = [(i, j, rng.choice([3, 4, 6, INF])) for i, j, _ in random_tree_edges(n, rng)]
        tree = WeightedTree(n, edges)
        assert _tree_polynomials(tree) == reference_tree_polynomials(tree), edges


def test_tree_polynomials_of_one_vertex():
    tree = WeightedTree(1, [])
    assert reference_tree_polynomials(tree) == (IntPoly([0, 1]), IntPoly([1, 1]))
    assert _tree_polynomials(tree) == reference_tree_polynomials(tree)
    assert adjacency_char_poly(tree) == IntPoly([0, 1])


def test_tree_polynomials_refuse_a_tree_above_the_vertex_bound():
    assert TREE_VERTEX_BOUND == 1200
    tree = path_tree(TREE_VERTEX_BOUND + 1)
    with pytest.raises(ValueError, match="1201 vertices exceed the tree vertex bound 1200"):
        char_poly_recursive(tree)
    with pytest.raises(ValueError, match="1201 vertices exceed the tree vertex bound 1200"):
        adjacency_char_poly(tree)
    with pytest.raises(ValueError, match="1201 vertices exceed the tree vertex bound 1200"):
        bipartite_order(tree)


def test_recursion_order_independence():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 12)
        tree = WeightedTree(n, random_tree_edges(n, rng))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = relabel_tree(tree, {i: perm[i] for i in range(n)})
        assert char_poly_recursive(relabeled) == char_poly_recursive(tree)


def test_weight3_charpoly_reciprocal_with_unit_constant():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 12)
        tree = WeightedTree(n, random_tree_edges(n, rng))
        phi = char_poly_recursive(tree)
        assert abs(phi.constant) == 1
        assert phi.reversed() in (phi, -phi)


def test_delta_eq_phi_examples():
    assert verify_delta_eq_phi(3)
    assert verify_delta_eq_phi(2, 3, 7)
    for k in range(1, 11):
        assert verify_delta_eq_phi(*([2] * k))


def test_delta_eq_phi_sweep():
    for k in range(1, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            assert polygon_delta(*ps) == char_poly_star(*ps), ps


def test_spectral_radius_values():
    iv = spectral_radius_coxeter(star_diagram(2, 3, 7), Fraction(1, 10**9))
    assert abs(iv.midpoint() - Fraction("1.176281")) < Fraction(1, 10**6)
    iv2 = spectral_radius_coxeter(h_graph(2, 8, 3), Fraction(1, 10**9))
    assert abs(iv2.midpoint() - Fraction("1.359999")) < Fraction(1, 10**6)


def test_spectral_radius_affine_and_finite():
    # four arms of length one: characteristic polynomial (t+1)^3 (t-1)^2
    iv = spectral_radius_coxeter(star_diagram(2, 2, 2, 2))
    assert (iv.low, iv.high) == (1, 1)
    assert char_poly_star(2, 2, 2, 2) == IntPoly([1, 1]) ** 3 * IntPoly([1, -2, 1])
    # a finite type: no eigenvalue off the unit circle
    ivf = spectral_radius_coxeter(path_tree(3))
    assert (ivf.low, ivf.high) == (1, 1)


def test_weighted_edges_supported():
    for w, phi in [(4, IntPoly([1, 0, 1])), (6, IntPoly([1, -1, 1])), (INF, IntPoly([1, -2, 1]))]:
        tree = WeightedTree(2, [(0, 1, w)])
        assert char_poly_recursive(tree) == phi == _oracle_char_poly(tree)
    with pytest.raises(DiagramError):
        char_poly_recursive(WeightedTree(2, [(0, 1, 5)]))
    for weight3_only in (bipartite_order, adjacency_char_poly):
        with pytest.raises(DiagramError, match="requires all edge weights 3"):
            weight3_only(WeightedTree(2, [(0, 1, 4)]))


def test_alpha_from_lambda_unit():
    iv = RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1))
    lo, hi = alpha_from_lambda(iv)
    assert lo <= 2 <= hi and hi - lo < Fraction(1, 10**8)


def test_alpha_from_lambda_golden_square():
    # r + 1/r = 3 exactly at the larger root of r^2 - 3r + 1: alpha^2 = 5
    lam = isolate_largest_real_root(IntPoly([1, -3, 1]), Fraction(1, 10**12))
    lo, hi = alpha_from_lambda(lam, Fraction(1, 10**9))
    assert lo * lo <= 5 <= hi * hi


def test_alpha_from_lambda_tetrahedral_value():
    lam = isolate_largest_real_root(parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1"), Fraction(1, 10**12))
    lo, hi = alpha_from_lambda(lam, Fraction(1, 10**8))
    mid = (lo + hi) / 2
    assert abs(mid - Fraction("2.0226674")) < Fraction(1, 10**6)


def test_alpha_from_lambda_rejects_nonpositive():
    iv = RootInterval(IntPoly([0, 1]), Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        alpha_from_lambda(iv)


def test_alpha_eliminant_of_small_inputs():
    # the oracle's resultant for the roots 2 and 3: a^2 = 2 + 5/2 and 2 + 10/3
    assert reference_alpha_eliminant(IntPoly([-2, 1]) * IntPoly([-3, 1])) == IntPoly([9, 0, -2]) * IntPoly([16, 0, -3])


def test_alpha_eliminant_rejects_a_zero_root_and_non_reciprocal_input():
    for p in (IntPoly([0, 1]), IntPoly([0, 1, 0, 1]), IntPoly([-2, 1]) * IntPoly([-3, 1]), IntPoly([5])):
        with pytest.raises(ValueError):
            alpha_from_lambda(p)


def _growth_cores():
    """The denominator cores of [3,5,3] and of the 742 theorem-2 polygons with
    3 to 5 angles pi/p_i, p_i <= 8."""
    cores = [strip_cyclotomic(steinberg_growth(parse_coxeter_symbol("[3,5,3]")).denominator)[0]]
    for k in range(3, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            if polygon_is_hyperbolic(ps):
                cores.append(strip_cyclotomic(polygon_growth(*ps).denominator)[0])
    assert len(cores) == 743
    return cores


def test_alpha_eliminant_matches_the_resultant_on_growth_cores():
    # the resultant vanishes at both r and 1/r, so it is the square of T(a^2 - 4)
    for core in _growth_cores():
        apoly, reference = alpha_from_lambda(core), reference_alpha_eliminant(core)
        assert reference.degree == 2 * apoly.degree == 2 * core.degree, core
        assert squarefree_part(apoly) == squarefree_part(reference), core


# f rev(f) has the roots r and 1/r for each root r of f; (t - 1)^a (t + 1)^b
# adds roots at +-1, making the product anti-reciprocal or of odd degree
_reciprocal_products = st.tuples(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(IntPoly).filter(lambda f: f.constant != 0),
    st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: t[0] * t[0].reversed() * IntPoly([-1, 1]) ** t[1] * IntPoly([1, 1]) ** t[2]).filter(
    lambda p: p.degree >= 1)


@given(_reciprocal_products)
@settings(max_examples=150, deadline=None)
def test_alpha_eliminant_matches_the_resultant_on_reciprocal_products(p):
    assert squarefree_part(alpha_from_lambda(p)) == squarefree_part(reference_alpha_eliminant(p))


def test_alpha_eliminant_commutes_with_the_forward_map():
    # the eliminant's largest root agrees with sqrt(2 + r + 1/r) at the
    # largest root r of the input, within 1e-9
    for p in (parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1"), LEHMER, IntPoly([1, -3, 1])):
        lam = isolate_largest_real_root(p, Fraction(1, 10**12))
        lo = 2 + lam.low + 1 / lam.high
        hi = 2 + lam.high + 1 / lam.low
        slo, shi = sqrt_interval(min(lo, hi), max(lo, hi), Fraction(1, 10**10))
        alpha = isolate_largest_real_root(alpha_from_lambda(p), Fraction(1, 10**10))
        assert slo - Fraction(1, 10**9) <= alpha.high
        assert shi + Fraction(1, 10**9) >= alpha.low


def test_end_to_end_rate_equals_radius():
    for ps in [(2, 3, 7), (2, 3, 8), (2, 4, 5), (2, 2, 2, 3), (2, 2, 2, 2, 2)]:
        assert coxeter_tree_radius_equals_polygon_rate(ps)


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 2, 7), (2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2)])
def test_theorem2_verdict_is_false_on_spherical_and_affine_polygons(ps):
    # delta = phi is reciprocal, but its radius is the exact point 1: no
    # root above 1 to be the rate
    phi = char_poly_star(*ps)
    assert polygon_delta(*ps) == phi and phi.reversed() in (phi, -phi)
    radius = spectral_radius_from_charpoly(phi)
    assert radius.low == radius.high == 1
    assert not coxeter_tree_radius_equals_polygon_rate(ps)


def test_theorem2_verdict_matches_the_rate_of_the_growth_function():
    # the verdict isolates only phi's top root and rests on the paper's
    # proof; it must agree with the rate of the full growth function against
    # the radius
    polygons = [ps for k in range(3, 7) for ps in _hyperbolic_tuples(k, 12)][::30]
    assert len(polygons) == 410
    for ps in polygons:
        expected = compare(growth_rate(polygon_growth(*ps)), star_spectral_radius(*ps)) == 0
        assert coxeter_tree_radius_equals_polygon_rate(ps) == expected, ps


def test_theorem2_verdict_at_the_defaults_rests_on_the_sign_at_1(monkeypatch):
    # every hyperbolic polygon of verify theorem2 at its defaults (k <= 5,
    # p <= 8) is decided by phi(1) < 0, so no top root is isolated
    calls, top = [], coxtrans.largest_root_above_one
    monkeypatch.setattr(coxtrans, "largest_root_above_one", lambda p: calls.append(p) or top(p))
    polygons = [ps for k in range(3, 6) for ps in _hyperbolic_tuples(k, 8)]
    assert all(coxeter_tree_radius_equals_polygon_rate(ps) for ps in polygons)
    assert len(polygons) > 700 and calls == []


def test_phi_at_1_is_the_angle_sum_defect_and_phi_is_monic():
    # the docstring's proof: phi(1) = P (2 - k + sum 1/p_i), P = prod p_i,
    # negative exactly on hyperbolic polygons, and lc(phi) = 1
    for k in range(3, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            phi = char_poly_star(*ps)
            defect = math.prod(ps) * (2 - k + sum(Fraction(1, p) for p in ps))
            assert phi.leading == 1 and phi(1) == defect, ps
            assert (defect < 0) == polygon_is_hyperbolic(ps), ps


def test_end_to_end_shares_core():
    for ps in [(2, 3, 7), (2, 4, 5), (2, 2, 2, 3)]:
        den_core, _ = strip_cyclotomic(polygon_growth(*ps).denominator)
        phi_core, _ = strip_cyclotomic(char_poly_star(*ps))
        assert den_core == phi_core


def _radius_by_sturm_count(phi, width):
    """The pre-check that spectral_radius_from_charpoly made before its
    Descartes count: a Sturm count of the roots above 1, the oracle's."""
    from coxgrowth.roots import isolate_largest_real_root, root_bound
    if reference_count(phi, Fraction(1), root_bound(phi)) == 0:
        return RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1))
    return isolate_largest_real_root(phi, width)


_NEAR_ONE = IntPoly([-(10**12 + 1), 10**12])  # the root 1 + 10^-12


@pytest.mark.parametrize("phi, straddles", [
    (_NEAR_ONE * IntPoly([2, 1]), True),            # simple top root just above 1
    (_NEAR_ONE ** 2 * IntPoly([2, 1]), True),       # double top root just above 1
    (IntPoly([-1, 1]) * IntPoly([2, 1]), True),     # the top root 1, not a grid point
    # the top root 1 below the pair 2 +- i, which gives two variations at 1
    (IntPoly([-1, 1]) * IntPoly([5, -4, 1]), True),
    (IntPoly([-1, 1]) ** 2 * IntPoly([5, -4, 1]), True),
    (IntPoly([5, -4, 1]), False),                   # no real root, two variations at 1
    (char_poly_star(2, 3, 5), False),               # finite type: every root on the circle
    (char_poly_star(2, 3, 6), True),                # affine type: the double root 1
    (char_poly_star(2, 3, 7), False),
])
def test_spectral_radius_from_charpoly_matches_the_sturm_pre_check(phi, straddles):
    from coxgrowth.coxtrans import spectral_radius_from_charpoly
    from coxgrowth.roots import NoRealRootError, isolate_largest_real_root
    # 1 is a grid point once cells are at most 1 wide, so the cells 2 wide
    # are the ones that hold it strictly inside, where largest_root_above_one
    # reads the sign of phi(1) or, for a multiple root, a Sturm count
    try:
        iv = isolate_largest_real_root(phi, Fraction(2))
        assert (iv.low < 1 < iv.high) == straddles
    except NoRealRootError:
        assert not straddles
    for width in (Fraction(1, 10**9), Fraction(2)):
        got = spectral_radius_from_charpoly(phi, width)
        expected = _radius_by_sturm_count(phi, width)
        assert (got.poly, got.low, got.high) == (expected.poly, expected.low, expected.high)
        assert reference_root_is_simple(got.poly, got.low, got.high)
