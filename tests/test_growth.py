import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import diagram, growth, roots
from coxgrowth.diagram import (
    INF,
    CoxeterDiagram,
    _connected_spherical_sets,
    _edge_masks,
    parse_coxeter_symbol,
    path_tree,
    polygon_diagram,
    polygon_is_hyperbolic,
    star_diagram,
)
from coxgrowth.growth import (
    GrowthFunction,
    NotExponentialError,
    _hyperbolic_tuples,
    _reduced_growth,
    growth_rate,
    help_numerator,
    monotonicity_check,
    polygon_delta,
    polygon_growth,
    polygon_rate_compare,
    positive_on,
    series_coefficients,
    steinberg_growth,
    verify_second_minimal_polygon,
)
from coxgrowth.intpoly import IntPoly, _signed_digits, bracket, cyclotomic, exact_div, parse_poly
from coxgrowth.numclass import strip_cyclotomic
from coxgrowth.roots import compare, isolate_largest_real_root
from coxgrowth.diagram import finite_type_recognize
from coxgrowth.spectra import adjacency_char_poly

from oracles import (
    bfs_word_counts,
    dihedral_order,
    reciprocity_check,
    reference_count,
    reference_finite_type,
    reference_growth_rate,
    reference_polygon_delta,
    reference_root_is_simple,
    solomon_poly,
    subset_sweep_growth,
    symmetric_group_order,
)
from test_diagram import _PLANTED, _relabelled_union, _with_pendant

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")
MIN_38 = parse_poly("1,0,0,-1,0,-1,0,-1,0,0,1")
MIN_353 = parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1")
CORE_435 = parse_poly("1,-1,1,-2,1,-2,1,-1,1")


def sym(text):
    return parse_coxeter_symbol(text)


# -- growth function normalization -------------------------------------------------------


def test_growth_function_reduces():
    f = GrowthFunction(IntPoly([1, 1]) * IntPoly([2, 2]), IntPoly([1, 1]) * IntPoly([0, 4]))
    assert f.numerator == IntPoly([1, 1])
    assert f.denominator == IntPoly([0, 2])


def test_growth_function_sign_normalization():
    f = GrowthFunction(IntPoly([1]), IntPoly([1, -1]))
    assert f.denominator.leading > 0
    assert f.numerator == IntPoly([-1])


def test_zero_growth_function_is_zero_over_one():
    zero = GrowthFunction(IntPoly(), IntPoly([1]))
    other = GrowthFunction(IntPoly(), IntPoly([2, -3, 5]))
    assert other == zero
    assert hash(other) == hash(zero)
    assert other.denominator == IntPoly([1])


# -- reduction by cyclotomic division ---------------------------------------------------


PHI2, PHI3 = cyclotomic(2), cyclotomic(3)


@pytest.mark.parametrize("exponents, den", [
    # Phi_2 divides den three times, the numerator once
    ({2: 1, 3: 1}, PHI2 ** 3 * IntPoly([1, -3, 1])),
    # negative leading coefficient, and Phi_3 in the numerator only
    ({2: 1, 3: 1}, PHI2 ** 3 * IntPoly([1, 1, -1])),
    # more copies in the numerator than den holds
    ({2: 3, 3: 2}, PHI2 * PHI3 * IntPoly([1, -3, 1])),
])
def test_reduction_by_cyclotomic_division_matches_the_gcd(exponents, den):
    num = IntPoly([1])
    for d, e in exponents.items():
        num = num * cyclotomic(d) ** e
    assert _reduced_growth(exponents, den) == GrowthFunction(num, den)


def test_reduction_by_cyclotomic_division_checks_the_constant_term():
    with pytest.raises(ArithmeticError):
        _reduced_growth({2: 1}, IntPoly([2, 1]))


def test_reduction_matches_the_gcd_on_theorem2_polygons_and_steinberg_inputs(monkeypatch):
    # every 10th polygon at k <= 6, p <= 12, and the denominators that
    # steinberg_growth reduces for the acceptance symbols
    polygons = [ps for k in range(3, 7) for ps in growth._hyperbolic_tuples(k, 12)][::10]
    inputs = [(growth._bracket_factorization((2, *ps)), polygon_delta(*ps)) for ps in polygons]
    reduce = growth._reduced_growth
    monkeypatch.setattr(growth, "_reduced_growth", lambda e, d: inputs.append((e, d)) or reduce(e, d))
    for symbol in ("[3,8]", "[3,5,3]", "[4,3,5]", "[8,3,4,3,8]"):
        steinberg_growth(parse_coxeter_symbol(symbol))
    assert len(inputs) == len(polygons) + 4 == 1232
    for exponents, den in inputs:
        num = IntPoly([1])
        for d, e in exponents.items():
            num = num * cyclotomic(d) ** e
        assert reduce(exponents, den) == GrowthFunction(num, den), (exponents, den)


def test_polygon_growth_matches_the_gcd_reduction():
    for k in range(3, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            if not polygon_is_hyperbolic(ps):
                continue
            num = bracket(2)
            for p in ps:
                num = num * bracket(p)
            f = polygon_growth(*ps)
            assert f == GrowthFunction(num, reference_polygon_delta(*ps)), ps
            assert f.denominator.leading > 0


# -- Solomon polynomials ------------------------------------------------------------------


def test_solomon_dihedral():
    types = finite_type_recognize(sym("[7]"))
    assert solomon_poly(types) == bracket(2) * bracket(7)


def test_solomon_a1():
    types = finite_type_recognize(CoxeterDiagram(1))
    assert solomon_poly(types) == bracket(2)


def test_solomon_h3_value():
    types = finite_type_recognize(sym("[5,3]"))
    sp = solomon_poly(types)
    assert sp == bracket(2) * bracket(6) * bracket(10)
    assert sp(1) == 120  # the group order


def test_solomon_matches_group_order_oracles():
    for n in range(1, 6):
        d = sym("[" + ",".join(["3"] * (n - 1)) + "]") if n > 1 else CoxeterDiagram(1)
        assert solomon_poly(finite_type_recognize(d))(1) == symmetric_group_order(n)
    for m in range(3, 13):
        assert solomon_poly(finite_type_recognize(sym(f"[{m}]")))(1) == dihedral_order(m)


# -- the Steinberg growth series ----------------------------------------------------------


@st.composite
def _diagrams(draw, max_rank=9):
    """Rank 1 to max_rank.  Each pair's weight comes from a drawn palette, so
    edgeless, sparse and disconnected diagrams occur as well as INF-dense ones."""
    n = draw(st.integers(1, max_rank))
    palette = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, INF]), min_size=1, max_size=6))
    edges = {}
    for i, j in itertools.combinations(range(n), 2):
        w = draw(st.sampled_from(palette))
        if w != 2:
            edges[(i, j)] = w
    return CoxeterDiagram(n, edges)


@given(_diagrams())
@settings(max_examples=200, deadline=None)
def test_steinberg_matches_subset_sweep(d):
    assert steinberg_growth(d) == subset_sweep_growth(d)


@given(_diagrams(max_rank=10), _diagrams(max_rank=10))
@settings(max_examples=60, deadline=None)
def test_steinberg_of_a_disjoint_union_is_the_product(d1, d2):
    # W(d1 + d2) = W(d1) x W(d2), so its growth series is the product; the
    # union reaches the rank bound 20, beyond the subset sweep, which checks
    # the factors themselves
    f, g = steinberg_growth(d1), steinberg_growth(d2)
    assert steinberg_growth(_relabelled_union([d1, d2], range(d1.n + d2.n))) == GrowthFunction(
        f.numerator * g.numerator, f.denominator * g.denominator)


def _shape_vertices(shape):
    """The vertices of a grow-step shape: a path's in order, or a branch's
    centre and then its arms."""
    kind, first, second = shape
    return first if kind == "path" else (first, *itertools.chain.from_iterable(second))


def _grow_steps(run, d):
    """run(d) with each grow step recorded as (parent shape, u, v, grown
    mask, result), u the one neighbour of v in the set, or None when v has
    two there or an INF edge into it; and run's value."""
    steps, grow = [], diagram._grow

    def recorded(weights, nbr, inf, shape, mask, v):
        got = grow(weights, nbr, inf, shape, mask, v)
        assert sum(1 << x for x in _shape_vertices(shape)) == mask, (shape, mask)
        touch = nbr[v] & mask
        u = touch.bit_length() - 1 if touch.bit_count() == 1 and not inf[v] & mask else None
        steps.append((shape, u, v, mask | 1 << v, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "_grow", recorded)
        return steps, run(d)


@given(_diagrams())
@settings(max_examples=100, deadline=None)
def test_connected_sets_type_no_grown_set_with_a_cycle_or_an_inf_pair(d):
    steps, f = _grow_steps(steinberg_growth, d)
    assert f == subset_sweep_growth(d)
    masks = [mask for _, _, _, mask, _ in steps]
    assert len(set(masks)) == len(masks)
    nbr, inf = _edge_masks(d)
    for mask in (mask for _, _, _, mask, got in steps if got is not None):
        verts = [v for v in range(d.n) if mask >> v & 1]
        assert not any(inf[v] & mask for v in verts)
        assert sum((nbr[v] & mask).bit_count() for v in verts) // 2 == len(verts) - 1


def _step_case(shape, u):
    """Where the grow step joins the new leaf to a set of the given shape."""
    kind, first, second = shape
    if u is None:
        return "cycle or INF pair"
    if kind == "path":
        return "path end" if u in (first[0], first[-1]) else "path inner"
    if u == first:
        return "branch centre"
    return "arm tip" if any(arm[-1] == u for arm in second) else "arm inner"


def _check_grow_steps(d):
    """Check every grow step of _connected_spherical_sets(d) against the
    weight-table oracle on the grown set's subdiagram, and each grown shape
    against the diagram; return the steps."""
    steps, conn = _grow_steps(_connected_spherical_sets, d)
    for shape, u, v, mask, got in steps:
        want = reference_finite_type(d.subdiagram(tuple(x for x in range(d.n) if mask >> x & 1)))
        assert (got and got[1]) == (want and want[0]), (d, shape, u, v)
        if got is None:
            continue
        (kind, first, second), t = got
        verts = _shape_vertices(got[0])
        assert len(verts) == mask.bit_count() == t.rank and sum(1 << x for x in verts) == mask
        if kind == "path":
            assert second == tuple(d.weights[a][b] for a, b in zip(first, first[1:]))
        else:
            assert len(second) == 3
            for arm in second:
                walk = (first, *arm)
                assert all(d.weights[a][b] == 3 for a, b in zip(walk, walk[1:]))
    grown = {mask for _, _, _, mask, got in steps if got is not None}
    assert set(conn) == grown | {1 << v for v in range(d.n)}
    return steps


# A3 with a weight-4 pendant at its middle vertex (no D4), D4 and D4 with a
# leaf at its centre, E6 with a leaf at an inner arm vertex, D5 with a leaf at
# the inner vertex of its long arm, and the path [3,4,3,3] read from its far end
_GROW_CASES = [
    CoxeterDiagram(4, {(3, 0): 4, (3, 1): 3, (3, 2): 3}),
    CoxeterDiagram(4, {(0, 1): 3, (0, 2): 3, (0, 3): 3}),
    star_diagram(2, 2, 2, 2).to_diagram(),
    _with_pendant(star_diagram(2, 3, 3).to_diagram(), 2, 3),
    _with_pendant(star_diagram(2, 2, 3).to_diagram(), 3, 3),
    CoxeterDiagram(5, {(4, 3): 3, (3, 2): 4, (2, 1): 3, (1, 0): 3}),
]


def test_grow_step_types_match_the_full_recognizer_on_planted_diagrams():
    cases, types = set(), set()
    for d in _PLANTED + _GROW_CASES:
        for shape, u, v, _, got in _check_grow_steps(d):
            case = _step_case(shape, u)
            if case == "path inner":
                case += " x=3" if d.weights[u][v] == 3 else " x!=3"
            cases.add(case)
            if got is not None:
                types.add(str(got[1]))
    assert cases == {"path end", "path inner x=3", "path inner x!=3", "branch centre",
                          "arm tip", "arm inner", "cycle or INF pair"}
    assert {"D4", "E6", "E7", "E8", "F4", "H3", "H4", "I2(4)", "I2(5)"} <= types
    assert any(t.startswith("A") for t in types) and any(t.startswith("B") for t in types)


@given(_diagrams(max_rank=12))
@settings(max_examples=150, deadline=None)
def test_grow_step_types_match_the_full_recognizer(d):
    _check_grow_steps(d)


@pytest.mark.parametrize("build", [
    lambda: sym("[" + ",".join(["3"] * 12) + "]"),  # A13
    lambda: CoxeterDiagram(12),
    lambda: sym("[8,3,4,3,8]"),
    lambda: sym("[(3^2,inf)]"),
    lambda: polygon_diagram(2, 3, 7),
], ids=["A13", "edgeless12", "8-3-4-3-8", "3^2-inf-cycle", "polygon-2-3-7"])
def test_steinberg_matches_subset_sweep_examples(build):
    d = build()
    f = steinberg_growth(d)
    g = subset_sweep_growth(d)
    assert (f.numerator, f.denominator) == (g.numerator, g.denominator)


def test_steinberg_38_denominator():
    f = steinberg_growth(sym("[3,8]"))
    core, _ = strip_cyclotomic(f.denominator)
    assert core == MIN_38
    # divisibility as stated, not only core equality
    exact_div(f.denominator, MIN_38)


def test_steinberg_353_core():
    f = steinberg_growth(sym("[3,5,3]"))
    assert strip_cyclotomic(f.denominator)[0] == MIN_353


def test_steinberg_435_core():
    f = steinberg_growth(sym("[4,3,5]"))
    assert strip_cyclotomic(f.denominator)[0] == CORE_435


def test_steinberg_finite_groups():
    # denominator 1 and numerator(1) = group order, over the whole spherical
    # catalog of rank <= 6 (I2(m) capped) plus reducible unions
    def a(n):
        return sym("[" + ",".join(["3"] * (n - 1)) + "]") if n > 1 else CoxeterDiagram(1)

    def b(n):
        return sym("[4" + ",3" * (n - 2) + "]")

    diagrams = [a(n) for n in range(1, 7)] + [a(20)]
    diagrams += [b(n) for n in range(2, 7)] + [b(20)]
    diagrams += [star_diagram(2, 2, n - 2).to_diagram() for n in (4, 5, 6, 20)]  # D4..D6, D20
    diagrams += [star_diagram(2, 3, 3).to_diagram()]  # E6
    diagrams += [sym(s) for s in ("[3,4,3]", "[5,3]", "[5,3,3]")]
    diagrams += [sym(f"[{m}]") for m in range(3, 13)]
    # reducible: disjoint unions via weight-2 separation
    diagrams.append(CoxeterDiagram(4, {(0, 1): 3, (2, 3): 5}))
    diagrams.append(CoxeterDiagram(6, {(0, 1): 4, (1, 2): 3, (3, 4): 3, (4, 5): 3}))
    for d in diagrams:
        f = steinberg_growth(d)
        assert f.denominator == IntPoly([1])
        order = 1
        for t in finite_type_recognize(d):
            order *= t.order()
        assert f.numerator(1) == order
        assert f.numerator.reversed() == f.numerator  # palindromic


def test_steinberg_rank_bound():
    with pytest.raises(ValueError):
        steinberg_growth(CoxeterDiagram(21))


def test_steinberg_edgeless_diagram():
    # n commuting reflections: growth polynomial [2]^n
    for n in (3, 20):
        f = steinberg_growth(CoxeterDiagram(n))
        assert f.denominator == IntPoly([1])
        assert f.numerator == IntPoly([1, 1]) ** n


def _pack(digits, k):
    return sum(c << k * j for j, c in enumerate(digits))


@pytest.mark.parametrize("digits", [
    [5, -5, 0, 3],
    [1, 0, -7],  # negative top digit
    [-7, 7, -7],  # B = 2^3 - 1: k = 4
    [8, -8],  # B = 2^3: k = 5
    [0, 0, 0, -1],
])
def test_signed_digits_round_trip_at_minimal_width(digits):
    k = max(abs(c) for c in digits).bit_length() + 1
    assert _signed_digits(_pack(digits, k), k, len(digits)) == digits
    # extra digits past the top read as zeros
    assert _signed_digits(_pack(digits, k), k, len(digits) + 2) == digits + [0, 0]


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_signed_digits_round_trip(digits):
    k = max(abs(c) for c in digits).bit_length() + 1
    assert _signed_digits(_pack(digits, k), k, len(digits)) == digits


def test_signed_digits_range_ends():
    # the digits of width k run over [-2^(k-1), 2^(k-1))
    assert _signed_digits(_pack([-8, 7, -8], 4), 4, 3) == [-8, 7, -8]
    assert _signed_digits(_pack([8], 4), 4, 2) == [-8, 1]


def test_signed_digits_raise_when_wider_than_n_digits():
    with pytest.raises(ArithmeticError):
        _signed_digits(_pack([1, 2, 3], 4), 4, 2)
    with pytest.raises(ArithmeticError):
        _signed_digits(-(1 << 12), 4, 3)
    assert _signed_digits(-(1 << 12), 4, 4) == [0, 0, 0, -1]


def test_signed_digits_read_back_a_tree_polynomial_at_minimal_width():
    chi = adjacency_char_poly(path_tree(14))
    bound = max(map(abs, chi.coeffs))
    assert bound == chi[6] == 210
    k = bound.bit_length() + 1
    assert _signed_digits(chi(1 << k), k, 15) == list(chi.coeffs)
    # one bit narrower, 210 lies outside the digits [-128, 128) and is misread
    assert _signed_digits(chi(1 << k - 1), k - 1, 15) != list(chi.coeffs)


def test_esselmann_denominator_classification():
    from coxgrowth.numclass import classify
    f = steinberg_growth(sym("[8,3,4,3,8]"))
    core, _ = strip_cyclotomic(f.denominator)
    assert core.degree == 28
    assert core.reversed() == core
    nc = classify(core)
    assert nc.degree == 28
    assert "perron" in nc.labels
    # more than two roots off the closed disk: neither Salem nor 2-Salem
    assert nc.roots_outside_unit_disk > 2
    assert nc.roots_outside_unit_disk == nc.roots_inside


# -- polygons -------------------------------------------------------------------------------


def test_polygon_delta_right_angled():
    for k in range(1, 11):
        expected = IntPoly([1, 1]) ** (k - 1) * IntPoly([1, -(k - 2), 1])
        assert polygon_delta(*([2] * k)) == expected


def test_polygon_delta_matches_dense_products():
    for k in range(1, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            assert polygon_delta(*ps) == reference_polygon_delta(*ps), ps


def test_polygon_delta_single_three():
    assert polygon_delta(3) == bracket(4)


def test_polygon_delta_237_is_lehmer():
    assert polygon_delta(2, 3, 7) == LEHMER


def test_polygon_delta_permutation_invariant():
    import random
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randint(1, 5)
        ps = [rng.randint(2, 9) for _ in range(k)]
        shuffled = ps[:]
        rng.shuffle(shuffled)
        assert polygon_delta(*ps) == polygon_delta(*shuffled)


def test_polygon_delta_recursions():
    import random
    rng = random.Random(4)
    for _ in range(100):
        k = rng.randint(1, 4)
        ps = tuple(rng.randint(2, 8) for _ in range(k))
        p_last = rng.randint(4, 9)
        full = ps + (p_last,)
        lhs = polygon_delta(*full)
        rhs = (IntPoly([1, 1]) * polygon_delta(*ps, p_last - 1)
               - polygon_delta(*ps, p_last - 2).shift(1))
        assert lhs == rhs
        # the variant that removes a parameter equal to 3
        lhs3 = polygon_delta(*ps, 3)
        rhs3 = IntPoly([1, 1]) * polygon_delta(*ps, 2) - polygon_delta(*ps).shift(1)
        assert lhs3 == rhs3


def test_polygon_growth_matches_steinberg():
    for ps in [(2, 3, 8), (2, 3, 7), (2, 4, 5), (2, 2, 2, 3), (2, 2, 2, 2, 2), (3, 3, 4)]:
        assert polygon_growth(*ps) == steinberg_growth(polygon_diagram(*ps))


def test_polygon_growth_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        polygon_growth(2, 3, 6)
    with pytest.raises(ValueError):
        polygon_growth(2, 2)


@pytest.mark.parametrize("ps", [(2, 3, 0), (2, 3, 1), (2, 3, -4)])
def test_polygon_growth_checks_its_parameters_before_the_angle_sum(ps):
    with pytest.raises(ValueError, match="^parameters must be at least 2$"):
        polygon_growth(*ps)


@pytest.mark.parametrize("call, args, error, message", [
    (GrowthFunction, (IntPoly([1]), IntPoly()), ZeroDivisionError, "zero denominator"),
    (polygon_delta, (2, 1, 3), ValueError, "at least 2"),
    (series_coefficients, (GrowthFunction(IntPoly([1]), IntPoly([0, 1])), 3), ValueError, "pole at 0"),
    (series_coefficients, (GrowthFunction(IntPoly([1]), IntPoly([2, 1])), 3), ArithmeticError, "not integers"),
])
def test_growth_inputs_are_checked(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)


def test_steinberg_delta_agreement_full_sweep():
    # every hyperbolic polygon with k <= 6, p_i <= 9
    count = 0
    for k in range(3, 7):
        for ps in itertools.combinations_with_replacement(range(2, 10), k):
            if not polygon_is_hyperbolic(ps):
                continue
            assert polygon_growth(*ps) == steinberg_growth(polygon_diagram(*ps)), ps
            count += 1
    assert count > 2000


# -- rates -----------------------------------------------------------------------------------


@pytest.mark.parametrize("build,expected", [
    (lambda: steinberg_growth(sym("[3,7]")), "1.176281"),
    (lambda: steinberg_growth(sym("[3,8]")), "1.230391"),
    (lambda: steinberg_growth(sym("[3,5,3]")), "1.350980"),
    (lambda: steinberg_growth(sym("[4,3,5]")), "1.359999"),
    (lambda: steinberg_growth(sym("[8,3,4,3,8]")), "1.902812"),
    (lambda: polygon_growth(2, 3, 7), "1.176281"),
])
def test_growth_rate_fixtures(build, expected):
    iv = growth_rate(build(), Fraction(1, 10**9))
    assert abs(iv.midpoint() - Fraction(expected)) < Fraction(1, 10**6)


def test_growth_rate_pentagon():
    f = polygon_growth(2, 2, 2, 2, 2)
    assert f.denominator == IntPoly([1, -3, 1])
    iv = growth_rate(f)
    assert reference_count(IntPoly([1, -3, 1]), iv.low, iv.high) == 1


def test_growth_rate_non_reciprocal_denominator():
    f = steinberg_growth(sym("[3,inf]"))
    # denominator is not reciprocal up to sign: the rate is a root of its
    # reversal's primitive part, not of the denominator itself
    rev = f.denominator.reversed()
    assert rev != f.denominator and rev != -f.denominator
    iv = growth_rate(f, Fraction(1, 10**9))
    assert iv.poly == rev.primitive() != f.denominator
    assert abs(iv.midpoint() - Fraction("1.3247180")) < Fraction(1, 10**6)


def test_growth_rate_not_exponential():
    # the infinite dihedral group grows linearly
    f = steinberg_growth(sym("[inf]"))
    with pytest.raises(NotExponentialError):
        growth_rate(f)


def _rate_pair(f, width):
    iv = growth_rate(f, width)
    assert iv.poly == f.denominator.reversed().primitive()
    assert reference_root_is_simple(iv.poly, iv.low, iv.high)
    return iv.low, iv.high


def test_growth_rate_matches_reference_on_theorem2_polygons():
    width = Fraction(1, 10**9)
    count = 0
    for k in range(3, 6):
        for ps in itertools.combinations_with_replacement(range(2, 9), k):
            if polygon_is_hyperbolic(ps):
                f = polygon_growth(*ps)
                assert _rate_pair(f, width) == reference_growth_rate(f.denominator, width), ps
                count += 1
    assert count == 742


@pytest.mark.parametrize("symbol", ["[3,5,3]", "[4,3,5]", "[5,3,5]", "[8,3,4,3,8]"])
def test_growth_rate_matches_reference_on_symbols(symbol):
    width = Fraction(1, 10**9)
    f = steinberg_growth(sym(symbol))
    assert _rate_pair(f, width) == reference_growth_rate(f.denominator, width)


# Series whose denominators are not reciprocal up to sign, rank 3 to 10.
_NON_RECIPROCAL = ["[3,inf]", "[(3^2,inf)]", "[5,3,5,3]", "star 2,3,7", "[inf,3,3]", "[6,3,inf]",
                   "[3,4,3,inf]", "[inf,3,3,3,inf]", "[3,3,3,3,3,inf]", "[inf,5,3,3,3,3]"]


def _non_reciprocal_series(name):
    d = star_diagram(2, 3, 7).to_diagram() if name == "star 2,3,7" else sym(name)
    return steinberg_growth(d)


# [inf,3,3,inf]: the reversal has the root 1 next below the rate, at a lower end
# of the grid cells above it, so the Sturm bisection gives the interval
@pytest.mark.parametrize("name", _NON_RECIPROCAL + ["[inf,3,3,inf]"])
def test_growth_rate_matches_reference_on_non_reciprocal_series(name):
    f = _non_reciprocal_series(name)
    rev = f.denominator.reversed()
    assert rev != f.denominator and rev != -f.denominator
    width = Fraction(1, 10**9)
    assert _rate_pair(f, width) == reference_growth_rate(f.denominator, width)


def test_growth_rate_builds_no_sturm_chain_on_non_reciprocal_series(monkeypatch):
    # nor a squarefree part or a count: the Descartes certificate decides
    from test_roots import _recording_work
    work = _recording_work(monkeypatch)
    for name in _NON_RECIPROCAL:
        growth_rate(_non_reciprocal_series(name), Fraction(1, 10**9))
        assert work == [], name


def test_growth_rate_edge_cases_of_the_reversal():
    width = Fraction(1, 10**9)
    with pytest.raises(NotExponentialError):  # the pole 2 lies outside the unit disk
        growth_rate(GrowthFunction(IntPoly([1]), IntPoly([2, -1])), width)
    iv = growth_rate(GrowthFunction(IntPoly([1]), IntPoly([1, -3])), width)
    assert iv.low == iv.high == 3 and reference_root_is_simple(iv.poly, iv.low, iv.high)
    # the double rate 2 is a point of the grid (-16, 16], reached by the
    # bisection of the squarefree part t - 2
    iv = growth_rate(GrowthFunction(IntPoly([1]), IntPoly([1, -2]) ** 2), width)
    assert iv.low == iv.high == 2 and iv.poly == IntPoly([-2, 1])
    assert reference_root_is_simple(iv.poly, iv.low, iv.high)


@pytest.mark.parametrize("symbol", [
    "[inf]", "[4,4]", "[3,6]", "[(3^3)]", "[4,3,4]", "[3,4,3,3]",  # affine
    "[5,3]", "[3,3,5]", "[7]",  # spherical
])
def test_growth_rate_not_exponential_on_reciprocal_denominators(symbol):
    den = steinberg_growth(sym(symbol)).denominator
    assert den.reversed() in (den, -den)
    assert reference_growth_rate(den, Fraction(1, 10**9)) is None
    with pytest.raises(NotExponentialError):
        growth_rate(GrowthFunction(IntPoly([1]), den))


def test_growth_rate_rejects_non_positive_widths():
    f = polygon_growth(2, 3, 7)
    for width in (Fraction(0), Fraction(-1, 10)):
        with pytest.raises(ValueError):
            growth_rate(f, width)
        with pytest.raises(ValueError):
            growth_rate(steinberg_growth(sym("[3,inf]")), width)


def test_series_coefficients_basics():
    f = steinberg_growth(sym("[3,7]"))
    coeffs = series_coefficients(f, 10)
    assert coeffs[0] == 1
    assert coeffs[1] == 3


def test_series_match_bfs_oracle():
    f37 = steinberg_growth(sym("[3,7]"))
    assert series_coefficients(f37, 10) == bfs_word_counts(sym("[3,7]"), 10)
    pent = polygon_growth(2, 2, 2, 2, 2)
    assert series_coefficients(pent, 10) == bfs_word_counts(polygon_diagram(2, 2, 2, 2, 2), 10)


def test_reciprocity():
    assert reciprocity_check(steinberg_growth(sym("[3,8]")), 2)
    assert reciprocity_check(steinberg_growth(sym("[3,5,3]")), 3)
    assert reciprocity_check(steinberg_growth(sym("[8,3,4,3,8]")), 4)
    assert not reciprocity_check(steinberg_growth(sym("[3,8]")), 3)


def test_reciprocity_finite_formal():
    # Solomon products are palindromic: numerator reversal fixes them
    f = steinberg_growth(sym("[5,3]"))
    assert f.numerator.reversed() == f.numerator


def test_polygon_denominators_reciprocal():
    for ps in [(2, 3, 7), (2, 4, 5), (2, 2, 2, 3), (3, 3, 4), (2, 2, 2, 2, 2)]:
        den = polygon_growth(*ps).denominator
        assert den.reversed() == den


# -- monotonicity -----------------------------------------------------------------------------


def test_monotonicity_chain():
    r1 = monotonicity_check(sym("[3,8]"), sym("[3,inf]"))
    r2 = monotonicity_check(sym("[3,inf]"), sym("[(3^2,inf)]"))
    assert r1.passed and r2.passed
    assert r1.high_rate.low > r1.low_rate.high
    assert abs(r2.high_rate.midpoint() - Fraction("1.618034")) < Fraction(1, 10**5)


def test_monotonicity_37_vs_38():
    r = monotonicity_check(sym("[3,7]"), sym("[3,8]"))
    assert r.passed


def test_monotonicity_rejects_unordered():
    with pytest.raises(ValueError):
        monotonicity_check(sym("[3,8]"), sym("[3,8]"))
    with pytest.raises(ValueError):
        monotonicity_check(sym("[3,inf]"), sym("[3,8]"))


# -- help functions and the second-minimal verification -----------------------------------------


def _help(k: int, x: Fraction) -> Fraction:
    """h_k(x) = [k-1](x) / [k](x), each bracket a geometric sum."""
    return sum(x ** i for i in range(k - 1)) / sum(x ** i for i in range(k))


def test_help_function_values_strictly_inside_unit_interval():
    for k in (2, 3, 5, 8, 13):
        for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            v = help_numerator((k,), ())(x) / bracket(k)(x)
            assert v == _help(k, x)
            assert 0 < v < 1


# the (plus, minus) help sums of the second-minimal proof
PROOF_HELP_SUMS = [((2, 4, 5), (2, 3, 8)), ((9,), (8,)), ((3, 3), (2, 5)), ((2, 2), (8,)),
                   ((2,) * 5, (2, 3, 8))]


def test_help_numerator_matches_the_fraction_sum():
    rng = random.Random(5)
    randoms = [(tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4))),
                tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4)))) for _ in range(20)]
    for plus, minus in PROOF_HELP_SUMS + randoms:
        whole = IntPoly([1])
        for k in plus + minus:
            whole = whole * bracket(k)
        num = help_numerator(plus, minus)
        for x in (Fraction(1, 3), Fraction(4, 5), Fraction(1), Fraction(7, 4), Fraction(-1, 2)):
            want = sum(_help(k, x) for k in plus) - sum(_help(k, x) for k in minus)
            assert Fraction(num(x)) / whole(x) == want, (plus, minus, x)


def test_help_report_structure():
    # the gap identity: h_2 + h_4 + h_5 - (h_2 + h_3 + h_8) = t^2 F / denom
    F = IntPoly([1, 1, 0, -1, -1, -1, 0, 1, 1])
    for x in (Fraction(1, 2), Fraction(1), Fraction(3)):
        gap = sum(_help(k, x) for k in (2, 4, 5)) - sum(_help(k, x) for k in (2, 3, 8))
        denom = (1 + x) * (1 + x + x ** 2) * bracket(5)(x) * (1 + x ** 2) * (1 + x ** 4)
        assert gap == x ** 2 * F(x) / denom
    assert verify_second_minimal_polygon().case("gap_polynomial").details["identity"]


def test_gap_polynomial_positive():
    F = IntPoly([1, 1, 0, -1, -1, -1, 0, 1, 1])  # t^8+t^7-t^5-t^4-t^3+t+1
    assert F == parse_poly("1,1,0,-1,-1,-1,0,1,1")
    assert reference_count(F, Fraction(0), Fraction(1)) == 0
    assert positive_on(F, Fraction(1))
    details = verify_second_minimal_polygon().case("gap_polynomial").details
    assert details["polynomial"] == F.to_text()
    assert details["roots_in_unit_interval"] == 0


def _random_part(rng: random.Random) -> IntPoly:
    """+-1 times up to three factors: a root among -1, 0, 1/4, ..., 2 (so often
    at the upper end), no real root, or small random coefficients."""
    p = IntPoly([rng.choice([1, -1])])
    for _ in range(rng.randint(0, 3)):
        root = Fraction(rng.choice([-4, 0, 1, 2, 3, 4, 6, 8]), 4)
        p = p * rng.choice([IntPoly([-root.numerator, root.denominator]), IntPoly([1, 0, 1]),
                            IntPoly([1, -1, 1]), IntPoly([rng.randint(-3, 3) for _ in range(3)] + [1])])
    return p


def test_positive_on_matches_the_oracle_count():
    rng, seen = random.Random(23), Counter()
    for _ in range(300):
        upper = Fraction(rng.choice([2, 3, 4]), 4)
        p = _random_part(rng) * _random_part(rng)
        got = positive_on(p, upper)
        roots, sign = reference_count(p, Fraction(0), upper), p.sign_at(upper)
        assert got == (roots == 0 and sign > 0), (p, upper)
        seen["positive" if got else "not positive"] += 1
        seen["negative"] += roots == 0 and sign < 0
        seen["root inside, positive at upper"] += roots > 0 and sign > 0
        seen["root at upper"] += sign == 0
    assert min(seen[k] for k in ("positive", "not positive", "negative",
                                 "root inside, positive at upper", "root at upper")) > 0


def test_second_minimal_report():
    rep = verify_second_minimal_polygon(5, 9)
    assert rep.passed
    assert abs(rep.reference_rate.midpoint() - Fraction("1.230391")) < Fraction(1, 10**6)
    for name in ("gap_polynomial", "help_monotonicity", "triangles",
                 "quadrilaterals", "five_or_more"):
        assert rep.case(name).passed


def test_second_minimal_rejects_small_bounds():
    with pytest.raises(ValueError):
        verify_second_minimal_polygon(4, 9)


@pytest.mark.parametrize("ps", [(2, 3, 6), (2, 2, 2, 2)])
def test_polygon_rate_compare_rejects_a_tuple_that_is_not_hyperbolic(ps):
    # Euclidean: delta has no root above 1, so there is no rate to compare
    with pytest.raises(ValueError) as expected:
        polygon_growth(*ps)
    with pytest.raises(ValueError) as raised:
        polygon_rate_compare(ps, growth_rate(polygon_growth(2, 3, 8)))
    assert str(raised.value) == str(expected.value)


def test_polygon_rates_are_read_by_the_trace_certificate_with_no_shift(monkeypatch):
    # every tuple of the default second-minimal sweep is on the side of the
    # (2,3,8) rate that delta's largest root, isolated on delta itself, is on
    tau = growth_rate(polygon_growth(2, 3, 8))
    tuples = [ps for k in range(3, 6) for ps in _hyperbolic_tuples(k, 9) if ps not in ((2, 3, 7), (2, 3, 8))]
    assert len(tuples) == 1225
    expected = [compare(isolate_largest_real_root(polygon_delta(*ps), Fraction(1, 10**4)), tau) for ps in tuples]
    shifted = roots._shifted

    def refused(f, a):
        raise AssertionError("Taylor shift")

    monkeypatch.setattr(roots, "_shifted", refused)
    assert [polygon_rate_compare(ps, tau) for ps in tuples] == expected
    # the whole check shifts only in the Sturm counts of its five positive_on
    # certificates, whatever the bounds of its sweep
    for bounds in ((5, 9), (6, 12)):
        points = []
        monkeypatch.setattr(roots, "_shifted", lambda f, a: points.append(a) or shifted(f, a))
        assert verify_second_minimal_polygon(*bounds).passed
        assert len(points) == 5
