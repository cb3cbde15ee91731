import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coxgrowth import intpoly, roots
from coxgrowth.coxtrans import char_poly_star
from coxgrowth.diagram import polygon_is_hyperbolic
from coxgrowth.growth import GrowthFunction, NotExponentialError, _hyperbolic_tuples, growth_rate, polygon_growth
from coxgrowth.intpoly import IntPoly, cyclotomic, parse_poly, poly_gcd, squarefree_part
from coxgrowth.roots import (
    NoRealRootError,
    RootInterval,
    compare,
    isolate_largest_real_root,
    largest_root_above_one,
    refine_until_disjoint,
    sqrt_interval,
    sturm_count,
)

from oracles import (
    _reference_bound,
    count_roots_open,
    real_root_count_bisection,
    reference_count,
    reference_real_root_count,
    reference_refined,
    reference_root_is_simple,
)

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def _real_roots(p, width):
    """Every distinct real root of p, ascending: the cells of the Descartes
    bisection of its squarefree part sf over the grid of p, refined on sf."""
    sf, bound = squarefree_part(p), roots.root_bound(p)
    cells = roots._cells(sf, -bound, bound)
    return [roots._refine(RootInterval(sf, a, b), width) for a, b in cells][::-1]


def test_sturm_count_examples():
    assert sturm_count(IntPoly([-2, 0, 1]), 0, 2) == 1
    assert sturm_count(LEHMER, 1, 2) == 1
    assert sturm_count(IntPoly([1, 1, 1]), -2, 2) == 0


def test_sturm_multiplicity_squarefree():
    # (t-1)^3 (t+2): multiple roots counted once
    p = IntPoly([-1, 1]) ** 3 * IntPoly([2, 1])
    assert sturm_count(p, -3, 3) == 2
    assert sturm_count(p, 0, 1) == 1  # half-open: root at 1 included


def test_isolate_largest():
    iv = isolate_largest_real_root(LEHMER, Fraction(1, 10**6))
    assert iv.width <= Fraction(1, 10**6)
    assert iv.low <= Fraction("1.176281") <= iv.high + Fraction(1, 10**6)
    assert reference_count(LEHMER, iv.low, iv.high) == 1 or iv.width == 0


def test_isolate_double_root_exact():
    iv = isolate_largest_real_root(IntPoly([1, -2, 1]))  # (t-1)^2
    assert (iv.low, iv.high) == (1, 1)
    # the bisection gives the interval on the squarefree part, where the root is simple
    assert iv.poly == IntPoly([-1, 1]) and reference_root_is_simple(iv.poly, iv.low, iv.high)


def test_multiplicity_flags():
    iv = isolate_largest_real_root(LEHMER)
    assert reference_root_is_simple(iv.poly, iv.low, iv.high)
    p = IntPoly([-1, 1]) ** 2 * IntPoly([-3, 1])
    ivs = _real_roots(p, Fraction(1, 10**6))
    # both intervals lie on the squarefree part (t - 1)(t - 3), and so does their refinement
    assert [iv.poly for iv in ivs] == [IntPoly([3, -4, 1])] * 2
    assert all(reference_root_is_simple(iv.poly, iv.low, iv.high) for iv in ivs)
    finer = ivs[0].refined(Fraction(1, 10**12))
    assert finer.poly == IntPoly([3, -4, 1])
    assert reference_root_is_simple(finer.poly, finer.low, finer.high)
    # an interval built with the flag False holds the squarefree part, and refines on it
    hand_built = RootInterval(p, Fraction(0), Fraction(2), multiplicity_free=False)
    assert hand_built.refined(Fraction(1, 10**6)) == RootInterval(IntPoly([3, -4, 1]), Fraction(1), Fraction(1))
    assert hand_built.refined(Fraction(4)) is hand_built


def test_isolate_tetrahedral_value():
    p = parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1")
    iv = isolate_largest_real_root(p, Fraction(1, 10**7))
    assert abs(iv.midpoint() - Fraction("1.350980")) < Fraction(1, 10**6)


def test_no_real_root():
    with pytest.raises(NoRealRootError):
        isolate_largest_real_root(IntPoly([1, 1, 1]))


def test_isolate_all_roots():
    p = IntPoly([-1, 1]) * IntPoly([2, 1]) * IntPoly([-7, 2])
    ivs = _real_roots(p, Fraction(1, 10**9))
    assert len(ivs) == 3
    values = sorted(float(iv.midpoint()) for iv in ivs)
    assert values == pytest.approx([-2.0, 1.0, 3.5], abs=1e-6)


def test_refinement_and_separation():
    a = isolate_largest_real_root(IntPoly([-2, 0, 1]), Fraction(1, 100))
    b = isolate_largest_real_root(IntPoly([-3, 0, 1]), Fraction(1, 100))
    assert (compare(a, b), compare(b, a)) == (-1, 1)
    a, b = refine_until_disjoint(a, b)
    assert a.high < b.low


def test_separation_failure_on_equal_roots():
    a = isolate_largest_real_root(IntPoly([-2, 0, 1]), Fraction(1, 100))
    b = isolate_largest_real_root(IntPoly([-2, 0, 1]) * IntPoly([1, 1]), Fraction(1, 100))
    with pytest.raises(ValueError):
        refine_until_disjoint(a, b)


def test_compare_separates_roots_1e50_apart():
    a = RootInterval(IntPoly([-1, 1]), Fraction(0), Fraction(2))
    b = RootInterval(IntPoly([-(10**50 + 1), 10**50]), Fraction(0), Fraction(2))
    assert compare(a, b) == -1
    assert compare(b, a) == 1


def test_compare_equal_roots_of_different_polynomials():
    a = isolate_largest_real_root(IntPoly([-2, 0, 1]), Fraction(1, 100))
    b = isolate_largest_real_root(IntPoly([-2, 0, 1]) * IntPoly([1, 1]), Fraction(1, 3))
    assert compare(a, b) == 0 and compare(b, a) == 0
    point = RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1))
    around = RootInterval(IntPoly([-1, 1]) * IntPoly([-3, 1]), Fraction(1, 2), Fraction(2))
    assert compare(point, around) == 0 and compare(around, point) == 0


def test_compare_needs_the_shared_root_in_the_overlap():
    # the union [1/2, 5/2] holds the common root 1, the overlap [5/4, 3/2] does not
    a = RootInterval(IntPoly([-1, 1]), Fraction(1, 2), Fraction(3, 2))
    b = RootInterval(IntPoly([-1, 1]) * IntPoly([-2, 1]), Fraction(5, 4), Fraction(5, 2))
    assert compare(a, b) == -1
    assert compare(b, a) == 1


def test_compare_reads_intervals_as_half_open():
    # (1, 2] holds only the root 2 of (x-1)(x-2); the root 1 at its lower end
    # belongs to (0, 1], the interval of x - 1
    x1, x1x2 = IntPoly([-1, 1]), IntPoly([-1, 1]) * IntPoly([-2, 1])
    a = RootInterval(x1x2, Fraction(1), Fraction(2))
    b = RootInterval(x1, Fraction(0), Fraction(1))
    assert compare(a, b) == 1 and compare(b, a) == -1
    point = RootInterval(x1, Fraction(1), Fraction(1))
    assert compare(a, point) == 1 and compare(point, a) == -1
    # a common upper end is in both root sets
    c = RootInterval(x1 * IntPoly([3, 1]), Fraction(1, 2), Fraction(1))
    assert compare(b, c) == 0 and compare(c, point) == 0


def _sqrt_interval_of(p, n, width):
    """The isolating interval of p around sqrt(n)."""
    return next(iv for iv in _real_roots(p, width)
                if iv.high >= 0 and max(iv.low, 0) ** 2 <= n <= iv.high ** 2)


_extra_factors = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(lambda c: IntPoly(c + [1])),
    max_size=2).map(lambda fs: functools.reduce(lambda acc, f: acc * f, fs, IntPoly([1])))


@given(st.integers(1, 40), st.integers(1, 40), _extra_factors, _extra_factors,
       st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 10**6)]))
@settings(max_examples=150, deadline=None)
def test_compare_square_roots(a, b, extra_a, extra_b, width):
    ia = _sqrt_interval_of(IntPoly([-a, 0, 1]) * extra_a, a, width)
    ib = _sqrt_interval_of(IntPoly([-b, 0, 1]) * extra_b, b, width)
    assert compare(ia, ib) == (a > b) - (a < b)


def test_count_roots_open():
    p = IntPoly([-1, 1]) * IntPoly([-2, 1])
    assert sturm_count(p, 0, 2) == 2
    assert count_roots_open(p, Fraction(0), Fraction(2)) == 1


@pytest.mark.parametrize("num,den,index", [
    (IntPoly([1]), IntPoly([0, 1]), 1),             # 1/x jumps from -inf to +inf at 0
    (IntPoly([-1]), IntPoly([0, 1]), -1),
    (IntPoly([0, 1]), IntPoly([-1, 0, 1]), 2),      # x/(x^2 - 1), up at -1 and at 1
    (IntPoly([0, -1]), IntPoly([-1, 0, 1]), -2),
    (IntPoly([5]), IntPoly([1, 0, 1]), 0),          # no real pole
    (IntPoly([1]), IntPoly([0, 0, 1]), 0),          # 1/x^2 keeps its sign across the pole
    (IntPoly([-7, 2, 1]), IntPoly([-1, 0, 1]), 0),  # (x^2 + 2x - 7)/(x^2 - 1)
    (IntPoly([1, 0, 0, -1]), IntPoly([0, 1]), 1),   # (1 - x^3)/x, deg num = deg den + 2
    (IntPoly([-1, 0, 0, -1]), IntPoly([0, 1]), -1),
    (IntPoly([1, 0, 0, 0, 0, -1]), IntPoly([0, 1]), 1),                 # (1 - x^5)/x
    (IntPoly([2, 0, 0, 0, -1]), IntPoly([2, -3, 1]), -2),    # (2 - x^4)/((x - 1)(x - 2))
])
def test_cauchy_index_examples(num, den, index):
    assert roots._cauchy_index_and_gcd(num, den)[0] == index


@given(st.sets(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_cauchy_index_at_simple_integer_poles(poles, num_coeffs):
    # den = prod (x - a) has simple poles, where num/den jumps up iff num(a) den'(a) > 0;
    # num has any degree and any sign of leading coefficient
    den = functools.reduce(lambda acc, a: acc * IntPoly([-a, 1]), sorted(poles), IntPoly([1]))
    num = IntPoly(num_coeffs)
    if num.is_zero() or any(num(a) == 0 for a in poles):
        return
    d = den.derivative()
    assert roots._cauchy_index_and_gcd(num, den)[0] == sum(1 if num(a) * d(a) > 0 else -1 for a in poles)


@pytest.mark.parametrize("num, den, members", [
    (LEHMER.derivative(), LEHMER, 11),
    (LEHMER * IntPoly([1, 1]), LEHMER * IntPoly([-2, 0, 1]), 3),  # ends at a non-constant gcd
    (IntPoly(), LEHMER, 1),
])
def test_cauchy_index_and_gcd_builds_one_intpoly_however_long_the_chain(monkeypatch, num, den, members):
    # the chain runs on coefficient lists; only its last member, g, is wrapped
    built = []
    init = IntPoly.__init__

    def counting_init(self, coeffs=()):
        built.append(self)
        init(self, coeffs)

    monkeypatch.setattr(IntPoly, "__init__", counting_init)
    index, g = roots._cauchy_index_and_gcd(num, den)
    monkeypatch.undo()
    assert built == [g]
    assert g.primitive() == poly_gcd(num, den)
    assert len(intpoly._signed_remainders(den, num)) == members


_FACTOR = st.lists(st.integers(-9, 9), min_size=2, max_size=6).filter(lambda c: c[-1] != 0).map(IntPoly)


@given(_FACTOR, st.integers(1, 3), st.one_of(st.just(IntPoly([1])), _FACTOR))
@settings(max_examples=100, deadline=None)
def test_cauchy_index_of_the_log_derivative_counts_real_roots(f, power, h):
    # I(p'/p) in lowest terms is the number of distinct real roots of p,
    # squarefree or not: p = f^power h has repeated factors for power > 1
    p = f**power * h
    assert roots._cauchy_index_and_gcd(p.derivative(), p)[0] == reference_real_root_count(p)


def test_sqrt_interval():
    lo, hi = sqrt_interval(Fraction(2), Fraction(2), Fraction(1, 10**9))
    assert lo <= Fraction(1414213562, 10**9) + Fraction(2, 10**9)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo < Fraction(1, 10**8)


def test_decimal_rendering():
    iv = RootInterval(IntPoly([-2, 0, 1]), Fraction(141421356, 10**8), Fraction(141421357, 10**8))
    assert iv.decimal(7).startswith("1.414213")


# the oracle agreement demanded by the acceptance suite: 200 random integer
# polynomials of degree <= 12 over 50 random rational intervals
def test_sturm_vs_bisection_oracle():
    rng = random.Random(20260811)
    intervals = []
    while len(intervals) < 50:
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if a != b:
            intervals.append((min(a, b), max(a, b)))
    checked = 0
    for i in range(200):
        deg = rng.randint(1, 12)
        lead = rng.choice([-1, 1]) * rng.randint(1, 20)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [lead]
        p = IntPoly(coeffs)
        a, b = intervals[i % 50]
        assert sturm_count(p, a, b) == real_root_count_bisection(p, a, b), (p, a, b)
        checked += 1
    assert checked == 200


def test_refining_past_a_multiple_root_lower_end_builds_no_sturm_chain(monkeypatch):
    # x^2 (3x - 5) on (0, 4]: the lower end 0 is a double root, where p and p'
    # vanish and p'' < 0 gives the sign just right of it; the root 5/3 is simple
    p, width = IntPoly([0, 0, -5, 3]), Fraction(1, 10**6)
    work = _recording_work(monkeypatch)
    iv = RootInterval(p, Fraction(0), Fraction(4), True).refined(width)
    assert (iv.low, iv.high) == reference_refined(p, Fraction(0), Fraction(4), width)
    assert work == []


_DOUBLE_ROOT_POLYS = pytest.mark.parametrize("p", [
    IntPoly([-1, 1]) ** 2 * IntPoly([3, 1]),    # the double root 1, a grid point
    IntPoly([-2, 3]) ** 2 * IntPoly([3, 1]),    # the double root 2/3
])


@_DOUBLE_ROOT_POLYS
def test_a_hand_built_interval_around_a_double_root_refines_on_the_squarefree_part(p):
    # p keeps its sign across the root; the default interval holds the squarefree part
    width = Fraction(1, 10**6)
    iv = RootInterval(p, Fraction(0), Fraction(2)).refined(width)
    assert (iv.low, iv.high) == reference_refined(p, Fraction(0), Fraction(2), width)
    assert iv.poly == squarefree_part(p) and reference_root_is_simple(iv.poly, iv.low, iv.high)
    sqrt2 = isolate_largest_real_root(IntPoly([-2, 0, 1]), Fraction(1, 100))
    assert compare(RootInterval(p, Fraction(0), Fraction(2)), sqrt2) == -1
    a, b = refine_until_disjoint(RootInterval(p, Fraction(0), Fraction(2)), sqrt2)
    assert a.high < b.low


@_DOUBLE_ROOT_POLYS
def test_a_default_interval_holds_the_squarefree_part_before_any_refinement(p):
    iv = RootInterval(p, Fraction(0), Fraction(2))
    assert iv.poly == squarefree_part(p) != p
    assert not hasattr(iv, "multiplicity_free") and not hasattr(RootInterval, "multiplicity_free")
    # refinement never changes the poly, of a default interval or of isolation's
    for start in (iv, isolate_largest_real_root(p, Fraction(1)), isolate_largest_real_root(LEHMER)):
        for width in (Fraction(1, 3), Fraction(1, 10**6), Fraction(1, 2**40)):
            assert start.refined(width).poly == start.poly


@_DOUBLE_ROOT_POLYS
def test_a_certified_interval_keeps_its_poly_and_takes_no_squarefree_part(monkeypatch, p):
    # the root -3 of p is simple, and the only one in (-4, -2]
    width = Fraction(1, 10**6)
    work = _recording_work(monkeypatch)
    iv = RootInterval(p, Fraction(-4), Fraction(-2), multiplicity_free=True)
    assert iv.poly is p and iv.refined(width).poly is p
    assert (iv.refined(width).low, iv.refined(width).high) == reference_refined(
        p, Fraction(-4), Fraction(-2), width)
    assert work == []


@_DOUBLE_ROOT_POLYS
def test_a_certified_interval_around_a_double_root_raises_when_refined(p):
    # p has one sign at both ends of (0, 2]: the claim of a simple root is false
    iv = RootInterval(p, Fraction(0), Fraction(2), multiplicity_free=True)
    with pytest.raises(ArithmeticError):
        iv.refined(Fraction(1, 10**6))


def test_refine_moves_off_an_exact_root_endpoint():
    # the bracket endpoint is itself a (different) root of the polynomial
    p = IntPoly([-1, 1]) * IntPoly([-2, 1])  # roots 1 and 2
    bracket = RootInterval(p, Fraction(1), Fraction(5, 2))  # holds only the root 2
    refined = bracket.refined(Fraction(1, 10**9))
    assert refined.low <= 2 <= refined.high
    assert refined.width <= Fraction(1, 10**9)
    assert (refined.low, refined.high) == reference_refined(p, Fraction(1), Fraction(5, 2),
                                                            Fraction(1, 10**9))


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=8).map(lambda c: IntPoly(c + [1])))
@settings(max_examples=40, deadline=None)
def test_isolated_intervals_really_isolate(p):
    ivs = _real_roots(p, Fraction(1, 10**6))
    # intervals are pairwise disjoint, each containing exactly one root
    for i, iv in enumerate(ivs):
        if iv.width > 0:
            assert reference_count(p, iv.low, iv.high) == 1
        for other in ivs[i + 1:]:
            assert iv.high <= other.low


# -- the seeded isolation against the reference bisection ----------------------------------

from oracles import reference_isolate_largest  # noqa: E402


def _linear(num: int, den: int) -> IntPoly:
    """den * t - num, the factor of the root num / den."""
    return IntPoly([-num, den])


_factors = st.one_of(
    # integer and dyadic rational roots fall on grid points
    st.builds(_linear, st.integers(-40, 40), st.sampled_from([1, 1, 2, 4, 8, 64, 1024])),
    # other rational roots
    st.builds(_linear, st.integers(-40, 40), st.integers(1, 30)),
    # clustered roots: two roots 1/2**k apart
    st.builds(lambda n, k: _linear(n, 1 << k) * _linear(n + 1, 1 << k),
              st.integers(-2000, 2000), st.integers(6, 24)),
    # no real roots: (t + b)^2 + c
    st.builds(lambda b, c: IntPoly([b * b + c, 2 * b, 1]), st.integers(-5, 5), st.integers(1, 9)),
    # random factors with irrational roots
    st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(lambda c: IntPoly(c + [1])),
    # coefficients beyond float range take the fallback
    st.sampled_from([IntPoly([-(2**1100), 1]), IntPoly([1, 2**1100]), IntPoly([-3, 0, 2**1030])]),
)

_polys = st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=3).map(
    lambda fs: functools.reduce(lambda acc, f: acc * f[0] ** f[1], fs, IntPoly([1])))

_widths = st.sampled_from([Fraction(1, 10**9), Fraction(1, 10**7), Fraction(1, 2**20),
                           Fraction(1, 3), Fraction(1), Fraction(1000)])


def _pair(iv):
    """(low, high) of an interval that isolation returned, once its root is
    checked to be simple in the interval's own poly."""
    assert reference_root_is_simple(iv.poly, iv.low, iv.high), iv
    return iv.low, iv.high


@given(_polys, _widths)
@settings(max_examples=250, deadline=None)
def test_largest_root_matches_reference_bisection(p, width):
    expected = reference_isolate_largest(p, width)
    if expected is None:
        with pytest.raises(NoRealRootError):
            isolate_largest_real_root(p, width)
        return
    iv = isolate_largest_real_root(p, width)
    assert _pair(iv) == expected
    assert iv.poly in (p, squarefree_part(p))
    finer = width / 1024
    assert (iv.refined(finer).low, iv.refined(finer).high) == reference_refined(
        p, iv.low, iv.high, finer)


_small_factors = st.one_of(
    st.builds(_linear, st.integers(-40, 40), st.sampled_from([1, 2, 3, 8])),
    st.builds(lambda b, c: IntPoly([b * b + c, 2 * b, 1]), st.integers(-5, 5), st.integers(1, 9)),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4).map(lambda c: IntPoly(c + [1])),
)

# a factor of multiplicity 2 or 3 times up to two more factors
_planted = st.tuples(_small_factors, st.integers(2, 3), st.lists(_small_factors, max_size=2)).map(
    lambda t: functools.reduce(IntPoly.__mul__, t[2], t[0] ** t[1]))


@given(_planted, _widths)
@settings(max_examples=100, deadline=None)
def test_every_interval_isolates_a_simple_root_of_its_own_poly(p, width):
    ivs = _real_roots(p, width)
    assert len(ivs) == reference_real_root_count(p)
    for iv in ivs:
        _pair(iv)
        if iv.width > 0:
            # a hand-built interval whose root may be multiple in p
            finer = RootInterval(p, iv.low, iv.high, multiplicity_free=False).refined(iv.width / 8)
            assert _pair(finer) == reference_refined(p, iv.low, iv.high, iv.width / 8)
    expected = reference_isolate_largest(p, width)
    if expected is None:
        return
    assert _pair(roots._bisection_largest(p, width)) == expected
    assert _pair(isolate_largest_real_root(p, width)) == expected
    above = largest_root_above_one(p, width)
    assert (above is not None) == (reference_count(p, Fraction(1), _reference_bound(p)) > 0)
    if above is None:
        return
    assert _pair(above) == expected
    if p.constant != 0:
        # the series 1 / rev(p) grows at the rate of p's top root
        try:
            rate = growth_rate(GrowthFunction(IntPoly([1]), p.reversed()), width)
        except NotExponentialError:
            rate = None
        assert rate is not None and _pair(rate) == expected


_SEED_CASES = [
    LEHMER,
    IntPoly([-1, 1]) ** 2 * IntPoly([-3, 1]),              # repeated root below the largest
    IntPoly([0, 1]) * IntPoly([-13, 10]),                   # roots 0 and 13/10
    IntPoly([-5, 4]) * IntPoly([-3, 2]) * IntPoly([1, 1]),  # dyadic roots 5/4 and 3/2
    _linear(7, 2**12) * _linear(8, 2**12) * IntPoly([-1, 0, 1]),  # a close pair
    parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1"),
]


@pytest.mark.parametrize("p", _SEED_CASES)
@pytest.mark.parametrize("largest", [True])  # the largest root is the one sought from an estimate
def test_float_estimate_only_chooses_where_to_look(monkeypatch, p, largest):
    width = Fraction(1, 10**9)
    true = isolate_largest_real_root(p, width)
    step = max(true.width, width)
    # the polish stops within a quarter of a cell, so an estimate may be that
    # far off, with that radius, on either side of a cell's end
    seeds = [0.0, math.nan, 1e300, -1e300,
             math.nextafter(float(true.low), -math.inf),
             float(true.low - 2 * step), float(true.high + 2 * step),
             float(true.low - step / 4), float(true.high + step / 4)]
    for x in seeds:
        for radius in (0.0, 1e-30, float(step) / 4, 1.0, math.nan):
            monkeypatch.setattr(roots, "_root_estimate", lambda poly, bound, cell, v=(x, radius): v)
            assert _pair(isolate_largest_real_root(p, width)) == _pair(true), (x, radius)


def _cell_width(p, width):
    """The width of the depth-J cells of p's grid, which the estimate is given."""
    span = 2 * roots.root_bound(p)
    return span / 2**roots._halvings(span.numerator, 1, width)


@pytest.mark.parametrize("p", _SEED_CASES)
def test_polish_stops_within_a_quarter_of_the_cell(p):
    f, width = p.primitive(), Fraction(1, 10**9)
    cell = _cell_width(f, width)
    x, radius = roots._root_estimate(f, roots.root_bound(f), cell)
    iv = isolate_largest_real_root(p, width)
    assert radius <= max(cell / 4, Fraction(2.0**-50 * abs(x)))
    assert iv.low - cell / 4 <= Fraction(x) <= iv.high + cell / 4


def _counting_signs(monkeypatch) -> list:
    """The points u / v at which the integer sign kernel, which IntPoly.sign_at
    also calls, takes a sign from now on."""
    points, sign_at = [], intpoly._sign_at
    def record(coeffs, u, v):
        points.append(Fraction(u, v))
        return sign_at(coeffs, u, v)
    for module in (intpoly, roots):
        monkeypatch.setattr(module, "_sign_at", record)
    return points


@pytest.mark.parametrize("p", _SEED_CASES + [char_poly_star(2, 3, 7), char_poly_star(10, 10, 12, 12, 12)])
def test_certificate_from_the_root_cell_takes_at_most_three_signs(monkeypatch, p):
    # one sign at each end of the estimate's cell places the root, at depth J
    width = Fraction(1, 10**9)
    true = isolate_largest_real_root(p, width)
    x = float(true.midpoint()) if true.width else float(true.low - width / 2)
    monkeypatch.setattr(roots, "_root_estimate", lambda f, bound, cell: (x, 0.0))
    points = _counting_signs(monkeypatch)
    iv = roots._descartes_largest(p, p.primitive(), width)
    assert 1 <= len(points) <= 3, points
    assert (iv.low, iv.high) == (true.low, true.high)


def test_estimate_takes_few_evaluations_on_theorem2_polygons(monkeypatch):
    # every 30th hyperbolic polygon, k = 3..6, p <= 12: the star polynomial and
    # the reversed growth denominator.  Laguerre's first step from B overshoots
    # on these; the estimate recovers and stays with Laguerre instead of
    # crawling down from B by Newton steps (about 26 evaluations, 49 at most).
    counts, from_above = [], roots._from_above
    def counting(log_derivatives, n, x):
        counts.append(0)
        def counted(x):
            counts[-1] += 1
            return log_derivatives(x)
        return from_above(counted, n, x)
    monkeypatch.setattr(roots, "_from_above", counting)
    polygons = [ps for k in range(3, 7) for ps in itertools.combinations_with_replacement(range(2, 13), k)
                if polygon_is_hyperbolic(ps)]
    for ps in polygons[::30] + [(10, 10, 12, 12, 12)]:
        for p in (char_poly_star(*ps), polygon_growth(*ps).denominator.reversed()):
            f = p.primitive()
            roots._root_estimate(f, roots.root_bound(f), _cell_width(f, Fraction(1, 10**9)))
    assert len(counts) == 2 * len(polygons[::30]) + 2
    assert sum(counts) <= 12 * len(counts) and max(counts) <= 32, (sum(counts) / len(counts), max(counts))


def test_coefficients_beyond_float_range_take_the_bisection():
    p = IntPoly([-(2**1100), 1]) * IntPoly([-3, 0, 1])
    assert math.isnan(roots._root_estimate(p, roots.root_bound(p), Fraction(1, 10**9))[0])
    for width in (Fraction(1, 10**9), Fraction(1, 2**1200)):
        assert _pair(isolate_largest_real_root(p, width)) == reference_isolate_largest(p, width)


# -- the Descartes certificate of the largest root -----------------------------------

from coxgrowth.diagram import path_tree  # noqa: E402
from coxgrowth.spectra import adjacency_char_poly, brouwer_neumaier_enumerate, spectral_radius_adjacency  # noqa: E402


def test_descartes_bound_is_exact_when_every_root_is_real():
    rng = random.Random(5)
    for _ in range(200):
        rs = [Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 8])) for _ in range(rng.randint(1, 6))]
        p = functools.reduce(IntPoly.__mul__, (_linear(r.numerator, r.denominator) for r in rs))
        a = Fraction(rng.randint(-40, 40), rng.choice([1, 3, 4, 7]))
        assert roots.descartes_bound(p, a) == sum(r > a for r in rs), (rs, a)


def _sturm_path(p, width):
    """The interval of the bisection from the whole grid, which lies on the
    squarefree part of p, checked against the oracle's Sturm bisection."""
    iv = roots._bisection_largest(p, width)
    assert iv.poly == squarefree_part(p)
    assert _pair(iv) == reference_isolate_largest(p, width)
    return _pair(iv)


_DECLINES = {
    # the pair 2 +- i lies above the top root 1: three variations at any a < 1
    "complex pair above": IntPoly([-1, 1]) * IntPoly([5, -4, 1]),
    "multiple top root": IntPoly([-2, 1]) ** 2 * IntPoly([1, 1]),
    # the float estimate lands near 1.335, far below the top root 2cos(pi/101)
    "wrong estimate": adjacency_char_poly(path_tree(100)),
}


@pytest.mark.parametrize("name", sorted(_DECLINES))
def test_descartes_path_declines_and_the_sturm_path_decides(name):
    p, width = _DECLINES[name], Fraction(1, 10**9)
    assert roots._descartes_largest(p, p.primitive(), width) is None
    expected = reference_isolate_largest(p, width)
    assert _pair(isolate_largest_real_root(p, width)) == expected
    assert _sturm_path(p, width) == expected


def _recording_work(monkeypatch) -> list:
    """(name, p) for each squarefree part and each Descartes bisection (the
    count) that roots computes from now on."""
    work = []
    for name in ("squarefree_part", "_cells"):
        fn = getattr(roots, name)
        def record(p, *args, fn=fn, name=name):
            work.append((name, p))
            return fn(p, *args)
        monkeypatch.setattr(roots, name, record)
    return work


def test_a_lower_end_at_the_next_root_stays_on_the_grid(monkeypatch):
    # t^2 - t on the grid (-4, 4]: the Sturm bisection stops at the cell (0, 4]
    # of the top root 1, whose lower end is the root 0; halving by signs then
    # meets 1 itself, as the Descartes path does from its window
    p, width = IntPoly([0, -1, 1]), Fraction(1, 10**9)
    expected = (Fraction(1), Fraction(1))
    work = _recording_work(monkeypatch)
    assert _pair(roots._descartes_largest(p, p.primitive(), width)) == expected
    assert work == []
    assert _sturm_path(p, width) == expected
    assert reference_isolate_largest(p, width) == expected


def _on_grid(x: Fraction, bound: Fraction, width: Fraction) -> bool:
    """Whether x is a point of the dyadic grid of (-bound, bound] down to cells
    at most width wide."""
    cells = 1
    while 2 * bound / cells > width:
        cells *= 2
    return ((x + bound) * cells / (2 * bound)).denominator == 1


@pytest.mark.parametrize("p,bound", [(IntPoly([0, -1, 0, 1]), 4), (IntPoly([0, -2, 0, 1]), 4)],
                         ids=["t^3 - t", "t^3 - 2t"])
def test_isolation_keeps_a_bisection_point_that_is_a_root_as_a_lower_end(p, bound):
    # the first bisection point 0 is a root and the lower end of the top root's cell (0, B]
    width = Fraction(1, 10**9)
    ivs = _real_roots(p, width)
    assert len(ivs) == 3
    for iv in ivs:
        assert _on_grid(iv.low, Fraction(bound), width) and _on_grid(iv.high, Fraction(bound), width)
    assert (ivs[-1].low, ivs[-1].high) == reference_refined(p, Fraction(0), Fraction(bound), width)
    assert _pair(ivs[-1]) == reference_isolate_largest(p, width)


def _tree_and_star_polys():
    trees = [item.tree for item in brouwer_neumaier_enumerate(25, 25)[::40]]
    yield from (adjacency_char_poly(t) for t in trees)
    yield from (char_poly_star(*ps) for ps in [(2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 3, 3, 3), (4, 5, 6)])


def test_descartes_path_gives_the_sturm_path_interval_on_trees_and_stars(monkeypatch):
    work = _recording_work(monkeypatch)
    for p in _tree_and_star_polys():
        for width in (Fraction(1, 10**7), Fraction(1, 2**40)):
            iv = roots._descartes_largest(p, p.primitive(), width)
            assert iv is not None and not work, p
            assert _pair(iv) == _sturm_path(p, width), (p, width)
            work.clear()


def _unreachable(*args):
    raise AssertionError("bisection taken where the Descartes certificate holds")


def test_descartes_path_computes_no_squarefree_part_and_no_count(monkeypatch):
    p = LEHMER * IntPoly([-3, 1])
    work = _recording_work(monkeypatch)
    monkeypatch.setattr(roots, "_bisection_largest", _unreachable)
    assert _pair(isolate_largest_real_root(p)) == reference_isolate_largest(p, roots.DEFAULT_WIDTH)
    assert work == []


# -- even and odd polynomials through g(y), y = x^2 ----------------------------------

from coxgrowth.diagram import h_graph, star_diagram  # noqa: E402


def _tree_chis():
    """Adjacency polynomials whose top root the Descartes certificate takes."""
    trees = [item.tree for item in brouwer_neumaier_enumerate(25, 25)[7::30]]
    trees += [path_tree(n) for n in (2, 5, 40)]
    trees += [star_diagram(*ps) for ps in [(2, 3, 7), (5, 5, 5, 5), (2, 18, 40)]]
    trees += [h_graph(*ps) for ps in [(2, 10, 3), (4, 38, 29)]]
    return [adjacency_char_poly(t) for t in trees]


def test_tree_polynomials_isolate_through_g_to_the_reference_interval():
    # Path:101 declines to the bisection
    for p in _tree_chis() + [adjacency_char_poly(t) for t in (path_tree(101), h_graph(9, 25, 14))]:
        assert roots._half(p) is not None, p
        for width in (Fraction(1, 10**7), Fraction(1, 2**40)):
            assert _pair(isolate_largest_real_root(p, width)) == reference_isolate_largest(p, width), p


def test_a_window_that_g_misses_is_retried_from_fs_own_estimate(monkeypatch):
    # on H(9, 25, 14) the Laguerre steps on g cross its close top pair near
    # y = 4.237 and stop at the lower root: g's window declines, f's certifies
    p = adjacency_char_poly(h_graph(9, 25, 14))
    results, window = [], roots._window
    monkeypatch.setattr(roots, "_window", lambda *args: results.append(window(*args)) or results[-1])
    monkeypatch.setattr(roots, "_bisection_largest", _unreachable)
    for width in (Fraction(1, 10**7), Fraction(1, 2**40)):
        results.clear()
        assert _pair(isolate_largest_real_root(p, width)) == reference_isolate_largest(p, width)
        assert results[0] is None and results[1] is not None


def test_a_tree_polynomial_is_shifted_once_on_half_its_coefficients(monkeypatch):
    lengths, shift = [], intpoly._taylor_shift
    monkeypatch.setattr(roots, "_taylor_shift",
                        lambda coeffs, c: lengths.append(len(coeffs)) or shift(coeffs, c))
    for p in _tree_chis():
        lengths.clear()
        isolate_largest_real_root(p, Fraction(1, 10**7))
        assert lengths == [p.degree // 2 + 1], p


def _even(g: IntPoly, e: int) -> IntPoly:
    """x^e g(x^2)."""
    coeffs = [0] * (2 * g.degree + 1)
    coeffs[::2] = g.coeffs
    return IntPoly([0] * e + coeffs)


_G_PLANTED = {
    # g has no positive root: f's own estimate, and no real root or only 0
    "no positive root": (IntPoly([4, 5, 1]) * IntPoly([1, 1, 1]), False),
    # the pair -1 +- 2i of g lies further out than its top real root 2, but
    # to the left of it, as x = +-(0.79 +- 1.27i) lies left of sqrt 2
    "complex top pair": (IntPoly([5, 2, 1]) * IntPoly([-2, 1]), True),
    # the pair 3 +- i of g lies right of 2: the certificate declines
    "complex pair to the right": (IntPoly([10, -6, 1]) * IntPoly([-2, 1]), False),
    # f's top root 2 is a grid point: a point interval
    "top root on the grid": (IntPoly([-4, 1]) * IntPoly([1, 1]) * IntPoly([-1, 1]), True),
}


@pytest.mark.parametrize("name", sorted(_G_PLANTED))
@pytest.mark.parametrize("e", [0, 1])
def test_planted_even_and_odd_polynomials_give_the_reference_interval(name, e):
    g, certifies = _G_PLANTED[name]
    p = _even(g, e)
    for width in (Fraction(1, 10**9), Fraction(1, 3)):
        assert (roots._descartes_largest(p, p.primitive(), width) is not None) == certifies
        expected = reference_isolate_largest(p, width)
        if expected is None:
            with pytest.raises(NoRealRootError):
                isolate_largest_real_root(p, width)
            continue
        iv = isolate_largest_real_root(p, width)
        assert _pair(iv) == expected, (p, width)
        if name == "top root on the grid":
            assert iv.low == iv.high == 2
        above = largest_root_above_one(p, width)
        assert (above and _pair(above)) == (expected if expected[1] > 1 else None)


def test_a_window_starting_at_0_shifts_f_itself(monkeypatch):
    # the root 2^-29.5 lies in the grid cell (2^-30, 2^-29] at width 1e-9, so
    # the window starts at 0, where f, not g, is shifted
    p = IntPoly([-1, 0, 2**59])
    points, shifted = [], roots._shifted
    monkeypatch.setattr(roots, "_shifted", lambda f, a: points.append((f, a)) or shifted(f, a))
    monkeypatch.setattr(roots, "_bisection_largest", _unreachable)
    iv = isolate_largest_real_root(p, roots.DEFAULT_WIDTH)
    assert points == [(p, 0)]
    assert _pair(iv) == reference_isolate_largest(p, roots.DEFAULT_WIDTH)


# -- the largest root above 1: the trace polynomial, or one Taylor shift ------------


def _counting_shifts(monkeypatch) -> list:
    """The shift point c of each Taylor shift made from now on."""
    points, shift = [], intpoly._taylor_shift
    def counted(coeffs, c):
        points.append(c)
        return shift(coeffs, c)
    for module in (intpoly, roots):
        monkeypatch.setattr(module, "_taylor_shift", counted)
    return points


def test_theorem2_top_roots_take_no_taylor_shift(monkeypatch):
    # every 10th polygon of verify theorem2 at its defaults (k <= 5, p <= 8):
    # growth_rate's input and the star's Coxeter polynomial are reciprocal,
    # with one root above 1 and every other root in the closed unit disk, so
    # their trace polynomial reads one variation and the window, starting
    # above 1, needs no shift
    width = roots.DEFAULT_WIDTH
    polygons = [ps for k in range(3, 6) for ps in _hyperbolic_tuples(k, 8)][::10]
    shifts = _counting_shifts(monkeypatch)
    for ps in polygons:
        for p in (polygon_growth(*ps).denominator.reversed().primitive(), char_poly_star(*ps)):
            shifts.clear()
            iv = largest_root_above_one(p, width)
            assert shifts == [] and roots._trace(p) is not None, ps
            expected = reference_isolate_largest(p, width)
            assert _pair(iv) == expected == _pair(roots._bisection_largest(p, width)), ps
    assert len(polygons) == 75


_PLANTED = {
    # (p, width, the route that decides: the estimate whose window certifies,
    # T, g or f, or the bisection; the shift points made, None for a window's
    # point near the top root)
    # reciprocal, p(1) = 0: T = s T_Lehmer reads one variation, and the window
    # at or above 1 is not shifted
    "root at 1": (LEHMER * IntPoly([-1, 1]), roots.DEFAULT_WIDTH, "T", []),
    # not reciprocal, x^2 - 3 = g(x^2): g shifted to 1 reads one variation,
    # and g's window, above 1, is not shifted
    "even, one root above 1": (IntPoly([-3, 0, 1]), roots.DEFAULT_WIDTH, "g", [1]),
    # not reciprocal: three variations at 1, and the window at 3 is shifted
    "second real root above 1": (IntPoly([-2, 1]) * IntPoly([-3, 1]) * LEHMER, roots.DEFAULT_WIDTH,
                                 "f", [1, None]),
    # not reciprocal: the pair 2 +- i right of 1 gives three variations at 1
    "complex pair right of 1": (IntPoly([5, -4, 1]) * IntPoly([-3, 1]), roots.DEFAULT_WIDTH,
                                "f", [1, None]),
    # one variation of T, but on T's grid the window of half-wide cells
    # around the top root, in (1, 3/2], starts at 1/2 and declines; f's
    # estimate picks the same window, which is not shifted again
    "window below 1": (LEHMER, Fraction(1, 2), "bisection", [Fraction(1, 2), -4]),
    # not reciprocal: two variations at 1 from the pair 2 +- i, and the top
    # real root is -3
    "complex pair and no root above 1": (IntPoly([5, -4, 1]) * IntPoly([3, 1]), roots.DEFAULT_WIDTH,
                                         "bisection", [1, None, -8]),
    # every root on the unit circle: T has no variation, and nothing is shifted
    "cyclotomic": (functools.reduce(IntPoly.__mul__, [cyclotomic(2), cyclotomic(3) ** 2, cyclotomic(5),
                                                      cyclotomic(12)]), roots.DEFAULT_WIDTH, None, []),
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_inputs_the_shift_to_1_leaves_open_take_the_deep_shift(monkeypatch, name):
    # a reciprocal input is counted on its trace polynomial T and not shifted
    # to 1, any other is shifted to 1 first; no window is shifted twice
    p, width, route, expected_points = _PLANTED[name]
    f = p.primitive()
    points, estimated, decided = [], [], [None]
    shifted, estimate = roots._shifted, roots._root_estimate
    window, bisection = roots._window, roots._bisection_largest
    monkeypatch.setattr(roots, "_shifted", lambda q, a: points.append(a) or shifted(q, a))
    monkeypatch.setattr(roots, "_root_estimate", lambda q, *args: estimated.append(q) or estimate(q, *args))

    def seed() -> str:
        # each estimate is made just before its window: the last one seeded it
        return "T" if estimated[-1] == roots._trace(f) else "g" if estimated[-1] == roots._half(f) else "f"

    def recorded(stage, fn):
        def run(*args):
            iv = fn(*args)
            decided.append(None if iv is None else stage or seed())
            return iv
        return run
    monkeypatch.setattr(roots, "_window", recorded(None, window))
    monkeypatch.setattr(roots, "_bisection_largest", recorded("bisection", bisection))
    iv = largest_root_above_one(p, width)
    reciprocal = p.reversed() in (p, -p)
    assert (roots._trace(p) is not None) == reciprocal and (points[:1] == [1]) != reciprocal
    assert [a if e is not None else None for a, e in zip(points, expected_points)] == expected_points, points
    assert len(points) == len(expected_points) and decided[-1] == route
    if name == "window below 1":
        assert roots._variations(map(roots._sign, roots._trace(p).coeffs)) == 1 and p(1) != 0
    if reference_count(p, Fraction(1), _reference_bound(p)) > 0:
        assert _pair(iv) == reference_isolate_largest(p, width)
    else:
        assert iv is None


_SALEM_4 = IntPoly([1, -1, -1, -1, 1])  # the Salem number 1.7220838...
_PHI_1, _PHI_2 = IntPoly([-1, 1]), IntPoly([1, 1])

_RECIPROCAL = {
    # name: (p, whether T has a non-real pair with positive real part)
    "Lehmer": (LEHMER, False),
    "Salem 4": (_SALEM_4, False),
    "3 Lehmer, not primitive": (3 * LEHMER, False),
    "-Lehmer": (-LEHMER, False),
    "roots 2 and 1/2": (IntPoly([2, -5, 2]), False),
    # root_bound 2, below root_bound(T) = 8: at widths of 4 and more the top
    # cell on p's grid is (1, 2], which parts the root from its inverse
    "root bound 2": (IntPoly([10, -9, -9, -9, 10]), False),
    "Lehmer Phi_2": (LEHMER * _PHI_2, False),
    "Salem 4 Phi_2^3": (_SALEM_4 * _PHI_2 ** 3, False),
    "Lehmer Phi_1": (LEHMER * _PHI_1, False),
    "Salem 4 Phi_1^3": (_SALEM_4 * _PHI_1 ** 3, False),
    "Lehmer Phi_1 Phi_2": (LEHMER * _PHI_1 * _PHI_2, False),
    "Lehmer Phi_1^3 Phi_2^2": (LEHMER * _PHI_1 ** 3 * _PHI_2 ** 2, False),
    "Phi_1^2 Phi_2": (_PHI_1 ** 2 * _PHI_2, False),
    # two roots above 1
    "two Salem": (LEHMER * _SALEM_4, False),
    "two Salem Phi_1": (LEHMER * _SALEM_4 * _PHI_1, False),
    # quadruples r e^(+-i theta), e^(+-i theta) / r
    "1 +- i sqrt 3": (IntPoly([4, -2, 1]) * IntPoly([1, -2, 4]), False),
    "1 +- i sqrt 3, Lehmer": (IntPoly([4, -2, 1]) * IntPoly([1, -2, 4]) * LEHMER, False),
    "3 +- i": (IntPoly([10, -6, 1]) * IntPoly([1, -6, 10]), True),
    "3 +- i, Lehmer": (IntPoly([10, -6, 1]) * IntPoly([1, -6, 10]) * LEHMER, True),
    "3 +- i, Phi_1": (IntPoly([10, -6, 1]) * IntPoly([1, -6, 10]) * _PHI_1, True),
}


@pytest.mark.parametrize("name", sorted(_RECIPROCAL))
def test_the_trace_polynomial_of_a_reciprocal_input(name):
    p, right_pair = _RECIPROCAL[name]
    f = p.primitive()
    t = roots._trace(f)
    # q = f (x - 1)^a (x + 1)^b is palindromic of even degree 2m, q(x) = x^m T(x + 1/x - 2)
    a = int(f.reversed() == -f)
    q = f * _PHI_1 ** a * _PHI_2 ** ((f.degree + a) % 2)
    assert q.reversed() == q and q.degree % 2 == 0 and t.degree == q.degree // 2
    for x in (Fraction(3, 7), Fraction(-5, 2), Fraction(2), Fraction(1), Fraction(-1)):
        assert q(x) == x ** (q.degree // 2) * t(x + 1 / x - 2), x
    # T's variations bound the roots above 1, as Descartes' rule does for
    # the positive roots of T.  The roots of T are real but for the images of
    # non-real roots r e^(+-i theta) off the unit circle, of real part
    # (r + 1/r) cos theta - 2; where that is positive they add two variations
    above = reference_count(p, Fraction(1), _reference_bound(p))
    variations = roots._variations(map(roots._sign, t.coeffs))
    assert variations >= above and (variations - above) % 2 == 0
    assert (variations == above) != (right_pair and above <= 1)


@pytest.mark.parametrize("name", sorted(_RECIPROCAL))
def test_the_trace_route_gives_the_reference_interval(name):
    p = _RECIPROCAL[name][0]
    above = reference_count(p, Fraction(1), _reference_bound(p)) > 0
    for width in (Fraction(1, 10**9), Fraction(1, 2**40), Fraction(1, 3), Fraction(1), Fraction(3),
                  Fraction(4), Fraction(1000)):
        iv = largest_root_above_one(p, width)
        if above:
            assert _pair(iv) == reference_isolate_largest(p, width), width
        else:
            assert iv is None, width


_reciprocal_polys = st.tuples(
    st.lists(_small_factors, min_size=1, max_size=3).map(lambda fs: functools.reduce(IntPoly.__mul__, fs)),
    st.integers(0, 2), st.integers(0, 2)).filter(lambda t: t[0].constant != 0).map(
    lambda t: t[0] * t[0].reversed() * _PHI_1 ** t[1] * _PHI_2 ** t[2])


@given(_reciprocal_polys, _widths)
@settings(max_examples=100, deadline=None)
# T = t^2 (2t^4 + 22t^3 + 50t^2 - 23t + 4): its estimate s is so close to 0
# that r = 1 + (s + sqrt(s^2 + 4s))/2 rounds to 1.0 in floats
@example(IntPoly([2, 0, -38, 89, -19, -144, 144, 19, -89, 38, 0, -2]), Fraction(1, 10**9))
def test_reciprocal_inputs_give_the_reference_interval_above_one(p, width):
    # p rev(p) has the roots r and 1/r for each root r of p, and Phi_1^a Phi_2^b
    # makes it anti-palindromic or of odd degree
    assert roots._trace(p.primitive()) is not None
    iv = largest_root_above_one(p, width)
    if reference_count(p, Fraction(1), _reference_bound(p)) > 0:
        assert _pair(iv) == reference_isolate_largest(p, width)
    else:
        assert iv is None


def test_non_reciprocal_inputs_have_no_trace_polynomial():
    for p in (IntPoly([]), IntPoly([5]), IntPoly([1, 2]), IntPoly([0, 1, 0, 1]), LEHMER * IntPoly([-2, 1]),
              IntPoly([1, 0, 1, 1])):
        assert roots._trace(p) is None, p
    # a constant is reciprocal but has no root: no trace, and no root above 1
    assert largest_root_above_one(IntPoly([5])) is None


_ONE_ABOVE_ONE = [LEHMER, char_poly_star(2, 3, 7), polygon_growth(3, 3, 7).denominator.reversed().primitive()]


@pytest.mark.parametrize("p", _ONE_ABOVE_ONE)
def test_a_window_off_the_root_gives_the_same_interval_above_one(monkeypatch, p):
    # with one variation at 1 the window at a >= 1 is not shifted; an estimate
    # that puts the root below the window (f(a) >= 0, where the shift would
    # read no variation) or above it sends the walk to the bisection
    width = Fraction(1, 10**9)
    expected = reference_isolate_largest(p, width)
    step = expected[1] - expected[0]
    seeds = [float(expected[0] + k * step) for k in (-3, -2, 2, 3, 4)] + [float(expected[0])]
    for x in seeds:
        monkeypatch.setattr(roots, "_root_estimate", lambda poly, bound, cell, v=(x, 0.0): v)
        assert _pair(largest_root_above_one(p, width)) == expected, x


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 10)])
def test_non_positive_widths_raise_at_once(width):
    for isolate in (isolate_largest_real_root, largest_root_above_one):
        with pytest.raises(ValueError):
            isolate(LEHMER, width)
    with pytest.raises(ValueError, match="width must be positive"):
        spectral_radius_adjacency(path_tree(5), width)  # bisected by counts, not here
    iv = isolate_largest_real_root(LEHMER, Fraction(1, 10))
    with pytest.raises(ValueError):
        iv.refined(width)
    point = RootInterval(IntPoly([-1, 1]), Fraction(1), Fraction(1))
    assert point.refined(width) is point
    with pytest.raises(ValueError, match="width must be positive"):
        sqrt_interval(Fraction(2), Fraction(3), width)


@pytest.mark.parametrize("make, args, message", [
    (RootInterval, (IntPoly([-2, 0, 1]), Fraction(2), Fraction(1)), "empty interval"),
    (sqrt_interval, (Fraction(-1), Fraction(1)), "negative radicand"),
    (sqrt_interval, (Fraction(2), Fraction(1)), "empty interval"),
])
def test_empty_intervals_and_negative_radicands_are_refused(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


def test_compare_computes_no_squarefree_part_and_no_count(monkeypatch):
    # the gcd LEHMER has one simple root in the common part: its signs decide
    work = _recording_work(monkeypatch)
    a = isolate_largest_real_root(LEHMER * IntPoly([1, 0, 1]), Fraction(1, 10**6))
    b = isolate_largest_real_root(LEHMER * IntPoly([3, 1]) ** 2, Fraction(1, 10**3))
    assert compare(a, b) == 0
    assert work == []


_DOUBLE = IntPoly([-2, 0, 1]) ** 2


def _double_root_pairs():
    """(a, b, order of their roots) for default intervals around the double
    roots sqrt 2 of (t^2 - 2)^2 (t + 1) and of (t^2 - 2)^2 (t - 5), and sqrt 3
    of (t^2 - 3)^2, as _alpha0_interval builds its interval."""
    a = RootInterval(_DOUBLE * IntPoly([1, 1]), Fraction(1), Fraction(3, 2))
    b = RootInterval(_DOUBLE * IntPoly([-5, 1]), Fraction(7, 5), Fraction(2))
    c = RootInterval(IntPoly([-3, 0, 1]) ** 2, Fraction(3, 2), Fraction(2))
    return [(a, b, 0), (b, a, 0), (a, c, -1), (c, a, 1)]


def test_compare_of_two_intervals_built_around_a_double_root():
    # each holds its squarefree part, so the gcd t^2 - 2 of the first two has
    # a simple root in the common part (7/5, 3/2], and no squarefree part of
    # the gcd is needed
    for a, b, order in _double_root_pairs():
        assert compare(a, b) == order
    a = _double_root_pairs()[0][0]
    assert RootInterval(_DOUBLE * IntPoly([1, 1]), Fraction(1), Fraction(3, 2), False) == a


def test_refine_until_disjoint_decides_equality_once(monkeypatch):
    same_root, calls = roots._same_root, []
    monkeypatch.setattr(roots, "_same_root", lambda a, b: calls.append((a, b)) or same_root(a, b))
    # sqrt(2 + 10^-6) shares the interval of sqrt 2 for a few rounds
    pairs = _double_root_pairs()
    near = RootInterval(IntPoly([-(2 * 10**6 + 1), 0, 10**6]), Fraction(1), Fraction(3, 2))
    for a, b, order in pairs + [(pairs[0][0], near, -1), (near, pairs[0][0], 1)]:
        calls.clear()
        if order == 0:
            with pytest.raises(roots.SeparationError):
                refine_until_disjoint(a, b)
        else:
            a, b = refine_until_disjoint(a, b)
            assert (a.is_strictly_below(b), b.is_strictly_below(a)) == (order < 0, order > 0)
        assert len(calls) <= 1


def test_compare_reads_the_gcd_just_right_of_a_lower_end_that_is_a_root():
    # g = (t - 1)(t - 2) vanishes at the lower end 1 of the common part (1, 5/2],
    # where g' < 0 gives its sign just right of 1; the shared root 2 lies inside
    x1, x2 = IntPoly([-1, 1]), IntPoly([-2, 1])
    a = RootInterval(x1 * x2, Fraction(1), Fraction(3))
    b = RootInterval(x1 * x2 * IntPoly([5, 1]), Fraction(1), Fraction(5, 2))
    assert compare(a, b) == 0 and compare(b, a) == 0
    # with only the root 1 shared, at the lower end, the roots 3 and 7/4 differ
    c = RootInterval(x1 * IntPoly([-3, 1]), Fraction(1), Fraction(4))
    d = RootInterval(x1 * IntPoly([-7, 4]), Fraction(1), Fraction(2))
    assert compare(c, d) == 1 and compare(d, c) == -1


# -- the integer grid and the one bisection ------------------------------------------

from coxgrowth.coxtrans import alpha_from_lambda  # noqa: E402
from coxgrowth.growth import steinberg_growth  # noqa: E402
from coxgrowth.diagram import parse_coxeter_symbol  # noqa: E402
from coxgrowth.numclass import strip_cyclotomic  # noqa: E402


def _recording_halve(monkeypatch) -> list:
    """The interval that each call of roots._halve returns from now on."""
    results, halve = [], roots._halve
    monkeypatch.setattr(roots, "_halve", lambda *args: results.append(halve(*args)) or results[-1])
    return results


def _estimate(monkeypatch, x: float, radius: float) -> None:
    """Make every float estimate of the top root x, with the given error radius."""
    monkeypatch.setattr(roots, "_root_estimate", lambda poly, bound, cell: (x, radius))


def test_cells_wider_than_1_have_integer_grid_points(monkeypatch):
    # B = 128 and width 5: cells 4 wide, so at depth j <= 6 < e = 7 every point is an integer
    p, width = _linear(37, 1) * _linear(-3, 1) * _linear(5, 1), Fraction(5)
    points = _counting_signs(monkeypatch)
    iv = roots._descartes_largest(p, p.primitive(), width)
    assert roots.root_bound(p) == 128 and points
    assert all(x.denominator == 1 for x in points)
    assert _pair(iv) == reference_isolate_largest(p, width) == (Fraction(36), Fraction(40))


def test_a_window_starting_below_0_shifts_f(monkeypatch):
    # the root 1/8 lies in the first positive cell (0, 1/4], so the window starts at -1/4
    p, width = _linear(1, 8) * _linear(-5, 1), Fraction(1, 4)
    points, shifted = [], roots._shifted
    monkeypatch.setattr(roots, "_shifted", lambda f, a: points.append((f, a)) or shifted(f, a))
    assert _pair(roots._descartes_largest(p, p.primitive(), width)) == reference_isolate_largest(p, width)
    assert points == [(p.primitive(), Fraction(-1, 4))]


@pytest.mark.parametrize("p", [-(IntPoly([-2, 0, 1]) * _linear(-3, 1)), -LEHMER, _linear(-13, -10)],
                         ids=["-(t^2 - 2)(t + 3)", "-Lehmer", "13 - 10t"])
def test_a_negative_leading_coefficient_bisects_on_p(monkeypatch, p):
    # a radius of 2^-10 seeds the window about 20 depths above J: _halve
    # takes p's sign just right of the lower end from -lc(p)
    width = Fraction(1, 10**9)
    expected = reference_isolate_largest(p, width)
    _estimate(monkeypatch, float(expected[1]), 2.0**-10)
    halved = _recording_halve(monkeypatch)
    iv = roots._descartes_largest(p, p.primitive(), width)
    assert p.leading < 0 and iv.poly == p and halved == [iv]
    assert _pair(iv) == expected


def test_a_root_on_the_grid_is_a_point_from_the_walk(monkeypatch):
    p, width = _linear(5, 4) * _linear(-1, 1), Fraction(1, 10**9)
    halved = _recording_halve(monkeypatch)
    iv = roots._descartes_largest(p, p.primitive(), width)
    assert (iv.low, iv.high) == (Fraction(5, 4),) * 2 == reference_isolate_largest(p, width)
    assert halved == []


def test_a_root_on_a_halving_midpoint_is_a_point_from_halve(monkeypatch):
    # B = 2 and the radius 1/2 seed depth-2 cells, 1 wide: the root 5/4 lies
    # inside the cell (1, 2], and the second halving meets it
    p, width = _linear(5, 4) * _linear(-1, 1), Fraction(1, 10**9)
    _estimate(monkeypatch, 1.3, 0.5)
    halved = _recording_halve(monkeypatch)
    iv = roots._descartes_largest(p, p.primitive(), width)
    assert roots.root_bound(p) == 2
    assert halved == [iv] and (iv.low, iv.high) == (Fraction(5, 4),) * 2 == reference_isolate_largest(p, width)


@pytest.mark.parametrize("p", _ONE_ABOVE_ONE)
def test_a_deferred_window_above_the_root_declines_at_its_start(monkeypatch, p):
    # one variation at 1 spares the window at a >= 1 its shift; an estimate in
    # the cell (hi + 3 step, hi + 4 step] puts a at hi + 2 step, above the
    # root's cell (lo, hi]: the walk goes down to a, reads f(a) > 0, and declines
    width = Fraction(1, 10**9)
    expected = reference_isolate_largest(p, width)
    step = expected[1] - expected[0]
    _estimate(monkeypatch, float(expected[1] + 7 * step / 2), 0.0)
    shifts = []
    monkeypatch.setattr(roots, "_shifted", lambda f, a: shifts.append(a))
    points = _counting_signs(monkeypatch)
    assert roots._descartes_largest(p, p.primitive(), width, one_above_one=True) is None
    assert shifts == [] and points[-1] == expected[1] + 2 * step and p.sign_at(points[-1]) > 0
    monkeypatch.undo()
    assert _pair(largest_root_above_one(p, width)) == expected


def _alpha0() -> RootInterval:
    """alpha0 as tree_sweep builds it: the adjacency transfer of the growth rate
    of [3,5,3], with ends from sqrt_interval that are not dyadic."""
    f = steinberg_growth(parse_coxeter_symbol("[3,5,3]"))
    lam = growth_rate(f, Fraction(1, 10**15))
    apoly = alpha_from_lambda(strip_cyclotomic(f.denominator)[0])
    lo, hi = alpha_from_lambda(lam, Fraction(1, 2 * 10**13))
    return RootInterval(apoly, lo, hi)


def test_refining_non_dyadic_ends_gives_the_oracles_bisection():
    alpha0 = _alpha0()
    assert {alpha0.low.denominator & (alpha0.low.denominator - 1),
            alpha0.high.denominator & (alpha0.high.denominator - 1)} != {0}
    for width in (Fraction(1, 10**13), Fraction(1, 10**20), alpha0.width / 3, Fraction(1, 2**80)):
        assert _pair(alpha0.refined(width)) == reference_refined(alpha0.poly, alpha0.low, alpha0.high, width)
    # the root 7/12 is the midpoint of the second halving of (1/3, 2/3], and
    # 29/48 that of the fourth: a point over a denominator 3 * 2^k
    for root in (Fraction(7, 12), Fraction(29, 48)):
        p = _linear(root.numerator, root.denominator) * _linear(-1, 1)
        for lo, hi in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(5, 7))):
            iv = RootInterval(p, lo, hi).refined(Fraction(1, 10**6))
            assert (iv.low, iv.high) == reference_refined(p, lo, hi, Fraction(1, 10**6))
            assert iv.low == iv.high == root or hi == Fraction(5, 7)


def test_a_window_builds_fractions_only_for_its_shift_point_and_ends(monkeypatch):
    # between the estimate and the interval no Fraction is built or combined
    # (Fraction arithmetic builds its result through Fraction.__new__ up to
    # CPython 3.11): one shift point, unless deferred, and two ends, or one point
    built, new = [], Fraction.__new__
    def counting(cls, *args, **kwargs):
        built[-1] += 1
        return new(cls, *args, **kwargs)
    window = roots._window
    def counted_window(*args):
        built.append(0)
        monkeypatch.setattr(Fraction, "__new__", counting)
        try:
            return window(*args)
        finally:
            monkeypatch.setattr(Fraction, "__new__", new)
    monkeypatch.setattr(roots, "_window", counted_window)
    for p in _tree_chis() + _ONE_ABOVE_ONE + _SEED_CASES:
        isolate_largest_real_root(p, Fraction(1, 10**7))
        largest_root_above_one(p, Fraction(1, 2**40))
    assert max(built) == 3 and len(built) > 2 * len(_tree_chis())


# -- the Fujiwara bound in one pass, and each window's anchor --------------------------

from oracles import reference_root_bound  # noqa: E402

_bound_polys = st.tuples(
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80), st.sampled_from([0, 2**40, -2**63])),
             min_size=1, max_size=12),
    st.one_of(st.integers(1, 9), st.integers(1, 2**40)), st.booleans()).map(
    lambda t: IntPoly([*t[0], -t[1] if t[2] else t[1]]))


@given(_bound_polys)
@settings(max_examples=300, deadline=None)
# c = d 2^(mk) exactly: 2^12 = 2^(4*3) at k = 3, the least m 5
@example(IntPoly([0, 0, 0, 0, 2**12, 0, 0, 1]))
def test_root_bound_equals_the_exact_fraction_oracle(p):
    assert roots.root_bound(p) == reference_root_bound(p)


@pytest.mark.parametrize("coeffs, bound", [
    ([0, -4, 1], 16),  # c = 4 = d 2^(2*1): m = 2 fails at equality, so B = 2^(3+1)
    ([0, -3, 1], 8),
    ([-8, 0, 1], 8),  # the halved k = n term: 8 = (2 * 1) 2^(1*2), m = 2
    ([-7, 0, 1], 4),
    ([0, 4, -1], 16),  # a negative leading coefficient
    ([-4, 0, 0, 0, 0, 0, 1], 4),  # zero coefficients and b = 1 at k = n = 6: m = 1
    ([-1, 0, 0, 0, 0, 1], 2),  # x^5 - 1: every term below 2^0
    ([-12, 3], 8),  # degree 1: 12 = (2 * 3) 2^1, so m = 2
    ([-1, 1], 2),
    ([5, 1], 8),
    ([2**100, 0, 1], 2**51),  # halved, 2^99 < 2^(2m): m = 50
])
def test_root_bound_at_the_ends_of_each_comparison(coeffs, bound):
    p = IntPoly(coeffs)
    assert roots.root_bound(p) == reference_root_bound(p) == bound
    with pytest.raises(ValueError, match="constant polynomial"):
        roots.root_bound(IntPoly([7]))


def _recording_windows(monkeypatch) -> list:
    """For each window tried from now on, the points of the shifts it makes."""
    windows, window, shifted = [], roots._window, roots._shifted
    def recorded(*args):
        windows.append([])
        return window(*args)
    monkeypatch.setattr(roots, "_window", recorded)
    monkeypatch.setattr(roots, "_shifted", lambda f, a: windows[-1].append(a) or shifted(f, a))
    return windows


def test_each_deep_tree_window_shifts_once_at_a_short_anchor(monkeypatch):
    # every 10th tree of the Prop 5.2 sweep at bound 25: windows at depth about
    # 2^-24, whose starts have denominators far above 2^16; g is shifted to
    # the start's square rounded down to a denominator of 2^16
    width = Fraction(1, 10**7)
    windows = _recording_windows(monkeypatch)
    chis = [adjacency_char_poly(item.tree) for item in brouwer_neumaier_enumerate(25, 25)[::10]]
    for chi in chis:
        windows.clear()
        iv = isolate_largest_real_root(chi, width)
        assert _pair(iv) == reference_isolate_largest(chi, width), chi
        assert max(iv.low.denominator, iv.high.denominator) > 2**16
        assert windows and all(len(points) <= 1 for points in windows), windows
        assert all(a.denominator <= 2**16 for points in windows for a in points), windows
    assert len(chis) == 145


def test_a_second_root_between_the_anchor_and_the_window_declines():
    # the top root 4/3 and s = 4/3 - 2^-20 (near enough, on the 2^-40 grid):
    # at width 1e-9 the window starts at a = 4/3 - 2^-30 or so, one cell below
    # the root's, and its anchor c, a cut to a denominator of 2^16, lies below
    # s; the count at c reads both roots, so the window declines, where the
    # shift to a itself would read one root, and the bisection decides
    s = Fraction((4 << 40) // 3 - 2**20, 2**40)
    p, width = _linear(4, 3) * _linear(s.numerator, s.denominator), Fraction(1, 10**9)
    expected = reference_isolate_largest(p, width)
    a = 2 * expected[0] - expected[1]
    c = Fraction(math.floor(a * 2**16), 2**16)
    assert c < s < a and expected[0] < Fraction(4, 3) <= expected[1]
    assert roots.descartes_bound(p, a) == 1 and p.sign_at(a) != 0
    assert roots.descartes_bound(p, c) == 2
    points, shifted = [], roots._shifted
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_shifted", lambda f, x: points.append(x) or shifted(f, x))
        assert roots._descartes_largest(p, p.primitive(), width) is None
    assert points == [c]
    assert _pair(isolate_largest_real_root(p, width)) == expected


def test_no_bound_40_tree_window_declines_at_its_anchor_that_certifies_at_its_start(monkeypatch):
    # every 10th tree of brouwer_neumaier_enumerate(40, 40): with no cut the
    # anchor is the window's start itself, where the Descartes count was taken
    # before anchors; a 16-bit anchor declines no window more, and gives the
    # same intervals
    chis = [adjacency_char_poly(item.tree) for item in brouwer_neumaier_enumerate(40, 40)[::10]]
    for width in (Fraction(1, 10**7), Fraction(1, 2**60)):
        anchored = [roots._descartes_largest(chi, chi.primitive(), width) for chi in chis]
        with monkeypatch.context() as mp:
            mp.setattr(roots, "ANCHOR_BITS", 10**6)
            at_start = [roots._descartes_largest(chi, chi.primitive(), width) for chi in chis]
        assert [iv and (iv.low, iv.high) for iv in anchored] == [iv and (iv.low, iv.high) for iv in at_start]
        assert 0 < sum(iv is None for iv in at_start) < len(chis) / 4
