from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from coxgrowth import intpoly
from coxgrowth.coxtrans import alpha_from_lambda
from coxgrowth.intpoly import (
    ExactDivisionError,
    IntPoly,
    bracket,
    cyclotomic,
    exact_div,
    parse_poly,
    poly_gcd,
    reciprocity_type,
    squarefree_decomposition,
    squarefree_part,
)

from oracles import (
    expand_trace_form,
    palindromic_reduce,
    reference_signed_remainders,
    reference_squarefree_factors,
)

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=8).map(IntPoly)


def test_canonical_form():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly().degree == -1
    assert IntPoly([5]).degree == 0


def test_primitive_returns_a_primitive_input_itself():
    # IntPoly is frozen, so an input that is its own primitive part is returned as is
    for done in (LEHMER, IntPoly(), IntPoly([1])):
        assert done.primitive() is done
    for todo in (-LEHMER, 3 * LEHMER, IntPoly([-1])):
        assert todo.primitive() is not todo and todo.primitive() in (LEHMER, IntPoly([1]))


@given(small_polys)
def test_primitive_is_self_exactly_when_already_primitive(p):
    q = p.primitive()
    assert q.content() in (0, 1) and q.leading >= 0
    assert q * (p.content() if p.leading >= 0 else -p.content()) == p
    assert (q is p) == (q == p) and q.primitive() is q


def test_bracket_basics():
    assert bracket(1) == IntPoly([1])
    assert bracket(2) == IntPoly([1, 1])
    assert bracket(4) == IntPoly([1, 1, 1, 1])
    with pytest.raises(ValueError):
        bracket(0)


@pytest.mark.parametrize("k", range(1, 12))
def test_bracket_identity(k):
    # [k](t-1) = t^k - 1
    assert bracket(k) * IntPoly([-1, 1]) == IntPoly([-1] + [0] * (k - 1) + [1])


def test_ring_examples():
    assert bracket(2) * bracket(3) == IntPoly([1, 2, 2, 1])
    assert poly_gcd(IntPoly([-1, 0, 1]), IntPoly([-1, 0, 0, 1])) == IntPoly([-1, 1])
    assert exact_div(IntPoly([1, 1]) ** 2, IntPoly([1, 1])) == IntPoly([1, 1])


def test_exact_div_rejects_remainder():
    with pytest.raises(ExactDivisionError):
        exact_div(IntPoly([1, 0, 1]), IntPoly([1, 1]))


def test_exact_div_monic_remainder_is_final(monkeypatch):
    # a remainder left by the integral pass is unique over Q: no rational re-division
    def no_rationals(*args):
        raise AssertionError("re-divided over the rationals")

    monkeypatch.setattr(intpoly, "Fraction", no_rationals)
    with pytest.raises(ExactDivisionError):
        exact_div(bracket(601), IntPoly([1, 0, 1]))
    assert exact_div(IntPoly([-1, 0, 0, 1]), IntPoly([-1, 1])) == IntPoly([1, 1, 1])


def _quotient_over_q(a: IntPoly, b: IntPoly):
    """Long division over Fraction: the quotient when b | a in Z[t], else None."""
    rem = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(0, len(rem) - b.degree)
    for i in range(len(q) - 1, -1, -1):
        q[i] = rem[i + b.degree] / b.leading
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= q[i] * c
    if any(rem) or any(c.denominator != 1 for c in q):
        return None
    return IntPoly(int(c) for c in q)


@pytest.mark.parametrize("a, b", [
    (IntPoly([1, 5, 6]), IntPoly([1, 2])),         # (2t+1)(3t+1) / (2t+1): exact
    (IntPoly([1, 1]), IntPoly([2, 2])),            # exact over Q, quotient 1/2
    (IntPoly([1, 0, 1]), IntPoly([1, 2])),         # t^2 + 1 by 2t + 1: lc 2 does not divide 1
    (IntPoly([3, 0, 0, 2]), IntPoly([1, 0, 3])),   # 3 does not divide 2
    (IntPoly([2, 3, 1]) * IntPoly([5, 0, 3]), IntPoly([5, 0, 3])),
    (IntPoly([2, 3, 1]) * IntPoly([5, 0, 3]) + 1, IntPoly([5, 0, 3])),
])
def test_exact_div_non_monic_matches_rational_division(a, b):
    expected = _quotient_over_q(a, b)
    if expected is None:
        with pytest.raises(ExactDivisionError):
            exact_div(a, b)
    else:
        assert exact_div(a, b) == expected


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.degree >= 0 and not g.is_zero():
        if not a.is_zero():
            exact_div(a, g)
        if not b.is_zero():
            exact_div(b, g)


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_product_division_roundtrip(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert exact_div(a * b, b) == a
    rem = [c * b.leading ** (a.degree + 1) for c in (a * b).coeffs]
    intpoly._divide(rem, b.coeffs)
    assert not any(rem)


def test_parse_poly():
    assert parse_poly("1, -2, 3").coeffs == (1, -2, 3)
    assert parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1") == LEHMER
    with pytest.raises(ValueError):
        parse_poly("1,+2")
    with pytest.raises(ValueError):
        parse_poly("1,,2")
    with pytest.raises(ValueError):
        parse_poly("1,x")
    assert LEHMER.to_text() == "1,1,0,-1,-1,-1,-1,-1,0,1,1"


def test_parse_poly_reads_past_leading_zeros_and_refuses_more_than_4300_digits():
    # int() refuses to convert more than 4300 digits; the parser counts them first
    assert parse_poly("-1,0," + "0" * 5000 + "7").coeffs == (-1, 0, 7)
    assert parse_poly("-" + "0" * 5000 + "3,-0,1").coeffs == (-3, 0, 1)
    assert parse_poly("1," + "9" * 4300).coeffs == (1, 10**4300 - 1)
    for text in ("1," + "9" * 5000 + ",1", "1,-1" + "0" * 4300):
        with pytest.raises(ValueError, match="coefficient at position 2 has more than 4300 digits"):
            parse_poly(text)


def test_reciprocity():
    assert reciprocity_type(LEHMER) == "reciprocal"
    assert reciprocity_type(IntPoly([-1, 1])) == "anti_reciprocal"
    assert reciprocity_type(IntPoly([0, 2, 1])) == "neither"
    with pytest.raises(ValueError):
        reciprocity_type(IntPoly())


@pytest.mark.parametrize("coeffs", [[1, 1.5], [2.0, 1], [Fraction(1, 2)]])
def test_a_non_integer_coefficient_is_refused(coeffs):
    with pytest.raises(TypeError, match="integer coefficient expected"):
        IntPoly(coeffs)


def test_a_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative polynomial power"):
        IntPoly([1, 1]) ** -1


def test_cyclotomic_index_zero_is_refused():
    with pytest.raises(ValueError, match="cyclotomic index"):
        cyclotomic(0)


def test_palindromic_reduce_small():
    assert palindromic_reduce(IntPoly([1, 0, 1])) == IntPoly([0, 1])
    assert palindromic_reduce(IntPoly([1, 0, 0, 0, 1])) == IntPoly([-2, 0, 1])
    with pytest.raises(ValueError):
        palindromic_reduce(IntPoly([1, 2]))
    with pytest.raises(ValueError):
        palindromic_reduce(IntPoly([1, 1, 1, 1]))  # reciprocal but odd degree


def test_palindromic_reduce_roundtrips_lehmer():
    q = palindromic_reduce(LEHMER)
    assert q.degree == 5
    assert expand_trace_form(q, 5) == LEHMER


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_palindromic_roundtrip_random(half):
    # build a reciprocal polynomial as t^d q(t + 1/t), reduce it back
    q = IntPoly(half + [1])
    p = expand_trace_form(q)
    assert reciprocity_type(p) == "reciprocal"
    assert palindromic_reduce(p) == q


@pytest.mark.parametrize("n,expected", [
    (1, IntPoly([-1, 1])),
    (2, IntPoly([1, 1])),
    (3, IntPoly([1, 1, 1])),
    (6, IntPoly([1, -1, 1])),
    (12, IntPoly([1, 0, -1, 0, 1])),
])
def test_cyclotomic(n, expected):
    assert cyclotomic(n) == expected


def test_cyclotomic_product_identity():
    # prod over divisors of Phi_d = t^n - 1
    for n in range(1, 211):
        prod = IntPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly([-1] + [0] * (n - 1) + [1])


def test_squarefree():
    p = IntPoly([1, 1]) ** 2 * IntPoly([-1, 1])
    assert squarefree_part(p) == IntPoly([-1, 0, 1])
    decomp = squarefree_decomposition(p)
    assert (IntPoly([-1, 1]), 1) in decomp
    assert (IntPoly([1, 1]), 2) in decomp


# -- the signed remainder sequence and Yun's algorithm -------------------------------

nonzero_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=9).map(IntPoly).filter(bool)


def _assert_chain_matches_oracle(f0, f1):
    chain = intpoly._signed_remainders(f0, f1)
    assert all(isinstance(q, list) and q and q[-1] for q in chain)
    assert chain == [list(q.coeffs) for q in reference_signed_remainders(f0, f1) if not q.is_zero()]


@given(nonzero_polys, small_polys)
@settings(max_examples=300, deadline=None)
def test_signed_remainders_match_the_oracle_member_by_member(f0, f1):
    # any degree order, gaps of any size, and f1 = 0 (no zero member)
    _assert_chain_matches_oracle(f0, f1)


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=200, deadline=None)
def test_signed_remainders_match_the_oracle_on_negative_leading_coefficients(f0, f1):
    # lc(f1) < 0 with deg f0 - deg f1 even: lc^k with k odd flips the remainder
    f0, f1 = f0.shift(f0.degree + f1.degree), -f1 if f1.leading > 0 else f1
    _assert_chain_matches_oracle(f0, f1)


@pytest.mark.parametrize("f0, f1", [
    (IntPoly([1, 0, 0, 0, 0, 1]), IntPoly([3, -2])),           # gap 4, negative lc, k = 5 odd
    (IntPoly([1, 2, 0, 1]), IntPoly([-1, 0, -2])),             # gap 1, negative lc, k = 2 even
    (IntPoly([2, -1]), IntPoly([1, 0, 0, 1])),                 # deg f0 < deg f1
    (LEHMER, IntPoly()),                                       # f1 = 0
    (LEHMER, LEHMER.derivative()),
    (LEHMER * IntPoly([1, 1]), -(LEHMER * IntPoly([2, 1]))),  # a non-constant gcd
])
def test_signed_remainders_match_the_oracle_on_chosen_pairs(f0, f1):
    _assert_chain_matches_oracle(f0, f1)


@pytest.mark.parametrize("p", [
    LEHMER ** 2 * cyclotomic(12) * IntPoly([1, 1]) ** 3 * IntPoly([1, -3, 1]) ** 2,
    IntPoly([1, -3, 1]) ** 3 * IntPoly([-2, 1]) * IntPoly([1, 1, 1]) ** 2,
    -3 * IntPoly([1, 1]) ** 2 * IntPoly([-1, 1]),
])
def test_squarefree_decomposition_matches_the_oracle_on_repeated_factors(p):
    assert squarefree_decomposition(p) == reference_squarefree_factors(p)


@given(small_polys)
@settings(max_examples=150, deadline=None)
def test_squarefree_decomposition_matches_the_oracle(p):
    assert squarefree_decomposition(p) == reference_squarefree_factors(p)


def test_squarefree_decomposition_of_a_squarefree_input_takes_one_gcd(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(intpoly, "poly_gcd", counting_gcd)
    p = -2 * LEHMER * IntPoly([1, -3, 1])
    assert squarefree_decomposition(p) == [(p.primitive(), 1)]
    assert len(calls) == 1


# The alpha eliminant T(a^2 - 4) over an integer polynomial p, T the trace
# polynomial of p, replaces the resultant of p(r) and r^2 - (a^2 - 2) r + 1 in a.


def test_resultant_eliminate_linear():
    # the single value r = 1 maps to a^2 = 4
    assert alpha_from_lambda(IntPoly([-1, 1])) == IntPoly([-4, 0, 1])


def test_resultant_eliminate_quadratic():
    # r + 1/r = 3 for both roots of r^2 - 3r + 1, so the eliminant is a^2 - 5
    assert alpha_from_lambda(IntPoly([1, -3, 1])) == IntPoly([-5, 0, 1])


# -- the Taylor shift -------------------------------


@given(small_polys, st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_taylor_shift_matches_horner(p, c):
    shifted = IntPoly(intpoly._taylor_shift(p.coeffs, c))
    for x in (-7, -1, 0, 1, 2, 5, Fraction(1, 3), Fraction(-5, 2)):
        assert shifted(x) == p(x + c)
