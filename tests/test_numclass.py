import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxgrowth.coxtrans import char_poly_star
from coxgrowth.growth import _hyperbolic_tuples, polygon_growth
from coxgrowth.intpoly import IntPoly, _probe_values, cyclotomic, parse_poly, squarefree_part
from coxgrowth import intpoly, numclass
from coxgrowth.numclass import (
    NumberClass,
    _cyclotomic_candidates,
    _is_perron,
    _location_counts,
    classify,
    disk_root_counts,
    strip_cyclotomic,
    unit_circle_root_count,
)
from coxgrowth.roots import isolate_largest_real_root, root_bound

from coxgrowth.salemdb import bundled_mini_list

from oracles import (
    _reference_bound,
    expand_trace_form,
    reference_count,
    reference_disk_counts,
    reference_is_perron,
    reference_strip_cyclotomic,
    reference_unit_circle_root_count,
    root_location_counts_float,
    schur_cohn_disk_counts,
    totient_sieve,
)

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")
MIN_353 = parse_poly("1,-1,0,0,-1,1,-1,0,0,-1,1")
MIN_38 = parse_poly("1,0,0,-1,0,-1,0,-1,0,0,1")
CORE_435 = parse_poly("1,-1,1,-2,1,-2,1,-1,1")
H283_CHARPOLY = parse_poly("1,1,-1,-2,-1,0,0,0,0,0,-1,-2,-1,1,1")


def test_unit_circle_examples():
    assert unit_circle_root_count(cyclotomic(12)) == 4
    assert unit_circle_root_count(LEHMER) == 8
    assert unit_circle_root_count(IntPoly([1, -3, 1])) == 0
    for p in (IntPoly([1, 2, 2]), IntPoly(), IntPoly([0, 1, 1])):  # not reciprocal, zero, p(0) = 0
        with pytest.raises(ValueError):
            unit_circle_root_count(p)


@pytest.mark.parametrize("check, p, message", [
    (unit_circle_root_count, IntPoly([0, 1, 1]), "must not vanish at 0"),
    (strip_cyclotomic, IntPoly(), "zero polynomial"),
])
def test_numclass_inputs_are_checked(check, p, message):
    with pytest.raises(ValueError, match=message):
        check(p)


def test_unit_circle_odd_reciprocal():
    # odd-degree reciprocal always has the root -1
    p = LEHMER * IntPoly([1, 1])
    assert unit_circle_root_count(p) == 9


def test_unit_circle_anti_reciprocal():
    assert unit_circle_root_count(IntPoly([-1, 0, 1])) == 2  # roots exactly +-1
    assert unit_circle_root_count(IntPoly([-1, 1])) == 1
    p = LEHMER * IntPoly([-1, 1])  # anti-reciprocal of odd degree
    assert unit_circle_root_count(p) == 9


def test_strip_cyclotomic_h283():
    core, factors = strip_cyclotomic(H283_CHARPOLY)
    assert core == CORE_435
    assert sorted(factors) == [(2, 2), (12, 1)]
    rebuilt = core
    for n, m in factors:
        rebuilt = rebuilt * cyclotomic(n) ** m
    assert rebuilt == H283_CHARPOLY


def test_strip_cyclotomic_simple():
    core, factors = strip_cyclotomic(IntPoly([-1, 0, 1]))
    assert core == IntPoly([1])
    assert sorted(factors) == [(1, 1), (2, 1)]
    core, factors = strip_cyclotomic(LEHMER)
    assert core == LEHMER and factors == []


@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 12]), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_strip_cyclotomic_reassembles(indices):
    p = LEHMER
    for n in indices:
        p = p * cyclotomic(n)
    core, factors = strip_cyclotomic(p)
    rebuilt = core
    for n, m in factors:
        rebuilt = rebuilt * cyclotomic(n) ** m
    assert rebuilt == p
    assert core == LEHMER


def test_strip_cyclotomic_matches_trial_division():
    # random products of Phi_n powers, n up to 210 (Phi_105 has a coefficient
    # -2), times random cores, against trial division over a totient sieve
    rng = random.Random(2024)
    for _ in range(30):
        core = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
                       + [rng.choice([1, -1, 2, 3])])
        p = core
        for _ in range(rng.randint(0, 3)):
            p = p * cyclotomic(rng.randint(1, 210)) ** rng.randint(1, 2)
        assert strip_cyclotomic(p) == reference_strip_cyclotomic(p), p


def test_strip_cyclotomic_matches_trial_division_on_wide_cores():
    # Phi_n powers up to 4 on cores that are non-monic, lead with a negative
    # coefficient or carry coefficients above 2^64, up to the degree cap 160
    rng = random.Random(28)
    big = 1 << 70
    cores = [IntPoly([3, -1, 2]), -LEHMER, IntPoly([big + 3, -big, 5, -(big >> 3)]),
             IntPoly([-5, 0, 7, big]), IntPoly([1, 2]) * -2, LEHMER]
    for core in cores:
        p = core
        while p.degree < 120:
            phi = cyclotomic(rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 21, 30, 35, 105])) ** rng.randint(1, 4)
            if p.degree + phi.degree <= 160:
                p = p * phi
        assert strip_cyclotomic(p) == reference_strip_cyclotomic(p), p
    p = LEHMER
    for n in (2, 3, 5, 7, 9, 12, 15, 21, 30, 35):
        p = p * cyclotomic(n) ** 2
    assert p.degree == 160
    assert strip_cyclotomic(p) == reference_strip_cyclotomic(p) == (LEHMER, [(n, 2) for n in (
        2, 3, 5, 7, 9, 12, 15, 21, 30, 35)])


@pytest.mark.parametrize("p", [
    # Phi_1(4) = 3 divides p(4) = 6, and the quotient 2 needs two base-4 digits
    IntPoly([2, 1]),
    # p = (t + 1)(t^3 - 2t^2 - 2): Phi_1 passes the probe filter and Phi_1(4)
    # divides p(4) = 150; the quotient 50 = -2 + 4 - 16 + 64 fits four
    # signed base-4 digits, but the norm check rejects it
    IntPoly([-2, -2, -2, -1, 1]),
])
def test_strip_cyclotomic_retries_at_twice_the_width(monkeypatch, p):
    widths = []  # the k of each pass, which packs p first
    pack = intpoly._pack
    monkeypatch.setattr(intpoly, "_cyclotomic_width", lambda _: 2)
    monkeypatch.setattr(intpoly, "_pack", lambda q, k: (q is p and widths.append(k)) or pack(q, k))
    assert p(4) % 3 == 0 and p(1) != 0
    assert strip_cyclotomic(p) == reference_strip_cyclotomic(p)
    assert widths[:2] == [2, 4], widths


@pytest.mark.parametrize("p,core,factors", [
    # non-monic and non-primitive
    (IntPoly([6]) * IntPoly([-1, 2]) * cyclotomic(4) ** 2, IntPoly([-6, 12]), [(4, 2)]),
    # a core vanishing at every probe point passes the filter and is divided
    (IntPoly([-2, 1]) * IntPoly([2, 1]) * IntPoly([-3, 1]) * cyclotomic(12),
     IntPoly([-2, 1]) * IntPoly([2, 1]) * IntPoly([-3, 1]), [(12, 1)]),
    (IntPoly([-3, 1]) ** 2 * cyclotomic(1) * cyclotomic(2) ** 3, IntPoly([-3, 1]) ** 2,
     [(1, 1), (2, 3)]),
    (IntPoly([5]), IntPoly([5]), []),
], ids=["non_primitive", "roots_at_every_probe", "repeated_probe_root", "constant"])
def test_strip_cyclotomic_unusual_inputs(p, core, factors):
    assert strip_cyclotomic(p) == (core, factors)
    assert reference_strip_cyclotomic(p) == (core, factors)


def _theorem2_polynomials():
    """The star polynomial and the reduced growth denominator of every 10th
    hyperbolic polygon with k <= 6 sides and p_i <= 12."""
    polygons = [ps for k in range(3, 7) for ps in _hyperbolic_tuples(k, 12)][::10]
    assert len(polygons) == 1228
    return [q for ps in polygons for q in (char_poly_star(*ps), polygon_growth(*ps).denominator)]


def test_strip_cyclotomic_matches_trial_division_on_theorem2_stars_and_denominators():
    for p in _theorem2_polynomials():
        assert strip_cyclotomic(p) == reference_strip_cyclotomic(p), p


def test_strip_cyclotomic_with_a_root_at_the_first_probe():
    # p(2) = 0 makes every Phi_n(2) divide p(2): the screen rests on -2 and 3
    core = IntPoly([-2, 1]) * IntPoly([1, 1, 3])
    p = core * cyclotomic(1) * cyclotomic(6) ** 2 * cyclotomic(10)
    assert p(2) == 0
    assert strip_cyclotomic(p) == reference_strip_cyclotomic(p) == (core, [(1, 1), (6, 2), (10, 1)])


def test_cyclotomic_division_packs_only_the_n_that_pass_the_probes_on_p(monkeypatch):
    # the screen runs once, on p's own values: no Phi_n failing a probe on p
    # is ever built and packed, in the strip or in the growth reduction
    build = intpoly.cyclotomic
    built = []
    monkeypatch.setattr(intpoly, "cyclotomic", lambda n: built.append(n) or build(n))
    rng = random.Random(30)
    randoms = [IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 8))] + [1])
               * cyclotomic(rng.randint(1, 40)) ** rng.randint(1, 3) for _ in range(60)]
    for p in _theorem2_polynomials()[::4] + randoms:
        for divide in (strip_cyclotomic, lambda p: intpoly._divide_cyclotomic(p, [(n, 2) for n in range(1, 31)])):
            built.clear()
            core, factors = divide(p)
            assert {n for n, _ in factors} <= set(built)
            for n in built:
                assert all(p(j) % build(n)(j) == 0 for j in (2, -2, 3)), (p, n)


def test_cyclotomic_candidates_are_the_sieve_set():
    phi = totient_sieve(2 * 120 * 120 + 6)
    for d in range(1, 121):
        got = list(_cyclotomic_candidates(d))
        assert got == [(n, phi[n]) for n in range(1, 2 * d * d + 7) if phi[n] <= d], d
    assert len(_cyclotomic_candidates(64)) == 127
    # the lists do not depend on the order the degrees are asked in
    want = {d: _cyclotomic_candidates(d) for d in range(121)}
    assert want[0] == ((1, 1),)
    degrees = list(range(120, -1, -1))
    for order in (degrees, random.Random(7).sample(degrees, len(degrees))):
        _cyclotomic_candidates.cache_clear()
        numclass._candidate_table.cache_clear()
        assert [_cyclotomic_candidates(d) for d in order] == [want[d] for d in order]


def test_cyclotomic_probe_values():
    for n, phi in _cyclotomic_candidates(699):
        if n <= 700:
            assert _probe_values(n) == (phi, tuple(cyclotomic(n)(k) for k in (2, -2, 3))), n


def test_disk_counts_small():
    assert disk_root_counts(IntPoly([-2, 1])) == (0, 0, 1)
    assert disk_root_counts(IntPoly([-1, 2])) == (1, 0, 0)
    assert disk_root_counts(IntPoly([3, -3, 1])) == (0, 0, 2)
    assert disk_root_counts(IntPoly([3, -3, 1]) * IntPoly([-1, 2])) == (1, 0, 2)


def test_disk_counts_constructed_products():
    # products of factors with a prescribed inside/outside split: real roots
    # outside, complex pairs t^2 - a t + b outside (b >= 3), and their
    # reversals inside, which may pair with a factor outside
    rng = random.Random(31337)
    checked = 0
    while checked < 100:
        p = IntPoly([1])
        want_in = want_out = 0
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            a, b = rng.randint(-2, 2), rng.randint(3, 9)
            if kind < 0.4:
                p = p * IntPoly([-rng.choice([2, 3, 5, 7]), 1])
                want_out += 1
            elif a * a < 4 * b and kind < 0.7:
                p = p * IntPoly([b, -a, 1])
                want_out += 2
            elif a * a < 4 * b:
                p = p * IntPoly([1, -a, b])
                want_in += 2
        if p.degree < 1:
            continue
        sf = squarefree_part(p)
        if sf.degree != p.degree:
            continue
        assert disk_root_counts(sf) == (want_in, 0, want_out), p
        checked += 1


def _agrees_with_schur_cohn(h, outside_factor=IntPoly([1])):
    # the Schur-Cohn signature (pos, neg) is the (inside, outside) split when the
    # form is nondegenerate, that is with no circle root and no inversion pair;
    # inside - outside = pos - neg always.  The oracle reads h times a factor
    # with all its roots outside, and neg less their number is h's
    inside, on, outside = disk_root_counts(h)
    pos, neg = schur_cohn_disk_counts(h * outside_factor)
    neg -= outside_factor.degree
    assert inside + on + outside == h.degree, h
    if pos + neg == h.degree:
        assert (inside, on, outside) == (pos, 0, neg), h
    else:
        assert inside - outside == pos - neg, h
    return inside, on, outside


def _admissible(h: IntPoly) -> bool:
    # disk_root_counts takes squarefree s with s(0) != 0
    return h.constant != 0 and squarefree_part(h).degree == h.degree


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=17).filter(lambda c: c[-1] != 0))
@settings(max_examples=300, deadline=None)
def test_disk_counts_against_schur_cohn(coeffs):
    # any sign of the leading coefficient, degenerate forms included
    assume(_admissible(IntPoly(coeffs)))
    _agrees_with_schur_cohn(IntPoly(coeffs))


@given(st.integers(1, 5), st.sampled_from([1, -1]),
       st.lists(st.integers(-4, 4), min_size=1, max_size=13))
@settings(max_examples=200, deadline=None)
def test_disk_counts_with_end_coefficients_equal_up_to_sign(end, sign, middle):
    # a0 = +-an zeroes the first pivot of the Bistritz table; the count has no
    # pivots.  The same a0 = +-an makes the oracle's first minor an^2 - a0^2
    # vanish, so it is fed h (t - 3), whose first minor an^2 - 9 a0^2 is not
    # 0, and its root 3 is taken off the outside count.
    h = IntPoly([sign * end] + middle + [end])
    assume(_admissible(h))
    _agrees_with_schur_cohn(h, IntPoly([-3, 1]))


def test_disk_counts_at_a_zero_bistritz_pivot():
    assert _agrees_with_schur_cohn(IntPoly([2, -3, 3, -2, 2, 0, -1, 0, 1])) == (4, 0, 4)


@given(st.integers(-6, 6).filter(bool), st.lists(st.integers(-6, 6), min_size=11, max_size=12),
       st.integers(2**68, 2**70), st.integers(70, 72))
@settings(max_examples=20, deadline=None)
def test_disk_counts_of_scaled_polynomials(constant, middle, half_num, den_bits):
    # p(ct) for a dyadic c = num / 2**den_bits, cleared of denominators: the
    # inputs of the Perron check, with coefficients above 800 bits
    p = IntPoly([constant] + middle + [1])
    num, n = 2 * half_num + 1, p.degree
    scaled = IntPoly(c * num**i * 2 ** (den_bits * (n - i))
                     for i, c in enumerate(p.coeffs)).primitive()
    assert max(abs(c) for c in scaled.coeffs).bit_length() > 800
    assume(_admissible(p))
    _agrees_with_schur_cohn(scaled)


_CIRCLE_ROOTS_AND_INVERSION_PAIRS = [
    (IntPoly([1, 0, 1]), (0, 2, 0)),                     # +-i
    (cyclotomic(5) * IntPoly([-3, 1]), (0, 4, 1)),       # primitive fifth roots of unity
    (IntPoly([-1, 1]) * IntPoly([1, 5, 2]), (1, 1, 1)),  # the root 1
    (IntPoly([1, 1]), (0, 1, 0)),                        # the root -1
    (IntPoly([1, 1]) * IntPoly([-3, 1]), (0, 1, 1)),
    (IntPoly([-2, 1]) * IntPoly([-1, 2]), (1, 0, 1)),    # the inversion pair 2, 1/2
    (IntPoly([-2, 1]) * IntPoly([-1, 2]) * IntPoly([7, 1, 1]), (1, 0, 3)),
]


@pytest.mark.parametrize("h, counts", _CIRCLE_ROOTS_AND_INVERSION_PAIRS,
                         ids=[str(h) for h, _ in _CIRCLE_ROOTS_AND_INVERSION_PAIRS])
def test_disk_counts_of_circle_roots_and_pairs(h, counts):
    # a root on the circle or an inversion pair r, 1/r gets its exact counts too
    assert disk_root_counts(h) == counts
    _agrees_with_schur_cohn(h)


_SALEM_POLYS = [e.poly for e in bundled_mini_list()]


def _reciprocal(half: list[int], anti: bool) -> IntPoly:
    # t^d q(t + 1/t) is reciprocal of degree 2d; times t - 1, anti-reciprocal
    p = expand_trace_form(IntPoly(half + [1]))
    return p * IntPoly([-1, 1]) if anti else p


@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 30]), max_size=4),
       st.lists(st.sampled_from([LEHMER] + _SALEM_POLYS), max_size=2),
       st.lists(st.tuples(st.lists(st.integers(-4, 4), max_size=5), st.booleans()), max_size=2))
@settings(max_examples=100, deadline=None)
def test_circle_count_against_the_trace_substitution(indices, salem, reciprocal):
    # products of cyclotomics, Lehmer's polynomial, the bundled Salem list and
    # random (anti-)reciprocal polynomials: the on count of their squarefree
    # part against t + 1/t and a Sturm count on (-2, 2)
    p = IntPoly([1])
    for n in indices:
        p = p * cyclotomic(n)
    for f in salem:
        p = p * f
    for half, anti in reciprocal:
        p = p * _reciprocal(half, anti)
    assume(p.degree >= 1 and p.constant != 0)
    s = squarefree_part(p)
    assert disk_root_counts(s)[1] == reference_unit_circle_root_count(p) == unit_circle_root_count(p)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_root_location_counts_against_float_oracle(tail):
    p = IntPoly(tail + [1])
    if p.constant == 0 or p.degree < 1:
        return
    out, on, inside = _location_counts(p)[0]
    assert out + on + inside == p.degree
    sf = squarefree_part(p)
    s_out, s_on, s_in = _location_counts(sf)[0]
    f_out, f_on, f_in = root_location_counts_float(sf, tol=1e-4)
    # the float oracle counts distinct roots and can misplace roots very
    # near the circle; only compare when it saw none there
    if f_on == s_on == 0:
        assert (s_out, s_in) == (f_out, f_in)


def test_classify_lehmer():
    nc = classify(LEHMER)
    assert (nc.roots_outside_unit_disk, nc.roots_on_unit_circle, nc.roots_inside) == (1, 8, 1)
    assert "salem" in nc.labels and "perron" in nc.labels


def test_classify_38_and_435_minimals():
    assert "salem" in classify(MIN_38).labels
    assert "salem" in classify(CORE_435).labels


def test_classify_perron_not_salem():
    nc = classify(IntPoly([1, -3, 1]))
    assert "perron" in nc.labels and "salem" not in nc.labels
    assert (nc.roots_outside_unit_disk, nc.roots_inside) == (1, 1)


@pytest.mark.parametrize("negative", [3, 2])
def test_negative_root_of_equal_or_larger_modulus_is_not_perron(negative):
    p = IntPoly([-2, 1]) * IntPoly([negative, 1])  # roots 2 and -negative
    assert _is_perron(p, 2) is False
    assert "perron" not in classify(p).labels


def _outside(p: IntPoly) -> int:
    return _location_counts(p)[0][0]


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_perron_agrees_with_the_40_bit_reference(tail):
    p = IntPoly(tail + [1])
    assume(p.constant != 0 and squarefree_part(p) == p)
    outside = _outside(p)
    expected, got = reference_is_perron(p, outside), _is_perron(p, outside)
    # the reference may leave undecided what the dyadic scales decide, never
    # the other way round, and the two never disagree
    if expected is True:
        assert got is True
    if expected is False:
        assert got is not True


def test_perron_when_a_complex_pair_outmodulates_the_top_root_is_false():
    # random monic of degree 30, coefficients in [-3, 3] (the seventh draw of
    # random.Random(2)): a complex pair of modulus 1.51 lies above every real
    # root, which the 40-bit scales leave undecided after five rounds
    p = IntPoly([3, -2, 2, -2, 1, 2, -3, 0, 1, -3, 3, -2, -2, -3, -3, -1,
                 1, 2, 2, 2, -3, -1, -1, 0, -3, -1, 0, 1, 3, 1, 1])
    assert _is_perron(p, _outside(p)) is False


def test_perron_false_from_a_scale_just_above_the_top_root():
    # top root 2.2056 of t^3 - 2t^2 - 1 below the pair |z| = sqrt 5 = 2.236 of
    # t^2 + t + 5: a scale below the top root never counts that pair inside,
    # and the first scale between the two moduli counts it outside
    p = IntPoly([5, 1, 1]) * IntPoly([-1, 0, -2, 1])
    assert _is_perron(p, _outside(p)) is False


@pytest.mark.parametrize("p, degenerate", [
    (IntPoly([-2, 1]) * IntPoly([3, -2, 1]), True),   # 2 and |z| = sqrt 3
    (IntPoly([-3, 1]) * IntPoly([4, 1, 1]), True),    # 3 and |z| = 2
], ids=str)
def test_perron_with_a_dyadic_top_root(p, degenerate):
    # the top root r is m / 2^k at every rung, where a count at r cannot
    # decide: from a bracket (low, high] around r, floor and ceiling give scales off r, and
    # from the bracket [r, r], which the isolation returns for both
    # polynomials (2 and 3 are points of their grids (-8, 8]), the scales
    # step one unit off it
    assert (isolate_largest_real_root(p, Fraction(1, 64)).width == 0) == degenerate
    assert _is_perron(p, _outside(p)) is True


def test_perron_scale_on_a_root_modulus_is_passed_over(monkeypatch):
    # the top root of t^6 - 2t^5 - 1 is 2.0307, so the 4-bit scale below it is
    # 2, the modulus of the pair of t^2 + t + 4: the count there is exact, 5
    # roots inside with the pair on the circle, too few to decide, and a finer
    # scale decides
    p = IntPoly([4, 1, 1]) * IntPoly([-1, 0, 0, 0, 0, -2, 1])
    assert disk_root_counts(IntPoly(c * 2**i for i, c in enumerate(p.coeffs))) == (5, 2, 1)
    counts = []
    inside_scaled = numclass._inside_scaled

    def spy(q, c):
        counts.append((c, inside_scaled(q, c)))
        return counts[-1][1]

    monkeypatch.setattr(numclass, "_inside_scaled", spy)
    assert _is_perron(p, _outside(p)) is True
    assert counts[0] == (Fraction(2), 5)
    assert counts[-1][1] == p.degree - 1


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8),
       st.lists(st.integers(1, 30), max_size=4, unique=True))
@settings(max_examples=40, deadline=None)
def test_cyclotomic_factors_have_no_root_above_one(tail, indices):
    # classify reads the core's root above 1 from s, the core times cyclotomic factors
    core = IntPoly(tail + [1])
    assume(core.constant != 0)
    s = core
    for n in indices:
        s = s * cyclotomic(n)
    assert reference_count(s, Fraction(1), root_bound(s)) == reference_count(core, Fraction(1),
                                                                             root_bound(core))


def test_classify_cyclotomic():
    nc = classify(cyclotomic(12))
    assert "cyclotomic" in nc.labels
    assert nc.roots_on_unit_circle == 4


def _mirrored(p: IntPoly) -> IntPoly:
    """p(-t), made monic."""
    q = IntPoly((-1) ** (i % 2) * c for i, c in enumerate(p.coeffs))
    return q if q.leading > 0 else -q


def _reference_salem(p: IntPoly) -> bool:
    """The 'salem' rule on oracle counts: the core of the squarefree part of p
    has exactly one root outside the closed disk, that root lies above 1,
    and at least one root lies on the circle."""
    core, _ = reference_strip_cyclotomic(squarefree_part(p))
    if core.degree < 1:
        return False
    _inside, on, outside = reference_disk_counts(core)
    above_one = reference_count(core, Fraction(1), _reference_bound(core))
    return outside == 1 and on >= 1 and above_one == 1


_salem_bases = st.one_of(
    st.sampled_from([LEHMER, MIN_38, MIN_353, CORE_435, IntPoly([1, -3, 1])]),
    # palindromes 1, c_1, ..., c_m, ..., c_1, 1, often Salem
    st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(lambda c: IntPoly([1, *c, *c[-2::-1], 1])),
    st.lists(st.integers(-3, 3), min_size=1, max_size=8).map(lambda c: IntPoly(c + [1])),
)


@given(_salem_bases, st.lists(st.integers(1, 12), max_size=3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_salem_label_agrees_with_the_oracle_counts(base, indices, mirror):
    # cyclotomic factors, repeated indices among them, leave the label to the
    # core; p(-t) moves the root outside the disk below -1
    p = base
    for n in indices:
        p = p * cyclotomic(n)
    if mirror:
        p = _mirrored(p)
    assume(p.constant != 0)
    assert ("salem" in classify(p).labels) == _reference_salem(p)


def test_classify_two_salem_counts():
    # a product of two Salem polynomials has two roots outside; by counts
    # alone it is labeled two_salem (genuinely indistinguishable from an
    # irreducible polynomial with the same counts)
    p = LEHMER * MIN_38
    nc = classify(p)
    assert nc.roots_outside_unit_disk == 2
    assert "two_salem" in nc.labels


def test_classify_errors():
    with pytest.raises(ValueError):
        classify(IntPoly([0, 1, 1]))  # zero constant term
    with pytest.raises(ValueError):
        classify(IntPoly([1, 2]))  # not monic


def test_classify_with_multiplicity():
    p = LEHMER * LEHMER
    nc = classify(p)
    assert nc.degree == 20
    assert (nc.roots_outside_unit_disk, nc.roots_on_unit_circle, nc.roots_inside) == (2, 16, 2)


def test_classify_counts_sum_to_degree():
    for p in (LEHMER, MIN_353, MIN_38, CORE_435, H283_CHARPOLY,
              IntPoly([1, -3, 1]), cyclotomic(12) * LEHMER):
        nc = classify(p)
        assert nc.degree == p.degree


def test_classify_non_squarefree_takes_s_from_yun_factors():
    # s is the product of the Yun factors that the counts already computed
    p = LEHMER ** 2 * cyclotomic(12) * IntPoly([1, 1]) ** 3 * IntPoly([1, -3, 1]) ** 2
    assert _location_counts(p)[2] == squarefree_part(p)
    assert classify(p) == NumberClass(4, 23, 4, frozenset({"perron", "two_salem"}))
    q = IntPoly([1, -3, 1]) ** 3 * IntPoly([-2, 1]) * IntPoly([1, 1, 1]) ** 2
    assert _location_counts(q)[2] == squarefree_part(q)
    assert classify(q) == NumberClass(4, 4, 3, frozenset({"perron"}))
