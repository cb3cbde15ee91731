"""Growth series of Coxeter systems and their growth rates.

Steinberg's alternating sum over the finite standard subgroups is evaluated
with denominators kept in factored cyclotomic form: every finite-type growth
polynomial is a product of brackets [k] = 1 + t + ... + t^(k-1), and [k]
splits into the cyclotomic polynomials Phi_d for the divisors d > 1 of k.
Only connected spherical vertex sets are typed, by
diagram._connected_spherical_sets, which grows them from singletons and
prunes at the first non-spherical set.  Terms are grouped by Solomon
factorization, so the sum needs one common denominator and one cofactor per
distinct factorization, not one per subset, and the signed count of each is
a memoized recursion on vertex sets that visits no subset one at a time.
The sum is one integer, at t = 2^K with K wide enough for every coefficient
(Kronecker substitution): each term is a product of powers of the numbers
Phi_d(2^K), and numerator and denominator are read back as base-2^K digits.

Both growth-series constructors know their numerator as a product of
cyclotomic polynomials (times a power of t), so they reduce the quotient by
dividing the denominator's value at a power of two by theirs, not by a gcd, as
a GrowthFunction(num, den) built directly is.  The second-minimal check reads
its minimal cases from one sweep of polygon_rate_compare, which salemdb uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from .diagram import STEINBERG_RANK_BOUND, CoxeterDiagram, dominates, polygon_is_hyperbolic
from .diagram import _connected_spherical_sets
from .intpoly import ONE, IntPoly, bracket, cyclotomic, exact_div, poly_gcd
from .intpoly import _cyclotomic_product, _divide_cyclotomic, _pack, _signed_digits
from .record import Record
from .roots import (
    DEFAULT_WIDTH,
    RootInterval,
    compare,
    largest_root_above_one,
    sturm_count,
)

# Bits per cyclotomic exponent in a packed Solomon factorization.  The
# exponent of Phi_d in f_T is at most |T|, so the rank bound always fits.
_FIELD = STEINBERG_RANK_BOUND.bit_length()


class NotExponentialError(ValueError):
    """The growth series has no pole in (0, 1): growth rate 1 or below."""


class GrowthFunction(Record):
    """A reduced rational function num/den over Z[t].

    Normalized so that gcd(num, den) = 1, the two have coprime contents, and
    the denominator has positive leading coefficient; zero is 0/1.
    """

    numerator: IntPoly
    denominator: IntPoly

    def __init__(self, numerator: IntPoly, denominator: IntPoly):
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        if numerator.is_zero():
            denominator = ONE
        else:
            g = poly_gcd(numerator, denominator)
            if g.degree > 0:
                numerator = exact_div(numerator, g)
                denominator = exact_div(denominator, g)
            c = math.gcd(numerator.content(), denominator.content())
            if c > 1:
                numerator = IntPoly(x // c for x in numerator.coeffs)
                denominator = IntPoly(x // c for x in denominator.coeffs)
        if denominator.leading < 0:
            numerator, denominator = -numerator, -denominator
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _reduced(cls, numerator: IntPoly, denominator: IntPoly) -> "GrowthFunction":
        """num/den as given, certified reduced and normalized by the caller."""
        f = object.__new__(cls)
        object.__setattr__(f, "numerator", numerator)
        object.__setattr__(f, "denominator", denominator)
        return f

    def __call__(self, x: Fraction) -> Fraction:
        d = self.denominator(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return Fraction(self.numerator(x)) / d

    def __str__(self):
        return f"({self.numerator}) / ({self.denominator})"


# -- finite-type growth polynomials ---------------------------------------------------


def _bracket_factorization(ks) -> Counter[int]:
    """The Phi_d exponents of the product of the brackets [k]: [k] is the
    product of Phi_d over the divisors d > 1 of k."""
    return Counter(d for k in ks for d in range(2, k + 1) if k % d == 0)


def _reduced_growth(exponents: dict[int, int], den: IntPoly) -> GrowthFunction:
    """The growth series prod_d Phi_d^e_d / den in lowest terms, by cyclotomic
    division instead of a gcd: intpoly._divide_cyclotomic cancels Phi_d from
    den at most e_d times, and each Phi_d kept is certified not to divide it.
    The numerator, built as one packed product, is monic up to sign, so the
    contents are coprime too.  The kept numerator has constant term (-1)^e_1;
    raises ArithmeticError unless den, cancelled but not yet negated, has
    that too, so that the series starts at 1."""
    den, taken = _divide_cyclotomic(den, sorted(exponents.items()))
    kept = Counter(exponents) - Counter(dict(taken))
    if den.constant != (-1) ** kept[1]:
        raise ArithmeticError("growth series must start at 1")
    den = -den if den.leading < 0 else den
    num = _cyclotomic_product(kept)
    return GrowthFunction._reduced(num if num.constant == den.constant else -num, den)


@functools.cache
def _solomon_factorization(exponents: tuple[int, ...]) -> Counter[int]:
    """The Phi_d exponents of the growth polynomial prod [e + 1] of the
    spherical type with these exponents; one Counter per exponent tuple,
    which callers only read."""
    return _bracket_factorization(e + 1 for e in exponents)


def _fold(terms: dict[int, int], rows: list[list[int]]) -> int:
    """The sum over packed keys of terms[key] * prod_p rows[p][e_p], e_p the
    key's p-th field.  Factors are taken one field at a time from the first,
    so keys that agree on their remaining fields share one multiplication."""
    mask = (1 << _FIELD) - 1
    for row in rows:
        folded: dict[int, int] = {}
        for key, v in terms.items():
            rest = key >> _FIELD
            folded[rest] = folded.get(rest, 0) + v * row[key & mask]
        terms = folded
    return terms[0]


def _check_rank(n: int) -> None:
    """Raise ValueError when a rank n is above the Steinberg-sum rank bound."""
    if n > STEINBERG_RANK_BOUND:
        raise ValueError(f"rank {n} exceeds the Steinberg-sum rank bound {STEINBERG_RANK_BOUND}")


def steinberg_growth(d: CoxeterDiagram) -> GrowthFunction:
    """The full growth series from the alternating sum over finite standard subgroups.

    Evaluates 1/f(t^-1) = sum over spherical subsets T of (-1)^|T| / f_T(t)
    exactly, then substitutes t -> 1/t and normalizes.  Terms are grouped by
    Solomon factorization: F(U), memoized on the vertex set U, is the signed
    count of each over U's spherical subsets, and F(U) = F(U - v) + sum_C
    (-1)^|C| x^fac(C) F(U - near(C)), v the lowest vertex of U, C running over
    the connected spherical sets in U through v and near(C) being C and its
    neighbours.  For a spherical subset is the union of its components,
    pairwise non-adjacent connected spherical sets, so it leaves v out or has
    one component C through v, its rest lying in U - near(C); and f_T is the
    product of its components'.  The sum is evaluated at t = 2^K as one
    integer and read back as signed digits.
    """
    _check_rank(d.n)
    conn = _connected_spherical_sets(d)
    facs = {e: _solomon_factorization(e) for e in {t.exponents for t, _ in conn.values()}}
    idx = sorted({i for fac in facs.values() for i in fac})
    # A factorization packs into one int, _FIELD bits per index of idx, so
    # that adding two factorizations is one integer addition.
    packed = {key: sum(e << _FIELD * idx.index(i) for i, e in fac.items()) for key, fac in facs.items()}
    through = [[] for _ in range(d.n)]  # per lowest vertex: (C, near(C), (-1)^|C|, packed fac(C))
    for s, (t, near) in conn.items():
        through[(s & -s).bit_length() - 1].append((s, near, -1 if s.bit_count() % 2 else 1, packed[t.exponents]))
    memo = {0: {0: 1}}

    def signed(u: int) -> dict[int, int]:
        """F(u), from F of smaller sets only."""
        if u not in memo:
            got = memo[u] = dict(signed(u & u - 1))
            for s, near, sign, key in through[(u & -u).bit_length() - 1]:
                if not s & ~u:
                    for rest, count in signed(u & ~near).items():
                        got[rest + key] = got.get(rest + key, 0) + sign * count
        return memo[u]

    # Factorizations whose terms cancel drop out.  common[p]: the exponent of
    # Phi_i, i = idx[p], in the common denominator of the others.
    counts = {key: count for key, count in signed((1 << d.n) - 1).items() if count}
    mask = (1 << _FIELD) - 1
    common = [0] * len(idx)
    for key in counts:  # one pass, each key's fields read once from idx[0] up
        p = 0
        while key:
            if key & mask > common[p]:
                common[p] = key & mask
            key >>= _FIELD
            p += 1

    # den = prod Phi_i^common_i has degree width - 1, and every cofactor is a
    # product of Phi_i that divides it, of 1-norm at most 2^(width - 1) by
    # Mignotte (Phi_i has Mahler measure 1).  So with K = bits(sum |count|)
    # + width every coefficient of the sum is below 2^(K-1), and the signed
    # base-2^K digits of its value at t = 2^K are its coefficients.
    width = sum(c * cyclotomic(i).degree for i, c in zip(idx, common)) + 1
    k = sum(map(abs, counts.values())).bit_length() + width
    # rows[p][e]: Phi_i(2^K)^(common[p] - e), i = idx[p]
    rows = [[x ** (c - e) for e in range(c + 1)]
            for x, c in zip((_pack(cyclotomic(i), k) for i in idx), common)]
    num = IntPoly(_signed_digits(_fold(counts, rows), k, width))
    # 1/f(1/t) = num/den, so f(t) = den(1/t) / num(1/t) = den(t) / (t^(dd - dn)
    # num reversed): den is palindromic, as Phi_i is for i >= 2, and dn <= dd,
    # as every cofactor divides den.
    return _reduced_growth(dict(zip(idx, common)), num.reversed().shift(width - 1 - num.degree))


# -- polygons --------------------------------------------------------------------------


def polygon_delta(*ps: int) -> IntPoly:
    """The polygon growth denominator [2]P - kP + sum_i P/[p_i], P = prod [p_i].

    Evaluated as one integer at t = 2^K, where [p](2^K) = (2^(Kp) - 1) /
    (2^K - 1) and every division by a bracket is exact, and read back as
    signed base-2^K digits.  The 1-norm 2 prod p + k prod p + sum_i
    prod_(j!=i) p_j bounds every coefficient, and K is one bit more than it.
    """
    if len(ps) < 1:
        raise ValueError("need at least one parameter")
    if any(p < 2 for p in ps):
        raise ValueError("parameters must be at least 2")
    k, prod = len(ps), math.prod(ps)
    bits = ((2 + k) * prod + sum(prod // p for p in ps)).bit_length() + 1
    x = 1 << bits
    brs = [((1 << bits * p) - 1) // (x - 1) for p in ps]
    whole = math.prod(brs)
    value = (x + 1 - k) * whole + sum(whole // b for b in brs)
    return IntPoly(_signed_digits(value, bits, sum(ps) - k + 2))


def polygon_growth(*ps: int) -> GrowthFunction:
    """Growth series [2]prod[p_i] / polygon_delta of the compact polygon
    reflection group with angles pi/p_i, reduced by cyclotomic division: the
    numerator is the product of Phi_d over the divisors d > 1 of 2 and of
    each p_i."""
    if len(ps) < 3:
        raise ValueError("a polygon needs at least 3 sides")
    if min(ps) < 2:
        raise ValueError("parameters must be at least 2")
    if not polygon_is_hyperbolic(ps):
        raise ValueError(f"{ps} does not satisfy the angle-sum condition")
    return _reduced_growth(_bracket_factorization((2, *ps)), polygon_delta(*ps))


# -- growth rate -----------------------------------------------------------------------


def growth_rate(f: GrowthFunction, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval around the growth rate 1/R, R the radius of convergence.

    Growth series have nonnegative coefficients, so R itself is a singularity
    (Pringsheim) and equals the smallest positive root of the reduced
    denominator den.  The roots of its reversal t^n den(1/t) are the inverses
    of den's, so the rate is the largest real root of the reversal, and the
    series is exponential exactly when that root exceeds 1, which
    roots.largest_root_above_one certifies.  A primitive denominator
    reciprocal up to sign, with positive leading coefficient, is its own
    reversal's primitive part, whose roots above 1 are counted on its trace
    polynomial, with no Taylor shift.  Raises NotExponentialError when den
    has no root in (0, 1), and ValueError for a width <= 0.
    """
    rate = largest_root_above_one(f.denominator.reversed().primitive(), width)
    if rate is None:
        raise NotExponentialError("denominator has no root in (0, 1)")
    return rate


def series_coefficients(f: GrowthFunction, count: int) -> list[int]:
    """The first `count` Taylor coefficients at 0, by the denominator recurrence."""
    den = f.denominator
    d0 = den.constant
    if d0 == 0:
        raise ValueError("rational function has a pole at 0")
    out: list[Fraction] = []
    for n in range(count):
        acc = Fraction(f.numerator[n])
        for i in range(1, min(n, den.degree) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc / d0)
    if any(c.denominator != 1 for c in out):
        raise ArithmeticError("series coefficients are not integers")
    return [int(c) for c in out]


class MonotonicityResult(Record):
    passed: bool
    low_rate: RootInterval | None = None
    high_rate: RootInterval | None = None


def monotonicity_check(d: CoxeterDiagram, e: CoxeterDiagram) -> MonotonicityResult:
    """Certify that strict domination of d by e forces a strictly larger rate.

    The verdict is roots.compare's on the two growth rates, so an equal or
    reversed order is reported as passed=False; the rates are returned at
    the width they were computed to.  Raises ValueError unless d is strictly
    dominated by e."""
    rel = dominates(d, e)
    if rel != "less":
        raise ValueError(f"diagrams are not strictly ordered: {rel}")
    td = growth_rate(steinberg_growth(d))
    te = growth_rate(steinberg_growth(e))
    return MonotonicityResult(compare(td, te) < 0, td, te)


# -- help functions and the second-minimal-polygon verification -------------------------


def help_numerator(plus, minus) -> IntPoly:
    """The sum of h_k = [k-1]/[k] over plus less the sum over minus, times P,
    the product of [k] over both: sum +-[k-1] P/[k].  Every [k] is positive
    for t > 0, so on (0, u] the help sum has this polynomial's sign."""
    ks = (*plus, *minus)
    whole = math.prod(map(bracket, ks))
    terms = [exact_div(whole, bracket(k)) * bracket(k - 1) for k in ks]
    return sum(terms[:len(plus)], IntPoly()) - sum(terms[len(plus):], IntPoly())


def positive_on(p: IntPoly, upper: Fraction | int) -> bool:
    """Certify p(t) > 0 on (0, upper]: positive at upper, and no root in
    (0, upper] to change the sign."""
    return p.sign_at(upper) > 0 and sturm_count(p, 0, upper) == 0


class CaseReport(Record):
    name: str
    passed: bool
    details: dict


class SecondMinimalReport(Record):
    """Certification that the (2, 3, 8) triangle has the second-smallest rate."""

    passed: bool
    reference_rate: RootInterval
    cases: tuple[CaseReport, ...]

    def case(self, name: str) -> CaseReport:
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)


# F: t^2 F / denom is (h_2 + h_4 + h_5) - (h_2 + h_3 + h_8), the (2, 4, 5) gap
_GAP_NUMERATOR = IntPoly([1, 1, 0, -1, -1, -1, 0, 1, 1])  # t^8+t^7-t^5-t^4-t^3+t+1


def _hyperbolic_tuples(k: int, p_max: int):
    """Sorted hyperbolic parameter tuples of length k with entries <= p_max."""
    for ps in itertools.combinations_with_replacement(range(2, p_max + 1), k):
        if polygon_is_hyperbolic(ps):
            yield ps


def polygon_rate_compare(ps, root: RootInterval) -> int:
    """The polygon's growth rate against a root: -1 below, 0 equal, 1 above,
    certified by roots.compare.  The rate is delta's largest real root, read
    coarsely by roots.largest_root_above_one on its trace polynomial and
    refined only as the comparison needs; it is above 1, as delta = phi is
    monic and phi(1) < 0.  A tuple that is not hyperbolic raises ValueError."""
    if not polygon_is_hyperbolic(ps):
        raise ValueError(f"{ps} does not satisfy the angle-sum condition")
    return compare(largest_root_above_one(polygon_delta(*ps), Fraction(1, 10**4)), root)


def verify_second_minimal_polygon(k_max: int = 5, p_max: int = 9) -> SecondMinimalReport:
    """Certify that every hyperbolic polygon other than (2,3,7) and (2,3,8)
    has growth rate strictly above the rate of the (2,3,8) triangle.

    The three case branches (triangles, quadrilaterals, five or more
    vertices) follow the classical help-function comparison; parameters
    within the given bounds are additionally certified tuple by tuple, and
    the unbounded directions are closed by same-rank domination through the
    three pointwise-minimal triangles and the quadrilateral (2,2,2,3).
    """
    if k_max < 5 or p_max < 9:
        raise ValueError("bounds must cover at least k_max=5, p_max=9")
    tau2 = growth_rate(steinberg_growth(CoxeterDiagram(3, {(0, 1): 3, (1, 2): 8})))
    target = (2, 3, 8)
    cases = []

    # Positivity of the gap polynomial on (0, 1], and the identity expressing
    # the right-angled comparison through it, cross-multiplied: the help sum
    # cleared of P = [2][4][5][2][3][8] is t^2 F P / denom.
    F = _GAP_NUMERATOR
    f_pos = positive_on(F, 1)
    denom = bracket(2) * bracket(3) * bracket(5) * IntPoly([1, 0, 1]) * IntPoly([1, 0, 0, 0, 1])
    whole = math.prod(map(bracket, (2, 4, 5, *target)))
    identity_ok = help_numerator((2, 4, 5), target) * denom == F.shift(2) * whole
    cases.append(CaseReport("gap_polynomial", f_pos and identity_ok, {
        "polynomial": F.to_text(),
        # positive_on counted no root; count again only to report a failure
        "roots_in_unit_interval": 0 if f_pos else sturm_count(F, 0, 1),
        "identity": identity_ok,
    }))

    # (12a)-style: among (2,3,r) the help sum is minimal at r = 8 and strictly
    # increasing in r; certified through h_9 > h_8 plus the index-monotonicity
    # identity [r-1]^2 - [r][r-2] = t^(r-2).
    strict_step = positive_on(help_numerator((9,), (8,)), 1)
    ident_sweep = all(
        bracket(r - 1) * bracket(r - 1) - bracket(r) * bracket(r - 2) == IntPoly([1]).shift(r - 2)
        for r in range(3, max(2 * p_max, 20) + 1)
    )
    cases.append(CaseReport("help_monotonicity", strict_step and ident_sweep, {
        "h9_minus_h8_positive": strict_step,
        "index_identity_range": max(2 * p_max, 20),
    }))

    # Every polygon within the bounds but the two smallest triangles, certified
    # above the reference; the minimal cases of the branches are among them.
    exceeds = {ps: polygon_rate_compare(ps, tau2) == 1
               for k in range(3, k_max + 1)
               for ps in _hyperbolic_tuples(k, p_max)
               if ps not in ((2, 3, 7), (2, 3, 8))}

    # Triangles: the pointwise-minimal cases (2,3,9), (2,4,5), (3,3,4) all
    # exceed the reference; same-rank domination covers the rest.
    minimal_triangles = [(2, 3, 9), (2, 4, 5), (3, 3, 4)]
    tri_min = all(exceeds[ps] for ps in minimal_triangles)
    tri_sweep = all(v for ps, v in exceeds.items() if len(ps) == 3)
    # the right-angled bound 2h_3 >= h_2 + h_5 reduces all-acute triangles to (12b)
    acute_ok = positive_on(help_numerator((3, 3), (2, 5)), 1)
    cases.append(CaseReport("triangles", tri_min and tri_sweep and acute_ok, {
        "minimal_cases": minimal_triangles,
        "swept_up_to": p_max,
        "acute_reduction": acute_ok,
    }))

    # Quadrilaterals: at most three right angles, so H >= 3 h_2 + h_3; the
    # excess over the reference reduces to 2 h_2 > h_8.
    quad_cert = positive_on(help_numerator((2, 2), (8,)), 1)
    quad_min = exceeds[2, 2, 2, 3]
    quad_sweep = all(v for ps, v in exceeds.items() if len(ps) == 4)
    cases.append(CaseReport("quadrilaterals", quad_cert and quad_min and quad_sweep, {
        "bound_certificate": quad_cert,
        "swept_up_to": p_max,
    }))

    # Five or more vertices: H >= 5 h_2 uniformly in the number of vertices.
    upper = 1 / tau2.low  # rational point at or above the reference radius
    penta_cert = positive_on(help_numerator((2,) * 5, target), min(1, upper))
    penta_sweep = all(v for ps, v in exceeds.items() if len(ps) >= 5)
    cases.append(CaseReport("five_or_more", penta_cert and penta_sweep, {
        "bound_certificate": penta_cert,
        "swept_k_up_to": k_max,
    }))

    passed = all(c.passed for c in cases)
    return SecondMinimalReport(passed, tau2, tuple(cases))
