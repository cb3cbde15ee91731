"""Certified real-root counting and isolation via Sturm sequences and Descartes' rule.

Sturm chains and Cauchy indices are read from intpoly's signed remainder
sequence of a pair of polynomials, the same kernel behind every gcd.  Of p
and p' it is the Sturm chain; of den and num it gives the Cauchy index of
num/den over the real line, from the variation counts at -inf and +inf.

All interval endpoints are exact rationals; every count and every isolating
interval is certified by exact sign computations, never by floating point.

Counting, and the isolation that the Descartes certificate below cannot
certify, read one Sturm state per polynomial p: the squarefree part sf of p
and the Sturm chain of sf.  The states of the 16 most recently used
polynomials are held in an LRU cache, so counting and isolating on one
polynomial build its chain once.  One Sturm bisection of the grid, right
half first, gives the cells of all real roots, the largest first.

Every isolation works on one dyadic grid (-B, B], B = root_bound(p), the
least power of two of at least 2 above Fujiwara's bound on the root moduli
of p itself, and every isolating interval is a cell (lo, hi] of that grid
or a point.  Bisecting from the whole grid to the first cell that holds only
the largest root, then halving by signs, always ends in the grid cell
(lo, hi] that holds the root at depth J, the first depth whose cells are at
most the requested width (deeper only when another root shares that cell),
or in [x, x] when the root x is a grid point of depth at most J.  A cell
whose lower end is another root keeps that end: just right of it the
polynomial halved on has the sign of its first derivative that does not
vanish there, and the halving goes on by signs.

The largest real root is sought first without a Sturm chain, on p itself,
made primitive with a positive leading coefficient.  The search starts
where a floating-point estimate of the root lies (Laguerre and Newton steps
in floats down from B, then Newton steps from exact values, whose last step
gives an error radius): the estimate's cell at a depth j <= J, with cells
wider than the radius, and its two neighbours form a window (a, b].  A
Descartes certificate (Collins-Akritas 1976) shows that it holds the largest
root: the Taylor shift of p to a has one sign variation and p(a) != 0, so p has
exactly one root above a, and that root is simple, and the sign of p(b)
puts it at or below b.  Sign bisection on p then descends from the root's
cell to depth J, meeting no lower end that is a root, and gives the same
grid cell as the bisection from the whole grid.  The estimate only chooses
where exact signs are taken; it never decides an answer.  The certificate
is exact for polynomials with only real roots, as the adjacency polynomials
of trees; the Sturm bisection from the whole grid runs whenever it fails
(complex roots near the top root, a multiple top root, a poor estimate).
Both give the same (low, high).

Every interval that isolation returns holds a simple root of its own poly:
the Descartes route returns intervals on p, where the certificate proves the
root simple, and the Sturm route intervals on sf.  Refinement therefore
bisects on the interval's poly alone.

Two root intervals are compared by compare alone: the roots are equal exactly
when the gcd of the two polynomials has a root in the common part of the
two root sets, (low, high] or the point of a degenerate interval, and
otherwise refinement separates them in finitely many steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .intpoly import (
    IntPoly,
    _signed_remainders,
    _taylor_shift,
    exact_div,
    poly_gcd,
)

DEFAULT_WIDTH = Fraction(1, 10**9)

# The seeded window has cells at least as wide as the estimate's error radius,
# and at least 2**-SEED_PRECISION_BITS times the estimate.
SEED_PRECISION_BITS = 48
# Step caps of the float estimate and of its polish from exact values.
ROOT_ESTIMATE_STEPS = 100
POLISH_STEPS = 8


class NoRealRootError(ValueError):
    """Raised when root isolation is requested for a polynomial without real roots."""


@dataclass(frozen=True)
class RootInterval:
    """A rational interval certified to contain exactly one real root of poly
    in (low, high].

    A degenerate interval (low == high) certifies an exact rational root.
    Every interval that isolation returns holds a simple root of poly, and
    refinement bisects on poly's own signs.  An interval built with
    multiplicity_free=False, whose root may be multiple in poly, refines into
    an interval on the squarefree part of poly.  A default flag on a root of
    even multiplicity shows at the first refinement, where poly has one sign
    at both ends, and that refinement moves to the squarefree part too.
    """

    poly: IntPoly
    low: Fraction
    high: Fraction
    multiplicity_free: bool = True

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def is_disjoint_from(self, other: "RootInterval") -> bool:
        return self.high < other.low or other.high < self.low

    def is_strictly_below(self, other: "RootInterval") -> bool:
        return self.high < other.low

    def overlaps(self, other: "RootInterval") -> bool:
        return not self.is_disjoint_from(other)

    def refined(self, width: Fraction) -> "RootInterval":
        """A sub-interval of at most the given width around the same root.

        Raises ValueError for a width <= 0, unless the interval is a point."""
        if self.low == self.high:
            return self
        _check_width(width)
        if self.width <= width:
            return self
        if self.multiplicity_free:
            return _refine(self, width)
        return _refine(RootInterval(_sturm_state(self.poly).sf, self.low, self.high), width)

    def decimal(self, places: int = 7) -> str:
        """Midpoint rounded to the given number of decimal places."""
        m = self.midpoint()
        scaled = m * 10**places
        r = math.floor(scaled + Fraction(1, 2))
        sign = "-" if r < 0 else ""
        r = abs(r)
        return f"{sign}{r // 10**places}.{r % 10**places:0{places}d}"

    def __str__(self) -> str:
        return f"[{self.low}, {self.high}]"


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _check_width(width: Fraction) -> None:
    """Raise ValueError for a width <= 0, which no bisection reaches."""
    if width <= 0:
        raise ValueError("width must be positive")


def sturm_chain(p: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm sequence of a squarefree polynomial: the signed remainders of p and p'.

    For p not squarefree the sequence ends at a multiple of gcd(p, p').
    """
    return _signed_remainders(p, p.derivative())


def cauchy_index(num: IntPoly, den: IntPoly) -> int:
    """The Cauchy index of num/den over the whole real line, for coprime num and den.

    That is the number of real poles where num/den jumps from -inf to +inf
    less the number where it jumps from +inf to -inf.  It is the variation
    count at -inf less that at +inf of the signed remainder sequence of den
    and num.  Raises ArithmeticError when num and den have a non-constant
    common factor.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    index, g = _cauchy_index_and_gcd(num, den)
    if g.degree > 0:
        raise ArithmeticError("numerator and denominator have a common factor")
    return index


def _cauchy_index_and_gcd(num: IntPoly, den: IntPoly) -> tuple[int, IntPoly]:
    """(I, g) for nonzero den: g, a multiple of gcd(num, den), is the last
    member of the signed remainder sequence of den and num, and I, its
    variation count at -inf less that at +inf, is the Cauchy index of num/den
    in lowest terms, since dividing every member by g changes no count."""
    chain = tuple(q for q in _signed_remainders(den, num) if not q.is_zero())
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True), chain[-1]


class _SturmState(NamedTuple):
    sf: IntPoly                 # squarefree part, primitive, positive leading coefficient
    chain: tuple[IntPoly, ...]  # Sturm sequence of sf; empty when sf is constant


@functools.lru_cache(maxsize=16)
def _sturm_state(p: IntPoly) -> _SturmState:
    """The Sturm state of p, built once for the few most recent polynomials.

    The sequence of p itself ends at gcd(p, p'): when that is constant, p is
    squarefree and the sequence is its Sturm chain; otherwise every member
    divided by the gcd gives a Sturm sequence of sf = p / gcd, headed by sf.
    """
    p = p.primitive()
    if p.degree < 1:
        return _SturmState(p, ())
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        gcd = chain[-1].primitive()
        chain = tuple(exact_div(q, gcd) for q in chain)
    return _SturmState(chain[0], chain)


def _variations(signs) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain, x: Fraction) -> int:
    return _variations(q.sign_at(x) for q in chain)


def _variations_at_inf(chain, positive: bool) -> int:
    if positive:
        return _variations(_sign(q.leading) for q in chain)
    return _variations(_sign(q.leading) * (-1) ** (q.degree % 2) for q in chain)


def sturm_count(p: IntPoly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    The squarefree part is taken internally, so multiple roots count once.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    chain = _sturm_state(p).chain
    if not chain:
        return 0
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(p: IntPoly) -> Fraction:
    """B = 2^e, the least power of two that is at least 2 and above Fujiwara's
    bound 2 max_k |a_(n-k) / a_n|^(1/k), its k = n term halved: every root of
    p has modulus below B, so all real roots lie in (-B, B).

    With m = e - 1 that is |a_(n-k)| < |a_n| 2^(mk) for k < n and
    |a_0| < 2 |a_n| 2^(mn).  The bit lengths give a lower bound on m, and
    exact comparisons raise it to the least m for which these hold.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial")
    n, lead = p.degree, abs(p.leading)
    terms = [(k, abs(p.coeffs[n - k]), lead if k < n else 2 * lead) for k in range(1, n + 1)]
    m = max([0] + [-((d.bit_length() - c.bit_length()) // k) for k, c, d in terms if c])
    while any(c >= d << (m * k) for k, c, d in terms):
        m += 1
    return Fraction(2 << m)


def _refine(bracket: RootInterval, width: Fraction) -> RootInterval:
    """Shrink a bracket certified to contain exactly one root of f = bracket.poly
    in (low, high] by sign bisection on f: one exact evaluation per step, so a
    grid cell ends in the grid cell of the root, or in a point.

    A lower end that is another root of f is kept: just right of it, f has
    the sign of its first derivative that does not vanish there, which the
    bisection compares against.  Equal signs at both ends mean a root of even
    multiplicity in f; the bisection then runs on the squarefree part of f.
    """
    f, lo, hi = bracket.poly, bracket.low, bracket.high
    s_hi = f.sign_at(hi)
    if s_hi == 0:
        return RootInterval(f, hi, hi)
    s_lo, d = f.sign_at(lo), f
    while s_lo == 0:
        d = d.derivative()
        s_lo = d.sign_at(lo)
    if s_lo == s_hi:
        sf = _sturm_state(f).sf
        if sf.degree == f.degree:
            raise ArithmeticError("bracket invariant violated")
        return _refine(RootInterval(sf, lo, hi), width)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = f.sign_at(mid)
        if s_mid == 0:
            return RootInterval(f, mid, mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return RootInterval(f, lo, hi)


# -- the float estimate and the seeded window -----------------------------------------------------


def _float_root_from_above(cs: list[float], x: float) -> float:
    """A float approach to the largest real root from x, a bound on the root
    moduli, where p > 0 and p' > 0 once p is made to lead positive.

    Laguerre steps cross clusters of roots in few steps and, when every root is
    real, stay above the largest; Newton steps take over where Laguerre's
    radicand is negative or a step crossed a root.  Rounding near the root, or
    p not convex above it, may stop it anywhere.
    """
    n = len(cs) - 1
    if cs[-1] < 0:
        cs = [-c for c in cs]
    above = None  # the last point known to lie above the root
    laguerre = True
    for _ in range(ROOT_ESTIMATE_STEPS):
        p = dp = ddp = 0.0
        for c in reversed(cs):
            ddp = ddp * x + 2 * dp
            dp = dp * x + p
            p = p * x + c
        if not (p > 0 and dp > 0):
            if above is None or not laguerre:
                return x if above is None else above
            x, laguerre = above, False  # the Laguerre step crossed a root
            continue
        g = dp / p
        radicand = (n - 1) * (n * (g * g - ddp / p) - g * g)
        step = n / (g + math.sqrt(radicand)) if laguerre and radicand >= 0 else p / dp
        above, x = x, x - step
        if not step > 1e-15 * abs(x):
            break
    return x


def _exact_newton_step(coeffs: tuple[int, ...], x: float) -> float:
    """p(x) / p'(x), from exact values of p and p' at the float x."""
    m, d = x.as_integer_ratio()
    p = dp = 0
    dk = 1  # d**k for the k-th coefficient from the top
    for c in reversed(coeffs):
        dp = dp * m + p
        p = p * m + c * dk
        dk *= d
    # p(x) = p / d**n and p'(x) = dp / d**(n-1)
    return p / (dp * d)


def _root_estimate(p: IntPoly, bound: Fraction) -> tuple[float, float]:
    """A float guess at the largest real root of p, sought down from bound
    (root_bound(p)), and an error radius; nan when there is none.  It only
    chooses where exact signs are taken."""
    coeffs = p.coeffs
    try:
        x = _float_root_from_above([float(c) for c in coeffs], float(bound))
        # Float evaluation near a root loses the digits that cancel; steps
        # from exact values recover them, and the last one bounds the error.
        for _ in range(POLISH_STEPS):
            step = _exact_newton_step(coeffs, x)
            x -= step
            if not abs(step) > 2.0**-50 * abs(x):
                break
        return x, abs(step)
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.nan, math.nan


def _grid_depth(span: Fraction, width: Fraction) -> int:
    """The first depth J at which the grid's cells, span / 2**J wide, are at most width."""
    q = span / width
    return (-(-q.numerator // q.denominator) - 1).bit_length()


def _seed(estimate: tuple[float, float], span: Fraction,
          depth: int) -> tuple[Fraction, int] | None:
    """The estimate x (as a fraction) and the depth of the seeded window: at most
    depth, with cells at least the error radius, and about
    2**-SEED_PRECISION_BITS times max(|x|, 1), wide.  None when x or its
    error radius is nan or infinite."""
    try:
        xq, radius = Fraction(estimate[0]), Fraction(estimate[1])
    except (ValueError, OverflowError):
        return None
    q = span / max(radius, max(abs(xq), 1) * Fraction(1, 2**SEED_PRECISION_BITS))
    return xq, min(depth, q.numerator.bit_length() - q.denominator.bit_length() - 1)


def _window(xq: Fraction, origin: Fraction, step: Fraction, cells: int) -> tuple[int, int]:
    """Cell indices (i0, i1) of the window: the cell of xq and its two neighbours
    within the grid, (origin + i0*step, origin + i1*step]."""
    k = min(max(math.floor((xq - origin) / step), 0), cells - 1)
    return max(k - 1, 0), min(k + 2, cells)


def _cell_of_root(p: IntPoly, origin: Fraction, step: Fraction, i0: int, i1: int) -> int:
    """Index i of the cell (origin + i*step, origin + (i+1)*step] holding the one
    root of p in (origin + i0*step, origin + i1*step], from the signs above it."""
    s_top = p.sign_at(origin + step * i1)
    if s_top == 0:
        return i1 - 1
    for i in range(i1 - 1, i0, -1):
        s = p.sign_at(origin + step * i)
        if s == 0:
            return i - 1
        if s != s_top:
            return i
    return i0


# -- the Descartes certificate ---------------------------------------------------------


def _shifted(p: IntPoly, a: Fraction) -> list[int]:
    """Coefficients of v^n p((x + u) / v) for a = u / v and n = deg p: the Taylor
    shift of p to a, cleared of denominators.  Its roots are v (r - a) for the
    roots r of p, and its constant term is v^n p(a)."""
    u, v = a.numerator, a.denominator
    scaled = list(p.coeffs)
    vk = 1
    for i in range(len(scaled) - 2, -1, -1):
        vk *= v
        scaled[i] *= vk
    return _taylor_shift(scaled, u)


def descartes_bound(p: IntPoly, a: Fraction | int) -> int:
    """The sign variations of the Taylor shift of p to a: by Descartes' rule an
    upper bound on the number of roots of p in (a, inf), counted with
    multiplicity, and of the same parity.  0 certifies that p has no root
    above a, and 1, with p(a) != 0, exactly one, and that one simple."""
    return _variations(map(_sign, _shifted(p, Fraction(a))))


def _descartes_largest(p: IntPoly, width: Fraction) -> RootInterval | None:
    """The interval that the Sturm bisection of isolate_largest_real_root
    gives, certified without a Sturm chain; None when the certificate fails.

    Everything runs on f, the primitive part of p with positive leading
    coefficient, and on the grid (-B, B], B = root_bound(f).  The window
    (a, b] is the estimate's cell and its two neighbours at depth
    min(J, seed depth).  One Taylor shift certifies it:
    f(a) != 0 and one sign variation at a mean exactly one root above a,
    simple, and f(b) >= 0 puts it at or below b.  Then f's signs give the
    root's cell, and sign bisection on p, a constant multiple of f, to width
    ends in the depth-J grid cell of the root, or at the root as a grid
    point, as the Sturm bisection does.  The interval is on p, where its
    root is simple.
    """
    if p.degree < 1:
        return None
    f = p.primitive()
    bound = root_bound(f)
    origin, span = -bound, 2 * bound
    seed = _seed(_root_estimate(f, bound), span, _grid_depth(span, width))
    if seed is None or seed[1] < 0:
        return None
    xq, j = seed
    cells = 1 << j
    step = span / cells
    i0, i1 = _window(xq, origin, step, cells)
    a = origin + step * i0
    shifted = _shifted(f, a)
    if shifted[0] == 0 or _variations(map(_sign, shifted)) != 1:
        return None
    if f.sign_at(origin + step * i1) < 0:
        return None
    i = _cell_of_root(f, origin, step, i0, i1)
    return _refine(RootInterval(p, origin + step * i, origin + step * (i + 1)), width)


def _sturm_cells(p: IntPoly):
    """The cells (a, b] of the grid (-B, B], B = root_bound(p), that hold one
    distinct real root of p each, as intervals on sf, the largest root first:
    Sturm bisection that halves every cell holding two roots or more and
    searches its right half first."""
    sf, chain = _sturm_state(p)
    if not chain:
        return
    bound = root_bound(p)
    stack = [(-bound, bound, _variations_at_inf(chain, False), _variations_at_inf(chain, True))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            yield RootInterval(sf, a, b)
        elif va > vb:
            mid = (a + b) / 2
            vm = _variations_at(chain, mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]


def _sturm_largest(p: IntPoly, width: Fraction) -> RootInterval:
    """The largest real root by Sturm bisection from the whole grid to the
    first cell that holds that root and no other, then sign bisection on sf
    to width."""
    cell = next(_sturm_cells(p), None)
    if cell is None:
        raise NoRealRootError("polynomial has no real root")
    return _refine(cell, width)


def isolate_largest_real_root(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval of at most the given width around the largest real root.

    The Descartes certificate is tried first, and Sturm bisection from the
    whole grid runs when it fails.  Raises ValueError for a width <= 0.
    """
    _check_width(width)
    iv = _descartes_largest(p, width)
    return iv if iv is not None else _sturm_largest(p, width)


def largest_root_above_one(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval | None:
    """The interval of the largest real root of p when that root exceeds 1,
    and None otherwise.

    No sign variation in the Taylor shift of p to 1 certifies that no root
    exceeds 1; that holds whenever every root lies in the closed unit disk.
    Otherwise the interval of the largest real root decides, and when it
    straddles 1, the sign of q(1), q = iv.poly: the root is simple in q, and
    q has no other root above the interval's lower end, so the root lies
    above 1 exactly when q(1) has the sign opposite to lc(q).  Raises
    ValueError for a width <= 0.
    """
    _check_width(width)
    if descartes_bound(p, 1) == 0:
        return None
    try:
        iv = isolate_largest_real_root(p, width)
    except NoRealRootError:
        return None
    if iv.low < 1 < iv.high:
        above = iv.poly.sign_at(Fraction(1)) * iv.poly.leading < 0
    else:
        above = iv.low >= 1 and iv.high > 1
    return iv if above else None


def isolate_real_roots(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> list[RootInterval]:
    """Disjoint certified intervals around every distinct real root, ascending.

    Raises ValueError for a width <= 0."""
    _check_width(width)
    return [_refine(cell, width) for cell in _sturm_cells(p)][::-1]


class SeparationError(ValueError):
    """Two root intervals to be separated isolate one and the same root."""


def _holds(iv: RootInterval, x: Fraction) -> bool:
    """Whether x lies in the set where iv certifies its root: (low, high],
    or the single point of a degenerate interval."""
    return iv.low == x if iv.low == iv.high else iv.low < x <= iv.high


def _same_root(a: RootInterval, b: RootInterval) -> bool:
    """Whether a and b isolate the same root.

    A root of g = gcd(a.poly, b.poly) in the common part of the two root sets
    is the one root of each interval; and an equal root lies in both sets, so
    in their common part.  g has the roots of the gcd of the two squarefree
    parts, so neither Sturm state is needed, only g's for the count.
    """
    g = poly_gcd(a.poly, b.poly)
    if g.degree < 1:
        return False
    if a.low == a.high or b.low == b.high:
        x = a.low if a.low == a.high else b.low
        return _holds(a, x) and _holds(b, x) and g.sign_at(x) == 0
    lo, hi = max(a.low, b.low), min(a.high, b.high)
    return lo < hi and sturm_count(g, lo, hi) > 0


def refine_until_disjoint(a: RootInterval, b: RootInterval) -> tuple[RootInterval, RootInterval]:
    """Refine two root intervals, both to the smaller positive width over 16
    per round, until disjoint; raises SeparationError when the two roots are
    certified equal, so the loop always ends."""
    if a.overlaps(b) and _same_root(a, b):
        raise SeparationError("the two intervals isolate the same root")
    while a.overlaps(b):
        w = min(x.width for x in (a, b) if x.width > 0) / 16
        a, b = a.refined(w), b.refined(w)
    return a, b


def compare(a: RootInterval, b: RootInterval) -> int:
    """The order of the roots isolated by a and b: -1, 0 or 1, certified exactly.

    Equality is decided by algebra (a gcd and a root count where the root
    sets of a and b meet), order by refining until the intervals are disjoint.
    """
    try:
        a, b = refine_until_disjoint(a, b)
    except SeparationError:
        return 0
    return -1 if a.is_strictly_below(b) else 1


def certify_strictly_less(a: RootInterval, b: RootInterval) -> tuple[RootInterval, RootInterval]:
    """Refine until a's root is certified strictly below b's; raises otherwise."""
    a, b = refine_until_disjoint(a, b)
    if not a.is_strictly_below(b):
        raise ValueError("roots are ordered the other way")
    return a, b


def sqrt_interval(x_low: Fraction, x_high: Fraction, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """Rational enclosure of [sqrt(x_low), sqrt(x_high)] with outward rounding."""
    if x_low < 0:
        raise ValueError("negative radicand")
    if x_low > x_high:
        raise ValueError("empty interval")
    # scale so that integer square roots give the requested precision
    k = 1
    while Fraction(2, k) > width:
        k *= 2
    lo = Fraction(math.isqrt((x_low.numerator * x_low.denominator) * k * k), x_low.denominator * k)
    num = x_high.numerator * x_high.denominator * k * k
    s = math.isqrt(num)
    if s * s < num:
        s += 1
    hi = Fraction(s, x_high.denominator * k)
    return lo, hi
