"""Certified real-root counting and isolation by Descartes' rule of signs.

Every count and every isolating interval is certified by exact signs at
rational points, never by floating point.  Cauchy indices are read from
intpoly's signed remainder sequence, the kernel of every gcd.

The sign variations of the Taylor shift of p to a bound the roots above a,
with their parity, so 0 or 1 is exact (Collins-Akritas 1976), as are those
of the Möbius image sending a cell (a, b) to (0, inf).  Counting bisects the
cells of the squarefree part of p until each reads 0 or 1.

Every isolating interval is a cell (lo, hi] of the dyadic grid (-B, B],
B = root_bound(p), or a point: the cell of the root at depth J, the first
depth with cells at most the requested width (deeper only when another real
root shares it), or [x, x] for a root x on the grid at depth at most J.  A
lower end that is another root stays: just right of it the polynomial has
the sign of its first derivative that does not vanish there.

The largest real root is sought first on p itself: float estimates with an
error radius (Laguerre steps down from a root bound), T's and g's (both
below) and p's own, each made only when the window of the one before
declined, pick windows (a, b] of three cells, and one Taylor shift certifies
a window at an anchor c <= a, a rounded down to a denominator of 2^16 when
a's is larger: one sign variation at c and p(c) != 0 mean exactly one root
above c, simple.  Then p < 0 between c and the root and p > 0 above it, so
p(a) < 0 puts the root above a, and two signs at grid points, p(x_k) < 0 <=
p(x_(k+1)), place it in its depth-J cell, found by a walk from the
estimate's cell that stays at or below b.  The bisection of the squarefree
part sf from the whole grid runs when the certificate fails.  Either way the
interval holds a simple root of its own poly (p or sf).  No fraction is
formed between the estimate and the interval's ends: the grid points (2m -
2^j) B / 2^j are integers over powers of two, the one sign kernel
intpoly._sign_at(c, u, v) = sign(sum c_i u^i v^(n-i)), under IntPoly.sign_at
too, reads p at u / v, and one _halve bisects integer numerators over one
denominator, for the window and for refinement, whose ends (alpha0's) need
not be dyadic.  A tree's adjacency radius does not come here: spectra
bisects the same grid by exact eigenvalue counts on the tree (on a path's
chi every window declines, and the bisection is slow).  Its
polynomial, an alpha eliminant and t^4 - 4t^2 - 1 read f(x) = x^e g(x^2).
For a > 0, x -> x^2 maps the roots of f above a one to one onto those of g
above a^2, with f'(x) = x^e 2x g'(x^2) and f(a) = a^e g(a^2), so g shifted
to a^2, a quarter of the work, certifies as f shifted to a does (c^2 is then
a^2 rounded down).

largest_root_above_one counts the roots above 1 first, one variation
sparing a window at or above 1 its shift: for a primitive part f = +-rev f
on its trace polynomial T, x^m T(x + 1/x - 2) = f (x - 1)^a (x + 1)^b of
degree 2m, whose estimate, at half p's degree, comes first in the loop; for
any other p on p shifted to 1.

On Salem-type polynomials, with complex roots near the unit circle, the
first Laguerre step from B lands below the top root; the estimate recovers
(one Newton step back up, or half the step) and stays with Laguerre.  On
their trace polynomials every root is real (the unit circle maps into
[-4, 0]), so Laguerre stays above the top root.  The estimate's exact
Newton polish stops within a quarter of a depth-J cell, and where p's
float values overflow it evaluates x^-n p(x) in 1/x instead.

Two root intervals are compared by compare alone: the roots are equal exactly
when the gcd g of the two polynomials has a root in the common part of the
two root sets, which g's signs decide once, and otherwise refinement
separates them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intpoly import (IntPoly, _sign_at, _signed_digits, _signed_remainders, _taylor_shift, poly_gcd,
                      squarefree_part)
from .record import Record

DEFAULT_WIDTH = Fraction(1, 10**9)

# The seeded window has cells at least as wide as the estimate's error radius,
# and at least 2**-SEED_PRECISION_BITS times the estimate.
SEED_PRECISION_BITS = 48
# A window whose points have a denominator above 2**ANCHOR_BITS takes its
# Descartes count at its start (its square, for g) rounded down to that
# denominator: 16 bits decline no window more than the start itself on the 5642
# trees of brouwer_neumaier_enumerate(40, 40) at widths 1e-7, 1e-9 and 2**-60,
# and 12 bits decline 28 more.
ANCHOR_BITS = 16
# Step caps of the float estimate and of its polish from exact values.
ROOT_ESTIMATE_STEPS = 100
POLISH_STEPS = 8
# Relative sizes of a float step that crosses the root: above OVERSHOOT the
# estimate recovers and stays with Laguerre, below CROSSING it ends.
OVERSHOOT = 2.0**-4
CROSSING = 2.0**-26


class NoRealRootError(ValueError):
    """Raised when root isolation is requested for a polynomial without real roots."""


class RootInterval(Record):
    """A rational interval certified to contain exactly one real root of poly
    in (low, high], and that root simple in poly.

    A degenerate interval (low == high) certifies an exact rational root.
    Unless its maker certifies the root simple (multiplicity_free=True, as
    isolation and refinement do), a non-degenerate interval holds the
    squarefree part of the given poly.  Refinement bisects on poly's signs.
    """

    poly: IntPoly
    low: Fraction
    high: Fraction

    def __init__(self, poly: IntPoly, low: Fraction, high: Fraction, multiplicity_free: bool = False):
        if low > high:
            raise ValueError("empty interval")
        if low < high and not multiplicity_free:
            poly = squarefree_part(poly)
        self.__dict__.update(poly=poly, low=low, high=high)  # frozen: no attribute assignment

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def is_strictly_below(self, other: "RootInterval") -> bool:
        return self.high < other.low

    def overlaps(self, other: "RootInterval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def refined(self, width: Fraction) -> "RootInterval":
        """A sub-interval of at most the given width around the same root.

        Raises ValueError for a width <= 0, unless the interval is a point."""
        if self.low == self.high:
            return self
        _check_width(width)
        if self.width <= width:
            return self
        return _refine(self, width)

    def decimal(self, places: int = 7) -> str:
        """Midpoint rounded half up to the given number of decimal places."""
        return _decimal_text(math.floor(self.midpoint() * 10**places + Fraction(1, 2)), places)

    def __str__(self) -> str:
        return f"[{self.low}, {self.high}]"


def _decimal_text(n: int, places: int) -> str:
    """The integer n / 10^places in decimal, with `places` digits after the point."""
    whole, fraction = divmod(abs(n), 10**places)
    return f"{'-' if n < 0 else ''}{whole}.{fraction:0{places}d}"


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _check_width(width: Fraction) -> None:
    """Raise ValueError for a width <= 0, which no bisection reaches."""
    if width <= 0:
        raise ValueError("width must be positive")


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
    in lowest terms, since dividing every member by g changes no count.  A
    member's sign at +inf is that of its leading coefficient, times
    (-1)^degree at -inf."""
    chain = _signed_remainders(den, num)
    at_plus = [_sign(q[-1]) for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    return _variations(at_minus) - _variations(at_plus), IntPoly(chain[-1])


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


def root_bound(p: IntPoly) -> Fraction:
    """B = 2^e, the least power of two that is at least 2 and above Fujiwara's
    bound 2 max_k |a_(n-k) / a_n|^(1/k), its k = n term halved: every root of
    p has modulus below B, so all real roots lie in (-B, B).

    With m = e - 1 that is c < d 2^(mk) for each k, c = |a_(n-k)| and
    d = |a_n| (2 |a_n| at k = n), so m is the largest of 0 and each k's
    least m_k, in one pass: with b = bits(c) - bits(d), 2^(b-1) < c/d <
    2^(b+1), so m_k = ceil(b/k), plus 1 only when ceil(b/k) k = b and c >=
    d 2^b, one exact comparison; a term with b < 0 (c = 0 too) needs no m.
    """
    if p.degree < 1:
        raise ValueError("constant polynomial")
    coeffs, n = p.coeffs, p.degree
    m, lead = 0, abs(coeffs[-1])
    for k in range(1, n + 1):
        c, d = abs(coeffs[n - k]), lead if k < n else 2 * lead
        if (b := c.bit_length() - d.bit_length()) >= 0:
            mk = -(-b // k)
            if mk >= m:
                m = mk + (mk * k == b and c >= d << b)
    return Fraction(2 << m)


def _sign_right_of(f: IntPoly, x: Fraction) -> int:
    """The sign of a nonzero f just right of x: its first derivative's not 0 at x."""
    s = f.sign_at(x)
    while s == 0:
        f = f.derivative()
        s = f.sign_at(x)
    return s


def _refine(bracket: RootInterval, width: Fraction) -> RootInterval:
    """Shrink a bracket certified to contain exactly one root of f = bracket.poly
    in (low, high], simple, by sign bisection on f: one exact evaluation per
    step, so a grid cell ends in the grid cell of the root, or in a point.

    A lower end that is another root of f is kept: just right of it, f has
    the sign of its first derivative that does not vanish there, which the
    bisection compares against.  Equal signs at both ends break the bracket's
    invariant and raise ArithmeticError.
    """
    f, lo, hi = bracket.poly, bracket.low, bracket.high
    s_hi = f.sign_at(hi)
    if s_hi == 0:
        return RootInterval(f, hi, hi, multiplicity_free=True)
    s_lo = _sign_right_of(f, lo)
    if s_lo == s_hi:
        raise ArithmeticError("bracket invariant violated")
    d = math.lcm(lo.denominator, hi.denominator)
    return _halve(f, lo.numerator * d // lo.denominator, hi.numerator * d // hi.denominator, d, s_lo, width)


def _halvings(length: int, den: int, width: Fraction) -> int:
    """The least k >= 0 with length / (den 2^k) <= width, from bit lengths and one comparison."""
    a, b = length * width.denominator, den * width.numerator
    k = max(a.bit_length() - b.bit_length(), 0)
    return k + (a > b << k)


def _halve(f: IntPoly, lo: int, hi: int, den: int, s_lo: int, width: Fraction) -> RootInterval:
    """Sign bisection of (lo / den, hi / den], holding one simple root of f with f of
    sign s_lo just right of lo / den, to the width or to the root as a point."""
    length = hi - lo
    for _ in range(_halvings(length, den, width)):
        lo, den = 2 * lo, 2 * den
        if (s_mid := _sign_at(f.coeffs, lo + length, den)) == 0:
            mid = Fraction(lo + length, den)
            return RootInterval(f, mid, mid, multiplicity_free=True)
        if s_mid == s_lo:
            lo += length
    return RootInterval(f, Fraction(lo, den), Fraction(lo + length, den), multiplicity_free=True)


# -- the float estimate and the seeded window -----------------------------------------------------


def _from_above(log_derivatives, n: int, x: float) -> tuple[float, float]:
    """A float approach to the largest real root of p, of degree n, from x
    above it, and the last step; log_derivatives(x) is p'/p and -(p'/p)' at
    x where p' > 0 (p leading positive), so p'/p has the sign of p, and None
    elsewhere or where it cannot tell.  Laguerre steps cross clusters of roots
    in few steps and, when every root is real, stay above the largest; Newton
    steps take over where the radicand is negative.

    A step that lands where p' > 0 > p or p' <= 0 crossed the root.  After a
    long one (above OVERSHOOT * |x|, as the first step from a root bound on a
    polynomial with complex roots), Laguerre goes on from one Newton step back
    up where p < 0 < p', and from half the step elsewhere.  Closer to the
    root, where float signs may be noise, a crossing step above
    CROSSING * |x| goes back to the last point above the root and on by
    Newton steps, and a smaller one, or a crossing Newton step, ends the
    search at that point.  Rounding, or p not convex above the root, may stop
    it anywhere.
    """
    above, step, laguerre = None, math.nan, True  # above: the last point above the root
    for _ in range(ROOT_ESTIMATE_STEPS):
        gh = log_derivatives(x)
        if gh is not None and gh[0] > 0:
            g, h = gh
            radicand = (n - 1) * (n * h - g * g)
            step = n / (g + math.sqrt(radicand)) if laguerre and radicand >= 0 else 1 / g
            above, x = x, x - step
            if not step > 1e-15 * abs(x):
                break
        elif above is None or not laguerre or not step > CROSSING * abs(above):
            return (x if above is None else above), step
        elif step <= OVERSHOOT * abs(above):
            x, laguerre = above, False
        elif gh is not None:
            x -= 1 / gh[0]
        else:
            step /= 2
            x = above - step
    return x, step


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


def _horner(cs: list[float], x: float) -> tuple[float, float, float]:
    """The values at x of the polynomial with coefficients cs, highest first,
    and of its first two derivatives."""
    v = dv = ddv = 0.0
    for c in cs:
        ddv = ddv * x + 2 * dv
        dv = dv * x + v
        v = v * x + c
    return v, dv, ddv


def _root_estimate(p: IntPoly, bound: float | Fraction, cell: float | Fraction) -> tuple[float, float]:
    """A float guess at the largest real root of p, sought down from bound
    (root_bound(p)) by _from_above with Horner's rule, and an error radius;
    nan when there is none.  It only chooses where exact signs are taken, in
    grid cells cell wide: the polish stops within a quarter of one.

    Where p's values overflow, Horner's rule runs on q(y) = y^n p(1/y) at
    y = 1/x instead: p = x^n q(y) gives p'/p = y (n - y q'/q) and
    -(p'/p)' = y^2 (n - 2y q'/q - y^2 (q''/q - (q'/q)^2)).
    """
    coeffs, n = p.coeffs, p.degree

    def log_derivatives(x: float):
        v, dv, ddv = _horner(cs, x)
        if math.isfinite(v + dv + ddv):
            if not dv > 0 or v == 0:
                return None
            g = dv / v
            return g, g * g - ddv / v
        y = 1 / x
        v, dv, ddv = _horner(cs[::-1], y)
        if v == 0:
            return None
        q1, q2 = dv / v, ddv / v
        g = y * (n - y * q1)
        if not g * v * (y if n % 2 else 1) > 0:  # p' = g p has the sign of g q y^n
            return None
        return g, y * y * (n - 2 * y * q1 - y * y * (q2 - q1 * q1))
    try:
        cs = [float(c) if coeffs[-1] > 0 else -float(c) for c in reversed(coeffs)]
        x = _from_above(log_derivatives, n, float(bound))[0]
        # Float evaluation near a root loses the digits that cancel; steps
        # from exact values recover them, and the last one bounds the error.
        quarter = float(cell) / 4
        for _ in range(POLISH_STEPS):
            step = _exact_newton_step(coeffs, x)
            x -= step
            if not abs(step) > max(quarter, 2.0**-50 * abs(x)):
                break
        return x, abs(step)
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.nan, math.nan


# -- the Descartes certificate and bisection ------------------------------------------


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


def _half(f: IntPoly) -> IntPoly | None:
    """g with f = x^e g(x^2) when deg f > 1 and f has only terms of its degree's parity, else None."""
    n = f.degree
    return None if n < 2 or any(f.coeffs[1 - n % 2::2]) else IntPoly(f.coeffs[n % 2::2])


def _shifted_above(f: IntPoly, g: IntPoly | None, u: int, v: int, bits: int | None = None) -> list[int]:
    """_shifted(f, a), a = u / v, v > 0, or for a > 0 and g = _half(f) not None,
    f = x^e g(x^2), that of g to a^2; with bits, for v a power of two above
    2**bits, at that point rounded down to a denominator of 2**bits."""
    deep = bits is not None and v.bit_length() - 1 > bits
    if g is not None and u > 0:
        f, u, v = g, u * u, v * v
    if deep:
        cut = v.bit_length() - 1 - bits
        u, v = u >> cut, v >> cut
    return _shifted(f, Fraction(u, v))


def descartes_bound(p: IntPoly, a: Fraction | int) -> int:
    """The sign variations of p shifted to a (g to a^2 for a > 0, p = x^e g(x^2)):
    by Descartes' rule an upper bound on the number of roots of p in (a, inf),
    counted with multiplicity, and of the same parity.  0 certifies that p has
    no root above a, and 1, with p(a) != 0, exactly one, and that one simple."""
    return _variations(map(_sign, _shifted_above(p, _half(p), *Fraction(a).as_integer_ratio())))


def _descartes_largest(p: IntPoly, f: IntPoly, width: Fraction, one_above_one: bool = False,
                       trace: IntPoly | None = None) -> RootInterval | None:
    """The interval that the bisection of isolate_largest_real_root gives,
    certified on p itself; None when the certificate fails.

    It runs on f, the primitive part of p with positive leading coefficient,
    which the caller takes, in one loop over the estimates of _estimates,
    T's (trace, f's trace polynomial), g's (f = x^e g(x^2)) and f's, each
    found only when the window before declined; a window already tried is
    not tried again.  The window (a, b] is the cell of the estimate and its
    two neighbours, on the estimate's grid at depth j = min(J, seed depth).  It needs a certified
    anchor c <= a with exactly one root r of f above c, simple, so that f < 0
    on (c, r) and f > 0 above r: then the grid points x_(m-1) < r <= x_m,
    found by a walk from the estimate's cell that stays at or below b, have
    f(x_(m-1)) < 0 <= f(x_m), and a walk that ends at a takes f(a),
    declining when f(a) >= 0, as then r <= a.  Sign bisection on p to width
    then ends in the depth-J grid cell of the root, or at the root as a grid
    point, as the bisection does; at j = J that cell is (x_(m-1), x_m]
    itself.

    The anchor is 1 for a >= 1 when one_above_one says that p has exactly
    one root above 1, simple (one sign variation of p shifted to 1, or of its
    trace polynomial), and the window takes no shift; a window starting at a
    root at 1 reads f(1) = 0 and declines, as a shift would.  Otherwise one
    Taylor shift certifies it, f(c) != 0 and one sign variation: of f to c,
    or for a > 0 of g to c^2, where c, or c^2, is a, or a^2, rounded down to
    a denominator of 2**ANCHOR_BITS when the window's points have a larger
    one.  By Budan's theorem the count does not grow as the point rises, so
    a window that the shift to a itself certifies fails at c only when
    another root lies in (c, a] or f(c) = 0.
    """
    g, tried = _half(f), set()
    for estimate, e in _estimates(f, g, trace, width):
        if (iv := _window(estimate, p, f, g, e, width, one_above_one, tried)) is not None:
            return iv
    return None


def _estimates(f: IntPoly, g: IntPoly | None, trace: IntPoly | None, width: Fraction):
    """Float estimates of f's top root, each with its radius and the e of its
    grid (-2^e, 2^e], found only when the window before declined, in cells
    of the grid's depth-J width (2^(2e + 2 - J) for g's y = x^2).  T's top
    root s > 0 gives r = 1 + (s + sqrt(s^2 + 4s)) / 2 (none if that rounds
    to 1), radius times dx/ds = r^2 / (r^2 - 1), as x -> x + 1/x - 2 maps
    (1, inf) increasingly onto (0, inf); 2^e = 2 root_bound(T) > s + 2 > r.
    A window it certifies starts at a >= 1/r > 0, p's root 1/r lying below
    it, so its cells, at most a < r < root_bound(f) = 2^e wide, are those of
    f's grid at that width.  g's estimate y > 0, radius r, gives x =
    sqrt(y), radius r / 2x."""
    if trace is not None:
        e = (bound := root_bound(trace)).numerator.bit_length()
        s, radius = _root_estimate(trace, bound, 2 ** (e + 1 - _halvings(2 << e, 1, width)))
        if 0 < s < math.inf and (x := 1 + (s + math.sqrt(s * s + 4 * s)) / 2) != 1:
            yield (x, radius * x / (x - 1 / x) + 2.0**-50 * x), e
    e = root_bound(f).numerator.bit_length() - 1
    depth = _halvings(2 << e, 1, width)
    if g is not None:
        y, r = _root_estimate(g, root_bound(g), 2 ** (2 * e + 2 - depth))
        if y > 0:
            yield (x := math.sqrt(y), r / (2 * x) + 2.0**-50 * x), e
    yield _root_estimate(f, 1 << e, 2 ** (e + 1 - depth)), e


def _window(estimate: tuple[float, float], p: IntPoly, f: IntPoly, g: IntPoly | None, e: int,
            width: Fraction, one_above_one: bool, tried: set) -> RootInterval | None:
    """_descartes_largest in the window of one estimate x = n / d, radius r, on
    the grid (-2**e, 2**e] at depth j: at most J, cells at least r and about
    2**-SEED_PRECISION_BITS max(|x|, 1) wide; None for x or r nan or infinite,
    or for a window in tried, the windows tried so far, which it joins.  Its
    point x_m = (2m - 2**j) 2**(e - j) is x0 + m dx over v = 2**max(j - e, 0).
    Unless one_above_one and a >= 1 spare it the shift, the window starting at
    a = u / v is shifted once, by _shifted_above(f, g, u, v, ANCHOR_BITS)."""
    try:
        (n, d), (rn, rd) = estimate[0].as_integer_ratio(), estimate[1].as_integer_ratio()
    except (ValueError, OverflowError):
        return None
    tn, td = (abs(n), d << SEED_PRECISION_BITS) if abs(n) >= d else (1, 1 << SEED_PRECISION_BITS)
    if rn * td >= tn * rd:
        tn, td = rn, rd
    # floor(log2(2**(e + 1) / (tn / td))) or one less, as td is a power of two
    if (j := min(_halvings(2 << e, 1, width), e + td.bit_length() - tn.bit_length())) < 0:
        return None
    cells, cs, v = 1 << j, f.coeffs, 1 << max(j - e, 0)
    x0, dx = -cells << max(e - j, 0), 2 << max(e - j, 0)
    # the estimate's cell: k = floor((n / d + 2**e) / 2**(e + 1 - j))
    k = min(max(((n + (d << e)) << j) // (d << e + 1), 0), cells - 1)
    i0, i1 = max(k - 1, 0), min(k + 2, cells)
    a = x0 + i0 * dx
    if (key := (v, dx, a, x0 + i1 * dx)) in tried:
        return None
    tried.add(key)
    if not (one_above_one and a >= v):
        shifted = _shifted_above(f, g, a, v, ANCHOR_BITS)
        if shifted[0] == 0 or _variations(map(_sign, shifted)) != 1:
            return None
    m = k + 1
    while (s := _sign_at(cs, x0 + m * dx, v)) < 0:
        if m == i1:
            return None
        m += 1
    # after a step up, f(x_(m-1)) < 0 is known
    while i0 < m - 1 <= k and (below := _sign_at(cs, x0 + (m - 1) * dx, v)) >= 0:
        m, s = m - 1, below
    if m - 1 == i0 and _sign_at(cs, a, v) >= 0:
        return None
    if s == 0:
        hi = Fraction(x0 + m * dx, v)
        return RootInterval(p, hi, hi, multiplicity_free=True)
    return _halve(p, x0 + (m - 1) * dx, x0 + m * dx, v, -_sign(p.leading), width)


def _cells(f: IntPoly, lo: Fraction, hi: Fraction):
    """The cells (a, b] of the bisection of (lo, hi] that hold one root of the
    squarefree f each, the largest first.  A cell carries g(x) = c f(a +
    (b - a) x), c > 0: the sign variations of rev(g)(x + 1) bound the roots
    of f in (a, b), and g(1) = 0 puts one at b.  A cell reading neither 0
    nor 1 is halved, right half first, into g_l(x) = 2^n g(x / 2) and
    g_r(x) = g_l(x + 1); small cells of a squarefree f read 0 or 1."""
    n = f.degree
    r = (hi - lo) * lo.denominator  # _shifted(f, lo) is in (t - lo) lo.denominator = r x
    g = [c * r.numerator**i * r.denominator**(n - i) for i, c in enumerate(_shifted(f, lo))]
    stack = [(lo, hi, g)]
    while stack:
        a, b, g = stack.pop()
        count = _variations(map(_sign, _taylor_shift(g[::-1], 1))) + (sum(g) == 0)
        if count == 1:
            yield a, b
        elif count > 1:
            mid = (a + b) / 2
            left = [c << (n - i) for i, c in enumerate(g)]
            stack += [(a, mid, left), (mid, b, _taylor_shift(left, 1))]


def sturm_count(p: IntPoly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of p in (a, b], from the Descartes
    bisection of its squarefree part (it replaced a Sturm count)."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    sf = squarefree_part(p)
    return 0 if sf.degree < 1 else sum(1 for _ in _cells(sf, a, b))


def _bisection_largest(p: IntPoly, width: Fraction) -> RootInterval:
    """The largest real root by Descartes bisection of sf, the squarefree part
    of p, from the grid (-B, B], B = root_bound(p), then sign bisection on sf.
    Complex roots nearby can make the bisection's cell C smaller than the
    first cell holding that root and no other real one, C0.  Both refine to
    the same cell when C lies at depth J or above; below it, C0 is the
    ancestor of C at depth J, or deeper while it holds the next root's cell.
    """
    sf, bound = squarefree_part(p), root_bound(p)
    cells = _cells(sf, -bound, bound)
    top = next(cells, None)
    if top is None:
        raise NoRealRootError("polynomial has no real root")
    lo, hi = top
    step = 2 * bound / 2**_halvings(2 * bound.numerator, 1, width)
    if hi - lo < step:
        below = next(cells, None)
        a = -bound + step * ((lo + bound) // step)
        while below is not None and a <= below[0] and below[1] <= a + step:
            step /= 2
            a = -bound + step * ((lo + bound) // step)
        lo, hi = a, a + step
    return _refine(RootInterval(sf, lo, hi, multiplicity_free=True), width)


def isolate_largest_real_root(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval of at most the given width around the largest real root.

    The Descartes certificate is tried first, and the bisection from the
    whole grid runs when it fails.  Raises ValueError for a width <= 0.  Use
    spectra.spectral_radius_adjacency for trees: on a path's chi every window
    declines; at Path:1200 the bisection takes a minute, eigenvalue counts 0.4 s.
    """
    _check_width(width)
    if p.degree < 1:
        raise NoRealRootError("constant polynomial")
    iv = _descartes_largest(p, p.primitive(), width)
    return iv if iv is not None else _bisection_largest(p, width)


def _trace(f: IntPoly) -> IntPoly | None:
    """T with x^m T(x + 1/x - 2) = q, the palindromic q of even degree 2m
    among f, (x + 1) f, (x - 1) f and (x^2 - 1) f, for f = +-rev f of degree
    >= 1; None for any other f.  x^k + x^-k = W_k(x + 1/x - 2), W_0 = 2, W_1
    = s + 2, W_(k+1) = (s + 2) W_k - W_(k-1), so T = q_m + sum_(k>=1)
    q_(m+k) W_k, summed by Clenshaw's recurrence on integers at s = 2^K and
    read back once.  W_k(s) = 2 C_k(1 + s/2), C_k Chebyshev's, with roots in
    [-1, 1], has nonnegative coefficients summing to W_k(1), the Lucas number
    L_2k (3, 7, 18, 47, ... by W_(k+1)(1) = 3 W_k(1) - W_(k-1)(1)), so every
    |T_j| <= |q_m| + sum_(k>=1) |q_(m+k)| W_k(1) < 2^(K-1)."""
    q = f.coeffs
    if len(q) < 2 or abs(q[0]) != abs(q[-1]) or q[::-1] != (q if q[0] == q[-1] else tuple(-c for c in q)):
        return None
    if q[0] != q[-1]:  # (x - 1) f is palindromic
        q = [a - b for a, b in zip((0, *q), (*q, 0))]
    if len(q) % 2 == 0:  # (x + 1) q has even degree
        q = [a + b for a, b in zip((0, *q), (*q, 0))]
    m, b1, b2 = len(q) // 2, 0, 0
    bound, w1, w2 = abs(q[m]), 3, 2  # W_k(1), W_(k-1)(1)
    for c in q[m + 1:]:
        bound, w1, w2 = bound + abs(c) * w1, 3 * w1 - w2, w1
    k = bound.bit_length() + 1
    for c in q[:m:-1]:
        b1, b2 = c + (b1 << k) + 2 * b1 - b2, b1
    return IntPoly(_signed_digits(q[m] + (b1 << k) + 2 * b1 - 2 * b2, k, m + 1))


def largest_root_above_one(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval | None:
    """The interval of the largest real root of p when that root exceeds 1,
    and None otherwise.

    Its roots above 1 are counted first: for a primitive part f = +-rev f
    by the sign variations of its trace polynomial T (_trace), as x -> x +
    1/x - 2 maps (1, inf) increasingly onto (0, inf), multiplicities kept,
    else by those of p shifted to 1.  No variation certifies no root above
    1, as whenever every root lies in the closed unit disk.  One certifies
    exactly one, simple: zero coefficients are skipped, so a root at 1 of
    multiplicity m drops a factor x^m (s^m for T) and leaves its cofactor's
    count.  Salem-type polynomials read so (their other roots have real part
    below 1, and lie in [-4, 0] on T), and 1 is then the certified anchor
    of every window starting at or above 1, which takes no shift of its own.
    _descartes_largest tries T's estimate, then g's for p = x^e g(x^2),
    then p's own (_estimates), and the bisection runs when it declines.
    The interval of the largest real root decides, and when it straddles 1,
    the sign of q(1), q = iv.poly: the root is
    simple in q and q has no other root above the lower end, so it lies
    above 1 exactly when q(1) lc(q) < 0.  Raises ValueError for a width <= 0.
    """
    _check_width(width)
    f = p.primitive()
    trace = _trace(f)
    variations = descartes_bound(p, 1) if trace is None else _variations(map(_sign, trace.coeffs))
    if variations == 0:
        return None
    iv = _descartes_largest(p, f, width, variations == 1, trace)
    if iv is None:
        try:
            iv = _bisection_largest(p, width)
        except NoRealRootError:
            return None
    if iv.low < 1 < iv.high:
        above = iv.poly.sign_at(Fraction(1)) * iv.poly.leading < 0
    else:
        above = iv.low >= 1 and iv.high > 1
    return iv if above else None


class SeparationError(ValueError):
    """Two root intervals to be separated isolate one and the same root."""


def _holds(iv: RootInterval, x: Fraction) -> bool:
    """Whether x lies in the set where iv certifies its root: (low, high],
    or the single point of a degenerate interval."""
    return iv.low == x if iv.low == iv.high else iv.low < x <= iv.high


def _same_root(a: RootInterval, b: RootInterval) -> bool:
    """Whether a and b isolate the same root: whether g = gcd(a.poly, b.poly)
    has a root in the common part (lo, hi] of the two root sets.  g divides
    a.poly, whose one root there is simple, so g has at most one root there,
    simple, and has it exactly when it vanishes at hi or changes sign from
    just right of lo."""
    g = poly_gcd(a.poly, b.poly)
    if g.degree < 1:
        return False
    if a.low == a.high or b.low == b.high:
        x = a.low if a.low == a.high else b.low
        return _holds(a, x) and _holds(b, x) and g.sign_at(x) == 0
    lo, hi = max(a.low, b.low), min(a.high, b.high)
    if lo >= hi:
        return False
    s_hi = g.sign_at(hi)
    return s_hi == 0 or _sign_right_of(g, lo) != s_hi


def refine_until_disjoint(a: RootInterval, b: RootInterval) -> tuple[RootInterval, RootInterval]:
    """Refine two root intervals, both to the smaller positive width over 16
    per round, until disjoint; raises SeparationError when the two roots are
    certified equal, decided once, so the loop always ends."""
    if a.overlaps(b) and _same_root(a, b):
        raise SeparationError("the two intervals isolate the same root")
    while a.overlaps(b):
        w = min(x.width for x in (a, b) if x.width > 0) / 16
        a, b = a.refined(w), b.refined(w)
    return a, b


def compare(a: RootInterval, b: RootInterval) -> int:
    """The order of the roots isolated by a and b: -1, 0 or 1, certified exactly.

    Equality is decided by algebra (a gcd and its signs where the root sets
    of a and b meet), order by refining until the intervals are disjoint.
    """
    try:
        a, b = refine_until_disjoint(a, b)
    except SeparationError:
        return 0
    return -1 if a.is_strictly_below(b) else 1


def sqrt_interval(x_low: Fraction, x_high: Fraction, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """Rational enclosure of [sqrt(x_low), sqrt(x_high)] with outward rounding; a width <= 0 raises."""
    _check_width(width)
    if x_low < 0:
        raise ValueError("negative radicand")
    if x_low > x_high:
        raise ValueError("empty interval")
    # scale so that integer square roots give the requested precision
    k = 1 << _halvings(2, 1, width)
    lo = Fraction(math.isqrt((x_low.numerator * x_low.denominator) * k * k), x_low.denominator * k)
    num = x_high.numerator * x_high.denominator * k * k
    s = math.isqrt(num)
    if s * s < num:
        s += 1
    hi = Fraction(s, x_high.denominator * k)
    return lo, hi
