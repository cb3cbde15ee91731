"""Certified real-root counting and isolation via Sturm sequences.

All interval endpoints are exact rationals; every count and every isolating
interval is certified by exact sign computations, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .intpoly import IntPoly, pseudo_rem, squarefree_part

DEFAULT_WIDTH = Fraction(1, 10**9)


class NoRealRootError(ValueError):
    """Raised when root isolation is requested for a polynomial without real roots."""


@dataclass(frozen=True)
class RootInterval:
    """A rational interval certified to contain exactly one real root of poly.

    A degenerate interval (low == high) certifies an exact rational root.
    The multiplicity_free flag records whether that root is simple in poly
    (isolation always proceeds through the squarefree part either way).
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

    def contains(self, x: Fraction) -> bool:
        return self.low <= x <= self.high

    def __float__(self) -> float:
        return float(self.midpoint())

    def is_disjoint_from(self, other: "RootInterval") -> bool:
        return self.high < other.low or other.high < self.low

    def is_strictly_below(self, other: "RootInterval") -> bool:
        return self.high < other.low

    def overlaps(self, other: "RootInterval") -> bool:
        return not self.is_disjoint_from(other)

    def refined(self, width: Fraction) -> "RootInterval":
        """A sub-interval of at most the given width around the same root."""
        if self.width <= width:
            return self
        return _refine(squarefree_part(self.poly), self, width)

    def with_multiplicity_flag(self) -> "RootInterval":
        """The same interval with the multiplicity flag computed from poly."""
        return RootInterval(self.poly, self.low, self.high,
                            root_is_simple(self.poly, self.low, self.high))

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


def sturm_chain(p: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm sequence of a squarefree polynomial, normalized to primitive parts.

    Each step negates the pseudo-remainder; positive rescaling preserves signs,
    so variation counts are unchanged.
    """
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        r = pseudo_rem(chain[-2], chain[-1])
        if r.is_zero():
            break
        r = -r
        # pseudo_rem scales by lc^k; an even power (or positive lc) keeps orientation,
        # a negative odd power flips it and must be undone before normalizing.
        k = chain[-2].degree - chain[-1].degree + 1
        if chain[-1].leading < 0 and k % 2 == 1:
            r = -r
        g = r.content()
        chain.append(IntPoly(c // g for c in r.coeffs))
    return tuple(chain)


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


def count_roots(p: IntPoly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    The squarefree part is taken internally, so multiple roots count once.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    return _variations_at(chain, a) - _variations_at(chain, b)


# Public name used by the polynomial-facing API.
sturm_count = count_roots


def count_roots_open(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the open interval (a, b)."""
    n = count_roots(p, a, b)
    if squarefree_part(p).sign_at(Fraction(b)) == 0:
        n -= 1
    return n


def count_real_roots(p: IntPoly) -> int:
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def cauchy_bound(p: IntPoly) -> Fraction:
    """All real roots lie in (-B, B] for this B."""
    if p.degree < 1:
        raise ValueError("constant polynomial")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _refine(sf: IntPoly, bracket: RootInterval, width: Fraction) -> RootInterval:
    """Shrink a bracket certified to contain exactly one root of squarefree sf.

    The bracket invariant is "exactly one root in (low, high]"; once both
    endpoint signs are nonzero they must differ, and plain sign bisection
    (one exact evaluation per step) finishes the job.
    """
    flag = bracket.multiplicity_free
    lo, hi = bracket.low, bracket.high
    s_hi = sf.sign_at(hi)
    if s_hi == 0:
        return RootInterval(bracket.poly, hi, hi, flag)
    s_lo = sf.sign_at(lo)
    if s_lo == 0:
        # lo is a different root of sf; step inward until it is excluded.
        chain = sturm_chain(sf)
        v_hi = _variations_at(chain, hi)
        while s_lo == 0:
            probe = lo + (hi - lo) / 4
            s_probe = sf.sign_at(probe)
            if s_probe == 0:
                return RootInterval(bracket.poly, probe, probe, flag)
            if _variations_at(chain, probe) - v_hi == 1:
                lo, s_lo = probe, s_probe
            else:
                hi, s_hi = probe, s_probe
                v_hi = _variations_at(chain, hi)
    if s_lo * s_hi >= 0:
        raise ArithmeticError("bracket invariant violated")
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sf.sign_at(mid)
        if s_mid == 0:
            return RootInterval(bracket.poly, mid, mid, flag)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return RootInterval(bracket.poly, lo, hi, flag)


def root_is_simple(p: IntPoly, low: Fraction, high: Fraction) -> bool:
    """Whether the single root of p isolated in [low, high] is simple in p."""
    from .intpoly import poly_gcd
    g = poly_gcd(p, p.derivative())
    if g.degree < 1:
        return True
    if low == high:
        return g.sign_at(low) != 0
    return count_roots(g, low, high) == 0


def _flagged(p: IntPoly, sf: IntPoly, iv: RootInterval) -> RootInterval:
    if sf.degree == p.degree:
        return iv  # squarefree input: every root simple
    return iv.with_multiplicity_flag()


def isolate_largest_real_root(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootInterval:
    """Certified interval of at most the given width around the largest real root."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        raise NoRealRootError("polynomial has no real root")
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    total = _variations_at(chain, -bound) - _variations_at(chain, bound)
    if total == 0:
        raise NoRealRootError("polynomial has no real root")
    # Find lo with exactly one root in (lo, bound].
    lo, hi = -bound, bound
    while _variations_at(chain, lo) - _variations_at(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _variations_at(chain, mid) - _variations_at(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return _flagged(p, sf, _refine(sf, RootInterval(p, lo, hi), width))


def isolate_smallest_positive_root(p: IntPoly, width: Fraction = DEFAULT_WIDTH,
                                   upper: Fraction | None = None) -> RootInterval:
    """Certified interval around the smallest real root in (0, upper]."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        raise NoRealRootError("polynomial has no real root")
    chain = sturm_chain(sf)
    hi = upper if upper is not None else cauchy_bound(sf)
    lo = Fraction(0)
    if _variations_at(chain, lo) - _variations_at(chain, hi) == 0:
        raise NoRealRootError("no root in the requested range")
    # Shrink hi until exactly one root remains in (0, hi].
    while _variations_at(chain, lo) - _variations_at(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _variations_at(chain, lo) - _variations_at(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return _flagged(p, sf, _refine(sf, RootInterval(p, lo, hi), width))


def isolate_real_roots(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> list[RootInterval]:
    """Disjoint certified intervals around every distinct real root, ascending."""
    sf = squarefree_part(p)
    if sf.degree < 1:
        return []
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    out: list[RootInterval] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int):
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append(_flagged(p, sf, _refine(sf, RootInterval(p, a, b), width)))
            return
        mid = (a + b) / 2
        vm = _variations_at(chain, mid)
        split(a, mid, va, vm)
        split(mid, b, vm, vb)

    split(-bound, bound, _variations_at(chain, -bound), _variations_at(chain, bound))
    return out


class SeparationError(ValueError):
    """Two root intervals resisted separation down to the floor width."""


def refine_until_disjoint(a: RootInterval, b: RootInterval,
                          floor_width: Fraction = Fraction(1, 10**40)) -> tuple[RootInterval, RootInterval]:
    """Refine two root intervals until disjoint; raises if they resist separation.

    Failure at the floor width strongly suggests the two roots are equal;
    callers needing equality detection should compare polynomials algebraically.
    """
    while a.overlaps(b):
        widths = [x.width for x in (a, b) if x.width > 0]
        if not widths:
            raise SeparationError("both intervals are exact equal points")
        w = min(widths) / 16
        if w < floor_width:
            raise SeparationError("intervals could not be separated; roots may coincide")
        a = a.refined(w)
        b = b.refined(w)
    return a, b


def certify_strictly_less(a: RootInterval, b: RootInterval,
                          floor_width: Fraction = Fraction(1, 10**40)) -> tuple[RootInterval, RootInterval]:
    """Refine until a's root is certified strictly below b's; raises otherwise."""
    a, b = refine_until_disjoint(a, b, floor_width)
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


def invert_interval(low: Fraction, high: Fraction) -> tuple[Fraction, Fraction]:
    """Exact reciprocal of a positive interval."""
    if low <= 0:
        raise ValueError("interval must be strictly positive")
    return 1 / high, 1 / low
