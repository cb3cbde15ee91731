"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored in ascending degree order as a tuple of Python ints,
with no trailing zeros (the zero polynomial is the empty tuple).  All ring
operations are exact; rationals never appear in coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


@dataclass(frozen=True, init=False)
class IntPoly:
    """A polynomial over the integers, e.g. IntPoly([1, 0, -2]) is 1 - 2t^2."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.leading == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        return IntPoly(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        other = _coerce(other)
        return IntPoly(a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __rsub__(self, other) -> "IntPoly":
        return _coerce(other) - self

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of the value at a rational point, via the homogeneous form."""
        a, b = x.numerator, x.denominator
        n = self.degree
        if n < 0:
            return 0
        acc = 0
        bp = 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * bp
            bp *= b
        return (acc > 0) - (acc < 0)

    # -- structure ----------------------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def reversed(self) -> "IntPoly":
        """The reciprocal transform t^deg * p(1/t)."""
        return IntPoly(reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if not self.coeffs:
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return IntPoly(x // c for x in self.coeffs)

    # -- presentation ---------------------------------------------------------

    def to_text(self) -> str:
        """Comma-separated ascending coefficients, e.g. '1,0,-2'."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly('{self}')"


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {x!r} to IntPoly")


ZERO = IntPoly()
ONE = IntPoly([1])
T = IntPoly([0, 1])


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated ascending coefficient format.

    Whitespace is ignored; a leading '+' on a coefficient is rejected.
    """
    cs = []
    for pos, item in enumerate(text.split(","), start=1):
        item = "".join(item.split())
        if not item:
            raise ValueError(f"empty coefficient at position {pos}")
        if item.startswith("+"):
            raise ValueError(f"leading '+' forbidden at position {pos}")
        body = item[1:] if item.startswith("-") else item
        if not (body.isascii() and body.isdigit()):
            raise ValueError(f"bad coefficient {item!r} at position {pos}")
        cs.append(int(item))
    return IntPoly(cs)


def bracket(k: int) -> IntPoly:
    """The polynomial 1 + t + ... + t^(k-1)."""
    if k < 1:
        raise ValueError(f"bracket index must be >= 1, got {k}")
    return IntPoly([1] * k)


# -- division ------------------------------------------------------------------


def divmod_exact_lc(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of a by b when every elimination step divides.

    Requires the leading coefficient of b to divide every intermediate leading
    coefficient (always true for monic b); raises ExactDivisionError otherwise.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lb = b.degree, b.leading
    q = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        lead = rem[i + db]
        if lead == 0:
            continue
        if lead % lb != 0:
            raise ExactDivisionError("leading coefficient does not divide")
        f = lead // lb
        q[i] = f
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= f * c
    return IntPoly(q), IntPoly(rem)


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient in Z[t]; raises ExactDivisionError on any remainder."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    # Fast path: steps stay integral (monic divisors in particular).  Division
    # over Q is unique, so a remainder left by a full integral pass is final.
    try:
        q, r = divmod_exact_lc(a, b)
    except ExactDivisionError:
        pass  # a leading coefficient did not divide; decide over the rationals
    else:
        if r.is_zero():
            return q
        raise ExactDivisionError("nonzero remainder")
    # General case over the rationals, then check integrality.
    rem = [Fraction(c) for c in a.coeffs]
    db, lb = b.degree, Fraction(b.leading)
    q = [Fraction(0)] * max(0, len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        f = rem[i + db] / lb
        q[i] = f
        if f:
            for j, c in enumerate(b.coeffs):
                rem[i + j] -= f * c
    if any(rem[:db]):
        raise ExactDivisionError("nonzero remainder")
    if any(c.denominator != 1 for c in q):
        raise ExactDivisionError("quotient not integral")
    return IntPoly(int(c) for c in q)


def divides(b: IntPoly, a: IntPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except (ExactDivisionError, ZeroDivisionError):
        return False


def pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: remainder of lc(b)^(deg a - deg b + 1) * a by b, in Z[t]."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    da, db = a.degree, b.degree
    if da < db:
        return a
    lb = b.leading
    scale = lb ** (da - db + 1)
    rem = [c * scale for c in a.coeffs]
    for i in range(len(rem) - db - 1, -1, -1):
        lead = rem[i + db]
        if lead == 0:
            continue
        f = lead // lb
        if f * lb != lead:
            raise ArithmeticError("pseudo-remainder step is not exact")
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= f * c
    return IntPoly(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] with positive leading coefficient."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    r0, r1 = a.primitive(), b.primitive()
    if r0.degree < r1.degree:
        r0, r1 = r1, r0
    while not r1.is_zero():
        r = pseudo_rem(r0, r1)
        r0, r1 = r1, r.primitive() if not r.is_zero() else ZERO
    return r0


def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.degree <= 0:
        return p.primitive() if not p.is_zero() else p
    g = poly_gcd(p, p.derivative())
    return exact_div(p.primitive(), g).primitive()


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: factors (f_i, i) with p = content * prod f_i^i, f_i squarefree."""
    if p.degree <= 0:
        return []
    p = p.primitive()
    out = []
    g = poly_gcd(p, p.derivative())
    w = exact_div(p, g)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        f = exact_div(w, y)
        if f.degree > 0:
            out.append((f, i))
        w, g = y, exact_div(g, y)
        i += 1
    return out


# -- reciprocal structure --------------------------------------------------------


def reciprocity_type(p: IntPoly) -> str:
    """'reciprocal' if t^deg p(1/t) = p, 'anti_reciprocal' if it equals -p, else 'neither'."""
    if p.is_zero():
        raise ValueError("zero polynomial has no reciprocity type")
    r = p.reversed()
    if r == p:
        return "reciprocal"
    if r == -p:
        return "anti_reciprocal"
    return "neither"


def palindromic_reduce(p: IntPoly) -> IntPoly:
    """For reciprocal p of even degree 2d, the q of degree d with p(t) = t^d q(t + 1/t)."""
    if reciprocity_type(p) != "reciprocal":
        raise ValueError("palindromic reduction needs a reciprocal polynomial")
    if p.degree % 2 != 0:
        raise ValueError("palindromic reduction needs even degree")
    d = p.degree // 2
    residual = list(p.coeffs) + [0] * (2 * d + 1 - len(p.coeffs))
    q = [0] * (d + 1)
    # t^(d-k) (t^2+1)^k has top coefficient at t^(d+k); peel from the top down.
    for k in range(d, -1, -1):
        q[k] = residual[d + k]
        if q[k]:
            term = (IntPoly([1, 0, 1]) ** k).shift(d - k) * q[k]
            for j, c in enumerate(term.coeffs):
                residual[j] -= c
    if any(residual):
        raise ValueError("polynomial is not expressible in t + 1/t")
    return IntPoly(q)


# -- cyclotomic polynomials ---------------------------------------------------------


def _mobius_sieve(n: int) -> list[int]:
    mu = [1] * (n + 1)
    primes = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by the Moebius product with exact division."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return IntPoly([-1, 1])
    mu = _mobius_sieve(n)
    num = IntPoly([1])
    den = IntPoly([1])
    for d in range(1, n + 1):
        if n % d:
            continue
        m = mu[n // d]
        if m == 1:
            num = num * (IntPoly([-1] + [0] * (d - 1) + [1]))
        elif m == -1:
            den = den * (IntPoly([-1] + [0] * (d - 1) + [1]))
    return exact_div(num, den)


# -- resultant-based spectral parameter transfer -------------------------------------


def trace_resultant(p: IntPoly) -> IntPoly:
    """Resultant in s of s^2 - x*s + 1 and p(s), as a polynomial in x.

    The result vanishes exactly at x = r + 1/r for every root r of p.
    Computed by reducing p modulo the monic quadratic over Z[x].
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    # Reduce p(s) mod s^2 = x*s - 1 with coefficients in Z[x]: p == u(x)*s + v(x).
    u, v = ZERO, ZERO
    x = IntPoly([0, 1])
    for c in reversed(p.coeffs):
        # multiply (u*s + v) by s, then add c
        u, v = u * x + v, -u + IntPoly([c])
    # Res(s^2 - x s + 1, u s + v) = u^2 + u v x + v^2  (product over the two roots)
    return u * u + u * v * x + v * v


def resultant_eliminate(p: IntPoly) -> IntPoly:
    """Polynomial in a vanishing whenever a^2 = 2 + r + 1/r for a root r of p.

    Eliminates r between p(r) = 0 and r*(a^2 - 2) - r^2 - 1 = 0; requires
    p(0) != 0 so that 1/r is defined for every root.
    """
    if p.constant == 0:
        raise ValueError("p(0) must be nonzero")
    r = trace_resultant(p)
    # substitute x -> a^2 - 2
    sub = IntPoly([-2, 0, 1])
    out = ZERO
    power = IntPoly([1])
    for c in r.coeffs:
        if c:
            out = out + power * c
        power = power * sub
    return out.primitive()
