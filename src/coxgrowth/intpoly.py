"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored in ascending degree order as a tuple of Python ints,
with no trailing zeros (the zero polynomial is the empty tuple).  All ring
operations are exact; rationals never appear in coefficients.

One kernel of each kind serves the package:

- _signed_digits reads a polynomial back from its value at t = 2^K (the
  polygon denominator, the Steinberg sum, both tree polynomials and the
  trace polynomial of roots) and raises ArithmeticError on anything left;
- _divide, long division of a coefficient list in place, is behind
  exact_div and every step of _signed_remainders, the signed remainder
  sequence on coefficient lists behind every gcd and Cauchy index;
- _divide_cyclotomic divides one packed value by Phi_n(2^k), its candidates
  screened once by p's values at 2, -2 and 3, for numclass.strip_cyclotomic
  and growth's reduction, with one certified readback;
- _taylor_shift is behind the Cayley transform of numclass, the
  Descartes counts of roots and coxtrans.alpha_from_lambda.

Squarefree parts come from gcd(p, p') over the integers (Yun), with no
modular gcd.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .record import Record


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


class IntPoly(Record):
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

    # Direct rather than Record's generic pair: IntPoly equality and hashes
    # are on hot paths (the star and growth checks).
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

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
        return _sign_at(self.coeffs, x.numerator, x.denominator)

    # -- structure ----------------------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def reversed(self) -> "IntPoly":
        """The reciprocal transform t^deg * p(1/t)."""
        return IntPoly(reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient; self when it is one."""
        if not self.coeffs:
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return self if c == 1 else IntPoly(x // c for x in self.coeffs)

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


def _sign_at(coeffs, u: int, v: int) -> int:
    """The sign of sum c_i u^i v^(n-i) over the coefficients c_0..c_n: for
    v > 0, the sign of the polynomial at u / v, with no fraction formed."""
    acc, vk = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c * vk
        vk *= v
    return (acc > 0) - (acc < 0)


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {x!r} to IntPoly")


ONE = IntPoly([1])


# The most significant digits an integer of the text formats may have: int()
# converts no more than 4300 by default (sys.get_int_max_str_digits()).
INT_DIGITS_BOUND = 4300


def _digits_value(digits: str, max_digits: int = INT_DIGITS_BOUND) -> int | None:
    """The value of a string of ASCII digits, or None when more than max_digits
    of them follow the leading zeros: no longer string is converted."""
    digits = digits.lstrip("0")
    return None if len(digits) > max_digits else int(digits or 0)


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated ascending coefficient format.

    Whitespace is ignored; a leading '+' on a coefficient is rejected, and so
    is one of more than INT_DIGITS_BOUND digits after its leading zeros.
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
        if (value := _digits_value(body)) is None:
            raise ValueError(f"coefficient at position {pos} has more than {INT_DIGITS_BOUND} digits")
        cs.append(-value if item.startswith("-") else value)
    return IntPoly(cs)


def bracket(k: int) -> IntPoly:
    """The polynomial 1 + t + ... + t^(k-1)."""
    if k < 1:
        raise ValueError(f"bracket index must be >= 1, got {k}")
    return IntPoly([1] * k)


def _signed_digits(v: int, k: int, n: int) -> list[int]:
    """The n base-2^k digits of v, least significant first, each in
    [-2^(k-1), 2^(k-1)): the coefficients c_j of sum c_j 2^(kj) = v when
    every |c_j| < 2^(k-1).  Raises ArithmeticError if v needs more digits."""
    half, mask = 1 << k - 1, (1 << k) - 1
    out = []
    for _ in range(n):
        digit = (v + half & mask) - half
        out.append(digit)
        v = v - digit >> k
    if v:
        raise ArithmeticError(f"value does not fit in {n} signed base-2^{k} digits")
    return out


# -- division ------------------------------------------------------------------


def _divide(rem: list[int], b) -> list[int]:
    """Long division of the coefficient list rem by the coefficients b, in
    place: rem is left holding the remainder, and the quotient's coefficients
    are returned.

    Raises ExactDivisionError at any step whose leading coefficient is not a
    multiple of lc(b) (never for monic b).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        lead = rem[i + db]
        if lead == 0:
            continue
        f, r = divmod(lead, lb)
        if r:
            raise ExactDivisionError("leading coefficient does not divide")
        q[i] = f
        for j, c in enumerate(b, i):
            rem[j] -= f * c
    return q


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient in Z[t]; raises ExactDivisionError on any remainder.

    Division over Q is unique and the integral long division follows it step
    by step, so a step that does not divide in Z means a non-integral
    quotient, and a remainder left by a full pass is final.
    """
    rem = list(a.coeffs)
    q = _divide(rem, b.coeffs)
    if any(rem):
        raise ExactDivisionError("nonzero remainder")
    return IntPoly(q)


def _signed_remainders(f0: IntPoly, f1: IntPoly) -> list[list[int]]:
    """The signed remainder sequence f0, f1, f2, ... of nonzero f0, as
    coefficient lists with no zero member, f_(k+1) a positive multiple of
    -rem(f_(k-1), f_k), reduced to its primitive part.

    A step with deg f_(k-1) >= deg f_k divides lc(f_k)^k f_(k-1), k = deg
    f_(k-1) - deg f_k + 1, by f_k; one with deg f_(k-1) < deg f_k takes
    f_(k-1) itself.  An even power (or positive lc) keeps orientation, a
    negative odd power flips it, which dividing by the content instead of
    -content undoes; positive rescaling preserves signs, so variation counts
    are unchanged.  The last member is a multiple of gcd(f0, f1) (f0 itself
    when f1 is zero).
    """
    a, b = list(f0.coeffs), list(f1.coeffs)
    chain = [a, b] if b else [a]
    while b:
        k, lb = len(a) - len(b) + 1, b[-1]
        if k > 0:
            scale = lb ** k
            rem = [c * scale for c in a]
            _divide(rem, b)
            del rem[len(b) - 1:]
        else:
            rem = list(a)
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        flipped = lb < 0 and k > 0 and k % 2 == 1
        g = math.gcd(*rem) if flipped else -math.gcd(*rem)
        a, b = b, [c // g for c in rem]
        chain.append(b)
    return chain


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] with positive leading coefficient: the last
    member of the signed remainder sequence, which is primitive (b's
    primitive part, or a member reduced by its content), up to sign."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    r0, r1 = a.primitive(), b.primitive()
    if r0.degree < r1.degree:
        r0, r1 = r1, r0
    g = _signed_remainders(r0, r1)[-1]
    return IntPoly(g if g[-1] > 0 else [-c for c in g])


def _taylor_shift(coeffs, c: int) -> list[int]:
    """Coefficients of p(x + c) from those of p(x), in O(n^2) additions."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.degree <= 0:
        return p.primitive() if not p.is_zero() else p
    g = poly_gcd(p, p.derivative())
    return exact_div(p.primitive(), g).primitive()


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: factors (f_i, i) with p = content * prod f_i^i, f_i
    squarefree; a squarefree p, whose gcd with p' is constant, is its own
    one factor after that first gcd."""
    if p.degree <= 0:
        return []
    p = p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out = []
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


# -- cyclotomic polynomials ---------------------------------------------------------


@functools.cache
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial by Moebius inversion of t^n - 1 = prod_(d|n)
    Phi_d: the product of t^d - 1 over the d | n with mu(n/d) = 1, divided by
    t^d - 1 for each d with mu(n/d) = -1, each step in O(n) additions."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    plus, minus = _mobius_divisors(n)
    cs = [1]
    for d in plus:  # b = a (t^d - 1): b_i = a_(i-d) - a_i
        cs = [(cs[i - d] if i >= d else 0) - (cs[i] if i < len(cs) else 0) for i in range(len(cs) + d)]
    for d in minus:  # a = q (t^d - 1): q_i = q_(i-d) - a_i
        q: list[int] = []
        for i in range(len(cs) - d):
            q.append((q[i - d] if i >= d else 0) - cs[i])
        cs = q
    return IntPoly(cs)


@functools.cache
def _mobius_divisors(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divisors d of n with mu(n/d) = 1, and those with mu(n/d) = -1."""
    terms, m, q = [(n, 1)], n, 2
    while m > 1:
        if m % q == 0:  # q is prime: the smaller primes are gone from m
            terms += [(d // q, -mu) for d, mu in terms]
            while m % q == 0:
                m //= q
        q += 1
    return tuple(d for d, mu in terms if mu > 0), tuple(d for d, mu in terms if mu < 0)


_PROBES = (2, -2, 3)


@functools.cache
def _probe_values(n: int) -> tuple[int, tuple[int, ...]]:
    """phi(n), the degree of Phi_n, and Phi_n(j) for j in _PROBES without
    building Phi_n: the products of j^d - 1 over the d of cyclotomic's
    Moebius inversion, one divided by the other (no factor is 0)."""
    plus, minus = _mobius_divisors(n)
    values = (math.prod(j ** d - 1 for d in plus) // math.prod(j ** d - 1 for d in minus) for j in _PROBES)
    return sum(plus) - sum(minus), tuple(values)


def _pack(p: IntPoly, k: int) -> int:
    """p(2^k), by shifts and adds."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << k) + c
    return v


def _cyclotomic_width(p: IntPoly) -> int:
    """deg p + ceil(log2 ||p||_2) + 2."""
    return p.degree + ((sum(c * c for c in p.coeffs) - 1).bit_length() + 1) // 2 + 2


def _divide_cyclotomic(p: IntPoly, caps) -> tuple[IntPoly, list[tuple[int, int]]]:
    """(q, factors): p divided by Phi_n as often as it divides, at most cap
    times, for each (n, cap) of caps in order; p = q prod Phi_n^m over the
    (n, m > 0) of factors.  Divides v = core(2^k) by Phi_n(2^k) while the
    remainder is 0, trying Phi_n only when Phi_n(j) divides core(j) at each
    probe j, as it must.

    The caps are screened once, by p's own values, in one pass with no
    per-candidate generator: every cofactor core the division reaches has
    p(j) = core(j) prod Phi_m(j)^e in the integers, so an n with Phi_n(j)
    not dividing p(j) divides no core(j) either and would fail its first
    test; dropping it changes no output.  The test on the current cofactor
    stays, as it is what bounds each multiplicity.

    The last v is read back once, as q, and accepted when ||q||_1 2^e <
    2^(k-1), e = deg p - deg q: as ||g||_1 <= 2^(deg g) for a product g of
    Phi_n (Mignotte, Mahler measure 1), q prod Phi_n^m and p, for k >=
    _cyclotomic_width(p), then have all coefficients below 2^(k-1) and one
    value at 2^k, so they are equal, and a nonzero remainder proves that
    Phi_n does not divide.  A true q passes, M(q) = M(p) <= ||p||_2; after
    a false divisibility at 2^k all is redone at 2k, which ends, as the
    remainders p mod Phi_n are fixed."""
    k, values = _cyclotomic_width(p), tuple(p(j) for j in _PROBES)
    x, y, z = values
    caps = [(n, cap, phi, a, b, c) for n, cap in caps for phi, (a, b, c) in (_probe_values(n),)
            if x % a == 0 and y % b == 0 and z % c == 0]
    while True:
        v, deg, (x, y, z), factors = _pack(p, k), p.degree, values, []
        for n, cap, phi, a, b, c in caps:
            if deg < 1:
                break
            mult, packed = 0, None
            while mult < cap and deg >= phi and x % a == 0 and y % b == 0 and z % c == 0:
                packed = packed or _pack(cyclotomic(n), k)
                q, r = divmod(v, packed)
                if r:
                    break
                v, x, y, z, mult, deg = q, x // a, y // b, z // c, mult + 1, deg - phi
            if mult:
                factors.append((n, mult))
        try:
            q = _signed_digits(v, k, deg + 1)
        except ArithmeticError:
            pass
        else:
            if sum(map(abs, q)) << p.degree - deg < 1 << k - 1:
                return IntPoly(q), factors
        k *= 2


def _cyclotomic_product(exponents: dict[int, int]) -> IntPoly:
    """prod Phi_n^e_n, read back once from its value at 2^k, k = deg + 2:
    by Mignotte, as in _divide_cyclotomic, no coefficient exceeds 2^deg."""
    deg = sum(cyclotomic(n).degree * e for n, e in exponents.items())
    v = math.prod(_pack(cyclotomic(n), deg + 2) ** e for n, e in exponents.items())
    return IntPoly(_signed_digits(v, deg + 2, deg + 1))

