"""Exact scalars: rationals and cyclotomic extensions Q(rho_r).

Every coefficient in the package is either a ``fractions.Fraction`` or a
:class:`Cyclo` element, a polynomial in the primitive r-th root of unity
reduced modulo the r-th cyclotomic polynomial.  Curves whose ramification
orders are all <= 2 stay in plain rationals (rho_2 = -1 is rational).

A :class:`Cyclo` is a tuple of integer numerators over one positive common
denominator, in lowest terms, so equal values are equal tuples.  A product
is an integer convolution reduced by integer rows of x^m mod Phi_n (Phi_n
is monic with integer coefficients) followed by a single gcd; a sum over
one denominator needs no cross-multiplication.  Rational elements multiply
as a scaling.  Only ``inverse`` works over ``Fraction`` coefficients (the
extended Euclid algorithm modulo Phi_n); it is rare.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FieldExtensionError

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Monic coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    # x^n - 1 divided by the product of Phi_d over proper divisors d.
    poly = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_div_exact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Exact division of polynomials with Fraction coefficients."""
    num = list(num)
    out = [_ZERO] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division not exact")
    return out


# -- dense Fraction polynomials, low to high; zero normalizes to [] ---------

def _poly_mul(a, b) -> list[Fraction]:
    """Product, not normalized: len(a) + len(b) - 1 coefficients."""
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_norm(p: list[Fraction]) -> list[Fraction]:
    """Strip trailing zeros in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _poly_sub(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _poly_norm([x - y for x, y in zip(a, b)])


def _poly_deriv(p) -> list[Fraction]:
    return _poly_norm([Fraction(c * i) for i, c in enumerate(p)][1:])


def _poly_shift(p, a: Fraction) -> list[Fraction]:
    """Coefficients of p(a + u) as a polynomial in u (Taylor shift)."""
    out = []
    for c in reversed([Fraction(q) for q in p]):
        new = [_ZERO] * (len(out) + 1)
        for i, ci in enumerate(out):
            new[i] += ci * a
            new[i + 1] += ci
        new[0] += c
        out = _poly_norm(new)
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^m mod Phi_n for m = deg .. 2*deg-2, as sparse integer rows of
    (i, coefficient of x^i) pairs.  Phi_n is monic with integer
    coefficients, so every row is integral."""
    phi = [int(c) for c in cyclotomic_polynomial(n)]
    deg = len(phi) - 1
    # x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})
    cur = [-c for c in phi[:deg]]
    dense = [cur]
    for _ in range(deg - 2):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [s + lead * h for s, h in zip(cur, dense[0])]
        dense.append(cur)
    return tuple(tuple((i, c) for i, c in enumerate(row) if c)
                 for row in dense)


class Cyclo:
    """An element of Q(rho_n), reduced modulo the n-th cyclotomic polynomial.

    Stored as integer numerators ``num`` (low to high power of rho_n) over
    one denominator ``den > 0`` with gcd(num..., den) = 1, so equal values
    have equal fields.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        deg = len(cyclotomic_polynomial(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector too long; reduce first")
        cs += [_ZERO] * (deg - len(cs))
        den = lcm(*(c.denominator for c in cs))
        _set_order(self, order)
        _set_num(self, tuple(c.numerator * (den // c.denominator)
                             for c in cs))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("Cyclo is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(order: int, value) -> "Cyclo":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        deg = len(cyclotomic_polynomial(order)) - 1
        return _make(order, (q.numerator,) + (0,) * (deg - 1),
                     q.denominator)

    @staticmethod
    def root_power(order: int, j: int) -> "Cyclo":
        """rho_order ** j."""
        j %= order
        deg = len(cyclotomic_polynomial(order)) - 1
        if j < deg:
            return _make(order, (0,) * j + (1,) + (0,) * (deg - 1 - j), 1)
        return Cyclo(order, [0, 1]) ** j

    # -- ring structure ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _reduced(self.order,
                            [a + b for a, b in zip(self.num, o.num)], d1)
        return _reduced(self.order,
                        [a * d2 + b * d1 for a, b in zip(self.num, o.num)],
                        d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, p: int, q: int) -> "Cyclo":
        """self * p/q for integers p and q > 0."""
        return _reduced(self.order, [p * c for c in self.num], q * self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(b[1:]):
            return self._scaled(b[0], o.den)
        if not any(a[1:]):
            return o._scaled(a[0], self.den)
        deg = len(a)
        raw = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        raw[i + j] += x * y
        out = raw[:deg]
        for c, row in zip(raw[deg:], _reduction_rows(self.order)):
            if c:
                for i, ri in row:
                    out[i] += c * ri
        return _reduced(self.order, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyclo.rational(self.order, Fraction(self.den, self.num[0]))
        phi = list(cyclotomic_polynomial(self.order))
        return Cyclo(self.order, _mod_inverse(list(self.coeffs), phi))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclo.rational(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates & conversions --------------------------------------
    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, Cyclo):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*w")
            else:
                terms.append(f"{c}*w^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo({self.order}; {body})"


_set_order = Cyclo.order.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__


def _make(order: int, num: tuple, den: int) -> Cyclo:
    """A Cyclo from numerators and a denominator already in lowest terms."""
    out = object.__new__(Cyclo)
    _set_order(out, order)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _reduced(order: int, num, den: int) -> Cyclo:
    """A Cyclo from integer numerators over a positive denominator."""
    g = gcd(den, *num)
    if g != 1:
        return _make(order, tuple(c // g for c in num), den // g)
    return _make(order, tuple(num), den)


def _poly_divmod(p: list[Fraction], q: list[Fraction]):
    p = list(p)
    quo = [_ZERO] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q):
        shift = len(p) - len(q)
        c = p[-1] / q[-1]
        quo[shift] = c
        for j, qj in enumerate(q):
            p[shift + j] -= c * qj
        _poly_norm(p)
        if not p:
            break
    return _poly_norm(quo), p


def _mod_inverse(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo an irreducible polynomial, by extended Euclid."""
    r0, r1 = _poly_norm(list(mod)), _poly_norm(list(a))
    s0: list[Fraction] = []
    s1: list[Fraction] = [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_norm(_poly_mul(tuple(q or [_ZERO]),
                                                        tuple(s1 or [_ZERO]))))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible (modulus not coprime)")
    lead = r0[0]
    return [c / lead for c in (s0 or [_ZERO])]


class ScalarField:
    """The active coefficient field: Q when order <= 2, else Q(rho_order)."""

    __slots__ = ("order",)

    def __init__(self, order: int = 1):
        if order < 1:
            raise ValueError("field order must be >= 1")
        self.order = 1 if order == 2 else order

    @property
    def is_rational(self) -> bool:
        return self.order <= 2

    def zero(self):
        return _ZERO if self.is_rational else Cyclo.rational(self.order, 0)

    def one(self):
        return _ONE if self.is_rational else Cyclo.rational(self.order, 1)

    def coerce(self, value):
        if self.is_rational:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, Cyclo):
                return value.as_fraction()
            return Fraction(value)
        if isinstance(value, Cyclo):
            if value.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return value
        return Cyclo.rational(self.order, value)

    def root(self, r: int, j: int):
        """rho_r ** j inside this field."""
        j %= r
        if j == 0:
            return self.one()
        if r == 1:
            return self.one()
        if r == 2:
            return self.coerce(-1) if j == 1 else self.one()
        if self.is_rational or self.order % r != 0:
            raise FieldExtensionError(
                f"field Q(rho_{self.order}) does not contain rho_{r}")
        return Cyclo.root_power(self.order, j * (self.order // r))

    def as_fraction(self, value) -> Fraction:
        if isinstance(value, Cyclo):
            return value.as_fraction()
        return Fraction(value)

    def __eq__(self, other):
        return isinstance(other, ScalarField) and other.order == self.order

    def __repr__(self):
        return f"ScalarField({self.order})"


def is_zero(value) -> bool:
    return not value
