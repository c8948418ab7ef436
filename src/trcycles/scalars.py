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
as a scaling.  ``inverse`` multiplies the Galois conjugates sigma_m(a)
(rho -> rho^m) and divides by their rational product with a, the norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FieldExtensionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Monic integer coefficients (low to high) of the n-th cyclotomic
    polynomial: x^n - 1 divided by the monic Phi_d of every proper
    divisor d, so every quotient is integral."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            k = len(phi) - 1
            quo = [0] * (len(poly) - k)
            for i in range(len(quo) - 1, -1, -1):
                c = quo[i] = poly[i + k]
                if c:
                    for j, pj in enumerate(phi):
                        poly[i + j] -= c * pj
            poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^m mod Phi_n for m = deg .. 2*deg-2, as sparse integer rows of
    (i, coefficient of x^i) pairs.  Phi_n is monic with integer
    coefficients, so every row is integral."""
    phi = cyclotomic_polynomial(n)
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
    @lru_cache(maxsize=None)
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
        # 1/a = prod_m sigma_m(a) / N(a) over the Galois automorphisms
        # sigma_m: rho -> rho^m (m in (Z/n)*, m != 1); the norm
        # N(a) = a * prod_m sigma_m(a) is rational.  The conjugates are
        # built from the numerators alone: the common factor cancels.
        n = self.order
        conj = Cyclo.rational(n, 1)
        for m in range(2, n):
            if gcd(m, n) == 1:
                image = Cyclo.rational(n, 0)
                for i, c in enumerate(self.num):
                    if c:
                        image = image + Cyclo.root_power(n, i * m) * c
                conj = conj * image
        return conj * (1 / (self * conj).as_fraction())

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

