"""Exact scalars: rationals and cyclotomic extensions Q(rho_r).

Every coefficient in the package is either a ``fractions.Fraction`` or a
:class:`Cyclo` element, a polynomial in the primitive r-th root of unity
reduced modulo the r-th cyclotomic polynomial.  Curves whose ramification
orders are all <= 2 stay in plain rationals (rho_2 = -1 is rational).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def _poly_eval(p, a: Fraction) -> Fraction:
    out = _ZERO
    for c in reversed([Fraction(q) for q in p]):
        out = out * a + c
    return out


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
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^m mod Phi_n for m = deg .. 2*deg-2, as coefficient rows."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    # x^deg = -(phi[0] + ... + phi[deg-1] x^{deg-1})
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(deg - 2):
        shifted = [_ZERO] + cur[:-1]
        lead = cur[-1]
        if lead:
            head = rows[0]
            shifted = [s + lead * h for s, h in zip(shifted, head)]
        cur = shifted
        rows.append(tuple(cur))
    return tuple(rows)


class Cyclo:
    """An element of Q(rho_n), reduced modulo the n-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = len(cyclotomic_polynomial(order)) - 1
        cs = list(coeffs)
        if len(cs) > deg:
            raise ValueError("coefficient vector too long; reduce first")
        cs += [_ZERO] * (deg - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in cs))

    def __setattr__(self, *_):
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def rational(order: int, value) -> "Cyclo":
        return Cyclo(order, [Fraction(value)])

    @staticmethod
    def root_power(order: int, j: int) -> "Cyclo":
        """rho_order ** j."""
        j %= order
        deg = len(cyclotomic_polynomial(order)) - 1
        if j < deg:
            cs = [_ZERO] * j + [_ONE]
            return Cyclo(order, cs)
        return Cyclo(order, [_ZERO, _ONE]) ** j

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
        return Cyclo(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclo(self.order, [other * c for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = o.coeffs[0]
            return Cyclo(self.order, [q * c for c in self.coeffs])
        if self.is_rational():
            q = self.coeffs[0]
            return Cyclo(self.order, [q * c for c in o.coeffs])
        raw = _poly_mul(self.coeffs, o.coeffs)
        return Cyclo(self.order, _reduce(self.order, raw))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = list(cyclotomic_polynomial(self.order))
        inv = _mod_inverse(list(self.coeffs), phi)
        return Cyclo(self.order, _reduce(self.order, inv))

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
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclo):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

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


def _reduce(order: int, raw: list[Fraction]) -> list[Fraction]:
    deg = len(cyclotomic_polynomial(order)) - 1
    out = list(raw[:deg]) + [_ZERO] * max(0, deg - len(raw))
    if len(raw) > deg:
        rows = _reduction_rows(order)
        for m in range(deg, len(raw)):
            c = raw[m]
            if c:
                row = rows[m - deg]
                for i, ri in enumerate(row):
                    out[i] += c * ri
    return out


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
