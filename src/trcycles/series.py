"""Truncation-tracked formal Laurent series in one local variable.

A series carries a sparse exponent map, a validity window ``[lo, hi]`` and
a differential weight ``w`` so that the object represents ``f(z) * dz**w``.
``lo`` is an exact lower bound: every exponent below it has coefficient
exactly zero.  ``hi`` is the truncation ceiling (``None`` = the series is
exact, all omitted coefficients are genuinely zero).  Operations shrink
windows conservatively; asking for a coefficient above ``hi`` raises
``PrecisionError`` instead of returning a silently wrong value.

Coefficients live in a ring object offering ``zero()``, ``one()``,
``coerce(value)`` and ``root(r, j)``: a :class:`ScalarField`, or the
hbar/times polynomial ring of the verifiers.  Arithmetic on coefficients
is plain operator arithmetic, so both rings share every code path.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError, ResidueObstructionError

FUNCTION = 0
FORM = 1


def _min_hi(*values):
    finite = [v for v in values if v is not None]
    return min(finite) if finite else None


class LaurentSeries:
    __slots__ = ("field", "coeffs", "lo", "hi", "weight")

    def __init__(self, field, coeffs=None, lo=None, hi=None,
                 weight: int = FUNCTION):
        self.field = field
        cs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = field.coerce(c)
                if c:
                    cs[int(e)] = c
        if cs:
            # bottoms are exact throughout the package: tighten to support
            lo = min(cs)
            if hi is not None and max(cs) > hi:
                raise ValueError("stored exponent above window ceiling")
        elif lo is None:
            lo = 0
        self.coeffs = cs
        self.lo = lo
        self.hi = hi
        self.weight = weight

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, field, weight=FUNCTION, lo=0, hi=None):
        return cls(field, {}, lo=lo, hi=hi, weight=weight)

    @classmethod
    def monomial(cls, field, exponent, coeff=1, weight=FUNCTION, hi=None):
        return cls(field, {exponent: coeff}, lo=exponent, hi=hi, weight=weight)

    # -- basic access ----------------------------------------------------
    def coeff(self, exponent: int):
        """Coefficient of z**exponent; errors above the truncation ceiling."""
        if self.hi is not None and exponent > self.hi:
            raise PrecisionError(
                f"coefficient of z^{exponent} outside valid window "
                f"[{self.lo}, {self.hi}]")
        return self.coeffs.get(exponent, self.field.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def __repr__(self):
        terms = " + ".join(f"({c})z^{e}" for e, c in sorted(self.coeffs.items()))
        dz = {0: "", 1: " dz"}.get(self.weight, f" dz^{self.weight}")
        return f"<{terms or '0'}{dz} | [{self.lo},{self.hi}]>"

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.weight == other.weight and self.coeffs == other.coeffs)

    # -- ring operations --------------------------------------------------
    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.weight != other.weight:
            raise ValueError("cannot add series of different form weight")
        lo = min(self.lo, other.lo)
        hi = _min_hi(self.hi, other.hi)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        out = {e: c for e, c in out.items()
               if c and (hi is None or e <= hi)}
        return LaurentSeries(self.field, out, lo=lo, hi=hi, weight=self.weight)

    def __neg__(self):
        return LaurentSeries(self.field, {e: -c for e, c in self.coeffs.items()},
                             lo=self.lo, hi=self.hi, weight=self.weight)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "LaurentSeries":
        scalar = self.field.coerce(scalar)
        if not scalar:
            return LaurentSeries.zero(self.field, self.weight, self.lo, self.hi)
        return LaurentSeries(self.field,
                             {e: scalar * c for e, c in self.coeffs.items()},
                             lo=self.lo, hi=self.hi, weight=self.weight)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by z**n."""
        return LaurentSeries(self.field,
                             {e + n: c for e, c in self.coeffs.items()},
                             lo=self.lo + n,
                             hi=None if self.hi is None else self.hi + n,
                             weight=self.weight)

    def mul(self, other: "LaurentSeries", cap: int | None = None):
        """Product; coefficients above ``cap`` are neither formed nor kept."""
        lo = self.lo + other.lo
        hi = _min_hi(None if self.hi is None else self.hi + other.lo,
                     None if other.hi is None else other.hi + self.lo, cap)
        # hi < lo is a legal empty window (zero through hi, unknown above);
        # errors surface only when a coefficient beyond hi is requested
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if hi is not None and e > hi:
                    continue
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        out = {e: c for e, c in out.items() if c}
        return LaurentSeries(self.field, out, lo=lo, hi=hi,
                             weight=self.weight + other.weight)

    __mul__ = mul

    def over(self, ring) -> "LaurentSeries":
        """The same series with its coefficients coerced into ``ring``."""
        if ring == self.field:
            return self
        return LaurentSeries(ring, self.coeffs, lo=self.lo, hi=self.hi,
                             weight=self.weight)

    # -- calculus ---------------------------------------------------------
    def residue(self):
        """Coefficient of z**-1 dz.  Requires a 1-form."""
        if self.weight != FORM:
            raise ValueError("residue requires a 1-form")
        return self.coeff(-1)

    def primitive(self) -> "LaurentSeries":
        """The primitive vanishing at z=0 (no constant term)."""
        if self.weight != FORM:
            raise ValueError("primitive requires a 1-form")
        if self.residue():
            raise ResidueObstructionError(
                "no single-valued primitive: nonzero residue")
        out = {e + 1: c / (e + 1) for e, c in self.coeffs.items() if e != -1}
        return LaurentSeries(self.field, out, lo=self.lo + 1,
                             hi=None if self.hi is None else self.hi + 1,
                             weight=FUNCTION)

    def derivative(self) -> "LaurentSeries":
        """d of a function, as a 1-form."""
        if self.weight != FUNCTION:
            raise ValueError("derivative is implemented for functions")
        out = {e - 1: c * e for e, c in self.coeffs.items() if e != 0}
        return LaurentSeries(self.field, out, lo=self.lo - 1,
                             hi=None if self.hi is None else self.hi - 1,
                             weight=FORM)

    def rotate(self, r: int, j: int) -> "LaurentSeries":
        """Pullback under z -> rho_r**j z (forms pick up the d(rho z) factor)."""
        j %= r
        if j == 0:
            return self
        out = {}
        for e, c in self.coeffs.items():
            out[e] = c * self.field.root(r, j * (e + self.weight))
        return LaurentSeries(self.field, out, lo=self.lo, hi=self.hi,
                             weight=self.weight)

    def inverse(self, order: int) -> "LaurentSeries":
        """Multiplicative inverse, valid up to exponent ``order``.

        The result has weight ``-weight`` and window
        ``[-v, min(order, hi - 2v)]`` where v is the valuation.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        v = min(self.coeffs)
        lead = self.coeffs[v]
        hi_avail = None if self.hi is None else self.hi - 2 * v
        hi = order if hi_avail is None else min(order, hi_avail)
        if hi < -v:
            raise PrecisionError("window collapse in series inverse")
        inv_lead = self.field.one() / lead
        # self = lead z^v (1 + g); b = (1 + g)^-1 term by term from
        # b_0 = 1, b_n = -sum_e g_e b_(n-e)
        g = [(e - v, c * inv_lead) for e, c in sorted(self.coeffs.items())
             if e != v]
        b = [self.field.one()]
        for n in range(1, hi + v + 1):
            acc = self.field.zero()
            for e, c in g:
                if e > n:
                    break
                if b[n - e]:
                    acc = acc + c * b[n - e]
            b.append(-acc)
        out = {n - v: c * inv_lead for n, c in enumerate(b) if c}
        return LaurentSeries(self.field, out, lo=-v, hi=hi,
                             weight=-self.weight)

    def nth_root(self, n: int, order: int) -> "LaurentSeries":
        """Principal power a^(1/n) of a series with constant term 1 (weight
        0), for n > 0 or n < 0, from b_0 = 1 and
        m b_m = sum_(k=1..m) ((1/n + 1) k - m) a_k b_(m-k)
        (the power recurrence, Knuth, TAOCP 2, 4.7)."""
        fld = self.field
        if self.weight != FUNCTION or self.lo < 0 or \
                self.coeff(0) != fld.one():
            raise ValueError("nth_root requires constant term 1")
        hi = order if self.hi is None else min(order, self.hi)
        a = sorted(self.coeffs.items())[1:]
        b = [fld.one()]
        for m in range(1, hi + 1):
            b.append(sum((fld.coerce(Fraction((n + 1) * k - n * m, n * m))
                          * c * b[m - k] for k, c in a if k <= m),
                         fld.zero()))
        return LaurentSeries(fld, dict(enumerate(b)), lo=0, hi=hi)


# ---------------------------------------------------------------------------
# Spec-surface helpers (tag discipline enforced here; internals are general).

def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Product of two series; at most one factor may be a 1-form."""
    if a.weight + b.weight > FORM:
        raise ValueError("series_mul accepts form*function or "
                         "function*function only")
    out = a * b
    if out.hi is not None and out.hi < out.lo and not out.coeffs:
        raise PrecisionError("window collapse in series product")
    return out
