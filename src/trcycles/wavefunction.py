"""Formal wave-function assembly and the insertion-operator check (the
linear loop equation of the correlator table).

The log of the partition function is a Laurent series in hbar whose
coefficients are polynomials in the formal times t'_{a,k} (one variable
per local-cycle label, k >= 1).  A monomial with multiplicities
m_1, m_2, ... carries the tensor entry divided by prod(m_i!): the
symmetric-tensor normalization is resolved once, here.

Every hbar/times polynomial in the package is one :class:`HPoly`; the
verifiers also use it, through :class:`HPolyRing`, as the coefficient
ring of Laurent series in the kernel variable.
"""

from __future__ import annotations

from math import factorial

from .recursion import OmegaTable


def monomial_from_multiset(indices) -> tuple:
    """Sorted tuple of ((label, k), multiplicity) for a list of indices."""
    out = {}
    for idx in indices:
        out[tuple(idx)] = out.get(tuple(idx), 0) + 1
    return tuple(sorted(out.items()))


def times_polynomial(entries) -> dict:
    """{monomial: value / prod(multiplicity!)} over the (index tuple,
    value) pairs of a symmetric tensor."""
    poly = {}
    for indices, value in entries:
        mon = monomial_from_multiset(indices)
        denom = 1
        for _, mult in mon:
            denom *= factorial(mult)
        if value:
            poly[mon] = value / denom
    return poly


def _degree(mon) -> int:
    return sum(m for _, m in mon)


def _mon_mul(m1, m2):
    if not m1 or not m2:
        return m1 or m2
    out = dict(m1)
    for var, mult in m2:
        out[var] = out.get(var, 0) + mult
    return tuple(sorted(out.items()))


class HPoly(dict):
    """Polynomial in hbar and the formal times.

    Layout ``{hbar exponent: {monomial: scalar}}`` with monomials as in
    :func:`monomial_from_multiset`; stored coefficients are nonzero and no
    hbar slice is empty.  A product of two polynomials drops every term
    above ``caps = (hbar_cap, deg_cap)`` of its left factor (``None``: no
    cap), so an expansion never forms the orders it discards; all
    polynomials of one expansion carry the same caps.  Values are never
    mutated: every operation builds a new polynomial.
    """

    __slots__ = ("caps",)

    def __init__(self, terms=(), caps=(None, None)):
        super().__init__(terms)
        self.caps = caps

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self)
        for h, p in other.items():
            acc = dict(out.get(h, ()))
            for mon, c in p.items():
                s = acc.get(mon)
                s = c if s is None else s + c
                if s:
                    acc[mon] = s
                else:
                    acc.pop(mon, None)
            if acc:
                out[h] = acc
            else:
                out.pop(h, None)
        return HPoly(out, self.caps)

    def __neg__(self) -> "HPoly":
        return HPoly({h: {mon: -c for mon, c in p.items()}
                      for h, p in self.items()}, self.caps)

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + -other

    def __mul__(self, other) -> "HPoly":
        if not isinstance(other, HPoly):
            if not other:
                return HPoly((), self.caps)
            return HPoly({h: {mon: c * other for mon, c in p.items()}
                          for h, p in self.items()}, self.caps)
        hbar_cap, deg_cap = self.caps
        out = {}
        for h1, p1 in self.items():
            for h2, p2 in other.items():
                h = h1 + h2
                if hbar_cap is not None and h > hbar_cap:
                    continue
                acc = out.setdefault(h, {})
                for m1, c1 in p1.items():
                    d1 = _degree(m1)
                    for m2, c2 in p2.items():
                        if deg_cap is not None and d1 + _degree(m2) > deg_cap:
                            continue
                        mon = _mon_mul(m1, m2)
                        p = c1 * c2
                        s = acc.get(mon)
                        s = p if s is None else s + p
                        if s:
                            acc[mon] = s
                        else:
                            acc.pop(mon, None)
        return HPoly({h: p for h, p in out.items() if p}, self.caps)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HPoly":
        """Quotient by a scalar or by a one-term polynomial c*hbar^h whose
        monomial is ``()``; any other divisor raises ``ArithmeticError``."""
        dh = 0
        if isinstance(other, HPoly):
            terms = [(h, mon, c) for h, p in other.items()
                     for mon, c in p.items()]
            if len(terms) != 1 or terms[0][1] != ():
                raise ArithmeticError(f"cannot divide by {dict(other)}")
            dh, _, other = terms[0]
        return HPoly({h - dh: {mon: c / other for mon, c in p.items()}
                      for h, p in self.items()}, self.caps)

    def deriv(self, var) -> "HPoly":
        """Derivative by the time variable ``var = (label, k)``."""
        var = tuple(var)
        out = {}
        for h, p in self.items():
            d = {}
            for mon, c in p.items():
                md = dict(mon)
                mult = md.get(var)
                if not mult:
                    continue
                if mult == 1:
                    del md[var]
                else:
                    md[var] = mult - 1
                d[tuple(sorted(md.items()))] = c * mult
            if d:
                out[h] = d
        return HPoly(out, self.caps)

    def shift(self, dh: int) -> "HPoly":
        """Multiply by hbar**dh."""
        return HPoly({h + dh: p for h, p in self.items()}, self.caps)


class HPolyRing:
    """HPoly as a Laurent-series coefficient ring: scalars of ``field``
    embed as constants, and every element carries ``caps``."""

    __slots__ = ("field", "caps")

    def __init__(self, field, caps):
        self.field = field
        self.caps = caps

    def zero(self) -> HPoly:
        return HPoly((), self.caps)

    def one(self) -> HPoly:
        return self.coerce(1)

    def coerce(self, value) -> HPoly:
        if isinstance(value, HPoly):
            return value
        value = self.field.coerce(value)
        return HPoly({0: {(): value}} if value else (), self.caps)

    def root(self, r: int, j: int) -> HPoly:
        return self.coerce(self.field.root(r, j))


# -- the wave function -------------------------------------------------------

def assemble_logZ(table: OmegaTable, chi_max: int) -> HPoly:
    """log Z(t'): sum over stable (g,n) of hbar^(2g-2+n) F[g,n](t')/n!,
    for 2g-2+n up to ``chi_max``."""
    terms = HPoly()
    for (g, n), tab in table.tables.items():
        chi = 2 * g - 2 + n
        if chi <= 0 or chi > chi_max or n < 1:
            continue
        poly = times_polynomial(tab.items())
        if poly:
            terms = terms + HPoly({chi: poly})
    return terms


# -- insertion operator check ------------------------------------------------

def hirota_insertion_check(table: OmegaTable) -> list:
    """The linear loop equation on every stored entry: the sorted
    ((g, n), key) pairs where it fails ([] when it holds).

    With z the first slot near a point a of order r, the deck sum
    sum_j sigma_j^* omega_{g,n+1}(z, S) must be holomorphic at a.  The
    basis form of (a, k) is k z^(-k-1) dz plus an analytic tail, its
    pullback by z -> rho^j z carries rho^(-jk), and sum_j rho^(-jk) is r
    when r | k, else 0: the equation holds exactly when no stored entry
    has an index (a, k) with r | k (basis forms of other points are
    analytic at a).
    """
    order = table.curve.order
    return sorted(((g, n), key) for (g, n), tab in table.tables.items()
                  for key in tab
                  if any(k % order(label) == 0 for label, k in key))
