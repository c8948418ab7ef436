"""Formal wave-function assembly and the insertion-operator check.

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

from .errors import UnsupportedError
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

def hirota_insertion_check(table: OmegaTable, g: int, n: int,
                           spectators=None,
                           with_dx_weight: bool = True) -> dict:
    """Check that the one-point extraction kernel reproduces the (g, n+1)
    correlator of the table in its first slot.

    With z a formal exterior point on the disc of a single ramification
    point and the local model x = x(a) + zeta^r, the residue at p -> z of
    w(p)/(x(p) - x(z)) is evaluated through the global residue theorem:

        dx(z) Res_{p->z} = -dx(z) [ sum_j Res_{p -> rho^j z}
                                    + Res_{p->0} + Res_{p->inf} ].

    The deck-translate residues produce Galois pullbacks of w, so the
    identity exercises the polar expansions and the covering map; it
    fails when the dx(z) weight is dropped (``with_dx_weight=False``).
    """
    curve = table.curve
    if len(curve.labels) != 1 or not curve.is_purely_local:
        raise UnsupportedError(
            "the insertion check is implemented for purely local "
            "single-point curves (x offsets between points are not "
            "local data)")
    label = curve.labels[0]
    r = curve.order(label)
    fld = curve.field
    tab = table.entries(g, n + 1)
    if spectators is None:
        keys = sorted(tab)
        if not keys:
            return {"ok": True, "checked": 0, "details": "empty table"}
        spectators = keys[0][1:]
    spectators = tuple(sorted(spectators))
    if len(spectators) != n:
        raise ValueError("need n spectator labels")
    ws = table.table_block(label, g, n + 1, (0,)).get(spectators)
    if ws is None:
        return {"ok": True, "checked": 0, "details": "zero slice"}

    # -dx(z) * sum_j Res_{p->rho^j z}: the pullbacks -sigma_j^* w(z)
    recon = {}

    def add(e, c):
        s = recon.get(e)
        s = c if s is None else s + c
        if s:
            recon[e] = s
        else:
            recon.pop(e, None)

    for j in range(1, r):
        for e, c in ws.coeffs.items():
            if with_dx_weight:
                add(e, -c * fld.root(r, j * (e + 1)))
            else:
                # drop dx(z)=r z^(r-1) dz: leaves 1/(r (rho^j z)^(r-1))
                add(e - (r - 1), -c * fld.root(r, j * (e - r + 1))
                    / r)
    # -dx(z) * Res_{p->0}: |p| < |z| expansion of 1/(p^r - z^r)
    depth = max(0, -min(ws.coeffs))
    for m in range(0, depth // r + 1):
        c = ws.coeffs.get(-1 - r * m)
        if c:
            if with_dx_weight:
                add(r - 1 - r * (m + 1), fld.coerce(c * r))
            else:
                add(-r * (m + 1), fld.coerce(c))
    # -dx(z) * Res_{p->inf}: |p| > |z| expansion
    top = max(max(ws.coeffs), 0)
    for m in range(0, top // r + 1):
        c = ws.coeffs.get(r * (m + 1) - 1)
        if c:
            if with_dx_weight:
                add(r - 1 + r * m, fld.coerce(c * r))
            else:
                add(r * m, fld.coerce(c))
    mismatches = {}
    for e in set(recon) | set(ws.coeffs):
        got = recon.get(e, fld.zero())
        want = ws.coeffs.get(e, fld.zero())
        if got != want:
            mismatches[e] = (got, want)
    return {"ok": not mismatches, "checked": len(ws.coeffs),
            "spectators": tuple(spectators), "mismatches": mismatches}
