"""Spectral-curve representatives: purely local data and global genus-zero
rational curves, admissibility validation, and localization.

Local coordinates are normalized so that near a ramification point of order
r the covering map reads x = x(a) + c * zeta**r with zeta'(a) = 1; local
times are the coefficients of the expansion of the primary one-form:
omega01 = sum_k t_k zeta**(k-1) dzeta.  With this normalization every
uniformizer has coefficients in the ground field, so no root extraction is
required for rational input data.

A global genus-zero curve is localized from one univariate series per
point.  At a point a of order r write x(a+z) - x(a) = c z^r s(z) with
s(0) = 1; then R_a = z/zeta_a = s^(-1/r).  By Lagrange-Buermann the times
are t_k = [z^(k-1)] (y x')(a+z) R_a^k, and the analytic part of the kernel,
d1 d2 log((z1 - z2)/(zeta1 - zeta2)) at one point and d1 d2 log(z1 - z2)
between points (the Grunsky coefficients of the uniformizers), is a finite
sum over the power table [z^e] R_a^k; see :func:`localize_global_curve`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .errors import (
    BadDeclarationError,
    DegenerateCurveError,
    InadmissibleTimesError,
    NonGenericRamificationError,
    NotARamificationPointError,
)
from .scalars import ScalarField
from .series import FORM, LaurentSeries


class RamPoint:
    __slots__ = ("label", "order", "times")     # times: k -> scalar

    def __init__(self, label: str, order: int, times: dict):
        self.label, self.order, self.times = label, order, times


class RationalFunction:
    """num/den with exact rational coefficients, low-to-high."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple = (Fraction(1),)):
        self.num, self.den = num, den

    def shifted_series(self, a: Fraction, order: int,
                       fld: ScalarField) -> LaurentSeries:
        """Laurent expansion around z = a, valid through exponent ``order``."""
        num_s, den_s = (_shifted(p, a, fld) for p in (self.num, self.den))
        if den_s.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        v = min(den_s.coeffs)
        return num_s.mul(den_s.inverse(order + v), order)


def _shifted(poly, a, fld: ScalarField) -> LaurentSeries:
    """poly(a + u) as an exact series in u, by Horner's rule."""
    step = LaurentSeries(fld, {0: a, 1: 1})
    out = LaurentSeries(fld)
    for c in reversed(poly):
        out = out * step + LaurentSeries(fld, {0: c})
    return out


class GlobalCurve:
    """Genus-zero curve: x, y rational in the global coordinate z.

    The primary one-form is y*dx; the bilinear kernel is the genus-zero
    one, dz1 dz2 / (z1-z2)**2.  Ramification points are declared as
    (Fraction coordinate, int order) pairs and verified during localization.
    """

    __slots__ = ("x", "y", "declared_ramification")

    def __init__(self, x: RationalFunction, y: RationalFunction,
                 declared_ramification: tuple):
        self.x, self.y = x, y
        self.declared_ramification = declared_ramification


class CurveData:
    """A validated local curve plus bookkeeping used by the engines."""

    __slots__ = ("field", "points", "phi", "n_max")

    def __init__(self, field: ScalarField, points: dict, phi: dict,
                 n_max: int | None):
        self.field = field
        self.points = points      # label -> RamPoint
        self.phi = phi            # canonical ((label,k),(label,j)) -> scalar
        self.n_max = n_max        # analytic truncation order (None = exact)

    @property
    def labels(self):
        return list(self.points)

    def order(self, label: str) -> int:
        return self.points[label].order

    def times(self, label: str) -> dict:
        return self.points[label].times

    @property
    def is_purely_local(self) -> bool:
        return not self.phi

    def phi_row(self, at_label: str, other: tuple) -> dict:
        """{k: phi[(at_label,k), other]} over the stored support."""
        out = {}
        for (i, j), v in self.phi.items():
            if i[0] == at_label and j == other:
                out[i[1]] = out.get(i[1], self.field.zero()) + v
            elif j[0] == at_label and i == other:
                out[j[1]] = out.get(j[1], self.field.zero()) + v
        return {k: v for k, v in out.items() if v}

    def omega01(self, label: str) -> LaurentSeries:
        """The primary one-form at a point, as a local 1-form in zeta."""
        pt = self.points[label]
        coeffs = {k - 1: v for k, v in pt.times.items()}
        return LaurentSeries(self.field, coeffs, hi=self.tail_hi(),
                             weight=FORM)

    def tail_hi(self) -> int | None:
        """Window ceiling for analytic tails (None = exact/purely local)."""
        return None if self.n_max is None else self.n_max - 1

    def canonical_dict(self) -> dict:
        """Plain-type canonical representation (used for hashing and IO)."""
        pts = []
        for label in sorted(self.points):
            pt = self.points[label]
            times = {str(k): str(self.field.as_fraction(v))
                     for k, v in sorted(pt.times.items())}
            pts.append({"label": label, "order": pt.order, "times": times})
        phi = []
        for (i, j), v in sorted(self.phi.items()):
            phi.append([[i[0], i[1]], [j[0], j[1]],
                        str(self.field.as_fraction(v))])
        return {
            "kind": "local",
            "n_max": self.n_max,
            "phi": phi,
            "points": pts,
            "version": 1,
        }


def validate_local_curve(points, phi=None, n_max=None) -> CurveData:
    """Validate raw local-curve data and return canonical CurveData.

    ``points``: iterable of (label, order, {k: time}) triples.
    ``phi``: {((label, k), (label, k')): value}, or an iterable of such
    (key, value) pairs, in which a key may repeat with one value only.
    """
    pts = {}
    orders = []
    for label, order, times in points:
        label = str(label)
        order = int(order)
        if label in pts:
            raise BadDeclarationError(f"duplicate point label {label!r}")
        if order < 2:
            raise NotARamificationPointError(
                f"point {label!r}: order {order} < 2 is not a ramification"
                " point")
        orders.append(order)
        pts[label] = (order, {int(k): v for k, v in times.items()})
        if len(pts[label][1]) < len(times):
            raise BadDeclarationError(
                f"point {label!r}: time keys {list(times)} name an index "
                f"twice")

    if not pts:
        raise BadDeclarationError("curve needs at least one point")
    fld = ScalarField(lcm(*orders))
    out_points = {}
    for label, (order, times) in pts.items():
        clean = {}
        for k, v in times.items():
            v = fld.coerce(v)
            if not v:
                continue
            if k <= order:
                raise InadmissibleTimesError(
                    f"point {label!r}: time t_{k} must vanish for k <= r ="
                    f" {order}")
            clean[k] = v
        if order + 1 not in clean:
            raise NonGenericRamificationError(
                f"point {label!r}: t_{order + 1} must not vanish")
        out_points[label] = RamPoint(label, order, clean)

    canon_phi = {}
    for key, v in phi.items() if isinstance(phi, dict) else phi or ():
        (al, ak), (bl, bk) = key
        i, j = (str(al), int(ak)), (str(bl), int(bk))
        if i[1] < 1 or j[1] < 1:
            raise BadDeclarationError(
                "phi indices must have k >= 1 (analytic-part coefficients)")
        if i[0] not in out_points or j[0] not in out_points:
            raise BadDeclarationError(f"phi references unknown point: {key}")
        v = fld.coerce(v)
        ckey = (i, j) if i <= j else (j, i)
        prev = canon_phi.get(ckey)
        if prev is not None and prev != v:
            raise BadDeclarationError(
                f"phi not symmetric at {ckey}: {prev} vs {v}")
        canon_phi[ckey] = v
    canon_phi = {key: v for key, v in canon_phi.items() if v}

    if n_max is not None and (isinstance(n_max, bool)
                              or not isinstance(n_max, int)):
        raise BadDeclarationError(
            f"n_max must be null or an integer, got {n_max!r}")
    if n_max is None and canon_phi:
        # truncated data is known through the largest index it names
        n_max = max([k for key in canon_phi for _, k in key]
                    + [max(pt.times) for pt in out_points.values()])
    if n_max is not None:
        for i, j in canon_phi:
            if max(i[1], j[1]) > n_max:
                raise BadDeclarationError(
                    f"phi index {(i, j)} above n_max = {n_max}")
        for label, pt in out_points.items():
            if max(pt.times) > n_max:
                raise BadDeclarationError(
                    f"point {label!r}: time t_{max(pt.times)} above"
                    f" n_max = {n_max}")

    return CurveData(field=fld, points=out_points, phi=canon_phi, n_max=n_max)


def scale_curve(curve: CurveData, lam) -> CurveData:
    """Rescale the primary one-form by lambda (times scale, phi unchanged)."""
    lam = curve.field.coerce(lam)
    if not lam:
        raise DegenerateCurveError("scaling by zero degenerates the curve")
    points = {
        label: RamPoint(label, pt.order,
                        {k: lam * v for k, v in pt.times.items()})
        for label, pt in curve.points.items()
    }
    return CurveData(field=curve.field, points=points, phi=dict(curve.phi),
                     n_max=curve.n_max)


# ---------------------------------------------------------------------------
# Localization of a global genus-zero curve.

def localize_global_curve(gcurve: GlobalCurve, n_max: int) -> CurveData:
    """Expand a global curve at its declared ramification points.

    Produces local times t_{a,k} and the analytic part of the bilinear
    kernel as phi coefficients, both for indices k <= n_max.  At a point a
    of order r write x(a+z) - x(a) = c z^r s(z) with s(0) = 1, so that the
    uniformizer is zeta = z s^(1/r), and let R_a = z/zeta = s^(-1/r).  By
    Lagrange-Buermann every output is a finite sum over the power table
    [z^e] R_a^k (k <= n_max, e <= 2 n_max):

    * t_k = [z^(k-1)] y(a+z) x'(a+z) R_a^k, for k not divisible by r;
    * phi[(a,k),(a,m)] = sum_{n=1..m} n [z^(m-n)]R_a^m [z^(k+n)]R_a^k;
    * for a != b and d = a - b,
      phi[(a,k),(b,m)] = sum_{P<=k, Q<=m} (-1)^(P-1) (P+Q-1)!/((P-1)!(Q-1)!)
                         d^-(P+Q) [z^(k-P)]R_a^k [z^(m-Q)]R_b^m.

    The table is held over the integers, as numerators over one
    denominator per power (see :func:`_power_table`), so every sum above
    is an integer sum and each output value costs one final reduction.
    """
    if n_max < 3:
        raise BadDeclarationError("n_max must be at least 3")
    fld = ScalarField(1)
    decls = [(Fraction(a), int(r)) for a, r in gcurve.declared_ramification]
    if not decls:
        raise BadDeclarationError("no ramification points declared")
    if len({a for a, _ in decls}) != len(decls):
        raise BadDeclarationError("duplicate ramification coordinates")
    if not (any(gcurve.x.den) and any(gcurve.y.den)):
        raise BadDeclarationError("x and y need a nonzero denominator")

    # the localization is exact (nothing truncated) when x, y are
    # polynomial, every uniformizer is the identity and y dx has degree
    # below n_max: expand far enough to see every coefficient of y x'
    polynomial = not any(gcurve.x.den[1:] + gcurve.y.den[1:])
    top = 2 * n_max
    reach = top
    if polynomial:
        reach = max(top, len(gcurve.x.num) + len(gcurve.y.num))
    exact = polynomial
    points, tables = [], []
    for a, r in decls:
        label = str(a)
        x_series = gcurve.x.shifted_series(a, reach + r, fld)
        if x_series.support() and x_series.support()[0] < 0:
            raise BadDeclarationError(
                f"x has a pole at declared ramification point {a}")
        x0 = x_series.coeff(0)
        diff = x_series - LaurentSeries(fld, {0: x0})
        sup = diff.support()
        if not sup and diff.hi >= max(len(gcurve.x.num),
                                      len(gcurve.x.den)) - 1:
            # x - x(a) = (num - x(a) den)/den, whose numerator then
            # vanishes through its own degree
            raise BadDeclarationError(
                f"x is constant: x - x({a}) vanishes identically")
        if not sup or sup[0] != r:
            got = sup[0] if sup else f"above {diff.hi}"
            raise BadDeclarationError(
                f"x - x({a}) vanishes to order {got}, declared {r}")
        s = diff.shift(-r).scale(1 / diff.coeff(r))
        powers = _power_table(s.nth_root(-r, top), n_max, top)

        w = gcurve.y.shifted_series(a, reach, fld) * x_series.derivative()
        if w.support() and w.support()[0] < 0:
            raise InadmissibleTimesError(
                f"point {label!r}: the primary one-form has a pole")
        w_num, w_den = _over_common_denominator(
            [w.coeff(j) for j in range(n_max)])
        times = {}
        for k in range(1, n_max + 1):
            if k % r == 0:
                # multiples of r pair with terms analytic in x; they drop
                # from every kernel denominator and are not times
                continue
            num, den = powers[k]
            times[k] = Fraction(sum(w_num[j] * num[k - 1 - j]
                                    for j in range(k)), w_den * den)
        exact = (exact and s.coeffs == {0: fld.one()}
                 and max(w.coeffs, default=-1) < n_max)
        points.append((label, r, times))
        tables.append(powers)

    phi = {}
    for i, (la, _, _) in enumerate(points):
        for j in range(i, len(points)):
            lb = points[j][0]
            if i == j:
                block = _same_point_block(tables[i], n_max)
            else:
                block = _cross_block(tables[i], tables[j],
                                     decls[i][0] - decls[j][0], n_max)
            for (k, m), v in block.items():
                ikey, jkey = (la, k), (lb, m)
                ckey = (ikey, jkey) if ikey <= jkey else (jkey, ikey)
                prev = phi.get(ckey)
                if prev is None:
                    phi[ckey] = v
                elif prev != v:
                    raise BadDeclarationError(
                        f"asymmetric kernel expansion at {ckey}")

    exact = exact and not any(phi.values())
    return validate_local_curve(points, phi=phi,
                                n_max=None if exact else n_max)


def _over_common_denominator(values) -> tuple:
    """([v * den for v in values], den) with den the lcm of the
    denominators of the rationals ``values``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _power_table(R, n_max: int, top: int) -> list:
    """powers[k] = (N_k, D_k) with [z^e] R^k = N_k[e] / D_k for e <= top,
    k = 1..n_max.

    With R = N/D over one common denominator, N_k = N_(k-1) N is an integer
    convolution truncated at ``top``; each power is then reduced by
    gcd(D_k, *N_k), which keeps the integers of the later products small.
    """
    base, den = _over_common_denominator([R.coeff(e) for e in range(top + 1)])
    terms = [(e, c) for e, c in enumerate(base) if c]
    powers = [None]
    num, dk = [1] + [0] * top, 1
    for _ in range(n_max):
        prod = [0] * (top + 1)
        for i, a in enumerate(num):
            if a:
                for e, c in terms:
                    if i + e > top:
                        break
                    prod[i + e] += a * c
        dk *= den
        g = gcd(dk, *prod)
        num, dk = [c // g for c in prod], dk // g
        powers.append((num, dk))
    return powers


def _same_point_block(powers, n_max: int) -> dict:
    """{(k, m): phi} at one point, every (k, m) computed on its own so that
    the caller's symmetry check compares independent sums."""
    out = {}
    for k in range(1, n_max + 1):
        nk, dk = powers[k]
        for m in range(1, n_max + 1):
            nm, dm = powers[m]
            out[(k, m)] = Fraction(sum(n * nm[m - n] * nk[k + n]
                                       for n in range(1, m + 1)), dk * dm)
    return out


def _cross_block(pa, pb, d: Fraction, n_max: int) -> dict:
    """{(k, m): phi[(a,k),(b,m)]} for points a != b with d = a - b = p/q.

    Over the common denominator p^(2 n_max) the (P, Q) weight
    (-1)^(P-1) (P+Q-1)!/((P-1)!(Q-1)!) d^-(P+Q) is the integer
    c(P, Q) = (-1)^(P-1) (P+Q-1) C(P+Q-2, P-1) q^(P+Q) p^(2 n_max-P-Q).
    The numerator of each entry is sum_Q N_m[m-Q] S_k(Q) with
    S_k(Q) = sum_P N_k[k-P] c(P, Q), which is O(n_max^3) work in all.
    """
    p, q, top = d.numerator, d.denominator, 2 * n_max
    c = {(P, Q): (-1) ** (P - 1) * (P + Q - 1) * comb(P + Q - 2, P - 1)
         * q ** (P + Q) * p ** (top - P - Q)
         for P in range(1, n_max + 1) for Q in range(1, n_max + 1)}
    scale = p ** top
    out = {}
    for k in range(1, n_max + 1):
        nk, dk = pa[k]
        S = [None] + [sum(nk[k - P] * c[P, Q] for P in range(1, k + 1))
                      for Q in range(1, n_max + 1)]
        for m in range(1, n_max + 1):
            nm, dm = pb[m]
            out[(k, m)] = Fraction(sum(nm[m - Q] * S[Q]
                                       for Q in range(1, m + 1)),
                                   dk * dm * scale)
    return out
