"""Spectral-curve representatives: purely local data and global genus-zero
rational curves, admissibility validation, and localization.

Local coordinates are normalized so that near a ramification point of order
r the covering map reads x = x(a) + c * zeta**r with zeta'(a) = 1; local
times are the coefficients of the expansion of the primary one-form:
omega01 = sum_k t_k zeta**(k-1) dzeta.  With this normalization every
uniformizer has coefficients in the ground field, so no root extraction is
required for rational input data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm

from .errors import (
    BadDeclarationError,
    DegenerateCurveError,
    InadmissibleTimesError,
    NonGenericRamificationError,
    NotARamificationPointError,
)
from .scalars import (
    ScalarField,
    _poly_deriv,
    _poly_eval,
    _poly_mul,
    _poly_norm,
    _poly_shift,
    _poly_sub,
)
from .series import FORM, LaurentSeries


@dataclass(frozen=True)
class RamPoint:
    label: str
    order: int
    times: dict  # k -> scalar, finite support


@dataclass(frozen=True)
class RationalFunction:
    """num/den with exact rational coefficients, low-to-high."""

    num: tuple
    den: tuple = (Fraction(1),)

    def shifted_series(self, a: Fraction, order: int,
                       fld: ScalarField) -> LaurentSeries:
        """Laurent expansion around z = a, valid through exponent ``order``."""
        num = _poly_shift(self.num, a)
        den = _poly_shift(self.den, a)
        num_s = LaurentSeries(fld, {i: c for i, c in enumerate(num)})
        den_s = LaurentSeries(fld, {i: c for i, c in enumerate(den)})
        if den_s.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        v = min(den_s.coeffs)
        return num_s.mul(den_s.inverse(order + v), order)

    def derivative(self) -> "RationalFunction":
        num = _poly_norm([Fraction(c) for c in self.num])
        den = _poly_norm([Fraction(c) for c in self.den])
        top = _poly_sub(_poly_mul(_poly_deriv(num), den),
                        _poly_mul(num, _poly_deriv(den)))
        return RationalFunction(tuple(top), tuple(_poly_mul(den, den)))

    def eval_at(self, a: Fraction) -> Fraction:
        d = _poly_eval(self.den, a)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at {a}")
        return _poly_eval(self.num, a) / d


@dataclass(frozen=True)
class GlobalCurve:
    """Genus-zero curve: x, y rational in the global coordinate z.

    The primary one-form is y*dx; the bilinear kernel is the genus-zero
    one, dz1 dz2 / (z1-z2)**2.  Ramification points are declared with
    exact rational coordinates and verified during localization.
    """

    x: RationalFunction
    y: RationalFunction
    declared_ramification: tuple  # of (Fraction coordinate, int order)


@dataclass
class CurveData:
    """A validated local curve plus bookkeeping used by the engines."""

    field: ScalarField
    points: dict          # label -> RamPoint
    phi: dict             # canonical ((label,k),(label,j)) -> scalar
    n_max: int | None     # analytic truncation order (None = exact data)
    provenance: str = "local"
    x_offsets: dict = dc_field(default_factory=dict)   # label -> x(a)

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

    def phi_get(self, i: tuple, j: tuple):
        key = (i, j) if i <= j else (j, i)
        return self.phi.get(key, self.field.zero())

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


def validate_local_curve(points, phi=None, n_max=None,
                         provenance="local") -> CurveData:
    """Validate raw local-curve data and return canonical CurveData.

    ``points``: iterable of (label, order, {k: time}) triples or RamPoints.
    """
    pts = {}
    orders = []
    for p in points:
        if isinstance(p, RamPoint):
            label, order, times = p.label, p.order, p.times
        else:
            label, order, times = p
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
    for key, v in (phi or {}).items():
        (al, ak), (bl, bk) = key
        i, j = (str(al), int(ak)), (str(bl), int(bk))
        if i[1] < 1 or j[1] < 1:
            raise BadDeclarationError(
                "phi indices must have k >= 1 (analytic-part coefficients)")
        if i[0] not in out_points or j[0] not in out_points:
            raise BadDeclarationError(f"phi references unknown point: {key}")
        v = fld.coerce(v)
        if not v:
            continue
        ckey = (i, j) if i <= j else (j, i)
        prev = canon_phi.get(ckey)
        if prev is not None and prev != v:
            raise BadDeclarationError(
                f"phi not symmetric at {ckey}: {prev} vs {v}")
        canon_phi[ckey] = v

    if canon_phi and n_max is None:
        n_max = max(max(i[1], j[1]) for (i, j) in canon_phi)

    return CurveData(field=fld, points=out_points, phi=canon_phi,
                     n_max=n_max, provenance=provenance)


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
                     n_max=curve.n_max, provenance=curve.provenance,
                     x_offsets=dict(curve.x_offsets))


# ---------------------------------------------------------------------------
# Localization of a global genus-zero curve.

def localize_global_curve(gcurve: GlobalCurve, n_max: int) -> CurveData:
    """Expand a global curve at its declared ramification points.

    Produces local times t_{a,k} for k <= n_max and the analytic part of
    the bilinear kernel as phi coefficients up to the same order.
    """
    if n_max < 3:
        raise BadDeclarationError("n_max must be at least 3")
    fld = ScalarField(1)
    decls = [(Fraction(a), int(r)) for a, r in gcurve.declared_ramification]
    if not decls:
        raise BadDeclarationError("no ramification points declared")
    if len({a for a, _ in decls}) != len(decls):
        raise BadDeclarationError("duplicate ramification coordinates")

    work = 2 * n_max + 3
    per_point = []
    for a, r in decls:
        x_series = gcurve.x.shifted_series(a, work + r, fld)
        if x_series.support() and x_series.support()[0] < 0:
            raise BadDeclarationError(
                f"x has a pole at declared ramification point {a}")
        x0 = x_series.coeff(0)
        diff = x_series - LaurentSeries(fld, {0: x0})
        sup = diff.support()
        if not sup or sup[0] != r:
            got = sup[0] if sup else None
            raise BadDeclarationError(
                f"x - x({a}) vanishes to order {got}, declared {r}")
        c = diff.coeff(r)
        s = diff.shift(-r).scale(1 / c).truncate(work)
        zeta = (LaurentSeries(fld, {1: 1}) * s.nth_root(r, work))
        per_point.append({
            "a": a, "r": r, "c": c,
            "u": zeta.reversion(work),   # u as a series in zeta
            "x0": x0,
        })

    points = []
    labels = []
    for rec in per_point:
        a, r = rec["a"], rec["r"]
        label = str(a)
        labels.append(label)
        y_series = gcurve.y.shifted_series(a, work, fld)
        dx = gcurve.x.derivative().shifted_series(a, work, fld)
        w01_u = y_series * dx
        if w01_u.support() and w01_u.support()[0] < 0:
            raise InadmissibleTimesError(
                f"point {label!r}: the primary one-form has a pole")
        uz = rec["u"]
        w01_zeta = w01_u.compose(uz) * uz.derivative()
        times = {}
        for k in range(1, n_max + 1):
            if k % r == 0:
                # multiples of r pair with terms analytic in x; they drop
                # from every kernel denominator and are not times
                continue
            coef = w01_zeta.coeff(k - 1)
            if coef:
                times[k] = coef
        rec["times_complete"] = (not w01_zeta.coeffs
                                 or max(w01_zeta.coeffs) + 1 <= n_max)
        points.append((label, r, times))

    phi = {}
    for i, rec1 in enumerate(per_point):
        for j in range(i, len(per_point)):
            block = _phi_block(fld, rec1, per_point[j], same=(i == j),
                               n_max=n_max)
            li, lj = labels[i], labels[j]
            for (k, m), v in block.items():
                ikey, jkey = (li, k), (lj, m)
                ckey = (ikey, jkey) if ikey <= jkey else (jkey, ikey)
                prev = phi.get(ckey)
                if prev is None:
                    phi[ckey] = v
                elif prev != v:
                    raise BadDeclarationError(
                        f"asymmetric kernel expansion at {ckey}")

    # the localization is exact (nothing truncated) when every uniformizer
    # is the identity and x, y are polynomial: emit purely local data then
    exact = (not phi
             and len(_poly_norm(list(gcurve.x.den))) == 1
             and len(_poly_norm(list(gcurve.y.den))) == 1
             and all(rec["u"].coeffs == {1: Fraction(1)}
                     and rec.get("times_complete") for rec in per_point))
    curve = validate_local_curve(points, phi=phi,
                                 n_max=None if exact else n_max,
                                 provenance="global")
    curve.x_offsets = {labels[k]: per_point[k]["x0"]
                       for k in range(len(labels))}
    return curve


def _phi_block(fld, rec1, rec2, same: bool, n_max: int) -> dict:
    """Analytic part of the bilinear kernel at a pair of points.

    Returns {(k, m): value} so that the analytic part reads
    sum phi[(k,m)] zeta1^(k-1) zeta2^(m-1) dzeta1 dzeta2.  Bivariate
    arithmetic is truncated by total degree T; after two divisions by
    (zeta1 - zeta2) coefficients of total degree <= T-2 remain exact,
    which covers the square k, m <= n_max.
    """
    T = 2 * n_max + 1
    u1, u2 = rec1["u"], rec2["u"]
    du1 = _bv_from_series(u1.derivative(), 1, T)
    du2 = _bv_from_series(u2.derivative(), 2, T)
    if same:
        P = _bv_divided_difference(u1, T)
        num = _bv_sub(_bv_mul(du1, du2, T), _bv_mul(P, P, T))
        num = _bv_div_linear(num)
        num = _bv_div_linear(num)
        quot = _bv_mul(num, _bv_inverse(_bv_mul(P, P, T), T), T)
    else:
        gap = rec2["a"] - rec1["a"]
        # z1 - z2 = -gap * (1 + (u2 - u1)/gap); square and invert
        q = _bv_scale(_bv_sub(_bv_from_series(u2, 2, T),
                              _bv_from_series(u1, 1, T)),
                      Fraction(1) / gap)
        onepq = _bv_add({(0, 0): Fraction(1)}, q)
        inv2 = _bv_inverse(_bv_mul(onepq, onepq, T), T)
        quot = _bv_scale(_bv_mul(_bv_mul(du1, du2, T), inv2, T),
                         Fraction(1) / (gap * gap))
    out = {}
    for (e1, e2), v in quot.items():
        if v and e1 <= n_max - 1 and e2 <= n_max - 1:
            out[(e1 + 1, e2 + 1)] = v
    return out


# -- bivariate truncated polynomials: dicts {(i, j): Fraction}, i+j <= T --

def _bv_from_series(s: LaurentSeries, slot: int, T: int) -> dict:
    out = {}
    for e, c in s.coeffs.items():
        if 0 <= e <= T:
            out[(e, 0) if slot == 1 else (0, e)] = c
    return out


def _bv_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        out[k] = v if s is None else s + v
    return {k: v for k, v in out.items() if v}


def _bv_sub(a: dict, b: dict) -> dict:
    return _bv_add(a, {k: -v for k, v in b.items()})


def _bv_scale(a: dict, c) -> dict:
    return {k: c * v for k, v in a.items()} if c else {}


def _bv_mul(a: dict, b: dict, T: int) -> dict:
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > T:
                continue
            p = v1 * v2
            s = out.get((i, j))
            out[(i, j)] = p if s is None else s + p
    return {k: v for k, v in out.items() if v}


def _bv_inverse(a: dict, T: int) -> dict:
    c0 = a.get((0, 0))
    if not c0:
        raise ZeroDivisionError("bivariate inverse needs a unit constant term")
    tail = _bv_scale({k: v for k, v in a.items() if k != (0, 0)},
                     Fraction(1) / c0)
    acc = {(0, 0): Fraction(1)}
    term = {(0, 0): Fraction(1)}
    for _ in range(T + 1):
        term = _bv_scale(_bv_mul(term, tail, T), Fraction(-1))
        if not term:
            break
        acc = _bv_add(acc, term)
    return _bv_scale(acc, Fraction(1) / c0)


def _bv_divided_difference(u: LaurentSeries, T: int) -> dict:
    """(u(z1) - u(z2)) / (z1 - z2) for a valuation-1 series u."""
    out = {}
    for m, c in u.coeffs.items():
        if m < 1:
            continue
        for p in range(m):
            q = m - 1 - p
            if p + q <= T:
                key = (p, q)
                s = out.get(key)
                out[key] = c if s is None else s + c
    return {k: v for k, v in out.items() if v}


def _bv_div_linear(a: dict) -> dict:
    """Exact division by (z1 - z2) of a polynomial vanishing on the
    diagonal.  q[i,j] = a[i+1,j] + q[i+1,j-1], solved by total degree."""
    out = {}
    if not a:
        return out
    maxdeg = max(i + j for i, j in a)
    for d in range(0, maxdeg):
        for i in range(d, -1, -1):
            j = d - i
            val = a.get((i + 1, j), Fraction(0))
            if j > 0:
                val = val + out.get((i + 1, j - 1), Fraction(0))
            if val:
                out[(i, j)] = val
    return out
