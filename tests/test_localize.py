"""Localization of global genus-zero curves: output pins and an
independent sympy oracle.

The pins are sha256 digests of ``dump_curve_spec(localize_global_curve(..))``
recorded from earlier implementations: the first nine from one that
reverted the uniformizer and expanded the kernel in bivariate series, the
three-point, mixed-order and n_max 32 ones from the power table in
``Fraction`` arithmetic.  The integer power table must reproduce them byte
for byte.

The oracle builds the inverse uniformizer u(zeta) with sympy's ring-series
arithmetic and checks the defining identities of phi and the times.  It
shares no code with ``trcycles.curves``.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from trcycles import GlobalCurve, RationalFunction, localize_global_curve
from trcycles.serialize import dump_curve_spec, parse_curve_spec

DATA = Path(__file__).parent / "data"


def _cubic():
    return parse_curve_spec((DATA / "cubic_global.json").read_text())


def _airy_half():
    return parse_curve_spec((DATA / "airy_global.json").read_text())


def _airy_plain():
    return GlobalCurve(RationalFunction((0, 0, 1)), RationalFunction((0, 1)),
                       ((0, 2),))


def _two_point_rational():
    # x = z^2/(1+z), y = z(z+2)/(3+z), simple points at 0 and -2
    return GlobalCurve(RationalFunction((0, 0, 1), (1, 1)),
                       RationalFunction((0, 2, 1), (3, 1)), ((0, 2), (-2, 2)))


def _order_three():
    # x = z^3 + z^4, y = 1 + z, one point of order 3 at 0
    return GlobalCurve(RationalFunction((0, 0, 0, 1, 1)),
                       RationalFunction((1, 1)), ((0, 3),))


def _three_points():
    # x' = z (z - 1/2) (z + 2): simple points 0, 1/2, -2, so the
    # differences d = a - b are not all integers
    return GlobalCurve(
        RationalFunction((0, 0, Fraction(-1, 2), Fraction(1, 2),
                          Fraction(1, 4))),
        RationalFunction((1, 1), (1, Fraction(-1, 5))),
        ((0, 2), (Fraction(1, 2), 2), (-2, 2)))


def _mixed():
    # x' = z^2 (z - 1): a point of order 3 at 0 and a simple point at 1
    return GlobalCurve(
        RationalFunction((0, 0, 0, Fraction(-1, 3), Fraction(1, 4))),
        RationalFunction((1,), (2, 1)), ((0, 3), (1, 2)))


PINS = [
    (_cubic, 8, "4f12cc0528531d2dc2355e174e0cd568"
                "0551271254c77f90a1f64c3a18ba52ef"),
    # equal to the global-cubic "localized" pin of perfbench/workloads.py
    (_cubic, 14, "399f5fc787625595b08075544ccf8417"
                 "198b820a8a02a01a9a0b607c4260763f"),
    (_cubic, 24, "006c50f0395602d0f6fdad2f68985a16"
                 "735ae2ed2063e5dcb8d8efc62ebf1cc1"),
    # the curve hash of test_cli's compute at the default chi_max 3
    (_cubic, 32, "c9cac0bb4bfd9fa25482460539cc78d4"
                 "449676d8b32b91b28ac6d570effb3742"),
    (_airy_half, 8, "838f8d2c0b7ef96b35122fc1b0a7efe6"
                    "5b9d3d2e1f49c8b4056a291119f7dbef"),
    (_airy_plain, 8, "332da7daa6a2f67e2191c65039d556c1"
                     "17b81024d3ad3dbe038342e7f685490c"),
    (_two_point_rational, 8, "259556652435bc7a35966ddb204e5265"
                             "f89515845d802c54c44b62c582c3da75"),
    (_two_point_rational, 10, "9e5069075de755cd2a04fa2f926d42f9"
                              "10a95278f1df3e458c290673d1bbbb98"),
    (_order_three, 8, "fd33ff9d139e4c7e7a71e7cd61639a60"
                      "418fbd90e7b85bc2f846fe2b6e8a6fa0"),
    (_order_three, 10, "12052240a2571fc1d9bff066227fb113"
                       "cd0666a41e5d01e080842db5199e30f1"),
    (_three_points, 8, "0ce57e2da36f3345ebc5883f7a6b6507"
                       "ac20e33751c3a9bfe83e13fa2a6286d5"),
    (_three_points, 16, "30d10cdd6a58af508b87475c08335434"
                        "774d8f1e3cbdf0cd5a3928e191e163b8"),
    (_mixed, 10, "9035b78e1bdbd194390d1db1cf1837b6"
                 "8432bf1139e4d294af890ca75764088e"),
]


@pytest.mark.parametrize("curve, n_max, digest", PINS,
                         ids=[f"{c.__name__[1:]}-{n}" for c, n, _ in PINS])
def test_localized_curve_pin(curve, n_max, digest):
    text = dump_curve_spec(localize_global_curve(curve(), n_max))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("x, y", [
    ((0, 0, Fraction(1, 2)), (0, 1) + (0,) * 28 + (1,)),
    ((0, 0, Fraction(1, 2)) + (0,) * 37 + (1,), (0, 1)),
], ids=["y-dx-degree-31", "x-degree-40"])
def test_exact_only_when_every_coefficient_is_seen(x, y):
    # near Airy at 0, but y dx (or x) has a term far above 2 n_max: the
    # result is truncated data (n_max = 8), not an exact local curve
    loc = localize_global_curve(
        GlobalCurve(RationalFunction(x), RationalFunction(y), ((0, 2),)), 8)
    assert loc.times("0") == {3: 1}
    assert loc.n_max == 8


# -- independent oracle -------------------------------------------------------

def _random_curve(seed, orders):
    """x = P(M(z)) with P' = (w - e) prod (w - p_i)^(r_i - 1) and M a
    Moebius map, so the points z_i = M^-1(p_i) have order exactly r_i (the
    factor w - e keeps x from being a Moebius image of a power, for which
    phi vanishes); y is a random rational function, regular with y' != 0
    at the points (admissible times)."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    z, w = sp.symbols("z w")
    while True:
        e, *ps = (sp.Rational(p) for p in rng.sample(range(-3, 4),
                                                     len(orders) + 1))
        al, be, ga, de = (rng.randint(-2, 2) for _ in range(4))
        if al * de - be * ga == 0 or any(al - ga * p == 0 for p in ps):
            continue
        dP = (w - e) * sp.prod([(w - p) ** (r - 1)
                                for p, r in zip(ps, orders)])
        P = sp.integrate(sp.expand(dP), w)
        points = [(de * p - be) / (al - ga * p) for p in ps]
        x = sp.cancel(P.subs(w, (al * z + be) / (ga * z + de)))
        y = sp.cancel((rng.randint(-2, 2) + rng.choice((1, 2, -1)) * z
                       + rng.randint(-1, 1) * z ** 2)
                      / (1 + rng.randint(0, 1) * sp.Rational(1, 3) * z))
        if all(sp.denom(y).subs(z, a) != 0 and sp.diff(y, z).subs(z, a)
               for a in points):
            return x, y, list(zip(points, orders)), z


def _rational_function(expr, z):
    import sympy as sp
    num, den = sp.fraction(sp.cancel(expr))

    def coeffs(poly):
        return tuple(Fraction(int(c.p), int(c.q))
                     for c in reversed(sp.Poly(poly, z).all_coeffs()))
    return RationalFunction(coeffs(num), coeffs(den))


def _local_data(expr_x, expr_y, a, r, z, prec):
    """u(zeta) (through zeta^(prec-1)) and y dx re-expanded in zeta."""
    import sympy as sp
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import (
        rs_mul,
        rs_nth_root,
        rs_series_inversion,
        rs_series_reversion,
        rs_subs,
    )
    ring, W, Z = sp.polys.rings.ring("W,Z", QQ)

    def expand_at(expr):   # expr(a + W) as a series in W
        num, den = sp.fraction(sp.cancel(expr.subs(z, a + sp.Symbol("W"))))
        n_ = ring(sp.expand(num))
        d_ = ring(sp.expand(den))
        return rs_mul(n_, rs_series_inversion(d_, W, prec + r), W, prec + r)

    X = expand_at(expr_x)
    c = X[(r, 0)]
    s = ring.from_dict({(e - r, 0): v / c for (e, _), v in X.items()
                        if r <= e < prec + r})
    zeta = rs_mul(W, rs_nth_root(s, r, W, prec), W, prec)
    u = rs_series_reversion(zeta, W, prec, Z)
    form = rs_mul(expand_at(expr_y), expand_at(sp.diff(expr_x, z)), W, prec)
    omega = rs_mul(rs_subs(form, {W: u}, Z, prec), u.diff(Z), Z, prec)
    return ([u.coeff(Z ** e) for e in range(prec)],
            [omega.coeff(Z ** e) for e in range(prec)])


@pytest.mark.parametrize("seed, orders, n_max", [
    (1, (2,), 6), (2, (3,), 6), (3, (2, 2), 5), (4, (2, 3), 5), (5, (3, 3), 4),
])
def test_localization_against_sympy_oracle(seed, orders, n_max):
    """With z = a + u_a(zeta) near each point and
    Phi_ab = sum phi[(a,k),(b,m)] zeta1^(k-1) zeta2^(m-1), the genus-zero
    kernel dz1 dz2/(z1 - z2)^2 gives

        (u_a1 - u_a2)^2 (1 + (zeta1 - zeta2)^2 Phi_aa)
            = u_a'(zeta1) u_a'(zeta2) (zeta1 - zeta2)^2,
        (a - b + u_a(zeta1) - u_b(zeta2))^2 Phi_ab = u_a'(zeta1) u_b'(zeta2).

    phi is known for k, m <= n_max, so the identities hold through total
    degree n_max + 3 and n_max - 1.  The times are the coefficients of y dx
    re-expanded in zeta."""
    sp = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    x, y, decls, z = _random_curve(seed, orders)
    gcurve = GlobalCurve(_rational_function(x, z), _rational_function(y, z),
                         tuple((Fraction(int(a.p), int(a.q)), r)
                               for a, r in decls))
    doc = localize_global_curve(gcurve, n_max).canonical_dict()
    phi = {}
    for (la, k), (lb, m), v in doc["phi"]:
        phi[(la, k), (lb, m)] = phi[(lb, m), (la, k)] = sp.Rational(v)
    ring, z1, z2 = sp.polys.rings.ring("z1,z2", QQ)
    prec = n_max + 4
    points = {p["label"]: p for p in doc["points"]}
    local = {}
    for a, r in decls:
        label = str(Fraction(int(a.p), int(a.q)))
        pt = points[label]
        u, omega = _local_data(x, y, a, r, z, prec)
        local[label] = (a, u)
        times = {int(k): sp.Rational(v) for k, v in pt["times"].items()}
        for k in range(1, n_max + 1):
            if k % r:
                assert times.get(k, 0) == omega[k - 1], (seed, a, k)

    def series(coeffs, var):
        return ring.from_dict({(e, 0) if var is z1 else (0, e): c
                               for e, c in enumerate(coeffs) if c})

    def low_part(p, degree):
        return {mon: c for mon, c in p.items() if sum(mon) <= degree}

    for la, (a, ua) in local.items():
        for lb, (b, ub) in local.items():
            Phi = ring.from_dict({
                (k - 1, m - 1): phi.get(((la, k), (lb, m)), 0)
                for k in range(1, n_max + 1) for m in range(1, n_max + 1)})
            du1 = series([e * c for e, c in enumerate(ua)][1:], z1)
            du2 = series([e * c for e, c in enumerate(ub)][1:], z2)
            gap = series(ua, z1) - series(ub, z2) + (a - b)
            if la == lb:
                lhs = gap ** 2 * (1 + (z1 - z2) ** 2 * Phi)
                rhs = du1 * du2 * (z1 - z2) ** 2
                valid = n_max + 3
            else:
                lhs, rhs, valid = gap ** 2 * Phi, du1 * du2, n_max - 1
            assert low_part(lhs - rhs, valid) == {}, (seed, la, lb)
