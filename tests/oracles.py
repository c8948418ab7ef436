"""Independent oracles used by the test suite.

The intersection-number recursion below is implemented directly from the
Virasoro/KdV constraints in the (2d+1)!! normalization and is validated
against textbook values before use; it shares no code or conventions with
the package engines.  Two oracles at the end are exceptions: the sampled
homogeneity check reruns the package recursion on rescaled curves, and
serves as the reference for the graded check of ``trcycles verify``; the
quadratic residual expands the annihilation operator on the package's
log Z, the reference for ``verify_quadratic_pde``.
"""

from fractions import Fraction
from functools import lru_cache

from trcycles import compute_omega_table, scale_curve
from trcycles.wavefunction import (
    HPoly,
    assemble_logZ,
    monomial_from_multiset,
)


def double_factorial_odd(m: int) -> int:
    """(2m+1)!!"""
    out = 1
    for i in range(1, m + 1):
        out *= 2 * i + 1
    return out


@lru_cache(maxsize=None)
def wk_normalized(g: int, n: int, dd: tuple) -> Fraction:
    """F(g,n)[d_1..d_n] = <tau_{d_1}...tau_{d_n}>_g * prod (2 d_i + 1)!!"""
    if g < 0 or n < 1 or len(dd) != n:
        return Fraction(0)
    if any(d < 0 for d in dd):
        return Fraction(0)
    if (g, n) in ((0, 1), (0, 2)):
        return Fraction(0)
    if sum(dd) != 3 * g - 3 + n:
        return Fraction(0)
    dd = tuple(sorted(dd))
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 8)
    d0 = dd[0]
    rest = dd[1:]
    s1 = Fraction(0)
    for m in range(len(rest)):
        merged = tuple(sorted((d0 + rest[m] - 1,) + rest[:m] + rest[m + 1:]))
        if d0 + rest[m] - 1 >= 0:
            s1 += (2 * rest[m] + 1) * wk_normalized(g, n - 1, merged)
    s2 = Fraction(0)
    for a in range(d0 - 1):
        b = d0 - 2 - a
        s2 += wk_normalized(g - 1, n + 1, tuple(sorted((a, b) + rest)))
    s3 = Fraction(0)
    for mask in range(1 << len(rest)):
        part1 = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
        part2 = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
        for g1 in range(g + 1):
            g2 = g - g1
            for a in range(d0 - 1):
                b = d0 - 2 - a
                f1 = wk_normalized(g1, len(part1) + 1,
                                   tuple(sorted((a,) + part1)))
                if f1:
                    s3 += f1 * wk_normalized(g2, len(part2) + 1,
                                             tuple(sorted((b,) + part2)))
    return s1 + (s2 + s3) / 2


def psi_correlator(g: int, dd: tuple) -> Fraction:
    """<tau_{d_1}...tau_{d_n}>_g"""
    n = len(dd)
    denom = 1
    for d in dd:
        denom *= double_factorial_odd(d)
    return wk_normalized(g, n, tuple(sorted(dd))) / denom


def engine_entry(g: int, ks: tuple) -> Fraction:
    """Expected coefficient-tensor entry for the canonical simple curve
    with unit leading time: indices k_i = 2 d_i + 1, and the entry equals
    <prod tau_{d_i}> * prod (2 d_i - 1)!!."""
    if any(k < 1 or k % 2 == 0 for k in ks):
        return Fraction(0)
    dd = tuple((k - 1) // 2 for k in ks)
    value = psi_correlator(g, dd)
    for d in dd:
        # (2d-1)!! = (2d+1)!!/(2d+1)
        value *= Fraction(double_factorial_odd(d), 2 * d + 1)
    return value


SELF_TEST_VALUES = [
    # (g, (d_i...), <prod tau>)
    (0, (0, 0, 0), Fraction(1)),
    (0, (1, 0, 0, 0), Fraction(1)),
    (0, (2, 0, 0, 0, 0), Fraction(1)),
    (0, (1, 1, 0, 0, 0), Fraction(2)),
    (0, (1, 1, 1, 0, 0, 0), Fraction(6)),
    (1, (1,), Fraction(1, 24)),
    (1, (2, 0), Fraction(1, 24)),
    (1, (1, 1), Fraction(1, 24)),
    (1, (2, 1, 0), Fraction(1, 12)),
    (1, (1, 1, 1), Fraction(1, 12)),
    (1, (3, 0, 0), Fraction(1, 24)),
    (2, (4,), Fraction(1, 1152)),
    (2, (5, 0), Fraction(1, 1152)),
    (2, (4, 1), Fraction(1, 384)),
    (2, (3, 2), Fraction(29, 5760)),
]


def self_test() -> None:
    for g, dd, want in SELF_TEST_VALUES:
        got = psi_correlator(g, tuple(sorted(dd)))
        if got != want:
            raise AssertionError(f"oracle self-test failed at {(g, dd)}: "
                                 f"{got} != {want}")


self_test()


# Cyclotomic polynomials Phi_n, low to high, written out by hand.
CYCLOTOMIC = {
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
}


def cyclo_mul(n: int, a, b) -> list:
    """Coefficients of a*b in Q[x]/Phi_n: the dense product over Fractions,
    then the remainder of long division by the monic Phi_n."""
    phi = CYCLOTOMIC[n]
    deg = len(phi) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += Fraction(ai) * Fraction(bj)
    for top in range(len(prod) - 1, deg - 1, -1):
        lead = prod[top]
        for i, p in enumerate(phi):
            prod[top - deg + i] -= lead * p
    return (prod + [Fraction(0)] * deg)[:deg]


def three_lambda_homogeneity(curve, table, chi):
    """Homogeneity sampled at lambda = 2, -1 and 1/3: the table of the
    curve with its primary form rescaled by lambda must equal
    lambda^(2-2g-n) F[g,n] entry by entry, with no extra entries.
    Returns (ok, detail of the last failure)."""
    ok = True
    detail = ""
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        stab = compute_omega_table(scale_curve(curve, lam), chi)
        for (g, n), tab in table.tables.items():
            factor = curve.field.coerce(lam) ** (2 - 2 * g - n)
            for key, v in tab.items():
                if stab.get(g, n, key) != factor * v:
                    ok = False
                    detail = f"lambda={lam}, (g,n)=({g},{n}), {key}"
            for key in stab.entries(g, n):
                if key not in tab and stab.get(g, n, key):
                    ok = False
                    detail = f"extra entry at lambda={lam}: {key}"
    return ok, detail


def quadratic_residual_by_expansion(at, hbar_max, deg_max):
    """The nonzero coefficients (i, hbar order, monomial, value), sorted,
    of the quadratic annihilation operator applied to log Z,

        d/dt'_i log Z - hbar D[i] - (hbar/4) A[i,j,k] t'_j t'_k
            - hbar B[i,j,k] t'_k d/dt'_j log Z
            - (hbar/2) C[i,j,k] (d2/dt'_j dt'_k + d/dt'_j d/dt'_k) log Z,

    expanded as hbar/times polynomials, at every index i that the table
    or A, B, C, D name, through hbar order min(hbar_max, chi_max) and
    times degree deg_max."""
    table = at.table
    chi = min(hbar_max, table.chi_max)
    caps = (hbar_max, deg_max)
    logz = HPoly(assemble_logZ(table, chi), caps)
    crows, brows = {}, {}
    for (i, e, ep), v in at.C.items():
        crows.setdefault(i, []).append((e, ep, v))
    for (i, j, s), v in at.B.items():
        brows.setdefault(i, []).append((j, s, v))
    rows = set(at.D) | {i for tab in (*table.tables.values(), at.A, at.B,
                                      at.C) for key in tab for i in key}
    P = {i: logz.deriv(i) for i in rows}
    both = {}   # (e, e') -> d/dt'_e' P_e + P_e P_e', one per unordered pair
    out = []
    for i in sorted(rows):
        res = P[i] - HPoly({1: {(): at.D.get(i, 0)}}, caps)
        for key, v in at.A.items():
            if i in key:
                rest = list(key)
                rest.remove(i)
                npairs = 1 if rest[0] == rest[1] else 2
                res = res - HPoly(
                    {1: {monomial_from_multiset(rest): v * npairs / 4}}, caps)
        for j, s, v in brows.get(i, ()):
            ts = HPoly({0: {((s, 1),): 1}}, caps)
            res = res - (ts * P[j]).shift(1) * v
        for e, ep, v in crows.get(i, ()):
            pair = tuple(sorted((e, ep)))
            if pair not in both:
                both[pair] = P[e].deriv(ep) + P[e] * P[ep]
            res = res - both[pair].shift(1) * (v / 2)
        out += [(i, h, mon, c) for h in sorted(res) if h <= chi
                for mon, c in sorted(res[h].items())
                if c and sum(m for _, m in mon) <= deg_max]
    return out
