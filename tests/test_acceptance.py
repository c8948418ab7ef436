"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  Expected values marked by the
independent intersection-number oracle are computed in oracles.py, which
shares no code with the engines.
"""

import time
from fractions import Fraction
from pathlib import Path


from oracles import engine_entry
from test_tensors import drop_disc_free, drop_kernel_terms, zero_bridge
from test_wavefunction import drop_kernel_class
from unpruned import check_every_reading
from trcycles import (
    GlobalCurve,
    LocalForm,
    RationalFunction,
    assemble_logZ,
    bhat,
    chat_polar,
    compute_airy_tensors,
    compute_omega_table,
    compute_Uk,
    gamma,
    hirota_insertion_check,
    intersection,
    localize_global_curve,
    scale_curve,
    tensor_recursion,
    validate_local_curve,
    verify_higher_pde,
    verify_quadratic_pde,
)
from trcycles.series import FORM, LaurentSeries
from trcycles.serialize import dump_curve_spec, parse_curve_spec

DATA = Path(__file__).parent / "data"


def test_criterion_1_golden_values():
    """Witten-Kontsevich golden values on the simple unit curve."""
    t0 = time.time()
    curve = validate_local_curve([("1", 2, {3: 1})])
    table = compute_omega_table(curve, 4)
    L = lambda *ks: tuple(("1", k) for k in ks)
    golden = [
        ((0, 3, (1, 1, 1)), Fraction(1)),
        ((1, 1, (3,)), Fraction(1, 24)),
        ((1, 2, (3, 3)), Fraction(1, 24)),
        ((1, 2, (1, 5)), Fraction(1, 8)),
        ((0, 4, (1, 1, 1, 3)), Fraction(1)),
        ((2, 1, (9,)), Fraction(35, 384)),
    ]
    for (g, n, ks), frozen in golden:
        assert engine_entry(g, ks) == frozen   # oracle reproduces constants
        assert table.get(g, n, L(*ks)) == frozen, (g, n, ks)
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"criterion 1: PASS - six golden values exact ({elapsed:.2f}s)")


def test_criterion_2_engine_equivalence():
    """Residue recursion equals tensor recursion entrywise, chi <= 4."""
    t0 = time.time()
    curves = {
        "airy": validate_local_curve([("1", 2, {3: 1})]),
        "two-point": validate_local_curve([
            ("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})]),
    }
    for name, curve in curves.items():
        table = compute_omega_table(curve, 4)
        at = compute_airy_tensors(table)
        ttab = tensor_recursion(at)
        for gn in sorted(set(table.tables) | set(ttab.tables)):
            assert table.entries(*gn) == ttab.entries(*gn), (name, gn)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"criterion 2: PASS - two engines identical on both curves "
          f"({elapsed:.2f}s)")


def test_criterion_3_quadratic_pde():
    """Zero residual through hbar/degree four; every stored tensor entry
    with active derivative slots is load-bearing under perturbation."""
    t0 = time.time()
    curves = [
        validate_local_curve([("1", 2, {3: 1})]),
        validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                              ("-1", 2, {3: 2})]),
    ]
    from trcycles.wavefunction import HPoly
    for curve in curves:
        table = compute_omega_table(curve, 4)
        at = compute_airy_tensors(table)
        rep = verify_quadratic_pde(at, 4, 4)
        assert rep.ok, rep.first_nonzero()
        logz = assemble_logZ(table, 4)

        def visible(poly, budget_h, budget_d):
            return any(h <= budget_h and sum(m for _, m in mon) <= budget_d
                       for h, tp in poly.items() for mon in tp)

        def cofactor_nonzero(name, key):
            # does perturbing this entry move any coefficient within the
            # (hbar, degree) <= (4, 4) window?
            if name in ("A", "D"):
                return True
            if name == "B":
                pj = logz.deriv(key[1])
                return visible(pj, 3, 3)
            q = logz.deriv(key[1]).deriv(key[2])
            pp = HPoly(logz.deriv(key[1]), (3, 4)) * logz.deriv(key[2])
            return visible(q + pp, 3, 4)

        swept = 0
        for name, entries in (("A", list(at.A)),
                              ("D", [(i,) for i in at.D]),
                              ("B", list(at.B)), ("C", list(at.C))):
            for key in entries:
                pert = verify_quadratic_pde(
                    at.copy_with_perturbation(name, key, 1), 4, 4)
                if cofactor_nonzero(name, key):
                    assert not pert.ok, (name, key)
                    swept += 1
                else:
                    assert pert.ok, (name, key)
        assert swept >= 10
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 3: PASS - zero residual + {swept} load-bearing "
          f"perturbations on the second curve ({elapsed:.2f}s)")


def test_criterion_4_higher_operator(monkeypatch):
    """Order-3 operator on the order-3 curve: zero residual and
    falsifiability.

    The expansion forms one kernel product per kernel term of orders 2
    and 3, each slot group's block summed over the stored levels, and
    every term is load-bearing.  So is the disc-free triple block:
    removing it breaks annihilation on a mixed-times order-3 curve.  On
    the single-time curve the order-3 bridge (x) insertion terms
    aggregate to zero: the three Galois pairings of the bridge share one
    constant and the correlator supports avoid indices divisible by 3, so
    a zero bridge leaves only the residual of the order-2 bridge term.
    """
    t0 = time.time()
    curve = validate_local_curve([("0", 3, {4: 1})])
    table = compute_omega_table(curve, 4)
    rep = verify_higher_pde(table, 3)
    assert rep.ok, rep.first_nonzero()
    assert rep.checked_orders[0] == 3

    # falsifiability: every kernel term, by order and slot groups, is
    # load-bearing
    for order, blocks in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        with monkeypatch.context() as mp:
            drop_kernel_terms(mp, order, blocks)
            assert not verify_higher_pde(table, 3).ok, (order, blocks)

    # the bridge (x) insertion terms: provably aggregating to zero on this
    # curve (Galois average)
    with monkeypatch.context() as mp:
        zero_bridge(mp)
        assert verify_higher_pde(table, 3).entries == \
            [(("0", 4), 0, (), Fraction(1, 12))]

    # on a mixed-times order-3 curve the disc-free triple block is needed
    mixed = validate_local_curve([("0", 3, {4: 1, 5: Fraction(1, 2)})])
    mtable = compute_omega_table(mixed, 3)
    assert verify_higher_pde(mtable, 2).ok
    drop_disc_free(monkeypatch)
    assert not verify_higher_pde(mtable, 2).ok
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 4: PASS - order-3 residual zero through hbar^3, "
          f"every kernel term load-bearing ({elapsed:.2f}s)")


def test_criterion_5_homogeneity():
    """F(lambda S) = lambda^(2-2g-n) F(S) entrywise for chi <= 4."""
    t0 = time.time()
    curves = [
        (validate_local_curve([("1", 2, {3: 1})]), 4),
        (validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                               ("-1", 2, {3: 2})]), 4),
        (validate_local_curve([("0", 3, {4: 1})]), 4),
    ]
    for curve, chi in curves:
        base = compute_omega_table(curve, chi)
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            scaled = compute_omega_table(scale_curve(curve, lam), chi)
            gns = set(base.tables) | set(scaled.tables)
            for (g, n) in gns:
                factor = curve.field.coerce(lam) ** (2 - 2 * g - n)
                keys = set(base.entries(g, n)) | set(scaled.entries(g, n))
                for key in keys:
                    assert scaled.get(g, n, key) == \
                        factor * base.get(g, n, key), (g, n, key, lam)
    elapsed = time.time() - t0
    print(f"criterion 5: PASS - exact homogeneity for three scalings on "
          f"three curves ({elapsed:.2f}s)")


def test_criterion_6_dilaton():
    """Contraction with the dual of the primary form rescales correlators.

    Under the implemented cycle-pairing orientation (the defining
    intersection formula; see the recorded sign of the pairing table) the
    factor is 2g-2+n = -(2-2g-n)."""
    t0 = time.time()
    curves = [
        validate_local_curve([("1", 2, {3: 1})]),
        validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                              ("-1", 2, {3: 2})]),
        validate_local_curve([("0", 3, {4: 1})]),
    ]
    checked = 0
    for curve in curves:
        table = compute_omega_table(curve, 4)
        for (g, n), tab in sorted(table.tables.items()):
            if 2 - 2 * g - n >= 0 or 2 * g - 2 + n > 3:
                continue
            for key, v in tab.items():
                total = curve.field.zero()
                for label in curve.labels:
                    for k, t in curve.times(label).items():
                        total = total + t * table.get(g, n + 1,
                                                      ((label, k),) + key)
                assert total == (2 * g - 2 + n) * v, (g, n, key)
                checked += 1
    elapsed = time.time() - t0
    assert checked > 30
    print(f"criterion 6: PASS - dilaton identity on {checked} entries "
          f"({elapsed:.2f}s)")


def test_criterion_7_symmetry_and_rationality():
    """Distinguished-variable symmetry at every level of the order-3 curve
    and of a curve with points of orders 2 and 3, through chi 2, and
    rational entries (cyclotomic parts cancel)."""
    t0 = time.time()
    readings = 0
    for curve in (validate_local_curve([("0", 3, {4: 1})]),
                  validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})])):
        table = compute_omega_table(curve, 2)
        assert table.entries(0, 4)
        for tab in table.tables.values():
            assert all(value.is_rational() for value in tab.values())
        # recompute every entry with each distinct index distinguished
        readings += check_every_reading(table)
    elapsed = time.time() - t0
    print(f"criterion 7: PASS - {readings} readings symmetric, entries "
          f"rational ({elapsed:.2f}s)")


def test_criterion_8_cycle_algebra():
    """Kernel-map algebra and the disc-free pair coefficient."""
    t0 = time.time()
    curve = validate_local_curve([("1", 2, {3: 1}), ("-1", 2, {3: 2})])
    fld = curve.field
    # right inverse on purely polar forms
    w = LocalForm(curve, {
        "1": LaurentSeries(fld, {-3: 2, -6: Fraction(5, 7)}, weight=FORM),
        "-1": LaurentSeries(fld, {-2: 1}, weight=FORM)})
    cyc = chat_polar(w, curve)
    assert (bhat(cyc, curve) - w).is_zero()
    # projection: the map squares to itself and kills negative directions
    mixed = gamma(curve, "1", 2) + gamma(curve, "1", -5).scale(3)
    proj = chat_polar(bhat(mixed, curve), curve)
    assert proj == gamma(curve, "1", 2)
    assert chat_polar(bhat(proj, curve), curve) == proj
    # intersection antisymmetry and locality
    for (a, j), (b, k) in [(("1", 1), ("1", 2)), (("1", 2), ("1", -2)),
                           (("1", 3), ("-1", -3)), (("-1", 1), ("1", -1))]:
        c1, c2 = gamma(curve, a, j), gamma(curve, b, k)
        assert intersection(c1, c2, curve) == \
            -1 * intersection(c2, c1, curve)
        if a != b:
            assert intersection(c1, c2, curve) == 0
    assert intersection(gamma(curve, "1", 2), gamma(curve, "1", -2),
                        curve) == -2
    # the four-slot disc-free coefficient by partition enumeration
    assert compute_Uk(4) == {(4,): 1, (2, 2): 3}
    elapsed = time.time() - t0
    print(f"criterion 8: PASS - cycle algebra identities exact "
          f"({elapsed:.2f}s)")


def test_criterion_9_insertion_operator(monkeypatch):
    """The linear loop equation holds on every stored entry."""
    t0 = time.time()
    airy = validate_local_curve([("1", 2, {3: 1})])
    r3 = validate_local_curve([("0", 3, {4: 1})])
    assert hirota_insertion_check(compute_omega_table(airy, 4)) == []
    assert hirota_insertion_check(compute_omega_table(r3, 3)) == []
    # negative control: the fill without the two-block order-2 terms
    drop_kernel_class(monkeypatch, 2, 2)
    assert hirota_insertion_check(compute_omega_table(r3, 3))
    elapsed = time.time() - t0
    print(f"criterion 9: PASS - linear loop equation on airy chi4 and "
          f"r3 chi3 ({elapsed:.2f}s)")


def test_criterion_10_infrastructure():
    """Bit-exact round trips and localization equalities."""
    t0 = time.time()
    for name in ("airy.json", "two_point.json", "r3.json"):
        text = (DATA / name).read_text()
        curve = parse_curve_spec(text)
        assert dump_curve_spec(curve) == text
    # localization of the half-quadratic model equals the unit local curve
    half = GlobalCurve(x=RationalFunction((0, 0, Fraction(1, 2))),
                       y=RationalFunction((0, 1)),
                       declared_ramification=((0, 2),))
    loc = localize_global_curve(half, 8)
    ref = validate_local_curve([("0", 2, {3: 1})])
    assert dump_curve_spec(loc) == dump_curve_spec(ref)
    # cubic model: leading time 2 at the positive point
    cubic = GlobalCurve(x=RationalFunction((0, -1, 0, Fraction(1, 3))),
                        y=RationalFunction((0, 1)),
                        declared_ramification=((1, 2), (-1, 2)))
    loc3 = localize_global_curve(cubic, 8)
    assert loc3.times("1")[3] == Fraction(2)
    elapsed = time.time() - t0
    print(f"criterion 10: PASS - round trips bit-exact, localizations "
          f"match ({elapsed:.2f}s)")
