from fractions import Fraction

import pytest

from trcycles import (
    OmegaTable,
    ResidualReport,
    compute_airy_tensors,
    compute_omega_table,
    compute_Uk,
    tensor_recursion,
    validate_local_curve,
    verify_higher_pde,
    verify_quadratic_pde,
)
from trcycles import tensors
from trcycles.errors import UnsupportedError
from trcycles.series import LaurentSeries
from trcycles.wavefunction import HPoly


def L(*ks):
    return tuple(("1", k) for k in ks)


@pytest.fixture(scope="module")
def airy_tensors(airy_curve, airy_table):
    return compute_airy_tensors(airy_table)


def test_tensor_values(airy_tensors):
    at = airy_tensors
    assert at.A[L(1, 1, 1)] == 2
    assert at.D[("1", 3)] == Fraction(1, 24)
    assert at.C[(("1", 5), ("1", 1), ("1", 1))] == Fraction(1, 5)
    assert at.B[(("1", 3), ("1", 3), ("1", 3))] == 1
    assert at.B[(("1", 1), ("1", 3), ("1", 5))] == 3


def test_c_symmetry_on_support(airy_tensors):
    seen = set()
    for (i0, e, ep), v in airy_tensors.C.items():
        seen.add((i0, e, ep))
    for (i0, e, ep) in seen:
        assert airy_tensors.C.get((i0, e, ep)) == \
            airy_tensors.C.get((i0, ep, e)), (i0, e, ep)


def test_direct_kernel_reproduces_d(airy_curve, airy_tensors):
    # the one-holed torus form from the kernel with identified arguments:
    # the bridge residue, mapped to a form and paired with the B-cycles
    from trcycles import LocalCycle, bcycle, bhat, pair_cycle_form
    table = airy_tensors.table
    column = table.kernel_contract("1", (1,), [table.bridge("1", 0, 1)])
    out = bhat(LocalCycle(airy_curve.field, {("1", k0): v
                                             for k0, v in column.items()}),
               airy_curve)
    for (label, k), dval in airy_tensors.D.items():
        assert pair_cycle_form(bcycle(airy_curve, label, k), out) == dval


def test_engine_equivalence_airy(airy_table, airy_tensors):
    ttab = tensor_recursion(airy_tensors)
    for gn in set(airy_table.tables) | set(ttab.tables):
        assert airy_table.entries(*gn) == ttab.entries(*gn), gn


def test_engine_equivalence_two_point(two_point_table):
    at = compute_airy_tensors(two_point_table)
    ttab = tensor_recursion(at)
    for gn in set(two_point_table.tables) | set(ttab.tables):
        assert two_point_table.entries(*gn) == ttab.entries(*gn), gn


def _assert_engines_agree(curve, chi):
    table = compute_omega_table(curve, chi)
    ttab = tensor_recursion(compute_airy_tensors(table))
    for gn in set(table.tables) | set(ttab.tables):
        assert table.entries(*gn) == ttab.entries(*gn), gn
    return table


def test_engine_equivalence_two_point_chi5(two_point_curve):
    for chi in (5, 6):
        _assert_engines_agree(two_point_curve, chi)


@pytest.mark.parametrize("points, stored", [
    ([("1", 2, {3: 1, 4: Fraction(1, 2), 5: Fraction(1, 3)})], 56),
    ([("1", 2, {3: 1, 4: Fraction(1, 2)}),
      ("-1", 2, {3: 2, 4: Fraction(-1, 3)})], 44),
], ids=["one-point", "two-point"])
def test_engine_equivalence_parity_broken(points, stored):
    # the even times cancel in y - sigma* y, so on these purely local
    # curves the tensors are odd-indexed as for odd times alone (the tensor
    # recursion itself only follows the stored entries)
    curve = validate_local_curve(points)
    table = _assert_engines_agree(curve, 4)
    # the table itself has odd indices only: the twin factor
    # 1 - (-1)^k0 is 0 at even k0 on every curve
    keys = [key for tab in table.tables.values() for key in tab]
    assert len(keys) == stored
    assert all(k % 2 for key in keys for _, k in key)


@pytest.mark.parametrize("name, idx, moved", [
    ("C", (("1", 5), ("1", 1), ("1", 1)), {(2, 1)}),
    ("B", (("1", 3), ("1", 3), ("1", 3)), {(1, 2), (1, 3), (2, 1)}),
    # an even-index row, outside the odd support of this curve
    ("C", (("1", 2), ("1", 1), ("1", 1)), {(2, 1)}),
])
def test_tensor_recursion_contraction_is_falsifiable(two_point_curve, name,
                                                     idx, moved):
    table = compute_omega_table(two_point_curve, 3)
    at = compute_airy_tensors(table)
    base = tensor_recursion(at)
    bumped = tensor_recursion(at.copy_with_perturbation(name, idx, 1))
    assert {gn for gn in set(base.tables) | set(bumped.tables)
            if base.entries(*gn) != bumped.entries(*gn)} == moved


def test_tensor_form_needs_simple_points(r3_table):
    with pytest.raises(UnsupportedError):
        compute_airy_tensors(r3_table)


def test_uk_partition_counts():
    assert compute_Uk(1) == {}
    assert compute_Uk(2) == {(2,): 1}
    assert compute_Uk(3) == {(3,): 1}
    assert compute_Uk(4) == {(4,): 1, (2, 2): 3}
    assert compute_Uk(5) == {(5,): 1, (2, 3): 10}
    assert compute_Uk(6) == \
        {(6,): 1, (2, 4): 15, (3, 3): 10, (2, 2, 2): 15}


@pytest.mark.parametrize("hbar_max, deg_max", [(0, 3), (-1, 3), (3, -1)])
def test_quadratic_pde_refuses_an_empty_window(airy_tensors, hbar_max,
                                               deg_max):
    with pytest.raises(ValueError):
        verify_quadratic_pde(airy_tensors, hbar_max, deg_max)


def test_higher_pde_refuses_a_negative_hbar_order(r3_table):
    with pytest.raises(ValueError):
        verify_higher_pde(r3_table, -1)
    assert verify_higher_pde(r3_table, 0).checked_orders == (0, 2)


def test_quadratic_pde_zero_residual(airy_tensors):
    rep = verify_quadratic_pde(airy_tensors, 4, 4)
    assert rep.ok, rep.first_nonzero()


def test_quadratic_pde_two_point(two_point_table):
    at = compute_airy_tensors(two_point_table)
    rep = verify_quadratic_pde(at, 4, 4)
    assert rep.ok, rep.first_nonzero()


def test_quadratic_pde_perturbations(airy_tensors):
    cases = [
        ("D", (("1", 3),)),
        ("A", (("1", 1), ("1", 1), ("1", 1))),
        ("B", (("1", 3), ("1", 3), ("1", 3))),
        ("C", (("1", 5), ("1", 1), ("1", 1))),
    ]
    for name, idx in cases:
        rep = verify_quadratic_pde(
            airy_tensors.copy_with_perturbation(name, idx, 1), 4, 4)
        assert not rep.ok, name
    rep = verify_quadratic_pde(
        airy_tensors.copy_with_perturbation("D", (("1", 3),), 1), 4, 4)
    assert rep.first_nonzero()[1] == 1   # residual located at order one


# Negative controls for the higher verifier.  Each mutant removes one
# piece of its kernel terms; apply it after the fill, so that only the
# verifier reads the mutated code.

def zero_bridge(monkeypatch):
    """Verify with a zero bridge, the undressed level (0,2)."""
    monkeypatch.setattr(OmegaTable, "bridge", lambda self, label, jp, jq:
                        LaurentSeries.zero(self.field, weight=2))


def drop_disc_free(monkeypatch):
    """Verify without the disc-free level (0,m) of every block, m >= 3."""
    block = OmegaTable.table_block
    monkeypatch.setattr(
        OmegaTable, "table_block", lambda self, label, gb, mb, rots:
        {} if gb == 0 and mb == len(rots) else
        block(self, label, gb, mb, rots))


def bridge_only_pairs(monkeypatch):
    """Verify with two-slot blocks that hold only the bridge."""
    block = OmegaTable.table_block
    monkeypatch.setattr(
        OmegaTable, "table_block", lambda self, label, gb, mb, rots:
        {} if len(rots) == 2 and (gb, mb) != (0, 2) else
        block(self, label, gb, mb, rots))


def drop_kernel_terms(monkeypatch, order, blocks):
    """Verify without the kernel terms of one order and block count."""
    terms = tensors._kernel_terms
    monkeypatch.setattr(tensors, "_kernel_terms", lambda r: (
        (rot, part, j) for rot, part, j in terms(r)
        if (len(rot), len(part)) != (order, blocks)))


def test_higher_pde_airy_reduces(airy_table, monkeypatch):
    # at a simple point the operator is the quadratic one: the order-2
    # kernel on one slot group (bridge and connected insertion) and on
    # two (split insertion), and each of the three pieces is needed
    assert verify_higher_pde(airy_table, 3).ok
    assert sorted(len(part) for _, part, _ in tensors._kernel_terms(2)) \
        == [1, 2]
    for mutant in (zero_bridge, bridge_only_pairs,
                   lambda m: drop_kernel_terms(m, 2, 2)):
        with monkeypatch.context() as mp:
            mutant(mp)
            assert not verify_higher_pde(airy_table, 3).ok


def test_higher_pde_r3(r3_table):
    rep = verify_higher_pde(r3_table, 3)
    assert rep.ok, rep.first_nonzero()


def test_higher_pde_falsifiable(airy_table, r3_table, monkeypatch):
    # each mutant leaves exactly these residuals (count, first)
    r3, airy = ("0", r3_table), ("1", airy_table)
    for (lb, table), mutant, count, first in [
            (r3, zero_bridge, 1, (4, 0, (), Fraction(1, 12))),
            (r3, lambda m: drop_kernel_terms(m, 3, 1), 2,
             (11, 3, ((5, 1),), Fraction(-2, 33))),
            (r3, lambda m: drop_kernel_terms(m, 3, 3), 45,
             (2, 1, ((1, 2), (4, 1)), Fraction(-1, 2))),
            (airy, zero_bridge, 1, (3, 0, (), Fraction(1, 24))),
            (airy, bridge_only_pairs, 12,
             (5, 1, ((1, 1),), Fraction(1, 10))),
            (airy, lambda m: drop_kernel_terms(m, 2, 2), 41,
             (1, 0, ((1, 2),), Fraction(1, 2)))]:
        with monkeypatch.context() as mp:
            mutant(mp)
            rep = verify_higher_pde(table, 3)
        k0, h, mon, value = first
        assert len(rep.entries) == count, (lb, count)
        assert rep.first_nonzero() == \
            ((lb, k0), h, tuple(((lb, k), m) for k, m in mon), value)


def test_higher_pde_mixed_r3(r3_mixed_table, monkeypatch):
    rep = verify_higher_pde(r3_mixed_table, 2)
    assert rep.ok, rep.first_nonzero()
    # the disc-free triple block is required on generic order-3 curves
    drop_disc_free(monkeypatch)
    rep2 = verify_higher_pde(r3_mixed_table, 2)
    assert len(rep2.entries) == 8
    assert rep2.first_nonzero() == (("0", 1), 2, (), Fraction(-1, 3072))


def test_bridge_insertion_class_aggregates_to_zero(r3_table, monkeypatch):
    """On order-3 curves the three Galois pairings of the bilinear-kernel
    bridge share one constant (-1/3), and correlator supports avoid
    indices divisible by 3, so the bridge (x) insertion terms of order 3
    sum to zero: a zero bridge leaves only the residual of the order-2
    bridge term.  Falsifiability of the verifier is covered by the other
    mutants above."""
    zero_bridge(monkeypatch)
    rep = verify_higher_pde(r3_table, 3)
    assert rep.entries == [(("0", 4), 0, (), Fraction(1, 12))]


def test_kernel_products_per_verification(monkeypatch):
    # one kernel product per kernel term at each point: every slot group
    # takes one block, summed over the levels, whatever its terms' parts
    count = [0]
    contract = OmegaTable.kernel_contract

    def counted(self, *args, **kwargs):
        count[0] += 1
        return contract(self, *args, **kwargs)

    for points, chi, calls in [
            ([("1", 2, {3: 1})], 4, 2),
            ([("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})], 5, 4),
            ([("0", 3, {4: 1})], 4, 7),
            ([("0", 4, {5: 1})], 2, 34)]:
        table = compute_omega_table(validate_local_curve(points), chi)
        count[0] = 0
        with monkeypatch.context() as mp:
            mp.setattr(OmegaTable, "kernel_contract", counted)
            assert verify_higher_pde(table, 3).ok
        assert count[0] == calls, points


def test_set_entry_reaches_the_cached_blocks(r3_curve):
    # the fill and a first verification cache blocks of F[0,3] on the
    # table; after one entry changes, the verifier reports what it
    # reports on a fresh copy, which builds every block anew
    table = compute_omega_table(r3_curve, 3)
    assert verify_higher_pde(table, 3).ok
    assert table._slice[0, 3]
    key = min(table.entries(0, 3))
    table.set_entry(0, 3, key, 2 * table.get(0, 3, key))
    fresh = OmegaTable(r3_curve, table.chi_max)
    fresh.tables = {gn: dict(tab) for gn, tab in table.tables.items()}
    got, want = verify_higher_pde(table, 3), verify_higher_pde(fresh, 3)
    assert not want.ok
    assert (got.entries, got.checked_orders) == \
        (want.entries, want.checked_orders)


def test_fg_cross_engine():
    from trcycles import compute_Fg, validate_local_curve
    curve = validate_local_curve([("1", 2, {3: 1, 5: Fraction(1, 3)})])
    table = compute_omega_table(curve, 4)
    at = compute_airy_tensors(table)
    ttab = tensor_recursion(at)
    f2 = compute_Fg(table, 2)
    assert f2 != 0
    assert compute_Fg(ttab, 2) == f2


def test_engines_and_pde_on_kernel_coupled_curve():
    # a localized global curve with nonzero analytic kernel part: the
    # points couple and the tensors keep their even-index entries (which
    # neither check below needs); both engines and the times-PDE must
    # still agree
    from trcycles import GlobalCurve, RationalFunction, localize_global_curve
    g = GlobalCurve(x=RationalFunction((0, -1, 0, Fraction(1, 3))),
                    y=RationalFunction((0, 1)),
                    declared_ramification=((1, 2), (-1, 2)))
    curve = localize_global_curve(g, 24)
    table = compute_omega_table(curve, 2)
    at = compute_airy_tensors(table)
    ttab = tensor_recursion(at)
    for gn in set(table.tables) | set(ttab.tables):
        assert table.entries(*gn) == ttab.entries(*gn), gn
    # cross-point correlator entries genuinely appear
    assert any(len({lb for lb, _ in key}) > 1
               for key in table.entries(0, 4))
    rep = verify_quadratic_pde(at, 2, 2)
    assert rep.ok, rep.first_nonzero()


def test_residual_report_lists_are_per_instance(airy_tensors):
    failed = verify_quadratic_pde(
        airy_tensors.copy_with_perturbation("D", (("1", 3),), 1), 4, 4)
    assert failed.entries
    fresh = ResidualReport()
    assert fresh.entries == []
    assert fresh.ok and fresh.first_nonzero() is None
    assert fresh.checked_orders == ()
    assert ResidualReport().entries is not fresh.entries


def test_perturbed_copy_leaves_the_tensors_unchanged(airy_tensors):
    before = {name: dict(getattr(airy_tensors, name)) for name in "ABCD"}
    bumped = airy_tensors.copy_with_perturbation("A", L(1, 1, 1), 1)
    assert bumped.A[L(1, 1, 1)] == 3
    assert {name: getattr(airy_tensors, name) for name in "ABCD"} == before
    assert all(getattr(bumped, name) is not getattr(airy_tensors, name)
               for name in "ABCD")
    assert bumped.table is airy_tensors.table
    assert (bumped.B, bumped.C, bumped.D) == \
        (before["B"], before["C"], before["D"])


def _cubic_local(n_max):
    from trcycles import GlobalCurve, RationalFunction, localize_global_curve
    g = GlobalCurve(x=RationalFunction((0, -1, 0, Fraction(1, 3))),
                    y=RationalFunction((0, 1)),
                    declared_ramification=((1, 2), (-1, 2)))
    return localize_global_curve(g, n_max)


@pytest.mark.parametrize("make, chi, calls", [
    (lambda: validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                                   ("-1", 2, {3: 2})]), 5, 200),
    (lambda: _cubic_local(14), 1, 136),
], ids=["two-point-chi5", "cubic-14-chi1"])
def test_airy_kernel_products(monkeypatch, make, chi, calls):
    # one residue per unordered (e, e') for C and one per (e, leg) for B:
    # C[i0, e', e] and the leg-first B residue are twins of these; a slot
    # whose basis form vanishes at the kernel point (on the two-point
    # curve, one of the other point) takes none
    curve = make()
    table = compute_omega_table(curve, chi)
    count = [0]
    contract = OmegaTable.kernel_contract

    def counted(self, *args, **kwargs):
        count[0] += 1
        return contract(self, *args, **kwargs)

    monkeypatch.setattr(OmegaTable, "kernel_contract", counted)
    compute_airy_tensors(table)
    assert count[0] == calls


def test_quadratic_pde_products(monkeypatch, two_point_curve):
    # HPoly x HPoly products: one d/dt'_e' P_e + P_e P_e' per unordered
    # (e, e') and one t'_s P_j per (j, s), shared by every row i0
    table = compute_omega_table(two_point_curve, 5)
    at = compute_airy_tensors(table)
    count = [0]
    mul = HPoly.__mul__

    def counted(self, other):
        count[0] += isinstance(other, HPoly)
        return mul(self, other)

    monkeypatch.setattr(HPoly, "__mul__", counted)
    assert verify_quadratic_pde(at, 4, 4).ok
    assert count[0] == 102
