from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import engine_entry
from unpruned import _block_series, check_every_reading, unpruned_table
from trcycles import (
    OmegaTable,
    compute_Fg,
    compute_omega_table,
    scale_curve,
    validate_local_curve,
    verify_higher_pde,
)
from trcycles import bhat, gamma, localize_global_curve
from trcycles.errors import PrecisionError, UnsupportedError
from trcycles.recursion import _kernel_terms, _set_partitions
from trcycles.scalars import Cyclo
from trcycles.serialize import parse_curve_spec
from trcycles.series import FORM, LaurentSeries


def L(*ks):
    return tuple(("1", k) for k in ks)


def test_airy_against_oracle(airy_table):
    for (g, n), tab in airy_table.tables.items():
        for key, value in tab.items():
            ks = tuple(k for _, k in key)
            assert value == engine_entry(g, ks), (g, n, key)
    # and the oracle agrees on absent entries within the support bound
    for g, n, ks in [(0, 4, (1, 1, 1, 1)), (1, 2, (3, 5)), (2, 1, (3,)),
                     (1, 1, (1,)), (2, 1, (5,))]:
        assert airy_table.get(g, n, L(*ks)) == engine_entry(g, ks)


def test_airy_golden(airy_table):
    assert airy_table.get(0, 3, L(1, 1, 1)) == 1
    assert airy_table.get(1, 1, L(3,)) == Fraction(1, 24)
    assert airy_table.get(1, 2, L(3, 3)) == Fraction(1, 24)
    assert airy_table.get(1, 2, L(1, 5)) == Fraction(1, 8)
    assert airy_table.get(0, 4, L(1, 1, 1, 3)) == 1
    assert airy_table.get(2, 1, L(9,)) == Fraction(35, 384)


def test_parity_and_pole_bound(airy_table):
    for (g, n), tab in airy_table.tables.items():
        for key in tab:
            for _, k in key:
                assert k % 2 == 1
                assert k <= 6 * g - 4 + 2 * n


def test_scaled_airy_homogeneity(airy_curve, airy_table):
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        scaled = compute_omega_table(scale_curve(airy_curve, lam), 3)
        for (g, n), tab in scaled.tables.items():
            for key, value in tab.items():
                assert value == lam ** (2 - 2 * g - n) * \
                    airy_table.get(g, n, key)


def test_two_point_block_structure(two_point_table):
    # purely local multi-point curves have single-point support only
    for (g, n), tab in two_point_table.tables.items():
        for key in tab:
            assert len({lb for lb, _ in key}) == 1


def test_fg(airy_table, two_point_table):
    assert compute_Fg(airy_table, 2) == 0
    f2 = compute_Fg(two_point_table, 2)
    assert f2 != 0
    with pytest.raises(UnsupportedError):
        compute_Fg(airy_table, 1)


def test_r3_seeds(r3_table):
    fld = r3_table.field
    assert r3_table.get(0, 3, (("0", 1), ("0", 1), ("0", 2))) == fld.coerce(1)
    # genus-one one-point value (r-1)/24 for the order-3 canonical curve
    assert r3_table.get(1, 1, (("0", 4),)) == fld.coerce(Fraction(1, 12))
    # no index divisible by the ramification order appears
    for (g, n), tab in r3_table.tables.items():
        for key in tab:
            assert all(k % 3 != 0 for _, k in key)


def test_r3_rationality(r3_table):
    for tab in r3_table.tables.values():
        for value in tab.values():
            assert value.is_rational()


def test_r3_symmetry_check(r3_curve):
    # the fill reads each entry at its smallest index; the unpruned
    # reference reads it at every distinct index
    ab23 = validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})])
    for curve, entries, readings in [(r3_curve, 7, 12), (ab23, 12, 19)]:
        table = compute_omega_table(curve, 2)
        assert sorted(table.tables) == [(0, 3), (0, 4), (1, 1), (1, 2)]
        assert sum(map(len, table.tables.values())) == entries
        assert check_every_reading(table) == readings


def test_k2_apply_omega03(airy_table):
    # the order-2 kernel K2 on two omega02 legs whose spectators are
    # contracted with the k=1 extraction cycles (legs z^0 dz), summed over
    # the two slot assignments: the F[0,3] entry, without reading the table
    column = airy_table.kernel_contract(
        "1", (1,), [airy_table.leg("1", 1, 0), airy_table.leg("1", 1, 1)])
    assert {k0: 2 * v for k0, v in column.items() if v} == {1: 1}
    assert airy_table.entries(0, 3) == {(("1", 1),) * 3: 1}


def test_k2_apply_omega11(airy_table):
    # K2 on the bridge omega02(z, sigma z): the F[1,1] entry
    column = airy_table.kernel_contract("1", (1,),
                                        [airy_table.bridge("1", 0, 1)])
    assert {k0: v for k0, v in column.items() if v} == {3: Fraction(1, 24)}
    assert airy_table.entries(1, 1) == {(("1", 3),): Fraction(1, 24)}


def test_zero_residue_of_one_point_tables(airy_table, r3_table,
                                          two_point_curve):
    # the one-slot block of F[g,1] is sum_e F[g,1][e] bhat(Gamma_e) at
    # each point: on a purely local curve the block skips the forms of
    # the other points, which vanish there; on the global cubic their
    # analytic tails are kept
    tables = [airy_table, r3_table, compute_omega_table(two_point_curve, 5),
              compute_omega_table(_cubic_global(14), 3)]
    for table in tables:
        curve = table.curve
        for (g, n) in table.tables:
            if n != 1:
                continue
            for label in curve.labels:
                want = LaurentSeries.zero(curve.field, weight=FORM,
                                          hi=curve.tail_hi())
                for (e,), f in table.entries(g, 1).items():
                    want = want + bhat(gamma(curve, *e), curve).at(
                        label).scale(f)
                have = table.table_block(label, g, 1, (0,)).get(())
                if have is None:
                    assert want.is_zero(), (g, label)
                else:
                    assert (have.coeffs, have.hi) == (want.coeffs, want.hi)
                    assert have.residue() == 0


@pytest.mark.parametrize("r, chi, kmax", [
    pytest.param(4, 2, 11, id="4-2"),
    pytest.param(5, 1, 8, id="5-1"),
])
def test_charge_selection_rule_matches_unfiltered(r, chi, kmax):
    # the r-spin degree condition is never imposed, only reproduced
    curve = validate_local_curve([("0", r, {r + 1: 1})])
    filtered = compute_omega_table(curve, chi).tables
    assert unpruned_table(curve, chi, kmax).tables == filtered


@pytest.mark.parametrize("r, support", [
    (4, [(1, 1, 3), (1, 2, 2)]),
    (5, [(1, 1, 4), (1, 2, 3), (2, 2, 2)]),
])
def test_rspin_three_point_primaries(r, support):
    # r-spin oracle: <e_a e_b e_c>_0 = 1 exactly when a + b + c = r - 2,
    # with a = k - 1 for the index k
    curve = validate_local_curve([("0", r, {r + 1: 1})])
    f03 = compute_omega_table(curve, 1).entries(0, 3)
    assert f03 == {tuple(("0", k) for k in ks): 1 for ks in support}


@pytest.mark.parametrize("r, keys", [(3, 5), (4, 15), (5, 35)])
def test_rspin_four_point_primaries_and_genus_one(r, keys):
    # r-spin oracle at chi 2, from the r-spin theory alone: with a = k - 1,
    # -F[0,4] over the primaries (k <= r - 1) is r times the genus-0
    # four-point number (1/r) min_i min(a_i, r-1-a_i) where
    # sum a_i = 2r - 2, and 0 elsewhere (Jarvis-Kimura-Vaintrob,
    # arXiv:math/9905034); F[1,1] at the leading time is (r-1)/24
    curve = validate_local_curve([("0", r, {r + 1: 1})])
    table = compute_omega_table(curve, 2)
    fld = table.field
    primaries = list(combinations_with_replacement(range(r - 1), 4))
    assert len(primaries) == keys
    for a in primaries:
        want = -min(min(ai, r - 1 - ai) for ai in a) \
            if sum(a) == 2 * r - 2 else 0
        key = tuple(("0", ai + 1) for ai in a)
        assert table.get(0, 4, key) == fld.coerce(want), key
    assert table.get(1, 1, (("0", r + 1),)) == \
        fld.coerce(Fraction(r - 1, 24))


def _cubic_global(n_max):
    text = (Path(__file__).parent / "data" / "cubic_global.json").read_text()
    return localize_global_curve(parse_curve_spec(text), n_max)


def test_term_driven_fill_matches_unpruned():
    # the term-driven fill against every key up to kmax, every split
    cases = [
        (validate_local_curve([("0", 3, {4: 1})]), 3, 12),
        (validate_local_curve([("0", 4, {5: 1})]), 2, 11),
        (validate_local_curve([("0", 3, {4: 1, 5: 2})]), 2, 9),
        (validate_local_curve([("1", 2, {3: 1})]), 3, 11),
        (validate_local_curve([("0", 5, {6: 1})]), 1, 8),
        (validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 2, 9),
        (validate_local_curve([("1", 2, {3: 1, 4: Fraction(1, 2),
                                          5: Fraction(1, 3)})]), 3, 11),
        (_cubic_global(12), 2, 7),
    ]
    for curve, chi, kmax in cases:
        assert unpruned_table(curve, chi, kmax).tables == \
            compute_omega_table(curve, chi).tables


def test_twin_pairing_matches_unpruned():
    # the reference forms both twins of every order-2 pair; the fill forms
    # one and scales it, over Q(rho_5) and over non-rational times alike
    rho3 = Cyclo.root_power(3, 1)
    for points, chi, kmax in [
            ([("0", 5, {6: 1, 7: Fraction(1, 2)})], 1, 8),
            ([("0", 3, {4: rho3, 5: Fraction(1, 2)})], 2, 9)]:
        curve = validate_local_curve(points)
        assert unpruned_table(curve, chi, kmax).tables == \
            compute_omega_table(curve, chi).tables


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kernel_terms_name_each_twin(r):
    # each order-2 rotation j <= r/2 is listed once per partition of the
    # two slots, none above; the twin index is j while 2j < r, else 0
    terms = list(_kernel_terms(r))
    order2 = sorted((rot[1], part) for rot, part, _ in terms if len(rot) == 2)
    assert order2 == sorted((j, part) for j in range(1, r // 2 + 1)
                            for part in _set_partitions([0, 1]))
    for rot, _, twin in terms:
        j = rot[1]
        assert twin == (j if len(rot) == 2 and 2 * j < r else 0)


def test_unpruned_reference_refuses_to_clip(airy_curve):
    # F[1,3] reaches index 7, and F[2,1] needs 9, beyond kmax 8
    with pytest.raises(AssertionError, match="reaches kmax"):
        unpruned_table(airy_curve, 3, 8)


@pytest.mark.parametrize("chi, boundary", [(1, 5), (2, 7), (3, 11)])
def test_precision_boundary_of_global_cubic(chi, boundary):
    with pytest.raises(PrecisionError):
        compute_omega_table(_cubic_global(boundary - 1), chi)
    assert compute_omega_table(_cubic_global(boundary), chi).tables


@pytest.mark.parametrize("points, chi, calls", [
    ([("0", 3, {4: 1})], 3, 196),
    ([("0", 4, {5: 1})], 2, 184),
    ([("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})], 5, 330),
], ids=["r3-chi3", "r4-chi2", "two-point-chi5"])
def test_kernel_products_per_table(monkeypatch, points, chi, calls):
    # one kernel product per term whose supports reach the column, and
    # none of them comes out all zero; one product stands for both twins
    # of an order-2 pair
    count = [0]
    contract = OmegaTable.kernel_contract

    def counted(self, *args, **kwargs):
        count[0] += 1
        column = contract(self, *args, **kwargs)
        assert any(column.values()), (args, kwargs)
        return column

    monkeypatch.setattr(OmegaTable, "kernel_contract", counted)
    compute_omega_table(validate_local_curve(points), chi)
    assert count[0] == calls


def test_table_block_matches_arrangement_sum(monkeypatch):
    # every block the fill and the higher verifier request equals, for
    # every spectator multiset, the sum over the entries and over every
    # distinct ordering of their slot labels of one product of rotated
    # basis forms, in coefficients and in truncation
    requested = {}
    block = OmegaTable.table_block

    def recorded(self, label, gb, mb, rotations):
        got = block(self, label, gb, mb, rotations)
        requested[id(self), label, gb, mb, tuple(sorted(rotations))] = \
            (self, got)
        return got

    monkeypatch.setattr(OmegaTable, "table_block", recorded)
    cases = [
        (validate_local_curve([("0", 3, {4: 1})]), 4),
        (validate_local_curve([("0", 4, {5: 1})]), 3),
        (validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 3),
        (validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                               ("-1", 2, {3: 2})]), 5),
        (_cubic_global(12), 2),
    ]
    for curve, chi in cases:
        requested.clear()
        table = compute_omega_table(curve, chi)
        if curve.is_purely_local:
            verify_higher_pde(table, 3)
        reference = OmegaTable(curve)
        for (_, label, gb, mb, rots), (tab, got) in requested.items():
            specs = {spec for key in tab.entries(gb, mb)
                     for spec in combinations(key, mb - len(rots))}
            assert set(got) <= specs
            for spec in specs:
                want = _block_series(reference, tab, label, gb, mb, rots,
                                     spec)
                have = got.get(spec)
                if have is None:
                    assert want.is_zero(), (label, gb, mb, rots, spec)
                else:
                    assert (have.coeffs, have.hi, have.weight) == \
                        (want.coeffs, want.hi, want.weight), \
                        (label, gb, mb, rots, spec)

    # and the reference never leans on the blocks it checks
    def refused(self, *args):
        raise AssertionError("the reference called table_block")

    r3 = validate_local_curve([("0", 3, {4: 1})])
    filled = compute_omega_table(r3, 3).tables
    monkeypatch.setattr(OmegaTable, "table_block", refused)
    assert unpruned_table(r3, 3, 12).tables == filled


@pytest.mark.parametrize("points, chi, verify, products", [
    ([("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})], 5, False,
     132),
    ([("0", 3, {4: 1})], 4, False, 128),
    ([("0", 4, {5: 1})], 2, True, 60),
    ([("1", 2, {3: 2, 5: Fraction(1, 3)}), ("-1", 2, {3: 2})], 5, True, 0),
], ids=["two-point-chi5-fill", "r3-chi4-fill", "r4-chi2-verify-hbar3",
        "two-point-chi5-verify-hbar3"])
def test_block_products_per_table(monkeypatch, points, chi, verify,
                                  products):
    # series products formed inside table_block: one per distinct slot
    # index of each partial beyond the first slot (the sum over every
    # ordering of the slot labels formed 200, 193 and 222 on the first
    # three); on r3 the blocks at rotation 2 would serve only order-2
    # twins, which are not formed.  The verifier runs on the fill's table
    # and its caches, so it builds only the blocks the fill did not: on r4
    # 60 products (72 on a fresh copy of the table), on two-point none.
    # It requests only the levels within its hbar cap (the disc-free
    # (0,4) block over four rotations, at hbar^2 above the cap 1, cost 55)
    curve = validate_local_curve(points)
    table = compute_omega_table(curve, chi) if verify else None
    inside = [0]
    count = [0]
    block = OmegaTable.table_block
    mul = LaurentSeries.mul

    def counted_block(self, *args):
        inside[0] += 1
        try:
            return block(self, *args)
        finally:
            inside[0] -= 1

    def counted_mul(self, *args):
        count[0] += bool(inside[0])
        return mul(self, *args)

    monkeypatch.setattr(OmegaTable, "table_block", counted_block)
    monkeypatch.setattr(LaurentSeries, "mul", counted_mul)
    monkeypatch.setattr(LaurentSeries, "__mul__", counted_mul)
    if verify:
        verify_higher_pde(table, 3)
    else:
        compute_omega_table(curve, chi)
    assert count[0] == products


@pytest.mark.parametrize("make, chi", [
    (lambda: validate_local_curve([("0", 3, {4: 1})]), 4),
    (lambda: validate_local_curve([("0", 4, {5: 1})]), 3),
    (lambda: validate_local_curve([("0", 5, {6: 1})]), 2),
    (lambda: validate_local_curve([("0", 3, {4: 1, 5: 2})]), 3),
    (lambda: validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 3),
    (lambda: validate_local_curve([("1", 2, {3: 1, 4: Fraction(1, 2),
                                             5: Fraction(1, 3)})]), 4),
    (lambda: validate_local_curve([("1", 2, {3: 2, 5: Fraction(1, 3)}),
                                   ("-1", 2, {3: 2})]), 5),
    (lambda: validate_local_curve([("a", 2, {3: 1}), ("b", 4, {5: 1})]), 2),
    (lambda: _cubic_global(12), 2),
], ids=["r3-chi4", "r4-chi3", "r5-chi2", "r3-mixed-chi3", "ab23-chi3",
        "parity-broken-chi4", "two-point-chi5", "ab24-chi2", "cubic-12-chi2"])
def test_class_guard_matches_unguarded(monkeypatch, make, chi):
    # the support guard only skips products that come out zero
    curve = make()
    guarded = compute_omega_table(curve, chi).tables
    monkeypatch.setattr(OmegaTable, "reaches",
                        lambda self, *args, **kwargs: True)
    assert compute_omega_table(curve, chi).tables == guarded


@lru_cache(maxsize=None)
def _guard_curve(r, mixed):
    times = {r + 1: 1, r + 2: Fraction(1, 2)} if mixed else {r + 1: 1}
    return validate_local_curve([("0", r, times)])


@st.composite
def _guard_case(draw):
    r = draw(st.integers(2, 5))
    curve = _guard_curve(r, draw(st.booleans()))
    fld = curve.field
    k = draw(st.integers(2, r))
    js = tuple(sorted(draw(st.sets(st.integers(1, r - 1),
                                   min_size=k - 1, max_size=k - 1))))
    nfac = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=nfac - 1,
                                max_size=nfac - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [k])]
    factors = []
    for w in weights:
        terms = draw(st.dictionaries(
            st.integers(-7, 3),
            st.tuples(st.integers(-3, 3).filter(bool),
                      st.integers(0, r - 1)),
            min_size=1, max_size=3))
        # a truncated factor is unknown above its ceiling hi
        hi = draw(st.none() | st.integers(max(terms), 4))
        factors.append(LaurentSeries(
            fld, {e: fld.root(r, j) * c for e, (c, j) in terms.items()},
            hi=hi, weight=w))
    k0_max = draw(st.none() | st.integers(1, 8))
    return curve, js, factors, k0_max


@settings(max_examples=60, deadline=None)
@given(_guard_case())
def test_class_guard_rejects_only_zero_columns(case):
    # a rejected term's column is all zero, and reading it raises no
    # PrecisionError: the guard never hides a truncated factor
    curve, js, factors, k0_max = case
    table = OmegaTable(curve)
    accepted = table.reaches("0", js, factors, k0_max)
    if not accepted:
        column = table.kernel_contract("0", js, factors, k0_max)
        assert not any(column.values())
    # uncapped, the column starts at the product's lowest exponent, whose
    # bit is always set: only a capped call is ever rejected
    if k0_max is None and table._column("0", js, factors, None)[0] >= 1:
        assert accepted


@st.composite
def _twin_case(draw):
    r = draw(st.integers(2, 5))
    curve = _guard_curve(r, draw(st.booleans()))
    fld = curve.field
    j = draw(st.integers(1, r - 1))

    def form(weight):
        terms = draw(st.dictionaries(
            st.integers(-7, 3),
            st.tuples(st.integers(-3, 3).filter(bool),
                      st.integers(0, r - 1)),
            min_size=1, max_size=3))
        # a truncated factor is unknown above its ceiling hi
        hi = draw(st.none() | st.integers(max(terms), 4))
        return LaurentSeries(
            fld, {e: fld.root(r, i) * c for e, (c, i) in terms.items()},
            hi=hi, weight=weight)

    if draw(st.booleans()):
        # two blocks: A on slot 0 and B on slot 1, then swapped
        a, b = form(1), form(1)
        term, twin = [a, b.rotate(r, j)], [b, a.rotate(r, r - j)]
    else:
        # one block S(z1, z2) read at (z, rho^j z); at (z, rho^-j z) it is
        # the same 2-form pulled back by z -> rho^-j z
        s = form(2)
        term, twin = [s], [s.rotate(r, r - j)]
    k0_max = draw(st.none() | st.integers(1, 8))
    return curve, r, j, term, twin, k0_max


@settings(max_examples=80, deadline=None)
@given(_twin_case())
def test_twin_relation(case):
    # twin[k0] = -rho^(j k0) term[k0], and a truncated factor fails both
    # residues or neither
    curve, r, j, term, twin, k0_max = case
    table = OmegaTable(curve)
    columns = []
    for js, factors in (((j,), term), ((r - j,), twin)):
        try:
            columns.append(table.kernel_contract("0", js, factors, k0_max))
        except PrecisionError:
            columns.append(None)
    got, want = columns
    assert (got is None) == (want is None)
    if got is not None:
        assert want == {k0: -curve.field.root(r, j * k0) * v
                        for k0, v in got.items()}
