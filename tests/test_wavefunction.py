from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trcycles import (
    GlobalCurve,
    OmegaTable,
    RationalFunction,
    assemble_logZ,
    compute_omega_table,
    hirota_insertion_check,
    localize_global_curve,
    scale_curve,
    validate_local_curve,
)
from trcycles import recursion
from trcycles.serialize import parse_curve_spec
from trcycles.wavefunction import HPoly, monomial_from_multiset

DATA = Path(__file__).parent / "data"


def test_logz_coefficients(airy_table):
    lz = assemble_logZ(airy_table, 3)

    def coefficient(h, indices):
        return lz[h][monomial_from_multiset(indices)]

    assert coefficient(1, [("1", 3)]) == Fraction(1, 24)
    assert coefficient(1, [("1", 1)] * 3) == Fraction(1, 6)
    assert coefficient(2, [("1", 3), ("1", 3)]) == Fraction(1, 48)
    # all t' = 0: no constant terms at all
    assert all(() not in poly for poly in lz.values())


def test_logz_symmetric_degrees(airy_table):
    lz = assemble_logZ(airy_table, 3)
    for h, poly in lz.items():
        for mon in poly:
            n = sum(m for _, m in mon)
            # the hbar exponent is the level 2g-2+n of the source tensor
            assert (h - n) % 2 == 0


def test_logz_defaults(airy_curve, airy_table):
    # log Z is a bare HPoly: chi_max cuts the levels, and a table with
    # no levels gives the empty polynomial
    lz = assemble_logZ(airy_table, 3)
    assert type(lz) is HPoly and lz.caps == (None, None)
    assert sorted(lz) == [1, 2, 3]
    assert sorted(assemble_logZ(airy_table, 1)) == [1]
    assert assemble_logZ(airy_table, 0) == {}
    assert assemble_logZ(OmegaTable(airy_curve, 3), 3) == {}


def test_logz_homogeneity_transfer(airy_curve, airy_table):
    lam = Fraction(3)
    scaled_table = compute_omega_table(scale_curve(airy_curve, lam), 3)
    lz = assemble_logZ(airy_table, 3)
    lzs = assemble_logZ(scaled_table, 3)
    for h, poly in lz.items():
        for mon, c in poly.items():
            # the scaling exponent 2-2g-n equals -(2g-2+n) = -h
            assert lzs[h][mon] == lam ** (-h) * c


def drop_kernel_class(monkeypatch, order, blocks):
    """Fill without the kernel terms of one order and block count."""
    terms = recursion._kernel_terms
    monkeypatch.setattr(recursion, "_kernel_terms", lambda r: (
        (rot, part, j) for rot, part, j in terms(r)
        if (len(rot), len(part)) != (order, blocks)))


def flip_twin_sign(monkeypatch):
    """Fill with twin[k0] = +rho^(j k0) term[k0] in place of -rho^(j k0)."""
    def folded(field, r, rows):
        out = rows.pop(0, {})
        for j, part in rows.items():
            for key, v in part.items():
                f = field.one() + field.root(r, j * key[0])
                out[key] = out.get(key, field.zero()) + v * f
        return out
    monkeypatch.setattr(recursion, "_fold_twins", folded)


def _with_entry(table, g, n, key, value):
    """A copy of ``table`` with one more entry."""
    out = OmegaTable(table.curve, table.chi_max)
    for (g0, n0), tab in table.tables.items():
        for k, v in tab.items():
            out.set_entry(g0, n0, k, v)
    out.set_entry(g, n, key, value)
    return out


def _cubic_global(n_max):
    text = (DATA / "cubic_global.json").read_text()
    return localize_global_curve(parse_curve_spec(text), n_max)


def test_hirota_checks(airy_table):
    assert hirota_insertion_check(airy_table) == []


def test_hirota_all_slices(airy_table):
    # an even index in any slot of an F[1,2] entry breaks the equation
    for key in airy_table.entries(1, 2):
        for i, (label, k) in enumerate(key):
            bad = tuple(sorted(key[:i] + ((label, k + 1),) + key[i + 1:]))
            table = _with_entry(airy_table, 1, 2, bad, Fraction(1))
            assert hirota_insertion_check(table) == [((1, 2), bad)]


def test_hirota_twin_sign_negative_control(airy_curve, monkeypatch):
    flip_twin_sign(monkeypatch)
    table = compute_omega_table(airy_curve, 3)
    assert hirota_insertion_check(table) == [
        ((1, 2), (("1", 2), ("1", 4))),
        ((1, 3), (("1", 2), ("1", 2), ("1", 5))),
        ((1, 3), (("1", 2), ("1", 3), ("1", 4)))]


def test_hirota_r3(r3_table):
    assert hirota_insertion_check(r3_table) == []


def test_hirota_two_point(two_point_table):
    # every point of a multi-point table is checked at its own order
    assert hirota_insertion_check(two_point_table) == []
    key = (("-1", 2), ("1", 1), ("1", 3))
    table = _with_entry(two_point_table, 0, 3, key, Fraction(1))
    assert hirota_insertion_check(table) == [((0, 3), key)]


def test_hirota_index_divisible_by_r(r3_table):
    key = (("0", 1), ("0", 3), ("0", 4))
    table = _with_entry(r3_table, 0, 3, key, Fraction(1, 2))
    assert hirota_insertion_check(table) == [((0, 3), key)]


@pytest.mark.parametrize("mutate, offending", [
    (lambda mp: drop_kernel_class(mp, 2, 2), 3),
    (lambda mp: drop_kernel_class(mp, 3, 2), 4),
    (lambda mp: drop_kernel_class(mp, 3, 3), 2),
    (lambda mp: drop_kernel_class(mp, 2, 1), 4),
    (flip_twin_sign, 10),
], ids=["two-block-order-2", "two-block-order-3", "three-block-order-3",
        "one-block-order-2", "twin-sign"])
def test_hirota_fails_on_each_fill_mutant(r3_curve, monkeypatch, mutate,
                                          offending):
    # r3 chi3: each dropped term class, and a flipped twin sign, leaves
    # entries with an index divisible by 3
    mutate(monkeypatch)
    table = compute_omega_table(r3_curve, 3)
    assert len(hirota_insertion_check(table)) == offending


@pytest.mark.parametrize("make, chi", [
    (lambda: validate_local_curve([("0", 3, {4: 1})]), 3),
    (lambda: validate_local_curve([("0", 3, {4: 1, 5: Fraction(1, 2)})]), 3),
    (lambda: validate_local_curve(
        [("0", 3, {4: 1, 5: Fraction(1, 2), 6: 3, 7: 2})]), 3),
    (lambda: validate_local_curve(
        [("0", 4, {5: 1, 6: Fraction(1, 2), 7: 1})]), 3),
    (lambda: validate_local_curve([("0", 5, {6: 1, 8: 2})]), 2),
    (lambda: validate_local_curve([("1", 2, {3: 1, 4: Fraction(1, 2),
                                             5: Fraction(1, 3)})]), 4),
    (lambda: validate_local_curve([("a", 2, {3: 1}), ("b", 3, {4: 1})]), 3),
    (lambda: _cubic_global(24), 3),
    # x = z^3/3 + z^4/4, y = z + z^2: one point of order 3, analytic tails
    (lambda: localize_global_curve(GlobalCurve(
        RationalFunction((0, 0, 0, Fraction(1, 3), Fraction(1, 4))),
        RationalFunction((0, 1, 1)), (("0", 3),)), 25), 3),
], ids=["r3", "r3-mixed", "r3-four-times", "r4-three-times", "r5", "even-times",
        "ab23", "cubic-global-24", "order3-global-25"])
def test_hirota_curve_matrix(make, chi):
    assert hirota_insertion_check(compute_omega_table(make(), chi)) == []


_MONOMIALS = [(), ((("a", 1), 1),), ((("a", 1), 2),),
              ((("a", 1), 1), (("b", 3), 1))]
_coeffs = st.fractions(max_denominator=9).filter(bool)


def _hpoly(terms):
    out = HPoly()
    for h, mon, c in terms:
        out = out + HPoly({h: {mon: c}})
    return out


_terms = st.tuples(st.integers(-3, 3), st.sampled_from(_MONOMIALS), _coeffs)
_hpolys = st.lists(_terms, max_size=6).map(_hpoly)


@given(_hpolys, st.integers(-3, 3), _coeffs)
def test_hpoly_division_by_one_term(a, h, c):
    m = HPoly({h: {(): c}})
    assert (a * m) / m == a
    assert (a * c) / c == a


@given(_hpolys)
def test_hpoly_negation(a):
    assert -a == a * -1
    assert a - a == HPoly()


@given(_hpolys, st.lists(_terms, min_size=2, max_size=2,
                         unique_by=lambda t: t[:2]))
def test_hpoly_division_by_two_terms_raises(a, terms):
    with pytest.raises(ArithmeticError):
        a / _hpoly(terms)


@pytest.mark.parametrize("divisor", [HPoly(), HPoly({0: {_MONOMIALS[1]: 1}})])
def test_hpoly_division_by_zero_or_a_time_raises(divisor):
    with pytest.raises(ArithmeticError):
        HPoly({1: {(): Fraction(1, 2)}}) / divisor
