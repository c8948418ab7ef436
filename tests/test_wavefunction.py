from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trcycles import (
    OmegaTable,
    assemble_logZ,
    compute_omega_table,
    hirota_insertion_check,
    scale_curve,
)
from trcycles.errors import UnsupportedError
from trcycles.wavefunction import HPoly, monomial_from_multiset


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


def test_hirota_checks(airy_table):
    for (g, n) in [(0, 2), (0, 3), (1, 1)]:
        rep = hirota_insertion_check(airy_table, g, n)
        assert rep["ok"], (g, n, rep)


def test_hirota_all_slices(airy_table):
    tab = airy_table.entries(1, 2)
    for key in tab:
        rep = hirota_insertion_check(airy_table, 1, 1,
                                     spectators=key[1:])
        assert rep["ok"], key


def test_hirota_weight_negative_control(airy_table):
    rep = hirota_insertion_check(airy_table, 1, 1,
                                 with_dx_weight=False)
    assert not rep["ok"]


def test_hirota_r3(r3_table):
    for (g, n) in [(0, 2), (1, 1)]:
        rep = hirota_insertion_check(r3_table, g, n)
        assert rep["ok"], (g, n, rep)


def test_hirota_needs_single_point(two_point_table):
    with pytest.raises(UnsupportedError):
        hirota_insertion_check(two_point_table, 0, 2)


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
