from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trcycles.errors import PrecisionError, ResidueObstructionError
from trcycles.scalars import ScalarField
from trcycles.series import FORM, LaurentSeries, series_mul

F = ScalarField(1)
F3 = ScalarField(3)


def mono(e, c=1, weight=0, hi=None):
    return LaurentSeries(F, {e: c}, weight=weight, hi=hi)


def test_monomial_product_and_window():
    assert (mono(-1) * mono(1)).coeff(0) == 1
    p = LaurentSeries(F, {0: 1, 1: 1}, hi=1)
    q = LaurentSeries(F, {0: 1, 1: -1}, hi=1)
    pq = series_mul(p, q)
    assert pq.coeff(0) == 1 and pq.coeff(1) == 0 and pq.hi == 1
    with pytest.raises(PrecisionError):
        pq.coeff(2)


def test_tag_propagation():
    w = mono(-2, weight=FORM)
    f = mono(4)
    out = series_mul(w, f)
    assert out.weight == FORM and out.coeff(2) == 1
    with pytest.raises(ValueError):
        series_mul(w, w)


def test_residues():
    assert mono(-1, weight=FORM).residue() == 1
    assert mono(2, weight=FORM).residue() == 0
    tri = LaurentSeries(F, {-1: 3, -2: 5}, weight=FORM)
    assert tri.residue() == 3


def test_primitive():
    assert mono(2, weight=FORM).primitive().coeff(3) == Fraction(1, 3)
    assert mono(0, weight=FORM).primitive().coeff(1) == 1
    with pytest.raises(ResidueObstructionError):
        mono(-1, weight=FORM).primitive()


def test_rotate():
    assert mono(2, weight=FORM).rotate(2, 1).coeff(2) == -1
    w3 = LaurentSeries(F3, {3: 1}, weight=FORM)
    assert w3.rotate(3, 1).coeff(3) == F3.root(3, 1)
    assert w3.rotate(3, 0) == w3


def test_rotate_residue_invariance():
    w = LaurentSeries(F3, {-1: Fraction(5, 7), -4: 2, 2: 3}, weight=FORM)
    for j in range(3):
        assert w.rotate(3, j).residue() == w.residue()


def test_inverse_and_roots():
    g = LaurentSeries(F, {2: 2, 3: 2, 5: Fraction(1, 7)})
    gi = g.inverse(6)
    prod = g * gi
    assert prod.coeff(0) == 1
    assert all(prod.coeff(k) == 0 for k in range(1, 8))
    s = LaurentSeries(F, {0: 1, 1: Fraction(1, 3), 2: 4}, hi=9)
    r = s.nth_root(3, 9)
    assert ((r * r * r) - s).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("field", [F, F3], ids=["Q", "Q(rho_3)"])
def test_nth_root_power_is_the_series_to_its_window(field, n):
    rho = field.root(3, 1) if field is F3 else Fraction(3, 4)
    a = LaurentSeries(field, {0: 1, 1: Fraction(-2, 3), 2: rho,
                              3: rho * rho + Fraction(1, 5), 6: 7}, hi=11)
    b = a.nth_root(n, 20)
    assert b.lo == 0 and b.hi == 11
    power = LaurentSeries(field, {0: 1})
    for _ in range(n):
        power = power.mul(b, b.hi)
    assert (power - a).is_zero() and power.hi == a.hi


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("field", [F, F3], ids=["Q", "Q(rho_3)"])
def test_negative_nth_root_is_the_inverse_root(field, n):
    rho = field.root(3, 1) if field is F3 else Fraction(3, 4)
    a = LaurentSeries(field, {0: 1, 1: Fraction(-2, 3), 2: rho, 6: 7}, hi=11)
    b = a.nth_root(-n, 20)
    assert b.hi == 11 and b.coeffs == a.nth_root(n, 20).inverse(11).coeffs


def test_nth_root_needs_constant_term_one():
    for bad in ({0: 2, 1: 1}, {-1: 1, 0: 1}, {1: 1}):
        with pytest.raises(ValueError):
            LaurentSeries(F, bad).nth_root(2, 5)


def test_primitive_derivative_roundtrip():
    w = LaurentSeries(F, {-3: 2, 0: 5, 4: Fraction(7, 3)}, weight=FORM)
    assert w.primitive().derivative() == w


small_series = st.builds(
    lambda d: LaurentSeries(F, {e: Fraction(c, 3) for e, c in d.items()}),
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_product_associative_commutative(a, b, c):
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_rotation_is_residue_preserving(s):
    w = LaurentSeries(F, s.coeffs, weight=FORM)
    assert w.rotate(2, 1).residue() == w.residue()
