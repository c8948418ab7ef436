from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CYCLOTOMIC, cyclo_mul
from trcycles.scalars import Cyclo, ScalarField, cyclotomic_polynomial


def test_cyclotomic_polynomials():
    x = lambda *cs: tuple(Fraction(c) for c in cs)
    assert cyclotomic_polynomial(1) == x(-1, 1)
    assert cyclotomic_polynomial(2) == x(1, 1)
    assert cyclotomic_polynomial(3) == x(1, 1, 1)
    assert cyclotomic_polynomial(4) == x(1, 0, 1)
    assert cyclotomic_polynomial(6) == x(1, -1, 1)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    for n in range(1, 41):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                assert all(type(c) is int for c in phi) and phi[-1] == 1
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (n - 1) + [1], n


@pytest.mark.parametrize("r", range(1, 7))
def test_root_of_unity_identities(r):
    fld = ScalarField(r)
    rho = fld.root(r, 1)
    power = fld.one()
    for _ in range(r):
        power = power * rho
    assert power == fld.one()
    for k in range(2 * r):
        total = fld.zero()
        for j in range(r):
            total = total + fld.root(r, j * k)
        assert total == (r if k % r == 0 else 0)


def test_field_arithmetic():
    fld = ScalarField(5)
    a = Cyclo(5, [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(2)])
    assert a * a.inverse() == 1
    assert (a + 1) - 1 == a
    assert (3 * a) / 3 == a
    assert a - a == 0
    assert not (a - a)


def test_rational_fast_paths():
    half = Cyclo.rational(3, Fraction(1, 2))
    rho = Cyclo.root_power(3, 1)
    assert (half * rho) == (rho * half)
    assert half.is_rational() and half.as_fraction() == Fraction(1, 2)
    assert not rho.is_rational()
    with pytest.raises(ValueError):
        rho.as_fraction()


def test_field_extension_guard():
    from trcycles.errors import FieldExtensionError
    fld = ScalarField(1)
    assert fld.root(2, 1) == -1
    with pytest.raises(FieldExtensionError):
        fld.root(3, 1)
    fld4 = ScalarField(4)
    with pytest.raises(FieldExtensionError):
        fld4.root(3, 1)


_ORDERS = sorted(CYCLOTOMIC)


@st.composite
def _cyclos(draw, n, count):
    deg = len(CYCLOTOMIC[n]) - 1
    coeff = st.fractions(min_value=-30, max_value=30, max_denominator=20)
    return [draw(st.lists(coeff, min_size=deg, max_size=deg))
            for _ in range(count)]


@st.composite
def _cyclo_case(draw):
    n = draw(st.sampled_from(_ORDERS))
    return n, draw(_cyclos(n, 3))


def _canonical(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1


@settings(max_examples=80, deadline=None)
@given(_cyclo_case())
def test_cyclo_ring_axioms(case):
    n, (a, b, c) = case
    x, y, z = (Cyclo(n, v) for v in (a, b, c))
    assert list((x * y).coeffs) == cyclo_mul(n, a, b)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert Cyclo(n, x.coeffs) == x
    for value in (x, x * y, x + y, x - y, -x, x * Fraction(3, 7)):
        assert _canonical(value)
    # equal values built by different routes compare and hash equal
    built = Cyclo(n, cyclo_mul(n, a, b))
    assert built == x * y and hash(built) == hash(x * y)
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)
    if x:
        assert x * x.inverse() == 1
        assert _canonical(x.inverse())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ORDERS),
       st.fractions(min_value=-50, max_value=50, max_denominator=30))
def test_cyclo_rational_hash(n, q):
    x = Cyclo.rational(n, q)
    assert hash(x) == hash(q) and x == q and x.as_fraction() == q
    assert x == Cyclo(n, [q]) and hash(x) == hash(Cyclo(n, [q]))
    assert _canonical(x) and x.is_rational()


def test_coerce_keeps_fractions():
    q = Fraction(-7, 12)
    assert ScalarField(2).coerce(q) is q
    assert ScalarField(1).coerce(3) == 3
    assert type(ScalarField(1).coerce(3)) is Fraction
    assert ScalarField(1).coerce(Cyclo.rational(3, q)) == q


# fields of mixed-order curves (lcm of the orders), outside the oracle set
_MIXED_ORDERS = (12, 15, 20, 30)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cyclo_inverse_outside_oracle_orders(data):
    n = data.draw(st.sampled_from(_MIXED_ORDERS))
    deg = len(cyclotomic_polynomial(n)) - 1
    coeff = st.fractions(min_value=-30, max_value=30, max_denominator=20)
    x = Cyclo(n, data.draw(st.lists(coeff, min_size=deg, max_size=deg)))
    if x:
        inv = x.inverse()
        assert x * inv == 1 and _canonical(inv)
