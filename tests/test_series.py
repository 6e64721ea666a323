from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecies.series import (POLY_T, RATIONAL, PowerSeries, TPoly,
                             aut_type_product, binomial_inverse_power,
                             euler_product, geometric)

ORDER = 6

fractions = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=8),
)
rational_series = st.lists(fractions, min_size=ORDER + 1, max_size=ORDER + 1).map(
    lambda cs: PowerSeries.from_coeffs(RATIONAL, ORDER, cs)
)


# ---------------------------------------------------------------- TPoly

def test_tpoly_arithmetic_keeps_exact_coefficients():
    # arithmetic builds results from Fractions directly; outside values are coerced
    t = TPoly.t()
    p = TPoly({0: 2, 1: Fraction(1, 2)})
    assert all(type(c) is Fraction for c in p.coeffs.values())
    for q in (p + t, p * p, -p, p / 3, p - p, p * 0):
        assert all(type(c) is Fraction and c for c in q.coeffs.values())
    assert (p * p).coeffs == {0: 4, 1: 2, 2: Fraction(1, 4)}
    assert (p + (-t) / 2).coeffs == {0: 2}

def test_tpoly_arithmetic():
    t = TPoly.t()
    p = (t + 1) * (t + 1)
    assert p == t * t + 2 * t + 1
    assert p.subs_t(Fraction(1, 2)) == Fraction(9, 4)
    assert (p - p) == 0
    assert str(t * t / 2 + 1) == "1/2*t^2+1"
    assert str(TPoly.const(0)) == "0"


def test_tpoly_division():
    t = TPoly.t()
    assert (3 * t) / 2 == t * Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        t / 0


@given(st.lists(fractions, min_size=3, max_size=3),
       st.lists(fractions, min_size=3, max_size=3))
def test_tpoly_mul_commutes(a, b):
    pa = TPoly(dict(enumerate(a)))
    pb = TPoly(dict(enumerate(b)))
    assert pa * pb == pb * pa
    assert pa + pb == pb + pa


# ---------------------------------------------------------------- PowerSeries ring axioms

@pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_power_makes_only_the_needed_products(monkeypatch, e, products):
    s = PowerSeries.from_coeffs(RATIONAL, ORDER, [1, 2, Fraction(1, 3)])
    expected = PowerSeries.one(RATIONAL, ORDER)
    for _ in range(e):
        expected = expected * s
    count = [0]
    mul = PowerSeries.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(PowerSeries, "__mul__", counted)
    assert s**e == expected
    assert count[0] == products


def test_negative_power_is_a_power_of_the_inverse():
    s = PowerSeries.from_coeffs(RATIONAL, ORDER, [1, 2, Fraction(1, 3)])
    assert s**-2 == s.inverse() * s.inverse()
    assert s**-1 * s == PowerSeries.one(RATIONAL, ORDER)


@given(rational_series, rational_series, rational_series)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rational_series)
@settings(max_examples=40, deadline=None)
def test_identities(a):
    one = PowerSeries.one(RATIONAL, ORDER)
    zero = PowerSeries.zero(RATIONAL, ORDER)
    assert a * one == a
    assert a + zero == a
    assert a - a == zero


@given(rational_series)
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(a):
    coeffs = [Fraction(1)] + list(a.coeffs[1:])
    u = PowerSeries.from_coeffs(RATIONAL, ORDER, coeffs)
    assert u * u.inverse() == PowerSeries.one(RATIONAL, ORDER)


@given(rational_series)
@settings(max_examples=40, deadline=None)
def test_exp_log_roundtrip(a):
    coeffs = [Fraction(0)] + list(a.coeffs[1:])
    f = PowerSeries.from_coeffs(RATIONAL, ORDER, coeffs)
    assert f.exp().log() == f
    u = PowerSeries.one(RATIONAL, ORDER) + f
    assert u.log().exp() == u


@given(rational_series, rational_series)
@settings(max_examples=40, deadline=None)
def test_exp_is_homomorphism(a, b):
    f = PowerSeries.from_coeffs(RATIONAL, ORDER, [Fraction(0)] + list(a.coeffs[1:]))
    g = PowerSeries.from_coeffs(RATIONAL, ORDER, [Fraction(0)] + list(b.coeffs[1:]))
    assert (f + g).exp() == f.exp() * g.exp()


def test_exp_of_x():
    x = PowerSeries.from_coeffs(RATIONAL, 5, [0, 1, 0, 0, 0, 0])
    assert x.exp().coeffs == tuple(Fraction(1, factorial(n)) for n in range(6))
    with pytest.raises(ValueError):
        PowerSeries.one(RATIONAL, 3).exp()
    with pytest.raises(ValueError):
        PowerSeries.zero(RATIONAL, 3).log()


def test_geometric_and_binomial():
    g = geometric(RATIONAL, 4)
    assert g.coeffs == (1, 1, 1, 1, 1)
    assert g * (PowerSeries.one(RATIONAL, 4) - PowerSeries.from_coeffs(
        RATIONAL, 4, [0, 1, 0, 0, 0])) == PowerSeries.one(RATIONAL, 4)
    # 1/(1-x^2)^2 = 1 + 2x^2 + 3x^4 + ...
    assert binomial_inverse_power(RATIONAL, 5, 2, 2).coeffs == (1, 0, 2, 0, 3, 0)


def test_adams():
    f = PowerSeries.from_coeffs(RATIONAL, 4, [1, 2, 3, 0, 0])
    assert f.adams(2).coeffs == (1, 0, 2, 0, 3)


def test_euler_product_partition_numbers():
    # prod 1/(1-x^n) generates partition numbers
    exps = {n: 1 for n in range(1, 9)}
    assert euler_product(exps, 8).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_aut_type_product_values():
    assert aut_type_product(2, 3).coeffs == (1, 1, 3, 6)
    assert aut_type_product(3, 2).coeffs == (1, 2, 8)


def test_weighted_series_and_subs_t():
    t = TPoly.t()
    f = PowerSeries.from_coeffs(POLY_T, 1, [TPoly.const(1), t + 1])
    g = f.subs_t(1)
    assert g.ring == RATIONAL and g.coeffs == (1, 2)


def test_order_mismatch_rejected():
    a = PowerSeries.one(RATIONAL, 3)
    b = PowerSeries.one(RATIONAL, 4)
    with pytest.raises(ValueError):
        a + b


def test_to_json():
    f = PowerSeries.from_coeffs(RATIONAL, 2, [1, Fraction(2, 3), 0])
    assert f.to_json() == [
        {"n": 0, "coeff": "1"},
        {"n": 1, "coeff": "2/3"},
        {"n": 2, "coeff": "0"},
    ]
