import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecies.cycleindex import z_one
from qspecies.field import field_make
from qspecies.linalg import Matrix
from qspecies.poly import Poly
from qspecies.series import (POLY_T, RATIONAL, PowerSeries, TPoly, _dot,
                             aut_type_product, binomial_inverse_power,
                             euler_product, ring_one, ring_zero)
from qspecies.species import Builtin, cycle_index

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
    for q in (p + t, p * p, p / 3, p * 0):
        assert all(type(c) is Fraction and c for c in q.coeffs.values())
    assert (p * p).coeffs == {0: 4, 1: 2, 2: Fraction(1, 4)}
    assert (p + t / -2).coeffs == {0: 2}

def test_tpoly_arithmetic():
    t = TPoly.t()
    p = (t + 1) * (t + 1)
    assert p == t * t + 2 * t + 1
    assert p.subs_t(Fraction(1, 2)) == Fraction(9, 4)
    assert p * 0 == 0
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


# ---------------------------------------------------------------- powers

def powered():
    """(x, x ** 0) for each type that has ``**``."""
    F3 = field_make(3, 1)
    return [
        (Matrix.make(F3, [(1, 2), (0, 1)]), Matrix.identity(F3, 2)),
        (Poly.make(F3, [1, 2, 1]), Poly.make(F3, [1])),
        (PowerSeries.from_coeffs(RATIONAL, ORDER, [1, 2, Fraction(1, 3)]),
         PowerSeries.one(RATIONAL, ORDER)),
        (cycle_index(Builtin("Elem"), F3, 3), z_one(F3, 3)),
    ]


@pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_power_makes_only_the_needed_products(monkeypatch, e, products):
    for x, one in powered():
        cls, expected = type(x), one
        for _ in range(e):
            expected = expected * x
        count = [0]
        mul = cls.__mul__

        def counted(a, b):
            count[0] += 1
            return mul(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "__mul__", counted)
            assert x**e == expected, cls
        assert count[0] == products, cls


@pytest.mark.parametrize("x", [x for x, _one in powered()],
                         ids=lambda x: type(x).__name__)
def test_negative_power_is_rejected(x):
    with pytest.raises(ValueError, match="negative exponent"):
        x**-1


# ---------------------------------------------------------------- PowerSeries ring axioms

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


def test_binomial_inverse_power():
    # 1/(1-x^2)^2 = 1 + 2x^2 + 3x^4 + ...
    assert binomial_inverse_power(5, 2, 2).coeffs == (1, 0, 2, 0, 3, 0)
    assert binomial_inverse_power(4, 3, 0).coeffs == (1, 0, 0, 0, 0)


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


# ---------------------------------------------------------------- kernels against the loops they replaced
#
# The kernels sum each coefficient with one ``_dot``; these are the per-term
# loops they replaced, one Fraction product and one sum per term.

def loop_dot(pairs):
    s = Fraction(0)
    for a, b in pairs:
        s = s + a * b
    return s


def loop_tpoly_mul(p, q):
    q = TPoly._coerce(q)
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return TPoly._of(out)


def loop_mul(a, b):
    n = a.order
    out = [ring_zero(a.ring)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(0, n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] = out[i + j] + x * y
    return PowerSeries(a.ring, n, out)


def loop_exp(a):
    n = a.order
    out = [ring_one(a.ring)] + [ring_zero(a.ring)] * n
    for m in range(1, n + 1):
        s = ring_zero(a.ring)
        for k in range(1, m + 1):
            if a.coeffs[k]:
                s = s + (a.coeffs[k] * k) * out[m - k]
        out[m] = s / m
    return PowerSeries(a.ring, n, out)


def drawn_rational(rng, big=False):
    """Zero a quarter of the time, else a signed rational, an int now and then,
    and with big, a denominator among the orders of GL_n(F_2)."""
    if rng.random() < 0.25:
        return rng.choice([0, Fraction(0)])
    num = rng.randint(-30, 30)
    if rng.random() < 0.2:
        return num
    den = rng.choice([1, 2, 3, 6, 7, 168, 20160, 9999360]) if big else rng.randint(1, 12)
    return Fraction(num, den)


def drawn_tpoly(rng):
    return TPoly({e: drawn_rational(rng) for e in range(rng.randint(0, 3))})


def drawn_series(rng, ring, order, constant):
    return PowerSeries(ring, order,
                       [constant] + [drawn_rational(rng, big=True) for _ in range(order)])


def same_fractions(got, want):
    """Equal and normalised alike, and never an int."""
    return (type(got) is Fraction
            and (got.numerator, got.denominator) == (want.numerator, want.denominator))


def same_coefficients(got, want):
    if isinstance(want, TPoly):
        return (type(got) is TPoly and got.coeffs.keys() == want.coeffs.keys()
                and all(same_fractions(got.coeffs[e], c) for e, c in want.coeffs.items()))
    return same_fractions(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_dot_matches_the_fraction_sum(seed):
    rng = random.Random(seed)
    for size in [0, 1, 2, 5, 30] * 8:
        pairs = [(drawn_rational(rng, big=True), drawn_rational(rng, big=True))
                 for _ in range(size)]
        assert same_fractions(_dot(pairs), loop_dot(pairs)), pairs
    assert same_fractions(_dot([]), Fraction(0))
    assert same_fractions(_dot([(2, 3), (Fraction(1, 2), 4)]), Fraction(8))
    assert same_fractions(_dot([(Fraction(1, 6), 3), (Fraction(-1, 2), 1)]), Fraction(0))


@pytest.mark.parametrize("seed", range(5))
def test_tpoly_product_matches_the_loop(seed):
    rng = random.Random(seed)
    for _ in range(40):
        p, q = drawn_tpoly(rng), rng.choice([drawn_tpoly(rng), drawn_rational(rng)])
        assert same_coefficients(p * q, loop_tpoly_mul(p, q))
        assert same_coefficients(TPoly.dot([(p, TPoly._coerce(q)), (p, p)]),
                                 loop_tpoly_mul(p, q) + loop_tpoly_mul(p, p))
    assert same_coefficients(TPoly.const(1) * TPoly.const(1), TPoly.const(1))
    assert same_coefficients(TPoly.dot([]), TPoly())


KERNELS = [
    ("mul", lambda a, b: a * b, lambda a, b: loop_mul(a, b), None),
    ("exp", lambda a, b: a.exp(), lambda a, b: loop_exp(a), 0),
]


@pytest.mark.parametrize("ring", [RATIONAL])
@pytest.mark.parametrize("name, kernel, loop, constant", KERNELS,
                         ids=[k[0] for k in KERNELS])
def test_series_kernel_matches_the_loop(ring, name, kernel, loop, constant):
    rng = random.Random(f"{ring}-{name}")
    for order in [0, 1, 2, 5, 9] * 3:
        def draw():
            c = drawn_rational(rng, big=True) if constant is None else constant
            return drawn_series(rng, ring, order, c)
        a, b = draw(), draw()
        got, want = kernel(a, b), loop(a, b)
        assert got.ring == want.ring and got.order == want.order
        assert all(same_coefficients(x, y) for x, y in zip(got.coeffs, want.coeffs)), (
            a, b, got, want)


def test_weighted_series_have_no_products():
    # a weighted series is multiplied over its counts (CountSeries), not here
    f = PowerSeries.from_coeffs(POLY_T, 2, [TPoly(), TPoly.t()])
    for op in (lambda: f * f, lambda: f.exp(), lambda: f**2):
        with pytest.raises(ValueError, match="over the rationals"):
            op()
