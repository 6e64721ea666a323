import random
from fractions import Fraction
from math import factorial

import pytest

from qspecies import cycleindex
from qspecies.classes import enumerate_classes
from qspecies.cli import main
from qspecies.cycleindex import (CycleIndexSeries, _factor_at_power, monomial, z_build,
                                 z_one)
from qspecies.field import ConsistencyError, field_make
from qspecies.linalg import InvariantData, block_diagonal, gl_order, invariant_data
from qspecies.parser import parse
from qspecies.poly import Poly, monic_irreducibles
from qspecies.species import cycle_index

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)

Z1 = Poly.make(F2, (1, 1))           # z + 1
IRR = Poly.make(F2, (1, 1, 1))       # z^2 + z + 1


def zm(*items):
    """The monomial prod x_{phi,i}^e: e parts i in lambda_phi."""
    return InvariantData.of((phi, (i,) * e) for phi, i, e in items)


def test_monomial_degrees():
    m = zm((Z1, 1, 2))
    assert m.degree == 2
    m2 = zm((IRR, 1, 1))
    assert m2.degree == 2
    m3 = zm((Z1, 2, 1), (IRR, 1, 1))
    assert m3.degree == 4


def test_monomial_mul_and_str():
    a = zm((Z1, 1, 1))
    assert a.mul(a) == zm((Z1, 1, 2))
    assert z_one(F2, 2).render_lines() == ["1 * 1"]
    assert CycleIndexSeries(F2, 2, {zm((Z1, 1, 2)): 1}).render_lines() == ["1 * x[z+1,1]^2"]


def test_from_invariant_rejects_nilpotent_part():
    z = Poly.make(F2, (0, 1))
    with pytest.raises(ValueError):
        monomial(InvariantData(((z, (1,)),)))


@pytest.mark.parametrize("field,top", [(F2, 4), (F3, 3), (F4, 2)], ids=["q2", "q3", "q4"])
def test_mul_is_the_direct_sum(field, top):
    """The product of two class monomials is the invariant of the block
    diagonal of their representatives."""
    for n1 in range(top + 1):
        for n2 in range(top + 1 - n1):
            for c1 in enumerate_classes(field, n1, "aut"):
                for c2 in enumerate_classes(field, n2, "aut"):
                    block = block_diagonal(field, [c1.representative(field),
                                                   c2.representative(field)])
                    product = c1.invariant.mul(c2.invariant)
                    assert product == invariant_data(block)
                    # the degree mul passes down is the one the partitions give
                    assert product.degree == InvariantData(product.partitions).degree == n1 + n2
                    assert hash(product) == hash(invariant_data(block))


def brute_cycle_index(field, order, fix):
    """Independent oracle: literal sum over classes with explicit Fractions."""
    terms = {}
    for n in range(order + 1):
        gamma = gl_order(field, n)
        for c in enumerate_classes(field, n, "aut"):
            m = monomial(c.invariant)
            w = Fraction(fix(c) * c.class_size, gamma)
            terms[m] = terms.get(m, Fraction(0)) + w
    return CycleIndexSeries(field, order, terms)


def test_z_build_matches_explicit_sum():
    fix = lambda c: c.centralizer_order          # the "Aut" species
    assert z_build(F2, fix, 3) == brute_cycle_index(F2, 3, fix)
    fix1 = lambda c: 1                           # the "V" species on every class
    assert z_build(F3, fix1, 2) == brute_cycle_index(F3, 2, fix1)


def test_z_one_specializations():
    z = z_one(F2, 3)
    assert z.specialize_generating().coeffs == (1, 0, 0, 0)
    assert z.specialize_type().coeffs == (1, 0, 0, 0)


def test_singleton_species_cycle_index():
    # fix = 1 on every class: coefficient sum at dimension n is 1 (type count),
    # and the generating specialization picks out 1/gamma_n.
    z = z_build(F2, lambda c: 1, 3)
    gen = z.specialize_generating()
    for n in range(4):
        assert gen.coeffs[n] == Fraction(1, gl_order(F2, n))
    # fix = 1 means a single orbit in every dimension, so the type series is
    # all ones; class counts appear when fix equals the centralizer order.
    assert z.specialize_type().coeffs == (1, 1, 1, 1)
    zc = z_build(F2, lambda c: c.centralizer_order, 3)
    assert zc.specialize_type().coeffs == (1, 1, 3, 6)


def test_type_specialization_grading():
    # A monomial supported on an irreducible of degree 2 contributes to x^2,
    # not to x^1 as the literal substitution x_{phi,i} -> x^i would have it.
    z = CycleIndexSeries(F2, 2, {zm((IRR, 1, 1)): Fraction(1)})
    assert z.specialize_type().coeffs == (0, 0, 1)


def test_product_of_cycle_indices():
    za = z_build(F2, lambda c: 1, 3)
    zb = z_one(F2, 3)
    assert za * zb == za
    # product truncates at the graded order
    assert (za * za).specialize_generating().coeffs[0] == 1


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        z_one(F2, 2) + z_one(F3, 2)
    with pytest.raises(ValueError):
        z_one(F2, 2) + z_one(F2, 3)


def test_drop_constant():
    z = z_one(F2, 2)
    assert z.drop_constant().specialize_generating().coeffs == (0, 0, 0)


def test_render_and_json():
    z = CycleIndexSeries(F2, 2, {InvariantData(): Fraction(1),
                                 zm((Z1, 1, 1)): Fraction(2, 3)})
    lines = z.render_lines()
    assert any("2/3" in ln and "x[z+1,1]" in ln for ln in lines)
    js = z.to_json()
    assert {"n", "terms"} <= set(js[0].keys()) or "coeff" in js[0]


def naive_mul(a, b):
    """Reference: every pair of terms, kept when the degrees fit the order."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1.degree + m2.degree <= a.order:
                m = m1.mul(m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
    return CycleIndexSeries(a.field, a.order, out)


@pytest.mark.parametrize("field,order", [(F2, 6), (F3, 4), (F2, 0), (F3, 0)])
@pytest.mark.parametrize("factors", [("Elem", "Proj"), ("Proj", "Proj", "Proj"),
                                     ("End", "Elem")])
def test_bucketed_mul_matches_double_loop(field, order, factors):
    zs = [cycle_index(parse(f), field, order) for f in factors]
    got = expected = zs[0]
    for z in zs[1:]:
        got, expected = got * z, naive_mul(expected, z)
    assert got == expected
    # products of degree exactly the order are kept, not truncated
    assert not expected.terms or order in {m.degree for m in expected.terms}


def loop_exp(a):
    """Reference: B_n = (1/n) sum_k k A_k B_(n-k), one Fraction product and
    one sum per pair of terms."""
    parts = {}
    for m, c in a.terms.items():
        parts.setdefault(m.degree, []).append((m, c))
    b = [{InvariantData(): Fraction(1)}]
    for n in range(1, a.order + 1):
        part = {}
        for k in range(1, n + 1):
            for m1, c1 in parts.get(k, ()):
                c1k = c1 * k
                for m2, c2 in b[n - k].items():
                    m = m1.mul(m2)
                    part[m] = part.get(m, Fraction(0)) + c1k * c2
        b.append({m: c / n for m, c in part.items() if c})
    return CycleIndexSeries(a.field, a.order, {m: c for part in b for m, c in part.items()})


def drawn_cycle_index(rng, field, order, constant):
    """Each class monomial of degree <= order kept with probability 1/2, with a
    signed coefficient over its centralizer order or a small denominator."""
    terms = {}
    for n in range(0 if constant else 1, order + 1):
        for c in enumerate_classes(field, n, "aut"):
            if rng.random() < 0.5:
                den = rng.choice([1, 2, 3, c.centralizer_order])
                terms[c.invariant] = Fraction(rng.randint(-9, 9), den)
    return CycleIndexSeries(field, order, terms)


def same_terms(got, want):
    """Equal term by term and normalised alike; every coefficient a Fraction."""
    return (got.terms.keys() == want.terms.keys()
            and all(type(c) is Fraction and (c.numerator, c.denominator)
                    == (want.terms[m].numerator, want.terms[m].denominator)
                    for m, c in got.terms.items()))


@pytest.mark.parametrize("field,order", [(F2, 6), (F3, 4), (F4, 3)], ids=["q2", "q3", "q4"])
@pytest.mark.parametrize("seed", range(3))
def test_mul_and_exp_match_the_loops_on_drawn_series(field, order, seed):
    rng = random.Random(seed)
    a, b = (drawn_cycle_index(rng, field, order, constant=True) for _ in range(2))
    assert same_terms(a * b, naive_mul(a, b))
    a = drawn_cycle_index(rng, field, order, constant=False)
    assert same_terms(a.exp(), loop_exp(a))


# ------------------------------------------------------------ Adams operations

@pytest.mark.parametrize("field,order", [(F2, 6), (F3, 4)], ids=["q2", "q3"])
def test_adams_laws(field, order):
    a = cycle_index(parse("Elem"), field, order)
    b = cycle_index(parse("Proj"), field, order)
    ab = cycle_index(parse("Elem*Proj"), field, order)
    assert ab.adams(1) == ab
    for r in (2, 3):
        # a ring map: multiplicative, and linear
        assert ab.adams(r) == a.adams(r) * b.adams(r)
        assert (a + b).adams(r) == a.adams(r) + b.adams(r)
        # every monomial's degree is multiplied by r
        assert ab.adams(r).specialize_type() == ab.specialize_type().adams(r)
        assert all(m.degree % r == 0 for m in ab.adams(r).terms)
        for s in (2, 3):
            assert ab.adams(s).adams(r) == ab.adams(r * s)
    assert ab.adams(order + 1) == CycleIndexSeries(field, order, {})


def test_adams_factors_psi_of_z_to_the_r():
    z2 = cycle_index(parse("Vplus"), F2, 4).adams(2)
    # (z+1)(z^2) = (z+1)^2: a point with 1 x 1 block becomes one 2 x 2 Jordan block
    assert z2.terms[zm((Z1, 2, 1))] == 1
    # (z^2+z+1)(z^2) = (z^2+z+1)^2 over F_2
    assert z2.terms[zm((IRR, 2, 1))] == Fraction(1, 3)
    # over F_3, psi = z+1 gives z^2+1, irreducible; psi = z-1 gives (z-1)(z+1)
    z_plus_1, z_minus_1 = Poly.make(F3, (1, 1)), Poly.make(F3, (2, 1))
    z3 = cycle_index(parse("Vplus"), F3, 2).adams(2)
    assert z3.terms[zm((Poly.make(F3, (1, 0, 1)), 1, 1))] == Fraction(1, 2)
    assert z3.terms[zm((z_minus_1, 1, 1), (z_plus_1, 1, 1))] == Fraction(1, 2)


@pytest.mark.parametrize("field,order", [(F2, 5), (F3, 3)], ids=["q2", "q3"])
def test_exp_is_the_exponential_sum(field, order):
    a = cycle_index(parse("Vplus + Proj"), field, order)
    expected = power = z_one(field, order)
    for k in range(1, order + 1):
        power = power * a
        expected = expected + power.scale(Fraction(1, factorial(k)))
    assert a.exp() == expected
    with pytest.raises(ValueError):
        z_one(field, order).exp()


def test_a_missing_irreducible_fails_the_factor_check(monkeypatch, capsys):
    # drop z^2+z+1 from the sieve: the factors of (z^2+z+1)(z^2) no longer
    # multiply out to degree 4
    _factor_at_power.cache_clear()
    monkeypatch.setattr(cycleindex, "monic_irreducibles",
                        lambda field, d, exclude_z=False: [
                            f for f in monic_irreducibles(field, d, exclude_z) if f != IRR])
    try:
        with pytest.raises(ConsistencyError):
            cycle_index(parse("Vplus"), F2, 4).adams(2)
        assert main(["zindex", "E(Vplus)", "--order", "4"]) == 1
        assert "account for degree" in capsys.readouterr().err
    finally:
        _factor_at_power.cache_clear()
