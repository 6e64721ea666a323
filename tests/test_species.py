from fractions import Fraction
from math import factorial

import pytest

from qspecies import species
from qspecies.cli import main
from qspecies.field import field_make
from qspecies.linalg import ConsistencyError, gl_order, qbinomial
from qspecies.oracle import structure_count_bf
from qspecies.parser import parse
from qspecies.series import POLY_T, RATIONAL, TPoly, aut_type_product
from qspecies.species import (Assembly, Builtin, Mark, Plus, Power, Product,
                              Sum, SymPower, UnsupportedOperationError,
                              cycle_index, gen_series, structure_count,
                              type_series, validate, weighted_gen_series)

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def B(name, arg=None):
    return Builtin(name, arg)


# ------------------------------------------------------------ counts

@pytest.mark.parametrize("field", [F2, F3])
def test_builtin_counts(field):
    q = field.q
    for n in range(4):
        assert structure_count(B("V"), field, n) == 1
        assert structure_count(B("Vplus"), field, n) == (1 if n else 0)
        assert structure_count(B("Elem"), field, n) == q ** n
        assert structure_count(B("End"), field, n) == q ** (n * n)
        assert structure_count(B("Aut"), field, n) == gl_order(field, n)
        assert structure_count(B("Proj"), field, n) == (q ** n - 1) // (q - 1)
        assert structure_count(B("Sub", 1), field, n) == (
            qbinomial(field, n, 1) if n >= 1 else 0)
        assert structure_count(B("One"), field, n) == (1 if n == 0 else 0)
        assert structure_count(B("Zero"), field, n) == 0


def test_bases_counts():
    assert [structure_count(B("Bases"), F2, n) for n in range(4)] == [1, 1, 6, 168]


def test_sum_and_product_counts():
    # (V + V)_n has two structures: a left and a right copy of the space
    assert structure_count(Sum(B("V"), B("V")), F2, 2) == 2
    # (Vplus * Vplus)_2 over F_2: split into two lines, one point each = 6
    assert structure_count(Product(B("Vplus"), B("Vplus")), F2, 2) == 6
    assert structure_count(Power(B("Vplus"), 2), F2, 2) == 6


def test_gen_series_values():
    g = gen_series(B("Elem"), F2, 3)
    assert [g.coeffs[n] * gl_order(F2, n) for n in range(4)] == [1, 2, 4, 8]
    # assembly of nonzero vectors: labelled counts are the q-analogue Bell numbers
    e = Assembly(B("Vplus"))
    ge = gen_series(e, F2, 3)
    assert [ge.coeffs[n] * gl_order(F2, n) for n in range(4)] == [1, 1, 4, 57]


def test_assembly_is_exp():
    f = gen_series(B("Vplus"), F2, 4)
    assert gen_series(Assembly(B("Vplus")), F2, 4) == f.exp()


def test_plus_drops_constant():
    g = gen_series(Plus(B("Elem")), F2, 2)
    assert g.coeffs[0] == 0
    assert g.coeffs[1:] == gen_series(B("Elem"), F2, 2).coeffs[1:]


def test_sym_power_divides_by_factorial():
    p = gen_series(Power(B("Vplus"), 3), F2, 4)
    s = gen_series(SymPower(B("Vplus"), 3), F2, 4)
    assert s == p.scale(Fraction(1, factorial(3)))


def test_validate_rejects_nonempty_base():
    with pytest.raises(ValueError):
        validate(Assembly(B("V")))
    with pytest.raises(ValueError):
        validate(SymPower(B("One"), 2))
    validate(Assembly(Plus(B("Elem"))))   # plus() repairs the base


# ------------------------------------------------------------ type series

def test_type_series_builtins():
    assert type_series(B("Aut"), F2, 3).coeffs == aut_type_product(2, 3).coeffs
    assert type_series(B("Aut"), F3, 2).coeffs == aut_type_product(3, 2).coeffs
    assert type_series(B("V"), F2, 3).coeffs == (1, 1, 1, 1)
    assert type_series(B("Vplus"), F2, 3).coeffs == (0, 1, 1, 1)
    assert type_series(B("One"), F2, 2).coeffs == (1, 0, 0)


def test_type_series_assembly():
    # assemblies of one-dimensional splittings: partition numbers
    t = type_series(Assembly(B("Vplus")), F2, 5)
    assert t.coeffs == (1, 1, 2, 3, 5, 7)
    # scalar diagonalizations over F_2: orbit counts 1, 2, 3, ...
    t2 = type_series(Assembly(B("Fscalar")), F2, 4)
    assert t2.coeffs == (1, 2, 3, 4, 5)
    t3 = type_series(Assembly(B("Fstar")), F2, 4)
    assert t3.coeffs == (1, 1, 1, 1, 1)


def test_type_series_integer_coefficients():
    for name in ("Elem", "Proj", "End", "Bases"):
        for c in type_series(B(name), F2, 3).coeffs:
            assert c.denominator == 1


# ------------------------------------------------------------ cycle index

def test_cycle_index_product_rule():
    a, b = B("Vplus"), B("Elem")
    z = cycle_index(Product(a, b), F2, 3)
    assert z == cycle_index(a, F2, 3) * cycle_index(b, F2, 3)
    assert z.specialize_generating() == gen_series(Product(a, b), F2, 3)


def test_cycle_index_sum_rule():
    a, b = B("Proj"), B("V")
    z = cycle_index(Sum(a, b), F2, 3)
    assert z == cycle_index(a, F2, 3) + cycle_index(b, F2, 3)


def test_cycle_index_assembly_small():
    e = Assembly(B("Fstar"))
    z = cycle_index(e, F2, 2)
    assert z.specialize_generating() == gen_series(e, F2, 2)
    assert z.specialize_type() == type_series(e, F2, 2)


@pytest.mark.parametrize("text", [
    "Vplus^0", "plus(E(Vplus))", "sym(2,Vplus)^2", "E(Vplus)*Proj",
    "plus(sym(2,Vplus)) + Elem", "(Proj + Vplus)^2"])
def test_cycle_index_specializes_through_every_node(text):
    # each of Sum/Product/Power/Plus/sym/E sits as an operand and as a parent;
    # the oracle's counts check the rules the three series share
    e = parse(text)
    z = cycle_index(e, F2, 3)
    g = gen_series(e, F2, 3)
    assert z.specialize_generating() == g
    assert z.specialize_type() == type_series(e, F2, 3)
    assert [g.coeffs[n] * gl_order(F2, n) for n in range(4)] == \
        [structure_count_bf(e, F2, n) for n in range(4)]


# ------------------------------------------------------------ weighted

def test_weighted_mark_counts_by_size():
    t = TPoly.t()
    g = weighted_gen_series(Mark(B("Vplus")), F2, 2)
    assert g.coeffs[1] == t
    assert g.subs_t(1) == gen_series(B("Vplus"), F2, 2, ring=POLY_T).subs_t(1)


def test_weighted_assembly_example():
    g = weighted_gen_series(Assembly(Mark(B("Vplus"))), F2, 2)
    t = TPoly.t()
    assert g.coeffs[0] == TPoly.const(1)
    assert g.coeffs[1] == t
    assert g.coeffs[2] == t / 6 + t * t / 2


def test_weighted_specialization_recovers_counts():
    e = Assembly(Mark(B("Vplus")))
    g = weighted_gen_series(e, F2, 3).subs_t(1)
    assert g == gen_series(Assembly(B("Vplus")), F2, 3)


def test_type_of_marked_assembly_unsupported():
    with pytest.raises(UnsupportedOperationError):
        type_series(Assembly(Mark(B("Vplus"))), F2, 2)
    with pytest.raises(UnsupportedOperationError):
        cycle_index(Mark(B("Vplus")), F2, 2)


def test_non_integral_burnside_sum_is_a_failed_check(monkeypatch, capsys):
    # class sizes are not a fixed-point count: over GL_2(F_2), sum size/|C| = 7/3
    monkeypatch.setattr(species, "class_fix", lambda e, field, c, *rest: c.class_size)
    with pytest.raises(ConsistencyError) as info:
        type_series(B("Proj"), F2, 2)
    assert not isinstance(info.value, UnsupportedOperationError)
    assert main(["type", "Proj", "--order", "2"]) == 1
    assert "Burnside sum" in capsys.readouterr().err


def test_mark_requires_weighted_ring():
    with pytest.raises(ValueError):
        gen_series(Mark(B("Vplus")), F2, 2, ring=RATIONAL)
