import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspecies.parser import ParseError, parse, render
from qspecies.species import (Assembly, Builtin, Mark, Plus, Power, Product,
                              Sum, SymPower)


def B(name, arg=None):
    return Builtin(name, arg)


def test_atoms():
    assert parse("Elem") == B("Elem")
    assert parse("Sub(2)") == B("Sub", 2)
    assert parse("RepCyclic(3)") == B("RepCyclic", 3)
    assert parse(" Vplus ") == B("Vplus")


def test_operators_and_precedence():
    assert parse("Elem + Proj") == Sum(B("Elem"), B("Proj"))
    assert parse("Elem * Proj") == Product(B("Elem"), B("Proj"))
    assert parse("Elem + Proj * Aut") == Sum(B("Elem"),
                                             Product(B("Proj"), B("Aut")))
    assert parse("Vplus ^ 2") == Power(B("Vplus"), 2)
    assert parse("Vplus * Vplus ^ 2") == Product(B("Vplus"),
                                                 Power(B("Vplus"), 2))
    assert parse("(Elem + Proj) * Aut") == Product(Sum(B("Elem"), B("Proj")),
                                                   B("Aut"))


def test_left_associativity():
    assert parse("Elem + Proj + Aut") == Sum(Sum(B("Elem"), B("Proj")), B("Aut"))
    assert parse("Elem * Proj * Aut") == Product(Product(B("Elem"), B("Proj")),
                                                 B("Aut"))


def test_functions():
    assert parse("E(Vplus)") == Assembly(B("Vplus"))
    assert parse("sym(2, Vplus)") == SymPower(B("Vplus"), 2)
    assert parse("plus(Elem)") == Plus(B("Elem"))
    assert parse("mark(Vplus)") == Mark(B("Vplus"))
    assert parse("E(mark(Vplus))") == Assembly(Mark(B("Vplus")))


def test_parse_errors():
    for bad in ["", "Elem +", "Nope", "sym(Vplus, 2)", "Sub()",
                "Elem Proj", "(Elem", "Elem ^ Proj", "Elem & Proj"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_builtin_without_its_argument():
    # the builtins that take an argument are the ones whose spec says so
    with pytest.raises(ParseError, match="requires an integer argument"):
        parse("Sub")
    with pytest.raises(ParseError, match="requires an integer argument"):
        parse("RepCyclic + Elem")
    with pytest.raises(ParseError, match="needs an integer argument"):
        parse("Sub()")


def test_parse_validates_assembly_base():
    # E and sym require an operand with no structures on the zero space
    with pytest.raises(ValueError):
        parse("E(Elem)")
    with pytest.raises(ValueError):
        parse("E(V)")
    with pytest.raises(ValueError):
        parse("E(Sub(0))")       # Sub(0) has one structure, the zero subspace
    parse("E(plus(Elem))")


exprs = st.deferred(lambda: st.one_of(
    st.sampled_from(["Elem", "Proj", "Aut", "Vplus", "One", "Zero"]).map(B),
    st.builds(B, st.just("Sub"), st.integers(1, 3)),
    st.builds(Sum, exprs, exprs),
    st.builds(Product, exprs, exprs),
    st.builds(Power, exprs, st.integers(1, 4)),
    st.builds(Plus, exprs),
))


@given(exprs)
@settings(max_examples=120, deadline=None)
def test_render_parse_roundtrip(e):
    assert parse(render(e)) == e


def test_roundtrip_nested_right_children():
    # right-nested sums and products must re-parse with the same shape
    e = Sum(B("Elem"), Sum(B("Proj"), B("Aut")))
    assert parse(render(e)) == e
    e2 = Product(B("Elem"), Product(B("Proj"), B("Aut")))
    assert parse(render(e2)) == e2


def test_render_examples():
    assert render(parse("E(Vplus)")) == "E(Vplus)"
    assert render(parse("sym(2, Vplus)")) == "sym(2, Vplus)"
    assert render(parse("Elem + Proj * Aut")) == "Elem + Proj*Aut"
