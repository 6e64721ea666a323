import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import qspecies
from qspecies import oracle, species
from qspecies.cli import main
from qspecies.field import field_make
from qspecies.classes import enumerate_classes, part_centralizer_order
from qspecies.linalg import ConsistencyError, Matrix, enumerate_matrices, gl_order, qbinomial
from qspecies.oracle import structure_count_bf
from qspecies.parser import parse, render
from qspecies.series import POLY_T, RATIONAL, TPoly, aut_type_product
from qspecies.species import (Assembly, Builtin, Mark, Plus, Power, Product,
                              Sum, SymPower, UnsupportedOperationError,
                              cycle_index, gen_series, type_series, validate,
                              weighted_gen_series)

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def B(name, arg=None):
    return Builtin(name, arg)


def closed_count(e, field, n):
    """|F[E_n]| = gamma_n * [x^n] gen_series(F)."""
    return gen_series(e, field, n).coeffs[n] * gl_order(field, n)


# ------------------------------------------------------------ counts

@pytest.mark.parametrize("field", [F2, F3])
def test_builtin_counts(field):
    q = field.q
    for n in range(4):
        assert closed_count(B("V"), field, n) == 1
        assert closed_count(B("Vplus"), field, n) == (1 if n else 0)
        assert closed_count(B("Elem"), field, n) == q ** n
        assert closed_count(B("End"), field, n) == q ** (n * n)
        assert closed_count(B("Aut"), field, n) == gl_order(field, n)
        assert closed_count(B("Proj"), field, n) == (q ** n - 1) // (q - 1)
        assert closed_count(B("Sub", 1), field, n) == (
            qbinomial(field, n, 1) if n >= 1 else 0)
        assert closed_count(B("One"), field, n) == (1 if n == 0 else 0)
        assert closed_count(B("Zero"), field, n) == 0


def test_bases_counts():
    assert [closed_count(B("Bases"), F2, n) for n in range(4)] == [1, 1, 6, 168]


def test_sum_and_product_counts():
    # (V + V)_n has two structures: a left and a right copy of the space
    assert closed_count(Sum(B("V"), B("V")), F2, 2) == 2
    # (Vplus * Vplus)_2 over F_2: split into two lines, one point each = 6
    assert closed_count(Product(B("Vplus"), B("Vplus")), F2, 2) == 6
    assert closed_count(Power(B("Vplus"), 2), F2, 2) == 6


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


@pytest.mark.parametrize("node", [Power, SymPower])
def test_validate_rejects_negative_exponents(node):
    # the parser builds no negative power, but the library can
    e = node(B("Vplus"), -1)
    for series in (gen_series, type_series, cycle_index):
        with pytest.raises(ValueError, match="negative exponent"):
            series(e, F2, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        structure_count_bf(e, F2, 2)


@pytest.mark.parametrize("text", [name for name, spec in species.BUILTINS.items()
                                  if not spec.needs_arg]
                         + ["Sub(0)", "Sub(2)", "RepCyclic(2)", "Vplus^0", "sym(0,Vplus)",
                            "E(Vplus)", "plus(V)", "mark(V)", "Vplus + One", "Vplus*One",
                            "(Vplus + V)^2"])
def test_empty_at_zero_matches_the_oracle(text):
    e = parse(text)
    assert species.empty_at_zero(e) == (structure_count_bf(e, F2, 0) == 0)


# one sample per AST node type: each walk over the AST must handle every type
NODE_SAMPLES = {
    Builtin: Builtin("Proj"),
    Sum: Sum(B("Vplus"), B("Elem")),
    Product: Product(B("Vplus"), B("Proj")),
    Power: Power(B("Vplus"), 2),
    SymPower: SymPower(B("Vplus"), 2),
    Assembly: Assembly(B("Vplus")),
    Plus: Plus(B("Elem")),
    Mark: Mark(B("Vplus")),
}


@pytest.mark.parametrize("node", species.SpeciesExpr.__subclasses__(),
                         ids=lambda node: node.__name__)
def test_every_node_type_has_every_walk(node):
    e = NODE_SAMPLES[node]  # a KeyError here: a new node type without a sample
    assert parse(render(e)) == e
    counts = weighted_gen_series(e, F2, 2).coeffs
    for n in range(3):
        structures = set(oracle.enumerate_structures(e, F2, n))
        assert len(structures) == counts[n].subs_t(1) * gl_order(F2, n)
        for g in enumerate_matrices(F2, n, True):
            assert {oracle.transport(s, g) for s in structures} == structures


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


def _wrong_centralizer(Q, lam):
    """One too many at lam = (1, 1), so that over F_2 the g in GL_2 with g^2 = 1,
    gamma_2 times the sum of 1/c_Q(lam) over lam = (2), (1, 1), read
    6 (1/2 + 1/7) = 27/7."""
    return part_centralizer_order(Q, lam) + (lam == (1, 1))


def test_non_integral_rep_cyclic_count_is_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(species, "part_centralizer_order", _wrong_centralizer)
    species._count_rep_cyclic.cache_clear()
    try:
        with pytest.raises(ConsistencyError) as info:
            cycle_index(parse("RepCyclic(2)"), F2, 3)
        assert not isinstance(info.value, UnsupportedOperationError)
        assert main(["zindex", "RepCyclic(2)", "--order", "3"]) == 1
    finally:
        species._count_rep_cyclic.cache_clear()
    assert "RepCyclic(2) count 27/7 at n=2 is not an integer" in capsys.readouterr().err


def test_mark_requires_weighted_ring():
    with pytest.raises(ValueError):
        gen_series(Mark(B("Vplus")), F2, 2, ring=RATIONAL)


# ------------------------------------------------------------ closed forms, no oracle

def test_e_sym_sub_and_rep_cyclic_types_never_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated structures")
    monkeypatch.setattr(oracle, "enumerate_structures", refuse)
    for text in ("E(Vplus)", "sym(2,Proj)", "Sub(3)"):
        e = parse(text)
        z = cycle_index(e, F2, 6)
        assert z.specialize_type() == type_series(e, F2, 6)
        assert z.specialize_generating() == gen_series(e, F2, 6)
    assert list(type_series(parse("RepCyclic(2)"), F2, 6).coeffs) == [1, 1, 2, 2, 3, 3, 4]

    def no_cycle_index(*args, **kwargs):
        raise AssertionError("built a cycle index")
    monkeypatch.setattr(species, "cycle_index", no_cycle_index)
    # the operand's type series is x + 2x^2 + 2x^3 + 3x^4 + 3x^5 + 4x^6: by hand,
    # (T(x)^2 + T(x^2))/2 and the Euler product prod_m 1/(1-x^m)^(t_m)
    assert list(type_series(parse("sym(2,plus(RepCyclic(2)))"), F2, 6).coeffs) == \
        [0, 0, 1, 2, 5, 7, 12]
    assert list(type_series(parse("E(plus(RepCyclic(2)))"), F2, 6).coeffs) == \
        [1, 1, 3, 5, 11, 18, 35]


F4 = field_make(2, 2)
ALL_BUILTINS = ["One", "Zero", "Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "Fscalar",
                "Fstar", "Sub(0)", "Sub(1)", "Sub(2)", "Sub(3)"]
REP_CYCLIC = ["RepCyclic(0)", "RepCyclic(2)", "RepCyclic(3)"]


@pytest.mark.parametrize("field, top, texts", [
    (F2, 8, ALL_BUILTINS), (F3, 5, ALL_BUILTINS), (F4, 4, ALL_BUILTINS),
    # a RepCyclic(m) cycle index enumerates commutants: at q=2 n=5 it takes seconds
    (F2, 4, REP_CYCLIC), (F3, 3, REP_CYCLIC), (F4, 3, REP_CYCLIC)],
    ids=["q2", "q3", "q4", "q2-RepCyclic", "q3-RepCyclic", "q4-RepCyclic"])
def test_euler_products_are_the_class_sums(field, top, texts):
    # two routes: Euler products over irreducibles, and z_build over every class
    for text in texts:
        e = parse(text)
        z = cycle_index(e, field, top)
        assert type_series(e, field, top) == z.specialize_type(), text
        assert gen_series(e, field, top) == z.specialize_generating(), text


@pytest.mark.parametrize("field, top", [(F2, 8), (F3, 5), (F4, 4)], ids=["q2", "q3", "q4"])
def test_class_counts_are_the_enumerated_classes(field, top):
    # the Euler product against the class tables: End's, and Aut's classes
    # with sigma^m = 1 by the predicate on elementary divisors
    assert list(species._class_counts(field, top, None).coeffs) == [
        len(enumerate_classes(field, n, "end")) for n in range(top + 1)]
    for m in range(7):
        v = dict(species._cyclotomic(field, m))
        assert list(species._class_counts(field, top, m).coeffs) == [
            sum(all(species._is_root(lam, v.get(phi, 0), m) for phi, lam in c.invariant.partitions)
                for c in enumerate_classes(field, n, "aut"))
            for n in range(top + 1)], m


def test_generic_factors_sum_no_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("summed a weight over partitions")
    monkeypatch.setattr(species, "part_centralizer_order", refuse)
    monkeypatch.setattr(species, "partitions", refuse)
    for text in ("Aut", "End", "Proj", "Sub(3)", "Elem", "Bases",
                 "RepCyclic(0)", "RepCyclic(2)", "RepCyclic(3)"):
        assert type_series(parse(text), F2, 24).coeffs[24] >= 1


def test_type_and_gen_never_walk_classes(monkeypatch):
    from qspecies import classes, cycleindex

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated conjugacy classes")
    for module in (classes, species, cycleindex):
        monkeypatch.setattr(module, "enumerate_classes", refuse)
    for field in (F2, F3, F4):
        for text in ALL_BUILTINS + REP_CYCLIC + ["E(plus(RepCyclic(2)))", "sym(2,Proj)*Elem"]:
            for command in ("type", "gen", "wgen"):
                assert main([command, text, "--order", "6", "--q", str(field.p),
                             "--ext-k", str(field.k)]) == 0, (command, text)
    assert main(["wgen", "E(mark(Sub(2)))*Bases", "--order", "6"]) == 0


def test_rep_cyclic_cycle_index_never_loads_the_oracle():
    script = (
        "import sys\n"
        "from qspecies import cycle_index, field_make, parse\n"
        "cycle_index(parse('RepCyclic(2)'), field_make(2, 1), 4)\n"
        "print('qspecies.oracle' in sys.modules)\n"
    )
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("field, order", [(F3, 5), (field_make(2, 2), 4)], ids=["q3", "q4"])
@pytest.mark.parametrize("text", ["sym(3,Proj)", "E(plus(Elem))", "sym(2,E(Vplus)*Vplus)"])
def test_type_plethysm_is_the_type_specialisation_of_the_cycle_index(field, order, text):
    # two independent routes: Psi_r on type series, and Psi_r on cycle indices
    e = parse(text)
    assert type_series(e, field, order) == cycle_index(e, field, order).specialize_type()


@pytest.mark.parametrize("field, top", [(F2, 7), (F3, 4), (field_make(2, 2), 3)],
                         ids=["q2", "q3", "q4"])
def test_rep_cyclic_predicate_matches_representative_powers(field, top):
    # g^m = 1 read from the elementary divisors, lam_1 <= v_phi for the
    # multiplicity v_phi of phi in z^m - 1, against the matrix power
    for m in range(7):
        v = dict(species._cyclotomic(field, m))
        for n in range(top + 1):
            for c in enumerate_classes(field, n, "aut"):
                fixed = all(species._is_root(lam, v.get(phi, 0), m)
                            for phi, lam in c.invariant.partitions)
                assert fixed == (c.representative(field) ** m
                                 == Matrix.identity(field, n)), (m, c)


def test_non_integral_sym_type_is_a_failed_check(monkeypatch, capsys):
    # with 1/z_lambda replaced by 1/3, type(sym(2,Vplus)) at n=2 reads 2/3
    monkeypatch.setattr(species, "_z_lambda", lambda lam: 3)
    with pytest.raises(ConsistencyError):
        type_series(parse("sym(2,Vplus)"), F2, 3)
    assert main(["type", "sym(2,Vplus)", "--order", "3"]) == 1
    assert "sym type coefficient" in capsys.readouterr().err


def test_plethysm_checks_survive_python_O():
    script = (
        "import sys\n"
        "from qspecies import cycleindex, species\n"
        "from qspecies.cli import main\n"
        "species._z_lambda = lambda lam: 3\n"
        "print(main(['type', 'sym(2,Vplus)', '--order', '3']))\n"
        "irreducibles = cycleindex.monic_irreducibles\n"
        "cycleindex.monic_irreducibles = lambda field, d, exclude_z=False: [\n"
        "    f for f in irreducibles(field, d, exclude_z) if f.coeffs != (1, 1, 1)]\n"
        "print(main(['zindex', 'E(Vplus)', '--order', '4']), sys.flags.optimize)\n"
        "centralizer = species.part_centralizer_order\n"
        "species.part_centralizer_order = lambda Q, lam: centralizer(Q, lam) + (lam == (1, 1))\n"
        "print(main(['zindex', 'RepCyclic(2)', '--order', '3']))\n"
    )
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1", "1", "1"]
    assert "sym type coefficient" in out.stderr and "account for degree" in out.stderr
    assert "RepCyclic(2) count 27/7 at n=2 is not an integer" in out.stderr
