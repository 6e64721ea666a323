import contextlib
import hashlib
import io
import re
from dataclasses import replace

import pytest

from qspecies import oracle
from qspecies.classes import ConjClass, enumerate_classes
from qspecies.cli import main
from qspecies.field import ConsistencyError, field_make
from qspecies.linalg import Matrix, Subspace, enumerate_matrices, gl_order, invariant_data
from qspecies.parser import parse
from qspecies.cycleindex import z_build
from qspecies.species import (Assembly, Builtin, Mark, Plus, Power, Product, Sum, class_fix,
                              cycle_index, gen_series, type_series, weighted_gen_series)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F8 = field_make(2, 3)

CORPUS = ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "Sub(1)",
          "Vplus + Proj", "Vplus * Vplus", "Vplus^2", "sym(2, Vplus)",
          "E(Vplus)", "plus(Elem)"]


def closed_count(e, field, n):
    """|F[E_n]| = gamma_n * [x^n] gen_series(F)."""
    return gen_series(e, field, n).coeffs[n] * gl_order(field, n)


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("field", [F2, F3])
def test_counts_match_closed_forms(text, field):
    e = parse(text)
    for n in range(3):
        assert oracle.structure_count_bf(e, field, n) == closed_count(e, field, n)


@pytest.mark.parametrize("text", CORPUS)
def test_functor_laws(text):
    e = parse(text)
    n = 2
    structures = oracle.enumerate_structures(e, F2, n)
    units = list(enumerate_matrices(F2, n, True))
    ident = Matrix.identity(F2, n)
    for s in structures:
        assert oracle.transport(s, ident) == s
    g, h = units[1], units[-1]
    for s in structures:
        # transport along a product equals transport twice (covariance)
        assert oracle.transport(s, g * h) == oracle.transport(oracle.transport(s, h), g)
    # transport permutes the structure set
    moved = {oracle.transport(s, g) for s in structures}
    assert moved == set(structures)


@pytest.mark.parametrize("text", CORPUS)
def test_fix_counts_constant_on_classes(text):
    e = parse(text)
    n = 2
    for c in enumerate_classes(F2, n, "aut"):
        rep_fix = oracle.fix_count_bf(e, F2, n, c.representative(F2))
        seen = 0
        for g in enumerate_matrices(F2, n, True):
            from qspecies.linalg import invariant_data
            if invariant_data(g) == c.invariant:
                assert oracle.fix_count_bf(e, F2, n, g) == rep_fix
                seen += 1
        assert seen == c.class_size


@pytest.mark.parametrize("text", ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus"]
                         + [f"RepCyclic({m})" for m in range(5)])
def test_closed_fix_matches_brute_force(text):
    # over F_8 the commutant count packs and scales multi-bit entries
    e = parse(text)
    for field, n in ((F2, 1), (F2, 2), (F3, 1), (F3, 2), (F8, 2)):
        classes = enumerate_classes(field, n, "aut")
        assert [class_fix(e, field, c) for c in classes] == oracle.fix_counts_bf(
            e, field, n, [c.representative(field) for c in classes])


@pytest.mark.parametrize("text", CORPUS)
def test_orbit_counts_match_type_series(text):
    e = parse(text)
    t = type_series(e, F2, 2)
    for n in range(3):
        assert oracle.orbit_count_bf(e, F2, n) == t.coeffs[n]


def test_orbit_partition_sizes():
    e = parse("Proj")
    orbits = oracle.orbit_partition(e, F2, 2)
    # all three lines in F_2^2 form a single orbit
    assert len(orbits) == 1 and orbits[0]["size"] == 3
    orbits3 = oracle.orbit_partition(parse("Elem"), F2, 2)
    # vectors split as {0} and the three nonzero vectors
    assert sorted(o["size"] for o in orbits3) == [1, 3]


@pytest.mark.parametrize("text", ["Elem", "Proj", "Aut", "Vplus", "E(Vplus)",
                                  "sym(2, Vplus)"])
def test_zindex_bf_matches_closed(text):
    e = parse(text)
    assert oracle.zindex_bf(e, F2, 2) == cycle_index(e, F2, 2)


@pytest.mark.parametrize("text", ["E(Vplus)", "sym(2, Vplus)", "sym(3, Proj)",
                                  "E(plus(Elem))", "E(Sub(1)*Vplus)", "Sub(2)",
                                  "RepCyclic(2)", "RepCyclic(3)"])
@pytest.mark.parametrize("field, order", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_class_representative_zindex_matches_literal(text, field, order):
    # production: cycle index over class representatives, from the plethysm of Z_F,
    # Birkhoff's count and the commutants of primary parts; oracle: a sum over GL_n
    e = parse(text)
    assert cycle_index(e, field, order) == oracle.zindex_bf(e, field, order)


@pytest.mark.parametrize("text", ["E(Vplus)", "sym(2, Vplus)"])
def test_plethysm_matches_class_representatives_at_n4(text):
    e = parse(text)
    fix = {}
    for n in range(5):
        classes = enumerate_classes(F2, n, "aut")
        counts = oracle.fix_counts_bf(e, F2, n, [c.representative(F2) for c in classes])
        fix.update(zip((c.invariant for c in classes), counts))
    reference = z_build(F2, lambda c: fix[c.invariant], 4)
    assert cycle_index(e, F2, 4) == reference


@pytest.mark.parametrize("field, top", [(F2, 5), (F3, 3), (F4, 3), (F5, 2)],
                         ids=["q2", "q3", "q4", "q5"])
def test_birkhoff_matches_oracle_fix(field, top):
    for n in range(top + 1):
        for k in range(n + 1):
            e = Builtin("Sub", k)
            classes = enumerate_classes(field, n, "aut")
            fixes = oracle.fix_counts_bf(e, field, n, [c.representative(field) for c in classes])
            assert [class_fix(e, field, c) for c in classes] == fixes, (n, k)


def test_sym_type_series_matches_orbits():
    e = parse("sym(2, Vplus)")
    orbits = [oracle.orbit_count_bf(e, F2, n) for n in range(4)]
    assert list(type_series(e, F2, 3).coeffs) == orbits


def test_assembly_zindex_specializes_at_n4():
    e = parse("E(Vplus)")
    z = cycle_index(e, F2, 4)
    assert list(z.specialize_type().coeffs) == [1, 1, 2, 3, 5]  # partition numbers
    assert z.specialize_generating() == gen_series(e, F2, 4)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("field, order", [(F2, 3), (F3, 2)], ids=["q2", "q3"])
def test_rep_cyclic_counts_from_classes(m, field, order):
    e = parse(f"RepCyclic({m})")
    g = gen_series(e, field, order)
    assert ([g.coeffs[n] * gl_order(field, n) for n in range(order + 1)]
            == [oracle.structure_count_bf(e, field, n) for n in range(order + 1)])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("field, order", [(F2, 3), (F3, 2)], ids=["q2", "q3"])
def test_rep_cyclic_types_count_classes(m, field, order):
    e = parse(f"RepCyclic({m})")
    assert list(type_series(e, field, order).coeffs) == [
        oracle.orbit_count_bf(e, field, n) for n in range(order + 1)]


def test_rep_cyclic_counts():
    # structures on E_n are automorphisms g with g^m = identity
    e = parse("RepCyclic(3)")
    for n in range(3):
        expected = sum(1 for g in enumerate_matrices(F2, n, True)
                       if g ** 3 == Matrix.identity(F2, n))
        assert oracle.structure_count_bf(e, F2, n) == expected
    assert oracle.structure_count_bf(e, F2, 2) == 3  # I and the two order-3 elements


def reference_transport(e, s, g):
    """F[g](s) by the construction of e, walking the expression rather than
    reading tags: g is inverted for every "mat" structure, g * a * g.inverse(),
    and each subspace and part is moved by the image of its vectors."""
    if isinstance(e, Builtin):
        tag = s[0]
        if tag == "vec":
            return ("vec", g.matvec(s[1]))
        if tag == "sub":
            return ("sub", reference_image(g, s[1]).basis)
        if tag == "mat":
            return ("mat", (g * Matrix.make(g.field, s[1]) * g.inverse()).entries)
        if tag == "bas":
            return ("bas", tuple(g.matvec(v) for v in s[1]))
        return s
    if isinstance(e, Sum):
        return (s[0], reference_transport(e.left if s[0] == "L" else e.right, s[1], g))
    if isinstance(e, Mark):
        return ("M", reference_transport(e.base, s[1], g))
    if isinstance(e, Plus):
        return reference_transport(e.base, s, g)
    if isinstance(e, Power):
        return reference_transport(oracle._power_as_products(e), s, g)
    if isinstance(e, Product):
        return ("prod",) + tuple(reference_part(part_e, rows, enc, g)
                                 for part_e, (rows, enc) in zip((e.left, e.right), s[1:]))
    if isinstance(e, Assembly):
        return ("mset", tuple(sorted(reference_part(e.base, rows, enc, g)
                                     for rows, enc in s[1])))
    raise TypeError(e)


def reference_image(g, rows):
    return Subspace.from_vectors(g.field, g.ncols, [g.matvec(b) for b in rows])


def reference_part(e, rows, enc, g):
    image = reference_image(g, rows)
    if not rows:
        return (image.basis, enc)
    images = [g.matvec(b) for b in rows]
    chart = Matrix.make(g.field, [[v[p] for v in images] for p in image.pivots])
    return (image.basis, reference_transport(e, enc, chart))


# every node type and every builtin tag; E needs an operand without structures
# in dimension 0, so E(End) is E(plus(End))
TRANSPORTED = ["End", "Aut", "E(plus(End))", "Vplus*End", "End*End", "sym(2,plus(Aut))",
               "Vplus + Proj", "Elem^2", "sym(2,Vplus)", "mark(Vplus)*Elem", "plus(Elem)",
               "Bases + Sub(0)", "Fscalar * V"]


@pytest.mark.parametrize("text", TRANSPORTED)
@pytest.mark.parametrize("field, n", [(F2, 0), (F2, 1), (F2, 2), (F4, 0), (F4, 1)],
                         ids=["q2n0", "q2n1", "q2n2", "q4n0", "q4n1"])
def test_inverse_once_per_group_element_matches_per_structure(text, field, n):
    # transport reads tags; the reference walks the expression
    e = parse(text)
    plain = oracle.enumerate_structures(e, field, n)
    group = list(enumerate_matrices(field, n, True))
    orbit_of = {}
    fixed = []
    for sigma in group:
        moved = [reference_transport(e, s, sigma) for s in plain]
        assert [oracle.transport(s, sigma) for s in plain] == moved
        fixed.append(sum(t == s for s, t in zip(plain, moved)))
        for s, t in zip(plain, moved):
            orbit_of.setdefault(s, set()).add(t)
    reference = sorted({(min(orbit), len(orbit)) for orbit in map(frozenset, orbit_of.values())})
    assert sorted((o["rep"], o["size"]) for o in oracle.orbit_partition(e, field, n)) == reference
    assert oracle.fix_counts_bf(e, field, n, group) == fixed


@pytest.mark.parametrize("text", ["End*End", "E(plus(End))", "sym(2,plus(Aut))"])
def test_nested_matrices_move_as_the_reference_over_f3(text):
    # matrices on the parts of a split are conjugated by charts, through the
    # row maps of odd characteristic
    e = parse(text)
    for n in range(3):
        plain = oracle.enumerate_structures(e, F3, n)
        for sigma in enumerate_matrices(F3, n, True):
            assert ([oracle.transport(s, sigma) for s in plain]
                    == [reference_transport(e, s, sigma) for s in plain])


@pytest.mark.parametrize("field, top", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_row_maps_conjugate_as_matrix_products(field, top):
    for n in range(top + 1):
        matrices = list(enumerate_matrices(field, n))
        for a in matrices:
            # the row map of a sends v to v a, for each of the q^n rows v
            row_map = oracle._row_map(a)
            assert len(row_map) == field.q ** n
            assert all(row_map[v] == (Matrix(field, (v,)) * a).entries[0] for v in row_map)
        for g in enumerate_matrices(field, n, True):
            acting = oracle._Acting(g, {})
            g_inv = g.inverse()
            for a in matrices:
                assert oracle._transport(("mat", a.entries), acting) == (
                    "mat", (g * a * g_inv).entries)


@pytest.mark.parametrize("text", ["End", "End*End", "E(plus(End))"])
def test_row_maps_once_per_acting_matrix(monkeypatch, text):
    # an acting matrix's row maps are built once per loop, whatever the number
    # of matrix structures, and no call reuses another's; top-level End is
    # counted in each sigma's commutant, which moves no structure
    maps = []  # per group element: the acting matrix of each pair of row maps built
    conjugation_maps, fix_count = oracle._conjugation_maps, oracle._fix_count

    def counted_maps(g):
        maps[-1].append(g.entries)
        return conjugation_maps(g)

    def counted(sigma, structures):
        maps.append([])
        return fix_count(sigma, structures)

    monkeypatch.setattr(oracle, "_conjugation_maps", counted_maps)
    monkeypatch.setattr(oracle, "_fix_count", counted)
    e = parse(text)
    for field in (F2, F3):
        for _call in (1, 2):
            maps.clear()
            assert oracle.zindex_bf(e, field, 2) == cycle_index(e, field, 2)
            assert len(maps) == sum(gl_order(field, n) for n in range(3))
            assert all(len(set(per_sigma)) == len(per_sigma) for per_sigma in maps)
            # past E_0, each sigma acting on a matrix inside a split builds
            # its maps, and sigma acting on End builds none
            assert all(maps[1:]) if text != "End" else not any(maps[1:])


@pytest.mark.parametrize("text", ["End", "Aut", "RepCyclic(2)", "RepCyclic(3)"])
@pytest.mark.parametrize("field, top", [(F2, 3), (F3, 2), (F4, 2), (F5, 1), (F8, 1)],
                         ids=["q2", "q3", "q4", "q5", "q8"])
def test_commutant_count_is_the_transport_count(text, field, top):
    # the Burnside loops count matrix structures on E_n, n >= 1, that lie in
    # the commutant of sigma; transport is the reference
    e = parse(text)
    for n in range(top + 1):
        structures = oracle.enumerate_structures(e, field, n)
        prepared = oracle._prepare(field, n, structures)
        assert isinstance(prepared, frozenset) == (n > 0)
        for sigma in enumerate_matrices(field, n, True):
            acting = oracle._Acting(sigma, {})
            assert oracle._fix_count(sigma, prepared) == sum(
                oracle._transport(s, acting) == s for s in structures)


def test_matrices_of_the_wrong_shape_are_rejected():
    g = Matrix.make(F2, [(1, 1), (0, 1)])
    wrong = [("mat", ((1, 0, 0), (0, 1, 0), (0, 0, 1))), ("mat", ((1,),)),
             ("mat", ((1, 0), (0, 1, 0))), ("L", ("mat", ((1,),))),
             # a matrix on a line of F_2^2 is 1 x 1
             ("prod", (((1, 0),), ("mat", ((1, 0), (0, 1)))), (((0, 1),), ("mat", ((1,),)))),
             ("mset", ((((0, 1),), ("mat", ((1,),))), (((1, 0),), ("mat", ())))),
             ("prod", ((), ("spc",)), (((1, 0), (0, 1)), ("mat", ((1,),))))]
    for s in wrong:
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle.transport(s, g)
    # so does an acting matrix of another dimension, before any enumeration
    e = parse("End")
    for count in (oracle.fix_count_bf, lambda *args: oracle.fix_counts_bf(*args[:3], [args[3]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            count(e, F2, 3, g, 1)
    right = [("mat", ((1, 0), (1, 1))),
             ("prod", (((1, 0),), ("mat", ((1,),))), (((0, 1),), ("mat", ((1,),))))]
    assert [oracle.transport(s, g) for s in right] == [
        ("mat", ((0, 1), (1, 0))), ("prod", (((1, 0),), ("mat", ((1,),))),
                                    (((1, 1),), ("mat", ((1,),))))]


def test_transport_rejects_unknown_tags():
    g = Matrix.identity(F2, 1)
    for s in (("foo",), ("prod2", ((), ("spc",))), ("X", ("spc",))):
        with pytest.raises(ValueError):
            oracle.transport(s, g)


def test_transport_rejects_singular_matrices_and_foreign_entries():
    e = parse("End")
    s = ("mat", ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        oracle.transport(s, Matrix.make(F2, [(1, 1), (1, 1)]))
    g = Matrix.make(F2, [(1, 1), (0, 1)])
    for bad in (2, -1):
        with pytest.raises(ValueError):
            oracle.transport(("mat", ((1, 0), (bad, 1))), g)
    with pytest.raises(ValueError):
        oracle.transport(("vec", (0, -1)), g)
    # a singular sigma raises before the enumeration could exceed its budget
    with pytest.raises(ValueError):
        oracle.fix_count_bf(e, F2, 2, Matrix.make(F2, [(1, 1), (1, 1)]), budget=1)


def test_orbit_count_runs_the_burnside_cross_check(monkeypatch):
    # the Burnside loop counts with _fix_count, fix_count_bf without its check
    e = parse("End")
    calls = []
    fix_count = oracle._fix_count

    def counted(sigma, structures):
        calls.append(sigma)
        return fix_count(sigma, structures)

    monkeypatch.setattr(oracle, "_fix_count", counted)
    assert oracle.orbit_count_bf(e, F2, 2) == 6
    assert sorted(g.entries for g in calls) == sorted(
        g.entries for g in enumerate_matrices(F2, 2, True))
    monkeypatch.setattr(oracle, "_fix_count", lambda *args: 1)
    with pytest.raises(ConsistencyError):
        oracle.orbit_count_bf(e, F2, 2)


def test_range_checks_run_once_per_public_call(monkeypatch):
    top_level = []
    depth = [0]
    check_entries = oracle._check_entries

    def counted(field, s):
        if not depth[0]:
            top_level.append(s)
        depth[0] += 1
        try:
            return check_entries(field, s)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_check_entries", counted)
    e = parse("End")
    # the oracle's own enumeration is never checked
    assert oracle.orbit_count_bf(e, F2, 2) == 6
    oracle.zindex_bf(parse("E(Vplus)"), F2, 2)
    assert top_level == []
    # the public transport checks its structure once per call
    structures = oracle.enumerate_structures(e, F2, 2)
    g = Matrix.make(F2, [(1, 1), (0, 1)])
    for s in structures:
        oracle.transport(s, g)
    assert top_level == structures


@pytest.mark.parametrize("text", ["E(Vplus)", "E(plus(E(Vplus)))", "Vplus * E(Vplus)"])
def test_one_chart_per_acting_matrix_and_part(monkeypatch, text):
    charts = []  # per group element: (acting matrix, part) of each chart computed
    chart_map, fix_count = oracle._chart_map, oracle._fix_count

    def charted(g, rows):
        charts[-1].append((g.entries, rows))
        return chart_map(g, rows)

    def counted(sigma, structures):
        charts.append([])
        return fix_count(sigma, structures)

    monkeypatch.setattr(oracle, "_chart_map", charted)
    monkeypatch.setattr(oracle, "_fix_count", counted)
    e = parse(text)
    assert oracle.zindex_bf(e, F2, 3) == cycle_index(e, F2, 3)
    assert len(charts) == sum(gl_order(F2, n) for n in range(4))
    assert all(len(set(per_sigma)) == len(per_sigma) for per_sigma in charts)


def test_budget_enforced():
    from qspecies.linalg import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        oracle.enumerate_structures(parse("End"), F2, 3, budget=10)


@pytest.mark.parametrize("text, calls", [
    # Elem has a structure in every dimension, so Proj is asked for every n - k
    ("Elem*Proj", [("Elem", k) for k in range(4)] + [("Proj", k) for k in range(4)]),
    # Vplus has none on E_0, so Elem is never asked for on E_3
    ("Vplus*Elem", [("Vplus", k) for k in range(4)] + [("Elem", k) for k in range(3)])])
def test_each_factor_is_enumerated_once_per_dimension(monkeypatch, text, calls):
    seen = []
    enum = oracle._enum

    def counted(e, field, n, budget):
        seen.append((e, n))
        return enum(e, field, n, budget)

    monkeypatch.setattr(oracle, "_enum", counted)
    e = parse(text)
    structures = oracle.enumerate_structures(e, F2, 3)
    assert sorted(seen, key=repr) == sorted([(e, 3)] + [(parse(f), k) for f, k in calls], key=repr)
    assert len(structures) == closed_count(e, F2, 3)


MARKED = [("mark(mark(Vplus))*Elem", "Vplus*Elem"), ("Vplus + mark(Elem)", "Vplus + Elem"),
          ("sym(2, mark(Proj))", "sym(2, Proj)"), ("E(Vplus*mark(Elem))", "E(Vplus*Elem)"),
          ("E(mark(Vplus) + Vplus)", "E(Vplus + Vplus)")]


@pytest.mark.parametrize("text, unmarked", MARKED, ids=[t for t, _u in MARKED])
@pytest.mark.parametrize("field, top", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_marked_structures_weigh_t_per_mark(text, unmarked, field, top):
    # a structure weighs t per M tag, at any depth of sums, products and splits;
    # marks change no orbit
    e, bare = parse(text), parse(unmarked)
    series = weighted_gen_series(e, field, top)
    for n in range(top + 1):
        assert oracle.inventory_bf(e, field, n) == series.coeffs[n] * gl_order(field, n)
        assert oracle.orbit_count_bf(e, field, n) == oracle.orbit_count_bf(bare, field, n)


# -- the class orbit walk and the split screen ----------------------------------

@pytest.mark.parametrize("field, top", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_class_orbits_partition_gl_n(field, top):
    # every element of GL_n once, in the orbit of the class of its invariant
    for n in range(top + 1):
        visited = []
        for c, orbit in oracle._conjugacy_orbits(field, n):
            assert all(invariant_data(sigma) == c.invariant for sigma in orbit)
            visited += [sigma.entries for sigma in orbit]
        assert sorted(visited) == sorted(g.entries for g in enumerate_matrices(field, n, True))


# the stdout of `qspecies oracle zindex EXPR 4`, a literal sum over GL_4(F_2)
ZINDEX_AT_4 = {"Elem": "ef6b56a72865549f556bfa62f4fcd7491ccd0140f4202cbc7307a1e25b4b1a72",
               "Proj": "1982df9abfe6f8469406596d5842f8e99dc9482506bd3eb56ea84a474af50528",
               "RepCyclic(2)": "465de3610d86bcad66d052aafdbf83f8e5939093da177cdadd5184b7a5384a80"}


@pytest.mark.parametrize("text", sorted(ZINDEX_AT_4))
def test_literal_zindex_at_n4(monkeypatch, text):
    # one literal sum per expression: its printed digest, and the series
    # against the closed forms over class representatives
    series = []
    zindex_bf = oracle.zindex_bf

    def kept(*args):
        series.append(zindex_bf(*args))
        return series[-1]

    monkeypatch.setattr(oracle, "zindex_bf", kept)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", "zindex", text, "4"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ZINDEX_AT_4[text]
    assert series == [cycle_index(parse(text), F2, 4)]


def test_literal_zindex_of_aut_over_f3_at_n3():
    # a literal sum over GL_3(F_3), counted in each sigma's commutant
    e = parse("Aut")
    assert oracle.zindex_bf(e, F3, 3) == cycle_index(e, F3, 3)


def _resized(classes):
    return classes[:-1] + (replace(classes[-1], class_size=classes[-1].class_size - 1),)


@pytest.mark.parametrize("edit, message", [
    (_resized, "not its class size"),
    (lambda classes: classes[:-1], r"hold \d+ of the 6 elements"),
    (lambda classes: classes + classes[-1:], "meets another class"),
], ids=["size-changed", "class-dropped", "class-repeated"])
def test_class_table_faults_fail_the_walk(monkeypatch, capsys, edit, message):
    table = oracle.enumerate_classes

    def edited(field, n, kind):
        classes = table(field, n, kind)
        return edit(classes) if n == 2 else classes

    monkeypatch.setattr(oracle, "enumerate_classes", edited)
    with pytest.raises(ConsistencyError, match=message):
        oracle.zindex_bf(parse("Elem"), F2, 2)
    assert main(["oracle", "zindex", "Elem", "2"]) == 1
    assert re.search(message, capsys.readouterr().err)


def test_a_wrong_representative_fails_the_walk(monkeypatch):
    monkeypatch.setattr(ConjClass, "representative", lambda c, field: Matrix.identity(field, c.n))
    with pytest.raises(ConsistencyError, match="representative of .* has another invariant"):
        oracle.zindex_bf(parse("Elem"), F2, 2)


def test_zindex_walk_keeps_the_matrix_budget(capsys):
    assert main(["oracle", "zindex", "Elem", "4", "--budget", "1000"]) == 1
    assert "q^(n^2) = 65536 exceeds budget 1000" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["Vplus*Elem", "Vplus*E(Vplus)", "Vplus + mark(E(Vplus))"])
@pytest.mark.parametrize("field, top", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_screened_fix_count_is_the_transport_count(text, field, top):
    # the screen drops only splits that sigma moves: an mset whose parts sigma
    # permutes among themselves still goes to transport
    e = parse(text)
    for n in range(top + 1):
        structures = oracle.enumerate_structures(e, field, n)
        for sigma in enumerate_matrices(field, n, True):
            acting = oracle._Acting(sigma, {})
            assert oracle._fix_count(sigma, structures) == sum(
                oracle._transport(s, acting) == s for s in structures)
