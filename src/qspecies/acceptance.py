"""The acceptance suite: every release criterion as an executable check.

Each criterion returns CheckResult(s) with exact (tolerance-free)
comparisons; the pytest wrapper asserts them one by one and the CLI
``selftest`` command prints one line per criterion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import oracle
from .classes import enumerate_classes
from .field import field_make
from .linalg import enumerate_matrices, gl_order
from .parser import parse, render
from .series import (POLY_T, PowerSeries, RATIONAL, TPoly, aut_type_product,
                     euler_product, geometric, binomial_inverse_power)
from .species import (Assembly, Builtin, Mark, Product, SymPower, cycle_index,
                      gen_series, type_series, weighted_gen_series)
from .verify import (CheckResult, _check, check_assembly_type, check_multiplicativity,
                     check_weighted)

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def criterion_1_gl_order() -> CheckResult:
    expected = [1, 1, 6, 168]
    closed = [gl_order(F2, n) for n in range(4)]
    brute = [sum(1 for _ in enumerate_matrices(F2, n, True)) for n in range(4)]
    return _check("1. gl_order matches exhaustive invertible counts",
                  closed == expected == brute, f"{closed}")


def criterion_2_gen_closed_forms() -> CheckResult:
    names = ["Elem", "Proj", "End", "Aut", "Bases", "Sub(1)", "Sub(2)",
             "V", "Vplus", "One", "Zero"]
    ok = True
    for field, max_dim in ((F2, 3), (F3, 2)):
        for name in names:
            e = parse(name)
            series = gen_series(e, field, max_dim)
            for n in range(max_dim + 1):
                closed = series.coeffs[n] * gl_order(field, n)
                if closed != oracle.structure_count_bf(e, field, n):
                    ok = False
    return _check("2. generating-series closed forms vs oracle counts", ok,
                  "q=2 n<=3, q=3 n<=2")


def criterion_3_aut_type() -> CheckResult:
    ok = (aut_type_product(2, 3).coeffs == tuple(map(Fraction, (1, 1, 3, 6)))
          and aut_type_product(3, 2).coeffs == tuple(map(Fraction, (1, 2, 8)))
          and [len(enumerate_classes(F2, n)) for n in range(4)] == [1, 1, 3, 6]
          and [len(enumerate_classes(F3, n)) for n in range(3)] == [1, 2, 8])
    # cross-check against literal conjugacy classification of the matrices
    brute = []
    for n in range(4):
        invs = {str(c) for c in
                (oracle.invariant_data(m) for m in enumerate_matrices(F2, n, True))}
        brute.append(len(invs))
    return _check("3. Aut type series = class counts (q=2: 1,1,3,6; q=3: 1,2,8)",
                  ok and brute == [1, 1, 3, 6], f"brute q=2: {brute}")


def criterion_4_specializations() -> CheckResult:
    exprs = ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "One", "Zero",
             "Sub(1)", "Proj*Proj", "Vplus*Vplus", "Elem + Aut", "plus(End)",
             "Vplus^2"]
    ok = True
    for text in exprs:
        e = parse(text)
        z = cycle_index(e, F2, 3)
        if z.specialize_generating() != gen_series(e, F2, 3):
            ok = False
        bf_types = PowerSeries(RATIONAL, 3, [Fraction(oracle.orbit_count_bf(e, F2, n))
                                             for n in range(4)])
        if z.specialize_type() != bf_types:
            ok = False
    return _check("4. Z specializations recover gen and oracle type series", ok,
                  f"{len(exprs)} expressions, q=2, N=3")


def criterion_5_products() -> CheckResult:
    from .verify import PRODUCT_PAIRS, check_product_identities
    results = check_product_identities(F2, 3)
    ok = all(r.ok for r in results) and len(results) == len(PRODUCT_PAIRS) == 10
    return _check("5. product identities for 10 corpus pairs", ok, "q=2 n<=3")


def criterion_6_sym_power() -> CheckResult:
    ok = True
    for base_text in ("Vplus", "plus(Proj)"):
        base = parse(base_text)
        for m in range(1, 4):
            for n in range(4):
                sym_count = oracle.structure_count_bf(SymPower(base, m), F2, n)
                pow_count = oracle.structure_count_bf(
                    parse(f"({render(base)})^{m}"), F2, n)
                if pow_count % factorial(m) or sym_count != pow_count // factorial(m):
                    ok = False
    return _check("6. |F^[m]| = |F^m|/m! (Vplus, plus(Proj); m,n <= 3)", ok, "")


def criterion_7_exponential_formula() -> CheckResult:
    sp = Assembly(Builtin("Vplus"))
    counts = [oracle.structure_count_bf(sp, F2, n) for n in range(4)]
    inner = PowerSeries(RATIONAL, 3, [Fraction(0)] + [Fraction(1, gl_order(F2, m))
                                                      for m in range(1, 4)])
    series = inner.exp()
    ok = (counts == [1, 1, 4, 57]
          and all(series.coeffs[n] * gl_order(F2, n) == counts[n] for n in range(4)))
    return _check("7. exponential formula: splitting counts 1,1,4,57", ok, f"{counts}")


def criterion_8_assembly_type() -> CheckResult:
    sp = Assembly(Builtin("Vplus"))
    series = type_series(sp, F2, 5)
    partition_ok = [c.numerator for c in series.coeffs] == [1, 1, 2, 3, 5, 7]
    orbit_ok = check_assembly_type(F2, 3).ok
    forms_ok = True
    for text in ("Vplus", "Proj", "Fscalar", "Fstar", "plus(Elem)"):
        f = parse(text)
        tf = type_series(f, F2, 8)
        exponents = {m: tf.coeffs[m].numerator for m in range(1, 9)}
        lhs = euler_product(exponents, 8)
        rhs = PowerSeries.zero(RATIONAL, 8)
        for n in range(1, 9):
            rhs = rhs + tf.subs_power(n).scale(Fraction(1, n))
        if lhs != rhs.exp() or type_series(Assembly(f), F2, 8) != lhs:
            forms_ok = False
    return _check("8. assembly type series: partitions + Euler-product forms agree",
                  partition_ok and orbit_ok and forms_ok,
                  str([c.numerator for c in series.coeffs]))


def criterion_9_diagonalizations() -> CheckResult:
    d = Assembly(Builtin("Fscalar"))
    dx = Assembly(Builtin("Fstar"))
    exp_2x = PowerSeries.from_coeffs(RATIONAL, 2, [0, 2]).exp()
    exp_x = PowerSeries.from_coeffs(RATIONAL, 2, [0, 1]).exp()
    counts_d = [oracle.structure_count_bf(d, F2, n) for n in range(3)]
    orbits_d = [oracle.orbit_count_bf(d, F2, n) for n in range(3)]
    ok = (gen_series(d, F2, 2) == exp_2x
          and counts_d == [1, 2, 12]
          and type_series(d, F2, 2) == binomial_inverse_power(RATIONAL, 2, 1, 2)
          and orbits_d == [1, 2, 3]
          and gen_series(dx, F2, 2) == exp_x
          and type_series(dx, F2, 2) == geometric(RATIONAL, 2))
    return _check("9. diagonalization examples (E(Fscalar), E(Fstar)) at q=2", ok,
                  f"counts {counts_d}, orbits {orbits_d}")


def criterion_10_multiplicativity() -> CheckResult:
    return _check("10. E(F+G) = E(F)*E(G) for gen and type, order 6",
                  check_multiplicativity(F2, 6).ok, "")


def criterion_11_weighted() -> CheckResult:
    t = TPoly.t()
    expected = PowerSeries(POLY_T, 2, [TPoly.const(1), t, t / 6 + (t * t) / 2])
    checked = check_weighted(F2, 2)
    series = weighted_gen_series(Assembly(Mark(Builtin("Vplus"))), F2, 2)
    return _check("11. weighted splittings: 1 + t*x + (t/6 + t^2/2)*x^2",
                  checked.ok and series == expected, str(series))


def criterion_12_centralizers() -> CheckResult:
    ok = True
    for field, max_dim in ((F2, 3), (F3, 2)):
        for n in range(max_dim + 1):
            units = list(enumerate_matrices(field, n, True))
            for c in enumerate_classes(field, n, "aut"):
                rep = c.representative(field)
                brute = sum(1 for g in units if g * rep == rep * g)
                if brute != c.centralizer_order:
                    ok = False
    sums_ok = True
    for q, k in ((2, 1), (3, 1), (2, 2)):
        field = field_make(q, k)
        for n in range(7):
            if sum(c.class_size for c in enumerate_classes(field, n)) != gl_order(field, n):
                sums_ok = False
    return _check("12. centralizer formula vs brute force; class sizes sum to gamma_n",
                  ok and sums_ok, "q=2 n<=3, q=3 n<=2; sums n<=6 q in {2,3,4}")


def criterion_13_properties() -> CheckResult:
    # compact versions of the pytest property suites
    ok = True
    # functor laws, sampled
    e = Product(Builtin("Vplus"), Builtin("Elem"))
    structures = oracle.enumerate_structures(e, F2, 2)
    units = list(enumerate_matrices(F2, 2, True))
    ident = units[0] ** 0
    for s, _w in structures:
        if oracle.transport(e, s, ident) != s:
            ok = False
        for g in units[:3]:
            for h in units[:3]:
                lhs = oracle.transport(e, s, g * h)
                rhs = oracle.transport(e, oracle.transport(e, s, h), g)
                if lhs != rhs:
                    ok = False
    # Burnside integrality
    for name in ("Elem", "Proj", "End", "Aut", "Bases"):
        ts = type_series(Builtin(name), F2, 4)
        if any(c.denominator != 1 or c < 0 for c in ts.coeffs):
            ok = False
    # exp/log round trip
    s = PowerSeries.from_coeffs(RATIONAL, 6, [0, 1, Fraction(1, 3), 2, 0, 5, 7])
    if s.exp().log() != s:
        ok = False
    # parse/render round trip
    for text in ("E(Vplus)", "Proj*Proj + Aut", "sym(2, plus(Proj))",
                 "mark(Vplus)", "(Elem + Proj)^2", "Sub(2)*V"):
        tree = parse(text)
        if parse(render(tree)) != tree:
            ok = False
    return _check("13. property suites (functor laws, integrality, round trips)",
                  ok, "")


ALL_CRITERIA = [
    criterion_1_gl_order,
    criterion_2_gen_closed_forms,
    criterion_3_aut_type,
    criterion_4_specializations,
    criterion_5_products,
    criterion_6_sym_power,
    criterion_7_exponential_formula,
    criterion_8_assembly_type,
    criterion_9_diagonalizations,
    criterion_10_multiplicativity,
    criterion_11_weighted,
    criterion_12_centralizers,
    criterion_13_properties,
]


def run_acceptance() -> list[CheckResult]:
    return [fn() for fn in ALL_CRITERIA]
