"""The paper's identities as one table, read by ``verify``, ``selftest`` and pytest.

Each ``check_*`` function is one identity between the closed forms and the
exhaustive oracle, as a function of a field, a maximum dimension and, where it
varies, the expressions it runs over.  It returns one :class:`CheckResult` per
comparison it reports.  ``verify`` runs these rows at the user's field
(:func:`run_checks`).  Each ``selftest`` criterion (:data:`CRITERIA`) calls the
same functions at pinned fields and orders and adds only the values it pins.
Every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import oracle
from .classes import enumerate_classes
from .field import FieldSpec, field_make
from .linalg import enumerate_matrices, gl_order
from .parser import parse, render
from .series import (POLY_T, RATIONAL, PowerSeries, TPoly, aut_type_product,
                     binomial_inverse_power, euler_product, geometric)
from .species import (Assembly, Builtin, Mark, Product, Sum, SymPower, cycle_index,
                      gen_series, type_series, weighted_gen_series)


@dataclass
class CheckResult:
    identity: str
    ok: bool
    detail: str = ""
    values: tuple = ()  # what the row computed, for a criterion that pins it

    def to_json(self) -> dict:
        return {"identity": self.identity, "status": "pass" if self.ok else "fail",
                "detail": self.detail}


def _passed(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)


CORPUS = ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "One", "Zero", "Sub(1)"]
SPECIALIZED = CORPUS + ["Proj*Proj", "Vplus*Vplus", "Elem + Aut", "plus(End)"]

PRODUCT_PAIRS = [
    ("Vplus", "Vplus"), ("Elem", "Proj"), ("Proj", "Proj"), ("Aut", "V"),
    ("Elem", "Elem"), ("Vplus", "Proj"), ("One", "Aut"), ("Bases", "Vplus"),
    ("End", "One"), ("Proj", "Aut"),
]

F2 = field_make(2, 1)
F3 = field_make(3, 1)

# -- the identities ------------------------------------------------------------


def _gen_vs_counts(e, field: FieldSpec, max_dim: int) -> tuple[bool, tuple]:
    """gamma_n * [x^n] gen_series(e) against the oracle's structure counts."""
    series = gen_series(e, field, max_dim)
    counts = tuple(oracle.structure_count_bf(e, field, n) for n in range(max_dim + 1))
    return all(series.coeffs[n] * gl_order(field, n) == counts[n]
               for n in range(max_dim + 1)), counts


def _type_vs_orbits(e, field: FieldSpec, max_dim: int) -> tuple[bool, PowerSeries, tuple]:
    """type_series(e) against the oracle's orbit counts."""
    series = type_series(e, field, max_dim)
    orbits = tuple(oracle.orbit_count_bf(e, field, n) for n in range(max_dim + 1))
    return all(series.coeffs[n] == orbits[n] for n in range(max_dim + 1)), series, orbits


def _joined(values) -> str:
    return ",".join(map(str, values))


def check_gen_series(field: FieldSpec, max_dim: int,
                     exprs: list[str] = CORPUS) -> list[CheckResult]:
    out = []
    for text in exprs:
        ok, counts = _gen_vs_counts(parse(text), field, max_dim)
        out.append(CheckResult(f"gen[{text}] counts q={field.q}", ok, _joined(counts), counts))
    return out


def check_type_series(field: FieldSpec, max_dim: int,
                      exprs: list[str] = CORPUS) -> list[CheckResult]:
    out = []
    for text in exprs:
        ok, _series, orbits = _type_vs_orbits(parse(text), field, max_dim)
        out.append(CheckResult(f"type[{text}] orbit counts q={field.q}", ok, _joined(orbits)))
    return out


def check_aut_type_product(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    prod = aut_type_product(field.q, max_dim)
    counts = tuple(len(enumerate_classes(field, n, "aut")) for n in range(max_dim + 1))
    ok = all(prod.coeffs[n] == counts[n] for n in range(max_dim + 1))
    return [CheckResult(f"type[Aut] = prod (1-x^r)/(1-qx^r) q={field.q}", ok,
                        _joined(counts), counts)]


def check_specializations(field: FieldSpec, max_dim: int,
                          exprs: list[str] = SPECIALIZED) -> list[CheckResult]:
    out = []
    for text in exprs:
        e = parse(text)
        z = cycle_index(e, field, max_dim)
        gen_ok = z.specialize_generating() == gen_series(e, field, max_dim)
        typ_ok = z.specialize_type() == type_series(e, field, max_dim)
        out.append(CheckResult(f"Z-specialize gen[{text}] q={field.q}", gen_ok))
        out.append(CheckResult(f"Z-specialize type[{text}] q={field.q}", typ_ok))
    return out


def check_product_identities(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    """Series of F*G against products of the factors' series, and the oracle's
    count of F*G against the convolution of the factors' counts."""
    out = []
    dims = range(max_dim + 1)
    for a, b in PRODUCT_PAIRS:
        fa, fb = parse(a), parse(b)
        e = Product(fa, fb)
        ok = all(series(e, field, max_dim)
                 == series(fa, field, max_dim) * series(fb, field, max_dim)
                 for series in (gen_series, type_series, cycle_index))
        h = [oracle.structure_count_bf(e, field, n) for n in dims]
        ca = [oracle.structure_count_bf(fa, field, k) for k in dims]
        cb = [oracle.structure_count_bf(fb, field, k) for k in dims]
        conv_ok = all(h[n] == sum(gl_order(field, n)
                                  // (gl_order(field, k) * gl_order(field, n - k))
                                  * ca[k] * cb[n - k] for k in range(n + 1))
                      for n in dims)
        out.append(CheckResult(f"product identities {a}*{b} q={field.q}", ok and conv_ok))
    return out


def check_exponential_formula(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    ok, counts = _gen_vs_counts(Assembly(Builtin("Vplus")), field, max_dim)
    return [CheckResult(f"exp formula splitting counts q={field.q}", ok,
                        _joined(counts), counts)]


def check_assembly_type(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    ok, series, _orbits = _type_vs_orbits(Assembly(Builtin("Vplus")), field, max_dim)
    return [CheckResult(f"assembly type = partition numbers q={field.q}", ok,
                        str([str(c) for c in series.coeffs]))]


def check_multiplicativity(field: FieldSpec, order: int) -> list[CheckResult]:
    lhs = Assembly(Sum(Builtin("Fscalar"), Builtin("Vplus")))
    rhs = Product(Assembly(Builtin("Fscalar")), Assembly(Builtin("Vplus")))
    ok = (gen_series(lhs, field, order) == gen_series(rhs, field, order)
          and type_series(lhs, field, order) == type_series(rhs, field, order))
    return [CheckResult(f"E(F+G) = E(F)*E(G) q={field.q}", ok, f"order {order}")]


def check_weighted(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    e = Assembly(Mark(Builtin("Vplus")))
    series = weighted_gen_series(e, field, max_dim)
    ok = all(series.coeffs[n] * Fraction(gl_order(field, n))
             == oracle.inventory_bf(e, field, n) for n in range(max_dim + 1))
    ok = ok and series.subs_t(1) == gen_series(Assembly(Builtin("Vplus")), field, max_dim)
    return [CheckResult(f"weighted splittings q={field.q}", ok, str(series), series.coeffs)]


# -- verify: the identities at the user's field ---------------------------------

def run_checks(q: int = 2, ext_k: int = 1, max_dim: int = 3) -> list[CheckResult]:
    """The verify rows over field_make(q, ext_k), in report order; three cap max_dim."""
    field = field_make(q, ext_k)
    return [*check_gen_series(field, max_dim),
            *check_type_series(field, max_dim),
            *check_aut_type_product(field, max_dim),
            *check_specializations(field, min(max_dim, 3)),
            *check_product_identities(field, max_dim),
            *check_exponential_formula(field, max_dim),
            *check_assembly_type(field, max_dim),
            *check_multiplicativity(field, min(max_dim, 3)),
            *check_weighted(field, min(max_dim, 2))]


# -- selftest: the identities at pinned fields and orders, with pinned values ----


def criterion_1_gl_order() -> CheckResult:
    expected = [1, 1, 6, 168]
    closed = [gl_order(F2, n) for n in range(4)]
    brute = [sum(1 for _ in enumerate_matrices(F2, n, True)) for n in range(4)]
    return CheckResult("1. gl_order matches exhaustive invertible counts",
                       closed == expected == brute, f"{closed}")


def criterion_2_gen_closed_forms() -> CheckResult:
    names = CORPUS + ["Sub(2)"]
    ok = _passed(check_gen_series(F2, 3, names) + check_gen_series(F3, 2, names))
    return CheckResult("2. generating-series closed forms vs oracle counts", ok,
                       "q=2 n<=3, q=3 n<=2")


def criterion_3_aut_type() -> CheckResult:
    [r2], [r3] = check_aut_type_product(F2, 3), check_aut_type_product(F3, 2)
    ok = r2.ok and r3.ok and r2.values == (1, 1, 3, 6) and r3.values == (1, 2, 8)
    # cross-check against literal conjugacy classification of the matrices
    brute = []
    for n in range(4):
        invs = {str(c) for c in
                (oracle.invariant_data(m) for m in enumerate_matrices(F2, n, True))}
        brute.append(len(invs))
    return CheckResult("3. Aut type series = class counts (q=2: 1,1,3,6; q=3: 1,2,8)",
                       ok and brute == [1, 1, 3, 6], f"brute q=2: {brute}")


def criterion_4_specializations() -> CheckResult:
    exprs = SPECIALIZED + ["Vplus^2"]
    ok = _passed(check_specializations(F2, 3, exprs) + check_type_series(F2, 3, exprs))
    return CheckResult("4. Z specializations recover gen and oracle type series", ok,
                       f"{len(exprs)} expressions, q=2, N=3")


def criterion_5_products() -> CheckResult:
    results = check_product_identities(F2, 3)
    ok = _passed(results) and len(results) == len(PRODUCT_PAIRS) == 10
    return CheckResult("5. product identities for 10 corpus pairs", ok, "q=2 n<=3")


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
    return CheckResult("6. |F^[m]| = |F^m|/m! (Vplus, plus(Proj); m,n <= 3)", ok)


def criterion_7_exponential_formula() -> CheckResult:
    [r] = check_exponential_formula(F2, 3)
    inner = PowerSeries(RATIONAL, 3, [Fraction(0)] + [Fraction(1, gl_order(F2, m))
                                                      for m in range(1, 4)])
    series = inner.exp()
    ok = (r.ok and r.values == (1, 1, 4, 57)
          and all(series.coeffs[n] * gl_order(F2, n) == r.values[n] for n in range(4)))
    return CheckResult("7. exponential formula: splitting counts 1,1,4,57", ok,
                       f"{list(r.values)}")


def criterion_8_assembly_type() -> CheckResult:
    sp = Assembly(Builtin("Vplus"))
    series = type_series(sp, F2, 5)
    partition_ok = [c.numerator for c in series.coeffs] == [1, 1, 2, 3, 5, 7]
    orbit_ok = _passed(check_assembly_type(F2, 3))
    forms_ok = True
    for text in ("Vplus", "Proj", "Fscalar", "Fstar", "plus(Elem)"):
        f = parse(text)
        tf = type_series(f, F2, 8)
        exponents = {m: tf.coeffs[m].numerator for m in range(1, 9)}
        lhs = euler_product(exponents, 8)
        rhs = PowerSeries.zero(RATIONAL, 8)
        for n in range(1, 9):
            rhs = rhs + tf.adams(n).scale(Fraction(1, n))
        if lhs != rhs.exp() or type_series(Assembly(f), F2, 8) != lhs:
            forms_ok = False
    return CheckResult("8. assembly type series: partitions + Euler-product forms agree",
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
    return CheckResult("9. diagonalization examples (E(Fscalar), E(Fstar)) at q=2", ok,
                       f"counts {counts_d}, orbits {orbits_d}")


def criterion_10_multiplicativity() -> CheckResult:
    return CheckResult("10. E(F+G) = E(F)*E(G) for gen and type, order 6",
                       _passed(check_multiplicativity(F2, 6)))


def criterion_11_weighted() -> CheckResult:
    t = TPoly.t()
    expected = PowerSeries(POLY_T, 2, [TPoly.const(1), t, t / 6 + (t * t) / 2])
    [r] = check_weighted(F2, 2)
    return CheckResult("11. weighted splittings: 1 + t*x + (t/6 + t^2/2)*x^2",
                       r.ok and r.values == expected.coeffs, r.detail)


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
    return CheckResult("12. centralizer formula vs brute force; class sizes sum to gamma_n",
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
        if oracle.transport(s, ident) != s:
            ok = False
        for g in units[:3]:
            for h in units[:3]:
                lhs = oracle.transport(s, g * h)
                rhs = oracle.transport(oracle.transport(s, h), g)
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
    return CheckResult("13. property suites (functor laws, integrality, round trips)", ok)


CRITERIA = (
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
)
