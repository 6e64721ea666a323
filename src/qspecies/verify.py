"""The paper's identities as one table, read by ``verify``, ``selftest`` and pytest.

Each ``check_*`` function is one identity between the closed forms and the
exhaustive oracle, as a function of a field, a maximum dimension and, where it
varies, the expressions it runs over.  It returns one :class:`CheckResult` per
comparison, with the values it computed.  ``verify`` runs the rows at the
user's field (:func:`run_checks`).  ``selftest`` is the table :data:`SELFTEST`:
each row calls the same functions at pinned fields and sizes and pins some of
their values, and :func:`run_selftest` gives one result per row.  Every
comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .classes import enumerate_classes
from .field import FieldSpec, field_make
from .linalg import gl_order
from .parser import parse
from .series import RATIONAL, PowerSeries, TPoly, aut_type_product, euler_product
from .species import (Assembly, Builtin, Mark, Product, Sum, cycle_index, gen_series,
                      type_series, weighted_gen_series)


@dataclass
class CheckResult:
    identity: str
    ok: bool
    detail: str = ""
    values: tuple = ()  # what the row computed, for a selftest row that pins it

    def to_json(self) -> dict:
        return {"identity": self.identity, "status": "pass" if self.ok else "fail",
                "detail": self.detail}


CORPUS = ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "One", "Zero", "Sub(1)"]
SPECIALIZED = CORPUS + ["Proj*Proj", "Vplus*Vplus", "Elem + Aut", "plus(End)"]
EULER_BASES = ["Vplus", "Proj", "Fscalar", "Fstar", "plus(Elem)"]

PRODUCT_PAIRS = [
    ("Vplus", "Vplus"), ("Elem", "Proj"), ("Proj", "Proj"), ("Aut", "V"),
    ("Elem", "Elem"), ("Vplus", "Proj"), ("One", "Aut"), ("Bases", "Vplus"),
    ("End", "One"), ("Proj", "Aut"),
]

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
        out.append(CheckResult(f"type[{text}] orbit counts q={field.q}", ok,
                               _joined(orbits), orbits))
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
    ok, series, orbits = _type_vs_orbits(Assembly(Builtin("Vplus")), field, max_dim)
    return [CheckResult(f"assembly type = partition numbers q={field.q}", ok,
                        str([str(c) for c in series.coeffs]), orbits)]


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


def check_euler_product(field: FieldSpec, order: int,
                        exprs: list[str] = EULER_BASES) -> list[CheckResult]:
    """type[E(F)] against the Euler product of F's type coefficients
    prod_m 1/(1-x^m)^(f_m), and against exp(sum_r Psi_r(f)/r) over the
    rationals: the first two share the integral Euler transform, so the third
    is the independent route."""
    out = []
    for text in exprs:
        f = parse(text)
        tf = type_series(f, field, order)
        product = euler_product({m: tf.coeffs[m].numerator for m in range(1, order + 1)},
                                order)
        adams_sum = PowerSeries.zero(RATIONAL, order)
        for r in range(1, order + 1):
            adams_sum = adams_sum + tf.adams(r).scale(Fraction(1, r))
        te = type_series(Assembly(f), field, order)
        out.append(CheckResult(f"type[E({text})] = Euler product q={field.q}",
                               te == product == adams_sum.exp(), values=te.coeffs))
    return out


def check_centralizers(field: FieldSpec, max_dim: int) -> list[CheckResult]:
    """Each class's centralizer order against the oracle's count of the
    invertible matrices its representative fixes by conjugation, and the class
    sizes' sum against gamma_n."""
    out = []
    for n in range(max_dim + 1):
        classes = enumerate_classes(field, n, "aut")
        orders = tuple(c.centralizer_order for c in classes)
        fixed = oracle.fix_counts_bf(Builtin("Aut"), field, n,
                                     [c.representative(field) for c in classes])
        ok = (orders == tuple(fixed)
              and sum(c.class_size for c in classes) == gl_order(field, n))
        out.append(CheckResult(f"centralizers of GL_{n} classes q={field.q}", ok,
                               _joined(orders), orders))
    return out


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


# -- selftest: the identities at pinned fields and sizes, with pinned values ----

F2 = field_make(2, 1)
F3 = field_make(3, 1)
SYM_POWERS = [text for base in ("Vplus", "plus(Proj)") for m in (1, 2, 3)
              for text in (f"sym({m}, {base})", f"({base})^{m}")]

# (label, [(check, field, size, exprs or None)], {identity: pinned values})
SELFTEST = (
    ("1. gl_order matches exhaustive invertible counts",
     [(check_gen_series, F2, 3, ["Aut"])],
     {"gen[Aut] counts q=2": (1, 1, 6, 168)}),
    ("2. generating-series closed forms vs oracle counts",
     [(check_gen_series, F2, 3, CORPUS + ["Sub(2)"]),
      (check_gen_series, F3, 2, CORPUS + ["Sub(2)"])],
     {}),
    ("3. Aut type series = class counts (q=2: 1,1,3,6; q=3: 1,2,8)",
     [(check_aut_type_product, F2, 3, None), (check_aut_type_product, F3, 2, None),
      (check_type_series, F2, 3, ["Aut"])],
     {"type[Aut] = prod (1-x^r)/(1-qx^r) q=2": (1, 1, 3, 6),
      "type[Aut] = prod (1-x^r)/(1-qx^r) q=3": (1, 2, 8),
      "type[Aut] orbit counts q=2": (1, 1, 3, 6)}),
    ("4. Z specializations recover gen and oracle type series",
     [(check_specializations, F2, 3, SPECIALIZED + ["Vplus^2"]),
      (check_type_series, F2, 3, SPECIALIZED + ["Vplus^2"])],
     {}),
    ("5. product identities for 10 corpus pairs",
     [(check_product_identities, F2, 3, None)],
     {}),
    ("6. |F^[m]| = |F^m|/m! (Vplus, plus(Proj); m,n <= 3)",
     [(check_gen_series, F2, 3, SYM_POWERS)],
     {}),
    ("7. exponential formula: splitting counts 1,1,4,57",
     [(check_exponential_formula, F2, 3, None)],
     {"exp formula splitting counts q=2": (1, 1, 4, 57)}),
    ("8. assembly type series: partitions + Euler-product forms agree",
     [(check_assembly_type, F2, 3, None), (check_euler_product, F2, 8, None)],
     {"assembly type = partition numbers q=2": (1, 1, 2, 3),
      "type[E(Vplus)] = Euler product q=2": (1, 1, 2, 3, 5, 7, 11, 15, 22)}),
    ("9. diagonalization examples (E(Fscalar), E(Fstar)) at q=2",
     [(check_gen_series, F2, 2, ["E(Fscalar)", "E(Fstar)"]),
      (check_type_series, F2, 2, ["E(Fscalar)", "E(Fstar)"])],
     {"gen[E(Fscalar)] counts q=2": (1, 2, 12),
      "type[E(Fscalar)] orbit counts q=2": (1, 2, 3),
      "gen[E(Fstar)] counts q=2": (1, 1, 3),
      "type[E(Fstar)] orbit counts q=2": (1, 1, 1)}),
    ("10. E(F+G) = E(F)*E(G) for gen and type, order 6",
     [(check_multiplicativity, F2, 6, None)],
     {}),
    ("11. weighted splittings: 1 + t*x + (t/6 + t^2/2)*x^2",
     [(check_weighted, F2, 2, None)],
     {"weighted splittings q=2": (TPoly({0: 1}), TPoly({1: 1}),
                                  TPoly({1: Fraction(1, 6), 2: Fraction(1, 2)}))}),
    ("12. centralizer formula vs brute force; class sizes sum to gamma_n",
     [(check_centralizers, F2, 3, None), (check_centralizers, F3, 2, None)],
     {}),
)


def run_selftest(rows=SELFTEST) -> list[CheckResult]:
    """One result per row: it passes when every check it calls passes and
    every pinned identity computed exactly its pinned values."""
    out = []
    for label, calls, pins in rows:
        results = [r for check, field, size, exprs in calls
                   for r in (check(field, size) if exprs is None
                             else check(field, size, exprs))]
        values = {r.identity: r.values for r in results}
        failed = [r.identity for r in results if not r.ok]
        failed += [identity for identity, pinned in pins.items()
                   if values.get(identity) != pinned]
        where = ", ".join(dict.fromkeys(f"q={f.q} n<={size}" for _c, f, size, _e in calls))
        out.append(CheckResult(label, not failed,
                               where + "".join(f"; FAIL {i}" for i in failed)))
    return out
