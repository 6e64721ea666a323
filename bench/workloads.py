"""The benchmark's workloads: qspecies CLI queries and the checks on their output.

Every query carries the sha256 of the seed's stdout, so a change that alters
any output fails at once.  Where one exists, a query also carries a check
against values with an independent source (a known sequence or a theorem,
computed here without qspecies), or against the literal oracle at the orders
it reaches.  Each check names its source.  A check returns None when the
output agrees, else the reason it does not.

The three workloads keep apart the code paths whose costs differ by orders of
magnitude: closed forms over class tables, production queries that fall back
to the oracle, and the literal oracle itself.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


# -- independent values ---------------------------------------------------------

def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def product_series(order: int, q: int, numerator: bool) -> list[int]:
    """Coefficients of prod_{r>=1} (1 - x^r)^[numerator] / (1 - q x^r).

    With numerator: conjugacy classes of GL_n(F_q) (Macdonald).  Without:
    similarity classes of n x n matrices over F_q; q = 1 gives partitions."""
    coeffs = [1] + [0] * order
    for r in range(1, order + 1):
        if numerator:
            for n in range(order, r - 1, -1):
                coeffs[n] -= coeffs[n - r]
        for n in range(r, order + 1):
            coeffs[n] += q * coeffs[n - r]
    return coeffs


def partitions(order: int) -> list[int]:
    return product_series(order, 1, False)


def convolve(a: list[int], b: list[int]) -> list[int]:
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def exp_formula(q: int, order: int) -> list[Fraction]:
    """Coefficients of exp(sum_{n>=1} x^n / gamma_n): the generating series of
    E(Vplus), by the recurrence n a_n = sum_k k b_k a_(n-k)."""
    b = [Fraction(0)] + [Fraction(1, gl_order(q, n)) for n in range(1, order + 1)]
    a = [Fraction(1)]
    for n in range(1, order + 1):
        a.append(sum(k * b[k] * a[n - k] for k in range(1, n + 1)) / n)
    return a


# -- output parsers -------------------------------------------------------------

_TERM = re.compile(r"(?:(.*)\*)?x(?:\^(\d+))?")


def series_terms(text: str) -> list[tuple[int, str]]:
    """(n, coefficient text) of a series printed as '1 + 2/3*x^2 + (t+1)*x^3'."""
    out = []
    for term in text.strip().split(" + "):
        m = _TERM.fullmatch(term)
        if m is None:
            out.append((0, term))
        else:
            out.append((int(m[2] or 1), m[1] or "1"))
    return out


def series_coeffs(text: str, order: int) -> list[Fraction]:
    coeffs = [Fraction(0)] * (order + 1)
    for n, c in series_terms(text):
        coeffs[n] = Fraction(c)
    return coeffs


def tpoly_coeffs(text: str) -> dict[int, Fraction]:
    """Exponent -> coefficient of a polynomial in t printed as '(1/2*t^2+1/6*t)'."""
    out = {}
    for mono in re.findall(r"[+-]?[^+-]+", text.strip("()")):
        c, has_t, power = mono.partition("t")
        c = c.rstrip("*").lstrip("+")
        out[int(power[1:]) if power else int(bool(has_t))] = (
            Fraction(c) if c not in ("", "-") else Fraction(f"{c}1"))
    return out


_FACTOR = re.compile(r"x\[([^,\]]+),(\d+)\](?:\^(\d+))?")


def poly_degree(phi: str) -> int:
    powers = [int(p) for p in re.findall(r"z\^(\d+)", phi)]
    return max(powers, default=1 if "z" in phi else 0)


def z_terms(text: str) -> dict[str, Fraction]:
    """Monomial -> coefficient of a cycle index printed one 'c * monomial' a line."""
    terms = {}
    for line in text.strip().splitlines():
        if line == "0":
            continue
        c, monomial = line.split(" * ", 1)
        terms[monomial] = Fraction(c)
    return terms


def z_degree(monomial: str) -> int:
    return sum(int(i) * int(e or 1) * poly_degree(phi)
               for phi, i, e in _FACTOR.findall(monomial))


def table_column(text: str, key: str) -> list[int]:
    """The KEY column of 'n=0  KEY=1' lines."""
    return [int(m) for m in re.findall(rf"{key}=(\d+)", text)]


# -- checks ---------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    source: str
    test: Callable[[str], "str | None"]


def _compare(got, want) -> "str | None":
    def show(v):
        return "[" + ", ".join(map(str, v)) + "]" if isinstance(v, list) else str(v)
    return None if got == want else f"got {show(got)}, want {show(want)}"


def series_is(values: list, source: str) -> Check:
    order = len(values) - 1
    return Check(source, lambda out: _compare(series_coeffs(out, order),
                                              [Fraction(v) for v in values]))


def z_type_is(values: list[int], source: str) -> Check:
    """The type specialisation x_{phi,i} -> x^(i deg phi) of a cycle index."""
    def test(out: str):
        got = [Fraction(0)] * len(values)
        for monomial, c in z_terms(out).items():
            got[z_degree(monomial)] += c
        return _compare(got, [Fraction(v) for v in values])
    return Check(source, test)


def z_low_is(oracle_lines: str, n: int, source: str) -> Check:
    """The terms of degree <= n equal the literal oracle's cycle index to order n."""
    want = z_terms(oracle_lines)

    def test(out: str):
        got = {m: c for m, c in z_terms(out).items() if z_degree(m) <= n}
        return _compare(got, want)
    return Check(source, test)


def column_is(key: str, values: list[int], source: str) -> Check:
    return Check(source, lambda out: _compare(table_column(out, key), values))


def weighted_is(q: int, order: int, source: str) -> Check:
    """At t = 1 the weighted series of E(mark(Vplus)) is that of E(Vplus), and
    its t^1 coefficient is 1/gamma_n: one part, the whole space."""
    def test(out: str):
        terms = [{} for _ in range(order + 1)]
        for n, c in series_terms(out):
            terms[n] = tpoly_coeffs(c)
        at_one = [sum(t.values(), Fraction(0)) for t in terms]
        single = [t.get(1, Fraction(0)) for t in terms[1:]]
        return (_compare(at_one, exp_formula(q, order))
                or _compare(single, [Fraction(1, gl_order(q, n)) for n in range(1, order + 1)]))
    return Check(source, test)


def end_classes_are(q: int, n: int, source: str) -> Check:
    """Class count, sum of class sizes = q^(n^2), size * centralizer = |GL_n|."""
    def test(out: str):
        rows = [(int(c), int(s)) for c, s in re.findall(r"centralizer=(\d+)  size=(\d+)", out)]
        return (_compare(len(rows), product_series(n, q, False)[n])
                or _compare(sum(s for _c, s in rows), q ** (n * n))
                or _compare({c * s for c, s in rows}, {gl_order(q, n)}))
    return Check(source, test)


def all_checks_pass(count: int, source: str) -> Check:
    def test(out: str):
        lines = out.strip().splitlines()
        return (_compare(len(lines), count)
                or _compare([ln for ln in lines if not ln.startswith("[PASS]")], []))
    return Check(source, test)


# -- workloads ----------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    digest: str                  # sha256 of the seed's stdout
    checks: tuple[Check, ...] = ()


@dataclass(frozen=True)
class Workload:
    why: str
    queries: tuple[Query, ...]
    probe: tuple[tuple[str, str], ...] = ()   # (command, outcome at the seed)


def query(command: str, digest: str, *checks: Check) -> Query:
    return Query(tuple(shlex.split(command)), digest, checks)


A006952 = [1, 1, 3, 6, 14, 27, 60, 117, 246, 490, 1002, 1998, 4053]
TRANSITIVE = "GL_n is transitive on lines and on k-subspaces: one type for n >= k"
PARTITIONS = "type(E(Vplus)) = partition numbers"
TWO_PARTS = "splittings into two parts up to isomorphism: floor(n/2)"

# Cycle indices printed by `qspecies oracle zindex EXPR N`, a literal sum over GL_n.
ORACLE_Z_ELEM_PROJ_3 = """\
1 * x[z+1,1]
5/2 * x[z+1,1]^2
1/2 * x[z+1,2]
19/8 * x[z+1,1]*x[z+1,2]
2/3 * x[z+1,1]*x[z^2+z+1,1]
41/24 * x[z+1,1]^3
1/4 * x[z+1,3]
"""
ORACLE_Z_PROJ3_3 = "1 * x[z+1,1]^3\n"
ORACLE_Z_END_3 = """\
1 * 1
2 * x[z+1,1]
8/3 * x[z+1,1]^2
2 * x[z+1,2]
4/3 * x[z^2+z+1,1]
4 * x[z+1,1]*x[z+1,2]
8/3 * x[z+1,1]*x[z^2+z+1,1]
64/21 * x[z+1,1]^3
2 * x[z+1,3]
8/7 * x[z^3+z+1,1]
8/7 * x[z^3+z^2+1,1]
"""
ORACLE_Z_ELEM_PROJ_2_Q3 = """\
1/2 * x[z+2,1]
1/2 * x[z+1,1]
3/2 * x[z+2,1]*x[z+1,1]
5/6 * x[z+2,1]^2
1/6 * x[z+2,2]
1/3 * x[z+1,1]^2
1/6 * x[z+1,2]
"""
ORACLE_Z_SYM2_VPLUS_3 = """\
1/2 * x[z+1,1]^2
1/2 * x[z+1,2]
1/2 * x[z+1,1]*x[z+1,2]
1/3 * x[z+1,1]*x[z^2+z+1,1]
1/6 * x[z+1,1]^3
"""
ORACLE_Z_SUB2_3 = """\
1/6 * x[z+1,1]^2
1/2 * x[z+1,2]
1/3 * x[z^2+z+1,1]
3/8 * x[z+1,1]*x[z+1,2]
1/3 * x[z+1,1]*x[z^2+z+1,1]
1/24 * x[z+1,1]^3
1/4 * x[z+1,3]
"""
# `qspecies oracle count "RepCyclic(2)" 4`
ORACLE_REPCYCLIC2_COUNTS = [1, 1, 4, 22, 316]


def _elem_proj_types(order: int) -> list[int]:
    # type(Elem) = 1, 2, 2, ... (zero vector or not); type(Proj) = 0, 1, 1, ...
    return convolve([1] + [2] * order, [0] + [1] * order)


def _over_gl(q: int, counts: list[int]) -> list[Fraction]:
    return [Fraction(c, gl_order(q, n)) for n, c in enumerate(counts)]


# Frontier cases: run once each under a deadline in the traced run, recorded, not gated.
PROBE = (
    ('zindex "E(Vplus)" --order 4', "killed after more than 300 s at the seed"),
    ('type "sym(2,Vplus)" --order 6', "still running after 60 s at the seed"),
    ('gen "RepCyclic(2)" --order 5', "fails on the enumeration budget at the seed"),
    ('type "RepCyclic(3)" --order 3 --q 3', "25.7 s at the seed"),
)


WORKLOADS = {
    "closed_forms": Workload(
        "oracle-free gen/type/zindex/classes over F_2, F_3, F_4: class tables, "
        "centralizer orders, cycle index and series products; the oracle does no work",
        (
            query("type Proj --order 12",
                  "c9ba60b63bafd608d5d4b354dceca967b178854397730de39872ac37b86c163c",
                  series_is([0] + [1] * 12, TRANSITIVE)),
            query('type "E(Vplus)*E(Proj)" --order 12',
                  "c6e6e926233ea35a76c4d8485bc3c2aa57d26a5b66a937d0339fea0cc2c97984",
                  series_is(convolve(partitions(12), partitions(12)),
                            "type(E(Vplus)) = type(E(Proj)) = partitions; product = convolution")),
            query("type Aut --order 12",
                  "37757dd5e17cdf874965a177e0737d44289894b0237fb8ac2d396b8b990e9a08",
                  series_is(A006952, "GL_n(F_2) class counts, OEIS A006952")),
            query('zindex "Elem*Proj" --order 9',
                  "90348cde84195672cef87e866c78428b729385cd93be94d381ae590551a3bf67",
                  z_type_is(_elem_proj_types(9), "type specialisation = type(Elem)*type(Proj)"),
                  z_low_is(ORACLE_Z_ELEM_PROJ_3, 3, "literal oracle: oracle zindex Elem*Proj 3")),
            query('zindex "Proj^3" --order 8',
                  "2a482ed024509b72b130ceb30a22460152bbb68e28f3275328182e05347aac4a",
                  z_type_is(convolve(convolve([0] + [1] * 8, [0] + [1] * 8), [0] + [1] * 8),
                            "type specialisation = type(Proj)^3"),
                  z_low_is(ORACLE_Z_PROJ3_3, 3, "literal oracle: oracle zindex Proj^3 3")),
            query("zindex End --order 9",
                  "b3926e7a9f77b21695aa62154fa3851c6901057c0c65d0d07ff599cfb36ae9be",
                  z_type_is(product_series(9, 2, False),
                            "type specialisation = matrix similarity classes, prod 1/(1-2x^r)"),
                  z_low_is(ORACLE_Z_END_3, 3, "literal oracle: oracle zindex End 3")),
            query('gen "E(Vplus)" --order 60',
                  "ec0f75e4d1ab04ddb8c1008eeff57b5f0cc0fc65d4d2f3518429d6409b2af479",
                  series_is(exp_formula(2, 60), "exponential formula exp(sum x^n/gamma_n)")),
            query('wgen "E(mark(Vplus))" --order 30',
                  "3c51f319038f5561a9e258465bc82f8f86d87b22887390f2629d48cf3d6f8484",
                  weighted_is(2, 30, "exponential formula at t=1; one-part splittings at t^1")),
            query("classes 9 --kind end",
                  "3967ad80649007c1eff50c261152f6a2f8d7e7beb99dd312b3bac9257f9f7e07",
                  end_classes_are(2, 9, "prod 1/(1-2x^r) classes; class sizes sum to 2^81")),
            query("type Proj --order 7 --q 3",
                  "9c01a12f1af32a1b1feb3f1c09ab6c98433cc32d702fdd379572017203861e4b",
                  series_is([0] + [1] * 7, TRANSITIVE)),
            query('zindex "Elem*Proj" --order 5 --q 3',
                  "e958fd4cc2f55bd977c714707df990e65797e20f553aeefdbf86ac130d9906a4",
                  z_type_is(_elem_proj_types(5), "type specialisation = type(Elem)*type(Proj)"),
                  z_low_is(ORACLE_Z_ELEM_PROJ_2_Q3, 2,
                       "literal oracle: oracle zindex Elem*Proj 2 --q 3")),
            query("type Aut --order 5 --q 2 --ext-k 2",
                  "6072239819271af58f63b97cbec85ce92bf89e9f200acf2ba60dc8c921ec2cb6",
                  series_is(product_series(5, 4, True),
                            "GL_n(F_4) class counts, prod (1-x^r)/(1-4x^r)")),
        )),
    "oracle_fallback": Workload(
        "gen/type/zindex queries that reach oracle fallbacks (E/sym cycle index, sym "
        "orbits, RepCyclic, Sub(k) fixed points), the paths closed forms should replace",
        (
            query('zindex "E(Vplus)" --order 3',
                  "03695ff556abc74e53a362f35c880ba997f486584f0673e89bd96f1afd5b9712",
                  z_type_is(partitions(3), PARTITIONS)),
            query('zindex "sym(2,Vplus)" --order 3',
                  "ddcc9600ce711caf8e6d76cddd4f914169ce590b69ddce6528b0303bfbabfdda",
                  z_type_is([n // 2 for n in range(4)], TWO_PARTS),
                  z_low_is(ORACLE_Z_SYM2_VPLUS_3, 3,
                           "literal oracle: oracle zindex sym(2,Vplus) 3")),
            query('type "sym(2,Vplus)" --order 4',
                  "622cf1eb844f895575f27fd4966aee47333d5e84e3bcfbb1f4b900e7db97efd4",
                  series_is([n // 2 for n in range(5)], TWO_PARTS)),
            query('gen "RepCyclic(2)" --order 4',
                  "3989a42a177ec32027e34e1605c724431a08ffc6baabe49c12656de8d8cb4893",
                  series_is(_over_gl(2, ORACLE_REPCYCLIC2_COUNTS),
                            "literal oracle: oracle count RepCyclic(2) 4")),
            query('gen "RepCyclic(3)" --order 3 --q 3',
                  "8c9ad687d1486a16daa4ec0abc8401d351f7ae8d96ab17d6d589f6dfb5eeabcc",
                  series_is(_over_gl(3, [3 ** (n * (n - 1)) for n in range(4)]),
                            "g^3 = 1 in char 3 iff unipotent (n <= 3); Steinberg: q^(n(n-1))")),
            query('zindex "Sub(2)" --order 5',
                  "18da2a77150e6677e92b54b63f6a5b221acc581b24a53ac385f0706e5c717ac1",
                  z_type_is([0, 0, 1, 1, 1, 1], TRANSITIVE),
                  z_low_is(ORACLE_Z_SUB2_3, 3, "literal oracle: oracle zindex Sub(2) 3")),
            query('type "Sub(2)" --order 4 --q 3',
                  "af2c635327a0dda2dbdc09cb9513b95f10e7a73304d26e881b792d5b4dac31f8",
                  series_is([0, 0, 1, 1, 1], TRANSITIVE)),
        ),
        PROBE),
    "oracle_literal": Workload(
        "the ground-truth oracle and verify commands, literal sums over GL_n: only "
        "hot-path (transport, linalg, field) changes may move them",
        (
            query('oracle zindex "E(Vplus)" 3',
                  "03695ff556abc74e53a362f35c880ba997f486584f0673e89bd96f1afd5b9712",
                  z_type_is(partitions(3), PARTITIONS)),
            query("oracle orbits Aut 3",
                  "50493843dce8eed8c78a3ca69270f431200a516c3bce799c4cee80d3978d53a6",
                  column_is("orbits", A006952[:4], "GL_n(F_2) class counts, OEIS A006952")),
            query('oracle count "E(Vplus)" 4',
                  "0e1c16cc1b450a1e80bda701031227416331bfddf942bed57604f0f40f6e0e58",
                  column_is("count", [a * gl_order(2, n) for n, a in enumerate(exp_formula(2, 4))],
                            "exponential formula exp(sum x^n/gamma_n)")),
            query("verify --max-dim 2 --q 3",
                  "fc10cac304acf3637c86b117697d889e2022924ed9c15cdcd1a696af359a6b12",
                  all_checks_pass(63, "every identity check passes")),
            query("oracle orbits End 2 --q 2 --ext-k 2",
                  "ddb6574cfaef4070d59a6f7c5fe982adb3c887a745b4378792be216968323ddc",
                  column_is("orbits", product_series(2, 4, False),
                            "similarity classes over F_4, prod 1/(1-4x^r)")),
        )),
}
