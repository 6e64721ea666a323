"""Ground truth by exhaustive enumeration.

Structures of a species expression on F_q^n are materialised as canonical
nested tuples, transported along automorphisms, and counted directly.
Sub-structures on a proper subspace W are represented in coordinates of
the RREF basis of W, so every species only ever enumerates on standard
spaces; transport conjugates through these coordinate charts.

Encodings (first element is a tag):
    ("vec", v)                 a vector, for Elem
    ("sub", rows)              a subspace, for Proj and Sub(k)
    ("mat", rows)              a matrix, for End / Aut / RepCyclic
    ("bas", (v_1, ..., v_n))   an ordered basis
    ("spc",)                   the unique structure of V / Vplus / One
    ("scl", c)                 a scalar, for Fscalar / Fstar
    ("L", s), ("R", s)         a structure of the left or right side of a sum
    ("prod", (rows1, s), (rows2, t))          an ordered 2-part split (F*G, F^n)
    ("mset", ((rows, s), ...)) sorted          an unordered split (sym/assembly)

plus(F) and mark(F) add no tag: their structures are F's.  Every structure
names its own construction, so transport reads only the tags and never the
expression: F[g] is a function of the structure and g alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as iproduct

from .field import FieldSpec
from .linalg import (BudgetExceededError, DEFAULT_BUDGET, InvariantData, Matrix,
                     enumerate_decompositions, enumerate_matrices, enumerate_subspaces,
                     gl_order, invariant_data, require)
from .series import TPoly
from .cycleindex import CycleIndexSeries, monomial
from .species import (Assembly, Builtin, Mark, Plus, Power, Product, SpeciesExpr,
                      Sum, SymPower, validate)

Structure = tuple  # canonical encoding


def _all_vectors(field: FieldSpec, n: int):
    return iproduct(range(field.q), repeat=n)


def enumerate_structures(e: SpeciesExpr, field: FieldSpec, n: int,
                         budget: int = DEFAULT_BUDGET) -> list[tuple[Structure, TPoly]]:
    """All structures of e on E_n as (encoding, weight) pairs, canonically ordered."""
    validate(e)
    out = _enum(e, field, n, budget)
    out.sort(key=lambda sw: sw[0])
    return out


def _power_as_products(e: Power) -> SpeciesExpr:
    """F^n as the nested product F*(F*(...*F)); F^0 is One."""
    if e.n == 0:
        return Builtin("One")
    inner: SpeciesExpr = e.base
    for _ in range(e.n - 1):
        inner = Product(e.base, inner)
    return inner


def _enum(e: SpeciesExpr, field: FieldSpec, n: int, budget: int) -> list:
    one = TPoly.const(1)
    if isinstance(e, Builtin):
        return [(s, one) for s in _enum_builtin(e, field, n, budget)]
    if isinstance(e, Sum):
        # tag the two sides to keep a true disjoint union
        return ([(("L",) + (s,), w) for s, w in _enum(e.left, field, n, budget)]
                + [(("R",) + (s,), w) for s, w in _enum(e.right, field, n, budget)])
    if isinstance(e, Product):
        return _enum_product(e.left, e.right, field, n, budget)
    if isinstance(e, Power):
        return _enum(_power_as_products(e), field, n, budget)
    if isinstance(e, SymPower):
        return _enum_multiset(e.base, field, n, e.n, e.n, budget)
    if isinstance(e, Assembly):
        if n == 0:
            return [(("mset", ()), one)]
        return _enum_multiset(e.base, field, n, 1, n, budget)
    if isinstance(e, Plus):
        if n == 0:
            return []
        return _enum(e.base, field, n, budget)
    if isinstance(e, Mark):
        return [(s, w * TPoly.t()) for s, w in _enum(e.base, field, n, budget)]
    raise TypeError(f"unknown species node {e!r}")


def _enum_builtin(e: Builtin, field: FieldSpec, n: int, budget: int) -> list[Structure]:
    """F[E_n] for a builtin; raises BudgetExceededError before enumerating more
    than ``budget`` structures (or, for matrices and bases, candidates)."""
    q = field.q
    name = e.name
    if name == "Proj":
        return [("sub", s.basis) for s in enumerate_subspaces(field, n, 1, budget)] if n else []
    if name == "Sub":
        k = e.arg
        if k > n:
            return []
        return [("sub", s.basis) for s in enumerate_subspaces(field, n, k, budget)]
    if name in ("End", "Aut"):
        return [("mat", m.entries) for m in enumerate_matrices(field, n, name == "Aut", budget)]
    if name == "Bases":
        if q ** (n * n) > budget:
            raise BudgetExceededError("basis enumeration exceeds budget")
        out = []
        for vs in iproduct(_all_vectors(field, n), repeat=n):
            if n == 0 or Matrix(field, vs).rank() == n:
                out.append(("bas", vs))
        return out
    if name == "RepCyclic":
        m = e.arg
        out = []
        ident = Matrix.identity(field, n)
        for g in enumerate_matrices(field, n, True, budget):
            if g**m == ident:
                out.append(("mat", g.entries))
        return out
    # the rest have at most q^n structures: enumerate one more than the budget
    if name == "Elem":
        structures = (("vec", v) for v in _all_vectors(field, n))
    elif name in ("Fscalar", "Fstar"):
        structures = [("scl", c) for c in range(1 if name == "Fstar" else 0, q)] if n == 1 else []
    elif name in ("One", "Zero", "V", "Vplus"):
        exists = {"One": n == 0, "Zero": False, "V": True, "Vplus": n >= 1}[name]
        structures = [("spc",)] if exists else []
    else:
        raise ValueError(f"unknown builtin {name}")
    out = list(islice(structures, budget + 1))
    if len(out) > budget:
        raise BudgetExceededError(f"{name} on E_{n} has more structures than budget {budget}")
    return out


def _enum_product(left: SpeciesExpr, right: SpeciesExpr, field: FieldSpec,
                  n: int, budget: int) -> list:
    out = []
    for k in range(n + 1):
        for v1, v2 in enumerate_decompositions(field, n, (k, n - k), budget):
            for s1, w1 in _enum(left, field, k, budget):
                for s2, w2 in _enum(right, field, n - k, budget):
                    out.append((("prod", (v1.basis, s1), (v2.basis, s2)), w1 * w2))
    return out


def _enum_multiset(base: SpeciesExpr, field: FieldSpec, n: int,
                   min_parts: int, max_parts: int, budget: int) -> list:
    """Unordered splittings into m nonzero parts, min_parts <= m <= max_parts,
    with a base-structure on each part.  The parts of a direct sum are distinct
    subspaces, so each splitting is built once, with the parts' RREF bases in
    increasing order: the sorted multiset encoding."""
    per_dim: dict[int, list] = {}
    for d in range(1, n + 1):
        per_dim[d] = _enum(base, field, d, budget)
    bases = {d: [w.basis for w in enumerate_subspaces(field, n, d, budget)]
             for d in per_dim if per_dim[d]}

    out = []

    def rec(remaining_rows: tuple, used: int, parts: tuple, weight: TPoly):
        if used == n:
            if len(parts) >= min_parts:
                out.append((("mset", parts), weight))
            return
        if len(parts) == max_parts:
            return
        for d in range(1, n - used + 1):
            if not per_dim[d]:
                continue
            for basis in bases[d]:
                if parts and basis <= parts[-1][0]:
                    continue
                stacked = Matrix(field, remaining_rows + basis)
                if stacked.rank() != used + d:
                    continue
                for s, ws in per_dim[d]:
                    rec(remaining_rows + basis, used + d, parts + ((basis, s),), weight * ws)

    if n == 0:
        if min_parts == 0:
            return [(("mset", ()), TPoly.const(1))]
        return []
    rec((), 0, (), TPoly.const(1))
    return out


# -- transport -----------------------------------------------------------------
#
# A transport dispatches on the structure's tag.  It takes g together with
# ``charts``, a table of what has been computed for each acting matrix so
# far.  A part W of a split is moved by the chart h of g on W (see
# _chart_map), and the parts inside W by the charts of h.
#
# A "mat" structure a goes to g a g⁻¹ = g (a g⁻¹) through two row maps of the
# acting matrix, with no matrix product.  The row map of a d x d matrix M
# sends each row v of F_q^d to v M; _row_map builds it over all q^d rows by
# linearity from M's rows.  Row j of a g⁻¹ is the image of a_j under the row
# map of g⁻¹, the inverse of g's, so no inverse is computed.  Column k of
# g (a g⁻¹) is g c_k for column c_k of a g⁻¹, that is the image of c_k under
# the row map of gᵀ.  So a costs 2d lookups and two transposes.
#
# Lifetimes.  ``charts`` keeps each chart once per (acting matrix, W), and,
# once a "mat" leaf first asks for them, each acting matrix's two row maps,
# for one sigma's counting loop, one orbit search over fixed generators, or
# one public ``transport`` call.  The maps of one acting matrix on a
# d-dimensional space hold 2 q^d rows, no more than the q^(d²) matrices the
# oracle has already enumerated there; nothing is kept per structure.


def _row_map(m: Matrix) -> dict[tuple[int, ...], tuple[int, ...]]:
    """v -> v m for every row v of F_q^d, m a d x d matrix.  The rows grow one
    coordinate at a time: (u + c e_j) m = u m + c m_j."""
    F = m.field
    add, mul = F._add, F._mul
    rows, images = [()], [(0,) * m.nrows]
    for row in m.entries:
        multiples = [tuple([mul[c][x] for x in row]) for c in range(F.q)]
        rows = [u + (c,) for c in range(F.q) for u in rows]
        images = [tuple([add[a][b] for a, b in zip(u, cm)]) for cm in multiples for u in images]
    return dict(zip(rows, images))


def _conjugation_maps(g: Matrix) -> tuple[dict, dict]:
    """The row maps of g⁻¹ and of gᵀ, for the invertible g."""
    inverse = {w: v for v, w in _row_map(g).items()}
    return inverse, _row_map(Matrix(g.field, tuple(zip(*g.entries))))


def _conjugation(charts: dict, g: Matrix) -> tuple[dict, dict]:
    """g's two row maps, from the chart table."""
    hit = charts.get(g)
    if hit is None:
        hit = charts[g] = _conjugation_maps(g)
    return hit


def _chart_map(g: Matrix, rows: tuple) -> tuple[tuple, Matrix]:
    """For the subspace W with RREF basis ``rows``: the RREF basis of g(W), and
    the chart of g, its restriction to W in the RREF bases of W and g(W)."""
    field = g.field
    if not rows:
        return (), Matrix(field, ())
    images = tuple(g.matvec(b) for b in rows)
    red, pivots = Matrix(field, images).rref()
    return red.entries[:len(pivots)], Matrix(field, tuple(
        tuple(v[p] for v in images) for p in pivots))


def _chart(charts: dict, g: Matrix, rows: tuple) -> tuple[tuple, Matrix]:
    """The RREF basis of g(W) and the chart h, from the table."""
    key = (g, rows)
    hit = charts.get(key)
    if hit is None:
        hit = charts[key] = _chart_map(g, rows)
    return hit


def transport(s: Structure, g: Matrix) -> Structure:
    """F[g](s) for an invertible g of the matching dimension; raises ValueError
    for a singular g, for an entry of s outside F_q, or for a matrix in s
    whose shape is not that of the space it lives on."""
    _check_acting(g, g.nrows)
    _check_entries(g.field, s)
    _check_shape(s, g.nrows)
    return _transport(s, g, {})


def _check_acting(g: Matrix, n: int) -> None:
    """g is an automorphism of E_n."""
    if g.nrows != n or g.ncols != n:
        raise ValueError(f"dimension mismatch: a {g.nrows} x {g.ncols} matrix acting on E_{n}")
    if not g.is_invertible():
        raise ValueError("transport requires an invertible matrix")


def _check_entries(field: FieldSpec, s: Structure) -> None:
    """Every integer in an encoding is a field element (tags are strings)."""
    q = field.q
    for x in s:
        if isinstance(x, tuple):
            _check_entries(field, x)
        elif isinstance(x, int) and not 0 <= x < q:
            field._check(x)


def _check_shape(s: Structure, d: int) -> None:
    """Every matrix in s is d' x d', d' the dimension of the space it lives
    on: d at the top, the dimension of its part inside a split."""
    tag = s[0]
    if tag == "mat":
        if len(s[1]) != d or any(len(row) != d for row in s[1]):
            raise ValueError(f"dimension mismatch: a matrix structure on E_{d} is {d} x {d}")
    elif tag in ("L", "R"):
        _check_shape(s[1], d)
    elif tag in ("prod", "mset"):
        for rows, enc in (s[1:] if tag == "prod" else s[1]):
            _check_shape(enc, len(rows))


def _check_structures(field: FieldSpec, n: int, structures: list) -> None:
    """A caller-supplied F[E_n]: the transport loops check nothing, so a foreign
    entry or a matrix of the wrong shape must raise here rather than wrap
    around or be misread.  The oracle's own enumerations are never checked."""
    for s, _w in structures:
        _check_entries(field, s)
        _check_shape(s, n)


def _transport(s: Structure, g: Matrix, charts: dict) -> Structure:
    """F[g](s), read off the tags of s."""
    tag = s[0]
    if tag == "vec":
        return ("vec", g.matvec(s[1]))
    if tag == "sub":
        return ("sub", _chart(charts, g, s[1])[0])
    if tag == "mat":
        inverse, transposed = _conjugation(charts, g)
        columns = zip(*map(inverse.__getitem__, s[1]))  # of a g⁻¹
        return ("mat", tuple(zip(*map(transposed.__getitem__, columns))))
    if tag == "bas":
        return ("bas", tuple(g.matvec(v) for v in s[1]))
    if tag in ("spc", "scl"):
        return s
    if tag in ("L", "R"):
        return (tag, _transport(s[1], g, charts))
    if tag == "prod":
        return ("prod", _move_part(s[1], g, charts), _move_part(s[2], g, charts))
    if tag == "mset":
        return ("mset", tuple(sorted(_move_part(part, g, charts) for part in s[1])))
    raise ValueError(f"bad structure {s!r}")


def _move_part(part: tuple, g: Matrix, charts: dict) -> tuple:
    """A part (rows of W, structure on W) moved to g(W) through the chart of g
    on W; the zero part stays as it is."""
    rows, enc = part
    if not rows:
        return part
    img_rows, h = _chart(charts, g, rows)
    return (img_rows, _transport(enc, h, charts))


# -- counting ------------------------------------------------------------------

def structure_count_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    return len(enumerate_structures(e, field, n, budget))


def inventory_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                 budget: int = DEFAULT_BUDGET) -> TPoly:
    total = TPoly()
    for _s, w in enumerate_structures(e, field, n, budget):
        total = total + w
    return total


def fix_count_bf(e: SpeciesExpr, field: FieldSpec, n: int, sigma: Matrix,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Structures on E_n fixed by sigma."""
    return fix_counts_bf(e, field, n, [sigma], budget)[0]


def fix_counts_bf(e: SpeciesExpr, field: FieldSpec, n: int, sigmas: list[Matrix],
                  budget: int = DEFAULT_BUDGET) -> list[int]:
    """The structures on E_n fixed by each of ``sigmas``, over one enumeration
    of F[E_n]; raises ValueError for a sigma that is not in Aut(E_n) before
    enumerating."""
    for sigma in sigmas:
        _check_acting(sigma, n)
    structures = enumerate_structures(e, field, n, budget)
    return [_fix_count(sigma, structures) for sigma in sigmas]


def _fix_count(sigma: Matrix, structures: list) -> int:
    """The members of ``structures`` fixed by sigma, which nothing checks here."""
    charts: dict = {}
    return sum(1 for s, _w in structures if _transport(s, sigma, charts) == s)


@lru_cache(maxsize=None)
def _gl_generators(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """Elementary transvections and one-slot unit scalings; generates GL_n."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                for u in range(2, field.q):
                    rows = [list(r) for r in Matrix.identity(field, n).entries]
                    rows[i][i] = u
                    gens.append(Matrix.make(field, rows))
            else:
                for lam in range(1, field.q):
                    rows = [list(r) for r in Matrix.identity(field, n).entries]
                    rows[i][j] = lam
                    gens.append(Matrix.make(field, rows))
    return tuple(gens)


def orbit_partition(e: SpeciesExpr, field: FieldSpec, n: int,
                    budget: int = DEFAULT_BUDGET, structures: list | None = None) -> list[dict]:
    """Aut(E_n)-orbits on structures via BFS over GL generators.

    Returns one dict per orbit: representative (minimal encoding), size, weight."""
    if structures is None:
        structures = enumerate_structures(e, field, n, budget)
    else:
        _check_structures(field, n, structures)
    return _orbits(field, n, structures)


def _orbits(field: FieldSpec, n: int, structures: list) -> list[dict]:
    """``orbit_partition`` of ``structures``, which nothing checks here."""
    weights = dict(structures)
    gens = _gl_generators(field, n)
    charts: dict = {}
    unseen = set(weights)
    orbits = []
    while unseen:
        start = min(unseen)
        frontier = [start]
        orbit = {start}
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = _transport(cur, g, charts)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        orbits.append({"rep": min(orbit), "size": len(orbit), "weight": weights[start]})
    return orbits


def orbit_count_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Orbit count, by explicit partition and by Burnside average over all of
    GL_n; both must agree."""
    structures = enumerate_structures(e, field, n, budget)
    orbits = _orbits(field, n, structures)
    if gl_order(field, n) * field.q ** (n * n) <= budget:
        total = 0
        for sigma in enumerate_matrices(field, n, True, budget):
            total += _fix_count(sigma, structures)
        burnside, rest = divmod(total, gl_order(field, n))
        require(rest == 0, f"Burnside total {total} is not divisible by |GL_{n}|")
        require(burnside == len(orbits),
                f"orbit partition ({len(orbits)}) and Burnside ({burnside}) disagree")
    return len(orbits)


def zindex_bf(e: SpeciesExpr, field: FieldSpec, order: int,
              budget: int = DEFAULT_BUDGET) -> CycleIndexSeries:
    """Cycle index by literal summation over all of Aut(E_n), n <= order."""
    terms: dict[InvariantData, Fraction] = {}
    for n in range(order + 1):
        gn = gl_order(field, n)
        structures = enumerate_structures(e, field, n, budget)
        for sigma in enumerate_matrices(field, n, True, budget):
            fix = _fix_count(sigma, structures)
            if fix:
                m = monomial(invariant_data(sigma))
                terms[m] = terms.get(m, Fraction(0)) + Fraction(fix, gn)
    return CycleIndexSeries(field, order, terms)
