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
    ("M", s)                   a marked structure, for mark(F); weighs t per M
    ("prod", (rows1, s), (rows2, t))          an ordered 2-part split (F*G, F^n)
    ("mset", ((rows, s), ...)) sorted          an unordered split (sym/assembly)

Only plus(F) adds no tag: its structures are F's.  Every structure names its
own construction, so transport reads only the tags and never the expression:
F[g] is a function of the structure and g alone, and a structure's weight is
t to the number of its M tags.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product as iproduct
from operator import getitem

from .classes import enumerate_classes
from .field import FieldSpec
from .linalg import (BudgetExceededError, DEFAULT_BUDGET, InvariantData, Matrix,
                     check_matrix_budget, commutant_basis, direct_sum,
                     enumerate_decompositions, enumerate_matrices, enumerate_subspaces,
                     gl_order, invariant_data, require)
from .series import TPoly
from .cycleindex import CycleIndexSeries
from .species import (Assembly, Builtin, Mark, Plus, Power, Product, SpeciesExpr,
                      Sum, validate)

Structure = tuple  # canonical encoding


def enumerate_structures(e: SpeciesExpr, field: FieldSpec, n: int,
                         budget: int = DEFAULT_BUDGET) -> list[Structure]:
    """All structures of e on E_n, canonically ordered."""
    validate(e)
    return sorted(_enum(e, field, n, budget))


def _power_as_products(e: Power) -> SpeciesExpr:
    """F^n as the nested product F*(F*(...*F)); F^0 is One."""
    if e.n == 0:
        return Builtin("One")
    inner: SpeciesExpr = e.base
    for _ in range(e.n - 1):
        inner = Product(e.base, inner)
    return inner


def _enum(e: SpeciesExpr, field: FieldSpec, n: int, budget: int) -> list[Structure]:
    if isinstance(e, Builtin):
        return _enum_builtin(e, field, n, budget)
    if isinstance(e, Sum):
        # tag the two sides to keep a true disjoint union
        return ([("L", s) for s in _enum(e.left, field, n, budget)]
                + [("R", s) for s in _enum(e.right, field, n, budget)])
    if isinstance(e, Product):
        return _enum_product(e.left, e.right, field, n, budget)
    if isinstance(e, Power):
        return _enum(_power_as_products(e), field, n, budget)
    if isinstance(e, Assembly):
        return _enum_multiset(e.base, field, n, e.n, budget)
    if isinstance(e, Plus):
        if n == 0:
            return []
        return _enum(e.base, field, n, budget)
    if isinstance(e, Mark):
        return [("M", s) for s in _enum(e.base, field, n, budget)]
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
    if name in ("End", "Aut", "Bases"):  # a basis is the rows of an invertible matrix
        tag = "bas" if name == "Bases" else "mat"
        return [(tag, m.entries) for m in enumerate_matrices(field, n, name != "End", budget)]
    if name == "RepCyclic":
        m = e.arg
        ident = Matrix.identity(field, n)
        return [("mat", g.entries) for g in enumerate_matrices(field, n, True, budget)
                if g**m == ident]
    # the rest have at most q^n structures: enumerate one more than the budget
    if name == "Elem":
        structures = (("vec", v) for v in iproduct(range(q), repeat=n))
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
                  n: int, budget: int) -> list[Structure]:
    """Each factor is enumerated once per dimension, and the splits E_n = W1 + W2
    with dim W1 = k only when both factors have structures there."""
    out = []
    for k in range(n + 1):
        lefts = _enum(left, field, k, budget)
        rights = _enum(right, field, n - k, budget) if lefts else []
        if not rights:
            continue
        for v1, v2 in enumerate_decompositions(field, n, (k, n - k), budget):
            out += [("prod", (v1.basis, s1), (v2.basis, s2)) for s1 in lefts for s2 in rights]
    return out


def _enum_multiset(base: SpeciesExpr, field: FieldSpec, n: int,
                   count: int | None, budget: int) -> list[Structure]:
    """Unordered splittings into nonzero parts, ``count`` of them unless it is
    None, with a base-structure on each part.  The parts of a direct sum are
    distinct subspaces, so each splitting is built once, with the parts' RREF
    bases in increasing order: the sorted multiset encoding."""
    if n == 0:
        return [("mset", ())] if not count else []
    per_dim = {d: _enum(base, field, d, budget) for d in range(1, n + 1)}
    bases = {d: [w.basis for w in enumerate_subspaces(field, n, d, budget)]
             for d in per_dim if per_dim[d]}

    out = []

    def rec(span: tuple, used: int, parts: tuple):
        if used == n:
            if count in (None, len(parts)):
                out.append(("mset", parts))
            return
        if len(parts) == count:
            return
        for d in range(1, n - used + 1):
            if not per_dim[d]:
                continue
            for basis in bases[d]:
                if parts and basis <= parts[-1][0]:
                    continue
                joined = direct_sum(field, span, basis)
                if joined is None:
                    continue
                for s in per_dim[d]:
                    rec(joined, used + d, parts + ((basis, s),))

    rec((), 0, ())
    return out


# -- transport -----------------------------------------------------------------
#
# A transport dispatches on the structure's tag.  It takes the acting matrix
# g as an _Acting, which holds what has been computed for g so far, so a
# transport reads g's tables off the object it is handed.  A part W of a
# split goes to g(W), and the structure on W is moved by the chart h of g on
# W, an _Acting in turn, which moves the parts inside W; linalg computes both
# (Matrix.restrict), and builds h only when a structure on W is moved.  A
# Matrix is hashed only when a chart is first made, so that equal charts
# within one loop share one _Acting.
#
# A "mat" structure a goes to g a g⁻¹ = g (a g⁻¹) through two row maps of the
# acting matrix, with no matrix product.  The row map of a d x d matrix M
# sends each row v of F_q^d to v M; _row_map builds it over all q^d rows by
# linearity from M's rows.  Row j of a g⁻¹ is the image of a_j under the row
# map of g⁻¹, the inverse of g's, so no inverse is computed.  Column k of
# g (a g⁻¹) is g c_k for column c_k of a g⁻¹, that is the image of c_k under
# the row map of gᵀ.  So a costs 2d lookups and two transposes.
#
# Lifetimes.  An _Acting keeps its images, charts and row maps for one
# sigma's counting loop, one orbit search over fixed generators, or one
# public ``transport`` call.  The maps of one acting matrix on a
# d-dimensional space hold 2 q^d rows, no more than the q^(d²) matrices the
# oracle has already enumerated there; nothing is kept per structure.
#
# The screen.  sigma fixes a split only if it maps each part of a "prod" to
# itself and the parts of an "mset" onto themselves; for an "mset" this is
# exact, as its parts are distinct subspaces and sigma is injective.
# Once per enumeration, _prepare groups the structures by their top-level
# split (under any L, R or M tags), gives each split an id, and keeps for each
# distinct part the ids of the splits that hold it, as the bits of an int.
# Per sigma, _fix_count images each part that a split still kept holds,
# reading the table that transport fills anyway, and drops at once every
# split that holds the part but not its image.  Only the members of the
# splits kept are moved; _transport(s, sigma) == s decides.
#
# The commutant count.  When every structure of F[E_d], d >= 1, is a "mat",
# as for End, Aut and RepCyclic(m), sigma fixes a iff sigma a = a sigma: the
# fixed structures lie in the commutant C(sigma), on average one matrix per
# similarity class of M_d.  So _prepare makes the structures a set of flat
# matrices once per enumeration, and per sigma _commuting counts the members
# of C(sigma) in it from a basis that one elimination gives
# (linalg.commutant_basis): as a + b, for a in the span of one half of the
# basis and b in that of the other, it holds 2 q^(r/2) of the q^r elements of
# an r-dimensional C(sigma), never all of C(1).  Matrices inside the parts of
# a split, every other tag, E_0 and the orbit search use transport.


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


# (g, rows) -> the RREF basis of g(W), for W with RREF basis rows, and a
# function that builds the chart of g on W
_chart_map = Matrix.restrict


class _Acting:
    """An acting matrix g with what transport has computed for it: for each
    part W met so far, the RREF basis of g(W) and, once a structure on W is
    moved, the chart of g on W, an _Acting in turn; and g's two row maps once
    a "mat" leaf asks for them.  ``loop`` holds the _Acting of every matrix met
    in one loop, so equal charts share one."""

    __slots__ = ("g", "parts", "maps", "loop")

    def __init__(self, g: Matrix, loop: dict):
        self.g = g
        self.parts: dict[tuple, list] = {}  # rows -> [image, chart or None, chart builder]
        self.maps: tuple[dict, dict] | None = None
        self.loop = loop
        loop[g] = self

    def _part(self, rows: tuple) -> list:
        hit = self.parts.get(rows)
        if hit is None:
            image, build = _chart_map(self.g, rows)
            hit = self.parts[rows] = [image, None, build]
        return hit

    def image(self, rows: tuple) -> tuple:
        """The RREF basis of g(W), for W with RREF basis ``rows``."""
        hit = self.parts.get(rows)
        return (hit or self._part(rows))[0]

    def chart(self, rows: tuple) -> tuple[tuple, "_Acting"]:
        """The RREF basis of g(W) and the chart of g on W."""
        part = self._part(rows)
        if part[1] is None:
            h = part[2]()
            part[1] = self.loop.get(h) or _Acting(h, self.loop)
        return part[0], part[1]


def transport(s: Structure, g: Matrix) -> Structure:
    """F[g](s) for an invertible g of the matching dimension; raises ValueError
    for a singular g, for an entry of s outside F_q, or for a matrix in s
    whose shape is not that of the space it lives on."""
    _check_acting(g, g.nrows)
    _check_entries(g.field, s)
    _check_shape(s, g.nrows)
    return _transport(s, _Acting(g, {}))


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
    elif tag in ("L", "R", "M"):
        _check_shape(s[1], d)
    elif tag in ("prod", "mset"):
        for rows, enc in (s[1:] if tag == "prod" else s[1]):
            _check_shape(enc, len(rows))


def _transport(s: Structure, a: _Acting) -> Structure:
    """F[g](s), read off the tags of s, for the acting matrix g of ``a``."""
    tag = s[0]
    if tag == "vec":
        return ("vec", a.g.matvec(s[1]))
    if tag == "sub":
        return ("sub", a.image(s[1]))
    if tag == "mat":
        maps = a.maps
        if maps is None:
            maps = a.maps = _conjugation_maps(a.g)
        inverse, transposed = maps
        columns = zip(*map(inverse.__getitem__, s[1]))  # of a g⁻¹
        return ("mat", tuple(zip(*map(transposed.__getitem__, columns))))
    if tag == "bas":
        return ("bas", tuple(a.g.matvec(v) for v in s[1]))
    if tag in ("spc", "scl"):
        return s
    if tag in ("L", "R", "M"):
        return (tag, _transport(s[1], a))
    if tag == "prod":
        return ("prod", _move_part(s[1], a), _move_part(s[2], a))
    if tag == "mset":
        return ("mset", tuple(sorted(_move_part(part, a) for part in s[1])))
    raise ValueError(f"bad structure {s!r}")


def _move_part(part: tuple, a: _Acting) -> tuple:
    """A part (rows of W, structure on W) moved to g(W) through the chart of g
    on W; the zero part stays as it is."""
    rows, enc = part
    if not rows:
        return part
    image, h = a.chart(rows)
    return (image, _transport(enc, h))


# -- counting ------------------------------------------------------------------

def structure_count_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    return len(enumerate_structures(e, field, n, budget))


def inventory_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                 budget: int = DEFAULT_BUDGET) -> TPoly:
    """The sum over the structures s on E_n of their weights t^(M tags of s)."""
    return TPoly(Counter(map(_marks, enumerate_structures(e, field, n, budget))))


def _marks(s: Structure) -> int:
    """The number of M tags in s."""
    tag = s[0]
    if tag in ("L", "R", "M"):
        return (tag == "M") + _marks(s[1])
    if tag in ("prod", "mset"):
        return sum(_marks(enc) for _rows, enc in (s[1:] if tag == "prod" else s[1]))
    return 0


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
    structures = _prepare(field, n, enumerate_structures(e, field, n, budget))
    return [_fix_count(sigma, structures) for sigma in sigmas]


def _fix_count(sigma: Matrix, prepared: tuple | frozenset) -> int:
    """The structures of ``_prepare``'s value fixed by sigma, which nothing
    checks here: by the commutant count of a set of flat matrices, else by
    transport of the members of each split that passes the screen."""
    if isinstance(prepared, frozenset):
        return _commuting(sigma, prepared)
    holders, members = prepared
    a = _Acting(sigma, {})
    kept, count = (1 << len(members)) - 1, 0
    for (slot, rows), held in holders.items():
        held &= kept
        if held:  # drop the splits that hold this part but not its image
            kept ^= held & ~holders.get((slot, a.image(rows)), 0)
    while kept:
        low = kept & -kept
        kept ^= low
        count += sum(1 for s in members[low.bit_length() - 1] if _transport(s, a) == s)
    return count


def _prepare(field: FieldSpec, n: int, structures: list) -> tuple | frozenset:
    """What the Burnside loops hand to ``_fix_count`` for F[E_n]: the set of
    the ``_flat`` matrices when all are "mat" and n >= 1, else the screen's
    tables: the split ids that hold each nonzero part, keyed by (its place in
    a "prod" or None, rows); and the members of each split by id, with the
    structures that are no split as one split with no parts."""
    if n and structures and all(s[0] == "mat" for s in structures):
        return frozenset(_flat(field, sum(s[1], ())) for s in structures)
    holders, splits = {}, {}
    for s in structures:
        top = s
        while top[0] in ("L", "R", "M"):
            top = top[1]
        tag = top[0]
        parts = top[1:] if tag == "prod" else top[1] if tag == "mset" else ()
        split = tuple((slot if tag == "prod" else None, rows)
                      for slot, (rows, _enc) in enumerate(parts) if rows)
        members = splits.setdefault(split, [])
        if not members:
            for part in split:
                holders[part] = holders.get(part, 0) | 1 << (len(splits) - 1)
        members.append(s)
    return holders, list(splits.values())


def _flat(field: FieldSpec, entries: tuple) -> tuple | int:
    """A matrix's entries, row by row, as _commuting adds them: over F_(2^k),
    one int with entry c in byte c (q <= 64), so that a sum is an XOR."""
    return int.from_bytes(bytes(entries), "little") if field.p == 2 else entries


def _commuting(sigma: Matrix, matrices: frozenset) -> int:
    """The members of ``matrices`` that commute with sigma: the sums a + b in it,
    for a and b in the spans of the two halves of a basis of the commutant."""
    field = sigma.field
    basis = commutant_basis(sigma)
    half = len(basis) // 2
    lows, highs = (_span(field, part, sigma.nrows ** 2) for part in (basis[:half], basis[half:]))
    if field.p == 2:
        return sum(len(matrices.intersection(map(a.__xor__, highs))) for a in lows)
    add, count = field._add, 0
    for a in lows:
        plus = [add[x] for x in a]
        count += len(matrices.intersection(tuple(map(getitem, plus, b)) for b in highs))
    return count


def _span(field: FieldSpec, basis: list, cells: int) -> list:
    """Every F_q-combination of ``basis``, ``_flat`` matrices of ``cells`` entries."""
    add, mul = field._add, field._mul
    span = [_flat(field, (0,) * cells)]
    for b in basis:
        multiples = [_flat(field, tuple([mul[c][x] for x in b])) for c in range(field.q)]
        span = ([v ^ m for m in multiples for v in span] if field.p == 2 else
                [tuple(map(getitem, [add[x] for x in v], m)) for m in multiples for v in span])
    return span


def _gl_generator_slots(field: FieldSpec, n: int) -> list[tuple[int, int, int]]:
    """(i, j, c) for each generator of GL_n: the identity with entry (i, j) set
    to c, an elementary transvection for i != j and a unit scaling for i = j."""
    return [(i, j, c) for i in range(n) for j in range(n)
            for c in range(2 if i == j else 1, field.q)]


@lru_cache(maxsize=None)
def _gl_generators(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """Elementary transvections and one-slot unit scalings; generates GL_n."""
    gens = []
    for i, j, c in _gl_generator_slots(field, n):
        rows = [list(r) for r in Matrix.identity(field, n).entries]
        rows[i][j] = c
        gens.append(Matrix.make(field, rows))
    return tuple(gens)


def orbit_partition(e: SpeciesExpr, field: FieldSpec, n: int,
                    budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Aut(E_n)-orbits on structures via BFS over GL generators.

    Returns one dict per orbit: representative (minimal encoding) and size."""
    return _orbits(field, n, enumerate_structures(e, field, n, budget))


def _orbits(field: FieldSpec, n: int, structures: list) -> list[dict]:
    """``orbit_partition`` of ``structures``, which nothing checks here."""
    loop: dict = {}
    actions = [_Acting(g, loop) for g in _gl_generators(field, n)]
    unseen = set(structures)
    orbits = []
    while unseen:
        start = min(unseen)
        frontier = [start]
        orbit = {start}
        while frontier:
            cur = frontier.pop()
            for a in actions:
                nxt = _transport(cur, a)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        unseen -= orbit
        orbits.append({"rep": min(orbit), "size": len(orbit)})
    return orbits


def orbit_count_bf(e: SpeciesExpr, field: FieldSpec, n: int,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Orbit count, by explicit partition and by Burnside average over all of
    GL_n; both must agree."""
    structures = enumerate_structures(e, field, n, budget)
    orbits = _orbits(field, n, structures)
    if gl_order(field, n) * field.q ** (n * n) <= budget:
        prepared = _prepare(field, n, structures)
        total = sum(_fix_count(sigma, prepared)
                    for sigma in enumerate_matrices(field, n, True, budget))
        burnside, rest = divmod(total, gl_order(field, n))
        require(rest == 0, f"Burnside total {total} is not divisible by |GL_{n}|")
        require(burnside == len(orbits),
                f"orbit partition ({len(orbits)}) and Burnside ({burnside}) disagree")
    return len(orbits)


def zindex_bf(e: SpeciesExpr, field: FieldSpec, order: int,
              budget: int = DEFAULT_BUDGET) -> CycleIndexSeries:
    """Cycle index by literal summation over all of Aut(E_n), n <= order: every
    sigma is visited once, along the conjugacy orbit of its class, and its
    fixed points are counted by transport; its monomial is its class's.  Raises
    BudgetExceededError when q^(n²) exceeds ``budget``."""
    terms: dict[InvariantData, Fraction] = {}
    for n in range(order + 1):
        structures = _prepare(field, n, enumerate_structures(e, field, n, budget))
        check_matrix_budget(field, n, budget)
        for c, orbit in _conjugacy_orbits(field, n):
            fix = sum(_fix_count(sigma, structures) for sigma in orbit)
            if fix:
                terms[c.invariant] = Fraction(fix, gl_order(field, n))
    return CycleIndexSeries(field, order, terms)


def _conjugacy_orbits(field: FieldSpec, n: int):
    """Each class c of GL_n with its members, the conjugacy orbit of c's
    representative, found by search along ``_conjugation_steps``.  Checks that
    each orbit has c.class_size members, that the orbits are disjoint and hold
    the gamma_n elements of GL_n together, and that ``invariant_data`` gives c's
    invariant on the representative and on the last member found.  An orbit
    is closed under conjugation, so two orbits are disjoint iff their least
    members differ; only the orbit being searched is held."""
    steps = _conjugation_steps(field, n)
    least: set = set()
    total = 0
    for c in enumerate_classes(field, n, "aut"):
        rep = c.representative(field)
        require(invariant_data(rep) == c.invariant,
                f"the representative of {c.invariant} has another invariant")
        start = sum(rep.entries, ())
        orbit, members = [start], {start}
        for cur in orbit:  # grows while it is read: a breadth-first search
            for step in steps:
                nxt = step(cur)
                if nxt not in members:
                    members.add(nxt)
                    orbit.append(nxt)
        require(len(orbit) == c.class_size, f"the orbit of {c.invariant} has "
                f"{len(orbit)} members, not its class size {c.class_size}")
        first = min(orbit)
        require(first not in least, f"the orbit of {c.invariant} meets another class's")
        least.add(first)
        total += len(orbit)
        matrices = [Matrix(field, tuple(flat[i * n:i * n + n] for i in range(n)))
                    for flat in orbit]
        if len(matrices) > 1:
            require(invariant_data(matrices[-1]) == c.invariant,
                    f"a conjugate of the representative of {c.invariant} has another invariant")
        yield c, matrices
    require(total == gl_order(field, n),
            f"the class orbits hold {total} of the {gl_order(field, n)} elements of GL_{n}")


def _conjugation_steps(field: FieldSpec, n: int) -> list:
    """For each generator G of ``_gl_generators``, the map sigma -> G sigma G⁻¹
    on sigma's n² entries, flattened row by row to one tuple.  G is the
    identity with entry (i, j) set to c.  For i != j, G sigma adds c times row
    j to row i, and (G sigma) G⁻¹ subtracts c times column i from column j;
    for i = j, G sigma scales row i by c, and (G sigma) G⁻¹ scales column i by
    c⁻¹.  So each step is one row operation and one column operation, with no
    matrix product."""
    return [_step(field, n, i, j, c) for i, j, c in _gl_generator_slots(field, n)]


def _step(field: FieldSpec, n: int, i: int, j: int, c: int):
    """The conjugation step by the generator with entry (i, j) set to c.  For
    i != j, each entry x of row i gains c y, for the entry y of row j in its
    column, through the table plus[x][y] = x + c y; then column j gains -c
    times column i the same way."""
    q, add, mul = field.q, field._add, field._mul
    if i != j:
        plus, minus = ([[add[x][mul[m][y]] for y in range(q)] for x in range(q)]
                       for m in (c, field._neg[c]))
        rows = [(i * n + t, j * n + t) for t in range(n)]
        columns = [(t * n + j, t * n + i) for t in range(n)]

        def step(flat: tuple) -> tuple:
            a = list(flat)
            for p, r in rows:
                a[p] = plus[a[p]][a[r]]
            for p, r in columns:
                a[p] = minus[a[p]][a[r]]
            return tuple(a)
    else:
        times, inverse = mul[c], mul[field._inv[c]]
        row, column = range(i * n, i * n + n), range(i, n * n, n)

        def step(flat: tuple) -> tuple:
            a = list(flat)
            for p in row:
                a[p] = times[a[p]]
            for p in column:
                a[p] = inverse[a[p]]
            return tuple(a)
    return step
