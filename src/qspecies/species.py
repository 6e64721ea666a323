"""Built-in q-species and combinators, with their three series.

A species expression is a small immutable AST.  The generating, type and
cycle index series are one fold over it, ``_fold``: F+G adds, FG multiplies,
F^n is a power and plus(F) drops the constant term.  Each series supplies only
its leaves (builtins, assemblies and mark).  An ``Assembly`` structure is an
unordered direct-sum decomposition into nonzero parts with an F-structure on
each part: any number of parts for E(F), exactly m for sym(m, F).

Builtins carry closed-form structure counts, orbit counts and fixed-point
counts (``BuiltinSpec``).  GL_n is transitive on the subspaces of each
dimension and on bases, and has two orbits on vectors; the orbits on
matrices, and on the g with g^m = 1 (RepCyclic(m)), are the conjugacy
classes, counted by an Euler product over the monic irreducibles
(``_class_counts``) that enumerates no class.  So the type series sums no
partition.  A builtin's fix(sigma) is read off sigma's class (``class_fix``):
its eigenvalue-1 part for Elem and Bases, its commutant for End, its
centralizer for Aut, Birkhoff's count of submodules per primary part for
Sub(k) and Proj = Sub(1), and the commutant's g with g^m = 1 for
RepCyclic(m).  Only the cycle index walks the classes.  RepCyclic(m)'s
generating series is a product over the phi dividing z^m - 1
(``_rep_cyclic_gen``).

Both assemblies are one plethysm rule, ``_plethysm``, applied to F's cycle
index or to F's type series: E(F) is exp(sum_r Psi_r(F)/r), and sym(m, F) is
h_m from Newton's identity m h_m = sum_(r <= m) Psi_r(F) h_(m-r).  The type
specialisation sends the Adams operation Psi_r to x -> x^r, so the type
series never builds a cycle index.  Nothing here uses the oracle; the only
enumeration is RepCyclic(m)'s cycle index, of the commutant of each
non-scalar primary part, bounded by DEFAULT_BUDGET per dimension.  The
oracle's literal sums over all of GL_n stay the independent check.

Weights have one rule: mark(F) multiplies weights by t in the weighted
generating series, and the type series and cycle index of any expression
that contains mark raise UnsupportedOperationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .classes import ConjClass, enumerate_classes, part_centralizer_order, partitions
from .field import FieldSpec, field_make
from .linalg import (DEFAULT_BUDGET, BudgetExceededError, Matrix, block_diagonal,
                     commutant_basis, companion_matrix, gaussian_binomial, gl_order, q_int,
                     qbinomial, require)
from .poly import Poly, irreducible_count, poly_z_minus
from .series import POLY_T, RATIONAL, PowerSeries, TPoly, euler_product, ring_one
from .cycleindex import CycleIndexSeries, _factor_at_power, z_build, z_one


class SpeciesExpr:
    """Base class for species AST nodes."""

    def __add__(self, other: "SpeciesExpr") -> "SpeciesExpr":
        return Sum(self, other)

    def __mul__(self, other: "SpeciesExpr") -> "SpeciesExpr":
        return Product(self, other)

    def __pow__(self, n: int) -> "SpeciesExpr":
        return Power(self, n)


@dataclass(frozen=True)
class Builtin(SpeciesExpr):
    name: str
    arg: int | None = None


@dataclass(frozen=True)
class Sum(SpeciesExpr):
    left: SpeciesExpr
    right: SpeciesExpr


@dataclass(frozen=True)
class Product(SpeciesExpr):
    left: SpeciesExpr
    right: SpeciesExpr


@dataclass(frozen=True)
class Power(SpeciesExpr):
    base: SpeciesExpr
    n: int


@dataclass(frozen=True)
class Assembly(SpeciesExpr):
    """E(F) for n = None, else sym(n, F): unordered direct-sum decompositions
    into nonzero parts, n of them if n is given, with an F-structure on each."""
    base: SpeciesExpr
    n: int | None = None


@dataclass(frozen=True)
class Plus(SpeciesExpr):
    base: SpeciesExpr


@dataclass(frozen=True)
class Mark(SpeciesExpr):
    base: SpeciesExpr


# -- builtin semantics --------------------------------------------------------

@lru_cache(maxsize=None)
def _count_rep_cyclic(field, n, m):
    """Automorphisms g with g^m = 1: gamma_n times the x^n coefficient of
    ``_rep_cyclic_gen``."""
    c = _rep_cyclic_gen(field, n, m).coeffs[n] * gl_order(field, n)
    require(c.denominator == 1, f"RepCyclic({m}) count {c} at n={n} is not an integer")
    return c.numerator


@lru_cache(maxsize=None)
def _cyclotomic(field, m):
    """The phi dividing z^m - 1, with their multiplicities v_phi; none for m = 0."""
    return _factor_at_power(poly_z_minus(field, 1), m) if m else ()


def _fix_sub(field: FieldSpec, c: ConjClass, k: int) -> int:
    """The k-subspaces invariant under sigma in the class c: its F_q[z]-submodules
    of dimension k, the direct sums of one submodule per primary part, so the
    parts' counts by dimension convolve up to k."""
    out = [1] + [0] * k
    for phi, lam in c.invariant.partitions:
        count = _submodule_counts(lam, field.q**phi.degree, phi.degree, k)
        if any(count[1:]):  # else the part's only submodule of dimension <= k is 0
            out = [sum(out[i] * count[j - i] for i in range(j + 1)) for j in range(k + 1)]
    return out[k]


@lru_cache(maxsize=None)
def _submodule_counts(lam: tuple, Q: int, d: int, k: int) -> tuple[int, ...]:
    """Entry j <= k: the submodules of F_q-dimension j of a phi-primary module of
    type lam, where deg phi = d and Q = q^d.  A submodule of type nu inside lam
    has dimension d|nu|; nu = 0 is the zero submodule alone."""
    out = [1] + [0] * k
    for nu in _subpartitions(lam, k // d)[1:]:
        out[d * sum(nu)] += _birkhoff(lam, nu, Q)
    return tuple(out)


def _subpartitions(lam: tuple, most: int) -> list[tuple]:
    """Partitions nu with nu_i <= lam_i and |nu| <= most, the empty one included."""
    out = []

    def rec(i: int, largest: int, left: int, acc: tuple) -> None:
        out.append(acc)
        if i < len(lam):
            for part in range(1, min(lam[i], largest, left) + 1):
                rec(i + 1, part, left - part, acc + (part,))

    rec(0, most, most, ())
    return out


@lru_cache(maxsize=None)
def _conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def _birkhoff(lam: tuple, nu: tuple, Q: int) -> int:
    """Submodules of type nu in a module of type lam over a discrete valuation
    ring with residue field F_Q (Butler, Mem. AMS 539; Macdonald, ch. II):
    prod_i Q^(nu'_{i+1}(lam'_i - nu'_i)) [lam'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_Q."""
    lc = _conjugate(lam)
    nc = _conjugate(nu) + (0,)  # the factors past nu'_i = 0 are 1
    out = 1
    for i in range(len(nc) - 1):
        out *= (Q ** (nc[i + 1] * (lc[i] - nc[i]))
                * gaussian_binomial(Q, lc[i] - nc[i + 1], nc[i] - nc[i + 1]))
    return out


def _commutant_dim(d: int, lam: tuple) -> int:
    """F_q-dimension of the commutant of a phi-primary part of type lam, deg phi = d."""
    return d * sum(min(a, b) for a in lam for b in lam)


def _fix_rep_cyclic(field, c, m):
    """The g with g^m = 1 that commute with sigma.  The commutant is block
    diagonal over sigma's primary parts, since Hom between different primary
    components is zero (Macdonald, ch. IV), so the count is a product over the
    parts.  Everything commutes with a scalar part (deg phi = 1, lam = 1^k),
    which gives the closed count on k dimensions; any other part's commutant is
    enumerated, once the whole of dimension n is within DEFAULT_BUDGET.  For
    m = 0 every g in the centralizer counts, and no singular one."""
    if m == 0:
        return c.centralizer_order
    work = _commutant_work(field, c.n)
    if work > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"enumerating {work} commutant elements in dimension {c.n} "
            f"exceeds budget {DEFAULT_BUDGET}")
    out = 1
    for phi, lam in c.invariant.partitions:
        if _is_scalar(phi, lam):
            out *= _count_rep_cyclic(field, len(lam), m)
        else:
            out *= _commutant_roots(field, phi, lam, m)
    return out


def _is_scalar(phi: Poly, lam: tuple) -> bool:
    return phi.degree == 1 and lam[0] == 1


@lru_cache(maxsize=None)
def _commutant_work(field: FieldSpec, n: int) -> int:
    """Sum of q^dim over the non-scalar primary parts of every Aut class of
    dimension n: what ``_fix_rep_cyclic`` enumerates there."""
    return sum(field.q ** _commutant_dim(phi.degree, lam)
               for c in enumerate_classes(field, n, "aut")
               for phi, lam in c.invariant.partitions if not _is_scalar(phi, lam))


@lru_cache(maxsize=None)
def _commutant_roots(field: FieldSpec, phi: Poly, lam: tuple, m: int) -> int:
    """The g with g^m = 1 among the matrices commuting with s, the direct sum of
    the companion matrices of phi^i for i in lam: every F_q-combination of a
    basis of the commutant of s is tried."""
    s = block_diagonal(field, [companion_matrix(phi**i) for i in lam])
    size, basis = s.nrows, commutant_basis(s)
    require(len(basis) == _commutant_dim(phi.degree, lam),
            f"commutant of ({phi}, {lam}) has dimension {len(basis)}")
    matrices = [Matrix(field, tuple(v[i * size:(i + 1) * size] for i in range(size)))
                for v in basis]
    multiples = [[x.scale(a) for a in range(1, field.q)] for x in matrices]
    ident = Matrix.identity(field, size)

    def count(j: int, g: Matrix) -> int:
        if j == len(multiples):
            return 1 if g**m == ident else 0
        return count(j + 1, g) + sum(count(j + 1, g + b) for b in multiples[j])

    return count(0, Matrix.zero(field, size, size))


def _eigenvalue_1(field: FieldSpec, c: ConjClass) -> tuple:
    """The partition at phi = z - 1 of the class c: sigma's Jordan blocks of
    eigenvalue 1, so its length is dim ker(sigma - 1)."""
    return dict(c.invariant.partitions).get(poly_z_minus(field, 1), ())


@dataclass(frozen=True)
class BuiltinSpec:
    """A builtin: its closed count |F[E_n]|; its type series, the GL_n-orbits
    on F[E_n] in closed form, unless GL_n acts trivially and the orbits are the
    structures; and fix F[sigma] for sigma in an Aut class, unless it depends
    on n alone and is the count.  ``gen`` reads ``count``, ``type`` reads
    ``types`` and ``zindex`` reads ``fix``."""
    count: object                  # (field, n, arg) -> |F[E_n]|
    fix: object = None             # (field, c, arg) -> fix F[sigma], sigma in the class c
    needs_arg: bool = False
    types: object = None           # (field, order, arg) -> the type series


def _types_by_dimension(orbits):
    """``BuiltinSpec.types`` from the number of orbits on F[E_n],
    (field, n, arg) -> int."""
    return lambda field, order, arg: PowerSeries(
        RATIONAL, order, [Fraction(orbits(field, n, arg)) for n in range(order + 1)])


def _class_counts(field: FieldSpec, order: int, m: int | None) -> PowerSeries:
    """The classes of each dimension: of End for m = None, else of the g in GL
    with g^m = 1.  A class is a partition lam_phi for each monic irreducible
    phi, z excluded in GL, and g^m = 1 when lam_phi has no part above v_phi,
    the multiplicity of phi in z^m - 1 (no bound for m = 0).  So
    the count is the Euler product over the phi of
    prod_(i <= v_phi) 1/(1 - x^(i deg phi)) (Macdonald, ch. IV), whose
    unbounded factors are shared by the N_d phi of each degree d."""
    if m:
        bounds = [(phi.degree, v, 1) for phi, v in _cyclotomic(field, m)]
    else:
        bounds = [(d, order, irreducible_count(field, d) - (d == 1 and m == 0))
                  for d in range(1, order + 1)]
    exponents = dict.fromkeys(range(1, order + 1), 0)
    for d, v, number in bounds:
        for i in range(1, min(v, order // d) + 1):
            exponents[i * d] += number
    return euler_product(exponents, order)


BUILTINS: dict[str, BuiltinSpec] = {
    "One": BuiltinSpec(lambda field, n, arg: 1 if n == 0 else 0),
    "Zero": BuiltinSpec(lambda field, n, arg: 0),
    # fixed vectors: the kernel of sigma - 1; two orbits, the zero vector and the rest
    "Elem": BuiltinSpec(lambda field, n, arg: field.q**n,
                        lambda field, c, arg: field.q ** len(_eigenvalue_1(field, c)),
                        types=_types_by_dimension(lambda field, n, arg: min(n, 1) + 1)),
    # invariant subspaces; GL_n is transitive on the k-subspaces
    "Proj": BuiltinSpec(lambda field, n, arg: q_int(field.q, n),
                        lambda field, c, arg: _fix_sub(field, c, 1),
                        types=_types_by_dimension(lambda field, n, arg: int(n >= 1))),
    "Sub": BuiltinSpec(lambda field, n, k: qbinomial(field, n, k) if k <= n else 0,
                       _fix_sub, needs_arg=True,
                       types=_types_by_dimension(lambda field, n, k: int(n >= k))),
    # matrices commuting with sigma: its commutant algebra, and the units there;
    # the orbits are the classes
    "End": BuiltinSpec(lambda field, n, arg: field.q ** (n * n),
                       lambda field, c, arg: field.q ** sum(
                           _commutant_dim(phi.degree, lam) for phi, lam in c.invariant.partitions),
                       types=lambda field, order, arg: _class_counts(field, order, None)),
    "Aut": BuiltinSpec(lambda field, n, arg: gl_order(field, n),
                       lambda field, c, arg: c.centralizer_order,
                       types=lambda field, order, arg: _class_counts(field, order, 0)),
    # only the identity fixes a basis; one orbit
    "Bases": BuiltinSpec(lambda field, n, arg: gl_order(field, n),
                         lambda field, c, arg:
                         c.centralizer_order if _eigenvalue_1(field, c) == (1,) * c.n else 0,
                         types=_types_by_dimension(lambda field, n, arg: 1)),
    "V": BuiltinSpec(lambda field, n, arg: 1),
    "Vplus": BuiltinSpec(lambda field, n, arg: 1 if n >= 1 else 0),
    "Fscalar": BuiltinSpec(lambda field, n, arg: field.q if n == 1 else 0),
    "Fstar": BuiltinSpec(lambda field, n, arg: field.q - 1 if n == 1 else 0),
    "RepCyclic": BuiltinSpec(_count_rep_cyclic, _fix_rep_cyclic, needs_arg=True,
                             types=_class_counts),
}


class UnsupportedOperationError(RuntimeError):
    """The requested series is not implemented for this expression (weights)."""


def empty_at_zero(e: SpeciesExpr) -> bool:
    """Does F[0] = empty hold?  |F[E_0]| is the constant term of F's weighted
    generating series, for every node and every q; e's own sym/E operands must
    already satisfy the precondition (``validate`` checks children first)."""
    return not _gen_series(e, field_make(2, 1), 0, POLY_T).coeffs[0]


def _children(e: SpeciesExpr) -> tuple[SpeciesExpr, ...]:
    if isinstance(e, (Sum, Product)):
        return (e.left, e.right)
    if isinstance(e, Builtin):
        return ()
    return (e.base,)


def _check_operand(e: SpeciesExpr) -> None:
    if not empty_at_zero(e):
        from .parser import render
        raise ValueError(
            f"operand of E/sym may have structures in dimension 0: {render(e)}")


def validate(e: SpeciesExpr) -> None:
    """Enforce n >= 0 on every power and sym, and the F[0] = empty
    precondition on every E/sym operand."""
    for child in _children(e):
        validate(child)
    if isinstance(e, (Power, Assembly)) and e.n is not None and e.n < 0:
        raise ValueError(f"negative exponent {e.n} in {type(e).__name__}")
    if isinstance(e, Assembly):
        _check_operand(e.base)


def contains_mark(e: SpeciesExpr) -> bool:
    return isinstance(e, Mark) or any(contains_mark(c) for c in _children(e))


def _validate_unweighted(e: SpeciesExpr, what: str) -> None:
    """The one rule for weighted species outside ``gen_series``: a ``mark``
    anywhere in the expression makes the series unsupported."""
    validate(e)
    if contains_mark(e):
        raise UnsupportedOperationError(
            f"{what} of a weighted species (mark) is not implemented")


def _fold(e: SpeciesExpr, leaf):
    """Sum, Product, Power and Plus by the rules every series shares; any
    other node is ``leaf(e)``, which folds its own operand where it needs one."""
    if isinstance(e, Sum):
        return _fold(e.left, leaf) + _fold(e.right, leaf)
    if isinstance(e, Product):
        return _fold(e.left, leaf) * _fold(e.right, leaf)
    if isinstance(e, Power):
        return _fold(e.base, leaf) ** e.n
    if isinstance(e, Plus):
        return _fold(e.base, leaf).drop_constant()
    return leaf(e)


# -- generating series ---------------------------------------------------------

def gen_series(e: SpeciesExpr, field: FieldSpec, order: int,
               ring: str = RATIONAL) -> PowerSeries:
    """The generating series sum f_n x^n / gamma_n, truncated.

    Builtins use their closed counts, and RepCyclic(m) ``_rep_cyclic_gen``.
    sym(n, F) is F^n / n!, E(F) is exp(F) and mark(F) multiplies F's series
    by t, which needs ``ring=POLY_T``."""
    validate(e)
    return _gen_series(e, field, order, ring)


def _gen_series(e: SpeciesExpr, field: FieldSpec, order: int, ring: str) -> PowerSeries:
    """``gen_series`` of an expression that has been validated."""
    one = ring_one(ring)

    def leaf(x: SpeciesExpr) -> PowerSeries:
        if isinstance(x, Builtin):
            if x.name == "RepCyclic":
                coeffs = _rep_cyclic_gen(field, order, x.arg).coeffs
            else:
                count = BUILTINS[x.name].count
                coeffs = [Fraction(count(field, n, x.arg), gl_order(field, n))
                          for n in range(order + 1)]
            return PowerSeries(ring, order, [one * c for c in coeffs])
        if isinstance(x, Assembly):
            f = _fold(x.base, leaf)
            return f.exp() if x.n is None else (f ** x.n).scale(Fraction(1, factorial(x.n)))
        # the remaining leaf is mark(F)
        if ring != POLY_T:
            raise ValueError("mark(...) requires the weighted coefficient ring")
        return _fold(x.base, leaf).scale(TPoly.t())

    return _fold(e, leaf)


def weighted_gen_series(e: SpeciesExpr, field: FieldSpec, order: int) -> PowerSeries:
    """Generating series over Q[t]; Mark nodes multiply weights by t."""
    return gen_series(e, field, order, POLY_T)


# -- fixed points ---------------------------------------------------------------

def class_fix(e: Builtin, field: FieldSpec, c: ConjClass) -> int:
    """fix F[sigma] for a builtin F and sigma in the Aut class c: the builtin's
    ``fix``, or its count on E_n if that is all fix depends on."""
    spec = BUILTINS[e.name]
    return spec.fix(field, c, e.arg) if spec.fix else spec.count(field, c.n, e.arg)


def _rep_cyclic_gen(field: FieldSpec, order: int, m: int) -> PowerSeries:
    """sum_n #{g in GL_n : g^m = 1} x^n / gamma_n, that is sum_c [c^m = 1] / |C(c)|
    over classes.  The indicator, lam_1 <= v_phi on every part, and the
    centralizer order are products over parts, so the sum is the product over
    the phi dividing z^m - 1 of sum_(lam_1 <= v_phi) y^|lam| / c_Q(lam), with
    y = x^deg phi and Q = q^deg phi.  For m = 0 every g counts: 1 in every
    dimension."""
    if m == 0:
        return PowerSeries(RATIONAL, order, [Fraction(1)] * (order + 1))
    out = PowerSeries.one(RATIONAL, order)
    for phi, v in _cyclotomic(field, m):
        d, Q = phi.degree, field.q**phi.degree
        factor = [sum((Fraction(1, part_centralizer_order(Q, lam)) for lam in partitions(k, v)),
                      Fraction(0)) for k in range(order // d + 1)]
        out = PowerSeries.from_coeffs(RATIONAL, order, factor).adams(d) * out
    return out


# -- plethysm ---------------------------------------------------------------------

def _plethysm(x: Assembly, f, one):
    """E(F) or sym(m, F) from F's cycle index or type series f, whose series 1 is
    ``one``: exp(sum_r Psi_r(f)/r), or h_m from Newton's identity
    m h_m = sum_(r <= m) Psi_r(f) h_(m-r), h_0 = 1 (Bergeron-Labelle-Leroux
    1998; Macdonald, I (2.11)), in m(m+1)/2 products.  Psi_r is ``adams(r)``;
    the type specialisation is a ring map that sends Psi_r to x -> x^r, so one
    rule serves both series."""
    zero = one.scale(0)
    if x.n is None:
        return sum((f.adams(r).scale(Fraction(1, r)) for r in range(1, f.order + 1)),
                   zero).exp()
    adams = {r: f.adams(r) for r in range(1, x.n + 1)}
    h = [one]
    for m in range(1, x.n + 1):
        h.append(sum((adams[r] * h[m - r] for r in range(1, m + 1)), zero)
                 .scale(Fraction(1, m)))
    return h[x.n]


# -- type generating series ------------------------------------------------------

def type_series(e: SpeciesExpr, field: FieldSpec, order: int) -> PowerSeries:
    """The type generating series sum ftilde_n x^n, truncated, over Q.

    A builtin's orbits on F[E_n] are its closed ``types``, or its structures
    where GL_n acts trivially.  E(F) and sym(m, F) are ``_plethysm`` of F's
    type series, each coefficient checked to be a nonnegative integer; the
    other nodes go through ``_fold``.  No cycle index is built and no class or
    structure is enumerated.  An expression that contains ``mark`` raises
    UnsupportedOperationError."""
    _validate_unweighted(e, "type series")

    def leaf(x: SpeciesExpr) -> PowerSeries:
        if isinstance(x, Assembly):
            types = _plethysm(x, _fold(x.base, leaf), PowerSeries.one(RATIONAL, order))
            what = "E" if x.n is None else "sym"
            for n, c in enumerate(types.coeffs):
                require(c.denominator == 1 and c >= 0,
                        f"{what} type coefficient {c} at n={n} is not a nonnegative integer")
            return types
        spec = BUILTINS[x.name]
        return (spec.types or _types_by_dimension(spec.count))(field, order, x.arg)

    return _fold(e, leaf)


# -- cycle index series -----------------------------------------------------------

def cycle_index(e: SpeciesExpr, field: FieldSpec, order: int) -> CycleIndexSeries:
    """The cycle index series, truncated by graded degree.

    Builtins are built class by class with ``z_build`` over ``class_fix``.
    E(F) and sym(m, F) are ``_plethysm`` of Z_F.  The other nodes go through
    ``_fold`` (Z_{F+G} = Z_F + Z_G, Z_{FG} = Z_F Z_G).  Only RepCyclic(m)'s
    fixed points enumerate anything, the commutants of non-scalar primary parts,
    and a dimension whose enumeration would exceed DEFAULT_BUDGET raises
    BudgetExceededError.  An expression that contains ``mark`` raises
    UnsupportedOperationError."""
    _validate_unweighted(e, "cycle index")

    def leaf(x: SpeciesExpr) -> CycleIndexSeries:
        if isinstance(x, Assembly):
            return _plethysm(x, _fold(x.base, leaf), z_one(field, order))
        return z_build(field, lambda c: class_fix(x, field, c), order)

    return _fold(e, leaf)
