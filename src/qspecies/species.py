"""Built-in q-species and combinators, with their three series.

A species expression is a small immutable AST.  The generating, type and
cycle index series are one fold over it, ``_fold``: F+G adds, FG multiplies,
F^n is a power and plus(F) drops the constant term.  Each series supplies only
its leaves (builtins, sym, E and mark).  Builtins carry closed-form structure
counts and a fixed-point count per conjugacy class: Sub(k) and Proj = Sub(1)
by Birkhoff's count of submodules, RepCyclic(m) as a product over the primary
parts of sigma of the g with g^m = 1 in that part's commutant.  E(F) and
sym(m, F) are one plethysm rule, ``_plethysm``, applied to F's cycle index or
to F's type series: the type specialisation sends the Adams operation Psi_r to
x -> x^r, so the type series never builds a cycle index.  Nothing here uses
the oracle; the only enumeration is RepCyclic(m)'s, of the commutant of each
non-scalar primary part, bounded by DEFAULT_BUDGET per dimension, and only its
cycle index needs it: its type series counts classes instead.  The oracle's
literal sums over all of GL_n stay the independent check.

Weights have one rule: mark(F) multiplies weights by t in the weighted
generating series, and the type series and cycle index of any expression
that contains mark raise UnsupportedOperationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial

from .classes import ConjClass, class_weighted_sum, enumerate_classes, partitions
from .field import FieldSpec, field_make
from .linalg import (DEFAULT_BUDGET, BudgetExceededError, Matrix, block_diagonal,
                     companion_matrix, gaussian_binomial, gl_order, q_int, qbinomial,
                     require)
from .poly import Poly, poly_z, poly_z_minus
from .series import POLY_T, RATIONAL, PowerSeries, TPoly, ring_one
from .cycleindex import CycleIndexSeries, z_build, z_one


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
class SymPower(SpeciesExpr):
    base: SpeciesExpr
    n: int


@dataclass(frozen=True)
class Assembly(SpeciesExpr):
    base: SpeciesExpr


@dataclass(frozen=True)
class Plus(SpeciesExpr):
    base: SpeciesExpr


@dataclass(frozen=True)
class Mark(SpeciesExpr):
    base: SpeciesExpr


# -- builtin semantics --------------------------------------------------------

def _count_one(field, n, arg):
    return 1 if n == 0 else 0


def _count_zero(field, n, arg):
    return 0


def _count_elem(field, n, arg):
    return field.q**n


def _count_proj(field, n, arg):
    return q_int(field.q, n)


def _count_end(field, n, arg):
    return field.q ** (n * n)


def _count_aut(field, n, arg):
    return gl_order(field, n)


def _count_sub(field, n, arg):
    return qbinomial(field, n, arg) if arg <= n else 0


def _count_v(field, n, arg):
    return 1


def _count_vplus(field, n, arg):
    return 1 if n >= 1 else 0


def _count_fscalar(field, n, arg):
    return field.q if n == 1 else 0


def _count_fstar(field, n, arg):
    return field.q - 1 if n == 1 else 0


def _rep_cyclic_fixed(field, m):
    """The class predicate g^m = 1: z^m - 1 is a multiple of g's minimal
    polynomial, so of every elementary divisor phi^i of g, that is of phi^i
    for the largest part i of each lambda_phi."""
    z_m_minus_1 = poly_z(field) ** m - Poly(field, (1,))

    @lru_cache(maxsize=None)
    def divides(phi: Poly, i: int) -> bool:
        return (z_m_minus_1 % phi**i).is_zero

    def fixed(c: ConjClass) -> bool:
        return all(divides(phi, lam[0]) for phi, lam in c.invariant.partitions)
    return fixed


def _count_rep_cyclic(field, n, m):
    """Automorphisms g with g^m = 1, counted class by class."""
    return class_weighted_sum(field, n, "aut", _rep_cyclic_fixed(field, m))


def _types_rep_cyclic(field, n, m):
    """Structures up to conjugacy: one per Aut class whose elements have g^m = 1."""
    return sum(map(_rep_cyclic_fixed(field, m), enumerate_classes(field, n, "aut")))


def _fix_one(field, c, arg):
    return 1 if c.n == 0 else 0


def _fix_zero(field, c, arg):
    return 0


def _fix_elem(field, c, arg):
    """Fixed vectors of sigma: the kernel of sigma - 1, of dimension
    = number of parts of the partition at z-1."""
    z_minus_1 = poly_z_minus(field, 1)
    ell = sum(len(lam) for phi, lam in c.invariant.partitions if phi == z_minus_1)
    return field.q**ell


def _fix_sub(field, c, k):
    """Birkhoff's count: the sigma-invariant k-subspaces are the F_q[z]-submodules
    of dimension k of V = sum_phi M_phi.  A submodule is the sum of its phi-parts,
    each of some type nu_phi inside the type lambda_phi of M_phi and of dimension
    deg phi * |nu_phi|; sum over choices with total dimension k of the product of
    the counts per phi.  Parts with deg phi > k contribute only nu_phi = 0."""
    counts = (1,) + (0,) * k  # counts[j]: submodules of dimension j of the parts so far
    for phi, lam in c.invariant.partitions:
        d = phi.degree
        if d > k:
            continue
        per_phi = _submodule_counts(lam, field.q**d, d, k)
        counts = [sum(counts[i] * per_phi[j - i] for i in range(j + 1))
                  for j in range(k + 1)]
    return counts[k]


@lru_cache(maxsize=None)
def _submodule_counts(lam: tuple, Q: int, d: int, k: int) -> tuple[int, ...]:
    """Entry j <= k: the submodules of F_q-dimension j of a phi-primary module of
    type lam, where deg phi = d and Q = q^d."""
    out = [0] * (k + 1)
    for nu in _subpartitions(lam, k // d):
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


def _conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def _birkhoff(lam: tuple, nu: tuple, Q: int) -> int:
    """Submodules of type nu in a module of type lam over a discrete valuation
    ring with residue field F_Q (Butler, Mem. AMS 539; Macdonald, ch. II):
    prod_i Q^(nu'_{i+1}(lam'_i - nu'_i)) [lam'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_Q."""
    lc = _conjugate(lam)
    nc = _conjugate(nu)
    nc += (0,) * (len(lc) + 1 - len(nc))
    out = 1
    for i, li in enumerate(lc):
        out *= (Q ** (nc[i + 1] * (li - nc[i]))
                * gaussian_binomial(Q, li - nc[i + 1], nc[i] - nc[i + 1]))
    return out


def _commutant_dim(phi: Poly, lam: tuple) -> int:
    """F_q-dimension of the commutant of a phi-primary part of type lam."""
    return phi.degree * sum(min(a, b) for a in lam for b in lam)


def _fix_end(field, c, arg):
    """Matrices commuting with sigma: q^(dim of the commutant algebra), which
    is block diagonal over sigma's primary parts."""
    return field.q ** sum(_commutant_dim(phi, lam) for phi, lam in c.invariant.partitions)


def _fix_aut(field, c, arg):
    return c.centralizer_order


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
    return sum(field.q ** _commutant_dim(phi, lam)
               for c in enumerate_classes(field, n, "aut")
               for phi, lam in c.invariant.partitions if not _is_scalar(phi, lam))


@lru_cache(maxsize=None)
def _commutant_roots(field: FieldSpec, phi: Poly, lam: tuple, m: int) -> int:
    """The g with g^m = 1 among the matrices commuting with s, the direct sum of
    the companion matrices of phi^i for i in lam: every F_q-combination of a
    basis of the kernel of X -> sX - Xs is tried."""
    s = block_diagonal(field, [companion_matrix(phi**i) for i in lam]).entries
    size = len(s)
    cells = [(i, j) for i in range(size) for j in range(size)]
    # row (i, j): (sX - Xs)_ij = sum_k s_ik X_kj - sum_l X_il s_lj
    commutator = Matrix.make(field, [
        [field.sub(s[i][k] if l == j else 0, s[l][j] if k == i else 0) for k, l in cells]
        for i, j in cells])
    basis = commutator.kernel_basis().basis
    require(len(basis) == _commutant_dim(phi, lam),
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


def _fix_bases(field, c, arg):
    return gl_order(field, c.n) if c.invariant.is_identity() else 0


def _fix_count_equals(count):
    def fix(field, c, arg):
        return count(field, c.n, arg)
    return fix


@dataclass(frozen=True)
class BuiltinSpec:
    name: str
    count: object            # (field, n, arg) -> int
    fix: object              # (field, class, arg) -> int
    needs_arg: bool = False
    types: object | None = None  # (field, n, arg) -> orbit count; None: Burnside over fix


BUILTINS: dict[str, BuiltinSpec] = {
    "One": BuiltinSpec("One", _count_one, _fix_one),
    "Zero": BuiltinSpec("Zero", _count_zero, _fix_zero),
    "Elem": BuiltinSpec("Elem", _count_elem, _fix_elem),
    "Proj": BuiltinSpec("Proj", _count_proj, lambda field, c, arg: _fix_sub(field, c, 1)),
    "End": BuiltinSpec("End", _count_end, _fix_end),
    "Aut": BuiltinSpec("Aut", _count_aut, _fix_aut),
    "Bases": BuiltinSpec("Bases", _count_aut, _fix_bases),
    "V": BuiltinSpec("V", _count_v, _fix_count_equals(_count_v)),
    "Vplus": BuiltinSpec("Vplus", _count_vplus, _fix_count_equals(_count_vplus)),
    "Sub": BuiltinSpec("Sub", _count_sub, _fix_sub, needs_arg=True),
    "Fscalar": BuiltinSpec("Fscalar", _count_fscalar, _fix_count_equals(_count_fscalar)),
    "Fstar": BuiltinSpec("Fstar", _count_fstar, _fix_count_equals(_count_fstar)),
    "RepCyclic": BuiltinSpec("RepCyclic", _count_rep_cyclic, _fix_rep_cyclic, needs_arg=True,
                             types=_types_rep_cyclic),
}


class UnsupportedOperationError(RuntimeError):
    """The requested series is not implemented for this expression (weights)."""


def empty_at_zero(e: SpeciesExpr) -> bool:
    """Static analysis: does F[0] = empty hold for this expression?"""
    if isinstance(e, Builtin):
        # structure counts at n = 0 do not depend on q
        return BUILTINS[e.name].count(field_make(2, 1), 0, e.arg) == 0
    if isinstance(e, Sum):
        return empty_at_zero(e.left) and empty_at_zero(e.right)
    if isinstance(e, Product):
        return empty_at_zero(e.left) or empty_at_zero(e.right)
    if isinstance(e, Power):
        return e.n > 0 and empty_at_zero(e.base)
    if isinstance(e, SymPower):
        return e.n > 0
    if isinstance(e, Assembly):
        return False  # the empty assembly is a structure on the zero space
    if isinstance(e, Plus):
        return True
    if isinstance(e, Mark):
        return empty_at_zero(e.base)
    raise TypeError(f"unknown species node {e!r}")


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
    """Enforce the F[0] = empty precondition on every sym/assembly operand."""
    for child in _children(e):
        validate(child)
    if isinstance(e, (SymPower, Assembly)):
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


def structure_count(e: SpeciesExpr, field: FieldSpec, n: int) -> int:
    """|F[E_n]| from closed forms."""
    c = gen_series(e, field, n).coeffs[n] * gl_order(field, n)
    if isinstance(c, TPoly):
        c = c.subs_t(1)
    require(c.denominator == 1, f"structure count {c} is not an integer")
    return c.numerator


# -- generating series ---------------------------------------------------------

def gen_series(e: SpeciesExpr, field: FieldSpec, order: int,
               ring: str = RATIONAL) -> PowerSeries:
    """The generating series sum f_n x^n / gamma_n, truncated.

    Builtins use their closed counts, sym(n, F) is F^n / n!, E(F) is exp(F)
    and mark(F) multiplies F's series by t, which needs ``ring=POLY_T``."""
    validate(e)
    one = ring_one(ring)

    def leaf(x: SpeciesExpr) -> PowerSeries:
        if isinstance(x, Builtin):
            count = BUILTINS[x.name].count
            return PowerSeries(ring, order, [
                one * Fraction(count(field, n, x.arg), gl_order(field, n))
                for n in range(order + 1)])
        if isinstance(x, SymPower):
            return (_fold(x.base, leaf) ** x.n).scale(Fraction(1, factorial(x.n)))
        if isinstance(x, Assembly):
            return _fold(x.base, leaf).exp()
        # the remaining leaf is mark(F)
        if ring != POLY_T:
            raise ValueError("mark(...) requires the weighted coefficient ring")
        return _fold(x.base, leaf).scale(TPoly.t())

    return _fold(e, leaf)


def weighted_gen_series(e: SpeciesExpr, field: FieldSpec, order: int) -> PowerSeries:
    """Generating series over Q[t]; Mark nodes multiply weights by t."""
    return gen_series(e, field, order, POLY_T)


# -- fix counts per class -------------------------------------------------------

def class_fix(e: Builtin, field: FieldSpec, c: ConjClass) -> int:
    """fix F[sigma] for a builtin F and sigma in the given Aut conjugacy class,
    from the builtin's count per class."""
    return BUILTINS[e.name].fix(field, c, e.arg)


# -- plethysm ---------------------------------------------------------------------

def _plethysm(x: SymPower | Assembly, f, one):
    """E(F) or sym(m, F) from F's cycle index or type series f, whose series 1 is
    ``one``: exp(sum_r Psi_r(f)/r) and sum over partitions lambda of m of
    prod_j Psi_{lambda_j}(f) / z_lambda (Bergeron-Labelle-Leroux 1998).  Psi_r is
    ``adams(r)``; the type specialisation is a ring map that sends Psi_r to
    x -> x^r, so one rule serves both series."""
    zero = one.scale(0)
    if isinstance(x, Assembly):
        return sum((f.adams(r).scale(Fraction(1, r)) for r in range(1, f.order + 1)),
                   zero).exp()
    adams = {r: f.adams(r) for r in range(1, x.n + 1)}
    total = zero
    for lam in partitions(x.n):
        term = one.scale(Fraction(1, _z_lambda(lam)))
        for part in lam:
            term = term * adams[part]
        total = total + term
    return total


def _z_lambda(lam: tuple) -> int:
    """prod_i i^(m_i) m_i!, where lam has m_i parts equal to i."""
    out = 1
    for part, run in groupby(lam):
        m = len(list(run))
        out *= part**m * factorial(m)
    return out


# -- type generating series ------------------------------------------------------

def type_series(e: SpeciesExpr, field: FieldSpec, order: int) -> PowerSeries:
    """The type generating series sum ftilde_n x^n, truncated, over Q.

    Builtins count orbits by Burnside's lemma over conjugacy classes, with
    fixed points from ``class_fix`` (RepCyclic(m) counts classes instead);
    E(F) and sym(m, F) are ``_plethysm`` of F's type series, each coefficient
    checked to be a nonnegative integer; the other nodes go through ``_fold``.
    No cycle index is built and nothing is enumerated.  An expression that
    contains ``mark`` raises UnsupportedOperationError."""
    _validate_unweighted(e, "type series")

    def leaf(x: SpeciesExpr) -> PowerSeries:
        if isinstance(x, (Assembly, SymPower)):
            types = _plethysm(x, _fold(x.base, leaf), PowerSeries.one(RATIONAL, order))
            what = "E" if isinstance(x, Assembly) else "sym"
            for n, c in enumerate(types.coeffs):
                require(c.denominator == 1 and c >= 0,
                        f"{what} type coefficient {c} at n={n} is not a nonnegative integer")
            return types
        spec = BUILTINS[x.name]
        counts = ([spec.types(field, n, x.arg) for n in range(order + 1)]
                  if spec.types is not None else _burnside_types(x, field, order))
        return PowerSeries(RATIONAL, order, [Fraction(v) for v in counts])

    return _fold(e, leaf)


def _burnside_types(e: Builtin, field: FieldSpec, order: int) -> list[int]:
    """Orbit counts sum_c fix(c)/|C(c)| over Aut classes, from the builtin's
    closed fixed-point count."""
    out = []
    for n in range(order + 1):
        total = Fraction(0)
        for c in enumerate_classes(field, n, "aut"):
            total += Fraction(class_fix(e, field, c), c.centralizer_order)
        require(total.denominator == 1 and total >= 0,
                f"Burnside sum {total} at n={n} is not a nonnegative integer")
        out.append(total.numerator)
    return out


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
        if isinstance(x, (Assembly, SymPower)):
            return _plethysm(x, _fold(x.base, leaf), z_one(field, order))
        return z_build(field, lambda c: class_fix(x, field, c), order)

    return _fold(e, leaf)
