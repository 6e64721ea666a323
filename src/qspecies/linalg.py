"""Dense linear algebra over F_q for small dimensions.

Matrices and subspaces are immutable values.  Subspaces are canonicalised
by the reduced row echelon form of a basis, which gives set semantics:
two Subspace values are equal iff they contain the same points.

Also here: the GL_n(F_q) order, q-binomial coefficients, companion
matrices, the rational canonical invariant of an endomorphism (one
partition lambda_phi per monic irreducible phi; the same value is a
conjugacy class and its cycle-index monomial), and exhaustive enumeration
of matrices, subspaces and ordered direct-sum decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product
from operator import xor
from typing import Iterator

from .field import ConsistencyError, FieldSpec, require  # re-exports ConsistencyError
from .poly import Poly, monic_irreducibles

DEFAULT_BUDGET = 2**24


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would be too large."""


class _Char2Rows:
    """Packed rows over F_(2^k): entry j of a row at bit offset k*j, so adding
    rows is an XOR.  The maps between row tuples and ints are memos filled from
    the rows actually met; nothing is built over all q^n rows."""

    __slots__ = ("k", "times", "_packed", "_unpacked", "_multiples")

    def __init__(self, field: FieldSpec):
        self.k = field.k
        # times[c][t] = c * alpha^t, and alpha^t has index 2^t
        self.times = [tuple(field._mul[c][1 << t] for t in range(field.k))
                      for c in range(field.q)]
        self._packed: dict[tuple[int, ...], int] = {}
        self._unpacked: dict[int, dict[int, tuple[int, ...]]] = {}  # by row length
        self._multiples: dict[int, tuple[int, ...]] = {}

    def pack_row(self, row: tuple[int, ...]) -> int:
        r = self._packed.get(row)
        if r is None:
            r = self._packed[row] = sum(x << (self.k * j) for j, x in enumerate(row))
        return r

    def unpack_row(self, r: int, ncols: int) -> tuple[int, ...]:
        memo = self._unpacked.setdefault(ncols, {})
        row = memo.get(r)
        if row is None:
            lane = (1 << self.k) - 1
            row = memo[r] = tuple((r >> (self.k * j)) & lane for j in range(ncols))
        return row

    def pack(self, rows: tuple) -> tuple[int, ...]:
        memo = self._packed
        try:
            return tuple([memo[row] for row in rows])
        except KeyError:
            return tuple([self.pack_row(row) for row in rows])

    def unpack(self, rows: tuple[int, ...], ncols: int) -> tuple:
        memo = self._unpacked.get(ncols, {})
        try:
            return tuple([memo[r] for r in rows])
        except KeyError:
            return tuple([self.unpack_row(r, ncols) for r in rows])

    def picks(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        """alpha^t times rows[j] at index k*j + t: what a product with these rows
        on the right picks from."""
        if self.k == 1:
            return rows
        memo = self._multiples
        for r in rows:
            if r not in memo:
                memo[r] = tuple(self.scale(1 << t, r) for t in range(self.k))
        return sum([memo[r] for r in rows], ())

    def scale(self, c: int, r: int) -> int:
        """c times the packed row r.  Multiplication by c is F_2-linear on an
        entry's k bits: c*x is the XOR of c*alpha^t over the set bits t of x.
        ``(r >> t) & ones`` holds bit t of every entry at its offset, and an
        integer product by c*alpha^t < 2^k copies that value into each entry
        whose bit is set, without carries between entries."""
        k = self.k
        entries = -(-r.bit_length() // k)
        ones = ((1 << (k * entries)) - 1) // ((1 << k) - 1)  # bit k*j for each entry j
        out = 0
        for t, m in enumerate(self.times[c]):
            out ^= ((r >> t) & ones) * m
        return out


def _char2(field: FieldSpec) -> _Char2Rows:
    codec = field._rows
    if codec is None:
        codec = field._rows = _Char2Rows(field)
    return codec


def _echelon2(field: FieldSpec, rows: list[int], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of packed rows in place; the pivot columns."""
    codec, inv, k = field._rows, field._inv, field.k
    lane = (1 << k) - 1
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        shift = k * c
        for pr in range(r, m):
            if rows[pr] >> shift & lane:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        x = pivot_row >> shift & lane
        if x != 1:
            rows[r] = pivot_row = codec.scale(inv[x], pivot_row)
        for i in range(m):
            f = rows[i] >> shift & lane
            if f and i != r:  # -f = f in characteristic 2
                rows[i] ^= pivot_row if f == 1 else codec.scale(f, pivot_row)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _echelon(field: FieldSpec, rows: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of table rows in place; the pivot columns."""
    add, mul, neg = field._add, field._mul, field._neg
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        if pivot_row[c] != 1:
            times_inv = mul[field._inv[pivot_row[c]]]
            rows[r] = pivot_row = [times_inv[x] for x in pivot_row]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                times_minus_f = mul[neg[f]]
                rows[i] = [add[x][times_minus_f[y]] for x, y in zip(rows[i], pivot_row)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


class Matrix:
    """A matrix over F_q with entries in [0, q), row-major.

    ``entries``, a tuple of rows that are tuples of field indices, is the
    canonical value: equality and every encoding go by it.  Entries are
    range-checked once, in :meth:`make`, the constructor for outside values.
    The bare constructor ``Matrix(field, entries)`` checks nothing; it is for
    entries already known to be in range, as is the vector ``matvec`` takes.

    Over characteristic 2, products, sums, ``matvec`` and elimination work on
    rows packed into one int (see :class:`_Char2Rows`).  A sum is a row-wise
    XOR.  A product row is the XOR of the rows of the right factor scaled by
    the matching entries of the left row: for each entry j and bit t the
    right factor keeps alpha^t times its row j at index k*j + t, so the
    product picks the rows named by the set bits of the packed left row (over
    F_2, plainly the rows of the right factor).  A matrix packs its rows when
    it is made; it builds those picks, and a computed result decodes its
    entries, on first use, and keeps them.  Odd characteristic indexes the
    field's tables in plain loops.  Neither path checks ranges in its inner
    loops: the inputs are checked matrices and the outputs are field values."""

    __slots__ = ("field", "nrows", "ncols", "_entries", "_rows", "_right", "_cols", "_hash")

    def __init__(self, field: FieldSpec, entries: tuple[tuple[int, ...], ...]):
        self.field = field
        self.nrows = len(entries)
        self.ncols = len(entries[0]) if entries else 0
        self._entries = entries
        self._rows = (field._rows or _char2(field)).pack(entries) if field.p == 2 else None
        self._right = None  # what a product with self on the right reads
        self._cols = self._hash = None

    @staticmethod
    def _packed(field: FieldSpec, rows: tuple[int, ...], ncols: int) -> "Matrix":
        """The matrix with these packed rows; its entries are decoded on demand."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols if rows else 0
        m._rows = rows
        m._entries = m._right = m._cols = m._hash = None
        return m

    @staticmethod
    def make(field: FieldSpec, rows) -> "Matrix":
        """The matrix with the given rows; raises ValueError for an entry
        outside [0, q)."""
        entries = tuple(tuple(r) for r in rows)
        for row in entries:
            field._check(*row)
        return Matrix(field, entries)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, tuple((0,) * cols for _ in range(rows)))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self.field._rows.unpack(self._rows, self.ncols)
        return entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field is not other.field and self.field != other.field
                or self.nrows != other.nrows or self.ncols != other.ncols):
            return False
        if self.field.p == 2:
            return self._rows == other._rows
        return self._entries == other._entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.entries)
        return h

    def __repr__(self) -> str:
        return f"Matrix(field={self.field!r}, entries={self.entries!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        F = self.field
        if F is not other.field and F != other.field:
            raise ValueError("matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch in matrix sum")
        if F.p == 2:
            return Matrix._packed(F, tuple(map(xor, self._rows, other._rows)), self.ncols)
        add = F._add
        return Matrix(F, tuple(
            tuple(add[a][b] for a, b in zip(ra, rb))
            for ra, rb in zip(self._entries, other._entries)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        F = self.field
        if F is not other.field and F != other.field:
            raise ValueError("matrices over different fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        right = other._right
        if F.p == 2:
            if right is None:  # alpha^t times row j of other at index k*j + t
                right = other._right = F._rows.picks(other._rows)
            out = []
            for r in self._rows:  # XOR of right[i] over the set bits i of r
                acc = i = 0
                while r:
                    if r & 1:
                        acc ^= right[i]
                    r >>= 1
                    i += 1
                out.append(acc)
            return Matrix._packed(F, tuple(out), other.ncols)
        if right is None:  # the columns of other
            right = other._right = tuple(zip(*other._entries))
        add, mul = F._add, F._mul
        out = []
        for row in self._entries:
            new = []
            for col in right:
                s = 0
                for a, b in zip(row, col):
                    if a and b:
                        s = add[s][mul[a][b]]
                new.append(s)
            out.append(tuple(new))
        return Matrix(F, tuple(out))

    def scale(self, c: int) -> "Matrix":
        self.field._check(c)
        times_c = self.field._mul[c]
        return Matrix(self.field, tuple(tuple(times_c[a] for a in row) for row in self.entries))

    def matvec(self, v: tuple[int, ...]) -> tuple[int, ...]:
        F = self.field
        if F.p == 2:
            # A v is the XOR of v_j times column j: v picks from the packed columns
            codec = F._rows
            cols = self._cols
            if cols is None:
                cols = self._cols = codec.picks(codec.pack(tuple(zip(*self.entries))))
            r, acc, i = codec.pack_row(v), 0, 0
            while r:
                if r & 1:
                    acc ^= cols[i]
                r >>= 1
                i += 1
            return codec.unpack_row(acc, self.nrows)
        add, mul = F._add, F._mul
        out = []
        for row in self._entries:
            s = 0
            for a, b in zip(row, v):
                if a and b:
                    s = add[s][mul[a][b]]
            out.append(s)
        return tuple(out)

    def __pow__(self, e: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        base = self
        if e < 0:
            base, e = base.inverse(), -e
        out = None  # the identity, until a factor arrives
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Matrix.identity(self.field, self.nrows) if out is None else out

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        F = self.field
        if F.p == 2:
            rows = list(self._rows)
            pivots = _echelon2(F, rows, self.ncols)
            return Matrix._packed(F, tuple(rows), self.ncols), pivots
        table_rows = [list(r) for r in self._entries]
        pivots = _echelon(F, table_rows, self.ncols)
        return Matrix(F, tuple(map(tuple, table_rows))), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        F = self.field
        n = self.nrows
        if F.p == 2:
            k = F.k
            rows = [r | (1 << (k * (n + i))) for i, r in enumerate(self._rows)]
            pivots = _echelon2(F, rows, 2 * n)
            if pivots != list(range(n)):
                raise ValueError("matrix is singular")
            return Matrix._packed(F, tuple(r >> (k * n) for r in rows), n)
        table_rows = [list(row) + [1 if i == j else 0 for j in range(n)]
                      for i, row in enumerate(self._entries)]
        pivots = _echelon(F, table_rows, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(F, tuple(tuple(row[n:]) for row in table_rows))

    def kernel_basis(self) -> "Subspace":
        """Right kernel {v : A v = 0} as a Subspace of F_q^ncols."""
        F = self.field
        red, pivots = self.rref()
        n = self.ncols
        free = [c for c in range(n) if c not in pivots]
        vecs = []
        for fc in free:
            v = [0] * n
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = F._neg[red.entries[r][fc]]
            vecs.append(tuple(v))
        return Subspace.from_vectors(self.field, n, vecs)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(a) for a in row) for row in self.entries)


@dataclass(frozen=True)
class Subspace:
    field: FieldSpec
    ambient: int
    basis: tuple[tuple[int, ...], ...]  # RREF rows, strictly increasing pivots

    @staticmethod
    def from_vectors(field: FieldSpec, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return Subspace(field, ambient, ())
        red, pivots = Matrix.make(field, vectors).rref()
        return Subspace(field, ambient, red.entries[:len(pivots)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)


# -- group orders and counts ------------------------------------------------

def gl_order(field: FieldSpec, n: int) -> int:
    """Order of GL_n(F_q); the empty product gives 1 at n = 0."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    q = field.q
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def q_int(q: int, n: int) -> int:
    """The q-analog [n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    return sum(q**i for i in range(n))


def gaussian_binomial(Q: int, n: int, k: int) -> int:
    """[n choose k]_Q = prod_{j<k} (Q^(n-j) - 1) / (Q^(j+1) - 1), for an integer Q."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    num = den = 1
    for j in range(k):
        num *= Q ** (n - j) - 1
        den *= Q ** (j + 1) - 1
    require(num % den == 0, f"q-binomial [{n} choose {k}] is not an integer")
    return num // den


def qbinomial(field: FieldSpec, n: int, k: int) -> int:
    """The number of k-dimensional subspaces of F_q^n."""
    return gaussian_binomial(field.q, n, k)


# -- companion matrices and polynomial evaluation ----------------------------

def companion_matrix(f: Poly) -> Matrix:
    if not f.is_monic or f.degree < 1:
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    F = f.field
    d = f.degree
    rows = [[0] * d for _ in range(d)]
    # subdiagonal of ones, last column from -coefficients
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = F.neg(f.coeffs[i])
    return Matrix.make(F, rows)


def mat_poly_eval(f: Poly, a: Matrix) -> Matrix:
    """f(a) by Horner's rule."""
    if a.nrows != a.ncols:
        raise ValueError("polynomial evaluation requires a square matrix")
    n = a.nrows
    out = Matrix.zero(a.field, n, n)
    ident = Matrix.identity(a.field, n)
    for c in reversed(f.coeffs):
        out = out * a + ident.scale(c)
    return out


def block_diagonal(field: FieldSpec, blocks: list[Matrix]) -> Matrix:
    n = sum(b.nrows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[off + i][off + j] = b.entries[i][j]
        off += b.nrows
    return Matrix.make(field, rows)


# -- rational canonical invariants -------------------------------------------

class InvariantData:
    """The rational canonical invariant of an endomorphism: a partition lambda_phi
    per monic irreducible phi, with one part i for each elementary divisor phi^i.

    ``partitions`` holds the (phi, lambda_phi) pairs with lambda_phi nonempty and
    descending and phi in ``Poly.sort_key`` order, so equal invariants are equal
    tuples.  The same value is the cycle-index monomial prod x_{phi,i}^(e_{phi,i}),
    e_{phi,i} the number of parts i of lambda_phi, of graded degree ``degree``,
    the dimension; the product of two monomials is the invariant of the direct
    sum (``mul``)."""

    __slots__ = ("partitions", "degree", "_hash")

    def __init__(self, partitions: tuple = (), degree: int | None = None):
        """``partitions`` must be canonical already; ``of`` makes it so.  A
        caller that knows the degree (``mul``) passes it."""
        self.partitions = partitions
        self.degree = (sum(phi.degree * sum(lam) for phi, lam in partitions)
                       if degree is None else degree)
        self._hash = hash(partitions)

    @staticmethod
    def of(pairs) -> "InvariantData":
        """From (phi, lambda_phi) pairs in any order, each lambda nonempty and
        descending: the direct sum of the primary parts, so the lambdas of one
        phi are merged."""
        out = InvariantData()
        for phi, lam in pairs:
            out = out.mul(InvariantData(((phi, lam),)))
        return out

    def mul(self, other: "InvariantData") -> "InvariantData":
        """The direct sum: for each phi, lambda_phi of the two merged."""
        a, b = self.partitions, other.partitions
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            key_a, key_b = a[i][0].sort_key, b[j][0].sort_key
            if key_a < key_b:
                out.append(a[i])
                i += 1
            elif key_b < key_a:
                out.append(b[j])
                j += 1
            else:
                out.append((a[i][0], tuple(sorted(a[i][1] + b[j][1], reverse=True))))
                i += 1
                j += 1
        return InvariantData(tuple(out) + a[i:] + b[j:], self.degree + other.degree)

    def items(self) -> list[tuple[Poly, int, int]]:
        """(phi, i, e_{phi,i}) for e_{phi,i} > 0, phi in order and i ascending."""
        return [(phi, i, len(list(run)))
                for phi, lam in self.partitions for i, run in groupby(reversed(lam))]

    def sort_key(self) -> tuple:
        """The one order of invariants: by degree, then by ``items``."""
        return (self.degree, tuple((phi.sort_key, i, e) for phi, i, e in self.items()))

    def is_automorphism(self) -> bool:
        return all(phi.coeffs != (0, 1) for phi, _lam in self.partitions)

    def is_identity(self) -> bool:
        """The class of the identity: every elementary divisor is z - 1."""
        return all(phi.coeffs == (phi.field.neg(1), 1) and lam[0] == 1
                   for phi, lam in self.partitions)

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantData) and self.partitions == other.partitions

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"InvariantData({self.partitions!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(f"({phi}, {i}) -> {e}" for phi, i, e in self.items()) + "}"


def invariant_data(a: Matrix) -> InvariantData:
    """Elementary divisors via the kernel-dimension ladder
    d_j = dim ker phi(a)^j / deg phi, e_{phi,i} = 2d_i - d_{i-1} - d_{i+1}."""
    if a.nrows != a.ncols:
        raise ValueError("invariants are defined for square matrices")
    field = a.field
    n = a.nrows
    found: list[tuple[Poly, tuple[int, ...]]] = []
    accounted = 0
    for d in range(1, n + 1):
        if accounted == n:
            break
        for phi in monic_irreducibles(field, d):
            if accounted == n:
                break
            b = mat_poly_eval(phi, a)
            power = b
            dims = [0]
            while True:
                k = power.kernel_basis().dim
                require(k % d == 0, "kernel dimension is not a multiple of deg phi")
                dims.append(k // d)
                if dims[-1] == dims[-2]:
                    break
                power = power * b
            dims.append(dims[-1])
            lam: list[int] = []
            for i in range(len(dims) - 2, 0, -1):
                e = 2 * dims[i] - dims[i - 1] - dims[i + 1]
                require(e >= 0, "negative primary cyclic multiplicity")
                lam.extend([i] * e)
            if lam:
                found.append((phi, tuple(lam)))
                accounted += sum(lam) * d
    require(accounted == n, f"invariants account for {accounted} of {n} dimensions")
    return InvariantData(tuple(found))


# -- exhaustive enumeration ---------------------------------------------------

def enumerate_matrices(field: FieldSpec, n: int, invertible_only: bool = False,
                       budget: int = DEFAULT_BUDGET) -> Iterator[Matrix]:
    if field.q ** (n * n) > budget:
        raise BudgetExceededError(f"q^(n^2) = {field.q ** (n * n)} exceeds budget {budget}")
    for flat in product(range(field.q), repeat=n * n):
        m = Matrix(field, tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if invertible_only and not m.is_invertible():
            continue
        yield m


def enumerate_subspaces(field: FieldSpec, n: int, k: int,
                        budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """All k-dimensional subspaces of F_q^n, via canonical RREF matrices."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if qbinomial(field, n, k) > budget:
        raise BudgetExceededError("subspace enumeration exceeds budget")
    if k == 0:
        yield Subspace(field, n, ())
        return
    for pivots in combinations(range(n), k):
        free_cells = [(r, c) for r in range(k) for c in range(n)
                      if c > pivots[r] and c not in pivots]
        for vals in product(range(field.q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_cells, vals):
                rows[r][c] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


def enumerate_decompositions(field: FieldSpec, n: int, dims: tuple[int, ...],
                             budget: int = DEFAULT_BUDGET) -> Iterator[tuple[Subspace, ...]]:
    """All ordered tuples (V_1, ..., V_m) of subspaces of the stated dimensions
    with V_1 + ... + V_m = F_q^n as a direct sum."""
    if sum(dims) != n:
        raise ValueError("dimensions must sum to the ambient dimension")
    if any(d < 0 for d in dims):
        raise ValueError("dimensions must be non-negative")

    def rec(idx: int, chosen: tuple[Subspace, ...], span_rows: tuple):
        if idx == len(dims):
            yield chosen
            return
        k = dims[idx]
        used = sum(dims[:idx])
        for w in enumerate_subspaces(field, n, k, budget):
            stacked = Matrix(field, span_rows + w.basis)
            if stacked.entries and stacked.rank() != used + k:
                continue
            yield from rec(idx + 1, chosen + (w,), span_rows + w.basis)

    yield from rec(0, (), ())
