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
from functools import lru_cache, partial
from itertools import combinations, groupby, product
from operator import xor
from typing import Callable, Iterator

# re-exports ConsistencyError, BudgetExceededError and DEFAULT_BUDGET
from .field import (BudgetExceededError, ConsistencyError, DEFAULT_BUDGET, FieldSpec, power,
                    require)
from .poly import Poly, monic_irreducibles


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


def _chart(field: FieldSpec, images: list, pivots: list[int], ncols: int) -> Matrix:
    """The matrix whose column b holds the entries of images[b] at the pivot
    columns; the images are rows of length ncols, packed over F_(2^k)."""
    if field.p == 2:
        images = field._rows.unpack(tuple(images), ncols)
    return Matrix(field, tuple(tuple(v[p] for v in images) for p in pivots))


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
            codec = F._rows
            return codec.unpack_row(self.packed_image(codec.pack_row(v)), self.nrows)
        add, mul = F._add, F._mul
        out = []
        for row in self._entries:
            s = 0
            for a, b in zip(row, v):
                if a and b:
                    s = add[s][mul[a][b]]
            out.append(s)
        return tuple(out)

    def packed_image(self, r: int) -> int:
        """Over F_(2^k): A v, packed, for the packed row r of the vector v.  A v
        is the XOR of v_j times column j: r picks from the packed columns."""
        cols = self._cols
        if cols is None:
            codec = self.field._rows
            cols = self._cols = codec.picks(codec.pack(tuple(zip(*self.entries))))
        acc = i = 0
        while r:
            if r & 1:
                acc ^= cols[i]
            r >>= 1
            i += 1
        return acc

    def __pow__(self, e: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        return power(self, e, Matrix.identity(self.field, self.nrows))

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

    def restrict(self, rows: tuple) -> tuple[tuple, Callable[[], "Matrix"]]:
        """For the subspace W with RREF basis ``rows``: the RREF basis of A(W),
        and a function that builds the chart of A on W, its restriction to W in
        the RREF bases of W and A(W): column b holds the pivot entries of the
        image of basis row b.  The images are reduced as rows, packed over
        F_(2^k), with no Matrix built; the chart is built only when asked.  A
        line needs no elimination: its RREF basis is its image v scaled by the
        inverse of v's leading entry x, and its chart is the 1 x 1 matrix (x)."""
        F, n = self.field, self.nrows
        if len(rows) == 1:
            if F.p == 2:
                codec = F._rows
                v = self.packed_image(codec.pack_row(rows[0]))
                if not v:
                    return (), partial(Matrix, F, ())
                k = F.k
                shift = ((v & -v).bit_length() - 1) // k * k  # of the leading entry
                x = v >> shift & (1 << k) - 1
                line = codec.unpack_row(v if x == 1 else codec.scale(F._inv[x], v), n)
            else:
                v = self.matvec(rows[0])
                x = next(filter(None, v), 0)
                if not x:
                    return (), partial(Matrix, F, ())
                times = F._mul[F._inv[x]]
                line = tuple([times[a] for a in v])
            return (line,), partial(Matrix, F, ((x,),))
        if F.p == 2:
            codec = F._rows
            images = [self.packed_image(r) for r in codec.pack(rows)]
            reduced = list(images)
            pivots = _echelon2(F, reduced, n)
            image = codec.unpack(tuple(reduced[:len(pivots)]), n)
        else:
            images = [self.matvec(b) for b in rows]
            reduced = list(images)
            pivots = _echelon(F, reduced, n)
            image = tuple(map(tuple, reduced[:len(pivots)]))
        return image, partial(_chart, F, images, pivots, n)

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

    def kernel_vectors(self) -> list[tuple[int, ...]]:
        """A basis of the right kernel from one elimination, 1 at one free column each."""
        red, pivots = self.rref()
        rows, neg, n = red.entries, self.field._neg, self.ncols
        vecs = []
        for fc in range(n):
            if fc not in pivots:
                v = [0] * n
                v[fc] = 1
                for row, pc in zip(rows, pivots):
                    v[pc] = neg[row[fc]]
                vecs.append(tuple(v))
        return vecs

    def __str__(self) -> str:
        return "\n".join(" ".join(str(a) for a in row) for row in self.entries)


@dataclass(frozen=True)
class Subspace:
    field: FieldSpec
    ambient: int
    basis: tuple[tuple[int, ...], ...]  # RREF rows, strictly increasing pivots


# -- group orders and counts ------------------------------------------------

def gl_order(field: FieldSpec, n: int) -> int:
    """Order of GL_n(F_q), prod_(i < n) (q^n - q^i); 1 at n = 0."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return gl_orders(field, n)[n]


def gl_orders(field: FieldSpec, order: int) -> list[int]:
    """gl_order(field, n) for n <= order, each from the one before:
    gamma_n = gamma_(n-1) (q^(2n-1) - q^(n-1))."""
    q, out = field.q, [1]
    for n in range(1, order + 1):
        out.append(out[-1] * (q ** (2 * n - 1) - q ** (n - 1)))
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


def commutant_basis(s: Matrix) -> list[tuple[int, ...]]:
    """A basis of the commutant {X : s X = X s} of the n x n s, each member
    flattened row by row: the kernel of X -> s X - X s, whose matrix has row
    (i, j) holding s_it at column (t, j) less s_tj at column (i, t)."""
    n, rows, add, neg = s.nrows, s.entries, s.field._add, s.field._neg
    minus = [[neg[x] for x in column] for column in zip(*rows)]  # of s's columns
    table = []
    for i, j in product(range(n), repeat=2):
        row = [0] * (n * n)
        row[j::n] = rows[i]
        row[i * n:i * n + n] = minus[j]
        row[i * n + j] = add[rows[i][i]][minus[j][j]]  # both terms meet at (i, j)
        table.append(tuple(row))
    return Matrix(s.field, tuple(table)).kernel_vectors()


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

    __slots__ = ("partitions", "degree", "_hash", "_items", "_sort_key")

    def __init__(self, partitions: tuple = (), degree: int | None = None,
                 items: tuple | None = None, sort_key: tuple | None = None):
        """``partitions`` must be canonical already; ``of`` makes it so.  A
        caller that knows the degree (``mul``), or ``items`` and ``sort_key``
        (the class walk), passes them; otherwise they are made on first use."""
        self.partitions = partitions
        self.degree = (sum(phi.degree * sum(lam) for phi, lam in partitions)
                       if degree is None else degree)
        self._hash = hash(partitions)
        self._items, self._sort_key = items, sort_key

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

    def items(self) -> tuple[tuple[Poly, int, int], ...]:
        """(phi, i, e_{phi,i}) for e_{phi,i} > 0, phi in order and i ascending;
        computed once, as sorting and rendering a term each read it."""
        if self._items is None:
            self._items = tuple([(phi, i, len(list(run))) for phi, lam in self.partitions
                                 for i, run in groupby(reversed(lam))])
        return self._items

    def sort_key(self) -> tuple:
        """The one order of invariants: by degree, then by ``items``; computed once."""
        if self._sort_key is None:
            self._sort_key = (self.degree, tuple((f.sort_key, i, e) for f, i, e in self.items()))
        return self._sort_key

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
            b_j = b
            dims = [0]
            while True:
                k = n - b_j.rank()  # dim ker phi(a)^j
                require(k % d == 0, "kernel dimension is not a multiple of deg phi")
                dims.append(k // d)
                if dims[-1] == dims[-2]:
                    break
                b_j = b_j * b
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

def check_matrix_budget(field: FieldSpec, n: int, budget: int) -> None:
    """Raise BudgetExceededError when the q^(n²) matrices of E_n exceed ``budget``."""
    if field.q ** (n * n) > budget:
        raise BudgetExceededError(f"q^(n^2) = {field.q ** (n * n)} exceeds budget {budget}")


# GL_n groups of at most this many elements are kept once walked
GL_MEMO_LIMIT = 1 << 15


def enumerate_matrices(field: FieldSpec, n: int, invertible_only: bool = False,
                       budget: int = DEFAULT_BUDGET) -> Iterator[Matrix]:
    """The n x n matrices over F_q, or those of GL_n, in the product order of
    their entries row by row.  Raises BudgetExceededError before yielding
    anything when q^(n²) exceeds ``budget``, on every call.  GL_n is walked
    once per (field, n) and its matrices are kept for the life of the process
    (``_general_linear_group``), so later walks yield the same Matrix values;
    a group of more than GL_MEMO_LIMIT elements is walked afresh on each call
    and kept by nobody."""
    check_matrix_budget(field, n, budget)
    if not invertible_only:
        for rows in product(product(range(field.q), repeat=n), repeat=n):
            yield Matrix(field, rows)
    elif gl_order(field, n) <= GL_MEMO_LIMIT:
        yield from _general_linear_group(field, n)
    else:
        yield from _walk_general_linear_group(field, n)


@lru_cache(maxsize=None)
def _general_linear_group(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """GL_n as ``_walk_general_linear_group`` yields it, for a group of at most
    GL_MEMO_LIMIT elements: one tuple per (field, n) met."""
    return tuple(_walk_general_linear_group(field, n))


def _walk_general_linear_group(field: FieldSpec, n: int) -> Iterator[Matrix]:
    """GL_n walked row by row: row i takes, in product order, each vector outside
    the span of rows 0..i-1, so the walk meets only the rank-n matrices and
    tests none for rank.  Each candidate row is packed for ``direct_sum`` once."""
    vectors = list(product(range(field.q), repeat=n))
    candidates = list(zip(vectors, direct_sum_rows(field, vectors)))

    def walk(rows: tuple, span: tuple) -> Iterator[tuple]:
        if len(rows) == n:
            yield rows
            return
        for v, key in candidates:
            joined = direct_sum(field, span, (key,))  # None when v is in the span
            if joined is not None:
                yield from walk(rows + (v,), joined)

    for rows in walk((), ()):
        yield Matrix(field, rows)


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
    with V_1 + ... + V_m = F_q^n as a direct sum.  The subspaces of each
    dimension are enumerated, and their bases packed, once per call."""
    if sum(dims) != n:
        raise ValueError("dimensions must sum to the ambient dimension")
    if any(d < 0 for d in dims):
        raise ValueError("dimensions must be non-negative")
    candidates = {d: [(w, direct_sum_rows(field, w.basis))
                      for w in enumerate_subspaces(field, n, d, budget)] for d in set(dims)}

    def rec(idx: int, chosen: tuple[Subspace, ...], span: tuple):
        if idx == len(dims):
            yield chosen
            return
        for w, key in candidates[dims[idx]]:
            joined = direct_sum(field, span, key)
            if joined is not None:
                yield from rec(idx + 1, chosen + (w,), joined)

    yield from rec(0, (), ())


def direct_sum_rows(field: FieldSpec, rows) -> tuple:
    """Rows of F_q^n as ``direct_sum`` takes them: packed over F_(2^k) (see
    :class:`_Char2Rows`), else as they are."""
    return _char2(field).pack(rows) if field.p == 2 else tuple(rows)


def direct_sum(field: FieldSpec, span: tuple, basis: tuple) -> tuple | None:
    """U + W when the sum is direct, else None.  ``span`` is U as this function
    returns it, () for U = 0: (pivot, row) pairs of an echelon basis, each row
    1 at its pivot and 0 at the pivots of the rows before it, packed over
    F_(2^k) with the pivot as a bit offset.  ``basis`` is a basis of W as
    ``direct_sum_rows`` gives it: packed rows over F_(2^k), so a caller that
    tries one candidate W against many spans packs it once.  Each row of W is
    reduced against the rows so far; the sum is direct iff none reduces to 0.
    No Matrix is built."""
    span = list(span)
    if field.p == 2:
        codec, inv, k = field._rows, field._inv, field.k
        lane = (1 << k) - 1
        for v in basis:
            for shift, row in span:
                x = v >> shift & lane
                if x:
                    v ^= row if x == 1 else codec.scale(x, row)
            if not v:
                return None
            shift = ((v & -v).bit_length() - 1) // k * k
            x = v >> shift & lane
            span.append((shift, v if x == 1 else codec.scale(inv[x], v)))
        return tuple(span)
    add, mul, neg = field._add, field._mul, field._neg
    for v in basis:
        for pivot, row in span:
            x = v[pivot]
            if x:
                times = mul[neg[x]]
                v = [add[a][times[b]] for a, b in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        times = mul[field._inv[v[pivot]]]
        span.append((pivot, [times[x] for x in v]))
    return tuple(span)
