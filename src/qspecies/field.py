"""Arithmetic in the finite field F_q, q = p^k, via precomputed tables.

Elements are canonical integer indices in [0, q).  For a prime field the
index is the residue; for an extension field F_{p^k} the index encodes the
coefficient vector (c_0, ..., c_{k-1}) of the polynomial representative as
c_0 + c_1*p + ... + c_{k-1}*p^(k-1).  Thus 0 and 1 always have indices
0 and 1.  In characteristic 2 the index is the coefficient bit-vector, so
the sum of two elements is the XOR of their indices, and alpha^t (the class
of z^t) has index 2^t.

All fields are small (q <= MAX_Q by default), so addition, multiplication
and inversion are table lookups built once at construction.

Range checks happen at the API boundary: the public element operations
(``add``, ``mul``, ``inv``, ...) check their arguments, and
``linalg.Matrix.make`` checks every entry of a matrix once.  The inner loops
of matrix arithmetic and elimination check nothing.  In odd characteristic
they index the tables ``_add``, ``_mul``, ``_neg`` and ``_inv`` directly;
in characteristic 2 they work on rows packed into one int (entry j at bit
offset k*j), where a sum is an XOR.  A table lookup accepts a negative
index silently and a packed row does not see an entry that overflows its
k bits, so values must pass one of those checks before they reach the
inner loops.
"""

from __future__ import annotations

MAX_Q = 64
DEFAULT_BUDGET = 2**24

FieldElem = int


class ConsistencyError(RuntimeError):
    """Raised when a result that the mathematics guarantees does not hold."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would be too large."""


def require(ok: bool, what: str) -> None:
    """Raise ConsistencyError(what) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise ConsistencyError(what)


def power(x, e: int, one):
    """x ** e by binary powering, for every type with ``*``; ``one`` is x ** 0.
    It makes only the needed products: none for e <= 1, one for e = 2."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    out = None  # one, until a factor arrives
    while e:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if e:
            x = x * x
    return one if out is None else out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Immutable description of F_q with full arithmetic tables.

    Use :func:`field_make` rather than calling the constructor directly.
    """

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_neg", "_inv", "_hash", "_rows")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._hash = hash((p, k, modulus))  # every Poly key hashes its field
        self._rows = None  # linalg's packed-row codec in characteristic 2, made on first use
        self._build_tables()

    def _digits(self, rep: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(rep % self.p)
            rep //= self.p
        return out

    def _undigits(self, digits: list[int]) -> int:
        rep = 0
        for d in reversed(digits):
            rep = rep * self.p + d
        return rep

    def _mul_mod(self, f: list[int], g: list[int]) -> list[int]:
        """The coefficients of f g modulo the monic modulus, constant term
        first: the product's coefficients, then each term of degree >= k
        cancelled, from the top down, by a multiple of the modulus."""
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    prod[i + j] += a * b
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % p
            if c:
                for t in range(k + 1):
                    prod[top - k + t] -= c * mod[t]
        return [c % p for c in prod[:k]]

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        if self.k == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            digits = [self._digits(a) for a in range(q)]
            self._add = [[self._undigits([(x + y) % p for x, y in zip(da, db)]) for db in digits]
                         for da in digits]
            self._mul = [[self._undigits(self._mul_mod(da, db)) for db in digits]
                         for da in digits]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

    # -- element operations -------------------------------------------------

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise ValueError(f"element index {a} out of range for F_{self.q}")

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        self._check(a, b)
        return self._add[a][b]

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        self._check(a, b)
        return self._add[a][self._neg[b]]

    def neg(self, a: FieldElem) -> FieldElem:
        self._check(a)
        return self._neg[a]

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        self._check(a, b)
        return self._mul[a][b]

    def inv(self, a: FieldElem) -> FieldElem:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._inv[a]

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        """a^e; a nonzero a has a^(q-1) = 1, so at most q - 2 products."""
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        for _ in range(e % (self.q - 1) if a else min(e, 1)):
            out = self._mul[out][a]
        return out

    def elements(self) -> list[FieldElem]:
        return list(range(self.q))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, q={self.q})"


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def field_make(p: int, k: int) -> FieldSpec:
    """Construct F_{p^k}.  For k > 1 the modulus is the least monic irreducible
    of degree k over F_p, compared from the leading coefficient down, and the
    multiplication table is polynomial arithmetic over F_p modulo it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    if p**k > MAX_Q:
        raise ValueError(f"q = {p**k} exceeds the field size bound {MAX_Q}")
    key = (p, k)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    modulus: tuple[int, ...] | None = None
    if k > 1:
        from .poly import monic_irreducibles  # poly imports this module
        candidates = monic_irreducibles(field_make(p, 1), k)
        require(bool(candidates), f"no monic irreducible of degree {k} over F_{p}")
        modulus = min(candidates, key=lambda f: f.coeffs[::-1]).coeffs
    spec = FieldSpec(p, k, modulus)
    _FIELD_CACHE[key] = spec
    return spec
