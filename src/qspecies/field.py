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

FieldElem = int


class ConsistencyError(RuntimeError):
    """Raised when a result that the mathematics guarantees does not hold."""


def require(ok: bool, what: str) -> None:
    """Raise ConsistencyError(what) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise ConsistencyError(what)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod_mod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # b monic, nonzero
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        c = r[-1]
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _bootstrap_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility over F_p by trial division, used only to pick moduli."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        # all monic divisors of degree d
        for idx in range(p**d):
            cand = [0] * (d + 1)
            m = idx
            for i in range(d):
                cand[i] = m % p
                m //= p
            cand[d] = 1
            _, rem = _poly_divmod_mod_p(coeffs, cand, p)
            if not rem:
                return False
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

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        if self.k == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            mod = list(self.modulus)  # type: ignore[arg-type]
            self._add = [
                [self._undigits([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])
                 for b in range(q)]
                for a in range(q)
            ]
            self._mul = []
            for a in range(q):
                row = []
                da = self._digits(a)
                while da and da[-1] == 0:
                    da.pop()
                for b in range(q):
                    db = self._digits(b)
                    while db and db[-1] == 0:
                        db.pop()
                    prod = _poly_mul_mod_p(da, db, p) if da and db else []
                    _, rem = _poly_divmod_mod_p(prod, mod, p) if prod else ([], [])
                    rem = rem + [0] * (self.k - len(rem))
                    row.append(self._undigits(rem))
                self._mul.append(row)
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
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        while e:
            if e & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            e >>= 1
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


def field_make(p: int, k: int, max_q: int = MAX_Q) -> FieldSpec:
    """Construct F_{p^k}, finding the lexicographically least modulus for k > 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    if p**k > max_q:
        raise ValueError(f"q = {p**k} exceeds the field size bound {max_q}")
    key = (p, k)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    modulus: tuple[int, ...] | None = None
    if k > 1:
        for idx in range(p**k):
            cand = [0] * (k + 1)
            m = idx
            for i in range(k):
                cand[i] = m % p
                m //= p
            cand[k] = 1
            if _bootstrap_irreducible(cand, p):
                modulus = tuple(cand)
                break
        require(modulus is not None, f"no monic irreducible of degree {k} over F_{p}")
    spec = FieldSpec(p, k, modulus)
    _FIELD_CACHE[key] = spec
    return spec
