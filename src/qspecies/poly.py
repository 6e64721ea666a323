"""Monic polynomial arithmetic over F_q and irreducible enumeration.

Polynomials are immutable value types: a coefficient tuple (lowest degree
first, trailing zeros stripped) over a :class:`~qspecies.field.FieldSpec`.
The monic irreducibles are the index set of the cycle-index variables, so
their enumeration order matters: z-1 comes first among the degree-1
polynomials, then the rest by coefficient order, then increasing degree.
``Poly.sort_key`` is that order as one int, and the sieve yields it unsorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .field import BudgetExceededError, DEFAULT_BUDGET, FieldSpec, power, require


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple[int, ...]  # lowest degree first, no trailing zeros

    @staticmethod
    def make(field: FieldSpec, coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(field, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ----------------------------------------------------

    def _same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly.make(F, [F.add(x, y) for x, y in zip(a, b)])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        F = self.field
        if self.is_zero or other.is_zero:
            return Poly(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return Poly.make(F, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        r = list(self.coeffs)
        db = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        q = [0] * max(0, len(r) - db)
        for shift in range(len(r) - db - 1, -1, -1):
            c = F.mul(r[shift + db], lead_inv)
            if c:
                q[shift] = c
                for i, bi in enumerate(other.coeffs):
                    r[shift + i] = F.sub(r[shift + i], F.mul(c, bi))
        return Poly.make(F, q), Poly.make(F, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly(self.field, (1,)))

    def evaluate(self, x: int) -> int:
        F = self.field
        out = 0
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, x), c)
        return out

    # -- ordering and rendering ----------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of (field, coeffs), computed once: invariants and
        cycle-index monomials hash their polynomials on every product."""
        return hash((self.field, self.coeffs))

    @cached_property
    def sort_key(self) -> int:
        """One int, computed once: degree first, z-1 before the other degree-1
        polynomials, then sum c_i q^i, which orders one degree as the
        coefficients read from the top down do."""
        q, code = self.field.q, 0
        for c in reversed(self.coeffs):
            code = code * q + c
        flag = self.coeffs != (self.field.neg(1), 1)
        return (2 * self.degree + flag) * q ** (self.degree + 1) + code

    def __str__(self) -> str:
        return self._str

    @cached_property
    def _str(self) -> str:
        """Computed once: a cycle index prints phi in every term it divides."""
        if self.is_zero:
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                v = "z" if e == 1 else f"z^{e}"
                terms.append(v if c == 1 else f"{c}*{v}")
        return "+".join(terms)


def poly_z(field: FieldSpec) -> Poly:
    return Poly(field, (0, 1))


def poly_z_minus(field: FieldSpec, lam: int) -> Poly:
    """The linear polynomial z - lam."""
    return Poly.make(field, (field.neg(lam), 1))


@lru_cache(maxsize=None)
def _irreducibles_cached(field: FieldSpec, d: int) -> tuple[Poly, ...]:
    """Sieve: mark every product g*h, g monic irreducible of degree e <= d/2 and
    h monic of degree d-e; the unmarked monics of degree d are the irreducibles.
    A monic of degree d is marked at the code sum_{i<d} c_i q^i of its lower
    coefficients, so ascending codes are canonical order but for z-1, moved
    first at d = 1.  For each g an odometer steps h's lower coefficients: moving
    h_k from a to a+1 adds (a+1 - a)*g*z^k to g*h and its code, O(e) work.
    More than DEFAULT_BUDGET monics raise BudgetExceededError before anything is
    allocated."""
    q, add, mul, neg = field.q, field._add, field._mul, field._neg
    if q**d > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"the q^d = {q**d} monics of degree {d} exceed budget {DEFAULT_BUDGET}")
    reducible = bytearray(q**d)
    powers = [q**i for i in range(d)]
    for e in range(1, d // 2 + 1):
        for g in _irreducibles_cached(field, e):
            # steps[k][a]: (z^j, its coefficient in (a+1 - a)*g*z^k, q^j), the step from h_k = a
            steps = [[[(k + t, mul[add[(a + 1) % q][neg[a]]][c], powers[k + t])
                       for t, c in enumerate(g.coeffs) if c] for a in range(q)]
                     for k in range(d - e)]
            out = [0] * (d - e) + list(g.coeffs[:-1])  # g*h below z^d, from h = z^(d-e)
            code = sum(c * p for c, p in zip(out, powers))
            h = [0] * (d - e)
            for _ in range(q ** (d - e)):
                reducible[code] = 1
                for k in range(d - e):  # the odometer: step h_k, and carry on a wrap to 0
                    a = h[k]
                    for j, b, pw in steps[k][a]:
                        old = out[j]
                        out[j] = new = add[old][b]
                        code += (new - old) * pw
                    h[k] = a = (a + 1) % q
                    if a:
                        break
    # product() runs through the lower coefficients, top one first, in code order
    polys = [Poly(field, top_down[::-1] + (1,))
             for top_down, marked in zip(product(range(q), repeat=d), reducible) if not marked]
    if d == 1:
        polys.insert(0, polys.pop(neg[1]))
    return tuple(polys)


def monic_irreducibles(field: FieldSpec, d: int, exclude_z: bool = False) -> list[Poly]:
    """All monic irreducibles of degree exactly d, in canonical order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    polys = _irreducibles_cached(field, d)
    return [f for f in polys if f.coeffs != (0, 1)] if exclude_z and d == 1 else list(polys)


def is_irreducible(f: Poly) -> bool:
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility is defined for monic polynomials of degree >= 1")
    if 1 < f.degree <= 3:
        return all(f.evaluate(x) != 0 for x in f.field.elements())
    for e in range(1, f.degree // 2 + 1):
        for g in _irreducibles_cached(f.field, e):
            if (f % g).is_zero:
                return False
    return True


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(field: FieldSpec, d: int) -> int:
    """Necklace count (1/d) * sum_{e|d} mu(e) q^(d/e)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    require(total % d == 0, f"necklace sum {total} is not divisible by {d}")
    return total // d
