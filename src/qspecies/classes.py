"""Conjugacy classes of Aut(E_n) and End(E_n) by their invariants.

A class is its rational canonical invariant (``linalg.InvariantData``): a
partition lambda_phi for each monic irreducible phi with
sum deg(phi)*|lambda_phi| = n.  The same value is the class's cycle-index
monomial.  The centralizer order is a product over the primary parts of one
formula per part, ``part_centralizer_order``, validated against brute-force
commutant counts in the test suite before being trusted at dimensions where
GL enumeration is impossible.  The species' type and generating series use
the per-part formula alone, without walking classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import prod

from .field import FieldSpec
from .linalg import (ConsistencyError, InvariantData, Matrix, block_diagonal,
                     companion_matrix, gl_order)
from .poly import Poly, monic_irreducibles


@dataclass(frozen=True)
class ConjClass:
    invariant: InvariantData
    centralizer_order: int
    class_size: int

    @property
    def n(self) -> int:
        return self.invariant.degree

    def representative(self, field: FieldSpec) -> Matrix:
        """Block diagonal of e_{phi,i} copies of the companion matrix of phi^i,
        blocks ordered by (phi, i)."""
        blocks = []
        for phi, i, e in self.invariant.items():
            blocks.extend([companion_matrix(phi**i)] * e)
        return block_diagonal(field, blocks)


@lru_cache(maxsize=None)
def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of m as descending tuples; the empty partition for m = 0."""
    if m == 0:
        return ((),)
    out = []

    def rec(remaining: int, largest: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, acc + (part,))

    rec(m, m, ())
    return tuple(out)


@lru_cache(maxsize=None)
def part_centralizer_order(Q: int, parts: tuple[int, ...]) -> int:
    """The centralizer order of one primary part, of type l over a residue field
    F_Q (Q = q^deg(phi)):
    Q^(|l| + 2n(l) - sum_i m_i(l)(m_i(l)+1)/2) * prod_i prod_{k=1}^{m_i(l)} (Q^k - 1),
    which is Q^(|l| + 2n(l)) * prod_i prod_k (1 - Q^-k) with the powers of Q
    collected, so that every factor is an integer."""
    total = 1
    exponent = sum(parts) + 2 * sum(j * part for j, part in enumerate(parts))
    for _part, run in groupby(parts):
        m = len(list(run))
        exponent -= m * (m + 1) // 2
        for k in range(1, m + 1):
            total *= Q**k - 1
    if exponent < 0:
        raise ConsistencyError(f"centralizer order of a part {parts} over F_{Q} "
                               "is not a positive integer")
    return total * Q**exponent


def centralizer_order(field: FieldSpec, inv: InvariantData) -> int:
    """The product of ``part_centralizer_order`` over the primary parts of ``inv``:
    the centralizer is block diagonal over them."""
    return prod(part_centralizer_order(field.q ** phi.degree, parts)
                for phi, parts in inv.partitions)


@lru_cache(maxsize=None)
def enumerate_classes(field: FieldSpec, n: int, kind: str = "aut") -> tuple[ConjClass, ...]:
    """All conjugacy classes of Aut(E_n) (kind="aut") or End(E_n) (kind="end")."""
    if kind not in ("aut", "end"):
        raise ValueError("kind must be 'aut' or 'end'")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    # canonical order: by degree, which the pruning needs, so invariants come out sorted
    polys = [phi for d in range(1, n + 1)
             for phi in monic_irreducibles(field, d, exclude_z=(kind == "aut"))]
    invariants: list[InvariantData] = []
    acc: list[tuple[Poly, tuple[int, ...]]] = []

    def rec(start: int, weight: int):
        if weight == 0:
            invariants.append(InvariantData(tuple(acc), n))
            return
        for j in range(start, len(polys)):
            phi, d = polys[j], polys[j].degree
            if d > weight:
                break
            for m in range(1, weight // d + 1):
                for lam in partitions(m):
                    acc.append((phi, lam))
                    rec(j + 1, weight - m * d)
                    acc.pop()

    rec(0, n)
    order_n = gl_order(field, n)
    classes = []
    for inv in invariants:
        cent = centralizer_order(field, inv)
        # class size is the GL conjugation orbit size, for End classes too
        if order_n % cent:
            raise ConsistencyError(f"centralizer order {cent} does not divide |GL_{n}|")
        classes.append(ConjClass(inv, cent, order_n // cent))
    classes.sort(key=lambda c: c.invariant.sort_key())
    return tuple(classes)

