"""Conjugacy classes of Aut(E_n) and End(E_n) by their invariants.

A class is its rational canonical invariant (``linalg.InvariantData``): a
partition lambda_phi for each monic irreducible phi with
sum deg(phi)*|lambda_phi| = n.  The same value is the class's cycle-index
monomial.  ``enumerate_classes`` walks the items (phi, i, e) depth first in
increasing order, so its classes come out in ``InvariantData.sort_key`` order
unsorted.  The centralizer order is a product over the primary parts of one
formula per part, ``part_centralizer_order``, multiplied in by the walk as it
finishes each part, and validated against brute-force commutant counts in the
test suite before being trusted at dimensions where GL enumeration is
impossible.  The species' type and generating series use the per-part formula
alone, without walking classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import prod

from .field import FieldSpec
from .linalg import (ConsistencyError, InvariantData, Matrix, block_diagonal,
                     companion_matrix, gl_order)
from .poly import monic_irreducibles


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
def partitions(m: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of m with no part above ``largest`` (default m) as descending
    tuples, in descending order; the empty partition for m = 0."""
    if m == 0:
        return ((),)
    return tuple((part,) + rest for part in range(min(m, m if largest is None else largest), 0, -1)
                 for rest in partitions(m - part, part))


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
    return prod(part_centralizer_order(field.q**phi.degree, lam) for phi, lam in inv.partitions)


@lru_cache(maxsize=None)
def enumerate_classes(field: FieldSpec, n: int, kind: str = "aut") -> tuple[ConjClass, ...]:
    """All conjugacy classes of Aut(E_n) (kind="aut") or End(E_n) (kind="end"),
    in ``InvariantData.sort_key`` order: a depth-first walk takes the items
    (phi, i, e) in increasing order, each after the last in (phi, i)."""
    if kind not in ("aut", "end"):
        raise ValueError("kind must be 'aut' or 'end'")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    polys = [(phi, d, phi.sort_key, field.q**d) for d in range(1, n + 1)
             for phi in monic_irreducibles(field, d, exclude_z=(kind == "aut"))]
    order_n = gl_order(field, n)
    out = []

    def rec(j, i_next, weight, parts, cent_before, cent, items, keys):
        """Extend the class so far (``parts``, its ``items`` and sort ``keys``,
        centralizer order ``cent``, and ``cent_before`` without its last part,
        that of polys[j]) by an item of polys[j] with i >= i_next, or of a later phi."""
        if weight == 0:
            # class size is the GL conjugation orbit size, for End classes too
            if order_n % cent:
                raise ConsistencyError(f"centralizer order {cent} does not divide |GL_{n}|")
            out.append(ConjClass(InvariantData(parts, n, items, (n, keys)), cent, order_n // cent))
            return
        for jj in range(max(j, 0), len(polys)):
            phi, d, key, Q = polys[jj]
            if d > weight:
                break
            same = jj == j
            base, base_cent = (parts[:-1], cent_before) if same else (parts, cent)
            for i in range(i_next if same else 1, weight // d + 1):
                for e in range(1, weight // (d * i) + 1):
                    lam = (i,) * e + parts[-1][1] if same else (i,) * e
                    rec(jj, i + 1, weight - d * i * e, base + ((phi, lam),), base_cent,
                        base_cent * part_centralizer_order(Q, lam),
                        items + ((phi, i, e),), keys + ((key, i, e),))

    rec(-1, 1, n, (), 1, 1, (), ())
    return tuple(out)
