"""Cycle index series: sparse rational combinations of monomials x_{phi,i}.

A monomial of graded degree n is the invariant of an Aut(E_n) conjugacy
class, and the code has one type for both, ``linalg.InvariantData``: the
monomial prod x_{phi,i}^(e_{phi,i}) is the class with e_{phi,i} parts i in
lambda_phi, and the product of monomials is the direct sum of classes.  The
series is built class-by-class as fix(class)/centralizer_order(class) on the
class monomial.  No monomial has phi = z: the Aut class walk draws phi only
from the monic irreducibles other than z.

Psi_r (``adams``) is the ring map x_{psi,i} -> prod_phi x_{phi, i*v_phi},
where psi(z^r) = prod_phi phi^(v_phi): if z^r acts on a module of invariant
x_{psi,i}, then z acts on F_q[z] tensored with it over F_q[z^r], which is
F_q[z]/(psi(z^r)^i), with one cyclic primary part F_q[z]/(phi^(i*v_phi)) per
factor.  With ``derivative`` and ``exp_of_integral`` it gives the plethysms
of E(F) and sym(m, F), as for type series (``series.euler_transform``).

The type specialisation substitutes x_{phi,i} -> x^(i*deg phi), i.e. every
class of dimension n lands on x^n.  The literal substitution x_{phi,i} ->
x^i stated alongside the definition only recovers the type series when all
irreducibles involved have degree 1; the degree-weighted exponent is the
one that makes Burnside's lemma (and hence the type series identity) hold.
It sends Psi_r to x -> x^r (``CountSeries.adams``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .classes import enumerate_classes
from .field import FieldSpec, power, require
from .linalg import InvariantData
from .poly import Poly, is_irreducible, monic_irreducibles
from .series import RATIONAL, PowerSeries, _dot, coeff_str, ring_zero


def _monomial_str(m: InvariantData) -> str:
    return "*".join(f"x[{phi},{i}]" if e == 1 else f"x[{phi},{i}]^{e}"
                    for phi, i, e in m.items()) or "1"


class CycleIndexSeries:
    """Graded truncated series: map monomial (InvariantData) -> nonzero rational
    coefficient."""

    __slots__ = ("field", "order", "terms")

    def __init__(self, field: FieldSpec, order: int, terms: dict):
        self.field = field
        self.order = order
        self.terms = {m: c if type(c) is Fraction else Fraction(c)
                      for m, c in terms.items() if c and m.degree <= order}

    @staticmethod
    def _of(field: FieldSpec, order: int, terms: dict) -> "CycleIndexSeries":
        """From terms as ``z_build`` and the products make them, nonzero
        ``Fraction``s of degree <= order: nothing is dropped or coerced."""
        out = CycleIndexSeries.__new__(CycleIndexSeries)
        out.field, out.order, out.terms = field, order, terms
        return out

    def _compat(self, other: "CycleIndexSeries") -> None:
        if self.field != other.field:
            raise ValueError("cycle index series over different fields")
        if self.order != other.order:
            raise ValueError("truncation order mismatch")

    def __add__(self, other: "CycleIndexSeries") -> "CycleIndexSeries":
        self._compat(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return CycleIndexSeries(self.field, self.order, out)

    def _by_degree(self) -> dict[int, list]:
        by_degree: dict[int, list] = {}
        for m, c in self.terms.items():
            by_degree.setdefault(m.degree, []).append((m, c))
        return by_degree

    def __mul__(self, other: "CycleIndexSeries") -> "CycleIndexSeries":
        self._compat(other)
        a, b = self._by_degree(), other._by_degree()
        terms: dict[InvariantData, Fraction] = {}
        for n in range(self.order + 1):  # one degree's pairs held at a time
            pairs: dict[InvariantData, list] = {}
            for d1, part in a.items():
                bucket = b.get(n - d1)
                if bucket:
                    for m1, c1 in part:
                        for m2, c2 in bucket:
                            pairs.setdefault(m1.mul(m2), []).append((c1, c2))
            for m, ps in pairs.items():
                c = _dot(ps)
                if c:
                    terms[m] = c
        return CycleIndexSeries._of(self.field, self.order, terms)

    def __pow__(self, e: int) -> "CycleIndexSeries":
        return power(self, e, z_one(self.field, self.order))

    def scale(self, c) -> "CycleIndexSeries":
        return CycleIndexSeries(self.field, self.order,
                                {m: v * c for m, v in self.terms.items()})

    def adams(self, r: int) -> "CycleIndexSeries":
        """Psi_r: x_{psi,i} -> prod_phi x_{phi, i*v_phi} for psi(z^r) = prod phi^(v_phi),
        extended to a ring map; it multiplies graded degree by r.  On invariants,
        each part i of lambda_psi becomes a part i*v_phi of lambda_phi."""
        if r < 1:
            raise ValueError("Adams operations are indexed by r >= 1")
        out: dict[InvariantData, Fraction] = {}
        for m, c in self.terms.items():
            if m.degree * r <= self.order:
                m_r = _adams_monomial(m, r)
                out[m_r] = out.get(m_r, Fraction(0)) + c
        return CycleIndexSeries(self.field, self.order, out)

    def adams_sum(self) -> "CycleIndexSeries":
        """sum_(r >= 1) Psi_r(self), truncated, in one dict: Psi_r reads only the
        terms of degree <= order // r."""
        by_degree = self._by_degree()
        out = dict(self.terms)
        for r in range(2, self.order + 1):
            for d in range(self.order // r + 1):
                for m, c in by_degree.get(d, ()):
                    m_r = _adams_monomial(m, r)
                    out[m_r] = out[m_r] + c if m_r in out else c
        return CycleIndexSeries(self.field, self.order, out)

    def derivative(self) -> "CycleIndexSeries":
        """D: each monomial times its degree, a derivation."""
        return CycleIndexSeries._of(self.field, self.order,
                                    {m: c * m.degree for m, c in self.terms.items() if m.degree})

    def exp_of_integral(self) -> "CycleIndexSeries":
        """The B with B_0 = 1 and D B = G B for G = self without constant term:
        exp(A) for the A with D A = G.  So the degree-n part of B is
        B_n = (1/n) sum_k G_k B_(n-k), with G_k the degree-k part of G."""
        g = self._by_degree()
        if 0 in g:
            raise ValueError("exp requires zero constant term")
        b: list[dict] = [{InvariantData(): Fraction(1)}]
        for n in range(1, self.order + 1):
            pairs: dict[InvariantData, list] = {}
            for k in range(1, n + 1):
                for m1, c1 in g.get(k, ()):
                    for m2, c2 in b[n - k].items():
                        pairs.setdefault(m1.mul(m2), []).append((c1, c2))
            b.append({m: c / n for m, ps in pairs.items() if (c := _dot(ps))})
        return CycleIndexSeries._of(self.field, self.order,
                                    {m: c for part in b for m, c in part.items()})

    def divide_exactly(self, d: int, what: str) -> "CycleIndexSeries":
        """self / d; rational coefficients always divide."""
        return self.scale(Fraction(1, d))

    def drop_constant(self) -> "CycleIndexSeries":
        return CycleIndexSeries._of(self.field, self.order,
                                    {m: v for m, v in self.terms.items() if m.degree > 0})

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycleIndexSeries)
                and (self.field, self.order) == (other.field, other.order)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.order, frozenset(self.terms.items())))

    def specialize_generating(self) -> PowerSeries:
        """Keep only monomials in the single variable x_{z-1,1}; x_{z-1,1}^n -> x^n."""
        coeffs = [ring_zero(RATIONAL)] * (self.order + 1)
        for m, c in self.terms.items():
            if m.is_identity():
                coeffs[m.degree] += c
        return PowerSeries(RATIONAL, self.order, coeffs)

    def specialize_type(self) -> PowerSeries:
        """Substitute x_{phi,i} -> x^(i*deg phi): each monomial lands on x^degree."""
        coeffs = [ring_zero(RATIONAL)] * (self.order + 1)
        for m, c in self.terms.items():
            coeffs[m.degree] += c
        return PowerSeries(RATIONAL, self.order, coeffs)

    def render_lines(self) -> list[str]:
        return [f"{coeff_str(self.terms[m])} * {_monomial_str(m)}"
                for m in sorted(self.terms, key=InvariantData.sort_key)]

    def to_json(self) -> list[dict]:
        return [{"degree": m.degree, "monomial": _monomial_str(m),
                 "coeff": coeff_str(self.terms[m])}
                for m in sorted(self.terms, key=InvariantData.sort_key)]

    def __str__(self) -> str:
        return " + ".join(self.render_lines()) if self.terms else "0"


def _adams_monomial(m: InvariantData, r: int) -> InvariantData:
    """Psi_r of one monomial: each part i of lambda_psi becomes a part i*v_phi of
    lambda_phi, for psi(z^r) = prod phi^(v_phi)."""
    return InvariantData.of((phi, tuple(i * v for i in lam)) for psi, lam in m.partitions
                            for phi, v in _factor_at_power(psi, r))


@lru_cache(maxsize=None)
def _factor_at_power(psi: Poly, r: int) -> tuple[tuple[Poly, int], ...]:
    """psi(z^r) = prod phi^v over monic irreducibles phi (never z, since
    psi(0) != 0), by trial division with the sieved irreducibles.  Once no
    factor of degree below d is left and the rest has degree below 2d, the
    rest is irreducible, which ``is_irreducible`` checks on that one
    polynomial, without sieving its degree."""
    field = psi.field
    coeffs = [0] * (r * psi.degree + 1)
    for j, c in enumerate(psi.coeffs):
        coeffs[j * r] = c
    rest = Poly(field, tuple(coeffs))
    factors = []
    d = 1
    while rest.degree >= 2 * d:
        for phi in monic_irreducibles(field, d, exclude_z=True):
            v = 0
            while True:
                quotient, remainder = divmod(rest, phi)
                if not remainder.is_zero:
                    break
                rest, v = quotient, v + 1
            if v:
                factors.append((phi, v))
        d += 1
    if rest.degree > 0 and is_irreducible(rest):
        factors.append((rest, 1))
    found = sum(phi.degree * v for phi, v in factors)
    require(found == r * psi.degree,
            f"factors of ({psi})(z^{r}) account for degree {found} of {r * psi.degree}")
    return tuple(factors)


def z_build(field: FieldSpec, fix, order: int) -> CycleIndexSeries:
    """Cycle index from a fix-count class function:
    sum over Aut classes c of (fix(c)/centralizer_order(c)) * c's invariant.
    Dimensions are walked from the top down, so that a fix count that fails on
    its budget fails before it has spent any work on lower dimensions."""
    terms: dict[InvariantData, Fraction] = {}
    for n in range(order, -1, -1):
        for c in enumerate_classes(field, n, "aut"):
            v = fix(c)
            if v:
                terms[c.invariant] = Fraction(v, c.centralizer_order)
    return CycleIndexSeries._of(field, order, terms)


def z_one(field: FieldSpec, order: int) -> CycleIndexSeries:
    return CycleIndexSeries(field, order, {InvariantData(): Fraction(1)})
