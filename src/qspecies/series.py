"""Truncated formal power series with exact coefficients.

Generating and type series are computed over their integer counts, as a
``CountSeries``, and returned as a ``PowerSeries``, whose coefficients are
exact rationals (``Fraction``) or polynomials in the weight variable t over
the rationals (:class:`TPoly`).  The rational products and ``exp`` of a
``PowerSeries``, each coefficient summed by one ``_dot``, are the independent
reference routes of ``verify`` and the tests.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from math import gcd
from operator import mul

from .field import power, require


def _dot(pairs) -> Fraction:
    """sum(a * b for a, b in pairs) for rationals (``Fraction`` or ``int``), as a
    normalised ``Fraction``; ``Fraction(0)`` if there are none.  The numerators
    are summed over a running common denominator, the lcm of the products'
    denominators so far, and the total is normalised once: a term whose
    denominator divides the running one costs a division, any other a gcd,
    where ``Fraction`` arithmetic runs two gcds per product and two per sum."""
    num, den = 0, 1
    for a, b in pairs:
        d = a.denominator * b.denominator
        q, r = divmod(den, d)
        if r:
            g = gcd(d, r)  # = gcd(den, d)
            num = num * (d // g) + a.numerator * b.numerator * (den // g)
            den = den // g * d
        else:
            num += a.numerator * b.numerator * q
    return Fraction(num, den)


class TPoly:
    """A polynomial in t with exact coefficients, used for weights: ``Fraction``
    ones, as the constructor makes them, in a weighted generating series, and
    int ones, which ``_of``, ``+``, ``*`` and ``dot`` keep int, in its counts."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cs = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                c = Fraction(c)
                if c:
                    cs[int(e)] = c
        self.coeffs = cs

    @staticmethod
    def _of(coeffs: dict) -> "TPoly":
        """From coefficients as arithmetic makes them: zeros are dropped and
        nothing is coerced."""
        out = TPoly.__new__(TPoly)
        out.coeffs = {e: c for e, c in coeffs.items() if c}
        return out

    @staticmethod
    def const(c) -> "TPoly":
        return TPoly({0: Fraction(c)})

    @staticmethod
    def t() -> "TPoly":
        return TPoly({1: 1})

    @staticmethod
    def _coerce(other) -> "TPoly":
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = TPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return TPoly._of(out)

    __radd__ = __add__

    @staticmethod
    def dot(pairs) -> "TPoly":
        """sum(a * b for a, b in pairs) for pairs of ``TPoly``, collected by power
        of t into one dict; int coefficients stay int."""
        out: dict = {}
        for a, b in pairs:
            b = b.coeffs.items()
            for e1, c1 in a.coeffs.items():
                for e2, c2 in b:
                    e = e1 + e2
                    out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return TPoly._of(out)

    def __mul__(self, other):
        if isinstance(other, TPoly):
            return TPoly.dot(((self, other),))
        if isinstance(other, (int, Fraction)):
            return TPoly._of({e: c * other for e, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly._of({e: Fraction(c, other) for e, c in self.coeffs.items()})
        return NotImplemented

    def __eq__(self, other):
        other = TPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def subs_t(self, value) -> Fraction:
        return sum((c * Fraction(value) ** e for e, c in self.coeffs.items()), Fraction(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = _frac_str(c)
            else:
                v = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    term = v
                elif c == -1:
                    term = f"-{v}"
                else:
                    term = f"{_frac_str(c)}*{v}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __repr__(self) -> str:
        return f"TPoly({self})"


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


RATIONAL = "rational"
POLY_T = "poly_t"


def ring_zero(ring: str):
    return Fraction(0) if ring == RATIONAL else TPoly()


def coeff_str(c) -> str:
    return _frac_str(c) if isinstance(c, Fraction) else str(c)


class PowerSeries:
    """A power series in x truncated at a fixed order N (degrees 0..N)."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: str, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("coefficient vector length must be order + 1")
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def zero(ring: str, order: int) -> "PowerSeries":
        return PowerSeries(ring, order, [ring_zero(ring)] * (order + 1))

    def _compat(self, other: "PowerSeries") -> None:
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")
        if self.order != other.order:
            raise ValueError("truncation order mismatch")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._compat(other)
        return PowerSeries(self.ring, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def _rational(self) -> None:
        if self.ring != RATIONAL:
            raise ValueError("products and exp of power series are over the rationals")

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._compat(other)
        self._rational()
        a, b = self.coeffs, other.coeffs
        nonzero = [i for i, c in enumerate(a) if c]
        return PowerSeries(self.ring, self.order, [
            _dot((a[i], b[m - i]) for i in nonzero if i <= m and b[m - i])
            for m in range(self.order + 1)])

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.ring, self.order, [a * c for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, PowerSeries)
                and (self.ring, self.order, self.coeffs)
                == (other.ring, other.order, other.coeffs))

    def __hash__(self):
        return hash((self.ring, self.order, self.coeffs))

    def exp(self) -> "PowerSeries":
        """exp(a) for a with zero constant term, via b_n = (1/n) sum k a_k b_{n-k}."""
        self._rational()
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        ka = {k: c * k for k, c in enumerate(self.coeffs) if c}
        out = [Fraction(1)]
        for m in range(1, self.order + 1):
            out.append(_dot((c, out[m - k]) for k, c in ka.items() if k <= m) / m)
        return PowerSeries(self.ring, self.order, out)

    def adams(self, r: int) -> "PowerSeries":
        """a(x^r) truncated at the same order: the image of the cycle index's
        Psi_r under the type specialisation."""
        if r < 1:
            raise ValueError("Adams operations are indexed by r >= 1")
        n = self.order
        out = [ring_zero(self.ring)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if i * r > n:
                break
            out[i * r] = a
        return PowerSeries(self.ring, n, out)

    def subs_t(self, value) -> "PowerSeries":
        """Specialise the weight variable; yields a rational series."""
        if self.ring != POLY_T:
            raise ValueError("subs_t applies to weighted series")
        return PowerSeries(RATIONAL, self.order, [c.subs_t(value) for c in self.coeffs])

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = coeff_str(c)
            if isinstance(c, TPoly) and (len(c.coeffs) > 1 or "+" in cs or "-" in cs[1:]):
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> list[dict]:
        return [{"n": i, "coeff": coeff_str(c)} for i, c in enumerate(self.coeffs)]


_EULERIAN_ROWS: dict[int, list[tuple[int, ...]]] = {}


def eulerian_binomials(q: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Row n <= order holds c(n, k) = gamma_n / (gamma_k gamma_(n-k))
    = q^(k(n-k)) [n choose k]_q for k <= n: the ways to split F_q^n as
    U + W with dim U = k.  Built by the q-Pascal rule
    c(n, k) = q^(2k) c(n-1, k) + q^(n-k) c(n-1, k-1), c(n, 0) = 1, which
    multiplies only by powers of q.  Each q keeps one table, which a higher
    order extends, so a lower order's rows are a prefix of the same rows."""
    rows = _EULERIAN_ROWS.setdefault(q, [(1,)])
    if len(rows) <= order:
        powers = [q**j for j in range(2 * order + 1)]
        for n in range(len(rows), order + 1):
            prev = rows[-1] + (0,)
            rows.append((1,) + tuple(powers[2 * k] * prev[k] + powers[n - k] * prev[k - 1]
                                     for k in range(1, n + 1)))
    return tuple(rows[:order + 1])


def _exact_quotient(x, d: int, what: str):
    """x / d for an int or a TPoly of ints that d divides; a remainder raises
    ConsistencyError, so a count is never truncated."""
    if isinstance(x, TPoly):
        return TPoly._of({e: _exact_quotient(c, d, what) for e, c in x.coeffs.items()})
    quotient, remainder = divmod(x, d)
    require(not remainder, f"{what}: a count is not divisible by {d}")
    return quotient


class CountSeries:
    """A series truncated at order and held by its counts f_n: over F_q,
    sum f_n x^n / gamma_n (Goldman and Rota's Eulerian generating functions),
    gamma_n = |GL_n(F_q)|; for q = None, the type series sum f_n x^n.  A count
    is an int, or a TPoly of ints for weighted counts, with ``unit`` the count
    1.  Each product is a convolution with integer weights c(n, k), so no
    count is ever a fraction.  D = x d/dx multiplies f_n by n and is a
    derivation, so exp(a) solves D b = (D a) b."""

    __slots__ = ("q", "order", "unit", "counts")

    def __init__(self, q: int | None, order: int, unit, counts):
        self.q, self.order, self.unit, self.counts = q, order, unit, list(counts)

    def _of(self, counts) -> "CountSeries":
        return CountSeries(self.q, self.order, self.unit, counts)

    def _weights(self):
        """``eulerian_binomials``; for a type series, one row of ones for every n."""
        if self.q is None:
            return ((1,) * (self.order + 1),) * (self.order + 1)
        return eulerian_binomials(self.q, self.order)

    def __add__(self, other: "CountSeries") -> "CountSeries":
        return self._of(a + b for a, b in zip(self.counts, other.counts))

    def _dot(self, pairs):
        """sum(a * b for a, b in pairs) over the counts' ring."""
        if isinstance(self.unit, TPoly):
            return TPoly.dot(pairs)
        return sum(starmap(mul, pairs))

    def __mul__(self, other: "CountSeries") -> "CountSeries":
        """(fg)_n = sum_k c(n, k) f_k g_(n-k)."""
        c, a, b = self._weights(), self.counts, other.counts
        nonzero = [k for k, x in enumerate(a) if x]
        return self._of(self._dot((c[n][k] * a[k], b[n - k]) for k in nonzero
                                  if k <= n and b[n - k])
                        for n in range(self.order + 1))

    def __pow__(self, e: int) -> "CountSeries":
        return power(self, e, self._of([self.unit] + [self.unit * 0] * self.order))

    def drop_constant(self) -> "CountSeries":
        return self._of([self.unit * 0] + self.counts[1:])

    def scale(self, c) -> "CountSeries":
        return self._of(x * c for x in self.counts)

    def divide_exactly(self, d: int, what: str) -> "CountSeries":
        return self._of(_exact_quotient(x, d, what) for x in self.counts)

    def derivative(self) -> "CountSeries":
        """D = x d/dx: the count of degree n times n."""
        return self._of(x * n for n, x in enumerate(self.counts))

    def adams(self, r: int) -> "CountSeries":
        """f(x^r), the image of Psi_r on a type series."""
        if self.q is not None:
            raise ValueError("Adams operations act on type series")
        out = [self.unit * 0] * (self.order + 1)
        out[::r] = self.counts[:self.order // r + 1]
        return self._of(out)

    def adams_sum(self) -> "CountSeries":
        """sum_(r >= 1) Psi_r(self), truncated: Psi_r adds only its order // r + 1
        counts, at the multiples of r."""
        if self.q is not None:
            raise ValueError("Adams operations act on type series")
        out = list(self.counts)
        for r in range(2, self.order + 1):
            for n, x in enumerate(self.counts[:self.order // r + 1]):
                if x:
                    out[n * r] += x
        return self._of(out)

    def exp_of_integral(self) -> "CountSeries":
        """The b with b_0 = 1 and D b = self * b, for self without constant term:
        exp(a) for the a with D a = self.  So n b_n = sum_k c(n, k) self_k b_(n-k),
        and each division by n is checked exact."""
        if self.counts[0]:
            raise ValueError("exp requires zero constant term")
        c = self._weights()
        nonzero = [(k, x) for k, x in enumerate(self.counts) if x]
        b = [self.unit]
        for n in range(1, self.order + 1):
            row = c[n]
            total = self._dot((row[k] * x, b[n - k]) for k, x in nonzero if k <= n)
            b.append(_exact_quotient(total, n, f"exp at n={n}"))
        return self._of(b)


def euler_transform(f):
    """exp(sum_r Psi_r(f)/r) for f without constant term: a type series
    (``CountSeries``) or a cycle index.  D Psi_r = r Psi_r D, so this is the b
    with D b = G b for G = sum_r Psi_r(D f), which needs no division by r."""
    return f.derivative().adams_sum().exp_of_integral()


def euler_product(exponents: dict[int, int], order: int) -> PowerSeries:
    """prod_{m>=1} 1/(1-x^m)^{a_m} truncated, with int coefficients; a_m >= 0
    integers.  It is the Euler transform of sum_m a_m x^m."""
    counts = [0] * (order + 1)
    for m, a in exponents.items():
        if m < 1 or a < 0:
            raise ValueError("euler product needs indices >= 1 and exponents >= 0")
        if m <= order:
            counts[m] = a
    product = euler_transform(CountSeries(None, order, 1, counts))
    return PowerSeries(RATIONAL, order, product.counts)


def aut_type_product(q: int, order: int) -> PowerSeries:
    """prod_{r>=1} (1-x^r)/(1-q x^r) truncated, with int coefficients; counts
    conjugacy classes of GL_n(F_q).  Each factor multiplies by 1 - x^r, then
    divides by 1 - q x^r, in place."""
    out = [1] + [0] * order
    for r in range(1, order + 1):
        for n in range(order, r - 1, -1):
            out[n] -= out[n - r]
        for n in range(r, order + 1):
            out[n] += q * out[n - r]
    return PowerSeries(RATIONAL, order, out)
