"""Truncated formal power series with exact coefficients.

Two coefficient rings are supported: exact rationals (``Fraction``) and
univariate polynomials in the weight variable t over the rationals
(:class:`TPoly`).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


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
    """A polynomial in t with rational coefficients, used for weights."""

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
        """From ``Fraction`` coefficients, as arithmetic makes them: zeros are
        dropped and nothing is coerced."""
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

    def __neg__(self):
        return TPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = TPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return TPoly._coerce(other) + (-self)

    @staticmethod
    def dot(pairs) -> "TPoly":
        """sum(a * b for a, b in pairs) for pairs of ``TPoly``: the products'
        terms are collected by power of t, then summed by one ``_dot`` per
        power."""
        terms: dict[int, list] = {}
        for a, b in pairs:
            b = b.coeffs.items()
            for e1, c1 in a.coeffs.items():
                for e2, c2 in b:
                    terms.setdefault(e1 + e2, []).append((c1, c2))
        out = TPoly.__new__(TPoly)
        out.coeffs = cs = {}
        for e, ps in terms.items():
            c = _dot(ps)
            if c:
                cs[e] = c
        return out

    def __mul__(self, other):
        other = TPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TPoly.dot(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly._of({e: c / other for e, c in self.coeffs.items()})
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


def ring_one(ring: str):
    return Fraction(1) if ring == RATIONAL else TPoly.const(1)


def ring_dot(ring: str):
    """The ring's sum of products: ``_dot`` or ``TPoly.dot``."""
    return _dot if ring == RATIONAL else TPoly.dot


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

    @staticmethod
    def one(ring: str, order: int) -> "PowerSeries":
        return PowerSeries(ring, order, [ring_one(ring)] + [ring_zero(ring)] * order)

    @staticmethod
    def from_coeffs(ring: str, order: int, coeffs) -> "PowerSeries":
        cs = list(coeffs)[:order + 1]
        cs += [ring_zero(ring)] * (order + 1 - len(cs))
        return PowerSeries(ring, order, cs)

    def _compat(self, other: "PowerSeries") -> None:
        if self.ring != other.ring:
            raise ValueError("coefficient ring mismatch")
        if self.order != other.order:
            raise ValueError("truncation order mismatch")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._compat(other)
        return PowerSeries(self.ring, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._compat(other)
        return PowerSeries(self.ring, self.order,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._compat(other)
        dot, a, b = ring_dot(self.ring), self.coeffs, other.coeffs
        nonzero = [i for i, c in enumerate(a) if c]
        return PowerSeries(self.ring, self.order, [
            dot((a[i], b[m - i]) for i in nonzero if i <= m and b[m - i])
            for m in range(self.order + 1)])

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.ring, self.order, [a * c for a in self.coeffs])

    def drop_constant(self) -> "PowerSeries":
        return PowerSeries(self.ring, self.order, (ring_zero(self.ring),) + self.coeffs[1:])

    def __pow__(self, e: int) -> "PowerSeries":
        base = self
        if e < 0:
            base, e = base.inverse(), -e
        out = None  # the one series, until a factor arrives
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return PowerSeries.one(self.ring, self.order) if out is None else out

    def __eq__(self, other) -> bool:
        return (isinstance(other, PowerSeries)
                and (self.ring, self.order, self.coeffs)
                == (other.ring, other.order, other.coeffs))

    def __hash__(self):
        return hash((self.ring, self.order, self.coeffs))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; constant term must be 1."""
        if self.coeffs[0] != ring_one(self.ring):
            raise ValueError("inverse requires constant term 1")
        dot, a = ring_dot(self.ring), self.coeffs
        nonzero = [k for k, c in enumerate(a) if k and c]
        out = [ring_one(self.ring)]
        for m in range(1, self.order + 1):
            out.append(-dot((a[k], out[m - k]) for k in nonzero if k <= m))
        return PowerSeries(self.ring, self.order, out)

    def exp(self) -> "PowerSeries":
        """exp(a) for a with zero constant term, via b_n = (1/n) sum k a_k b_{n-k}."""
        if self.coeffs[0] != ring_zero(self.ring):
            raise ValueError("exp requires zero constant term")
        dot = ring_dot(self.ring)
        ka = {k: c * k for k, c in enumerate(self.coeffs) if c}
        out = [ring_one(self.ring)]
        for m in range(1, self.order + 1):
            out.append(dot((c, out[m - k]) for k, c in ka.items() if k <= m) / m)
        return PowerSeries(self.ring, self.order, out)

    def log(self) -> "PowerSeries":
        """log(a) for a with constant term 1; inverse of exp."""
        if self.coeffs[0] != ring_one(self.ring):
            raise ValueError("log requires constant term 1")
        dot, a = ring_dot(self.ring), self.coeffs
        out = [ring_zero(self.ring)]
        ka = [out[0]]  # k * out[k]
        for m in range(1, self.order + 1):
            out.append(a[m] - dot((ka[k], a[m - k]) for k in range(1, m) if a[m - k]) / m)
            ka.append(out[m] * m)
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


def geometric(ring: str, order: int, ratio=1) -> PowerSeries:
    """1/(1 - ratio*x) truncated."""
    one = ring_one(ring)
    coeffs = [one]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return PowerSeries(ring, order, coeffs)


def binomial_inverse_power(ring: str, order: int, period: int, exponent: int) -> PowerSeries:
    """1/(1 - x^period)^exponent truncated; exponent >= 0."""
    coeffs = [ring_zero(ring)] * (order + 1)
    k = 0
    while k * period <= order:
        coeffs[k * period] = ring_one(ring) * comb(exponent + k - 1, k) if k else ring_one(ring)
        k += 1
    if exponent == 0:
        return PowerSeries.one(ring, order)
    return PowerSeries(ring, order, coeffs)


def euler_product(exponents: dict[int, int], order: int, ring: str = RATIONAL) -> PowerSeries:
    """prod_{m>=1} 1/(1-x^m)^{a_m} truncated; a_m >= 0 integers."""
    out = PowerSeries.one(ring, order)
    for m, a in sorted(exponents.items()):
        if m < 1:
            raise ValueError("euler product indices start at 1")
        if a < 0:
            raise ValueError("euler product exponents must be >= 0")
        if m > order or a == 0:
            continue
        out = out * binomial_inverse_power(ring, order, m, a)
    return out


def aut_type_product(q: int, order: int, ring: str = RATIONAL) -> PowerSeries:
    """prod_{r>=1} (1-x^r)/(1-q x^r) truncated; counts conjugacy classes of GL_n(F_q)."""
    out = PowerSeries.one(ring, order)
    for r in range(1, order + 1):
        num = [ring_zero(ring)] * (order + 1)
        num[0] = ring_one(ring)
        num[r] = -ring_one(ring)
        den = [ring_zero(ring)] * (order + 1)
        den[0] = ring_one(ring)
        den[r] = -(ring_one(ring) * q)
        out = out * PowerSeries(ring, order, num) * PowerSeries(ring, order, den).inverse()
    return out
