import pytest

from qspecies import field, poly
from qspecies.field import ConsistencyError, field_make


TEST_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,k", TEST_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = field_make(p, k)
    els = F.elements()
    assert len(els) == p**k
    assert els[0] == 0 and els[1] == 1
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,k", TEST_FIELDS)
def test_multiplicative_group_order(p, k):
    # a^(q-1) = 1 by repeated products; pow reduces its exponent by q - 1
    F = field_make(p, k)
    for a in range(1, F.q):
        powers = [1]
        for _ in range(2 * F.q):
            powers.append(F.mul(powers[-1], a))
        assert powers[F.q - 1] == 1
        assert [F.pow(a, e) for e in range(2 * F.q + 1)] == powers
        assert F.pow(a, -3) == F.inv(powers[3])
    assert [F.pow(0, e) for e in range(3)] == [1, 0, 0]


def test_f4_modulus_and_arithmetic():
    F4 = field_make(2, 2)
    assert F4.modulus == (1, 1, 1)  # z^2 + z + 1
    # x * x = x + 1 given the modulus; x has index 2, x+1 index 3
    assert F4.mul(2, 2) == 3


def test_char2_and_f3_basics():
    F2 = field_make(2, 1)
    assert F2.add(1, 1) == 0
    F3 = field_make(3, 1)
    assert F3.inv(2) == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_characteristic_2_index_is_the_coefficient_bit_vector(k):
    # linalg packs rows on this: a sum is an XOR of indices, alpha^t has index 2^t
    F = field_make(2, k)
    assert all(F.add(a, b) == a ^ b for a in F.elements() for b in F.elements())
    if k > 1:
        assert [F.pow(2, t) for t in range(k)] == [1 << t for t in range(k)]


def test_closure_f4():
    F4 = field_make(2, 2)
    els = set(F4.elements())
    for a in els:
        for b in els:
            assert F4.add(a, b) in els
            assert F4.mul(a, b) in els


def test_constructor_errors():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(2, 7)  # q = 128 > 64
    with pytest.raises(ZeroDivisionError):
        field_make(2, 1).inv(0)


def test_element_range_checked():
    F2 = field_make(2, 1)
    with pytest.raises(ValueError):
        F2.add(0, 5)


def test_missing_modulus_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    monkeypatch.setattr(poly, "monic_irreducibles", lambda base, k: [])
    with pytest.raises(ConsistencyError):
        field_make(2, 2)


# the lexicographically least monic irreducible of degree k, constant term first
EXTENSION_MODULI = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
                    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
                    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (5, 2): (2, 0, 1),
                    (7, 2): (1, 0, 1)}


@pytest.mark.parametrize("p, k", sorted(EXTENSION_MODULI))
def test_extension_moduli_are_pinned(p, k):
    F = field_make(p, k)
    assert F.modulus == EXTENSION_MODULI[p, k]
    # alpha, the class of z, is a root of the modulus: sum_i c_i alpha^i = 0
    alpha = p
    total = 0
    for i, c in enumerate(F.modulus):
        total = F.add(total, F.mul(c, F.pow(alpha, i)))
    assert total == 0


@pytest.mark.parametrize("p, k", sorted(EXTENSION_MODULI))
def test_product_table_is_the_polynomial_product(p, k):
    # the table is built from coefficient lists; Poly multiplies and reduces
    # through the checked operations of F_p
    F = field_make(p, k)
    base = field_make(p, 1)
    modulus = poly.Poly(base, F.modulus)
    polys = [poly.Poly.make(base, F._digits(a)) for a in F.elements()]
    for a, f in enumerate(polys):
        assert F._mul[a] == [F._undigits(list((f * g % modulus).coeffs)) for g in polys]
