import pytest

from qspecies import field
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
    F = field_make(p, k)
    for a in range(1, F.q):
        assert F.pow(a, F.q - 1) == 1


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
    monkeypatch.setattr(field, "_bootstrap_irreducible", lambda coeffs, p: False)
    with pytest.raises(ConsistencyError):
        field_make(2, 2)
