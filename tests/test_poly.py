import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import qspecies
from qspecies import poly
from qspecies.field import ConsistencyError, field_make
from qspecies.poly import (Poly, irreducible_count, is_irreducible,
                           monic_irreducibles, poly_z_minus)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)


def P2(*coeffs):
    return Poly.make(F2, coeffs)


def test_basic_arithmetic():
    # (z+1)^2 = z^2 + 1 in characteristic 2
    assert P2(1, 1) * P2(1, 1) == P2(1, 0, 1)
    assert P2(1, 1) + P2(1, 1) == P2()
    q, r = divmod(P2(1, 0, 1), P2(1, 1))
    assert q == P2(1, 1) and r.is_zero


def test_hash_is_the_value_hash_computed_once(monkeypatch):
    f = Poly.make(F4, (2, 3, 1))
    assert hash(f) == hash(Poly.make(F4, (2, 3, 1))) == hash((F4, (2, 3, 1)))
    assert f == Poly.make(F4, [2, 3, 1, 0]) and f != Poly.make(F2, (0, 1, 1))
    calls = []
    field_hash = type(F4).__hash__
    monkeypatch.setattr(type(F4), "__hash__", lambda self: calls.append(self) or field_hash(self))
    g = Poly.make(F4, (1, 1))
    assert hash(g) == hash(g) == hash(g)
    assert len(calls) == 1


def test_is_irreducible_examples():
    assert is_irreducible(P2(1, 1, 1))          # z^2+z+1
    assert not is_irreducible(P2(1, 0, 1))      # (z+1)^2
    assert is_irreducible(Poly(F3, (0, 1)))     # z
    with pytest.raises(ValueError):
        is_irreducible(P2(1))                    # constant
    with pytest.raises(ValueError):
        is_irreducible(Poly.make(F3, (1, 2)))    # not monic


def brute_force_irreducible(f):
    """Trial division by every monic polynomial of lower positive degree."""
    from itertools import product
    field = f.field
    for d in range(1, f.degree):
        for lower in product(range(field.q), repeat=d):
            g = Poly(field, tuple(lower) + (1,))
            if (f % g).is_zero:
                return False
    return True


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumeration_vs_count_and_trial_division(field, d):
    polys = monic_irreducibles(field, d)
    assert len(polys) == irreducible_count(field, d)
    for f in polys:
        assert f.is_monic and f.degree == d
        assert brute_force_irreducible(f)
    # every monic irreducible of degree d is listed
    from itertools import product
    all_irr = [Poly(field, tuple(lo) + (1,))
               for lo in product(range(field.q), repeat=d)]
    assert len([f for f in all_irr if brute_force_irreducible(f)]) == len(polys)


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_minimal_polynomial_degree_sum(field, d):
    assert sum(e * irreducible_count(field, e)
               for e in range(1, d + 1) if d % e == 0) == field.q**d


def test_known_counts():
    assert irreducible_count(F2, 1) == 2
    assert irreducible_count(F2, 2) == 1
    assert irreducible_count(F3, 2) == 3
    assert monic_irreducibles(F2, 2) == [P2(1, 1, 1)]
    assert len(monic_irreducibles(F2, 3)) == 2


def test_exclude_z():
    assert monic_irreducibles(F2, 1, exclude_z=True) == [P2(1, 1)]
    # only affects degree 1
    assert monic_irreducibles(F2, 2, exclude_z=True) == monic_irreducibles(F2, 2)


def test_ordering_puts_z_minus_1_first():
    first = monic_irreducibles(F3, 1)[0]
    assert first == poly_z_minus(F3, 1)  # z - 1 = z + 2 over F_3


def test_rendering():
    assert str(P2(1, 1, 1)) == "z^2+z+1"
    assert str(Poly.make(F3, (0, 2))) == "2*z"
    assert str(P2()) == "0"


def _mobius_one_only(n):
    # without mu(2) = -1, the degree-2 necklace sum over F_3 is 9, odd
    return 1 if n == 1 else 0


def test_necklace_divisibility_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(poly, "_mobius", _mobius_one_only)
    with pytest.raises(ConsistencyError):
        irreducible_count(F3, 2)


def test_necklace_divisibility_check_survives_python_O():
    script = (
        "import sys\n"
        "from qspecies import poly\n"
        "from qspecies.field import ConsistencyError, field_make\n"
        "poly._mobius = lambda n: 1 if n == 1 else 0\n"
        "try:\n"
        "    poly.irreducible_count(field_make(3, 1), 2)\n"
        "except ConsistencyError:\n"
        "    print('ConsistencyError', sys.flags.optimize)\n"
    )
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["ConsistencyError", "1"]


def trial_division_irreducibles(field, top):
    """Reference: per degree d <= top, every monic of degree d that no
    irreducible of degree <= d/2 divides, in canonical order."""
    found = {}
    for d in range(1, top + 1):
        divisors = [g for e in range(1, d // 2 + 1) for g in found[e]]
        monics = (Poly(field, lower + (1,)) for lower in product(range(field.q), repeat=d))
        found[d] = sorted((f for f in monics if all(not (f % g).is_zero for g in divisors)),
                          key=lambda f: f.sort_key)
    return found


@pytest.mark.parametrize("field,top", [(F2, 12), (F3, 7), (F4, 5)])
def test_sieve_counts_match_necklace_formula(field, top):
    for d in range(1, top + 1):
        assert len(monic_irreducibles(field, d)) == irreducible_count(field, d)


@pytest.mark.parametrize("field,top", [(F2, 8), (F3, 5), (F4, 4)])
def test_sieve_matches_trial_division(field, top):
    reference = trial_division_irreducibles(field, top)
    for d in range(1, top + 1):
        assert monic_irreducibles(field, d) == reference[d]


def tuple_key(f):
    """The polynomial order as a tuple: degree, z-1 first, then the
    coefficients from the top down."""
    return (f.degree, 0 if f.coeffs == (f.field.neg(1), 1) else 1, tuple(reversed(f.coeffs)))


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_int_sort_key_orders_as_the_tuple_key(field):
    monics = [Poly(field, lower + (1,)) for d in range(5)
              for lower in product(range(field.q), repeat=d)]
    assert sorted(monics, key=lambda f: f.sort_key) == sorted(monics, key=tuple_key)


@pytest.mark.parametrize("field,top", [(F2, 10), (F3, 6), (F4, 4), (F5, 4), (F7, 3)])
def test_sieve_matches_brute_force_products(field, top):
    monics = {d: [Poly(field, lower + (1,)) for lower in product(range(field.q), repeat=d)]
              for d in range(top + 1)}
    for d in range(1, top + 1):
        reducible = {g * h for e in range(1, d // 2 + 1)
                     for g in monics[e] for h in monics[d - e]}
        found = monic_irreducibles(field, d)
        assert set(found) == set(monics[d]) - reducible
        assert len(found) == irreducible_count(field, d)
        assert found == sorted(found, key=tuple_key)
