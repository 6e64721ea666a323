import os
import subprocess
import sys
from pathlib import Path

import pytest

import qspecies
from qspecies.field import field_make
from qspecies.linalg import (BudgetExceededError, Matrix, Subspace,
                             companion_matrix, enumerate_decompositions,
                             enumerate_matrices, enumerate_subspaces, gl_order,
                             invariant_data, mat_poly_eval, qbinomial)
from qspecies.poly import Poly, monic_irreducibles

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def M2(*rows):
    return Matrix.make(F2, rows)


def test_rank_and_inverse():
    assert M2((1, 1), (1, 1)).rank() == 1
    a = M2((1, 1), (0, 1))
    assert a.inverse() == a            # self-inverse in char 2
    assert a * a.inverse() == Matrix.identity(F2, 2)
    with pytest.raises(ValueError):
        M2((1, 1), (1, 1)).inverse()


def test_power_matches_repeated_products():
    ident = Matrix.identity(F3, 2)
    for g in enumerate_matrices(F3, 2, True):
        power, inverse_power = ident, ident
        for e in range(6):
            assert g**e == power and g**-e == inverse_power
            power, inverse_power = power * g, inverse_power * g.inverse()
    singular = Matrix.make(F3, ((1, 2), (2, 1)))
    assert singular**0 == ident and singular**3 == singular * singular * singular


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["q2", "q3", "q4"])
def test_make_checks_every_entry(field):
    # products and elimination index the field tables without a check, and a
    # negative index would read a table silently, so make is the range check
    top = field.q - 1
    assert Matrix.make(field, [(0, top), (top, 1)]).entries == ((0, top), (top, 1))
    for bad in (field.q, field.q + 1, -1, -field.q):
        for rows in ([(bad, 0), (0, 1)], [(0, 1), (1, bad)], [(bad,)]):
            with pytest.raises(ValueError):
                Matrix.make(field, rows)


def test_make_range_check_survives_python_O():
    script = (
        "import sys\n"
        "from qspecies.field import field_make\n"
        "from qspecies.linalg import Matrix\n"
        "for p, k in ((2, 1), (3, 1), (2, 2)):\n"
        "    field = field_make(p, k)\n"
        "    for bad in (field.q, -1):\n"
        "        try:\n"
        "            Matrix.make(field, [(1, bad)])\n"
        "        except ValueError:\n"
        "            print('ValueError', sys.flags.optimize)\n"
    )
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["ValueError", "1"] * 6


def test_kernel():
    k = Matrix.make(F3, [(1, 2)]).kernel_basis()
    assert k.dim == 1
    assert k == Subspace.from_vectors(F3, 2, [(1, 1)])


def test_gl_order_vs_exhaustive():
    for n in range(4):
        assert gl_order(F2, n) == sum(1 for _ in enumerate_matrices(F2, n, True))
    assert gl_order(F2, 0) == 1
    assert sum(1 for _ in enumerate_matrices(F2, 2)) == 16


def test_invariant_data_examples():
    z1 = Poly.make(F2, (1, 1))
    assert invariant_data(Matrix.identity(F2, 2)).partitions == ((z1, (1, 1)),)
    assert invariant_data(M2((1, 1), (0, 1))).partitions == ((z1, (2,)),)
    irr = Poly.make(F2, (1, 1, 1))
    assert invariant_data(M2((0, 1), (1, 1))).partitions == ((irr, (1,)),)


def test_invariant_data_conjugation_invariant():
    units = list(enumerate_matrices(F2, 2, True))
    for a in enumerate_matrices(F2, 2):
        inv = invariant_data(a)
        for g in units:
            assert invariant_data(g * a * g.inverse()) == inv


def test_invariant_data_dimension_identity():
    for a in enumerate_matrices(F2, 3):
        inv = invariant_data(a)
        assert sum(phi.degree * sum(lam) for phi, lam in inv.partitions) == 3


def test_companion_matrix():
    f = Poly.make(F2, (1, 1, 1))
    c = companion_matrix(f)
    assert mat_poly_eval(f, c) == Matrix.zero(F2, 2, 2)
    assert invariant_data(c).partitions == ((f, (1,)),)
    # (z+1)^2: minimal polynomial is the full square
    g = Poly.make(F2, (1, 0, 1))
    cg = companion_matrix(g)
    assert mat_poly_eval(g, cg) == Matrix.zero(F2, 2, 2)
    assert mat_poly_eval(Poly.make(F2, (1, 1)), cg) != Matrix.zero(F2, 2, 2)


def test_companion_invertible_iff_nonzero_constant():
    for d in (1, 2, 3):
        for f in monic_irreducibles(F2, d):
            assert companion_matrix(f).is_invertible() == (f.coeffs[0] != 0)


@pytest.mark.parametrize("field,n", [(F2, 2), (F2, 3), (F2, 4), (F3, 2), (F3, 3)])
def test_subspace_counts(field, n):
    for k in range(n + 1):
        subs = list(enumerate_subspaces(field, n, k))
        assert len(subs) == qbinomial(field, n, k)
        assert len(set(subs)) == len(subs)


def test_qbinomial_values():
    assert qbinomial(F2, 2, 1) == 3
    assert qbinomial(F3, 2, 1) == 4
    assert qbinomial(F2, 3, 1) == 7
    assert qbinomial(F2, 4, 0) == 1
    with pytest.raises(ValueError):
        qbinomial(F2, 2, 3)


def test_decomposition_counts():
    assert sum(1 for _ in enumerate_decompositions(F2, 2, (1, 1))) == 6
    assert sum(1 for _ in enumerate_decompositions(F2, 3, (1, 2))) == 28
    assert sum(1 for _ in enumerate_decompositions(F2, 3, (3,))) == 1
    # m = 2 count is gamma_n / (gamma_k gamma_{n-k})
    for n in range(4):
        for k in range(n + 1):
            count = sum(1 for _ in enumerate_decompositions(F2, n, (k, n - k)))
            assert count == gl_order(F2, n) // (gl_order(F2, k) * gl_order(F2, n - k))
    with pytest.raises(ValueError):
        list(enumerate_decompositions(F2, 3, (1, 1)))


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(F2, 2, [(1, 1)])
    b = Subspace.from_vectors(F2, 2, [(1, 1), (0, 0)])
    assert a == b and hash(a) == hash(b)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_matrices(F2, 3, budget=100))
