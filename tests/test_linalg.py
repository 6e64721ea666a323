import pytest

from qspecies.field import field_make
from qspecies.linalg import (BudgetExceededError, Matrix, Subspace,
                             companion_matrix, enumerate_decompositions,
                             enumerate_matrices, enumerate_subspaces, gl_order,
                             invariant_data, mat_poly_eval, qbinomial)
from qspecies.poly import Poly, monic_irreducibles

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def M2(*rows):
    return Matrix.make(F2, rows)


def test_rank_and_inverse():
    assert M2((1, 1), (1, 1)).rank() == 1
    a = M2((1, 1), (0, 1))
    assert a.inverse() == a            # self-inverse in char 2
    assert a * a.inverse() == Matrix.identity(F2, 2)
    with pytest.raises(ValueError):
        M2((1, 1), (1, 1)).inverse()


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
