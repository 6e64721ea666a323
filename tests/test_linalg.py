import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspecies
from qspecies import linalg
from qspecies.field import field_make
from qspecies.linalg import (BudgetExceededError, Matrix, Subspace,
                             companion_matrix, direct_sum, direct_sum_rows,
                             enumerate_decompositions, enumerate_matrices, enumerate_subspaces,
                             gl_order, invariant_data, mat_poly_eval, qbinomial)
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
        power = ident
        for e in range(6):
            assert g**e == power
            power = power * g
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


def span_of(field, n, vectors):
    """The subspace of F_q^n spanned by ``vectors``: the nonzero rows of their RREF."""
    red, pivots = Matrix.make(field, vectors).rref()
    return Subspace(field, n, red.entries[:len(pivots)])


def test_kernel():
    k = Matrix.make(F3, [(1, 2)]).kernel_vectors()
    assert k == [(1, 1)]
    assert span_of(F3, 2, k) == span_of(F3, 2, [(2, 2)])


def _rank_filtered(field, n):
    """GL_n as the q^(n²) matrices, in product order row by row, of rank n."""
    for flat in product(range(field.q), repeat=n * n):
        m = Matrix(field, tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        if m.rank() == n:
            yield m.entries


def test_gl_order_vs_exhaustive():
    for n in range(4):
        assert gl_order(F2, n) == sum(1 for _ in enumerate_matrices(F2, n, True))
    assert gl_order(F2, 0) == 1
    assert sum(1 for _ in enumerate_matrices(F2, 2)) == 16
    # the row-by-row walk of GL_n yields the rank filter's matrices, in its order
    for field, top in ((F2, 3), (F3, 2), (F4, 2)):
        for n in range(top + 1):
            walk = [g.entries for g in enumerate_matrices(field, n, True)]
            assert walk == list(_rank_filtered(field, n))
            assert len(walk) == gl_order(field, n)
    # an over-budget walk raises before it yields anything
    walk = enumerate_matrices(F2, 3, True, budget=100)
    with pytest.raises(BudgetExceededError, match=r"^q\^\(n\^2\) = 512 exceeds budget 100$"):
        next(walk)


@pytest.mark.parametrize("field, n", [(F2, 3), (F3, 2), (F4, 2)], ids=["q2", "q3", "q4"])
def test_gl_walk_is_kept_and_every_call_checks_its_budget(monkeypatch, field, n):
    # later walks of GL_n yield the first walk's sequence, from its kept tuple
    first = [g.entries for g in enumerate_matrices(field, n, True)]
    again = list(enumerate_matrices(field, n, True))
    assert [g.entries for g in again] == first == list(_rank_filtered(field, n))
    assert again == list(linalg._general_linear_group(field, n))
    # with the memo filled, a budget below q^(n²) still raises before a yield
    cells = field.q ** (n * n)
    walk = enumerate_matrices(field, n, True, budget=cells - 1)
    with pytest.raises(BudgetExceededError, match=rf"^q\^\(n\^2\) = {cells} exceeds"):
        next(walk)
    # a group above the memo's limit is walked afresh, in the same order
    monkeypatch.setattr(linalg, "GL_MEMO_LIMIT", 0)
    fresh = list(enumerate_matrices(field, n, True))
    assert [g.entries for g in fresh] == first
    assert all(a is not b for a, b in zip(fresh, again))


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


@pytest.mark.parametrize("field, n", [(F2, 3), (F3, 3), (F4, 2)], ids=["q2", "q3", "q4"])
def test_direct_sum_is_full_rank(field, n):
    subspaces = [w for k in range(n + 1) for w in enumerate_subspaces(field, n, k)]
    for u in subspaces:
        span = direct_sum(field, (), direct_sum_rows(field, u.basis))
        for w in subspaces:
            stacked = Matrix(field, u.basis + w.basis)
            direct = not stacked.entries or stacked.rank() == len(u.basis) + len(w.basis)
            assert (direct_sum(field, span, direct_sum_rows(field, w.basis)) is not None) == direct


def table_direct_sum(F, span, basis):
    """direct_sum's reduction on row tuples with the field's checked operations:
    (pivot, row) pairs, or None when the sum is not direct."""
    span = list(span)
    for v in basis:
        for pivot, row in span:
            x = v[pivot]
            if x:
                v = tuple(F.sub(a, F.mul(x, b)) for a, b in zip(v, row))
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        inv = F.inv(v[pivot])
        span.append((pivot, tuple(F.mul(inv, x) for x in v)))
    return tuple(span)


@pytest.mark.parametrize("field, top", [(F2, 3), (F4, 2)], ids=["q2", "q4"])
def test_packed_direct_sum_is_the_table_route(field, top):
    # over F_(2^k), direct_sum reduces packed rows; unpacked, its echelon rows
    # are the table route's, pair by pair
    k = field.k

    def unpacked(span, n):
        return tuple((shift // k, tuple(r >> k * j & (1 << k) - 1 for j in range(n)))
                     for shift, r in span)

    for n in range(top + 1):
        subspaces = [w for d in range(n + 1) for w in enumerate_subspaces(field, n, d)]
        for u in subspaces:
            span = direct_sum(field, (), direct_sum_rows(field, u.basis))
            reference = table_direct_sum(field, (), u.basis)
            assert unpacked(span, n) == reference
            for w in subspaces:
                joined = direct_sum(field, span, direct_sum_rows(field, w.basis))
                expected = table_direct_sum(field, reference, w.basis)
                assert (joined is None) == (expected is None)
                assert joined is None or unpacked(joined, n) == expected


def drawn_matrices(field, n, count, rng):
    """Zero, ``count`` random n x n matrices, and for n > 1 each of them again
    with its last row a multiple of its first, so of rank below n."""
    out = [Matrix.zero(field, n, n)]
    for _ in range(count):
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        out.append(Matrix.make(field, rows))
        if n > 1:
            c = rng.randrange(field.q)
            rows[-1] = [field.mul(c, x) for x in rows[0]]
            out.append(Matrix.make(field, rows))
    return out


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["q2", "q3", "q4"])
def test_line_restrict_is_a_one_row_elimination(field):
    # a line's image and chart, without elimination, are those of the one-row
    # reference elimination, for regular and singular A alike
    rng = random.Random(7)
    zero_images = 0
    for n in range(1, 4):
        lines = [w.basis for w in enumerate_subspaces(field, n, 1)]
        for a in drawn_matrices(field, n, 40, rng):
            for rows in lines:
                v = ref_matvec(field, a.entries, rows[0])
                red, pivots = ref_rref(field, (v,))
                image, build = a.restrict(rows)
                assert image == red[:len(pivots)]
                assert build().entries == tuple((v[p],) for p in pivots)
                zero_images += not pivots
    assert zero_images


def test_subspace_canonical_equality():
    a = span_of(F2, 2, [(1, 1)])
    b = span_of(F2, 2, [(1, 1), (0, 0)])
    assert a == b and hash(a) == hash(b)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_matrices(F2, 3, budget=100))


# -- the packed-row kernel against a table-loop reference ----------------------
#
# The reference below computes with the field's checked element operations in
# plain loops, as Matrix did before characteristic 2 packed its rows.

F8 = field_make(2, 3)


def ref_add(F, a, b):
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_mul(F, a, b):
    out = []
    for row in a:
        new = []
        for col in zip(*b):
            s = 0
            for x, y in zip(row, col):
                s = F.add(s, F.mul(x, y))
            new.append(s)
        out.append(tuple(new))
    return tuple(out)


def ref_matvec(F, a, v):
    out = []
    for row in a:
        s = 0
        for x, y in zip(row, v):
            s = F.add(s, F.mul(x, y))
        out.append(s)
    return tuple(out)


def ref_rref(F, a):
    rows = [list(r) for r in a]
    ncols = len(a[0]) if a else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows)), pivots


def ref_inverse(F, a):
    n = len(a)
    aug = tuple(row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(a))
    red, pivots = ref_rref(F, aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(row[n:] for row in red)


def ref_pow(F, a, e):
    n = len(a)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(e):
        out = ref_mul(F, out, a)
    return out


def check_unary(F, a):
    m = Matrix.make(F, a)
    red, pivots = m.rref()
    assert (red.entries, pivots) == ref_rref(F, a)
    assert m.rank() == len(pivots)
    if len(a) == len(a[0]):
        inv = ref_inverse(F, a)
        if inv is None:
            with pytest.raises(ValueError):
                m.inverse()
        else:
            assert m.inverse().entries == inv
        for e in range(4):
            assert (m**e).entries == ref_pow(F, a, e)


def check_binary(F, a, b, c):
    """a * b and a + c."""
    ma, mb, mc = Matrix.make(F, a), Matrix.make(F, b), Matrix.make(F, c)
    s, p = ma + mc, ma * mb
    assert s.entries == ref_add(F, a, c) and p.entries == ref_mul(F, a, b)
    # a computed result equals, and hashes as, the same matrix made from entries
    assert p == Matrix.make(F, p.entries) and hash(p) == hash(Matrix.make(F, p.entries))
    assert (s == ma) == (s.entries == a)


def check_kernel(F, a):
    """kernel_vectors are independent vectors that a sends to 0, ncols - rank
    of them."""
    basis = Matrix.make(F, a).kernel_vectors()
    assert all(ref_matvec(F, a, v) == (0,) * len(a) for v in basis)
    assert not basis or len(ref_rref(F, basis)[1]) == len(basis)
    assert len(basis) == len(a[0]) - len(ref_rref(F, a)[1])


def all_matrices(F, rows, cols):
    return [tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))
            for flat in product(range(F.q), repeat=rows * cols)]


KERNEL_FIELDS = [F2, F3, F4, F8]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["q2", "q3", "q4", "q8"])
def test_kernel_matches_table_loops_exhaustively_at_n_le_2(field):
    for n in (1, 2):
        mats = all_matrices(field, n, n)
        vecs = list(product(range(field.q), repeat=n))
        for i, a in enumerate(mats):
            check_unary(field, a)
            # every a against a spread of b, and every b once as the right factor
            b = mats[(i * 7919 + 1) % len(mats)]
            check_binary(field, a, b, b)
            check_kernel(field, a)
            m = Matrix.make(field, a)
            some = vecs if len(mats) * len(vecs) <= 2**13 else vecs[i % 16::16]
            assert [m.matvec(v) for v in some] == [ref_matvec(field, a, v) for v in some]
        if len(mats) ** 2 <= 2**13:
            for a in mats:
                for b in mats:
                    check_binary(field, a, b, b)


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    top = 4 if field is F2 else 3
    rows, inner, cols = (draw(st.integers(1, top)) for _ in range(3))
    entry = st.integers(0, field.q - 1)

    def matrix(r, c):
        return tuple(tuple(draw(st.lists(entry, min_size=c, max_size=c))) for _ in range(r))

    return (field, matrix(rows, inner), matrix(rows, inner), matrix(inner, cols),
            matrix(inner, inner))


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_table_loops_on_drawn_matrices(case):
    field, a, c, b, square = case
    check_binary(field, a, b, c)
    check_unary(field, a)
    check_unary(field, square)
    check_binary(field, square, square, square)
    m = Matrix.make(field, a)
    v = b[0] if len(b[0]) == len(a[0]) else tuple(r[0] for r in b)
    assert m.matvec(v) == ref_matvec(field, a, v)
    check_kernel(field, a)
