from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from qspecies.classes import (centralizer_order, enumerate_classes,
                              part_centralizer_order, partitions)
from qspecies.field import field_make
from qspecies.linalg import enumerate_matrices, gl_order, invariant_data

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)


def brute_class_table(field, n, invertible_only):
    """Independent oracle: bucket matrices by rational canonical invariants."""
    table = defaultdict(int)
    for a in enumerate_matrices(field, n, invertible_only=invertible_only):
        table[invariant_data(a)] += 1
    return dict(table)


@pytest.mark.parametrize("field,n", [(F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2)])
def test_aut_classes_match_brute_force(field, n):
    brute = brute_class_table(field, n, True)
    classes = enumerate_classes(field, n, "aut")
    assert {c.invariant for c in classes} == set(brute)
    for c in classes:
        assert c.class_size == brute[c.invariant]
        assert c.class_size * c.centralizer_order == gl_order(field, n)


@pytest.mark.parametrize("field,n", [(F2, 1), (F2, 2), (F2, 3), (F3, 2)])
def test_end_classes_match_brute_force(field, n):
    brute = brute_class_table(field, n, False)
    classes = enumerate_classes(field, n, "end")
    assert {c.invariant for c in classes} == set(brute)
    for c in classes:
        assert c.class_size == brute[c.invariant]


def test_class_sizes_sum_to_group_order():
    for field in (F2, F3, F4):
        for n in range(7):
            assert (sum(c.class_size for c in enumerate_classes(field, n, "aut"))
                    == gl_order(field, n))
    for n in range(5):
        assert sum(c.class_size for c in enumerate_classes(F2, n, "end")) == 2 ** (n * n)
    assert sum(c.class_size for c in enumerate_classes(F3, 3, "end")) == 3 ** 9


def test_class_counts():
    # Conjugacy class counts of GL_n(F_2): 1, 1, 3, 6, 14
    assert [len(enumerate_classes(F2, n, "aut")) for n in range(5)] == [1, 1, 3, 6, 14]
    # and of GL_n(F_3): 1, 2, 8, 24
    assert [len(enumerate_classes(F3, n, "aut")) for n in range(4)] == [1, 2, 8, 24]


def test_centralizer_matches_brute_force():
    for field, n in ((F2, 2), (F2, 3), (F3, 2)):
        units = list(enumerate_matrices(field, n, True))
        for c in enumerate_classes(field, n, "aut"):
            a = c.representative(field)
            brute = sum(1 for g in units if g * a == a * g)
            assert centralizer_order(field, c.invariant) == brute
            assert c.centralizer_order == brute


def test_representative_has_right_invariant():
    for c in enumerate_classes(F2, 4, "aut"):
        assert invariant_data(c.representative(F2)) == c.invariant
        assert c.invariant.degree == invariant_data(c.representative(F2)).degree == 4
    for c in enumerate_classes(F3, 3, "end"):
        assert invariant_data(c.representative(F3)) == c.invariant
        assert c.invariant.degree == invariant_data(c.representative(F3)).degree == 3


def test_class_weighted_sum_identity():
    # Summing 1 over each matrix weighted by class size recovers |End| and |Aut|.
    assert sum(c.class_size for c in enumerate_classes(F2, 3, "end")) == 2 ** 9
    assert sum(c.class_size for c in enumerate_classes(F2, 3, "aut")) == gl_order(F2, 3)


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_classes(F2, 2, "units")


def fraction_centralizer_order(field, inv):
    """Reference: prod over phi of Q^(|l| + 2n(l)) prod_i prod_{k<=m_i} (1 - Q^-k)."""
    total = Fraction(1)
    for phi, parts in inv.partitions:
        Q = field.q ** phi.degree
        nl = sum(j * part for j, part in enumerate(parts))
        total *= Fraction(Q) ** (sum(parts) + 2 * nl)
        for m in Counter(parts).values():
            for k in range(1, m + 1):
                total *= 1 - Fraction(1, Q**k)
    return total


@pytest.mark.parametrize("field,top", [(F2, 8), (F3, 5), (F4, 4)])
@pytest.mark.parametrize("kind", ["aut", "end"])
def test_centralizer_order_matches_fraction_formula(field, top, kind):
    for n in range(top + 1):
        for c in enumerate_classes(field, n, kind):
            assert centralizer_order(field, c.invariant) == fraction_centralizer_order(
                field, c.invariant)


def test_centralizer_order_is_the_product_of_part_orders():
    for n in range(6):
        for c in enumerate_classes(F3, n, "end"):
            product = 1
            for phi, parts in c.invariant.partitions:
                product *= part_centralizer_order(3 ** phi.degree, parts)
            assert product == c.centralizer_order
    # one part of type 1^k is GL_k(F_Q), of type (k) the units of F_Q[t]/(t^k)
    assert part_centralizer_order(4, (1, 1, 1)) == gl_order(F4, 3)
    assert part_centralizer_order(3, (4,)) == 3**3 * 2


def test_class_sizes_sum_to_gl12_order():
    assert sum(c.class_size for c in enumerate_classes(F2, 12, "aut")) == gl_order(F2, 12)


def test_bounded_partitions_are_the_filtered_ones():
    for k in range(21):
        for largest in range(k + 2):
            assert partitions(k, largest) == tuple(
                lam for lam in partitions(k) if all(part <= largest for part in lam)), (k, largest)
