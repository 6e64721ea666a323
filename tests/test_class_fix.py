"""Builtin fixed points from per-part factors (``species.class_fix``).

Each builtin's fix(sigma) is a product over sigma's primary parts (phi, lam),
read from memoised factors.  These tests compare it, class by class, with the
per-class formulas it replaced, at sizes beyond the oracle's reach; check the
order fact the eigenvalue-1 lookup rests on; and pin the stdout of cycle
indices of every builtin with such a fix by sha256.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from qspecies import species
from qspecies.classes import centralizer_order, enumerate_classes
from qspecies.cli import main
from qspecies.field import field_make
from qspecies.poly import monic_irreducibles, poly_z_minus
from qspecies.species import Builtin, class_fix

SIZES = [(field_make(2, 1), 9), (field_make(3, 1), 5), (field_make(2, 2), 4)]
BUILTINS = [("Elem", None), ("Proj", None), ("Sub", 2), ("End", None), ("Aut", None),
            ("Bases", None)]


def per_class_fix(name, arg, field, c):
    """fix F[sigma] by the per-class formulas: the eigenvalue-1 partition looked
    up in a dict of the class's parts, the submodule counts convolved with no
    part skipped, and the commutant dimension and centralizer order summed and
    multiplied afresh over the parts."""
    parts = c.invariant.partitions
    eigenvalue_1 = dict(parts).get(poly_z_minus(field, 1), ())
    if name == "Elem":
        return field.q ** len(eigenvalue_1)
    if name in ("Proj", "Sub"):
        k = arg or 1
        out = [1] + [0] * k
        for phi, lam in parts:
            count = species._submodule_counts(lam, field.q**phi.degree, phi.degree, k)
            out = [sum(out[i] * count[j - i] for i in range(j + 1)) for j in range(k + 1)]
        return out[k]
    if name == "End":
        return field.q ** sum(phi.degree * sum(min(a, b) for a in lam for b in lam)
                              for phi, lam in parts)
    if name == "Aut":
        return centralizer_order(field, c.invariant)
    return c.centralizer_order if eigenvalue_1 == (1,) * c.n else 0


@pytest.mark.parametrize("field, top", SIZES, ids=[f"q{field.q}" for field, _ in SIZES])
@pytest.mark.parametrize("name, arg", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_per_part_fix_matches_the_per_class_formula(field, top, name, arg):
    e = Builtin(name, arg)
    for n in range(top + 1):
        for c in enumerate_classes(field, n, "aut"):
            assert class_fix(e, field, c) == per_class_fix(name, arg, field, c), \
                (n, str(c.invariant))


@pytest.mark.parametrize("field", [field_make(2, 1), field_make(3, 1), field_make(2, 2),
                                   field_make(5, 1)], ids=lambda field: f"q{field.q}")
def test_z_minus_1_has_the_least_sort_key(field):
    """So z - 1 is the first part of every class that has it."""
    z_minus_1 = poly_z_minus(field, 1)
    others = [phi for d in range(1, 5) for phi in monic_irreducibles(field, d) if phi != z_minus_1]
    assert len(others) == sum(len(monic_irreducibles(field, d)) for d in range(1, 5)) - 1
    assert all(z_minus_1.sort_key < phi.sort_key for phi in others)


# sha256 of stdout, as printed before the fixed points were read per part
PINNED = [
    ("zindex Aut --order 12",
     "aaf66cb32adb35a41483657e79c16934e92561cf549e7e2a56a36702389ec453"),
    ("zindex End --order 10",
     "de80fb458b1586ca18344abf10a538b33625a6458b1929ed1b747785efce51d1"),
    ('zindex "Elem*Proj" --order 10',
     "d28b4356443ae1305dee6da9c07896ecfbca706183e76c45fb85ec43e375afaa"),
    ('zindex "Bases*Sub(2)" --order 6 --q 3',
     "3be1ce95c9efe56f6e8edf7526b3431238a4d26a09564d46dad7a75cdce04e30"),
    ("zindex Elem --order 5 --q 2 --ext-k 2",
     "f232374e1b649515151f162891748f747c2d23ff5b14e6e2969cc822b70b1766"),
]


@pytest.mark.parametrize("command, digest", PINNED, ids=[c for c, _ in PINNED])
def test_cycle_index_output_is_pinned(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
