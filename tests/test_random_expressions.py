"""Seeded random expressions: each series against the literal oracle.

The fixed corpus of the other tests reaches only the rules its expressions
exercise.  Here ``random.Random(SEED)`` draws expressions of depth <= 3 over
every builtin, RepCyclic(0..3) and Sub(0..3) included, with +, *, ^k
(k = 1, 2), plus, E and sym(m) (m = 1, 2, 3).  Each one is checked at F_2
(n <= 3) and at F_3 and F_4 (n <= 2): ``gen`` against ``structure_count_bf``,
``type`` against ``orbit_count_bf``, and ``cycle_index`` against
``zindex_bf`` at n <= 2 (n <= 1 over F_4).  The draws are the same on every
run, and ``test_the_draws_reach_every_builtin_and_node`` checks that every
leaf and every node kind reaches the checked series.  F^0 and sym(0, F) are
One, which would hide their operands; the fixed corpus covers them.
"""

import random

import pytest

from qspecies import oracle, species
from qspecies.field import field_make
from qspecies.linalg import gl_order
from qspecies.parser import render
from qspecies.species import (Assembly, Builtin, Plus, Power, Product, Sum, cycle_index,
                              gen_series, type_series)

SEED = 2017
COUNT = 30
# the oracle enumerates every structure, and transports each one under each
# element of GL_n: an expression with more structures at the largest checked
# dimension is drawn again, so that the test stays within seconds
MAX_STRUCTURES = 300

# (field, largest n for gen and type, largest n for the cycle index)
SIZES = [(field_make(2, 1), 3, 2), (field_make(3, 1), 2, 2), (field_make(2, 2), 2, 1)]
LEAVES = ([Builtin(name) for name, spec in species.BUILTINS.items() if not spec.needs_arg]
          + [Builtin("Sub", k) for k in range(4)] + [Builtin("RepCyclic", m) for m in range(4)])


def draw(rng: random.Random, depth: int, top: bool = False):
    if depth == 0 or (not top and rng.random() < 0.3):
        return rng.choice(LEAVES)
    op = rng.choice(["+", "*", "^", "plus", "E", "sym"])
    if op in ("+", "*"):
        return (Sum if op == "+" else Product)(draw(rng, depth - 1), draw(rng, depth - 1))
    base = draw(rng, depth - 1)
    if op == "^":
        return Power(base, rng.randint(1, 2))
    if op == "plus":
        return Plus(base)
    if not species.empty_at_zero(base):  # E and sym need F[0] = empty
        base = Plus(base)
    return Assembly(base, None if op == "E" else rng.randint(1, 3))


def small(e) -> bool:
    return all(gen_series(e, field, top).coeffs[top] * gl_order(field, top) <= MAX_STRUCTURES
               for field, top, _ in SIZES)


def expressions() -> list:
    rng = random.Random(SEED)
    out = {}
    while len(out) < COUNT:
        e = draw(rng, 3, top=True)
        if small(e):
            out.setdefault(render(e), e)
    return list(out.values())


EXPRESSIONS = expressions()


def _empty(e) -> bool:
    return not any(any(gen_series(e, field, top).coeffs) for field, top, _ in SIZES)


def _live(e) -> set:
    """The builtins and node kinds in e that its checked series depend on: a
    product with a side that has no structures at the checked sizes has none."""
    if isinstance(e, Builtin):
        return {render(e)}
    if isinstance(e, Product) and (_empty(e.left) or _empty(e.right)):
        return set()
    own = ("E" if e.n is None else "sym") if isinstance(e, Assembly) else type(e).__name__
    return {own}.union(*(_live(child) for child in species._children(e)))


def test_the_draws_reach_every_builtin_and_node():
    reached = set().union(*map(_live, EXPRESSIONS))
    assert {render(leaf) for leaf in LEAVES} <= reached
    assert {"Sum", "Product", "Power", "Plus", "E", "sym"} <= reached


@pytest.mark.parametrize("e", EXPRESSIONS, ids=render)
def test_random_expression_matches_the_oracle(e):
    for field, top, ztop in SIZES:
        gen, types = gen_series(e, field, top), type_series(e, field, top)
        for n in range(top + 1):
            assert gen.coeffs[n] * gl_order(field, n) == oracle.structure_count_bf(e, field, n), \
                (field.q, n)
            assert types.coeffs[n] == oracle.orbit_count_bf(e, field, n), (field.q, n)
        assert cycle_index(e, field, ztop) == oracle.zindex_bf(e, field, ztop), field.q
