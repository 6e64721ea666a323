"""Generating and type series over integer counts (``series.CountSeries``).

``gen`` and ``wgen`` fold over the counts f_n and divide by gamma_n once;
``type`` folds over the orbit counts with the ordinary product.  These tests
check the convolution weights c(n, k), compare each fold with the rational
fold it replaced on the seeded random expressions, check that no rational
product is left on their path and that no division truncates, and pin the
stdout of frontier queries by sha256.
"""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import qspecies
from qspecies import linalg, series, species
from qspecies.classes import part_centralizer_order, partitions
from qspecies.cli import main
from qspecies.field import ConsistencyError, field_make, power
from qspecies.linalg import gaussian_binomial, gl_order, gl_orders
from qspecies.parser import parse, render
from qspecies.series import RATIONAL, PowerSeries, eulerian_binomials
from qspecies.species import (Assembly, Builtin, Mark, Plus, Power, Product, Sum, gen_series,
                              type_series, weighted_gen_series)
from qspecies.verify import CORPUS, EULER_BASES, SPECIALIZED

from test_random_expressions import EXPRESSIONS

FIELDS = [field_make(2, 1), field_make(3, 1), field_make(2, 2)]
ORDER = 12


@pytest.mark.parametrize("field", [field_make(2, 1), field_make(3, 1), field_make(2, 2),
                                   field_make(5, 1), field_make(2, 3)],
                         ids=lambda field: f"q{field.q}")
def test_eulerian_binomials_are_the_split_counts(field):
    q = field.q
    rows = eulerian_binomials(q, 15)
    assert [len(row) for row in rows] == list(range(1, 17))
    for n, row in enumerate(rows):
        for k, c in enumerate(row):
            assert c * gl_order(field, k) * gl_order(field, n - k) == gl_order(field, n), (n, k)
            assert c == q ** (k * (n - k)) * gaussian_binomial(q, n, k), (n, k)


def test_eulerian_binomials_extend_one_table_per_q():
    for q in (2, 3):
        low = eulerian_binomials(q, 10)
        high = eulerian_binomials(q, 30)
        assert len(low) == 11 and len(high) == 31
        assert all(low[n] is high[n] for n in range(11))
        assert eulerian_binomials(q, 10) == low


@pytest.mark.parametrize("command, e", [(gen_series, "Aut"), (weighted_gen_series, "Bases")])
def test_gamma_is_built_in_one_pass(monkeypatch, command, e):
    """``gl_order`` builds gamma_0..gamma_n on every call, so the counts of Aut
    and Bases read one ``gl_orders`` pass, as the division by gamma_n does."""
    orders = []

    def spy(field, order):
        orders.append(order)
        return gl_orders(field, order)

    # gl_order calls the one in linalg; species imported its own name
    monkeypatch.setattr(linalg, "gl_orders", spy)
    monkeypatch.setattr(species, "gl_orders", spy)
    command(parse(e), FIELDS[0], 60)
    assert orders and len(orders) <= 2 and set(orders) == {60}


def rational(order, coeffs):
    coeffs = list(coeffs)
    return PowerSeries(RATIONAL, order, coeffs + [Fraction(0)] * (order + 1 - len(coeffs)))


def rational_fold(e, leaf):
    """``species._fold`` over rational PowerSeries, with their products."""
    if isinstance(e, (Sum, Product)):
        left, right = rational_fold(e.left, leaf), rational_fold(e.right, leaf)
        return left + right if isinstance(e, Sum) else left * right
    if isinstance(e, Power):
        f = rational_fold(e.base, leaf)
        return power(f, e.n, rational(f.order, [1]))
    if isinstance(e, Plus):
        f = rational_fold(e.base, leaf)
        return PowerSeries(RATIONAL, f.order, (Fraction(0),) + f.coeffs[1:])
    return leaf(e)


def rational_rep_cyclic(field, order, m):
    """sum_n #{g in GL_n : g^m = 1} x^n / gamma_n, that is sum_c [c^m = 1] / |C(c)|
    over classes: the product over the phi dividing z^m - 1 of
    sum_(lam_1 <= v_phi) y^|lam| / c_Q(lam), with y = x^deg phi and
    Q = q^deg phi; 1 in every dimension for m = 0."""
    if m == 0:
        return rational(order, [1] * (order + 1))
    out = rational(order, [1])
    for phi, v in species._cyclotomic(field, m):
        d, Q = phi.degree, field.q**phi.degree
        factor = [sum((Fraction(1, part_centralizer_order(Q, lam)) for lam in partitions(k, v)),
                      Fraction(0)) for k in range(order // d + 1)]
        out = rational(order, factor).adams(d) * out
    return out


def rational_gen(e, field, order):
    """The rational fold that the count fold replaced: f_n / gamma_n as
    Fractions, with PowerSeries products, powers and exp."""
    def leaf(x):
        if isinstance(x, Builtin):
            if x.name == "RepCyclic":
                return rational_rep_cyclic(field, order, x.arg)
            count = species.BUILTINS[x.name].count
            return PowerSeries(RATIONAL, order, [Fraction(count(field, n, x.arg),
                                                          gl_order(field, n))
                                                 for n in range(order + 1)])
        f = rational_fold(x.base, leaf)
        if x.n is None:
            return f.exp()
        return power(f, x.n, rational(order, [1])).scale(Fraction(1, factorial(x.n)))

    return rational_fold(e, leaf)


def rational_type(e, field, order):
    """The rational fold that the count fold replaced: PowerSeries products,
    E(F) = exp(sum_r Psi_r(F)/r) and Newton's h_m = (1/m) sum_r Psi_r(F) h_(m-r),
    over the builtins' type series."""
    def leaf(x):
        if isinstance(x, Builtin):
            return type_series(x, field, order)
        f = rational_fold(x.base, leaf)
        if x.n is None:
            total = rational(order, [])
            for r in range(1, order + 1):
                total = total + f.adams(r).scale(Fraction(1, r))
            return total.exp()
        h = [rational(order, [1])]
        for m in range(1, x.n + 1):
            total = rational(order, [])
            for r in range(1, m + 1):
                total = total + f.adams(r) * h[m - r]
            h.append(total.scale(Fraction(1, m)))
        return h[x.n]

    return rational_fold(e, leaf)


def marked(e):
    """e with mark(...) around every builtin."""
    if isinstance(e, Builtin):
        return Mark(e)
    if isinstance(e, (Sum, Product)):
        return type(e)(marked(e.left), marked(e.right))
    if isinstance(e, Power):
        return Power(marked(e.base), e.n)
    if isinstance(e, Assembly):
        return Assembly(marked(e.base), e.n)
    return Plus(marked(e.base))


@pytest.mark.parametrize("e", EXPRESSIONS, ids=render)
def test_gen_matches_the_rational_fold(e):
    for field in FIELDS:
        assert gen_series(e, field, ORDER) == rational_gen(e, field, ORDER), field.q


@pytest.mark.parametrize("e", EXPRESSIONS, ids=render)  # none is marked
def test_type_matches_the_rational_fold(e):
    for field in FIELDS:
        assert type_series(e, field, ORDER) == rational_type(e, field, ORDER), field.q


def test_gen_and_type_take_no_rational_product(monkeypatch):
    # the verify corpus, with the rational kernels refused: gen and type fold
    # over integer counts alone
    def refuse(*args, **kwargs):
        raise AssertionError("a rational series product")
    monkeypatch.setattr(series, "_dot", refuse)
    monkeypatch.setattr(PowerSeries, "__mul__", refuse)
    monkeypatch.setattr(PowerSeries, "exp", refuse)
    texts = CORPUS + SPECIALIZED + [f"E({base})" for base in EULER_BASES] + [
        "sym(3,Proj)", "RepCyclic(2)", "E(plus(RepCyclic(3)))*Sub(2)"]
    for field in FIELDS:
        for text in texts:
            gen_series(parse(text), field, 30)
            type_series(parse(text), field, 30)


@pytest.mark.parametrize("e", EXPRESSIONS, ids=render)
def test_wgen_at_t_1_is_gen(e):
    for field in FIELDS:
        gen = gen_series(e, field, ORDER)
        assert weighted_gen_series(e, field, ORDER).subs_t(1) == gen, field.q
        assert weighted_gen_series(marked(e), field, ORDER).subs_t(1) == gen, field.q


def _off_by_one(table):
    """``eulerian_binomials`` with c(2, 1) one too large: 7 over F_2, so that
    2 b_2 of E(Vplus) and the count of Vplus^2 at n = 2 are odd."""
    def wrong(q, order):
        rows = [list(row) for row in table(q, order)]
        if order >= 2:
            rows[2][1] += 1
        return rows
    return wrong


@pytest.mark.parametrize("expr, what", [("E(Vplus)", "exp at n=2"),
                                        ("sym(2,Vplus)", "sym(2, F)"),
                                        ("E(mark(Vplus))", "exp at n=2")])
def test_a_count_that_does_not_divide_is_a_failed_check(monkeypatch, capsys, expr, what):
    monkeypatch.setattr(series, "eulerian_binomials", _off_by_one(eulerian_binomials))
    command = "wgen" if "mark" in expr else "gen"
    with pytest.raises(ConsistencyError, match="not divisible by 2"):
        (weighted_gen_series if command == "wgen" else gen_series)(
            parse(expr), FIELDS[0], 3)
    assert main([command, expr, "--order", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"{what}: a count is not divisible by 2" in err


def test_the_exact_division_check_survives_python_O():
    script = (
        "import sys\n"
        "from qspecies import series\n"
        "from qspecies.cli import main\n"
        "table = series.eulerian_binomials\n"
        "def wrong(q, order):\n"
        "    rows = [list(row) for row in table(q, order)]\n"
        "    rows[2][1] += 1\n"
        "    return rows\n"
        "series.eulerian_binomials = wrong\n"
        "print(main(['gen', 'E(Vplus)', '--order', '3']), sys.flags.optimize)\n"
        "print(main(['gen', 'sym(2,Vplus)', '--order', '3']))\n"
    )
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "1", "1"]
    assert "exp at n=2: a count is not divisible by 2" in out.stderr
    assert "sym(2, F): a count is not divisible by 2" in out.stderr


# sha256 of stdout, as printed before generating and type series were folded
# over counts
FRONTIER = [
    ('gen "E(Vplus)" --order 200',
     "32b860bf1f9c49c8f45024754be48dc51f183f63516ca5e306f5258d0be9bdb9"),
    ('wgen "E(mark(Vplus))" --order 60',
     "3d1dba0bd533e2a1145700b476046485095bbad1aa589b674e685c9fe585b2af"),
    ('gen "sym(3,Proj)*E(Vplus)" --order 40 --q 3',
     "2b3d311c529c048c5c0b60748342ea2b5c87fa367d812f7dab56ea0f4c5dfffc"),
    ('gen "RepCyclic(2)+E(Elem*Vplus)" --order 30 --q 2 --ext-k 2',
     "c12c3eaa83bf311504a7701034e2197a6a45818350e9f28e9cf971af7d7939b7"),
    ('wgen "sym(2,mark(Proj))*E(mark(Vplus)+Vplus)" --order 25 --q 3',
     "35ae12108e96580fb3be7a55988a17a07afef4e763df1a9319e2898fc2e4426f"),
    ('type "E(Vplus)" --order 300',
     "85ef6bf4d6d245a7b1012eb995d85f86747af3a88223bf9adb872fae3488bb32"),
    ('type "sym(45,Vplus)" --order 50',
     "f4006ea3fe885265075301421ddddc1b29f4d78c2fd52867d6239b72e6a9e1fe"),
    ('type "sym(3,Sub(2))*E(Proj)" --order 40 --q 3',
     "0577852262cd9e8c25798a057a4688e2cc57a6f5c5e0f613bdfbf1cc27831dda"),
    ('type "E(plus(RepCyclic(2)))" --order 40 --q 5',
     "eaf599625b321871ad6a3d0bd86472dc531c5952afd0110ada210599278efc6c"),
    ('type Aut --order 40 --q 2 --ext-k 2',
     "417ace1bc195bb02f344a7df91d51ca868f216d7e7cb3f9947678d0e27f4d561"),
    ('gen "RepCyclic(12)" --order 20',
     "94bd66f6da345c0e79d5cd48d5cc0a2a87f2b273a3be276c62741087ac46350b"),
    ('gen "RepCyclic(8)" --order 12 --q 3',
     "7b9a0a0c10d0eb1a9507403036678b2e480969b94d5acb204ac798da9abf719e"),
]


@pytest.mark.parametrize("command, digest", FRONTIER, ids=[c for c, _ in FRONTIER])
def test_frontier_output_is_pinned(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
