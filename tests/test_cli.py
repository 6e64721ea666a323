import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import qspecies
from qspecies import oracle, species
from qspecies.cli import main

F4_IRREDUCIBLE_COUNT = 6  # monic irreducible quadratics over F_4


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_text(capsys):
    code, out = run(capsys, "gen", "Elem", "--order", "2")
    assert code == 0
    assert "2/3" in out  # coefficient f_2/gamma_2 = 4/6


def test_gen_json_schema(capsys):
    code, out = run(capsys, "gen", "E(Vplus)", "--q", "2", "--order", "3",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 2 and doc["order"] == 3
    assert [t["n"] for t in doc["series"]] == [0, 1, 2, 3]
    assert [t["coeff"] for t in doc["series"]] == ["1", "1", "2/3", "19/56"]


def test_gen_csv(capsys):
    code, out = run(capsys, "gen", "Vplus", "--order", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coeff"
    assert lines[1] == "0,0"
    assert lines[2] == "1,1"


def test_type_series_values(capsys):
    code, out = run(capsys, "type", "Aut", "--order", "3", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows == ["0,1", "1,1", "2,3", "3,6"]
    code, out = run(capsys, "type", "E(Vplus)", "--order", "5", "--format", "csv")
    assert [r.split(",")[1] for r in out.strip().splitlines()[1:]] == \
        ["1", "1", "2", "3", "5", "7"]


def test_type_with_q3(capsys):
    code, out = run(capsys, "type", "Aut", "--q", "3", "--order", "2",
                    "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,2", "2,8"]


def test_wgen(capsys):
    code, out = run(capsys, "wgen", "E(mark(Vplus))", "--order", "2",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"][1]["coeff"] == "t"
    assert doc["series"][2]["coeff"] in ("1/2*t^2+1/6*t", "1/6*t+1/2*t^2")


@pytest.mark.parametrize("argv", [
    ["type", "sym(2,mark(Vplus))", "--order", "3"],
    ["zindex", "E(mark(Vplus))", "--order", "2"],
    ["type", "mark(Vplus)"],
])
def test_type_and_zindex_of_weighted_species_not_implemented(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not implemented" in captured.err


def test_zindex_text(capsys):
    code, out = run(capsys, "zindex", "Elem", "--order", "2")
    assert code == 0
    assert "x[z+1,1]" in out and "x[z+1,2]" in out and "2/3" in out


def test_ext_field(capsys):
    code, out = run(capsys, "gen", "Elem", "--q", "2", "--ext-k", "2",
                    "--order", "1", "--format", "csv")
    assert code == 0
    # over F_4 there are 4 elements on a line and gamma_1 = 3
    assert out.strip().splitlines()[1:] == ["0,1", "1,4/3"]


def test_exact_outputs_print_integers_of_any_length(capsys):
    # over F_64 the denominator of x^49 has more than 4300 digits, the default
    # limit of Python's int-to-str conversion
    argv = ["gen", "E(Vplus)", "--order", "49", "--q", "2", "--ext-k", "6"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, text = run(capsys, *argv)
    assert code == 0
    code, doc = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored
    # exp(sum x^n / gamma_n) by the recurrence n a_n = sum k b_k a_(n-k)
    gamma = [1]
    for n in range(1, 50):
        gamma.append(prod(64**n - 64**i for i in range(n)))
    b = [Fraction(0)] + [Fraction(1, g) for g in gamma[1:]]
    a = [Fraction(1)]
    for n in range(1, 50):
        a.append(sum(k * b[k] * a[n - k] for k in range(1, n + 1)) / n)
    assert a[49].denominator >= 10**4300
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = f"{a[49].numerator}/{a[49].denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert text.split(" + ")[-1] == want + "*x^49\n"
    assert json.loads(doc)["series"][49]["coeff"] == want


def test_classes_command(capsys):
    code, out = run(capsys, "classes", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 3
    assert sum(c["class_size"] for c in doc["classes"]) == 6


def test_irreducibles_command(capsys):
    code, out = run(capsys, "irreducibles", "2")
    assert code == 0
    assert "z^2+z+1" in out
    code, out = run(capsys, "irreducibles", "1", "--exclude-z")
    assert "z+1" in out and out.count("\n") == 1


def test_oracle_count(capsys):
    code, out = run(capsys, "oracle", "count", "End", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,2", "2,16"]


def test_oracle_orbits(capsys):
    code, out = run(capsys, "oracle", "orbits", "Elem", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,2", "2,2"]


def test_oracle_fix(capsys):
    code, out = run(capsys, "oracle", "fix", "Elem", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    fixes = sorted(r["fix"] for r in rows)
    assert fixes == [1, 2, 4]  # irreducible, unipotent, identity classes


def test_oracle_fix_enumerates_once(monkeypatch, capsys):
    calls = []
    enumerate_structures = oracle.enumerate_structures

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_structures(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_structures", counted)
    code, out = run(capsys, "oracle", "fix", "E(Vplus)", "3", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6  # the 6 classes of GL_3(F_2)
    assert len(calls) == 1


@pytest.mark.parametrize("argv, counts", [(("Elem*Proj", "3"), [0, 1, 15, 287]),
                                          (("E(Vplus)", "4"), [1, 1, 4, 57, 2921])])
def test_oracle_count_builds_no_weights(monkeypatch, capsys, argv, counts):
    # structures carry their marks, so the oracle's enumeration makes no TPoly
    # (the parser's check of E's operand still may)
    from qspecies.series import TPoly
    enum = oracle._enum

    def refuse(*args, **kwargs):
        raise AssertionError("built a TPoly")

    def unweighted(*args):
        with monkeypatch.context() as m:
            m.setattr(TPoly, "__init__", refuse)
            m.setattr(TPoly, "_of", refuse)
            m.setattr(oracle, "_enum", enum)
            return enum(*args)

    monkeypatch.setattr(oracle, "_enum", unweighted)
    code, out = run(capsys, "oracle", "count", *argv, "--format", "csv")
    assert code == 0
    assert out.split() == ["n,count"] + [f"{n},{c}" for n, c in enumerate(counts)]


def test_oracle_fix_checks_nothing_it_enumerated(monkeypatch, capsys):
    # every class representative counts over the oracle's own enumeration, which
    # needs no range check; the output is the one of the per-class counts
    checked = []
    check_entries = oracle._check_entries

    def counted(field, s):
        checked.append(s)
        return check_entries(field, s)

    monkeypatch.setattr(oracle, "_check_entries", counted)
    code, out = run(capsys, "oracle", "fix", "E(Vplus)", "3")
    assert code == 0
    assert checked == []
    assert out == ("class={(z+1, 1) -> 1, (z+1, 2) -> 1}  fix=9\n"
                   "class={(z+1, 1) -> 1, (z^2+z+1, 1) -> 1}  fix=3\n"
                   "class={(z+1, 1) -> 3}  fix=57\n"
                   "class={(z+1, 3) -> 1}  fix=1\n"
                   "class={(z^3+z+1, 1) -> 1}  fix=1\n"
                   "class={(z^3+z^2+1, 1) -> 1}  fix=1\n")


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max-dim", "2")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_parse_error_exit_code_2(capsys):
    assert main(["gen", "Elem +"]) == 2
    assert main(["gen", "NoSuchSpecies"]) == 2
    assert main(["gen", "Sub"]) == 2
    assert main(["gen", "Sub()"]) == 2


def test_bad_field_exit_code_2(capsys):
    assert main(["gen", "Elem", "--q", "6"]) == 2


def test_budget_exit_code(capsys):
    code = main(["oracle", "count", "End", "3", "--budget", "10"])
    assert code != 0


@pytest.mark.parametrize("argv", [["irreducibles", "25"],
                                  ["irreducibles", "5", "--q", "2", "--ext-k", "6"]])
def test_irreducible_sieve_is_bounded(monkeypatch, capsys, argv):
    # 2^25 and 64^5 monics are more than DEFAULT_BUDGET: exit 1 before the
    # sieve allocates its table
    import builtins
    from qspecies import poly

    def bounded(size):
        assert size <= poly.DEFAULT_BUDGET, f"allocated a sieve of {size}"
        return builtins.bytearray(size)

    monkeypatch.setattr(poly, "bytearray", bounded, raising=False)
    assert main(argv) == 1
    assert "exceed budget" in capsys.readouterr().err


def test_budget_zero_means_zero(monkeypatch, capsys):
    # RepCyclic(m)'s cycle index is the one production path that still enumerates,
    # the commutants of non-scalar primary parts, under the fixed DEFAULT_BUDGET
    monkeypatch.setattr(species, "DEFAULT_BUDGET", 0)
    assert main(["zindex", "RepCyclic(2)", "--order", "2"]) == 1
    assert main(["oracle", "count", "End", "2", "--budget", "0"]) == 1


ON_E1 = ["Elem", "Proj", "End", "Aut", "Bases", "V", "Vplus", "Sub(0)", "Sub(1)",
         "Fscalar", "Fstar", "RepCyclic(2)"]


@pytest.mark.parametrize("text", ON_E1)
def test_oracle_budget_zero_enumerates_nothing(capsys, text):
    # every builtin with a structure on E_1 has one too many for a budget of 0
    assert main(["oracle", "count", text, "1", "--budget", "0"]) == 1
    assert "budget" in capsys.readouterr().err
    assert main(["oracle", "count", text, "1", "--budget", "1000"]) == 0


def test_over_budget_zindex_fails_before_enumerating(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("enumerated a commutant")
    monkeypatch.setattr(species, "_commutant_roots", refuse)
    assert main(["zindex", "RepCyclic(2)", "--order", "6"]) == 1
    assert "exceeds budget" in capsys.readouterr().err


NEGATIVE_SIZES = [
    ["gen", "Elem", "--order", "-1"],
    ["zindex", "Elem", "--order", "-1"],
    ["oracle", "count", "Elem", "-1"],
    ["classes", "-1"],
    ["verify", "--max-dim", "-1"],
    ["oracle", "count", "Elem", "1", "--budget", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SIZES, ids=[" ".join(a) for a in NEGATIVE_SIZES])
def test_negative_size_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a non-negative integer" in captured.err


IGNORED_OPTIONS = [
    ["selftest", "--q", "3"],
    ["selftest", "--budget", "0"],
    ["verify", "--max-dim", "1", "--budget", "0"],
    ["verify", "--order", "2"],
    ["classes", "2", "--order", "3"],
    ["irreducibles", "2", "--order", "3"],
    ["oracle", "count", "End", "2", "--order", "3"],
    ["gen", "Elem", "--budget", "5"],
    ["zindex", "Elem", "--budget", "5"],
    ["type", "Elem", "--budget", "5"],
    ["wgen", "E(mark(Vplus))", "--budget", "5"],
    ["classes", "2", "--budget", "5"],
    ["irreducibles", "2", "--budget", "5"],
    ["zindex", "Elem", "--format", "csv"],
    ["classes", "2", "--format", "csv"],
    ["irreducibles", "2", "--format", "csv"],
    ["verify", "--format", "csv"],
    ["selftest", "--format", "csv"],
]


@pytest.mark.parametrize("argv", IGNORED_OPTIONS, ids=[" ".join(a) for a in IGNORED_OPTIONS])
def test_option_the_command_ignores_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_oracle_zindex_has_no_csv(capsys):
    assert main(["oracle", "zindex", "Elem", "1", "--format", "csv"]) == 2
    assert capsys.readouterr().out == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "qspecies", "gen", "Elem", "--order", "2"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


# Rows that once summed weights over partitions, pinned by the sha256 of
# their output before their orbit counts had closed forms
PINNED = [
    (["type", "Bases", "--order", "40"],
     "ad1c66b1cfd51788d30b76b2b673dc2dfdcc8ffb5ff7e0b0360c1d6d0f4b2923"),
    (["type", "RepCyclic(2)", "--order", "40"],
     "9541d3612cf223fa86c15e0809b863715de89219e6aba3c87bb3b1d1ffc76ef3"),
    (["gen", "RepCyclic(2)", "--order", "40"],
     "d0769d0274f54c91c23a0c36dc3c1721a5643453dbfafa367589621c3b378f24"),
    (["type", "Elem", "--order", "30", "--q", "3"],
     "eb8d20e582a774f09ea9445ec637944969e7d72f735351ab7f099be722edd9c3"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(a) for a, _d in PINNED])
def test_orbit_count_outputs_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
