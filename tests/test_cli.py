import argparse
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


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this qspecies."""
    src = str(Path(qspecies.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "qspecies", "gen", "Elem", "--order", "2"],
                         env=_src_env(), capture_output=True, text=True)
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


# The whole surface of the parser, pinned by the sha256 of (exit code, stdout,
# stderr): the help of the top level and of every command, and its usage errors.
# "verify --order 2" and "selftest --q 3" are errors of the top-level parser,
# whose usage line lists every command.
SURFACE = [
    (["--help"],
     "072e5b86cf5c37e6e54e70fb8a6969e9fa364f8ec0272878245f3f7638392fad"),
    ([],
     "b9bbd92900f7f57e4b9c287ba34302a1434771cc2c17544972297ab78db0b4db"),
    (["nosuch"],
     "3facf94cfe0d39ecafa88a91aa7b9b5cd421ab7dbe918e76ec55343e43ab337f"),
    (["--q", "3", "gen", "Elem"],
     "cafd3c1641bfb7aec85498dcf31050c9161231dee9389d8dc592bbebb0a6d598"),
    (["gen", "--help"],
     "d92fd99471b1a297b1e8aa7f64f35c38430e8dddc4a6b5be1863a602fb0f881c"),
    (["type", "--help"],
     "2457bec0e274ffa2dc0d77fc66f904c2a3721802ec5980474f57f4cac745d1e8"),
    (["wgen", "--help"],
     "821f0b7d560a6892a110f8fedf956c149d8449098e035d41250dd16a4b18db57"),
    (["zindex", "--help"],
     "74344db6c2a45e9674c3020e2839bfa5f05721361d44a2c7d9178f250ef55d52"),
    (["classes", "--help"],
     "a2ee74fcbd707a6b81718c2cdefbb99a16f7cb1a6403408051cc32c4868df2fc"),
    (["irreducibles", "--help"],
     "a97e4e95e42511792c4caaed98f18a2f3abd48e94daa470928fd12b9a88e8971"),
    (["oracle", "--help"],
     "5f9bf2bff6d425f1f2d0c5d07938f7152b29d05c749c53086842c0be7c6c40e7"),
    (["verify", "--help"],
     "3c31d790ba6138071ed7ea2721165b20ff1697d03ecae5a2bd2fd5914f6f1390"),
    (["selftest", "--help"],
     "5db8d53bd06a6404ec0e5822f4a3fb285765bd7ad53c987be0a924503baab120"),
    (["zindex"],
     "efdcc8df5a4ab1b40064b67e4df08e36893c39296f0b4fc1cf281b3a54ebc785"),
    (["gen", "Elem", "extra"],
     "968477042f36a42177fae8d90665167a726a2753d3a555dee59f19849d804289"),
    (["classes", "2", "--kind", "foo"],
     "a2a9042ed9131129ca43dc8c27f5756ae2abc57d480e24b5c4412cb788ff5334"),
    (["gen", "Elem", "--order", "-1"],
     "5e5f804df637a0cfa9e41ed56a87a1e908ff3fbf5f8e3011c3cd0a09837e4195"),
    (["verify", "--order", "2"],
     "05c2a3a11e5443c89aa369f21b42c5c83fc8b5756b8b2a404198c5e4000b806c"),
    (["selftest", "--q", "3"],
     "b7ffeb67554f7259518f7adbce888985166a2d748b860ba63fb8137f3ed9f974"),
]


def _outcome(capsys, argv) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, digest", SURFACE,
                         ids=[" ".join(a) or "(none)" for a, _d in SURFACE])
def test_cli_surface_is_pinned(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    blob = json.dumps(list(_outcome(capsys, argv)))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


BUILT = [(["gen", "Elem", "--order", "1"], 1), (["--help"], 9), (["nosuch"], 9),
         (["verify", "--order", "2"], 1)]


@pytest.mark.parametrize("argv, built", BUILT, ids=[" ".join(a) for a, _n in BUILT])
def test_a_call_builds_only_the_subparser_it_runs(monkeypatch, capsys, argv, built):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    _outcome(capsys, argv)
    assert len(added) == built


def test_importing_the_cli_builds_no_parser():
    """The parser is built inside each call, so that a timed call pays for it:
    the import builds none and leaves argparse's locale import to the call."""
    script = ("import argparse, sys\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "argparse.ArgumentParser.__init__ = "
              "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
              "import qspecies.cli\n"
              "print(len(built), 'locale' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]


SYS_ARGV = [["gen", "Elem", "--order", "2"], ["verify", "--order", "2"], ["--help"], []]


@pytest.mark.parametrize("argv", SYS_ARGV, ids=[" ".join(a) or "(none)" for a in SYS_ARGV])
def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    given = _outcome(capsys, list(argv))
    monkeypatch.setattr(sys, "argv", ["qspecies", *argv])
    assert _outcome(capsys, None) == given
