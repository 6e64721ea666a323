"""The identity table in ``qspecies.verify``: the verify rows at q=2 and q=3,
every selftest row, its pinned values, and a planted oracle fault that the rows
must report.

Each selftest row test prints one `PASS label` / `FAIL label` line (visible
with `pytest -s` or on failure) and asserts the exact result.
"""

import inspect

import pytest

from qspecies import oracle, verify
from qspecies.cli import main
from qspecies.verify import CORPUS, SELFTEST, run_checks, run_selftest

# one stable test id per selftest row, in row order
ROW_IDS = ["criterion_1_gl_order", "criterion_2_gen_closed_forms", "criterion_3_aut_type",
           "criterion_4_specializations", "criterion_5_products", "criterion_6_sym_power",
           "criterion_7_exponential_formula", "criterion_8_assembly_type",
           "criterion_9_diagonalizations", "criterion_10_multiplicativity",
           "criterion_11_weighted", "criterion_12_centralizers"]


def test_run_checks_all_pass_q2():
    results = run_checks(q=2, ext_k=1, max_dim=2)
    assert results
    for r in results:
        assert r.ok, f"{r.identity}: {r.detail}"


def test_run_checks_all_pass_q3():
    results = run_checks(q=3, ext_k=1, max_dim=2)
    for r in results:
        assert r.ok, f"{r.identity}: {r.detail}"


def test_check_result_json_shape():
    r = run_checks(q=2, ext_k=1, max_dim=1)[0]
    doc = r.to_json()
    assert set(doc) >= {"identity", "status"}
    assert doc["status"] in ("pass", "fail")


def test_selftest_rows_are_labelled_in_order():
    assert len(ROW_IDS) == len(SELFTEST)
    assert [label.split(".")[0] for label, _calls, _pins in SELFTEST] == [
        str(i) for i in range(1, len(SELFTEST) + 1)]


@pytest.mark.parametrize("row", SELFTEST, ids=ROW_IDS)
def test_criterion(row):
    [result] = run_selftest([row])
    line = f"{'PASS' if result.ok else 'FAIL'} {result.identity}"
    if result.detail:
        line += f" ({result.detail})"
    print(line)
    assert result.ok, line


@pytest.mark.parametrize("identity,pinned", [
    ("exp formula splitting counts q=2", (1, 1, 4, 58)),  # a wrong value
    ("exp formula splitting counts q=3", (1, 1, 8, 337)),  # no check computes it
])
def test_a_wrong_pin_fails_its_row(identity, pinned):
    label, calls, pins = SELFTEST[6]
    [result] = run_selftest([(label, calls, {**pins, identity: pinned})])
    assert not result.ok
    assert identity in result.detail
    # the checks themselves pass: only the pin failed
    [(check, field, size, _exprs)] = calls
    assert all(r.ok for r in check(field, size))


def test_every_check_is_reached_from_run_checks_or_selftest(monkeypatch):
    checks = {name for name, _fn in inspect.getmembers(verify, inspect.isfunction)
              if name.startswith("check_")}
    reached = {check.__name__ for _label, calls, _pins in SELFTEST
               for check, _field, _size, _exprs in calls}
    for name in checks:
        fn = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, _name=name, _fn=fn: reached.add(_name) or _fn(*args))
    run_checks(q=2, ext_k=1, max_dim=1)
    assert checks <= reached, f"unreached: {sorted(checks - reached)}"


def test_an_oracle_miscount_fails_the_gen_rows(monkeypatch, capsys):
    count = oracle.structure_count_bf
    monkeypatch.setattr(oracle, "structure_count_bf",
                        lambda e, field, n, *rest: count(e, field, n, *rest) + (n == 2))
    assert main(["verify", "--max-dim", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    gen = [line for line in lines if "] gen[" in line]
    assert len(gen) == len(CORPUS)
    assert all(line.startswith("[FAIL] gen[") for line in gen)
    # the orbit counts do not go through structure_count_bf
    assert all(line.startswith("[PASS]") for line in lines if "] type[" in line)
    [gen_row] = run_selftest([SELFTEST[1]])
    assert gen_row.identity.startswith("2. ") and not gen_row.ok
