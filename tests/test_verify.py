"""The identity table in ``qspecies.verify``: the verify rows at q=2 and q=3,
every selftest criterion, and a planted oracle fault that the rows must report.

Each criterion test prints one `PASS criterion-name` / `FAIL criterion-name`
line (visible with `pytest -s` or on failure) and asserts the exact result.
"""

import pytest

from qspecies import oracle
from qspecies.cli import main
from qspecies.verify import CORPUS, CRITERIA, criterion_2_gen_closed_forms, run_checks


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


@pytest.mark.parametrize("criterion", CRITERIA, ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    line = f"{'PASS' if result.ok else 'FAIL'} {result.identity}"
    if result.detail:
        line += f" ({result.detail})"
    print(line)
    assert result.ok, line


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
    assert not criterion_2_gen_closed_forms().ok
