"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_runs_first_queries_and_restores_tracers():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER + ["trace.overhead_ratio"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_check_rejects_a_wrong_output(name):
    for query in workloads.WORKLOADS[name].queries:
        report = {"rc": 0, "stdout": "0\n", "stderr": ""}
        errors = run.output_errors(query, report)
        assert any(e.startswith("seed:") for e in errors)
        assert len(errors) == 1 + len(query.checks), (query.argv, errors)


@pytest.mark.parametrize("lines, types", [
    (workloads.ORACLE_Z_ELEM_PROJ_3, [0, 1, 3, 5]),
    (workloads.ORACLE_Z_END_3, workloads.product_series(3, 2, False)),
    (workloads.ORACLE_Z_SYM2_VPLUS_3, [0, 0, 1, 1]),
    (workloads.ORACLE_Z_SUB2_3, [0, 0, 1, 1]),
])
def test_stored_oracle_values_agree_with_independent_types(lines, types):
    assert workloads.z_type_is(types, "independent").test(lines) is None


def test_fails_without_a_qspecies_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_forms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
