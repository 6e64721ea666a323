"""The benchmark's workloads pin each query's stdout by its sha256
(bench/workloads.py).  This test runs the same queries through ``cli.main``
and compares the digests and checks, so a change to any benchmark output
fails here before it reaches the benchmark."""

import contextlib
import hashlib
import io
import sys
import types
from pathlib import Path

import pytest

from qspecies.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads() -> dict:
    # executed from its source, so nothing is written under bench/; its
    # dataclasses look their module up in sys.modules while they are made
    module = types.ModuleType("_bench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return {name: list(w.queries) for name, w in module.WORKLOADS.items()}


QUERIES = _workloads()


def _queries(workload: str):
    return pytest.mark.parametrize("query", QUERIES[workload],
                                   ids=[" ".join(q.argv) for q in QUERIES[workload]])


def _check_output(query) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(query.argv)) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == query.digest
    assert [check.test(text) for check in query.checks] == [None] * len(query.checks)


@_queries("oracle_literal")
def test_oracle_literal_output_matches_its_digest(query):
    _check_output(query)


@_queries("closed_forms")
def test_closed_forms_output_matches_its_digest(query):
    _check_output(query)


@_queries("oracle_fallback")
def test_oracle_fallback_output_matches_its_digest(query):
    _check_output(query)


def test_every_oracle_literal_query_is_pinned():
    assert len(QUERIES["oracle_literal"]) == 5
    assert all(len(q.digest) == 64 for q in QUERIES["oracle_literal"])


@pytest.mark.parametrize("workload, count", [("closed_forms", 12), ("oracle_fallback", 7)])
def test_every_workload_query_is_pinned(workload, count):
    assert len(QUERIES[workload]) == count
    assert all(len(q.digest) == 64 for q in QUERIES[workload])
