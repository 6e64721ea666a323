"""The benchmark's oracle_literal workload pins each query's stdout by its
sha256 (bench/workloads.py).  This test runs the same queries through
``cli.main`` and compares the digests and checks, so a change to an oracle
output fails here before it reaches the benchmark."""

import contextlib
import hashlib
import io
import sys
import types
from pathlib import Path

import pytest

from qspecies.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _oracle_literal_queries() -> list:
    # executed from its source, so nothing is written under bench/; its
    # dataclasses look their module up in sys.modules while they are made
    module = types.ModuleType("_bench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return list(module.WORKLOADS["oracle_literal"].queries)


QUERIES = _oracle_literal_queries()


@pytest.mark.parametrize("query", QUERIES, ids=[" ".join(q.argv) for q in QUERIES])
def test_oracle_literal_output_matches_its_digest(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(query.argv)) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == query.digest
    assert [check.test(text) for check in query.checks] == [None] * len(query.checks)


def test_every_oracle_literal_query_is_pinned():
    assert len(QUERIES) == 5
    assert all(len(q.digest) == 64 for q in QUERIES)
