"""The benchmark's per-layer tracer (bench/spans.py) wraps qspecies functions
and methods by name, and reports a renamed or moved one only as a missing
target in its own runs.  This test reads its target lists and resolves each
target the way the tracer does, so a rename fails here first."""

from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans() -> dict:
    # executed from its source, so nothing is written under bench/
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_every_trace_target_resolves(spans):
    _package, modules = spans["import_qspecies"]()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    missing = []
    for module_name, attr, _metric, _kind in spans["FUNCTIONS"]:
        # the tracer: getattr on the module
        if not callable(getattr(by_name.get(module_name), attr, None)):
            missing.append(f"{module_name}.{attr}")
    for module_name, cls_name, attr, _metric, _kind in spans["METHODS"] + spans["FIELD_OPS"]:
        # the tracer: vars() of the class, so an inherited method does not count
        cls = getattr(by_name.get(module_name), cls_name, None)
        if cls is None or vars(cls).get(attr) is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
    assert missing == []
    # the tracer's enumerate_classes wrapper counts cache misses from cache_info
    assert callable(getattr(by_name["classes"].enumerate_classes, "cache_info", None))
    assert spans["FUNCTIONS"] and spans["METHODS"] and spans["FIELD_OPS"]
