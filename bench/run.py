"""The qspecies benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  Each query is one call of
``qspecies.cli.main(argv)`` in a fresh interpreter (child.py), one at a time:
one client, closed loop, no threads.  The seed only shuffles the order of the
queries in each pass, so the work done does not depend on it.

``--trace 0`` makes passes over the workload while another pass fits in
``--seconds``, and at least MIN_PASSES, and reports the end-to-end metrics:

  wall_s           sum over the queries of each query's median time
  slowest_query_s  the largest median query time
  peak_rss_mb      the largest median peak resident memory of a query's process
  setup_s          median over fresh interpreters, sampled throughout the run,
                   of importing qspecies and building the F_2, F_3, F_4 tables

Times are in seconds at reference speed.  The speed of the shared machine this
benchmark was built on drifts by 15-30% within minutes.  So each child process
also times a small computation that does not use qspecies before, during and
after the query (child.py, SpeedSampler), and each time is scaled by
REF_CHUNK_S / that computation's mean time: the time the query would take on
this machine when the reference computation takes REF_CHUNK_S.  The record
keeps the unscaled medians as well.

``--trace 1`` runs one untraced pass, one span pass and one field pass (see
spans.py), whatever ``--seconds`` says, and reports the per-layer metrics; on
workloads with frontier cases it then runs each case once under a deadline and
records the outcome, ungated.

Every query's output is checked against workloads.py; a mismatch, a nonzero
exit or a timeout fails the query.  The next-to-last line of stdout is the full
record (machine, seed, per-query times, failures, probe); the last line is the
result.  Exit status: 0 all queries correct, 1 some query failed, 2 no qspecies
source in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import monotonic

from spans import PER_LAYER, Tracer, derive, import_qspecies
from workloads import WORKLOADS, Query, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "qspecies"
CHILD = BENCH / "child.py"

QUERY_TIMEOUT_S = 120
PROBE_DEADLINE_S = 15
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 5
# child.reference_chunk(), typical time on an Intel Xeon 2-vCPU VM, Python 3.11.7
REF_CHUNK_S = 0.0012

END_TO_END = ["wall_s", "slowest_query_s", "peak_rss_mb", "setup_s"]


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, argv: tuple[str, ...] = (), timeout: float = QUERY_TIMEOUT_S) -> dict:
    """Run child.py in a fresh interpreter and return its JSON report."""
    proc = subprocess.run([sys.executable, str(CHILD), mode, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def output_errors(query: Query, report: dict) -> list[str]:
    """Why the query's output is wrong; empty when it is right."""
    if report["rc"] != 0:
        return [f"exit {report['rc']}: {report['stderr'].strip()[-300:]}"]
    out = report["stdout"]
    errors = []
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != query.digest:
        errors.append(f"seed: stdout sha256 {digest} != {query.digest}")
    for check in query.checks:
        try:
            reason = check.test(out)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            reason = f"unparsable output ({exc!r})"
        if reason:
            errors.append(f"{check.source}: {reason[:300]}")
    return errors


def run_query(query: Query, mode: str) -> dict:
    command = " ".join(query.argv)
    t0 = monotonic()
    try:
        report = spawn(mode, query.argv)
    except (subprocess.TimeoutExpired, ChildFailed) as exc:
        seconds = monotonic() - t0
        return {"query": command, "mode": mode, "seconds": seconds, "ref_s": REF_CHUNK_S,
                "rss_mb": 0.0, "errors": [str(exc)[:500]]}
    return {"query": command, "mode": mode, "seconds": report["seconds"],
            "ref_s": report["ref_s"],
            "rss_mb": report["rss_mb"], "errors": output_errors(query, report),
            "layers": report.get("layers", {}), "missing": report.get("missing", [])}


def run_pass(queries: list[Query], mode: str) -> list[dict]:
    return [run_query(q, mode) for q in queries]


def machine() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "src.lines": src_lines}


def at_reference_speed(report: dict) -> float:
    return report["seconds"] * REF_CHUNK_S / report["ref_s"]


def timed_run(wl: Workload, rng: random.Random, seconds: int) -> tuple[dict, list[dict]]:
    spawn("setup")  # writes the bytecode caches; not timed
    setup: list[dict] = []
    outcomes: list[dict] = []
    pass_s: list[float] = []
    start = monotonic()
    while len(pass_s) < MIN_PASSES or monotonic() - start + median(pass_s) <= seconds:
        t0 = monotonic()
        # set-up samples are spread over the run, like the queries
        setup += [spawn("setup") for _ in range(SETUP_SAMPLES_PER_PASS)]
        order = list(wl.queries)
        rng.shuffle(order)
        outcomes += run_pass(order, "plain")
        pass_s.append(monotonic() - t0)
    per_query = {" ".join(q.argv): [o for o in outcomes if o["query"] == " ".join(q.argv)]
                 for q in wl.queries}
    scaled = {k: median(at_reference_speed(o) for o in v) for k, v in per_query.items()}
    rss = {k: median(o["rss_mb"] for o in v) for k, v in per_query.items()}
    metrics = {"wall_s": sum(scaled.values()),
               "slowest_query_s": max(scaled.values()),
               "peak_rss_mb": max(rss.values()),
               "setup_s": median(at_reference_speed(r) for r in setup)}
    record = {"passes": len(pass_s), "pass_s": pass_s,
              "unscaled_wall_s": sum(median(o["seconds"] for o in v) for v in per_query.values()),
              "unscaled_setup_s": median(r["seconds"] for r in setup),
              "ref_median_s": median(o["ref_s"] for o in outcomes),
              "query_median_s": scaled, "query_median_rss_mb": rss,
              "query_samples_s": {k: [at_reference_speed(o) for o in v]
                                  for k, v in per_query.items()}}
    return {"metrics": metrics, "record": record}, outcomes


def run_probe(cases: tuple[tuple[str, str], ...]) -> list[dict]:
    out = []
    for command, at_seed in cases:
        t0 = monotonic()
        try:
            rc = spawn("plain", tuple(shlex.split(command)), PROBE_DEADLINE_S)["rc"]
            status = "ok" if rc == 0 else f"exit {rc}"
        except subprocess.TimeoutExpired:
            status = "timeout"
        except ChildFailed as exc:
            status = str(exc)[:200]
        out.append({"query": command, "status": status, "seconds": monotonic() - t0,
                    "deadline_s": PROBE_DEADLINE_S, "at_seed": at_seed})
    return out


def traced_run(wl: Workload, rng: random.Random) -> tuple[dict, list[dict]]:
    order = list(wl.queries)
    rng.shuffle(order)
    plain = run_pass(order, "plain")
    spans = run_pass(order, "spans")
    field = run_pass(order, "field")
    raw: Counter = Counter()
    for o in spans + field:
        scale = REF_CHUNK_S / o["ref_s"]
        raw.update({k: v * scale if k.endswith("_s") else v
                    for k, v in o.get("layers", {}).items()})
    untraced, traced = (sum(at_reference_speed(o) for o in p) for p in (plain, spans))
    metrics = derive(raw)
    metrics["trace.overhead_ratio"] = traced / untraced
    record = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "field_pass_wall_s": sum(at_reference_speed(o) for o in field),
              "missing_targets": sorted({m for o in spans + field for m in o.get("missing", [])}),
              "probe": run_probe(wl.probe)}
    return {"metrics": metrics, "record": record}, plain + spans + field


def check_install_restore() -> list[str]:
    """Install and restore each tracer in this process; return what went wrong."""
    sys.path.insert(0, str(SRC.parent))
    import_qspecies()
    problems = []
    for field_ops in (False, True):
        tracer = Tracer(field_ops=field_ops)
        before = _bindings()
        tracer.install()
        during = _bindings()
        replaced = tracer.installed()
        if not replaced or tracer.missing:
            problems.append(f"field_ops={field_ops}: nothing installed or missing "
                            f"{tracer.missing}")
        originals = {id(orig) for _ns, _attr, orig in replaced}
        left = [key for key, value in during.items() if id(value) in originals]
        if left:
            problems.append(f"field_ops={field_ops}: still bound to originals: {left}")
        tracer.restore()
        after = _bindings()
        if any(after[k] is not before[k] for k in before) or after.keys() != before.keys():
            problems.append(f"field_ops={field_ops}: restore did not put originals back")
    return problems


def _bindings() -> dict:
    """Every attribute of every qspecies module and of the classes defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "qspecies" or name.startswith("qspecies."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def smoke() -> int:
    """The first query of each workload in every mode, and tracer install/restore."""
    problems = check_install_restore()
    for name, wl in WORKLOADS.items():
        for mode in ("plain", "spans", "field"):
            outcome = run_query(wl.queries[0], mode)
            problems += [f"{name} {mode} {outcome['query']}: {e}" for e in outcome["errors"]]
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qspecies benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="first query of each workload plus tracer install/restore")
    args = ap.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no qspecies source at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    if args.trace:
        result, outcomes = traced_run(wl, rng)
        names = PER_LAYER + ["trace.overhead_ratio"]
    else:
        result, outcomes = timed_run(wl, rng, args.seconds)
        names = END_TO_END
    failures = [o for o in outcomes if o["errors"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **machine(), **result["record"],
              "attempted": len(outcomes), "fail_ratio": len(failures) / len(outcomes),
              "failures": [{k: o[k] for k in ("query", "mode", "errors")} for o in failures]}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {n: {"value": result["metrics"][n], "unit": unit_of(n)} for n in names}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
