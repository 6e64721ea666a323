"""Run one qspecies query in this fresh interpreter and report it as one JSON line.

    python3 bench/child.py setup
    python3 bench/child.py {plain|spans|field} ARGV...

``setup`` times importing qspecies and building the F_2, F_3 and F_4 tables.
The other modes call ``qspecies.cli.main(ARGV)`` with stdout captured and time
only that call; ``spans`` and ``field`` run it under a :class:`spans.Tracer`
(see spans.py for the two passes).  Each query gets its own interpreter so
every cache starts cold, as it does for a CLI call.

Every mode also times a small reference computation that does not use qspecies
(:func:`reference_chunk`) in the same process: ten times before the query, ten
after, and every REF_INTERVAL_S during it from a SIGALRM handler.  Their mean is
how fast the machine ran while the query ran, so the benchmark can factor out
the machine's drift.  The time spent in those chunks is subtracted from the
query's time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
from statistics import mean
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
REF_INTERVAL_S = 0.1


def reference_chunk() -> float:
    """Seconds taken by a fixed computation of about a millisecond that does not
    use qspecies: exact fractions, tuples and dicts, as qspecies uses them.
    The collector is off so that it does not count the query's heap."""
    from fractions import Fraction  # after the set-up timing, which imports it too
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97, i)
        table[(i, i % 7)] = acc.numerator % 1000
    seconds = perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return seconds


class SpeedSampler:
    """Reference chunks before, during (from a SIGALRM handler) and after a call."""

    def __init__(self):
        self.chunks: list[float] = []
        self.during_s = 0.0
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:
            self._busy = True
            seconds = reference_chunk()
            self.chunks.append(seconds)
            self.during_s += seconds
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.chunks += [reference_chunk() for _ in range(10)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.chunks += [reference_chunk() for _ in range(10)]


def _setup() -> dict:
    t0 = perf_counter()
    from qspecies import field_make
    for p, k in ((2, 1), (3, 1), (2, 2)):
        field_make(p, k)
    seconds = perf_counter() - t0
    return {"seconds": seconds, "ref_s": mean(reference_chunk() for _ in range(20))}


def _query(mode: str, argv: list[str]) -> dict:
    from qspecies.cli import main
    tracer = None
    if mode != "plain":
        from spans import Tracer
        tracer = Tracer(field_ops=(mode == "field"))
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    try:
        with SpeedSampler() as speed:
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            seconds = perf_counter() - t0 - speed.during_s
    finally:
        if tracer is not None:
            tracer.restore()
    report = {"rc": rc, "seconds": seconds, "ref_s": mean(speed.chunks),
              "stdout": out.getvalue(),
              "stderr": err.getvalue()[-2000:],
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        report["layers"] = tracer.raw()
        report["missing"] = tracer.missing
    return report


def main() -> int:
    sys.path.insert(0, str(SRC))
    mode, argv = sys.argv[1], sys.argv[2:]
    report = _setup() if mode == "setup" else _query(mode, argv)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
