"""Command-line front end.

Commands: gen, type, wgen, zindex, classes, irreducibles, oracle, verify,
selftest.  Exit codes: 0 success, 1 runtime failure (failed check, budget
exceeded, unsupported operation), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle as oracle_mod
from .classes import enumerate_classes
from .cycleindex import CycleIndexSeries
from .field import field_make
from .linalg import DEFAULT_BUDGET, BudgetExceededError, ConsistencyError
from .parser import ParseError, parse
from .poly import monic_irreducibles
from .series import PowerSeries
from .species import (UnsupportedOperationError, cycle_index, gen_series,
                      type_series, weighted_gen_series)


def _series_output(series: PowerSeries, q: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"q": q, "order": series.order, "series": series.to_json()},
                          indent=2)
    if fmt == "csv":
        lines = ["n,coeff"] + [f"{row['n']},{row['coeff']}" for row in series.to_json()]
        return "\n".join(lines)
    return str(series)


def _cycle_index_output(z: CycleIndexSeries, q: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"q": q, "order": z.order, "terms": z.to_json()}, indent=2)
    return "\n".join(z.render_lines()) or "0"


def _size(text: str) -> int:
    """The argparse type of dimensions and truncation orders."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_options(p: argparse.ArgumentParser, *, field: bool = True, order: bool = False,
                 formats: tuple = ("text", "json")) -> None:
    """Register the common options the command reads; any other is a usage error."""
    if field:
        p.add_argument("--q", type=int, default=2, help="field characteristic base (default 2)")
        p.add_argument("--ext-k", type=int, default=1,
                       help="extension degree k, q = p^k (default 1)")
    if order:
        p.add_argument("--order", type=_size, default=8,
                       help="series truncation order (default 8)")
    p.add_argument("--format", choices=list(formats), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qspecies",
                                 description="Exact series of q-species over F_q.")
    sub = ap.add_subparsers(dest="command", required=True)

    for cmd, help_text in [("gen", "generating series of EXPR"),
                           ("type", "type generating series of EXPR"),
                           ("wgen", "weighted generating series of EXPR"),
                           ("zindex", "cycle index series of EXPR")]:
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("expr")
        _add_options(p, order=True,
                     formats=("text", "json") if cmd == "zindex" else ("text", "json", "csv"))

    p = sub.add_parser("classes", help="conjugacy class table of Aut(E_n)")
    p.add_argument("n", type=_size)
    p.add_argument("--kind", choices=["aut", "end"], default="aut")
    _add_options(p)

    p = sub.add_parser("irreducibles", help="monic irreducibles of degree d")
    p.add_argument("d", type=int)
    p.add_argument("--exclude-z", action="store_true")
    _add_options(p)

    p = sub.add_parser("oracle", help="exhaustive-enumeration ground truth")
    p.add_argument("what", choices=["count", "fix", "orbits", "zindex"])
    p.add_argument("expr")
    p.add_argument("n", type=_size)
    p.add_argument("--budget", type=_size, default=DEFAULT_BUDGET,
                   help="cap on each oracle enumeration")
    _add_options(p, formats=("text", "json", "csv"))

    p = sub.add_parser("verify", help="oracle-vs-closed-form identity suite")
    p.add_argument("--max-dim", type=_size, default=3)
    _add_options(p)

    p = sub.add_parser("selftest", help="the acceptance criteria: the verify identities "
                                        "at pinned fields and orders, with pinned values")
    _add_options(p, field=False)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # exact outputs print integers of any length: Python (3.11+) refuses to
    # convert one of more than 4300 digits to text unless the limit is lifted
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ConsistencyError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _dispatch(args) -> int:
    fmt = args.format
    if args.command == "selftest":
        from .verify import CRITERIA
        return _report([criterion() for criterion in CRITERIA], fmt)

    field = field_make(args.q, args.ext_k)

    if args.command in ("gen", "type", "wgen"):
        e = parse(args.expr)
        fn = {"gen": gen_series, "type": type_series, "wgen": weighted_gen_series}[args.command]
        series = fn(e, field, args.order)
        print(_series_output(series, field.q, fmt))
        return 0

    if args.command == "zindex":
        e = parse(args.expr)
        z = cycle_index(e, field, args.order)
        print(_cycle_index_output(z, field.q, fmt))
        return 0

    if args.command == "classes":
        classes = enumerate_classes(field, args.n, args.kind)
        rows = [{"invariant": str(c.invariant),
                 "centralizer_order": c.centralizer_order,
                 "class_size": c.class_size} for c in classes]
        if fmt == "json":
            print(json.dumps({"q": field.q, "n": args.n, "kind": args.kind,
                              "classes": rows}, indent=2))
        else:
            for r in rows:
                print(f"{r['invariant']}  centralizer={r['centralizer_order']}"
                      f"  size={r['class_size']}")
        return 0

    if args.command == "irreducibles":
        polys = monic_irreducibles(field, args.d, exclude_z=args.exclude_z)
        if fmt == "json":
            print(json.dumps({"q": field.q, "d": args.d,
                              "polynomials": [str(f) for f in polys]}, indent=2))
        else:
            for f in polys:
                print(f)
        return 0

    if args.command == "oracle":
        e = parse(args.expr)
        if args.what == "count":
            rows = [{"n": n, "count": oracle_mod.structure_count_bf(e, field, n, args.budget)}
                    for n in range(args.n + 1)]
            _table(rows, ["n", "count"], fmt)
        elif args.what == "orbits":
            rows = [{"n": n, "orbits": oracle_mod.orbit_count_bf(e, field, n, args.budget)}
                    for n in range(args.n + 1)]
            _table(rows, ["n", "orbits"], fmt)
        elif args.what == "fix":
            classes = enumerate_classes(field, args.n, "aut")
            fixes = oracle_mod.fix_counts_bf(e, field, args.n,
                                             [c.representative(field) for c in classes],
                                             args.budget)
            rows = [{"class": str(c.invariant), "fix": fix} for c, fix in zip(classes, fixes)]
            _table(rows, ["class", "fix"], fmt)
        else:  # zindex
            if fmt == "csv":
                raise ValueError("oracle zindex has no csv format")
            z = oracle_mod.zindex_bf(e, field, args.n, args.budget)
            print(_cycle_index_output(z, field.q, fmt))
        return 0

    if args.command == "verify":
        from .verify import run_checks
        return _report(run_checks(args.q, args.ext_k, args.max_dim), fmt)

    raise AssertionError("unreachable")


def _report(results, fmt: str) -> int:
    """Print verify/selftest check results; exit 0 only if every check passed."""
    if fmt == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for r in results:
            print(f"[{'PASS' if r.ok else 'FAIL'}] {r.identity}"
                  + (f"  ({r.detail})" if r.detail else ""))
    return 0 if all(r.ok for r in results) else 1


def _table(rows: list[dict], cols: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
    else:
        for r in rows:
            print("  ".join(f"{c}={r[c]}" for c in cols))


if __name__ == "__main__":
    sys.exit(main())
