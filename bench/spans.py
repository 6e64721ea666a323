"""Per-layer tracing of qspecies from outside the program.

A :class:`Tracer` rebinds the public functions of each ``qspecies`` module in
every ``qspecies.*`` namespace that imported them, and patches the methods of
the value classes on their classes.  Each wrapper records a span (name,
duration, time covered by child spans) or only a count.  :meth:`Tracer.restore`
puts every original back.  Nothing under ``src/`` is modified.

Two passes keep the counts honest.  The span pass wraps everything except the
``FieldSpec`` element operations; the field pass counts only those, because
there are millions of them and a wrapper on each would distort the self time
of ``linalg``.

A layer's self time is its spans' duration minus the time covered by their
child spans.  All values in :meth:`Tracer.raw` are additive, so the parent
process sums them over queries before :func:`derive` forms ratios.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter
from time import perf_counter

SPAN, COUNT, TOP_COUNT, YIELD = "span", "count", "top_count", "yield"

# (module, attribute, metric prefix, kind): functions rebound in every namespace
FUNCTIONS = [
    ("classes", "enumerate_classes", "classes.enumerate_classes", SPAN),
    ("classes", "centralizer_order", "classes.centralizer_order", SPAN),
    ("poly", "monic_irreducibles", "poly.monic_irreducibles", SPAN),
    ("cycleindex", "z_build", "cycleindex.z_build", SPAN),
    ("series", "euler_product", "series.euler_product", SPAN),
    ("species", "gen_series", "species.eval", SPAN),
    ("species", "type_series", "species.eval", SPAN),
    ("species", "cycle_index", "species.eval", SPAN),
    ("species", "weighted_gen_series", "species.eval", SPAN),
    ("species", "class_fix", "species.class_fix", SPAN),
    ("oracle", "enumerate_structures", "oracle.enumerate", SPAN),
    ("oracle", "structure_count_bf", "oracle.count", SPAN),
    ("oracle", "inventory_bf", "oracle.count", SPAN),
    ("oracle", "fix_count_bf", "oracle.fix", SPAN),
    ("oracle", "orbit_partition", "oracle.orbits", SPAN),
    ("oracle", "orbit_count_bf", "oracle.orbits", SPAN),
    ("oracle", "zindex_bf", "oracle.zindex", SPAN),
    # the transport step the counting loops call; it recurses through itself
    ("oracle", "_transport", "oracle.transport", TOP_COUNT),
    ("linalg", "invariant_data", "linalg.invariant_data", SPAN),
    ("linalg", "enumerate_matrices", "linalg.enumerate_matrices", YIELD),
    ("linalg", "enumerate_subspaces", "linalg.enumerate_subspaces", YIELD),
    ("parser", "parse", "parser.parse", SPAN),
    ("verify", "run_checks", "verify", SPAN),
    ("verify", "check_gen_series", "verify", SPAN),
    ("verify", "check_type_series", "verify", SPAN),
    ("verify", "check_aut_type_product", "verify", SPAN),
    ("verify", "check_specializations", "verify", SPAN),
    ("verify", "check_product_identities", "verify", SPAN),
    ("verify", "check_exponential_formula", "verify", SPAN),
    ("verify", "check_assembly_type", "verify", SPAN),
    ("verify", "check_multiplicativity", "verify", SPAN),
    ("verify", "check_weighted", "verify", SPAN),
]

# (module, class, attribute, metric prefix, kind): methods patched on their class
METHODS = [
    ("classes", "ConjClass", "representative", "classes.representative", SPAN),
    ("poly", "Poly", "__divmod__", "poly.divmod", COUNT),
    ("cycleindex", "CycleIndexSeries", "__mul__", "cycleindex.mul", SPAN),
    ("series", "PowerSeries", "__mul__", "series.mul", SPAN),
    ("series", "PowerSeries", "exp", "series.exp", SPAN),
    ("linalg", "Matrix", "__mul__", "linalg.matmul", COUNT),
    ("linalg", "Matrix", "matvec", "linalg.matvec", COUNT),
    ("linalg", "Matrix", "rref", "linalg.rref", SPAN),
    ("linalg", "Matrix", "inverse", "linalg.inverse", SPAN),
    ("series", "PowerSeries", "__str__", "cli.render", SPAN),
    ("series", "PowerSeries", "to_json", "cli.render", SPAN),
    ("cycleindex", "CycleIndexSeries", "__str__", "cli.render", SPAN),
    ("cycleindex", "CycleIndexSeries", "render_lines", "cli.render", SPAN),
    ("cycleindex", "CycleIndexSeries", "to_json", "cli.render", SPAN),
]

FIELD_OPS = [("field", "FieldSpec", op, "field.ops", COUNT)
             for op in ("add", "sub", "neg", "mul", "inv", "div", "pow")]

# Every per-layer metric the two passes yield, in BENCHMARK.json order.
PER_LAYER = [
    "classes.enumerate_classes.calls", "classes.enumerate_classes.misses",
    "classes.enumerate_classes.classes_built", "classes.enumerate_classes.self_s",
    "classes.centralizer_order.calls", "classes.centralizer_order.self_s",
    "classes.representative.calls", "classes.representative.self_s",
    "poly.monic_irreducibles.calls", "poly.monic_irreducibles.self_s",
    "poly.divmod.calls",
    "cycleindex.z_build.self_s", "cycleindex.mul.calls", "cycleindex.mul.self_s",
    "cycleindex.mul.terms_out",
    "series.mul.calls", "series.mul.self_s", "series.exp.self_s",
    "series.euler_product.self_s",
    "species.eval.calls", "species.eval.self_s", "species.class_fix.calls",
    "species.class_fix.self_s", "species.class_fix.closed_form_ratio",
    "species.oracle_fallback_s",
    "oracle.enumerate.calls", "oracle.enumerate.distinct", "oracle.enumerate.reuse_ratio",
    "oracle.enumerate.structures", "oracle.enumerate.self_s",
    "oracle.transport.calls", "oracle.fix.calls", "oracle.fix.self_s",
    "oracle.orbits.self_s", "oracle.zindex.self_s", "oracle.budget_exceeded",
    "linalg.matmul.calls", "linalg.rref.calls", "linalg.inverse.calls",
    "linalg.matvec.calls", "linalg.elim.self_s", "linalg.invariant_data.calls",
    "linalg.invariant_data.self_s", "linalg.enumerate_matrices.yielded",
    "linalg.enumerate_subspaces.yielded", "field.ops",
    "parser.parse.calls", "parser.parse.self_s", "cli.render.self_s",
    "verify.checks", "verify.self_s",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: dict) -> dict:
    """The PER_LAYER metrics from raw values summed over queries."""
    r = Counter(raw)
    out = {name: r[name] for name in PER_LAYER}
    out["field.ops"] = r["field.ops.calls"]
    out["linalg.elim.self_s"] = r["linalg.rref.self_s"] + r["linalg.inverse.self_s"]
    out["species.class_fix.closed_form_ratio"] = _ratio(
        r["species.class_fix.closed_form"], r["species.class_fix.calls"])
    out["oracle.enumerate.reuse_ratio"] = _ratio(
        r["oracle.enumerate.distinct"], r["oracle.enumerate.calls"])
    return out


def import_qspecies() -> tuple:
    """The qspecies package and all its modules, imported."""
    import qspecies
    return qspecies, [importlib.import_module(f"qspecies.{info.name}")
                      for info in pkgutil.iter_modules(qspecies.__path__)]


class Tracer:
    """Wrappers over qspecies, their accumulated values, and the undo list."""

    def __init__(self, field_ops: bool = False):
        self.field_ops = field_ops
        self.values: Counter = Counter()
        self.missing: list[str] = []      # targets absent from this version of qspecies
        self._stack: list[list] = []      # open spans: [name, child seconds, oracle below]
        self._undo: list[tuple] = []      # (namespace, attribute, original)
        self._enumerated: set = set()     # distinct (expr, field, n) keys
        self._transport_depth = 0
        self._budget_error: type | tuple = ()  # set by install()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, values = self._stack, self.values
        is_oracle = name.startswith("oracle.")
        budget_error = self._budget_error

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, False]
            if is_oracle:
                for open_frame in reversed(stack):
                    if open_frame[0] == "species.class_fix":
                        open_frame[2] = True
                        break
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if is_oracle and not (len(stack) > 1 and stack[-2][0].startswith("oracle.")):
                    values["oracle.budget_exceeded"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                values[name + ".calls"] += 1
                values[name + ".self_s"] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if is_oracle and parent[0].startswith("species."):
                        values["species.oracle_fallback_s"] += dt
            if name == "species.class_fix" and not frame[2]:
                values["species.class_fix.closed_form"] += 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        values, key = self.values, name + ".calls"

        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _top_count(self, name: str, fn):
        values, key, tracer = self.values, name + ".calls", self

        def wrapper(*args, **kwargs):
            if not tracer._transport_depth:
                values[key] += 1
            tracer._transport_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._transport_depth -= 1

        return wrapper

    def _yield(self, name: str, fn):
        values, key = self.values, name + ".yielded"

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                values[key] += n

        return wrapper

    def _wrap(self, name: str, kind: str, fn):
        return {SPAN: self._span, COUNT: self._count, TOP_COUNT: self._top_count,
                YIELD: self._yield}[kind](name, fn)

    def _enumerate_classes(self, fn):
        """Span plus the cache misses and the classes those misses built."""
        values = self.values
        inner = self._span("classes.enumerate_classes", fn)

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            result = inner(*args, **kwargs)
            if fn.cache_info().misses > misses:
                values["classes.enumerate_classes.misses"] += 1
                values["classes.enumerate_classes.classes_built"] += len(result)
            return result

        return wrapper

    def _enumerate_structures(self, fn):
        values, seen = self.values, self._enumerated
        inner = self._span("oracle.enumerate", fn)

        def wrapper(e, field, n, *args, **kwargs):
            result = inner(e, field, n, *args, **kwargs)
            seen.add((e, field, n))
            values["oracle.enumerate.distinct"] = len(seen)
            values["oracle.enumerate.structures"] += len(result)
            return result

        return wrapper

    def _run_checks(self, fn):
        values = self.values
        inner = self._span("verify", fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            values["verify.checks"] += len(result)
            return result

        return wrapper

    def _cycleindex_mul(self, fn):
        values = self.values
        inner = self._span("cycleindex.mul", fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            values["cycleindex.mul.terms_out"] += len(result.terms)
            return result

        return wrapper

    # -- install and restore ---------------------------------------------------

    def install(self) -> None:
        """Import every qspecies module and put the wrappers in place."""
        package, modules = import_qspecies()
        from qspecies.linalg import BudgetExceededError
        self._budget_error = BudgetExceededError
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        if self.field_ops:
            self._patch_methods(by_name, FIELD_OPS)
        else:
            self._rebind_functions(by_name, modules + [package])
            self._patch_methods(by_name, METHODS)

    def _rebind_functions(self, by_name: dict, namespaces: list) -> None:
        replacements = {}  # id(original) -> (original, wrapper)
        for module_name, attr, name, kind in FUNCTIONS:
            fn = getattr(by_name.get(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            special = {"enumerate_classes": self._enumerate_classes,
                       "enumerate_structures": self._enumerate_structures,
                       "run_checks": self._run_checks}.get(attr)
            wrapper = special(fn) if special else self._wrap(name, kind, fn)
            replacements[id(fn)] = (fn, wrapper)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

    def _patch_methods(self, by_name: dict, targets: list) -> None:
        for module_name, cls_name, attr, name, kind in targets:
            cls = getattr(by_name.get(module_name), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            if (cls_name, attr) == ("CycleIndexSeries", "__mul__"):
                wrapper = self._cycleindex_mul(fn)
            else:
                wrapper = self._wrap(name, kind, fn)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, wrapper)

    def installed(self) -> list[tuple]:
        """The (namespace, attribute, original) triples currently replaced."""
        return list(self._undo)

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo = []

    def raw(self) -> dict:
        return dict(self.values)
