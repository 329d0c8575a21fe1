"""Span recording around calls into lindring's layers, by plain wrappers.

Every public function bound in a lindring module namespace is replaced,
in each namespace that binds it, by a wrapper that records a span (name,
parent span, start, end).  Three methods are wrapped on their classes:
PauliOperator.__matmul__ and LindbladGenerator.apply / apply_at_sites.
`mul_strings` is only counted, and only where obstruction and
feasibility call it directly: products inside PauliOperator are counted
as |lhs| * |rhs| at the __matmul__ wrapper instead.  Spans stay in
memory and are written once, when the job ends.  No profiler hook is
installed, so code between wrapped calls runs at full speed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("pauli", "generators", "rings", "obstruction", "feasibility", "cli")
METHODS = (
    ("pauli", "PauliOperator", "__matmul__"),
    ("generators", "LindbladGenerator", "apply"),
    ("generators", "LindbladGenerator", "apply_at_sites"),
)
COUNTED_ONLY = {"mul_strings": ("obstruction", "feasibility")}
# names the per-layer metrics read; absent ones are reported, not fatal
EXPECTED = (
    "pauli.PauliOperator.__matmul__",
    "generators.LindbladGenerator.apply",
    "generators.LindbladGenerator.apply_at_sites",
    "generators.diagonalize_structure",
    "generators.superop_matrix",
    "generators.kernel",
    "rings.global_conservation_residual",
    "rings.local_conservation_check",
    "rings.assemble_sum",
    "obstruction.assemble_C_2site",
    "obstruction.assemble_C_3site",
    "obstruction.conservation_forms",
    "obstruction.unitality_forms",
    "obstruction.certify_definiteness",
    "feasibility.build_affine_constraints",
    "feasibility.search",
    "feasibility.verify_candidate",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack = [0]
        self._next = 1
        self.counts = {"pauli.products": 0, "pauli.mul_strings_direct": 0}
        self.results: list[dict] = []
        self.wrapped: set[str] = set()

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, nid, t0, t1))
            if after is not None:
                after(sid, result)
            return result

        self.wrapped.add(name)
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_products(self, args):
        lhs, rhs = args[0], args[1]
        self.counts["pauli.products"] += len(lhs.terms) * len(getattr(rhs, "terms", ()))

    def _record(self, kind):
        def after(sid, result):
            entry = {"span": sid, "kind": kind}
            if kind == "search":
                entry["status"] = result.status
                entry["iterations"] = int(result.iterations)
            elif kind == "constraints":
                rows, cols = result.matrix.shape
                entry["entries"] = int(rows) * int(cols)
            self.results.append(entry)
        return after

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"lindring.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("lindring"), *modules.values()]
        hooks = {
            "feasibility.search": {"after": self._record("search")},
            "feasibility.build_affine_constraints": {"after": self._record("constraints")},
        }
        made: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("lindring."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if attr in COUNTED_ONLY:
                    if ns.__name__.rsplit(".", 1)[-1] in COUNTED_ONLY[attr]:
                        setattr(ns, attr, self._counter("pauli.mul_strings_direct", obj))
                    continue
                name = f"{layer}.{obj.__name__}"
                if id(obj) not in made:
                    made[id(obj)] = self._span_wrapper(name, obj, **hooks.get(name, {}))
                setattr(ns, attr, made[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                continue
            before = self._count_products if meth == "__matmul__" else None
            setattr(cls, meth, self._span_wrapper(f"{layer}.{cls_name}.{meth}", fn, before=before))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "spans": self.spans,
                "counts": self.counts,
                "results": self.results,
                "missing": [n for n in EXPECTED if n not in self.wrapped],
            }, fh, separators=(",", ":"))
