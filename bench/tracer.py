"""Per-layer tracing of postrb, done from outside the library.

``Tracer`` wraps the listed public functions of each ``postrb`` module once
and rebinds every ``postrb`` namespace that imported them, so calls from
inside the library are seen too.  Request- and pipeline-level calls become
spans with a parent link; the hot leaves (the scalar dunders,
``LieAlgebra.bracket`` and ``PostLieAlgebra.triangle``) only add to counters
and time, so memory stays bounded.  Self time is a call's duration minus the
time spent in wrapped calls made from it.  ``restore`` puts every original
object back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TARGETS = {
    "scalars": ("rref", "nullspace", "solve_affine", "determinant", "ExactMatrix.rank",
                "ExactMatrix.inverse", "ExactMatrix.__matmul__", "smith_normal_form",
                "solve_linear_congruences"),
    "lie": ("LieAlgebra.bracket", "jacobi_violations", "center", "derivations",
            "killing_semisimple", "invariant_fingerprint", "change_basis"),
    "postlie": ("PostLieAlgebra.triangle", "check_postlie_axioms", "innerness_witness",
                "sub_adjacent", "check_rota_baxter", "from_rota_baxter"),
    "lie_obstruction": ("obstruction_cocycle", "verify_lie_2cocycle", "coboundary_solve",
                        "construct_rb_from_obstruction"),
    "tower": ("build_tower", "tower_report"),
    "groups": ("group_violations", "center_group", "abelian_decomposition"),
    "postgroup": ("check_postgroup_axioms", "innerness_witness_group", "sub_adjacent_group",
                  "check_rb_group", "enumerate_rb_operators"),
    "group_obstruction": ("obstruction_cocycle_group", "verify_group_2cocycle",
                          "coboundary_solve_group", "construct_rb_from_obstruction_group",
                          "group_tower_certificates"),
    "search": ("scan_algebra",),
    "documents": ("parse_document", "render_combination", "render_lie_document",
                  "render_postlie_document", "render_rb_lie_document", "render_group_document",
                  "render_postgroup_document", "render_rb_group_document"),
    "cli": ("main",),
}
LEAVES = frozenset({"lie.LieAlgebra.bracket", "postlie.PostLieAlgebra.triangle"})
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")
SCALAR = "scalars.GaussianRational"


def _rref_cells(counts: Counter, args, result) -> None:
    counts["scalars.rref.cells"] += args[0].rows * args[0].cols


def _snf_cells(counts: Counter, args, result) -> None:
    counts["scalars.smith_normal_form.cells"] += args[0].rows * args[0].cols


def _scan(counts: Counter, args, result) -> None:
    counts["search.candidates"] += result.candidates
    counts["search.valid"] += result.valid_post_lie


def _coboundary(counts: Counter, args, result) -> None:
    counts["lie_obstruction.coboundary_solve.none"] += result is None


def _enumeration(counts: Counter, args, result) -> None:
    counts["postgroup.enumerate_rb_operators.results"] += len(result)


OBSERVERS = {
    "scalars.rref": _rref_cells,
    "scalars.smith_normal_form": _snf_cells,
    "search.scan_algebra": _scan,
    "lie_obstruction.coboundary_solve": _coboundary,
    "postgroup.enumerate_rb_operators": _enumeration,
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics())


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [time in wrapped children, span id]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, spans, calls, self_s, ids = self._stack, self.spans, self.calls, self.self_s, self._ids
        leaf = name in LEAVES
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0 if leaf else next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not leaf:
                    spans.append((frame[1], stack[-1][1] if stack else 0, name, start, end))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def _wrap_dunder(self, fn):
        stack, counts, self_s = self._stack, self.counts, self.self_s

        @functools.wraps(fn)
        def wrapper(value, *other):
            frame = [0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(value, *other)
            finally:
                duration = perf_counter() - start
                stack.pop()
                counts[f"{SCALAR}.ops"] += 1
                if value.im or (other and getattr(other[0], "im", 0)):
                    counts[f"{SCALAR}.complex_ops"] += 1
                self_s[SCALAR] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target of the already imported ``postrb`` package."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "postrb" or n.startswith("postrb.")]
        for module, functions in TARGETS.items():
            mod = sys.modules[f"postrb.{module}"]
            for function in functions:
                name = f"{module}.{function}"
                owner_name, _, attr = function.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, wrapper)
        scalar = sys.modules["postrb.scalars"].GaussianRational
        for dunder in DUNDERS:
            self._patch(scalar, dunder, self._wrap_dunder(vars(scalar)[dunder]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for module, functions in TARGETS.items():
            for function in functions:
                name = f"{module}.{function}"
                out[f"{name}.calls"] = (self.calls[name], "count")
                out[f"{name}.self_s"] = (self.self_s[name], "s")
        c = self.counts
        out[f"{SCALAR}.ops"] = (c[f"{SCALAR}.ops"], "count")
        out[f"{SCALAR}.complex_ops"] = (c[f"{SCALAR}.complex_ops"], "count")
        out[f"{SCALAR}.self_s"] = (self.self_s[SCALAR], "s")
        out["scalars.rref.cells"] = (c["scalars.rref.cells"], "count")
        out["scalars.smith_normal_form.cells"] = (c["scalars.smith_normal_form.cells"], "count")
        out["search.valid_ratio"] = (c["search.valid"] / c["search.candidates"] if c["search.candidates"] else 0.0, "ratio")
        solves = self.calls["lie_obstruction.coboundary_solve"]
        out["lie_obstruction.coboundary_solve.none_ratio"] = (
            c["lie_obstruction.coboundary_solve.none"] / solves if solves else 0.0, "ratio")
        out["postgroup.enumerate_rb_operators.results"] = (c["postgroup.enumerate_rb_operators.results"], "count")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start - origin, "end": end - origin}) + "\n")
