"""Spans around su11kit's layers, recorded from outside the package.

:class:`Tracer` wraps every public function of ``linops``, ``reps``,
``algebra``, ``reduction`` and ``cli``, plus ``cli._render``, and the
``__init__`` and ``__matmul__`` methods of ``OperatorMatrix``. The modules
import each other's names with ``from .x import y``, so a wrapper is bound in
every su11kit module that holds the original, not only where it is defined.
Spans (name, start, end, parent, pass) are appended to a list in memory;
layer metrics are derived from them afterwards. A matmul with an interior
projector as an operand is a projection product: those are the
``proj @ op @ proj`` steps of every projected residual, wherever they run. ``install`` and ``uninstall``
swap the wrappers in and out, so traced and untraced passes can alternate in
one process.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("linops", "reps", "algebra", "reduction", "cli")
MIB = 2.0 ** 20

# Span record fields.
NAME, START, END, PARENT, PASS, SIZE, KEPT = range(7)

INIT = "linops.OperatorMatrix.__init__"
MATMUL = "linops.OperatorMatrix.__matmul__"
PROJECTORS = ("linops.interior_projector", "algebra.masked_interior",
              "reduction.pair_subspace")
CHECKS = ("algebra.check_commutators", "algebra.check_casimir",
          "algebra.check_adjointness", "algebra.check_transfo",
          "algebra.compare_triples")


class Tracer:
    """Records spans of su11kit calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        # Interior projectors alive now, with their kept (nonzero) state count.
        self._kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build_swaps()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(record, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _after_init(self, record, args, kwargs, result) -> None:
        record[SIZE] = args[0].entries.shape[0]

    def _after_matmul(self, record, args, kwargs, result) -> None:
        left, right = args
        record[SIZE] = left.entries.shape[0]
        record[KEPT] = self._kept.get(left) or self._kept.get(right) or 0

    def _after_projector(self, record, args, kwargs, result) -> None:
        if record[NAME] != "reduction.pair_subspace":
            self._kept[result] = int(np.count_nonzero(np.diagonal(result.entries)))

    def _after_build(self, record, args, kwargs, result) -> None:
        record[SIZE] = result.entries.shape[0]

    def _after_verify(self, record, args, kwargs, result) -> None:
        pairs = args[1] if len(args) > 1 else kwargs.get("n_pairs", 16)
        record[SIZE] = int(pairs) + 2

    def _build_swaps(self) -> None:
        import su11kit
        from su11kit.linops import OperatorMatrix

        hooks = {
            "reduction.build_direct_hamiltonian": self._after_build,
            "reduction.verify_reduction": self._after_verify,
            **{name: self._after_projector for name in PROJECTORS},
        }
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"su11kit.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr == "_render")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for module in [su11kit] + [sys.modules[f"su11kit.{m}"] for m in MODULES]:
            for attr, obj in vars(module).items():
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._swaps.append((module, attr, obj, wrappers[id(obj)]))
        for attr, name, after in (("__init__", INIT, self._after_init),
                                  ("__matmul__", MATMUL, self._after_matmul)):
            original = OperatorMatrix.__dict__[attr]
            self._swaps.append((OperatorMatrix, attr, original,
                                self._wrap(name, original, after)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,pass,size,kept\n")
            for s in self.spans:
                handle.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                             f"{s[PASS]},{s[SIZE]},{s[KEPT]}\n")


# -- layer metrics ------------------------------------------------------------

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("reps.build_calls", "count"), ("reps.build_s", "s"),
    ("linops.construct_calls", "count"), ("linops.construct_s", "s"),
    ("linops.construct_mb", "MiB"),
    ("linops.matmul_calls", "count"), ("linops.matmul_s", "s"),
    ("linops.matmul_gflop", "GFLOP"),
    ("linops.eigh_calls", "count"), ("linops.eigh_s", "s"),
    ("linops.tensor_s", "s"), ("linops.projector_s", "s"),
    ("algebra.check_s", "s"), ("algebra.projection_matmul_calls", "count"),
    ("algebra.projection_s", "s"), ("algebra.kept_fraction", "ratio"),
    ("reduction.build_s", "s"), ("reduction.verify_s", "s"),
    ("reduction.largest_matrix_mb", "MiB"), ("reduction.pair_fraction", "ratio"),
    ("cli.parse_s", "s"), ("cli.run_s", "s"), ("cli.render_s", "s"),
]

# Metrics that depend only on which calls were made; two traced runs of one
# workload must repeat them exactly.
COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit != "s"]

# Layer time fitted against matrix dimension, and the sweep set it is fitted on.
EXPONENTS = {
    "reps.build": "single", "linops.construct": "single",
    "linops.matmul": "single", "linops.eigh": "single",
    "linops.tensor": "two_mode", "linops.projector": "single",
    "algebra.check": "single", "algebra.projection": "single",
    "reduction.build": "pairs", "reduction.verify": "pairs",
}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _outermost(spans: list[list], i: int, in_group) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if in_group(spans[parent][NAME]):
            return False
        parent = spans[parent][PARENT]
    return True


def _is_reps(name: str) -> bool:
    return name.startswith("reps.")


def layer_metrics(spans: list[list], own: list[float], ids: list[int]) -> dict[str, float]:
    """Per-layer metrics of the spans ``ids`` (one pass), from the whole span list.

    Times are self times (``own``) except reps.build_s, reduction.build_s,
    linops.tensor_s, linops.projector_s, linops.eigh_s and cli.parse_s, which
    are inclusive times of the outermost span of their group. cli.render_s is
    ``cli._render`` plus the self time of ``cli.main`` (printing).
    """
    m = {name: 0.0 for name, _ in LAYER_METRICS}
    kept2 = full2 = pair_d = pair_d2 = 0.0
    for i in ids:
        s = spans[i]
        name, inclusive = s[NAME], s[END] - s[START]
        if name.startswith("reps."):
            if _outermost(spans, i, _is_reps):
                m["reps.build_calls"] += 1
                m["reps.build_s"] += inclusive
        elif name == INIT:
            m["linops.construct_calls"] += 1
            m["linops.construct_s"] += own[i]
            m["linops.construct_mb"] += 16.0 * s[SIZE] ** 2 / MIB
        elif name == MATMUL:
            m["linops.matmul_calls"] += 1
            m["linops.matmul_s"] += own[i]
            m["linops.matmul_gflop"] += 8.0 * s[SIZE] ** 3 / 1e9
            if s[KEPT]:
                m["algebra.projection_matmul_calls"] += 1
                m["algebra.projection_s"] += own[i]
                kept2 += s[KEPT] ** 2
                full2 += s[SIZE] ** 2
        elif name == "linops.hermitian_eigensystem":
            m["linops.eigh_calls"] += 1
            m["linops.eigh_s"] += inclusive
        elif name == "linops.tensor":
            m["linops.tensor_s"] += inclusive
        elif name in PROJECTORS:
            if _outermost(spans, i, PROJECTORS.__contains__):
                m["linops.projector_s"] += inclusive
        elif name in CHECKS:
            m["algebra.check_s"] += own[i]
        elif name == "reduction.build_direct_hamiltonian":
            m["reduction.build_s"] += inclusive
            m["reduction.largest_matrix_mb"] = max(
                m["reduction.largest_matrix_mb"], 16.0 * s[SIZE] ** 2 / MIB)
        elif name == "reduction.verify_reduction":
            m["reduction.verify_s"] += own[i]
            pair_d += s[SIZE]
            pair_d2 += s[SIZE] ** 2
        elif name == "cli.parse_args":
            m["cli.parse_s"] += inclusive
        elif name == "cli.run":
            m["cli.run_s"] += own[i]
        elif name == "cli._render":
            m["cli.render_s"] += inclusive
        elif name == "cli.main":
            m["cli.render_s"] += own[i]
    m["algebra.kept_fraction"] = kept2 / full2 if full2 else 0.0
    m["reduction.pair_fraction"] = pair_d / pair_d2 if pair_d2 else 0.0
    return m


def by_pass(spans: list[list]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        groups[s[PASS]].append(i)
    return groups


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each time over passes; counts must agree between passes."""
    out = {}
    for name, unit in LAYER_METRICS:
        values = [m[name] for m in per_pass]
        out[name] = (statistics.median(values) if unit == "s"
                     else int(values[0]) if unit == "count" else values[0])
    repeat = all(m[name] == per_pass[0][name] for m in per_pass for name in COUNT_METRICS)
    return out, repeat


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
