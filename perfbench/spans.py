"""Spans around mvtc's public functions, recorded from outside the package.

mvtc's modules import names directly (``from .anchors import
select_anchors``), so a hook replaces the name where the caller looks it
up -- ``mvtc.pipeline.select_anchors``, ``mvtc.solver.cho_factor`` -- not
where it is defined.  A hook whose target is missing (renamed or inlined
at a later commit) is recorded as absent and the run goes on.

Spans carry a name, start, end and parent; they stay in memory until the
run ends.  A span's self time is its duration minus that of its direct
children, so the self times of one operation's spans add up to the
operation's wall time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module the caller looks the name up in, attribute path there, span name)
HOOKS = (
    ("mvtc.pipeline", "sample_norm_order", "pipeline.norm_order"),
    ("mvtc.pipeline", "select_anchors", "anchors.select"),
    ("mvtc.anchors", "estimate_kernel_width", "anchors.kernel_width"),
    ("mvtc.pipeline", "build_all_graphs", "anchors.graph"),
    ("mvtc.pipeline", "solver_run", "solver.run"),
    ("mvtc.solver", "update_projection", "solver.projection"),
    ("mvtc.solver", "cho_factor", "solver.cholesky"),
    ("mvtc.solver", "update_embedding", "solver.embedding"),
    ("mvtc.solver", "lowfreq_truncate", "tensor_ops.lowfreq"),
    ("mvtc.solver", "update_consensus", "solver.consensus"),
    ("mvtc.solver", "objective_value", "solver.objective"),
    ("mvtc.pipeline", "kmeans_fit", "clustering.kmeans"),
    ("mvtc.clustering", "assign_labels", "clustering.assign"),
    ("mvtc.pipeline", "clustering_scores", "metrics.scores"),
    ("mvtc.pipeline", "RunReport.to_json", "pipeline.report_write"),
)

# Spans the benchmark opens itself, around its own calls into mvtc.  LOAD
# covers an operation's input step and SAVE the set-up step that stores an
# input: load_dataset and save_dataset on the disk workload, handing over or
# keeping the in-memory dataset on the others (microseconds, not zero).
OP = "op"
PIPELINE = "pipeline.run"
LOAD = "data.load"
GENERATE = "data.generate"
SAVE = "data.save"

# Zero-length marks: one per solver iteration (from the solver callback)
# and one per k-means fit, carrying its Lloyd iteration count.
ITERATION = "solver.iteration"
LLOYD = "clustering.lloyd_iters"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    marks: list[tuple[str, float, int]] = field(default_factory=list)
    hooks: list[dict] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def mark(self, name: str, value: int = 1):
        self.marks.append((name, time.perf_counter(), value))

    def install(self, hooks=HOOKS):
        """Wrap every hook target that exists; record each as installed or absent."""
        for module_name, path, span_name in hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.hooks.append({"target": f"{module_name}.{path}", "span": span_name,
                                   "installed": False})
                continue
            setattr(owner, attr, self._wrap(original, span_name))
            self._restore.append((owner, attr, original))
            self.hooks.append({"target": f"{module_name}.{path}", "span": span_name,
                               "installed": True})

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            if name == "solver.run":
                inner = kwargs.get("callback")

                def callback(state):
                    self.mark(ITERATION)
                    if inner is not None:
                        inner(state)

                kwargs["callback"] = callback
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "clustering.kmeans":
                self.mark(LLOYD, int(result.n_iter))
            return result

        return functools.wraps(fn)(wrapper)

    def to_dict(self) -> dict:
        return {
            "hooks": self.hooks,
            "spans": [asdict(s) for s in self.spans],
            "marks": [list(m) for m in self.marks],
        }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span less the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def operation_profile(tracer: Tracer, root: int, sizes: dict) -> dict:
    """Per-module figures of one traced operation (the ``op`` span at ``root``).

    ``sizes`` holds the workload's N, M, V, sum of view dims and the
    input's size on disk in MB.  The ``*_computed`` figures are derived from
    them: counts of arithmetic and bytes, not measurements.
    """
    spans = tracer.spans
    own = self_times(spans)
    idx = subtree(spans, root)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in idx:
        name = spans[i].name
        total[name] = total.get(name, 0.0) + spans[i].end - spans[i].start
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
    op = spans[root]
    in_op = [(n, t, v) for n, t, v in tracer.marks if op.start <= t <= op.end]
    iteration_marks = [t for n, t, _ in in_op if n == ITERATION]

    def first_start(name: str) -> float | None:
        return next((spans[i].start for i in idx if spans[i].name == name), None)

    solve_start = first_start("solver.run")
    loop_start = first_start("solver.projection")
    preloop = loop_start - solve_start if None not in (solve_start, loop_start) else 0.0
    bounds = ([loop_start] if loop_start is not None else []) + iteration_marks
    iter_times = [b - a for a, b in zip(bounds, bounds[1:])]

    n, m, v, dsum = sizes["n"], sizes["m"], sizes["v"], sizes["dsum"]
    graph_flop = 2.0 * m * n * dsum
    graph_bytes = 8.0 * (dsum * n + dsum * m + v * m * n)
    graph_s = total.get("anchors.graph", 0.0)
    load_s = total.get(LOAD, 0.0)
    return {
        "anchors.graph_s": graph_s,
        "anchors.kernel_width_s": total.get("anchors.kernel_width", 0.0),
        "anchors.select_self_s": self_s.get("anchors.select", 0.0),
        "anchors.graph_gflop": graph_flop / 1e9,
        "anchors.graph_out_mb": 8.0 * v * m * n / 1e6,
        "anchors.graph_flop_per_byte": graph_flop / graph_bytes,
        "anchors.graph_gflop_per_s": graph_flop / 1e9 / graph_s if graph_s > 0 else 0.0,
        "solver.preloop_s": preloop,
        "solver.iter_s": statistics.median(iter_times) if iter_times else 0.0,
        "solver.iterations": len(iteration_marks),
        "solver.projection_s": self_s.get("solver.projection", 0.0),
        "solver.cholesky_s": total.get("solver.cholesky", 0.0),
        "solver.cholesky_calls": calls.get("solver.cholesky", 0),
        "solver.embedding_s": total.get("solver.embedding", 0.0),
        "solver.consensus_s": total.get("solver.consensus", 0.0),
        "solver.objective_s": total.get("solver.objective", 0.0),
        "solver.self_s": self_s.get("solver.run", 0.0),
        "solver.gram_gflop": 2.0 * m * m * n * v / 1e9,
        "tensor_ops.lowfreq_s": total.get("tensor_ops.lowfreq", 0.0),
        "tensor_ops.lowfreq_calls": calls.get("tensor_ops.lowfreq", 0),
        "clustering.kmeans_s": total.get("clustering.kmeans", 0.0),
        "clustering.assign_s": total.get("clustering.assign", 0.0),
        "clustering.assign_calls": calls.get("clustering.assign", 0),
        "clustering.lloyd_iters": sum(val for name, _, val in in_op if name == LLOYD),
        "data.load_s": load_s,
        "data.load_mb_per_s": sizes["input_mb"] / load_s if load_s > 0 else 0.0,
        "metrics.scores_s": total.get("metrics.scores", 0.0),
        "pipeline.self_s": self_s.get(PIPELINE, 0.0),
        "pipeline.norm_order_s": total.get("pipeline.norm_order", 0.0),
        "pipeline.report_write_s": total.get("pipeline.report_write", 0.0),
        "trace.run_s": op.end - op.start,
    }


def nesting_errors(spans: list[Span], tol: float = 1e-6) -> int:
    """Spans that end before they start or that stick out of their parent."""
    bad = 0
    for s in spans:
        if not s.end >= s.start:
            bad += 1
        elif s.parent >= 0:
            p = spans[s.parent]
            bad += s.start < p.start - tol or s.end > p.end + tol
    return bad
