"""In-memory span recorder and the per-layer instrumentation of ``gsp``.

A span is ``(name, start, end, parent)``.  Spans are recorded by wrappers that
the benchmark installs around public functions of the package modules (no
source file of the package is changed), kept in memory, and reduced to a
per-layer table when the run ends.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

#: Modules of the package, one layer each.
LAYERS = ("graphs", "objective", "duality", "proxgrad", "proxnewton", "pipeline", "cli")


class SpanRecorder:
    """Spans of one thread, kept in memory; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its child spans."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def table(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self seconds)``."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, s in zip(self.names, self.self_times()):
            calls[name] += 1
            self_s[name] += s
        return {name: (calls[name], self_s[name]) for name in calls}

    def table_by_parent(self, name: str, parent: str) -> tuple[int, float]:
        """Calls and self time of ``name`` spans whose parent span is ``parent``."""
        calls, total = 0, 0.0
        for idx, s in enumerate(self.self_times()):
            p = self.parents[idx]
            if self.names[idx] == name and p >= 0 and self.names[p] == parent:
                calls += 1
                total += s
        return calls, total


# -- instrumentation --------------------------------------------------------


def _iterations(args, kwargs, out, rec, key):
    rec.count(key, out[1].iterations)


def _not_pd(args, kwargs, out, rec):
    if out is None:
        rec.count("graphs.cholesky.not_pd")


def _active_size(args, kwargs, out, rec, signature):
    bound = signature.bind(*args, **kwargs)
    rec.count("proxnewton.active_size_sum", len(bound.arguments["active"]))


def _points(args, kwargs, out, rec):
    rec.count("pipeline.points", len(out))


def _trial(args, kwargs, out, rec):
    parent = rec.current()
    if parent in ("proxgrad.solve_projected", "proxgrad.solve_ista"):
        rec.count("proxgrad.trial_points")
    elif parent == "proxnewton.line_search":
        rec.count("proxnewton.ls_trials")


#: (span name, module, attribute, after-call hook).  The hook runs once the
#: span is closed, so ``rec.current()`` in it names the caller's span.
TARGETS = (
    ("graphs.validate", "gsp.graphs", "EdgeList.__post_init__", None),
    ("graphs.validate", "gsp.graphs", "IncidenceMatrix.__post_init__", None),
    ("graphs.validate", "gsp.graphs", "Problem.__post_init__", None),
    ("graphs.controller_laplacian", "gsp.graphs", "controller_laplacian", None),
    ("graphs.cholesky", "gsp.graphs", "try_cholesky", _not_pd),
    ("graphs.cho_solve", "gsp.graphs", "ClosedLoop.solve", None),
    ("graphs.read_edge_list", "gsp.graphs", "read_edge_list", None),
    ("objective.closed_loop", "gsp.objective", "Objective.closed_loop", _trial),
    ("objective.state", "gsp.objective", "Objective.state", None),
    ("objective.value_at", "gsp.objective", "Objective.value_at", None),
    ("duality.certify", "gsp.duality", "certify", None),
    ("duality.dual_objective", "gsp.duality", "dual_objective", None),
    ("proxgrad.solve_projected", "gsp.proxgrad", "solve_projected",
     functools.partial(_iterations, key="proxgrad.iters")),
    ("proxgrad.solve_ista", "gsp.proxgrad", "solve_ista",
     functools.partial(_iterations, key="proxgrad.iters")),
    ("proxnewton.solve_newton", "gsp.proxnewton", "solve_newton",
     functools.partial(_iterations, key="proxnewton.outer_iters")),
    ("proxnewton.cd_direction", "gsp.proxnewton", "cd_direction", _active_size),
    ("proxnewton.line_search", "gsp.proxnewton", "line_search", None),
    ("pipeline.gamma_max", "gsp.pipeline", "gamma_max", None),
    ("pipeline.solve_centralized", "gsp.pipeline", "solve_centralized", None),
    ("pipeline.polish", "gsp.pipeline", "polish", None),
    ("pipeline.sweep", "gsp.pipeline", "sweep", _points),
    ("pipeline.reweighted_path", "gsp.pipeline", "reweighted_path", _points),
    ("cli.run", "gsp.cli", "run", None),
    ("cli.write_tradeoff_csv", "gsp.cli", "write_tradeoff_csv", None),
)


def _wrap(fn, name, rec, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(args, kwargs, out, rec)
        return out

    return traced


class Instrumentation:
    """Installs span wrappers into the package and removes them again.

    A module-level function is replaced in every ``gsp`` module that holds
    it under its name (``from .graphs import closed_loop`` copies the
    reference); a method is replaced on its class.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "gsp" or k.startswith("gsp.")) and m is not None]
        for name, modname, attr, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, _wrap(original, name, self.rec, hook))
                continue
            original = getattr(owner, attr)
            if hook is _active_size:
                hook = functools.partial(hook, signature=inspect.signature(original))
            wrapper = _wrap(original, name, self.rec, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        return self.rec

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)
        return False


# -- per-layer metrics ------------------------------------------------------

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
SPAN_METRICS = (
    "graphs.validate", "graphs.controller_laplacian", "graphs.cholesky",
    "graphs.cho_solve", "graphs.read_edge_list",
    "objective.state", "objective.value_at",
    "duality.certify", "duality.dual_objective",
    "proxgrad.solve_projected", "proxgrad.solve_ista",
    "proxnewton.solve_newton", "proxnewton.cd_direction", "proxnewton.line_search",
    "pipeline.gamma_max", "pipeline.solve_centralized", "pipeline.polish",
    "cli.run", "cli.write_tradeoff_csv",
)

#: Counters reported as they are.
COUNT_METRICS = (
    "graphs.cholesky.not_pd", "proxgrad.iters", "proxgrad.trial_points",
    "proxnewton.outer_iters", "proxnewton.active_size_sum", "proxnewton.ls_trials",
    "pipeline.points",
)


def layer_metrics(rec: SpanRecorder, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round averages of every span and counter: ``name -> (value, unit)``."""
    table = rec.table()
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        calls, self_s = table.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.self_s"] = (self_s / rounds, "s")
    for name in COUNT_METRICS:
        out[name] = (rec.counts[name] / rounds, "count")
    calls, self_s = rec.table_by_parent("graphs.cho_solve", "proxnewton.solve_newton")
    out["proxnewton.ginv.calls"] = (calls / rounds, "count")
    out["proxnewton.ginv.self_s"] = (self_s / rounds, "s")
    # the edge-list check re-run on every closed-loop assembly
    calls, self_s = rec.table_by_parent("graphs.validate", "graphs.controller_laplacian")
    out["graphs.validate_in_laplacian.calls"] = (calls / rounds, "count")
    out["graphs.validate_in_laplacian.self_s"] = (self_s / rounds, "s")
    trials = rec.counts["proxgrad.trial_points"]
    out["proxgrad.accept_ratio"] = (
        rec.counts["proxgrad.iters"] / trials if trials else 0.0, "ratio")
    active = rec.counts["proxnewton.active_size_sum"]
    cd_self = table.get("proxnewton.cd_direction", (0, 0.0))[1]
    out["proxnewton.cd_s_per_active"] = (cd_self / active if active else 0.0, "s")
    return out
