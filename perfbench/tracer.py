"""In-memory span tracer that wraps scmdist from outside the package.

A span records (name, start, end, time covered by child spans, work).  A
layer's self time is its span's duration minus the time its child spans
cover.  Spans nest per thread; spans stay in memory until the caller reads
or saves them.  Events are zero-length records that never become a parent.

Wrappers go on every binding the package's callers use: modules import
functions by name (``from .kernel import gram_entries``), so a function is
replaced in every loaded ``scmdist`` module that holds it, not only where it
is defined.  Class methods are replaced on the class.

This module imports only the standard library, so a fresh interpreter can
time ``import scmdist`` before anything else loads numpy.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _chol_work(args, kwargs, _):
    factor, matrix = args[0], _arg(args, kwargs, 1, "matrix")
    requested = float(_arg(args, kwargs, 3, "jitter"))
    floor = getattr(sys.modules["scmdist.cache"], "JITTER_FLOOR", 1e-10)
    steps, jit = 0, requested
    while jit < factor.jitter_used:
        jit = floor if jit == 0.0 else jit * 10.0
        steps += 1
    n = matrix.shape[0]
    return {"gflop": (steps + 1) * n ** 3 / 3.0 / 1e9, "escalations": steps}


def _solve_work(args, kwargs, _):
    rhs = _arg(args, kwargs, 1, "rhs")
    n = rhs.shape[0]
    nrhs = rhs.shape[1] if rhs.ndim == 2 else 1
    return {"gflop": 2.0 * n * n * nrhs / 1e9}


def _mimd_work(args, kwargs, _):
    n1 = _arg(args, kwargs, 1, "d1").n
    n2 = _arg(args, kwargs, 3, "d2").n
    # three matvecs: K1 w1, K12 w2, K2 w2
    return {"quad_gflop": 2.0 * (n1 * n1 + n1 * n2 + n2 * n2) / 1e9}


def _mmd_work(args, kwargs, _):
    d1, d2 = _arg(args, kwargs, 0, "d1"), _arg(args, kwargs, 1, "d2")
    d, n1, n2 = len(d1.variable_names), d1.n, d2.n
    return {"gkernel_evals": d * (n1 * n1 + n2 * n2 + n1 * n2) / 1e9}


# (module, function, span name, work from (args, kwargs, result))
FUNCTIONS = [
    ("scmdist.kernel", "gram_entries", "kernel.gram_entries",
     lambda a, k, r: {"mb": r.nbytes / 1e6}),
    ("scmdist.kernel", "kernel_vector", "kernel.kernel_vector", None),
    ("scmdist.kernel", "median_heuristic", "kernel.median_heuristic", None),
    ("scmdist.embedding", "omega", "embedding.omega", lambda a, k, r: {r.case_tag: 1}),
    ("scmdist.embedding", "interventional_weights", "embedding.interventional_weights", None),
    ("scmdist.graph", "reachable", "graph.reachable", None),
    ("scmdist.distance", "mimd", "distance.mimd", _mimd_work),
    ("scmdist.distance", "mmd_vstat", "distance.mmd_vstat", _mmd_work),
    ("scmdist.synth", "sample_scm", "synth.sample_scm", None),
    ("scmdist.io", "load_dataset", "io.load_dataset",
     lambda a, k, r: {"mb": os.path.getsize(_arg(a, k, 0, "path")) / 1e6}),
    ("scmdist.io", "render_report", "io.render_report", None),
]

# (module, class, method, span name, work)
METHODS = [
    ("scmdist.cache", "CholFactor", "__init__", "cache.chol", _chol_work),
    ("scmdist.cache", "CholFactor", "solve", "cache.solve", _solve_work),
    ("scmdist.cache", "GramCache", "gram", "cache.gram", None),
    ("scmdist.cache", "GramCache", "factor", "cache.factor", None),
]

# name, unit, better, (aggregate, key) read from :func:`aggregate`
LAYER_METRICS = [
    ("cache.chol.count", "count", "lower", ("calls", "cache.chol")),
    ("cache.chol.s", "s", "lower", ("total", "cache.chol")),
    ("cache.chol.gflop", "GFLOP", "lower", ("work", "cache.chol.gflop")),
    ("cache.chol.jitter_escalations", "count", "lower", ("work", "cache.chol.escalations")),
    ("cache.solve.calls", "count", "lower", ("calls", "cache.solve")),
    ("cache.solve.s", "s", "lower", ("total", "cache.solve")),
    ("cache.solve.gflop", "GFLOP", "lower", ("work", "cache.solve.gflop")),
    ("cache.gram.calls", "count", "lower", ("calls", "cache.gram")),
    ("cache.gram.self_s", "s", "lower", ("self", "cache.gram")),
    ("cache.gram.rebuild_ratio", "ratio", "lower", ("rebuild", "gram")),
    ("cache.factor.calls", "count", "lower", ("calls", "cache.factor")),
    ("cache.factor.rebuild_ratio", "ratio", "lower", ("rebuild", "chol")),
    ("kernel.gram_entries.calls", "count", "lower", ("calls", "kernel.gram_entries")),
    ("kernel.gram_entries.s", "s", "lower", ("total", "kernel.gram_entries")),
    ("kernel.gram_entries.mb", "MB", "lower", ("work", "kernel.gram_entries.mb")),
    ("kernel.kernel_vector.calls", "count", "lower", ("calls", "kernel.kernel_vector")),
    ("kernel.kernel_vector.s", "s", "lower", ("total", "kernel.kernel_vector")),
    ("kernel.median_heuristic.s", "s", "lower", ("total", "kernel.median_heuristic")),
    ("embedding.omega.marginal", "count", "lower", ("work", "embedding.omega.marginal")),
    ("embedding.omega.conditional", "count", "lower", ("work", "embedding.omega.conditional")),
    ("embedding.omega.interventional", "count", "lower",
     ("work", "embedding.omega.interventional")),
    ("embedding.omega.self_s", "s", "lower", ("self", "embedding.omega")),
    ("embedding.interventional_weights.self_s", "s", "lower",
     ("self", "embedding.interventional_weights")),
    ("graph.reachable.calls", "count", "lower", ("calls", "graph.reachable")),
    ("graph.reachable.s", "s", "lower", ("total", "graph.reachable")),
    ("distance.mimd.calls", "count", "lower", ("calls", "distance.mimd")),
    ("distance.mimd.self_s", "s", "lower", ("self", "distance.mimd")),
    ("distance.quad.gflop", "GFLOP", "lower", ("work", "distance.mimd.quad_gflop")),
    ("distance.mmd_vstat.s", "s", "lower", ("total", "distance.mmd_vstat")),
    ("distance.mmd_vstat.gkernel_evals", "Geval", "lower",
     ("work", "distance.mmd_vstat.gkernel_evals")),
    ("synth.sample_scm.s", "s", "lower", ("total", "synth.sample_scm")),
    ("io.load_dataset.s", "s", "lower", ("total", "io.load_dataset")),
    ("io.load_dataset.mb", "MB", "lower", ("work", "io.load_dataset.mb")),
    ("io.render_report.s", "s", "lower", ("total", "io.render_report")),
    ("cli.import_s", "s", "lower", ("total", "cli.import")),
    ("cli.main.s", "s", "lower", ("total", "cli.main")),
    ("cli.predicted_work", "ops", "lower", ("work", "cli.guardrail.predicted_work")),
    ("trace.overhead_s", "s", "lower", None),
]


class Tracer:
    """Collects spans and events from wrapped scmdist functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, child_s, work]
        self.missing: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_span(self, name, start, end, work=None):
        self.spans.append([name, start, end, 0.0, work])

    def event(self, name, work):
        t = time.perf_counter()
        self.spans.append([name, t, t, 0.0, work])

    def wrap(self, fn, name, work=None):
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, time.perf_counter(), 0.0, 0.0, None]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += rec[2] - rec[1]
                self.spans.append(rec)
            if work is not None:
                rec[4] = work(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target that exists; note the ones that do not."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "scmdist" or n.startswith("scmdist."))]
        for module, attr, name, work in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = self.wrap(original, name, work)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)
        for module, cls_name, attr, name, work in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._replace(cls, attr, self.wrap(vars(cls)[attr], name, work))
        self._install_cache_events()

    def _install_cache_events(self):
        # One event per cache lookup: its key and whether it was built.  Not
        # a span, so lock waits and builds stay in the caller's self time.
        cls = getattr(sys.modules["scmdist.cache"], "GramCache")
        original = vars(cls).get("_get_or_build")
        if original is None:
            self.missing.append("scmdist.cache.GramCache._get_or_build")
            return
        tracer = self

        @functools.wraps(original)
        def get_or_build(cache, key, build):
            built = []

            def counted():
                built.append(True)
                return build()

            entry = original(cache, key, counted)
            tracer.event("cache.lookup", {"kind": str(key[0]), "key": repr(key),
                                          "built": bool(built)})
            return entry

        self._replace(cls, "_get_or_build", get_or_build)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def span(self, name):
        """Record the ``with`` block as one top-level span named ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter())


def aggregate(spans) -> dict:
    """Per-name call counts, total and self seconds, summed work, rebuild ratios."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(float)
    keys = defaultdict(set)
    builds = defaultdict(int)
    for name, start, end, child_s, w in spans:
        if name == "cache.lookup":
            keys[w["kind"]].add(w["key"])
            builds[w["kind"]] += w["built"]
            continue
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s
        for key, value in (w or {}).items():
            work[f"{name}.{key}"] += value
    rebuild = {kind: builds[kind] / len(keys[kind]) for kind in keys}
    return {"calls": calls, "total": total, "self": self_s, "work": work,
            "rebuild": defaultdict(float, rebuild)}


def layer_values(spans) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, from one job's spans."""
    agg = aggregate(spans)
    return {name: float(agg[source[0]][source[1]])
            for name, _, _, source in LAYER_METRICS if source is not None}
