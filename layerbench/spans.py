"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` keeps spans in memory as
``(run_id, span_id, parent_id, layer, name, start, end)`` tuples and can
patch the public functions of the ``repro`` modules so that every call
records a span. Nothing under ``src/`` is edited: the wrappers replace
module attributes while tracing is on and the originals are put back when
it is turned off.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. Because every
top-level unit of a round is itself a span (layer ``bench``), the layer
self times of a round add up exactly to the round's traced wall time.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, layer). Names imported into another module (for
# example ``seacd`` and ``refine`` inside ``repro.core.newsea``) must be
# patched in the importing module, since that is where calls look them up.
TARGETS = [
    ("repro.graphgen.titles", "keyword_graphs", "graphgen"),
    ("repro.graphgen.signed", "interaction_graphs", "graphgen"),
    ("repro.graphgen.bigco", "dblpc_graphs", "graphgen"),
    ("repro.graphgen.bigco", "actor_graph", "graphgen"),
    ("repro.graphgen.coauthor", "events", "graphgen"),
    ("repro.graphgen.coauthor", "era_graphs", "graphgen"),
    ("repro.graph.difference", "canonicalize", "graph"),
    ("repro.graph.difference", "difference", "graph"),
    ("repro.graph.difference", "flip", "graph"),
    ("repro.graph.difference", "discretize", "graph"),
    ("repro.graph.difference", "cap_weights", "graph"),
    ("repro.graph.local", "collect_graph", "local"),
    ("repro.core.kbounds", "smart_init_bounds_local", "kbounds"),
    ("repro.core.newsea", "newsea", "newsea"),
    ("repro.core.newsea", "seacd_refine_full", "newsea"),
    ("repro.core.newsea", "sea_refine_full", "newsea"),
    ("repro.core.newsea", "seacd", "seacd"),
    ("repro.core.newsea", "refine", "refine"),
    ("repro.core.newsea", "sea", "sea"),
    ("repro.core.sea", "sea", "sea"),
    ("repro.core.refine", "refine", "refine"),
    ("repro.core.dcsad", "dcs_greedy", "dcsad"),
    ("repro.core.dcsad", "greedy_only", "dcsad"),
    ("repro.core.dcsad", "greedy_peel", "peel"),
    ("repro.tables.table05_06", "dedup_cliques", "tables"),
    ("repro.tables.common", "fmt_table", "tables"),
]
KKT_TOL = 1e-2  # the paper's gradient tolerance, divided by |S|

# Methods patched on their class: (module, class, method, layer).
METHOD_TARGETS = [
    ("repro.graph.local", "LocalGraph", "positive_part", "local"),
    ("pyspark.sql.classic.dataframe", "DataFrame", "toPandas", "local"),
]


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.run_id = 0
        self._stack: list = []
        self._next_id = 0
        self._saved: list = []

    # -- spans -------------------------------------------------------------
    def begin(self, layer: str, name: str) -> tuple:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_id)
        return (self._next_id, parent, layer, name, time.perf_counter())

    def end(self, token: tuple) -> float:
        t1 = time.perf_counter()
        span_id, parent, layer, name, t0 = token
        self._stack.pop()
        self.spans.append((self.run_id, span_id, parent, layer, name, t0, t1))
        return t1 - t0

    def self_times(self, run_id: int) -> dict:
        """{top-level span name: {layer: self seconds}} for one round."""
        spans = [s for s in self.spans if s[0] == run_id]
        child = defaultdict(float)
        for _, _, parent, _, _, t0, t1 in spans:
            child[parent] += t1 - t0
        by_id = {s[1]: s for s in spans}
        out: dict = defaultdict(lambda: defaultdict(float))
        for _, sid, parent, layer, _, t0, t1 in spans:
            top = sid
            while by_id[top][2] != 0:
                top = by_id[top][2]
            out[by_id[top][4]][layer] += (t1 - t0) - child[sid]
        return out

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, layer, attr))
        for mod_name, cls_name, meth, layer in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[meth]  # defined on this class, not inherited
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, layer, meth))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, layer: str, name: str):
        after = {
            "seacd": self._count_seacd,
            "sea": self._count_sea,
            "refine": self._count_refine,
            "toPandas": self._count_rows,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(token)
            if after is not None:
                token = self.begin("trace", "count")
                try:
                    after(args, out)
                finally:
                    self.end(token)
            return out

        return wrapper

    # -- counters read from returned records --------------------------------
    def _count_seacd(self, args, out) -> None:
        stats = out[2]
        self.counts["seacd.shrink_iters"] += stats.shrink_iters
        self.counts["seacd.outer_iters"] += stats.outer_iters
        self.counts["seacd.expansion_errors"] += stats.expansion_errors

    def _count_sea(self, args, out) -> None:
        self.counts["sea.expansion_errors"] += out[2].expansion_errors

    def _count_rows(self, args, out) -> None:
        self.counts["local.rows_collected"] += len(out)

    def _count_refine(self, args, out) -> None:
        """Count refined outputs that are not global KKT points on G_D+."""
        _, x, p = args[:3]
        if not x:
            return
        f = sum(v * p.get(u, 0.0) for u, v in x.items())
        tol = KKT_TOL / len(x)
        on_s = [p.get(u, 0.0) for u in x]
        outside = max(
            (pi for i, pi in p.items() if i not in x), default=-float("inf")
        )
        if 2.0 * (max(on_s) - min(on_s)) > tol or outside > f + tol:
            self.counts["refine.non_kkt"] += 1
