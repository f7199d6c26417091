"""Span tracing of calls into the library, installed from outside it.

`Tracer.install` replaces each traced function with a wrapper in every
`bidiforms` module namespace that binds it (and on the class, for methods),
so calls between library modules are seen too. Each call becomes a span
(name, parent span, start, end) kept in flat arrays; self time is a span's
duration minus the durations of its direct children. Functions that run too
often to time are only counted.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, qualified name, timed)
TARGETS = (
    ("exact_linalg", "psd_rank", True),
    ("exact_linalg", "integer_kernel", True),
    ("exact_linalg", "IntMatrix.rank", True),
    ("exact_linalg", "IntMatrix.det", True),
    ("exact_linalg", "IntMatrix.__matmul__", True),
    ("qform", "analyze", True),
    ("qform", "IntegralQuadraticForm.evaluate", False),
    ("qform", "IntegralQuadraticForm.compose", True),
    ("qform", "IntegralQuadraticForm.restrict", True),
    ("bidigraph", "balance", True),
    ("bidigraph", "rank_corank", True),
    ("bidigraph", "BidirectedGraph.incidence_form", True),
    ("bidigraph", "graph_gabrielov", True),
    ("walks", "brute_force_roots", True),
    ("walks", "theorem_c_roots", True),
    ("walks", "walk_root_cover", True),
    ("walks", "roots_positive", True),
    ("classify", "dynkin_type", True),
    ("classify", "one_root_count", True),
    ("classify", "positive_core", True),
    ("classify", "first_root_with_value", True),
    ("classify", "realize", True),
    ("classify", "star_realization", True),
    ("classify", "canonical_c", True),
    ("roots_dioph", "solve", True),
    ("gentle", "euler_pipeline", True),
    ("gentle", "threads", True),
    ("gentle", "cartan", True),
)
LAYERS = ("exact_linalg", "qform", "bidigraph", "walks", "classify", "roots_dioph", "gentle")
STRATEGIES = ("zero", "canonical-C4", "canonical-D4-search", "walk-sum", "brute-force")
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.name_id = {OP: 0}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.calls = {}  # name -> call count, for counted-only functions
        self.box_points = 0
        self.strategies = dict.fromkeys(STRATEGIES, 0)
        self._restore = []

    # -- spans --------------------------------------------------------------

    def open(self, f):
        sid = len(self.fid)
        self.fid.append(f)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter_ns()
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        f = len(self.names)
        self.names.append(name)
        self.name_id[name] = f
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            sid = open_(f)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        self.calls[name] = 0
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_box(self, args, kwargs, result):
        q = args[0]
        bound = args[2] if len(args) > 2 else kwargs["bound"]
        self.box_points += (2 * bound + 1) ** q.n

    def _count_strategy(self, args, kwargs, rep):
        self.strategies[rep.strategy] = self.strategies.get(rep.strategy, 0) + 1

    def install(self):
        """Wrap every target in the already imported `bidiforms` modules."""
        hooks = {"walks.brute_force_roots": self._count_box, "roots_dioph.solve": self._count_strategy}
        modules = [m for k, m in list(sys.modules.items()) if k == "bidiforms" or k.startswith("bidiforms.")]
        for module, qualname, timed in TARGETS:
            home = sys.modules[f"bidiforms.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self._timed(name, orig) if timed else self._counted(name, orig)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(home, qualname)
            wrapped = self._timed(name, orig, hooks.get(name))
            for attr in ("cache_info", "cache_clear"):
                if hasattr(orig, attr):
                    setattr(wrapped, attr, getattr(orig, attr))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(calls, self_ns) per span name, from the recorded spans."""
        n = len(self.fid)
        child = array("q", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid in range(n):
            f = self.fid[sid]
            calls[f] += 1
            self_ns[f] += self.end[sid] - self.start[sid] - child[sid]
        return {name: (calls[f], self_ns[f]) for f, name in enumerate(self.names)}

    def count_children(self, child_name, parent_name):
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        c = self.name_id.get(child_name)
        p = self.name_id.get(parent_name)
        if c is None or p is None:
            return 0
        return sum(
            1 for sid in range(len(self.fid))
            if self.fid[sid] == c and self.parent[sid] >= 0 and self.fid[self.parent[sid]] == p
        )

    def metrics(self, scale, analyze_info):
        """Per-layer metrics as {name: {"value", "unit"}}; self times are multiplied by `scale`."""
        stats = self.self_times()
        out = {}
        for module, qualname, timed in TARGETS:
            name = f"{module}.{qualname}"
            if timed:
                calls, self_ns = stats.get(name, (0, 0))
                out[f"{name}.calls"] = (calls, "count")
                out[f"{name}.self_s"] = (self_ns / 1e9 * scale, "s")
            else:
                out[f"{name}.calls"] = (self.calls[name], "count")
        for layer in LAYERS:
            own = [(k, v) for k, (v, _) in out.items() if k.startswith(layer + ".")]
            out[f"{layer}.calls"] = (sum(v for k, v in own if k.endswith(".calls")), "count")
            out[f"{layer}.self_s"] = (sum(v for k, v in own if k.endswith(".self_s")), "s")
        out[f"{OP}.self_s"] = (stats[OP][1] / 1e9 * scale, "s")
        lookups = analyze_info.hits + analyze_info.misses
        out["qform.analyze.cache_hits"] = (analyze_info.hits, "count")
        out["qform.analyze.cache_misses"] = (analyze_info.misses, "count")
        out["qform.analyze.cache_hit_ratio"] = (analyze_info.hits / lookups if lookups else 0.0, "ratio")
        out["walks.brute_force_roots.box_points"] = (self.box_points, "count")
        for strategy in STRATEGIES:
            out[f"roots_dioph.solve.strategy.{strategy}"] = (self.strategies[strategy], "count")
        solves = stats.get("roots_dioph.solve", (0, 0))[0]
        canon = self.count_children("classify.canonical_c", "roots_dioph.solve")
        out["roots_dioph.solve.canonical_c_per_call"] = (canon / solves if solves else 0.0, "ratio")
        out["tracing.spans"] = (len(self.fid), "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path):
        """Spans as tab-separated `id parent name start_ns end_ns`, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.fid)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{names[self.fid[sid]]}\t{self.start[sid]}\t{self.end[sid]}\n")
