"""Spans around spectop's public functions, recorded from outside the program.

``Tracer.install`` wraps every public function of every spectop module
(``__all__`` where the module defines it, otherwise every name without a
leading underscore) plus ``WeightedGraph.dense``. The wrapper replaces the
function in every namespace that holds a reference to it: the defining
module, every spectop module that imported it (so that ``nets.lambda1`` and
the unqualified call to ``lambda1`` inside ``lambda1_balls`` are both
traced) and the benchmark's own modules passed to ``install``. No spectop
source is edited.

A span is ``(name, start, end, parent, check, size)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``check`` the id of the check
the workload was running, and ``size`` a work count taken from the call
(the order of the solved matrix, the number of keys drawn, ...) for the
functions in ``SIZES``, else 0. Spans are kept in memory and written out by
``write``. A span's self time is its duration minus that of its children;
a layer is the spectop module that defines the function.
"""

from __future__ import annotations

import statistics
import sys
import types
from collections import defaultdict
from time import perf_counter

# Layers with a self-time metric. `walks` is traced but not reported: none of
# the four batteries runs it.
LAYERS = ("graphs", "families", "spectral", "nets", "bounds", "localsim", "cli", "rng")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts recorded as a span's size, by span name.
SIZES = {
    "spectral.lambda1": lambda a, k, out: _arg(a, k, 0, "g").n,
    "spectral.eigenvalues": lambda a, k, out: _arg(a, k, 0, "g").n,
    "spectral.lambda1_balls": lambda a, k, out: _arg(a, k, 0, "g").n,
    "graphs.induced_subgraph": lambda a, k, out: out[0].n,
    "families.generate": lambda a, k, out: out.n,
    "rng.keyed_uniforms": lambda a, k, out: int(_arg(a, k, 1, "n")),
}


def public_functions(module) -> dict[str, types.FunctionType]:
    """Public functions defined in ``module`` (not the ones it imports)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.check = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizer = SIZES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.check, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sizer is not None:
                span[5] = sizer(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, extra_namespaces=()) -> "Tracer":
        """Wrap every public spectop function at every import site."""
        from spectop.graphs import WeightedGraph

        modules = [m for n, m in list(sys.modules.items())
                   if n == "spectop" or n.startswith("spectop.")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for fname, fn in public_functions(mod).items():
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        for ns in [*modules, *extra_namespaces]:
            for attr, value in list(vars(ns).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, w)
        dense = WeightedGraph.dense
        self._patches.append((WeightedGraph, "dense", dense))
        WeightedGraph.dense = self.wrap("graphs.WeightedGraph.dense", dense)
        return self

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcheck\tsize\n")
            for name, t0, t1, parent, check, size in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{check}\t{size}\n")


class CheckTimer:
    """Per-check wall times; also tags spans with the running check's id,
    and gives the speed probe (``speed.Probe``) its turn between checks."""

    def __init__(self, tracer: Tracer | None = None, probe=None) -> None:
        self.times: list[float] = []
        self.starts: list[float] = []
        self._tracer = tracer
        self._probe = probe

    def start(self, check_id: str) -> float:
        if self._probe is not None:
            self._probe.maybe()
        if self._tracer is not None:
            self._tracer.check = check_id
        return perf_counter()

    def stop(self, t0: float) -> None:
        self.times.append(perf_counter() - t0)
        self.starts.append(t0)
        if self._tracer is not None:
            self._tracer.check = ""


def self_times(spans, lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of each span in ``spans[lo:hi]``: its duration minus the
    durations of its direct children (which, in one thread, are disjoint
    and lie inside it)."""
    hi = len(spans) if hi is None else hi
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for i in range(lo, hi):
        p = spans[i][3]
        if p >= lo:
            own[p - lo] -= spans[i][2] - spans[i][1]
    return own


def layer_metrics(spans, lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced pass)."""
    hi = len(spans) if hi is None else hi
    own = self_times(spans, lo, hi)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    layer_calls = defaultdict(int)
    ball_solves = 0
    for k, i in enumerate(range(lo, hi)):
        name, _, _, parent, _, size = spans[i]
        layer = name.partition(".")[0]
        self_s[layer] += own[k]
        calls[name] += 1
        sizes[name] += size
        layer_calls[layer] += 1
        if name == "spectral.lambda1" and parent >= 0 and spans[parent][0] == "spectral.lambda1_balls":
            ball_solves += 1
    balls = sizes["spectral.lambda1_balls"]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "spectral.lambda1.calls": calls["spectral.lambda1"],
        "spectral.lambda1.order_sum": sizes["spectral.lambda1"],
        "spectral.eigenvalues.calls": calls["spectral.eigenvalues"],
        "spectral.eigenvalues.order_sum": sizes["spectral.eigenvalues"],
        "spectral.ball_solves_per_ball": ball_solves / balls if balls else 0.0,
        "graphs.distances.calls": calls["graphs.distances"],
        "graphs.induced_subgraph.calls": calls["graphs.induced_subgraph"],
        "graphs.induced_subgraph.order_sum": sizes["graphs.induced_subgraph"],
        "graphs.dense.calls": calls["graphs.WeightedGraph.dense"],
        "rng.keyed_uniforms.keys": sizes["rng.keyed_uniforms"],
        "nets.greedy_tree_net.calls": calls["nets.greedy_tree_net"],
        "nets.net_removal_drop_check.calls": calls["nets.net_removal_drop_check"],
        "localsim.voronoi_assign.calls": calls["localsim.voronoi_assign"],
        "families.generate.order_sum": sizes["families.generate"],
        "bounds.calls": layer_calls["bounds"],
    })
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each metric (counts repeat exactly)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
