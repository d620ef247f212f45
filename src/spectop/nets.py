"""r-net selection and the spectral-radius drop it buys.

Two net constructions are provided.  ``greedy_tree_net`` walks a BFS spanning
tree, repeatedly cutting the branch hanging at distance r above the deepest
remaining vertex; it guarantees size at most ceil(n / (r+1)).  No vertex of a
cut branch is further than r from the emitted branch root, because the deepest
vertex was a witness for the whole branch.  ``random_expander_net`` takes a
Bernoulli(p) sample plus everything the sample misses by more than r; on
c-expanders the miss term decays doubly exponentially in r.

``net_removal_drop_check`` verifies the inequality that makes nets useful:
deleting an r-net W from G drops the spectral radius to
lambda1(G - W)^{2r} <= lambda1(G)^{2r} - w_min^{2r}.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import (
    DisconnectedGraphError,
    GraphError,
    VertexSet,
    WeightedGraph,
    _covered,
    delete_vertices,
    is_r_net,
)
from .spectral import lambda1

__all__ = [
    "NetResult",
    "NotANetError",
    "DropReport",
    "greedy_tree_net",
    "random_expander_net",
    "net_removal_drop_check",
]

DROP_CHECK_TOL = 1e-8


class NotANetError(GraphError):
    """A set claimed to be an r-net fails the covering property."""


@dataclass(frozen=True)
class NetResult:
    """An r-net candidate, its provenance, and its verification status."""

    method: str
    r: int
    vertices: VertexSet
    density: float
    verified: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "r": self.r,
                "vertices": list(self.vertices.ids),
                "density": self.density,
                "verified": self.verified,
            },
            sort_keys=True,
        )


def _finish(g: WeightedGraph, method: str, r: int, mask: np.ndarray) -> NetResult:
    """The net of the boolean vertex ``mask``, checked by the covering test."""
    vs = VertexSet(tuple(np.flatnonzero(mask).tolist()), g.n)
    return NetResult(method, r, vs, vs.density, bool(_covered(g.csr, mask, r).all()))


def greedy_tree_net(
    g: WeightedGraph, r: int, priority: np.ndarray | None = None
) -> NetResult:
    """r-net of size at most ceil(n / (r+1)) via spanning-tree surgery.

    Build a BFS spanning tree rooted at the minimum-priority vertex (vertex 0
    by default).  Repeatedly take the deepest remaining vertex v: if its depth
    exceeds r, emit its ancestor u at distance exactly r and delete the whole
    branch rooted at u (at least r+1 vertices, all within r of u); otherwise
    the root covers everything left, so emit the root -- unless the remaining
    vertices are already within r of the net built so far -- and stop.

    ``priority`` reorders all tie-breaks (root choice, BFS order, deepest-
    vertex ties); passing per-vertex random labels makes the construction
    independent of vertex ids.
    """
    if r < 0:
        raise GraphError("net radius must be nonnegative")
    n = g.n
    if n == 0:
        return _finish(g, "greedy-tree", r, np.zeros(0, dtype=bool))
    key = np.zeros(n) if priority is None else np.asarray(priority)
    if len(key) != n:
        raise GraphError("priority must have one entry per vertex")
    parent, layers = _ranked_bfs(g, key, [int(np.argmin(key))])
    if sum(map(len, layers)) < n:
        raise DisconnectedGraphError("greedy_tree_net needs a connected graph")
    return _finish(g, "greedy-tree", r, _tree_net(g.csr, parent, layers, r))


def _ranked_bfs(
    g: WeightedGraph, key: np.ndarray, roots
) -> tuple[np.ndarray, list[np.ndarray]]:
    """BFS forest of g from ``roots``, taking the roots and scanning each row
    in ascending (key, id): one scipy BFS, which scans a row in stored order,
    from a virtual root n adjacent to ``roots``, on g's rows sorted by that
    rank. Returns ``parent`` (a root or unreached vertex is its own) and the
    ``layers``, each depth's vertices in queue order.
    """
    n = g.n
    by_rank = np.argsort(key, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    # the sort key in int64 (it overflows int32 above n = 46341), the index
    # arrays in int32, which the csr_matrix constructor then does not copy
    base = g.rows() * n
    entries = np.sort(base + rank[g.indices]) - base
    indices = by_rank[np.append(entries, np.sort(rank[list(roots)]))].astype(np.int32)
    indptr = np.append(g.indptr, len(indices)).astype(np.int32)
    a = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    order, pred = sp.csgraph.breadth_first_order(a, n, directed=True, return_predecessors=True)
    up = pred[:n]
    parent = np.where((up < 0) | (up == n), np.arange(n), up)
    pos = np.empty(n + 1, dtype=np.int64)
    pos[order] = np.arange(len(order))
    # parents' queue positions never decrease along the queue, so the layer
    # after the one ending at reached[e - 1] ends before the first vertex
    # whose parent is queued after reached[e - 1], at queue position e
    reached = order[1:]
    ppos = pos[pred[reached]].tolist()
    ends = [0]
    while ends[-1] < len(ppos):
        ends.append(bisect_left(ppos, ends[-1] + 1, ends[-1]))
    return parent, [reached[s:e] for s, e in zip(ends, ends[1:])]


def _tree_net(
    adj: sp.csr_matrix, parent: np.ndarray, layers: list[np.ndarray], r: int
) -> np.ndarray:
    """Greedy tree cuts, as a mask, on BFS trees of components of ``adj``.

    Deepest layer first, every vertex v deeper than r that no cut deleted
    (a cut so far sits at most r above v) marks its ancestor u at distance r
    and deletes u's branch; one layer's marks fall on distinct branches, so
    the order inside a layer does not matter.  Then a tree's root is marked
    if a vertex left in it is further than r from the marks along ``adj``.
    No climb goes past a root, so the time is bounded whatever r is.
    """
    mark = bytearray(len(parent))
    up = parent.tolist()
    for layer in layers[:r:-1]:
        for v in layer.tolist():
            for _ in range(r):
                if mark[v]:
                    break
                v = up[v]
            else:
                mark[v] = 1
    net = np.frombuffer(mark, dtype=bool).copy()
    if not layers:
        return net
    near = np.concatenate(layers[: r + 1])
    root, left = near, ~net[near]
    for _ in range(min(r, len(layers) - 1)):  # a root is its own parent
        root = parent[root]
        left &= ~net[root]
    covered = _covered(adj, net, r)
    net[root[left & ~covered[near]]] = True
    return net


def random_expander_net(
    g: WeightedGraph, r: int, p: float, seed: int
) -> NetResult:
    """Bernoulli(p) sample W0, plus every vertex at distance > r from W0.

    The union is an r-net unconditionally.  On a c-expander the second part
    has expected density at most (1-p)^{(1+c)^r}, so the expected net density
    is at most (1-p)^{(1+c)^r} + p.
    """
    if r < 0:
        raise GraphError("net radius must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise GraphError("sampling probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    w0 = rng.random(g.n) < p
    far = ~_covered(g.csr, w0, r)
    return _finish(g, "expander-random", r, w0 | far)


@dataclass(frozen=True)
class DropReport:
    r: int
    net_size: int
    lam1_g: float
    lam1_h: float
    lhs: float
    rhs: float
    ok: bool


def net_removal_drop_check(g: WeightedGraph, w: NetResult, r: int) -> DropReport:
    """Verify lambda1(G - W)^{2r} <= lambda1(G)^{2r} - w_min^{2r}.

    ``w`` must be a verified r-net with matching radius; the covering
    property is re-checked here rather than trusted.  Vertices of W are
    deleted outright (the row-zeroing picture gives the same top eigenvalue,
    up to extra zero eigenvalues). When a power leaves the float range, the
    check is decided in logs and a side beyond the range is inf. A graph
    with no edge raises: w_min is the lightest edge weight.
    """
    if r < 1:
        raise GraphError("drop check needs r >= 1")
    if g.m == 0:
        raise GraphError("drop check needs an edge: w_min is the lightest edge weight")
    if r != w.r:
        raise GraphError(f"net was built for r={w.r}, check asked for r={r}")
    if not is_r_net(g, w.vertices, r):
        raise NotANetError("claimed net does not cover the graph within r")
    lam_g = lambda1(g)
    h, _ = delete_vertices(g, w.vertices)
    lam_h = lambda1(h) if h.n > 0 else 0.0
    try:
        lhs = lam_h ** (2 * r)
        rhs = lam_g ** (2 * r) - g.w_min ** (2 * r)
        ok = lhs <= rhs + DROP_CHECK_TOL
    except OverflowError:
        log_lhs = 2 * r * math.log(lam_h) if lam_h > 0 else -math.inf
        removed = (g.w_min / lam_g) ** (2 * r)
        log_rhs = 2 * r * math.log(lam_g) + (math.log1p(-removed) if removed < 1 else -math.inf)
        lhs, rhs, ok = _exp(log_lhs), _exp(log_rhs), log_lhs <= log_rhs
    return DropReport(
        r=r,
        net_size=len(w.vertices),
        lam1_g=lam_g,
        lam1_h=lam_h,
        lhs=lhs,
        rhs=rhs,
        ok=ok,
    )


def _exp(v: float) -> float:
    """exp(v), inf above the float range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf
