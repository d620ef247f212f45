"""Edge-weighted graphs with the queries the verification suites need.

The central type is :class:`WeightedGraph`: a finite undirected graph on
dense integer vertex ids with strictly positive edge weights, immutable after
construction.  Everything downstream (spectra, nets, local algorithms) treats
it as read-only, so derived artifacts such as the sparse adjacency matrix are
cached on the instance.
"""
from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GraphError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "AsymmetricWeightError",
    "NonpositiveWeightError",
    "VertexRangeError",
    "DisconnectedGraphError",
    "IsolatedVertexError",
    "GraphFormatError",
    "VertexSet",
    "WeightedGraph",
    "SpotCheckResult",
    "build_graph",
    "normalized_weighting",
    "distances",
    "all_pairs_distances",
    "induced_subgraph",
    "delete_vertices",
    "ball",
    "is_connected",
    "is_r_net",
    "is_s_separated",
    "expander_spot_check",
    "read_graph",
    "write_graph",
]

UNREACHABLE = -1

EXACT_SPOT_CHECK_MAX_N = 20


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class AsymmetricWeightError(GraphError):
    """The same vertex pair appeared twice with contradictory weights."""


class NonpositiveWeightError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class IsolatedVertexError(GraphError):
    pass


class GraphFormatError(GraphError):
    """Malformed graph file."""


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a graph on ``n`` vertices.

    Ids are stored sorted and deduplicated; the owning size ``n`` is kept so
    that densities are well defined and membership can be validated.
    """

    ids: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if any(v < 0 or v >= self.n for v in self.ids):
            raise VertexRangeError(f"vertex id out of range 0..{self.n - 1}")
        if any(self.ids[i] >= self.ids[i + 1] for i in range(len(self.ids) - 1)):
            raise GraphError("VertexSet ids must be strictly increasing")

    @classmethod
    def of(cls, ids: Iterable[int], n: int) -> "VertexSet":
        return cls(tuple(sorted({int(v) for v in ids})), n)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, v: int) -> bool:
        i = bisect.bisect_left(self.ids, v)
        return i < len(self.ids) and self.ids[i] == v

    @property
    def density(self) -> float:
        return len(self.ids) / self.n if self.n else 0.0

    def mask(self) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        if self.ids:
            m[list(self.ids)] = True
        return m

    def complement(self) -> "VertexSet":
        inside = set(self.ids)
        return VertexSet(tuple(v for v in range(self.n) if v not in inside), self.n)


class WeightedGraph:
    """Finite undirected edge-weighted graph, immutable after construction.

    Parameters
    ----------
    n : number of vertices (ids ``0..n-1``).
    adjacency : per-vertex tuple of ``(neighbor, weight)`` pairs, sorted by
        neighbor id, both directions present.
    w_min, w_max : declared weight bounds; every edge weight lies inside.
    delta : declared maximum degree.

    Use :func:`build_graph` instead of calling this constructor directly;
    the constructor trusts its arguments.
    """

    __slots__ = ("n", "adj", "w_min", "w_max", "delta", "__dict__")

    def __init__(
        self,
        n: int,
        adjacency: tuple[tuple[tuple[int, float], ...], ...],
        w_min: float,
        w_max: float,
        delta: int,
    ) -> None:
        self.n = n
        self.adj = adjacency
        self.w_min = w_min
        self.w_max = w_max
        self.delta = delta

    # -- basic queries ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def m(self) -> int:
        """Number of undirected edges."""
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Undirected edges as (u, v, w) with u < v, ascending."""
        for u in range(self.n):
            for v, w in self.adj[u]:
                if u < v:
                    yield u, v, w

    @cached_property
    def csr(self) -> sp.csr_matrix:
        rows, cols, data = [], [], []
        for u in range(self.n):
            for v, w in self.adj[u]:
                rows.append(u)
                cols.append(v)
                data.append(w)
        return sp.csr_matrix(
            (data, (rows, cols)), shape=(self.n, self.n), dtype=np.float64
        )

    def dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            for v, w in self.adj[u]:
                a[u, v] = w
        return a

    @property
    def delta_tilde(self) -> float:
        """Degree-weight parameter delta * w_max / w_min."""
        return self.delta * self.w_max / self.w_min

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, delta={self.delta})"


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Validate an edge list and construct a :class:`WeightedGraph`.

    Each edge is an ``(u, v, w)`` triple with ``w > 0``.  Listing a pair twice
    with the same weight is a duplicate; with a different weight it is an
    asymmetry; both are rejected.  Self-loops are rejected.
    """
    if n < 0:
        raise GraphError("n must be nonnegative")
    seen: dict[tuple[int, int], float] = {}
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u < 0 or u >= n or v < 0 or v >= n:
            raise VertexRangeError(f"edge ({u},{v}) out of range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (w > 0.0) or not math.isfinite(w):
            raise NonpositiveWeightError(f"edge ({u},{v}) has weight {w!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] == w:
                raise DuplicateEdgeError(f"edge {key} listed more than once")
            raise AsymmetricWeightError(
                f"edge {key} listed with weights {seen[key]!r} and {w!r}"
            )
        seen[key] = w
    lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in seen.items():
        lists[u].append((v, w))
        lists[v].append((u, w))
    adjacency = tuple(tuple(sorted(l)) for l in lists)
    weights = list(seen.values())
    w_min = min(weights) if weights else 1.0
    w_max = max(weights) if weights else 1.0
    delta = max((len(a) for a in adjacency), default=0)
    return WeightedGraph(n, adjacency, w_min, w_max, delta)


def normalized_weighting(g: WeightedGraph) -> WeightedGraph:
    """Reweight a unit-weight graph by (deg u * deg v)^(-1/2) per edge."""
    for u in range(g.n):
        if not g.adj[u]:
            raise IsolatedVertexError(f"vertex {u} is isolated")
        for _, w in g.adj[u]:
            if w != 1.0:
                raise GraphError("normalized_weighting expects unit weights")
    edges = [
        (u, v, 1.0 / math.sqrt(g.degree(u) * g.degree(v))) for u, v, _ in g.edges()
    ]
    return build_graph(g.n, edges)


# -- distances and subgraphs ----------------------------------------------


def distances(
    g: WeightedGraph, sources: int | Iterable[int], cutoff: int | None = None
) -> np.ndarray:
    """Hop distances from a source vertex (or set) via BFS.

    Unreachable vertices get ``UNREACHABLE`` (-1).  ``cutoff`` stops the
    search at that depth; vertices beyond it are reported unreachable.
    """
    if isinstance(sources, (int, np.integer)):
        sources = [int(sources)]
    dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
    q: deque[int] = deque()
    for s in sources:
        if s < 0 or s >= g.n:
            raise VertexRangeError(f"source {s} out of range")
        if dist[s] != 0:
            dist[s] = 0
            q.append(s)
    while q:
        u = q.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            continue
        for v, _ in g.adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                q.append(v)
    return dist


def all_pairs_distances(g: WeightedGraph) -> np.ndarray:
    """Hop-distance matrix (n x n, UNREACHABLE off-component)."""
    if g.n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if g.m == 0:
        d = np.full((g.n, g.n), UNREACHABLE, dtype=np.int64)
        np.fill_diagonal(d, 0)
        return d
    dm = sp.csgraph.shortest_path(g.csr, method="D", unweighted=True)
    out = np.full((g.n, g.n), UNREACHABLE, dtype=np.int64)
    finite = np.isfinite(dm)
    out[finite] = dm[finite].astype(np.int64)
    return out


def induced_subgraph(
    g: WeightedGraph, vertices: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on the given vertices plus the id map.

    Returns ``(h, vmap)`` where ``vmap[i]`` is the original id of vertex ``i``
    of ``h``.  The subgraph inherits the parent's declared weight bounds and
    degree cap (still valid: degrees and weight ranges only shrink).
    """
    vmap = tuple(sorted({int(v) for v in vertices}))
    if vmap and (vmap[0] < 0 or vmap[-1] >= g.n):
        raise VertexRangeError("subgraph vertex out of range")
    index = {v: i for i, v in enumerate(vmap)}
    lists: list[list[tuple[int, float]]] = [[] for _ in vmap]
    for i, v in enumerate(vmap):
        for u, w in g.adj[v]:
            j = index.get(u)
            if j is not None:
                lists[i].append((j, w))
    adjacency = tuple(tuple(sorted(l)) for l in lists)
    h = WeightedGraph(len(vmap), adjacency, g.w_min, g.w_max, g.delta)
    return h, vmap


def delete_vertices(
    g: WeightedGraph, removed: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Graph with the given vertices (and incident edges) deleted, plus id map."""
    gone = {int(v) for v in removed}
    return induced_subgraph(g, (v for v in range(g.n) if v not in gone))


def ball(g: WeightedGraph, v: int, r: int) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on the radius-``r`` ball around ``v``, plus id map."""
    if r < 0:
        raise GraphError("radius must be nonnegative")
    d = distances(g, v, cutoff=r)
    inside = np.flatnonzero(d != UNREACHABLE)
    return induced_subgraph(g, inside.tolist())


def is_connected(g: WeightedGraph) -> bool:
    if g.n <= 1:
        return True
    return not (distances(g, 0) == UNREACHABLE).any()


# -- net and separation predicates ----------------------------------------


def is_r_net(g: WeightedGraph, w: Iterable[int], r: int) -> bool:
    """Is every vertex within hop distance ``r`` of the set ``w``?

    The empty set is an r-net only of the empty graph.
    """
    w = list(w)
    if g.n == 0:
        return True
    if not w:
        return False
    d = distances(g, w, cutoff=r)
    return not (d == UNREACHABLE).any()


def is_s_separated(g: WeightedGraph, w: Iterable[int], s: int) -> bool:
    """Are all pairwise hop distances within ``w`` at least ``s``?"""
    members = sorted({int(v) for v in w})
    if len(members) <= 1 or s <= 0:
        return True
    inset = np.zeros(g.n, dtype=bool)
    inset[members] = True
    for v in members:
        d = distances(g, v, cutoff=s - 1)
        hits = np.flatnonzero((d != UNREACHABLE) & inset)
        if any(h != v for h in hits):
            return False
    return True


# -- expander spot check ----------------------------------------------------


@dataclass(frozen=True)
class SpotCheckResult:
    """Outcome of a vertex-expansion spot check.

    ``verdict`` is ``"certified"`` (exact mode, all subsets checked),
    ``"falsified"`` (a witness subset violating the expansion inequality,
    stored in ``witness``), or ``"inconclusive"`` (sampling found nothing).
    """

    verdict: str
    c: float
    witness: VertexSet | None
    subsets_checked: int


def _boundary_size(g: WeightedGraph, inside: set[int]) -> int:
    seen = set()
    for u in inside:
        for v, _ in g.adj[u]:
            if v not in inside:
                seen.add(v)
    return len(seen)


def expander_spot_check(
    g: WeightedGraph,
    c: float,
    mode: str = "monte-carlo",
    budget: int = 2000,
    seed: int = 0,
) -> SpotCheckResult:
    """Check the vertex-expansion property |N(S) \\ S| >= c|S| for |S| <= n/2.

    Exact mode enumerates all subsets and either certifies or falsifies; it
    refuses graphs with more than ``EXACT_SPOT_CHECK_MAX_N`` vertices.
    Monte-carlo mode samples connected subsets grown by randomized BFS; it can
    falsify but never certify, returning ``inconclusive`` when the budget is
    exhausted.
    """
    if c < 0:
        raise GraphError("expansion constant must be nonnegative")
    n = g.n
    half = n / 2.0
    if mode == "exact":
        if n > EXACT_SPOT_CHECK_MAX_N:
            raise GraphError(
                f"exact spot check limited to n <= {EXACT_SPOT_CHECK_MAX_N}"
            )
        nbr_mask = [0] * n
        for u in range(n):
            m = 0
            for v, _ in g.adj[u]:
                m |= 1 << v
            nbr_mask[u] = m
        checked = 0
        # DP over subsets: neighborhood mask of S = mask of lowest bit | rest.
        nbhd = [0] * (1 << n)
        for s_mask in range(1, 1 << n):
            low = s_mask & (-s_mask)
            v = low.bit_length() - 1
            nbhd[s_mask] = nbhd[s_mask ^ low] | nbr_mask[v]
            size = s_mask.bit_count()
            if size > half:
                continue
            checked += 1
            outside = (nbhd[s_mask] & ~s_mask).bit_count()
            if outside < c * size:
                witness = VertexSet.of(
                    (v for v in range(n) if s_mask >> v & 1), n
                )
                return SpotCheckResult("falsified", c, witness, checked)
        return SpotCheckResult("certified", c, None, checked)
    if mode != "monte-carlo":
        raise GraphError(f"unknown spot check mode {mode!r}")
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(budget):
        if n == 0:
            break
        start = int(rng.integers(n))
        target = int(rng.integers(1, max(2, n // 2 + 1)))
        inside = {start}
        frontier = [v for v, _ in g.adj[start]]
        while len(inside) < target and frontier:
            pick = int(rng.integers(len(frontier)))
            u = frontier.pop(pick)
            if u in inside:
                continue
            inside.add(u)
            frontier.extend(v for v, _ in g.adj[u] if v not in inside)
        if len(inside) > half:
            continue
        checked += 1
        if _boundary_size(g, inside) < c * len(inside):
            return SpotCheckResult(
                "falsified", c, VertexSet.of(inside, n), checked
            )
    return SpotCheckResult("inconclusive", c, None, checked)


# -- file format -------------------------------------------------------------


def write_graph(g: WeightedGraph, path: str) -> None:
    """Write the text format: header ``n m``, then one ``u v w`` line per edge.

    Weights are printed with 17 significant digits so the file round-trips
    bit-exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges():
            fh.write(f"{u} {v} {format(w, '.17g')}\n")


def read_graph(path: str) -> WeightedGraph:
    """Read the text format written by :func:`write_graph`.

    Blank lines and ``#`` comments are allowed.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise GraphFormatError(f"{path}:{lineno}: expected 'n m' header")
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: bad header") from exc
                continue
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v w'")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad edge line") from exc
    if header is None:
        raise GraphFormatError(f"{path}: missing header")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"{path}: header says {m} edges, found {len(edges)}")
    return build_graph(n, edges)
