"""Edge-weighted graphs with the queries the verification suites need.

The central type is :class:`WeightedGraph`: a finite undirected graph on
dense integer vertex ids with strictly positive edge weights, stored as three
read-only CSR arrays (``indptr``, ``indices``, ``weights``).  Everything
downstream (spectra, nets, local algorithms) reads those arrays; the scipy
sparse matrix wraps them and is cached on the instance, and the dense matrix
is built from them on demand.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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
    "GraphFormatError",
    "VertexSet",
    "WeightedGraph",
    "build_graph",
    "distances",
    "all_pairs_distances",
    "induced_subgraph",
    "delete_vertices",
    "ball",
    "is_connected",
    "is_r_net",
    "is_s_separated",
    "read_graph",
    "write_graph",
]

UNREACHABLE = -1

# ``_induced_arrays`` looks each neighbour up in a direct table when the table
# needs at most this many slots per neighbour entry, by binary search
# otherwise. The table was faster up to 15-30 slots per entry (2-core x86,
# numpy 2.4); 8 takes nearly all of that gain on the local-global corpus and
# keeps the table within 64 bytes per entry.
INDUCED_TABLE_SLOTS = 8


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


class WeightedGraph:
    """Finite undirected edge-weighted graph, immutable after construction.

    The adjacency is stored once, in compressed sparse row form: the
    neighbours of vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``,
    sorted by id, with the edge weights at the same positions of
    ``weights``. Both directions of every edge are present, so
    ``indptr[-1] == 2 * m``. The three arrays are read-only; the sparse and
    dense matrices are derived from them.

    Parameters
    ----------
    n : number of vertices (ids ``0..n-1``).
    indptr, indices, weights : the CSR arrays described above.
    w_min, w_max : declared weight bounds; every edge weight lies inside.
    delta : declared maximum degree.

    Use :func:`build_graph` instead of calling this constructor directly;
    the constructor trusts its arguments.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "w_min", "w_max", "delta", "__dict__")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        w_min: float,
        w_max: float,
        delta: int,
    ) -> None:
        for a in (indptr, indices, weights):
            a.setflags(write=False)
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.w_min = w_min
        self.w_max = w_max
        self.delta = delta

    # -- basic queries ---------------------------------------------------

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def rows(self) -> np.ndarray:
        """Each entry's row: ``(rows()[i], indices[i])`` is an entry; computed once, read-only."""
        return self._rows

    @cached_property
    def _rows(self) -> np.ndarray:
        rows = np.arange(self.n).repeat(self.indptr[1:] - self.indptr[:-1])
        rows.setflags(write=False)
        return rows

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Undirected edges as (u, v, w) with u < v, ascending."""
        rows = self.rows()
        up = rows < self.indices
        return zip(
            rows[up].tolist(), self.indices[up].tolist(), self.weights[up].tolist()
        )

    @cached_property
    def csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(self.n, self.n))

    def dense(self) -> np.ndarray:
        # not csr.toarray(): the scipy constructor costs more than a small ball's solve
        a = np.zeros((self.n, self.n))
        a[self.rows(), self.indices] = self.weights
        return a

    @property
    def delta_tilde(self) -> float:
        """Degree-weight parameter delta * w_max / w_min."""
        return self.delta * self.w_max / self.w_min

    def _key(self) -> tuple:
        return self.n, self.indptr.tobytes(), self.indices.tobytes(), self.weights.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, delta={self.delta})"


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Validate an edge list and construct a :class:`WeightedGraph`.

    Each edge is an ``(u, v, w)`` triple with ``w > 0``.  Listing a pair twice
    with the same weight is a duplicate; with a different weight it is an
    asymmetry; both are rejected.  Self-loops are rejected.  The checks run
    on the whole list at once; the error names the first faulty edge in input
    order, with the fault found first in the order range, self-loop, weight,
    repetition.
    """
    if n < 0:
        raise GraphError("n must be nonnegative")
    edges = list(edges)
    e = np.array(edges, dtype=np.float64).reshape(len(edges), 3)
    u, v, w = np.trunc(e[:, 0]), np.trunc(e[:, 1]), e[:, 2]
    in_range = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    lo, hi = np.sort(np.where(in_range, [u, v], 0), axis=0).astype(np.int64)
    # An out-of-range edge gets a negative key of its own, so it repeats none.
    key = np.where(in_range, lo * n + hi, -1 - np.arange(len(edges)))
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    bad = ~in_range | (u == v) | ~(w > 0.0) | ~np.isfinite(w)
    faults = np.concatenate([np.flatnonzero(bad), repeats])
    if len(faults):
        _raise_fault(n, edges, key, int(faults.min()))
    directed = np.concatenate([key, hi * n + lo])
    order = np.argsort(directed)
    rows, cols = np.divmod(directed[order], max(n, 1))
    degrees = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    w_min, w_max = (float(w.min()), float(w.max())) if len(w) else (1.0, 1.0)
    delta = int(degrees.max()) if n else 0
    return WeightedGraph(n, indptr, cols, np.concatenate([w, w])[order], w_min, w_max, delta)


def _raise_fault(n: int, edges: list, key: np.ndarray, i: int) -> None:
    """Raise the error for ``edges[i]``, the first faulty edge."""
    u, v, w = edges[i]
    u, v, w = int(u), int(v), float(w)
    if u < 0 or u >= n or v < 0 or v >= n:
        raise VertexRangeError(f"edge ({u},{v}) out of range 0..{n - 1}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    if not (w > 0.0) or not math.isfinite(w):
        raise NonpositiveWeightError(f"edge ({u},{v}) has weight {w!r}")
    pair = (min(u, v), max(u, v))
    first = float(edges[np.flatnonzero(key == key[i])[0]][2])
    if first == w:
        raise DuplicateEdgeError(f"edge {pair} listed more than once")
    raise AsymmetricWeightError(f"edge {pair} listed with weights {first!r} and {w!r}")


# -- distances and subgraphs ----------------------------------------------


def distances(
    g: WeightedGraph, sources: int | Iterable[int], cutoff: float | None = None
) -> np.ndarray:
    """Hop distances from a source vertex (or set), by scipy's unweighted Dijkstra.

    Unreachable vertices get ``UNREACHABLE`` (-1). A cutoff ``c`` stops the
    search at depth ``ceil(c)``: 2.5 reaches depth 3, ``inf`` (like None)
    sets no limit, and ``c <= 0`` leaves the sources only. Vertices beyond
    the cutoff are reported unreachable.
    """
    if isinstance(sources, (int, np.integer)):
        sources = [sources]
    ids = np.fromiter(sources, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= g.n)]
    if len(bad):
        raise VertexRangeError(f"source {bad[0]} out of range")
    limit = np.inf if cutoff is None else max(0.0, float(np.ceil(cutoff)))
    d = sp.csgraph.dijkstra(g.csr, unweighted=True, indices=ids, min_only=True, limit=limit)
    return _hops(d)


def all_pairs_distances(g: WeightedGraph) -> np.ndarray:
    """Hop-distance matrix (n x n, UNREACHABLE off-component)."""
    return _hops(sp.csgraph.shortest_path(g.csr, unweighted=True))


def _hops(d: np.ndarray) -> np.ndarray:
    """scipy's float hop counts as int64, with UNREACHABLE for inf."""
    return np.where(np.isinf(d), UNREACHABLE, d).astype(np.int64)


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
    ids = np.array(vmap, dtype=np.int64)
    indptr, indices, weights = _induced_arrays(g, ids)
    h = WeightedGraph(len(ids), indptr, indices, weights, g.w_min, g.w_max, g.delta)
    return h, vmap


def _induced_arrays(
    g: WeightedGraph, ids: np.ndarray, block: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of the adjacency induced on ``ids``, cut into diagonal blocks.

    Row ``i`` is vertex ``ids[i]`` and keeps its edges to the ``ids[j]`` with
    ``block[j] == block[i]`` (all of ``ids`` when ``block`` is None). The
    pairs ``(block[i], ids[i])`` must be strictly ascending.

    Each neighbour entry finds its ``j`` by the key ``block * n + vertex``.
    When the keys' range, (number of blocks) x n slots, is at most
    ``INDUCED_TABLE_SLOTS`` per neighbour entry, a table of that range holds
    every ``j`` at its key and each entry reads its own slot; the table
    takes at most 64 bytes (8 int64 slots) per entry, whatever n is.
    Otherwise (many small blocks of a large graph, where the table would
    grow with n instead of with the entries) each entry is a binary search
    in the sorted keys. Both give the same arrays.
    """
    starts = g.indptr[ids]
    counts = g.indptr[1:][ids] - starts
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    offsets[1:] = counts.cumsum()
    # positions in the parent's arrays of the selected rows' entries, in order
    pos = (starts - offsets[:-1]).repeat(counts) + np.arange(offsets[-1])
    nbrs = g.indices[pos]
    if block is None:
        keys, wanted, slots = ids, nbrs, g.n
    else:
        keys, wanted = block * g.n + ids, block.repeat(counts) * g.n + nbrs
        slots = (int(block[-1]) + 1) * g.n if len(block) else 0
    if slots <= INDUCED_TABLE_SLOTS * len(pos):
        table = np.full(slots, -1, dtype=np.int64)
        table[keys] = np.arange(len(keys))
        j = table[wanted]
        keep = j >= 0
    else:
        j = keys.searchsorted(wanted)
        keep = keys.take(j, mode="clip") == wanted
    kept = np.zeros(len(pos) + 1, dtype=np.int64)
    kept[1:] = keep.cumsum()
    return kept[offsets], j[keep], g.weights[pos[keep]]


def _intra_class(
    g: WeightedGraph, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, weights) of g's edges u ~ v with
    ``a[u] == a[v] >= 0``, on all n vertices."""
    rows = g.rows()
    keep = (a[rows] == a[g.indices]) & (a[rows] >= 0)
    return np.concatenate([[0], keep.cumsum()])[g.indptr], g.indices[keep], g.weights[keep]


def delete_vertices(
    g: WeightedGraph, removed: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """``induced_subgraph`` on the complement of ``removed`` (repeats allowed)."""
    gone = np.fromiter(removed, dtype=np.int64)
    if len(gone) and (gone.min() < 0 or gone.max() >= g.n):
        raise VertexRangeError("deleted vertex out of range")
    keep = np.ones(g.n, dtype=bool)
    keep[gone] = False
    ids = np.flatnonzero(keep)
    h = WeightedGraph(len(ids), *_induced_arrays(g, ids), g.w_min, g.w_max, g.delta)
    return h, tuple(ids.tolist())


def _ball_rows(g: WeightedGraph, centers: Iterable[int], r: float) -> sp.csr_matrix:
    """Row ``i`` holds the radius-``r`` ball at ``centers[i]``: the rows
    ``centers`` of the pattern of (I + A)^r, with sorted indices.

    At most ``ceil(r)`` sparse products, stopping at the first that adds no
    entry, so a radius of 2.5 reaches depth 3 and ``inf`` the whole
    component. Memory is (rows) x (ball size).
    """
    ids = np.fromiter(centers, dtype=np.int64)
    step = sp.csr_matrix((np.ones(len(g.indices), dtype=bool), g.indices, g.indptr),
                         shape=(g.n, g.n))
    step = (step + sp.identity(g.n, dtype=bool, format="csr")).tocsr()
    rows = sp.csr_matrix((np.ones(len(ids), dtype=bool), ids, np.arange(len(ids) + 1)),
                         shape=(len(ids), g.n))
    depth = 0
    while depth < r:
        grown = rows @ step
        if grown.nnz == rows.nnz:  # products only add entries: this pattern is final
            break
        rows, depth = grown, depth + 1
    rows.sort_indices()
    return rows


def ball(g: WeightedGraph, v: int, r: int) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on the radius-``r`` ball around ``v``, plus id map."""
    if r < 0:
        raise GraphError("radius must be nonnegative")
    if not 0 <= v < g.n:
        raise VertexRangeError(f"source {v} out of range")
    return induced_subgraph(g, _ball_rows(g, [v], r).indices.tolist())


def is_connected(g: WeightedGraph) -> bool:
    if g.n <= 1:
        return True
    # Strong components (Pearce 2005) need no transpose, unlike directed=False,
    # and equal the components of a symmetric matrix. Every matrix given them,
    # here, in lambda1 and in the cell check, is: a WeightedGraph stores both
    # directions, and _intra_class keeps an entry iff it keeps its mirror.
    return sp.csgraph.connected_components(
        g.csr, directed=True, connection="strong", return_labels=False) == 1


# -- net and separation predicates ----------------------------------------


def _covered(adj: sp.csr_matrix, mask: np.ndarray, r: int) -> np.ndarray:
    """Mask of the vertices within ``r`` hops of ``mask`` along ``adj``.

    At most ``r`` sparse products, stopping at the first that adds no
    vertex. ``adj`` has positive entries where it has edges; the result may
    be ``mask`` itself.
    """
    for _ in range(r):
        grown = mask | (adj @ mask > 0)
        if np.array_equal(grown, mask):
            break
        mask = grown
    return mask


def is_r_net(g: WeightedGraph, w: Iterable[int], r: int) -> bool:
    """Is every vertex within hop distance ``r`` of the set ``w``?

    The empty set is an r-net only of the empty graph.
    """
    ids = np.fromiter(w, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= g.n):
        raise VertexRangeError(f"net vertex out of range 0..{g.n - 1}")
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return bool(_covered(g.csr, mask, r).all())


def is_s_separated(g: WeightedGraph, w: Iterable[int], s: int) -> bool:
    """Are all pairwise hop distances within ``w`` at least ``s``?

    True iff the radius-(s - 1) balls at the members of ``w`` hold no other
    member. Memory is |w| x (ball size).
    """
    members = np.unique(np.fromiter(w, dtype=np.int64))
    if len(members) and (members[0] < 0 or members[-1] >= g.n):
        raise VertexRangeError(f"vertex out of range 0..{g.n - 1}")
    if len(members) <= 1 or s <= 0:
        return True
    inset = np.zeros(g.n, dtype=bool)
    inset[members] = True
    return int(inset[_ball_rows(g, members, s - 1).indices].sum()) == len(members)


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

    The file is UTF-8; blank lines and ``#`` comments are allowed.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
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
