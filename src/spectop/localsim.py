"""Local (radius-bounded) randomized constructions and their certificates.

Each operation here is a finite-graph simulation of a factor-of-iid rule: a
vertex's output is a deterministic function of the labeled ball around it.
The label of vertex v is drawn from a stream keyed by (seed, v), so scrambling
labels outside a ball provably cannot change decisions inside it -- the
locality tests exploit exactly that.

``local_net`` gets every Voronoi cell and its BFS tree from one BFS, then
cuts the tree nets of all cells at once with ``greedy_tree_net``'s code.

The mass-transport identity is exact on a finite graph with a uniform root:
both orders of summation of a nonnegative pair function f(o, x) equal the
same double sum.  ``mtp_check`` evaluates both orders with exactly rounded
summation and reports the deviation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .graphs import (
    GraphError,
    VertexSet,
    WeightedGraph,
    _ball_rows,
    _intra_class,
    is_s_separated,
)
from .nets import NetResult, _finish, _ranked_bfs, _tree_net
from .rng import keyed_uniforms

__all__ = [
    "LocalLabels",
    "CellAssignment",
    "CellConnectivityError",
    "LocalNetRun",
    "TheoryParams",
    "MtpReport",
    "local_separated",
    "elect_captains",
    "voronoi_assign",
    "local_net",
    "theory_params",
    "mtp_check",
    "cell_transport",
    "adjacency_transport",
]

MTP_TOL = 1e-12
PRACTICAL_R_LIMIT = 10 ** 5


class CellConnectivityError(GraphError):
    """A Voronoi cell failed the connectivity invariant (should be impossible)."""


@dataclass(frozen=True)
class LocalLabels:
    """Per-vertex iid uniform labels on [0, 1).

    ``values[v]`` comes from the stream keyed by ``(seed, v)``; the seed is
    kept for transcripts.  ``from_values`` builds unkeyed labels for tests.
    """

    values: np.ndarray
    seed: int | None = None

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "LocalLabels":
        return cls(keyed_uniforms(seed, n), seed)

    @classmethod
    def from_values(cls, values) -> "LocalLabels":
        arr = np.asarray(values, dtype=np.float64)
        if not ((arr >= 0) & (arr < 1)).all():  # NaN fails too
            raise GraphError("labels must lie in [0, 1)")
        return cls(arr, None)

    def __len__(self) -> int:
        return len(self.values)


def _check_labels(g: WeightedGraph, labels: LocalLabels) -> None:
    if len(labels) != g.n:
        raise GraphError("labels and graph disagree on vertex count")


def local_separated(
    g: WeightedGraph, u: VertexSet, r: int, labels: LocalLabels
) -> VertexSet:
    """Local-maximum thinning: keep v in U iff its label beats every vertex
    within distance < r (labels outside U count as 0, label ties go to the
    smaller id).

    The output is r-separated by construction and is rechecked exactly here.
    Each member's decision reads labels only inside B(v, r-1); the declared
    locality radius is r. Memory is |U| x (size of a radius-(r-1) ball).
    """
    _check_labels(g, labels)
    if r < 1:
        raise GraphError("separation radius must be >= 1")
    eff = np.where(u.mask(), labels.values, 0.0)
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.lexsort((-np.arange(g.n), eff))] = np.arange(g.n)  # by (eff, -id)
    ids = np.array(u.ids, dtype=np.int64)
    rows = _ball_rows(g, ids, r - 1)
    best = np.maximum.reduceat(rank[rows.indices], rows.indptr[:-1])
    out = VertexSet.of(ids[best == rank[ids]].tolist(), g.n)
    if not is_s_separated(g, out, r):
        raise GraphError("local_separated produced a non-separated set")
    return out


def elect_captains(g: WeightedGraph, labels: LocalLabels, p: float) -> VertexSet:
    """Captains are the vertices with label <= p (locality radius 0)."""
    _check_labels(g, labels)
    if not 0.0 <= p <= 1.0:
        raise GraphError("captain probability must lie in [0, 1]")
    return VertexSet(tuple(np.flatnonzero(labels.values <= p).tolist()), g.n)


@dataclass(frozen=True)
class CellAssignment:
    """Voronoi cells around captains, capped at radius R.

    ``assignment[v]`` is the captain id of v's cell or -1 when no captain
    lies within distance R.  Cells partition the assigned vertices and are
    connected in the induced-subgraph sense; the constructor verifies this
    and aborts with a diagnostic if it ever fails.
    """

    captains: VertexSet
    assignment: np.ndarray
    R: int

    @property
    def n(self) -> int:
        return len(self.assignment)

    def unassigned(self) -> VertexSet:
        return VertexSet.of(np.flatnonzero(self.assignment < 0).tolist(), self.n)


def voronoi_assign(
    g: WeightedGraph, captains: VertexSet, labels: LocalLabels, R: int
) -> CellAssignment:
    """Assign each vertex to its nearest captain within R.

    Distance ties go to the captain with the smaller label (then smaller id;
    label ties have probability zero).  With that tie-break every shortest
    path to the chosen captain stays inside the cell, so cells are connected;
    this is verified, not assumed.
    """
    return _voronoi_forest(g, captains, labels, R)[0]


def _voronoi_forest(
    g: WeightedGraph, captains: VertexSet, labels: LocalLabels, R: int
) -> tuple[CellAssignment, np.ndarray, list[np.ndarray], sp.csr_matrix]:
    """``voronoi_assign`` plus each cell's BFS tree (``parent``, ``layers``)
    and the intra-cell edges (``_intra_cell``) that the connectivity check
    ran on.

    Each queue layer is sorted by captain (label, id), so a vertex's parent,
    its first-queued neighbour one layer closer, has the tie-break's captain.
    A vertex's cell is its tree's root, found for all vertices at once by
    pointer jumping, ``root = root[root]``, in about log2(depth) + 1 steps
    (Wyllie 1979); captains and unreached vertices are their own parents.
    """
    _check_labels(g, labels)
    if R < 0:
        raise GraphError("cell radius must be nonnegative")
    parent, layers = _ranked_bfs(g, labels.values, captains.ids)
    layers = layers[: math.ceil(min(R, len(layers))) + 1]  # as distances(cutoff=R)
    root = parent
    while not np.array_equal(up := root[root], root):
        root = up
    assignment = np.full(g.n, -1, dtype=np.int64)
    if layers:
        near = np.concatenate(layers)
        assignment[near] = root[near]
    cells = CellAssignment(captains, assignment, R)
    intra = _intra_cell(g, assignment)
    _verify_cells_connected(intra, cells)
    return cells, parent, layers, intra


def _intra_cell(g: WeightedGraph, a: np.ndarray) -> sp.csr_matrix:
    """The edges u ~ v of g with ``a[u] == a[v] >= 0``."""
    indptr, indices, weights = _intra_class(g, a)
    return sp.csr_matrix((weights, indices, indptr), shape=(g.n, g.n))


def _verify_cells_connected(intra: sp.csr_matrix, cells: CellAssignment) -> None:
    """Every assigned vertex lies in its captain's component of ``intra``,
    the graph of intra-cell edges (``_intra_cell`` of the assignment), by
    strong components, which are its components (see ``is_connected``)."""
    a = cells.assignment
    _, comp = sp.csgraph.connected_components(intra, directed=True, connection="strong")
    assigned = np.flatnonzero(a >= 0)
    orphans = assigned[comp[assigned] != comp[a[assigned]]]
    if len(orphans):
        captain = int(a[orphans].min())
        orphan = int(orphans[a[orphans] == captain].min())
        raise CellConnectivityError(
            f"cell of captain {captain} is disconnected: vertex {orphan} "
            f"cannot reach its captain inside the cell"
        )


@dataclass(frozen=True)
class LocalNetRun:
    """Everything produced by one local_net run, for transcripts and tests."""

    net: NetResult
    cells: CellAssignment
    labels: LocalLabels
    p: float
    R: int
    r: int

    def transcript_json(self) -> str:
        return json.dumps(
            {
                "seed": self.labels.seed,
                "p": self.p,
                "R": self.R,
                "r": self.r,
                "captains": list(self.cells.captains.ids),
                "unassigned_count": int(np.count_nonzero(self.cells.assignment < 0)),
                "net_size": len(self.net.vertices),
                "density": self.net.density,
            },
            sort_keys=True,
        )


def local_net(
    g: WeightedGraph, labels: LocalLabels, p: float, R: int, r: int
) -> LocalNetRun:
    """Captains, radius-R Voronoi cells, a tree net inside each cell, plus
    all unassigned vertices.

    Inside a cell the tree-net tie-breaks are ordered by label rather than
    vertex id, so the output depends on the labeled isomorphism type only;
    relabeling vertices permutes the result.  Cell-internal distances
    dominate graph distances, so the union is an r-net of g unconditionally
    (re-verified in the result).  A vertex's membership is determined by
    labels within distance 4R (cell shapes need 2R from the captain, plus R
    to reach the captain, read conservatively as 4R).
    """
    if r < 1:
        raise GraphError("net radius must be >= 1")
    captains = elect_captains(g, labels, p)
    cells, parent, layers, intra = _voronoi_forest(g, captains, labels, R)
    members = _tree_net(intra, parent, layers, r) | (cells.assignment < 0)
    net = _finish(g, "local-captain", r, members)
    return LocalNetRun(net=net, cells=cells, labels=labels, p=p, R=R, r=r)


@dataclass(frozen=True)
class TheoryParams:
    """The proof-schedule parameters for target net density 1/r."""

    r: int
    delta: int
    gap: float
    p: float
    R: float
    practical: bool


def theory_params(delta: int, r: int) -> TheoryParams:
    """Parameters making Bernoulli captains + radius-R cells an r-net of
    density at most 1/r on degree-delta graphs.

    With gap = 1/r - 1/(r + 1/2), choose p = sqrt(gap/2) * delta^(-6 r^2) so
    the collision term delta^{12 r^2} p^2 equals gap/2, then the least R with
    (1-p)^R <= gap/2.  The magnitudes are usually astronomical; ``practical``
    flags whether R is small enough to simulate.
    """
    if delta < 2 or r < 1:
        raise GraphError("theory_params needs delta >= 2 and r >= 1")
    gap = 1.0 / r - 1.0 / (r + 0.5)
    p = math.sqrt(gap / 2.0) * math.pow(delta, -6.0 * r * r)
    if p <= 0.0 or p >= 1.0:
        R: float = math.inf
    else:
        R = float(math.ceil(math.log(gap / 2.0) / math.log1p(-p)))
    return TheoryParams(
        r=r,
        delta=delta,
        gap=gap,
        p=p,
        R=R,
        practical=bool(R <= PRACTICAL_R_LIMIT),
    )


@dataclass(frozen=True)
class MtpReport:
    """The two orders of a mass-transport sum. Not a ``Check``: it tests the
    identity lhs = rhs, comparing |lhs - rhs| with ``MTP_TOL``."""

    lhs: float
    rhs: float
    deviation: float
    ok: bool


def mtp_check(
    g: WeightedGraph,
    transport: np.ndarray | Callable[[int, int], float],
) -> MtpReport:
    """Mass-transport identity on a finite graph with uniform root.

    For nonnegative f, E sum_x f(o, x) with uniform o equals
    E sum_x f(x, o): both are (1/n) sum_{o,x} f(o, x).  The two orders are
    evaluated with exactly rounded summation; deviation must be <= 1e-12.
    """
    n = g.n
    if n == 0:
        raise GraphError("mass transport needs a nonempty graph")
    if callable(transport):
        mat = np.array(
            [[float(transport(o, x)) for x in range(n)] for o in range(n)],
            dtype=np.float64,
        )
    else:
        mat = np.asarray(transport, dtype=np.float64)
        if mat.shape != (n, n):
            raise GraphError("transport matrix must be n x n")
    if not (mat >= 0).all():  # NaN fails too
        raise GraphError("transport values must be nonnegative")
    by_rows = math.fsum(math.fsum(row) for row in mat.tolist())
    by_cols = math.fsum(math.fsum(col) for col in mat.T.tolist())
    lhs = by_rows / n
    rhs = by_cols / n
    deviation = abs(lhs - rhs)
    return MtpReport(lhs=lhs, rhs=rhs, deviation=deviation, ok=deviation <= MTP_TOL)


def cell_transport(cells: CellAssignment) -> np.ndarray:
    """f(o, x) = 1 iff x lies in the cell captained by o."""
    mat = np.zeros((cells.n, cells.n), dtype=np.float64)
    assigned = np.flatnonzero(cells.assignment >= 0)
    mat[cells.assignment[assigned], assigned] = 1.0
    return mat


def adjacency_transport(g: WeightedGraph) -> np.ndarray:
    """f(o, x) = 1 iff o ~ x; both transport sums equal the average degree."""
    mat = np.zeros((g.n, g.n), dtype=np.float64)
    mat[g.rows(), g.indices] = 1.0
    return mat
