"""Deterministic graph family generators.

Every family takes its parameters from a :class:`FamilySpec` and produces a
unit-weight :class:`~spectop.graphs.WeightedGraph`; the same spec (including
seed) always yields the identical graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    GraphError,
    WeightedGraph,
    build_graph,
    is_connected,
)

__all__ = [
    "FamilySpec",
    "InadmissibleFamilyError",
    "RetryBudgetError",
    "FAMILIES",
    "generate",
    "tree_ball_size",
]

RANDOM_REGULAR_RETRY_CAP = 1000

FAMILIES = (
    "path",
    "cycle",
    "torus-grid",
    "hypercube",
    "complete",
    "random-regular",
    "tree-ball",
)


class InadmissibleFamilyError(GraphError):
    """Family parameters violate the family's admissibility constraints."""


class RetryBudgetError(GraphError):
    """Randomized construction failed within the retry budget."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one graph from a named family.

    Only the fields a family consumes need to be set: ``n`` for path, cycle,
    complete and random-regular; ``d`` for hypercube (dimension),
    random-regular and tree-ball (degree); ``depth`` for tree-ball; ``dims``
    for torus-grid.  ``seed`` only matters for random-regular.
    """

    family: str
    n: int | None = None
    d: int | None = None
    depth: int | None = None
    dims: tuple[int, int] | None = None
    seed: int = 0

    def describe(self) -> str:
        parts = [self.family]
        for name in ("n", "d", "depth", "dims", "seed"):
            value = getattr(self, name)
            if value is not None and not (name == "seed" and self.family != "random-regular"):
                parts.append(f"{name}={value}")
        return " ".join(parts)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InadmissibleFamilyError(msg)


def tree_ball_size(d: int, depth: int) -> int:
    """Vertex count of the depth-``depth`` ball in the infinite d-regular tree."""
    _require(d >= 3, "tree-ball needs degree d >= 3")
    _require(depth >= 0, "tree-ball needs depth >= 0")
    if depth == 0:
        return 1
    return 1 + d * ((d - 1) ** depth - 1) // (d - 2)


def _path(n: int) -> list[tuple[int, int, float]]:
    _require(n >= 1, "path needs n >= 1")
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def _cycle(n: int) -> list[tuple[int, int, float]]:
    _require(n >= 3, "cycle needs n >= 3")
    return [(i, (i + 1) % n, 1.0) for i in range(n)]


def _torus(a: int, b: int) -> list[tuple[int, int, float]]:
    _require(a >= 3 and b >= 3, "torus-grid needs both dims >= 3")
    edges = []
    for i in range(a):
        for j in range(b):
            u = i * b + j
            edges.append((u, i * b + (j + 1) % b, 1.0))
            edges.append((u, ((i + 1) % a) * b + j, 1.0))
    return edges

def _hypercube(d: int) -> list[tuple[int, int, float]]:
    _require(d >= 1, "hypercube needs dimension d >= 1")
    _require(d <= 16, "hypercube dimension capped at 16")
    n = 1 << d
    return [(u, u ^ (1 << k), 1.0) for u in range(n) for k in range(d) if u < u ^ (1 << k)]


def _complete(n: int) -> list[tuple[int, int, float]]:
    _require(n >= 2, "complete needs n >= 2")
    return [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]


def _tree_ball(d: int, depth: int) -> list[tuple[int, int, float]]:
    size = tree_ball_size(d, depth)
    edges: list[tuple[int, int, float]] = []
    # vertices are allocated in BFS order: root 0, then each generation
    next_id = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            fanout = d if level == 0 else d - 1
            for _ in range(fanout):
                edges.append((v, next_id, 1.0))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    assert next_id == size
    return edges


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One pairing-model attempt at a simple d-regular graph.

    Stubs are shuffled and paired greedily, skipping pairs that would create
    a self-loop or repeated edge; returns None when no suitable pair is left
    but stubs remain (the attempt is then rejected and retried).
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(np.repeat(np.arange(n), d))
    while stubs:
        remaining = np.array(stubs)
        rng.shuffle(remaining)
        open_counts: dict[int, int] = {}
        progress = False
        half = len(remaining) // 2
        for i in range(half):
            u = int(remaining[2 * i])
            v = int(remaining[2 * i + 1])
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                open_counts[u] = open_counts.get(u, 0) + 1
                open_counts[v] = open_counts.get(v, 0) + 1
            else:
                edges.add((u, v))
                progress = True
        if not open_counts:
            return edges
        if not progress:
            # check whether any suitable pair exists among leftover stubs
            verts = sorted(open_counts)
            if not any(
                (u, v) not in edges
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
            ):
                return None
        stubs = [v for v, k in sorted(open_counts.items()) for _ in range(k)]
    return edges


def _random_regular(n: int, d: int, seed: int) -> WeightedGraph:
    _require(n >= 1 and d >= 1, "random-regular needs n >= 1 and d >= 1")
    _require(d < n, "random-regular needs d < n")
    _require(n * d % 2 == 0, "random-regular needs n*d even")
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_REGULAR_RETRY_CAP):
        edges = _pairing_attempt(n, d, rng)
        if edges is None:
            continue
        g = build_graph(n, [(u, v, 1.0) for u, v in sorted(edges)])
        if is_connected(g):
            return g
    raise RetryBudgetError(
        f"no connected simple {d}-regular graph on {n} vertices found in "
        f"{RANDOM_REGULAR_RETRY_CAP} attempts"
    )


def generate(spec: FamilySpec) -> WeightedGraph:
    """Construct the graph a :class:`FamilySpec` selects (unit weights)."""
    f = spec.family
    if f == "path":
        _require(spec.n is not None, "path needs n")
        return build_graph(spec.n, _path(spec.n))
    if f == "cycle":
        _require(spec.n is not None, "cycle needs n")
        return build_graph(spec.n, _cycle(spec.n))
    if f == "torus-grid":
        _require(spec.dims is not None, "torus-grid needs dims")
        a, b = spec.dims
        return build_graph(a * b, _torus(a, b))
    if f == "hypercube":
        _require(spec.d is not None, "hypercube needs d (dimension)")
        return build_graph(1 << spec.d, _hypercube(spec.d))
    if f == "complete":
        _require(spec.n is not None, "complete needs n")
        return build_graph(spec.n, _complete(spec.n))
    if f == "random-regular":
        _require(spec.n is not None and spec.d is not None, "random-regular needs n and d")
        return _random_regular(spec.n, spec.d, spec.seed)
    if f == "tree-ball":
        _require(spec.d is not None and spec.depth is not None, "tree-ball needs d and depth")
        return build_graph(tree_ball_size(spec.d, spec.depth), _tree_ball(spec.d, spec.depth))
    raise InadmissibleFamilyError(f"unknown family {spec.family!r}")
