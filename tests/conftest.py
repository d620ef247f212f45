"""Shared fixtures: random connected graphs and the acceptance corpus."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from spectop import FamilySpec, WeightedGraph, build_graph, generate
from spectop.rng import rng_for

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


def random_connected_graph(
    seed: int,
    n_min: int = 2,
    n_max: int = 24,
    weighted: bool = False,
) -> WeightedGraph:
    """Random tree by uniform attachment plus a few extra edges.

    Connected by construction; weights land in [0.5, 2.0] when requested.
    """
    rng = rng_for(seed)
    n = int(rng.integers(n_min, n_max + 1))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = 1.0
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.setdefault(key, 1.0)
    if weighted:
        for key in edges:
            edges[key] = float(rng.uniform(0.5, 2.0))
    return build_graph(n, [(u, v, w) for (u, v), w in edges.items()])


def random_graph(n: int, seed: int) -> WeightedGraph:
    """Graph on ``n >= 0`` vertices, each pair an edge with one random
    probability below 0.4: often disconnected, sometimes edgeless."""
    rng = rng_for(seed)
    p = 0.4 * rng.random()
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < p
    return build_graph(n, [(a, b, 1.0) for a, b in zip(u[keep].tolist(), v[keep].tolist())])


# graphs of up to 16 vertices, empty and disconnected ones included
graphs = st.builds(random_graph, n=st.integers(0, 16), seed=st.integers(0, 10_000))


def finite_family_corpus() -> list[tuple[str, WeightedGraph]]:
    """Cycles, tori and random 4-/6-regular graphs up to n = 400."""
    specs = [
        FamilySpec("cycle", n=40),
        FamilySpec("cycle", n=100),
        FamilySpec("cycle", n=400),
        FamilySpec("torus-grid", dims=(5, 4)),
        FamilySpec("torus-grid", dims=(8, 5)),
        FamilySpec("torus-grid", dims=(10, 8)),
        FamilySpec("random-regular", n=60, d=4, seed=101),
        FamilySpec("random-regular", n=150, d=4, seed=102),
        FamilySpec("random-regular", n=300, d=4, seed=103),
        FamilySpec("random-regular", n=50, d=6, seed=104),
        FamilySpec("random-regular", n=120, d=6, seed=105),
        FamilySpec("random-regular", n=400, d=6, seed=106),
    ]
    return [(spec.describe(), generate(spec)) for spec in specs]


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, WeightedGraph]]:
    return finite_family_corpus()


@pytest.fixture(scope="session")
def cycle12() -> WeightedGraph:
    return generate(FamilySpec("cycle", n=12))


@pytest.fixture(scope="session")
def path7() -> WeightedGraph:
    return generate(FamilySpec("path", n=7))
