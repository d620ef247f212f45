"""Net constructions: greedy tree cuts, random expander nets, drop checks."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectop import (
    DisconnectedGraphError,
    FamilySpec,
    GraphError,
    NetResult,
    build_graph,
    distances,
    generate,
    greedy_tree_net,
    is_r_net,
    lambda1,
    net_removal_drop_check,
    random_expander_net,
)
from spectop import nets
from spectop.graphs import VertexSet
from spectop.rng import rng_for

from conftest import graphs, random_connected_graph


def test_greedy_net_path3_radius1():
    g = generate(FamilySpec("path", n=3))
    net = greedy_tree_net(g, 1)
    assert net.vertices.ids == (1,)
    assert net.verified


def test_greedy_net_path3_radius0_takes_everything():
    g = generate(FamilySpec("path", n=3))
    net = greedy_tree_net(g, 0)
    assert net.vertices.ids == (0, 1, 2)


def test_greedy_net_path7_radius1():
    g = generate(FamilySpec("path", n=7))
    net = greedy_tree_net(g, 1)
    assert net.vertices.ids == (1, 3, 5)


def test_greedy_net_cycle9_radius2():
    g = generate(FamilySpec("cycle", n=9))
    net = greedy_tree_net(g, 2)
    assert net.vertices.ids == (2, 7)
    assert is_r_net(g, net.vertices, 2)


def test_greedy_net_single_vertex():
    g = build_graph(1, [])
    net = greedy_tree_net(g, 3)
    assert net.vertices.ids == (0,)


def test_greedy_net_rejects_disconnected():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        greedy_tree_net(g, 1)


def reference_greedy_tree_net(g, r, priority=None):
    """The per-vertex greedy tree net, kept as the oracle of the batched one:
    a Python BFS with rows sorted by priority rank, then the deepest-first
    cut loop and the closing root check, one vertex at a time."""
    n = g.n
    if n == 0:
        return ()
    if priority is None:
        rank = list(range(n))
    else:
        order = sorted(range(n), key=lambda v: (priority[v], v))
        rank = [0] * n
        for i, v in enumerate(order):
            rank[v] = i
    root = min(range(n), key=lambda v: rank[v])
    parent, depth = [-1] * n, [-1] * n
    children = [[] for _ in range(n)]
    depth[root] = 0
    q = deque([root])
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    while q:
        u = q.popleft()
        for v in sorted(indices[indptr[u]:indptr[u + 1]], key=rank.__getitem__):
            if depth[v] == -1:
                depth[v] = depth[u] + 1
                parent[v] = u
                children[u].append(v)
                q.append(v)
    alive = [True] * n
    net = []
    for v in sorted(range(n), key=lambda v: (-depth[v], rank[v])):
        if not alive[v]:
            continue
        if depth[v] <= r:
            d = distances(g, net, cutoff=r) if net else np.full(n, -1)
            if any(alive[w] and d[w] == -1 for w in range(n)):
                net.append(root)
            break
        u = v
        for _ in range(r):
            u = parent[u]
        net.append(u)
        stack = [u]
        alive[u] = False
        while stack:
            for b in children[stack.pop()]:
                if alive[b]:
                    alive[b] = False
                    stack.append(b)
    return tuple(sorted(net))


@pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 10**9])
def test_greedy_net_matches_the_reference_on_the_corpus(corpus, r):
    for i, (name, g) in enumerate(corpus):
        for priority in (None, rng_for(900 + 10 * i + r).random(g.n)):
            net = greedy_tree_net(g, r, priority=priority)
            assert net.vertices.ids == reference_greedy_tree_net(g, r, priority), name
            assert net.verified


@given(seed=st.integers(0, 10_000), r=st.integers(0, 4))
def test_greedy_net_matches_the_reference_on_random_graphs(seed, r):
    g = random_connected_graph(seed, n_max=30)
    priority = rng_for(seed + 3).random(g.n) if seed % 2 else None
    assert greedy_tree_net(g, r, priority).vertices.ids == reference_greedy_tree_net(g, r, priority)


@given(seed=st.integers(0, 10_000), r=st.integers(0, 4))
def test_greedy_net_is_verified_and_small(seed, r):
    g = random_connected_graph(seed, n_max=30)
    net = greedy_tree_net(g, r)
    assert net.verified
    assert is_r_net(g, net.vertices, r)
    assert len(net.vertices) <= math.ceil(g.n / (r + 1))


@given(seed=st.integers(0, 5_000))
def test_greedy_net_priority_keeps_net_property(seed):
    g = random_connected_graph(seed, n_max=20)
    priority = rng_for(seed + 1).random(g.n)
    net = greedy_tree_net(g, 2, priority=priority)
    assert net.verified
    assert len(net.vertices) <= math.ceil(g.n / 3)


@given(g=graphs, r=st.integers(0, 20), p=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 1_000))
@example(g=generate(FamilySpec("cycle", n=40)), r=2, p=0.3, seed=5)
def test_expander_net_membership_rule(g, r, p, seed):
    net = random_expander_net(g, r, p, seed)
    draws = rng_for(seed).random(g.n)
    w0 = [v for v in range(g.n) if draws[v] < p]
    dist = distances(g, w0) if w0 else np.full(g.n, -1)
    w1 = [v for v in range(g.n) if not w0 or dist[v] > r or dist[v] < 0]
    assert set(net.vertices.ids) == set(w0) | set(w1)
    assert net.verified


@given(seed=st.integers(0, 10_000), r=st.integers(1, 4))
def test_expander_net_always_a_net(seed, r):
    g = random_connected_graph(seed, n_max=40)
    p = 0.05 + (seed % 9) / 10.0
    net = random_expander_net(g, r, p, seed)
    assert net.verified
    assert is_r_net(g, net.vertices, r)


def test_expander_net_density_matches_expectation():
    # on a long cycle with r=2: P(v in net) = p + (1-p)^5 exactly
    g = generate(FamilySpec("cycle", n=100))
    p = 0.3
    expected = p + (1 - p) ** 5
    densities = [random_expander_net(g, 2, p, s).density for s in range(300)]
    assert abs(float(np.mean(densities)) - expected) < 0.01


def test_expander_net_p_zero_takes_everything():
    g = generate(FamilySpec("cycle", n=12))
    net = random_expander_net(g, 2, 0.0, 0)
    assert len(net.vertices) == g.n


@given(seed=st.integers(0, 4_000), r=st.integers(1, 3))
def test_drop_check_holds_on_random_graphs(seed, r):
    g = random_connected_graph(seed, n_max=24, weighted=True)
    net = greedy_tree_net(g, r)
    rep = net_removal_drop_check(g, net, r)
    assert rep.ok
    assert rep.lhs <= rep.rhs + 1e-8


def test_drop_check_empty_remainder():
    g = generate(FamilySpec("cycle", n=5))
    everyone = VertexSet.of(range(5), 5)
    net = NetResult("greedy-tree", 1, everyone, 1.0, is_r_net(g, everyone, 1))
    rep = net_removal_drop_check(g, net, 1)
    assert rep.lam1_h == 0.0
    assert rep.ok


@pytest.mark.parametrize("r, lhs_finite", [(513, True), (600, False)])
def test_drop_check_beyond_the_float_range(r, lhs_finite):
    # lambda1(G)^{2r} = 2^{2r} overflows at 2r >= 1024; lambda1(H) = 1.989...
    # to the power 1026 is about 1e306 and to 1200 about 1e358
    g = generate(FamilySpec("cycle", n=30))
    net = greedy_tree_net(g, r)
    rep = net_removal_drop_check(g, net, r)
    assert rep.rhs == math.inf and rep.ok
    assert math.isfinite(rep.lhs) == lhs_finite
    if lhs_finite:
        assert rep.lhs == pytest.approx(rep.lam1_h ** (2 * r), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("w", [0.01, 1.0, 1e-100])
def test_drop_check_without_a_drop_fails_at_any_weight(w, monkeypatch):
    """Cycle 40 of weight w at r = 3: both sides scale as w^6, about 6e-11
    at w = 0.01, so an absolute tolerance of 1e-8 would pass a check in
    which removing the net drops nothing (lambda1(G - W) patched to
    lambda1(G)). At w = 1e-100 both sides underflow to 0, and the check
    is decided on them divided by lambda1(G)^6. The unpatched check passes."""
    g = build_graph(40, [(v, (v + 1) % 40, w) for v in range(40)])
    net = greedy_tree_net(g, 3)
    assert net_removal_drop_check(g, net, 3).ok
    top = lambda1(g)
    monkeypatch.setattr(nets, "lambda1", lambda h: top)
    rep = net_removal_drop_check(g, net, 3)
    assert rep.lam1_h == rep.lam1_g == top
    assert not rep.ok


def test_drop_check_rejects_r_zero():
    g = generate(FamilySpec("cycle", n=5))
    net = greedy_tree_net(g, 0)
    with pytest.raises(GraphError, match="r >= 1"):
        net_removal_drop_check(g, net, 0)


@pytest.mark.parametrize("g", [generate(FamilySpec("path", n=1)),
                               generate(FamilySpec("tree-ball", d=3, depth=0))])
def test_drop_check_needs_an_edge(g):
    # w_min is the lightest edge weight; a graph with none only declares one
    net = greedy_tree_net(g, 1)
    with pytest.raises(GraphError, match="needs an edge"):
        net_removal_drop_check(g, net, 1)


def test_drop_check_weighted_uses_graph_w_min():
    g = build_graph(4, [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.5), (3, 0, 1.0)])
    net = greedy_tree_net(g, 1)
    rep = net_removal_drop_check(g, net, 1)
    lam_g = lambda1(g)
    assert rep.rhs == pytest.approx(lam_g ** 2 - 0.5 ** 2, rel=1e-12)
    assert rep.ok
