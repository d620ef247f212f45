"""Graph container, metrics, predicates, file format."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectop import (
    AsymmetricWeightError,
    DuplicateEdgeError,
    GraphFormatError,
    NonpositiveWeightError,
    SelfLoopError,
    VertexRangeError,
    VertexSet,
    all_pairs_distances,
    ball,
    build_graph,
    delete_vertices,
    distances,
    induced_subgraph,
    is_connected,
    is_r_net,
    is_s_separated,
    lambda1,
    read_graph,
    write_graph,
)
from spectop import graphs as graphs_module
from spectop.graphs import UNREACHABLE, GraphError, _induced_arrays

from conftest import graphs, random_connected_graph


def test_build_graph_basic_metrics():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.0)])
    assert g.n == 4
    assert g.m == 4
    assert g.w_min == 0.5
    assert g.w_max == 2.0
    assert g.delta == 2
    assert g.delta_tilde == 8.0  # delta * w_max / w_min
    a = g.dense()
    assert np.array_equal(a, a.T)
    assert a[1, 2] == 2.0


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(1, 1, 1.0)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1, 1.0), (1, 0, 1.0)])


def test_build_graph_rejects_asymmetric_weight():
    # same unordered pair listed twice with different weights
    with pytest.raises((AsymmetricWeightError, DuplicateEdgeError)):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_build_graph_rejects_nonpositive_weight():
    with pytest.raises(NonpositiveWeightError):
        build_graph(2, [(0, 1, 0.0)])
    with pytest.raises(NonpositiveWeightError):
        build_graph(2, [(0, 1, -3.0)])


def test_build_graph_rejects_out_of_range_vertex():
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 2, 1.0)])
    with pytest.raises(VertexRangeError):
        build_graph(2, [(-1, 0, 1.0)])


def test_adjacency_lists_sorted_by_neighbor():
    g = build_graph(4, [(3, 0, 1.0), (0, 1, 1.0), (2, 0, 1.0)])
    assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [1, 2, 3]


@given(seed=st.integers(0, 10_000))
def test_csr_arrays_hold_a_sorted_symmetric_read_only_adjacency(seed):
    g = random_connected_graph(seed, n_max=12, weighted=True)
    assert g.indptr[0] == 0 and g.indptr[-1] == 2 * g.m == len(g.indices)
    for u in range(g.n):
        row = g.indices[g.indptr[u]:g.indptr[u + 1]]
        assert (np.diff(row) > 0).all()
    a = g.csr
    assert (a != a.T).nnz == 0
    assert a.diagonal().sum() == 0
    for arr in (g.indptr, g.indices, g.weights, g.rows()):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    # rows() is computed once and the same array returned on every call
    assert g.rows() is g.rows()
    assert np.array_equal(g.rows(), np.repeat(np.arange(g.n), np.diff(g.indptr)))


def per_edge_validator(n, edges):
    """The reference for build_graph's checks: one edge at a time, in order.

    Returns the accepted edges as a {(u, v): w} dict with u < v.
    """
    seen = {}
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
    return seen


FAULTS = ("range", "loop", "zero", "negative", "nan", "inf", "duplicate", "asymmetric")


@settings(max_examples=300)
@given(data=st.data())
def test_build_graph_matches_the_per_edge_validator(data):
    n = data.draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
        unique_by=lambda p: (min(p), max(p)), max_size=12,
    ))
    weight = st.sampled_from([0.5, 1.0, 2.0, 1 / 3])
    edges = [(u, v, data.draw(weight)) for u, v in pairs]
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        u, v = data.draw(vertex), data.draw(vertex)
        if fault == "range":
            bad = (data.draw(st.sampled_from([-1, n, n + 5])), v, 1.0)
        elif fault == "loop":
            bad = (u, u, 1.0)
        elif fault in ("duplicate", "asymmetric"):
            if not edges:
                continue
            a, b, w = data.draw(st.sampled_from(edges))
            a, b = data.draw(st.sampled_from([(a, b), (b, a)]))
            bad = (a, b, w if fault == "duplicate" else w * 3)
        else:
            w = {"zero": 0.0, "negative": -1.5, "nan": math.nan,
                 "inf": data.draw(st.sampled_from([math.inf, -math.inf]))}[fault]
            bad = (u, v, w)
        edges.insert(data.draw(st.integers(0, len(edges))), bad)

    try:
        expected = per_edge_validator(n, edges)
    except GraphError as exc:
        with pytest.raises(type(exc)) as got:
            build_graph(n, edges)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    g = build_graph(n, edges)
    assert list(g.edges()) == sorted((u, v, w) for (u, v), w in expected.items())


def test_edgeless_graph_conventions():
    g = build_graph(3, [])
    assert g.m == 0
    assert g.delta == 0
    assert g.w_min == 1.0 and g.w_max == 1.0
    assert not is_connected(g)


def test_distances_on_path(path7):
    d = distances(path7, [0])
    assert list(d) == [0, 1, 2, 3, 4, 5, 6]
    d2 = distances(path7, [0, 6])
    assert list(d2) == [0, 1, 2, 3, 2, 1, 0]


def test_distances_cutoff_marks_unreachable(path7):
    d = distances(path7, [0], cutoff=2)
    assert list(d[:3]) == [0, 1, 2]
    assert all(x == UNREACHABLE for x in d[3:])


def test_distances_and_ball_reject_bad_input(path7):
    # a negative id must not wrap around to the end of the vertex range
    for sources in (-1, 7, [0, 7], (3, -1), VertexSet.of([8], 9)):
        with pytest.raises(VertexRangeError):
            distances(path7, sources)
    for v in (-1, 7):
        with pytest.raises(VertexRangeError):
            ball(path7, v, 1)
    with pytest.raises(GraphError):
        ball(path7, 0, -1)


@given(
    g=graphs | st.builds(random_connected_graph, st.integers(0, 10_000), n_max=st.just(16)),
    data=st.data(),
)
def test_distances_match_all_pairs(g, data):
    ap = all_pairs_distances(g)
    for v in range(g.n):
        assert np.array_equal(distances(g, [v]), ap[v])
    # several sources, given as an int, list, tuple, VertexSet or nothing: the
    # row-wise minimum of ap, cut at depth ceil(c), and at the sources alone for c <= 0
    hops = np.where(ap == UNREACHABLE, np.inf, ap)
    sources = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=min(g.n, 4)))
    near = np.min(hops[sources], axis=0, initial=np.inf)
    forms = [sources, tuple(sources), VertexSet.of(sources, g.n)]
    if len(sources) == 1:
        forms.append(sources[0])
    depths = {None: math.inf, 0: 0, 1: 1, 2.5: 3, math.inf: math.inf, -1: 0}
    for cutoff, depth in depths.items():
        expected = np.where(np.isfinite(near) & (near <= depth), near, UNREACHABLE).astype(np.int64)
        for form in forms:
            assert np.array_equal(distances(g, form, cutoff=cutoff), expected), (form, cutoff)


@given(g=graphs.filter(lambda g: g.n), data=st.data())
def test_ball_membership_matches_distances(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    d = distances(g, [v])
    for r in range(g.n + 2):
        sub, vmap = ball(g, v, r)
        assert list(vmap) == [u for u in range(g.n) if 0 <= d[u] <= r]
        assert is_connected(sub)
        if r:  # a fractional radius reaches depth ceil(r)
            assert ball(g, v, r - 0.5)[1] == vmap
    assert ball(g, v, math.inf)[1] == vmap


def test_induced_subgraph_keeps_internal_edges(cycle12):
    sub, vmap = induced_subgraph(cycle12, [0, 1, 2, 7])
    assert vmap == (0, 1, 2, 7)
    assert sub.m == 2  # edges 0-1 and 1-2 survive, 7 is isolated here
    # parent weight bounds are inherited, not recomputed
    assert sub.w_min == cycle12.w_min


def test_delete_vertices_complement(cycle12):
    h, vmap = delete_vertices(cycle12, [0])
    assert h.n == 11
    assert 0 not in vmap
    assert h.m == 10


@given(g=graphs, data=st.data())
def test_delete_vertices_is_the_induced_subgraph_on_the_complement(g, data):
    # repeated ids and the empty set included
    gone = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=2 * g.n))
    h, vmap = delete_vertices(g, iter(gone))
    sub, sub_vmap = induced_subgraph(g, set(range(g.n)) - set(gone))
    assert vmap == sub_vmap
    assert all(type(v) is int for v in vmap)
    assert (h.n, h.w_min, h.w_max, h.delta) == (sub.n, sub.w_min, sub.w_max, sub.delta)
    for a, b in [(h.indptr, sub.indptr), (h.indices, sub.indices), (h.weights, sub.weights)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def block_diagonal_reference(g, sets):
    """CSR arrays of the induced subgraphs on ``sets``, side by side, each
    block read off ``induced_subgraph`` and checked against the dense matrix."""
    indptr, indices, weights, start = [0], [], [], 0
    dense = g.dense()
    for s in sets:
        sub, vmap = induced_subgraph(g, s)
        assert np.array_equal(sub.dense(), dense[np.ix_(vmap, vmap)])
        indptr.extend((indptr[-1] + sub.indptr[1:]).tolist())
        indices.extend((sub.indices + start).tolist())
        weights.extend(sub.weights.tolist())
        start += sub.n
    return indptr, indices, weights


@given(g=graphs, sets=st.lists(st.sets(st.integers(0, 15)), max_size=6))
@example(g=build_graph(0, []), sets=[])
@example(g=build_graph(3, []), sets=[set(), {1}, {0, 2}])  # edgeless, no ids in one block
@example(g=build_graph(4, [(0, 1, 1.0), (1, 2, 2.0)]), sets=[{3}, {0}, {0, 1, 3}, {1, 2}])
def test_induced_arrays_match_induced_subgraphs_block_by_block(g, sets):
    # vertex sets that overlap, are empty or hold one vertex, on graphs with
    # edgeless vertices; the direct table and the sorted search both run
    sets = [sorted(v for v in s if v < g.n) for s in sets]
    ids = np.array([v for s in sets for v in s], dtype=np.int64)
    block = np.arange(len(sets)).repeat([len(s) for s in sets])
    expected = block_diagonal_reference(g, sets)
    for slots in (0, 2**62):  # the table never (except when empty) and always
        with mock.patch.object(graphs_module, "INDUCED_TABLE_SLOTS", slots):
            got = _induced_arrays(g, ids, block)
        for a, b in zip(got, expected):
            assert a.tolist() == b
        if len(sets) == 1:
            with mock.patch.object(graphs_module, "INDUCED_TABLE_SLOTS", slots):
                alone = _induced_arrays(g, ids)
            assert all(np.array_equal(a, b) for a, b in zip(alone, got))


@pytest.mark.parametrize("gone", [[7, -1, 2, 2], [-1], [6], [2, 6]])
def test_delete_vertices_rejects_ids_out_of_range(gone):
    # a negative id must not wrap around to the end of the vertex range
    cycle6 = build_graph(6, [(v, (v + 1) % 6, 1.0) for v in range(6)])
    with pytest.raises(VertexRangeError):
        delete_vertices(cycle6, gone)


def test_is_r_net_hand_cases(path7):
    assert is_r_net(path7, [3], 3)
    assert not is_r_net(path7, [3], 2)
    assert is_r_net(path7, [1, 3, 5], 1)
    assert is_r_net(path7, range(7), 0)
    assert not is_r_net(path7, [], 1)
    assert is_r_net(path7, [0], 100)  # r far above the diameter
    two_paths = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
    assert not is_r_net(two_paths, [1], 100)
    assert is_r_net(two_paths, [1, 4], 1)
    assert not is_r_net(two_paths, [0, 3], 1)


@given(g=graphs, w=st.sets(st.integers(0, 15)))
def test_is_r_net_matches_distances(g, w):
    w = sorted(v for v in w if v < g.n)
    for r in range(g.n + 2):  # up to above the diameter
        assert is_r_net(g, w, r) == (distances(g, w, cutoff=r) != UNREACHABLE).all()


def test_is_r_net_rejects_out_of_range_vertices(path7):
    for w in ([-1], [7], [3, -2], [0, 99]):
        with pytest.raises(VertexRangeError):
            is_r_net(path7, w, 2)
    with pytest.raises(VertexRangeError):
        is_r_net(build_graph(0, []), [0], 1)


def test_empty_set_is_net_only_of_empty_graph():
    g = build_graph(0, [])
    assert is_r_net(g, [], 5)


def test_is_s_separated_hand_cases(path7):
    assert is_s_separated(path7, [0, 3, 6], 3)
    assert not is_s_separated(path7, [0, 2], 3)
    assert is_s_separated(path7, [4], 99)
    assert is_s_separated(path7, [], 2)
    for w in ([0, 9], [-1, 3], [7]):
        with pytest.raises(VertexRangeError):
            is_s_separated(path7, w, 2)


def test_vertex_set_operations():
    vs = VertexSet.of([3, 1], 5)
    assert vs.ids == (1, 3)
    assert len(vs) == 2
    assert vs.density == 0.4
    mask = vs.mask()
    assert mask.dtype == bool and mask.sum() == 2


def test_vertex_set_membership():
    empty = VertexSet.of([], 6)
    assert all(v not in empty for v in range(-1, 7))
    vs = VertexSet.of([0, 2, 3, 5], 6)
    assert 0 in vs and 5 in vs  # both ends
    assert 2 in vs and np.int64(3) in vs
    for absent in (-1, 1, 4, 6, 99):
        assert absent not in vs
    assert [v for v in range(6) if v in vs] == list(vs.ids)


def test_vertex_set_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        VertexSet.of([5], 5)


def test_graph_file_roundtrip(tmp_path):
    g = random_connected_graph(77, n_max=20, weighted=True)
    path = tmp_path / "g.graph"
    write_graph(g, str(path))
    h = read_graph(str(path))
    assert h == g
    # a second write of the re-read graph is byte-identical
    path2 = tmp_path / "g2.graph"
    write_graph(h, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_read_graph_rejects_malformed(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 1\n")  # missing weight column
    with pytest.raises(GraphFormatError):
        read_graph(str(path))


def test_read_graph_skips_comments(tmp_path):
    path = tmp_path / "ok.graph"
    path.write_text("# a comment, café\n2 1\n0 1 1.5\n", encoding="utf-8")
    g = read_graph(str(path))
    assert g.n == 2 and g.m == 1 and g.w_max == 1.5


@given(seed=st.integers(0, 10_000))
def test_graph_equality_and_hash_follow_structure(seed):
    g = random_connected_graph(seed, n_max=10, weighted=True)
    h = build_graph(g.n, list(g.edges()))
    assert g == h
    assert hash(g) == hash(h)


def test_delta_tilde_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.delta == 1
    assert g.delta_tilde == 1.0


def test_lambda1_monotone_under_edge_addition():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    h = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    assert lambda1(h) >= lambda1(g) - 1e-12
    assert math.isclose(lambda1(h), 2.0, abs_tol=1e-9)
