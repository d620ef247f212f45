"""Spectra against closed forms, counting semantics, trace identities."""

from __future__ import annotations

import argparse
import csv
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectop import (
    FamilySpec,
    GraphError,
    InertiaCounts,
    SolverBudgetError,
    SolverCapError,
    Spectrum,
    WeightedGraph,
    all_pairs_distances,
    ball,
    build_graph,
    count_at_most,
    count_below,
    delete_vertices,
    eigenvalues,
    generate,
    greedy_tree_net,
    lambda1,
    lambda1_balls,
    local_global_check,
    trace_power,
)
from spectop import spectral
from spectop.graphs import _ball_rows
from spectop.bounds import thm_checker
from spectop.cli import (
    EN_ROUTE_THETA_CAP,
    ExperimentConfig,
    _second_eig,
    en_route_finite_param,
    graph_provider,
    main,
    sweep_rows,
)
from spectop.rng import rng_for, trial_seed
from spectop.spectral import TOL_EIG

from conftest import graphs, random_connected_graph

EIG_ATOL = 1e-9


def sorted_close(actual, expected, atol=EIG_ATOL):
    actual = np.sort(np.asarray(actual))
    expected = np.sort(np.asarray(expected))
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= atol


def test_cycle_spectrum_closed_form():
    n = 17
    g = generate(FamilySpec("cycle", n=n))
    spec = eigenvalues(g)
    expected = [2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    sorted_close(spec.values, expected)


def test_path_spectrum_closed_form():
    n = 11
    g = generate(FamilySpec("path", n=n))
    spec = eigenvalues(g)
    expected = [2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)]
    sorted_close(spec.values, expected)


def test_complete_spectrum_closed_form():
    n = 9
    g = generate(FamilySpec("complete", n=n))
    spec = eigenvalues(g)
    expected = [n - 1.0] + [-1.0] * (n - 1)
    sorted_close(spec.values, expected)


def test_hypercube_spectrum_closed_form():
    d = 5
    g = generate(FamilySpec("hypercube", d=d))
    spec = eigenvalues(g)
    expected = []
    for j in range(d + 1):
        expected.extend([d - 2.0 * j] * math.comb(d, j))
    sorted_close(spec.values, expected)


def test_eigenvalues_respects_cap():
    g = generate(FamilySpec("cycle", n=12))
    with pytest.raises(SolverCapError):
        eigenvalues(g, cap=11)
    # lambda_1 = 2 is an exact eigenvalue, so every factorization, the dense
    # LDL^T too, refuses it; the count falls back to the dense spectrum,
    # which InertiaCounts computes only up to the default cap
    counts = InertiaCounts(g)
    assert counts.below(2.0) == eigenvalues(g).below(2.0)
    assert counts._below[2.0] is None


def _no_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(WeightedGraph, "dense", refuse)


def test_inertia_counts_above_the_cap_match_the_closed_form(monkeypatch):
    n = 65536
    g = generate(FamilySpec("cycle", n=n))
    closed = 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    _no_dense(monkeypatch)
    counts = InertiaCounts(g)
    for sigma in (1.5, -0.7):  # each at least 4e-5 from the spectrum
        assert counts.below(sigma) == np.count_nonzero(closed < sigma)


def test_refused_shift_above_the_cap_raises(monkeypatch):
    g = generate(FamilySpec("torus-grid", dims=(80, 80)))
    cycle = 2.0 * np.cos(2.0 * np.pi * np.arange(80) / 80)
    closed = (cycle[:, None] + cycle[None, :]).ravel()
    _no_dense(monkeypatch)
    counts = InertiaCounts(g)
    assert counts.below(1.3) == np.count_nonzero(closed < 1.3)  # 1.1e-3 from the spectrum
    # 2 is a multiple eigenvalue, so the factorization cannot certify the
    # count at 2, and the dense fallback would need an order-6400 solve
    with pytest.raises(SolverCapError):
        counts.below(2.0)
    assert counts._below[2.0] is None


def test_eigenvalues_empty_graph():
    spec = eigenvalues(build_graph(0, []))
    assert spec.n == 0
    assert spec.values.size == 0


def test_lambda1_cycle_is_two():
    g = generate(FamilySpec("cycle", n=50))
    assert lambda1(g) == 2.0


def test_lambda1_edgeless_is_zero():
    assert lambda1(build_graph(4, [])) == 0.0


def test_lambda1_of_constant_row_sums_needs_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a graph with constant row sums")

    monkeypatch.setattr(spectral, "_dense_top", no_solve)
    # every vertex has one edge of each weight
    g = build_graph(4, [(0, 1, 0.5), (1, 2, 1.5), (2, 3, 0.5), (3, 0, 1.5)])
    assert lambda1(g) == 2.0
    assert lambda1(generate(FamilySpec("hypercube", d=5))) == 5.0
    monkeypatch.undo()
    # isolated vertices (empty rows, here the last) break the constant row sum, as in G - W
    assert lambda1(build_graph(3, [(0, 1, 1.0)])) == pytest.approx(1.0, abs=1e-12)


def _dense_oracle(g):
    return scipy.linalg.eigvalsh(g.dense())[-1]


def _lambda1_matches_the_dense_oracle(g, seed):
    # empty, edgeless and disconnected graphs, weights in [0.5, 2]
    if g.n == 0:
        with pytest.raises(GraphError):
            lambda1(g)
        return
    weights = rng_for(seed).uniform(0.5, 2.0, g.m).tolist()
    g = build_graph(g.n, [(u, v, w) for (u, v, _), w in zip(g.edges(), weights)])
    assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)


@given(g=graphs, seed=st.integers(0, 10_000))
def test_lambda1_matches_the_full_dense_spectrum(g, seed):
    _lambda1_matches_the_dense_oracle(g, seed)


@given(g=graphs, seed=st.integers(0, 10_000))
def test_lambda1_by_components_matches_the_full_dense_spectrum(g, seed):
    # every irregular graph goes by its components' tops
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "DENSE_TOP_MAX", 0)
        _lambda1_matches_the_dense_oracle(g, seed)


def test_lambda1_matches_the_full_dense_spectrum_at_a_repeated_top_and_large_n():
    h = random_connected_graph(7, n_min=20, n_max=30, weighted=True)
    edges = list(h.edges())
    # two disjoint copies: the top eigenvalue is double
    twice = build_graph(2 * h.n, edges + [(u + h.n, v + h.n, w) for u, v, w in edges])
    large = random_connected_graph(3, n_min=300, n_max=400, weighted=True)
    # irregular: h and twice get the dense solve, large its components' tops
    assert max(h.n, twice.n) <= spectral.DENSE_TOP_MAX < large.n
    for g in (h, twice, large):
        assert np.ptp(spectral._row_sums(g)) > 0
        assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)
    assert abs(lambda1(twice) - lambda1(h)) <= 1e-12 * lambda1(h)


def test_lambda1_by_components_above_the_dense_cut(monkeypatch):
    rr6 = generate(FamilySpec("random-regular", n=400, d=6, seed=106))  # the corpus graph
    cases = [delete_vertices(rr6, greedy_tree_net(rr6, r).vertices)[0] for r in (1, 2, 3)]
    # lambda1 below 3 in the large component, which comes first, and 4 in K5
    k5 = [(u, v, 1.0) for u in range(395, 400) for v in range(u + 1, 400)]
    cases.append(build_graph(400, [(v, v + 1, 1.5) for v in range(394)] + k5))
    # every odd vertex isolated
    h = random_connected_graph(5, n_min=130, n_max=150, weighted=True)
    cases.append(build_graph(300, [(2 * u, 2 * v, w) for u, v, w in h.edges()]))
    # a star of 200 leaves (row sum 200, lambda1 sqrt(200)) next to K16 (15),
    # then isolated vertices: the largest row sum is not in the top's component
    k16 = [(u, v, 1.0) for u in range(201, 217) for v in range(u + 1, 217)]
    cases.append(build_graph(300, [(0, v, 1.0) for v in range(1, 201)] + k16))
    assert [g.n for g in cases] == [255, 351, 384, 400, 300, 300]
    assert lambda1(cases[3]) == pytest.approx(4.0, rel=1e-12)
    assert lambda1(cases[5]) == pytest.approx(15.0, rel=1e-12)
    # G - W of the r = 1 net has 255 vertices: it goes by components at the cut 0
    for cut in (spectral.DENSE_TOP_MAX, 0):
        monkeypatch.setattr(spectral, "DENSE_TOP_MAX", cut)
        for g in cases:
            assert np.ptp(spectral._row_sums(g)) > 0
            assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)


def no_dense_solve(*args, **kwargs):
    raise AssertionError("a dense top solve ran")


def test_lambda1_above_the_dense_cut_needs_no_dense_solve(monkeypatch):
    h = random_connected_graph(13, n_min=300, n_max=300, weighted=True)
    g = build_graph(320, list(h.edges()))  # and 20 isolated vertices
    second, expected = scipy.linalg.eigvalsh(g.dense())[-2:]
    assert expected - second > 0.05 * expected  # a clear top gap
    monkeypatch.setattr(spectral, "_dense_top", no_dense_solve)
    assert abs(lambda1(g) - expected) <= 1e-12 * expected


def test_lambda1_skips_the_components_that_cannot_hold_the_top(monkeypatch):
    # the path's row sums are at most 3, below K5's mean row sum 4, so only
    # K5 runs; the path's tiny top gap would run out the budget and be solved
    k5 = [(u, v, 1.0) for u in range(395, 400) for v in range(u + 1, 400)]
    g = build_graph(400, [(v, v + 1, 1.5) for v in range(394)] + k5)
    monkeypatch.setattr(spectral, "_dense_top", no_dense_solve)
    assert lambda1(g) == pytest.approx(4.0, rel=1e-12)


def test_lambda1_keeps_a_component_whose_mean_rounds_above_its_row_sums():
    # a triangle of weight 0.05 has row sums 0.1, and its mean row sum
    # (0.1 + 0.1 + 0.1) / 3 rounds to 0.10000000000000002, above them
    triangle = [(0, 1, 0.05), (1, 2, 0.05), (0, 2, 0.05)]
    star = [(3, v, 0.001) for v in range(4, 304)]  # row sum 0.3, lambda1 0.0173
    path = [(v, v + 1, 0.01) for v in range(3, 302)]  # row sums at most 0.02
    for g in (build_graph(304, triangle + star), build_graph(303, triangle + path)):
        assert spectral.DENSE_TOP_MAX < g.n
        assert lambda1(g) == pytest.approx(0.1, rel=1e-12)
        assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)


def test_a_lapack_failure_in_lambda1_raises(monkeypatch):
    def failed(a, **kwargs):
        return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, dtype=np.int32), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failed)
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])  # a path: irregular, so solved
    with pytest.raises(SolverBudgetError, match="info 3"):
        lambda1(g)


def test_count_endpoint_semantics():
    spec = Spectrum(np.array([-1.0, 0.0, 1.0, 1.0, 2.0]))
    assert count_at_most(spec, 2.0) - count_below(spec, 1.0) == 3  # [1, 2]
    assert count_at_most(spec, 2.0) - count_at_most(spec, 1.0) == 1  # (1, 2]
    assert count_below(spec, 2.0) - count_below(spec, 1.0) == 2  # [1, 2)
    assert spec.n - count_at_most(spec, 0.0) == 3  # (0, inf)
    assert count_at_most(spec, 0.0) == 2  # (-inf, 0]
    # ends match up to the eigenvalue tolerance, each count toward its side
    assert count_below(spec, 1.0 + 1e-12) == 2
    assert count_at_most(spec, 1.0 - 1e-12) == 4
    assert count_below(spec, 1.0 + 2 * TOL_EIG) == 4
    assert count_at_most(spec, 1.0 - 2 * TOL_EIG) == 2
    assert count_at_most(spec, math.inf) == 5 and count_below(spec, -math.inf) == 0


def test_window_mass_is_the_correctly_rounded_rational():
    """A count over n as a float is the rational c / n rounded once, as the
    exact ``Fraction`` the masses were once kept in would round it."""
    for n in (3, 7, 12, 1000, 4096, 65536):
        for c in range(0, n + 1, max(1, n // 97)):
            assert c / n == float(Fraction(c, n)), (c, n)


def spectrum_moment(spectrum: Spectrum, k: int) -> float:
    """The oracle for trace_power: sum(lambda_i^k), correctly rounded."""
    return math.fsum(float(v) ** k for v in spectrum.values)


@given(seed=st.integers(0, 5_000), k=st.sampled_from([2, 4, 6, 8]))
def test_trace_power_matches_spectrum_moment(seed, k):
    g = random_connected_graph(seed, n_max=14, weighted=True)
    spec = eigenvalues(g)
    lhs = trace_power(g, k)
    rhs = spectrum_moment(spec, k)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_trace_power_rejects_odd_power(cycle12):
    with pytest.raises(Exception):
        trace_power(cycle12, 3)


def test_trace_square_counts_weighted_edges():
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    # trace(A^2) = 2 * sum of squared weights
    assert trace_power(g, 2) == pytest.approx(2 * (4.0 + 0.25), rel=1e-12)


def diagonal_trace(g, k):
    """The dense route to trace(A^k): the diagonal of A^k from k products
    with the identity. Exact on unit weights while trace(A^k) < 2^53."""
    x = np.eye(g.n)
    for _ in range(k):
        x = g.csr @ x
    return math.fsum(np.diagonal(x).tolist())


@given(g=graphs, k=st.sampled_from([0, 2, 4, 6, 8, 10, 12]))
def test_trace_power_matches_the_diagonal_of_a_k(g, k):
    # unit weights, n <= 16: every walk count is an exact integer here
    assert trace_power(g, k) == diagonal_trace(g, k)


def test_trace_power_matches_the_diagonal_on_the_corpus(corpus):
    for _, g in corpus:
        for r in (1, 2, 3, 4):
            assert trace_power(g, 2 * r) == diagonal_trace(g, 2 * r)


def test_trace_power_of_a_long_cycle_stays_sparse():
    g = generate(FamilySpec("cycle", n=4096))
    tracemalloc.start()
    try:
        value = trace_power(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # closed walks of length 8 from each vertex: C(8, 4)
    assert value == 4096 * math.comb(8, 4)
    # the dense route holds n x n arrays of 134 MB
    assert peak < 16 * 2**20


def test_lambda1_balls_of_a_long_cycle_stay_small():
    # 65536 order-3 balls, about 1666 to a block-diagonal chunk; a position
    # table of (balls in the chunk) x n slots would hold 873 MB per chunk
    g = generate(FamilySpec("cycle", n=65536))
    tracemalloc.start()
    try:
        tops = lambda1_balls(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.abs(tops - math.sqrt(2.0)) <= 1e-12)
    assert peak < 32 * 2**20  # 19 MB measured


def test_local_global_equality_on_c4():
    g = generate(FamilySpec("cycle", n=4))
    rep = local_global_check(g, 1)
    assert rep.lhs == 8.0
    assert abs(rep.rhs - 8.0) <= 1e-12
    assert rep.ok


@given(seed=st.integers(0, 5_000), r=st.integers(1, 3))
def test_local_global_holds_on_random_graphs(seed, r):
    g = random_connected_graph(seed, n_max=16, weighted=True)
    rep = local_global_check(g, r)
    assert rep.ok
    assert rep.lhs <= rep.rhs + 1e-6 * abs(rep.rhs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("w, r", [(1e100, 1), (1e100, 2), (1e200, 1)])
def test_local_global_beyond_the_float_range(w, r):
    """A triangle of weight w: trace(A^{2r}) = (2^{2r} + 2) w^{2r} and each
    ball, the whole triangle, has lambda1 = 2w. A side beyond the float
    range is inf, the verdict is the unit triangle's, and nothing warns."""
    g = build_graph(3, [(0, 1, w), (1, 2, w), (0, 2, w)])
    rep = local_global_check(g, r)
    assert rep.ok
    finite = 2 * r * math.log10(2 * w) < 308
    assert math.isfinite(rep.lhs) == math.isfinite(rep.rhs) == finite


@pytest.mark.parametrize("k, scaled", [(248, False), (249, True), (-251, False), (-252, True)])
def test_local_global_scaling_is_exact(k, scaled):
    """n (delta w_max)^4 = 3 (2^{k+1})^4 reaches 2^1000 at k = 249, where A
    is scaled down by a power of two, and falls below 2^-1000 at k = -252,
    where A is scaled up; both sides stay exact on either side."""
    g = build_graph(3, [(0, 1, 2.0**k), (1, 2, 2.0**k), (0, 2, 2.0**k)])
    assert (abs(math.log2(3) + 4 * (k + 1)) >= spectral.LOCAL_GLOBAL_LOG2_MAX) == scaled
    rep = local_global_check(g, 2)
    assert (rep.lhs, rep.rhs) == (18 * 2.0 ** (4 * k), 48 * 2.0 ** (4 * k))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_local_global_below_the_float_range_keeps_its_verdict(monkeypatch):
    """The path 0-1-2 of weight 1e-100 at r = 2: both sides, about 1e-399,
    underflow to 0, yet the verdict is decided on A scaled up, so halving
    every ball's lambda1 (rhs / 16 against lhs = 8 w^4) fails the check."""
    g = build_graph(3, [(0, 1, 1e-100), (1, 2, 1e-100)])
    rep = local_global_check(g, 2)
    assert rep.ok and rep.lhs == rep.rhs == 0.0
    halved = spectral.lambda1_balls
    monkeypatch.setattr(spectral, "lambda1_balls", lambda h, r: halved(h, r) / 2)
    assert not local_global_check(g, 2).ok


def dense_ball_tops(g, r):
    return np.array([scipy.linalg.eigvalsh(ball(g, v, r)[0].dense())[-1] for v in range(g.n)])


@given(seed=st.integers(0, 5_000), r=st.integers(0, 3))
def test_lambda1_balls_matches_per_vertex_solves(seed, r):
    g = random_connected_graph(seed, n_max=12, weighted=True)
    tops = lambda1_balls(g, r)
    dense = dense_ball_tops(g, r)
    # a lower bound up to rounding, and as close as the dense solve
    assert np.all(tops <= dense * (1 + 1e-14))
    assert np.all(np.abs(tops - dense) <= 1e-12 * dense)


@given(g=graphs, seed=st.integers(0, 10_000))
def test_lambda1_balls_match_per_vertex_solves_at_every_radius(g, seed):
    # empty, edgeless and disconnected graphs, weights in [0.5, 2]
    weights = rng_for(seed).uniform(0.5, 2.0, g.m).tolist()
    g = build_graph(g.n, [(u, v, w) for (u, v, _), w in zip(g.edges(), weights)])
    for r in range(g.n + 2):
        tops = lambda1_balls(g, r)
        dense = dense_ball_tops(g, r)
        assert np.all(tops <= dense * (1 + 1e-14))
        assert np.all(np.abs(tops - dense) <= 1e-12 * dense)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1, 2])
def test_lambda1_balls_with_huge_weights(r):
    # row sums near 1e100: four unscaled power steps would overflow
    n = 10
    edges = [(i, (i + 1) % n, 1e100 * (1 + 0.1 * i)) for i in range(n)] + [(0, 5, 3e100)]
    g = build_graph(n, edges)
    tops = lambda1_balls(g, r)
    dense = dense_ball_tops(g, r)
    assert np.all(np.isfinite(tops))
    assert np.all(np.abs(tops - dense) <= 1e-12 * dense)


def balls_by_bytes(members):
    """Each distinct ball's first center and each center's ball index, with
    one dict key per ball: the bytes of its sorted ids."""
    index, reps, which = {}, [], []
    for v in range(members.shape[0]):
        key = members.indices[members.indptr[v]:members.indptr[v + 1]].tobytes()
        if key not in index:
            index[key] = len(reps)
            reps.append(v)
        which.append(index[key])
    return reps, which


def clique_and_a_tail(m):
    # K_m and a 2-vertex path hung on vertex 0: at r = 1 the balls of the
    # other m - 1 clique vertices equal the clique without being whole
    edges = [(u, v, 1.0) for u in range(m) for v in range(u + 1, m)]
    return build_graph(m + 2, edges + [(0, m, 1.0), (m, m + 1, 1.0)])


def assert_equal_balls_get_equal_tops(g, r):
    tops = lambda1_balls(g, r)
    reps, which = balls_by_bytes(_ball_rows(g, range(g.n), r))
    for v, b in enumerate(which):
        assert tops[v].tobytes() == tops[reps[b]].tobytes(), (r, v)


@given(g=graphs)
def test_equal_balls_get_equal_tops(g):
    for r in range(g.n + 2):
        assert_equal_balls_get_equal_tops(g, r)
    g = clique_and_a_tail(12)
    assert len(set(balls_by_bytes(_ball_rows(g, range(g.n), 1))[1])) == 4
    assert_equal_balls_get_equal_tops(g, 1)


def test_whole_balls_get_one_lambda1(corpus, monkeypatch):
    # n balls of order n would be n dense-sized blocks: a whole ball never
    # reaches _power_tops, and lambda1(g) runs once for all of them
    power_tops, solve = spectral._power_tops, spectral.lambda1
    orders, solves = [], []

    def blocks(g, ids, sizes):
        orders.append((g.n, int(sizes.max())))
        return power_tops(g, ids, sizes)

    monkeypatch.setattr(spectral, "_power_tops", blocks)
    monkeypatch.setattr(spectral, "lambda1", lambda g: solves.append(1) or solve(g))
    rr4 = dict(corpus)["random-regular n=60 d=4 seed=101"]
    tail = clique_and_a_tail(12)
    for g, r in ((rr4, int(all_pairs_distances(rr4).max())), (tail, 2), (tail, 3)):
        orders.clear()
        solves.clear()
        whole = np.diff(_ball_rows(g, range(g.n), r).indptr) == g.n
        assert whole.any()
        assert np.all(lambda1_balls(g, r)[whole] == solve(g))
        assert solves == [1]
        assert all(largest < n for n, largest in orders)


def two_cliques_and_a_tail():
    # K5 and a K5 of weight 1 + 1e-7, joined by one edge of weight 1e-6: the
    # top two eigenvalues of their union lie about 6e-7 apart. The unit path
    # 9-10-11 keeps that union a ball of radius 2 and 3 but not the whole graph.
    edges = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v, 1.0 + 1e-7) for u in range(5, 10) for v in range(u + 1, 10)]
    edges += [(4, 5, 1e-6), (9, 10, 1.0), (10, 11, 1.0)]
    return build_graph(12, edges)


def assert_tops_match_dense(g, r):
    tops = lambda1_balls(g, r)
    dense = dense_ball_tops(g, r)
    assert np.all(tops <= dense * (1 + 1e-14))
    assert np.all(np.abs(tops - dense) <= 1e-12 * dense)


@pytest.mark.parametrize("r", range(7))
def test_lambda1_balls_with_a_near_degenerate_top_gap(r):
    assert_tops_match_dense(two_cliques_and_a_tail(), r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", range(4))
def test_lambda1_balls_of_an_edgeless_vertex(r):
    # vertex 3's ball is one vertex without an edge: its filter interval is a point
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0)])
    assert_tops_match_dense(g, r)
    assert lambda1_balls(g, r)[3] == 0.0


def test_lambda1_balls_never_settle_a_sign_changing_iterate(monkeypatch):
    # with the floor and the ceiling of the filter end both at the Rayleigh
    # quotient itself, every eigenvalue between it and lambda1 is amplified
    # too, and the iterates change sign
    monkeypatch.setattr(spectral, "BALL_FILTER_CUT", 1.0)
    monkeypatch.setattr(spectral, "BALL_FILTER_TOP", 1.0)
    divide = np.divide
    signs_changed = []

    def spy(*args, where=True, **kwargs):
        signs_changed.append(not np.all(where))
        return divide(*args, where=where, **kwargs)

    monkeypatch.setattr(np, "divide", spy)
    graphs = [two_cliques_and_a_tail(), generate(FamilySpec("random-regular", n=60, d=4, seed=7)),
              generate(FamilySpec("path", n=30))]
    graphs += [random_connected_graph(seed, n_min=15, n_max=30, weighted=True) for seed in range(8)]
    for g in graphs:
        for r in range(1, 5):
            assert_tops_match_dense(g, r)
    assert any(signs_changed)


def test_lambda1_balls_vector_product_count(monkeypatch):
    g = generate(FamilySpec("random-regular", n=300, d=4, seed=103))
    products = []
    matmul = sp.csr_matrix.__matmul__

    def counted(a, b):
        if isinstance(b, np.ndarray):
            products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
    lambda1_balls(g, 4)
    # plain power iteration on B + I, tested on every 4th product, made 2596;
    # the T_8 filter with its end always at the floor made 1328
    assert len(products) <= 680


# sparse products per local-global corpus check at r = 1..4 with every
# filter end at the floor (6778 in all); moving the end up to each block's
# lambda_2 estimate took 5314
FLOOR_FILTER_PRODUCTS = {
    "cycle n=40": (41, 33, 41, 41),
    "cycle n=100": (41, 33, 41, 41),
    "cycle n=400": (41, 33, 41, 41),
    "torus-grid dims=(5, 4)": (33, 41, 41, 0),
    "torus-grid dims=(8, 5)": (33, 41, 41, 41),
    "torus-grid dims=(10, 8)": (33, 41, 41, 41),
    "random-regular n=60 d=4 seed=101": (33, 49, 81, 57),
    "random-regular n=150 d=4 seed=102": (33, 57, 210, 420),
    "random-regular n=300 d=4 seed=103": (33, 90, 355, 1328),
    "random-regular n=50 d=6 seed=104": (41, 49, 41, 0),
    "random-regular n=120 d=6 seed=105": (41, 97, 123, 41),
    "random-regular n=400 d=6 seed=106": (41, 187, 1157, 1319),
}


def test_no_local_global_corpus_check_needs_more_products(corpus, monkeypatch):
    products = []
    matmul = sp.csr_matrix.__matmul__

    def counted(a, b):
        if isinstance(b, np.ndarray):
            products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
    counts = {}
    for name, g in corpus:
        for r in range(1, 5):
            products.clear()
            local_global_check(g, r)
            counts[name, r] = len(products)
    assert {name for name, _ in corpus} == set(FLOOR_FILTER_PRODUCTS)
    for (name, r), n in counts.items():
        assert n <= FLOOR_FILTER_PRODUCTS[name][r - 1], (name, r, n)
    assert sum(counts.values()) <= 5314


def weighted_path(n, seed):
    weights = rng_for(seed).uniform(0.5, 2.0, n - 1).tolist()
    return build_graph(n, [(i, i + 1, w) for i, w in enumerate(weights)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, r, loses", [
    (FamilySpec("random-regular", n=300, d=4, seed=103), 4, False),
    (FamilySpec("random-regular", n=120, d=6, seed=105), 2, False),
    # some balls' iterates stop being strictly positive after a finite residual
    ("weighted path n=16 seed=8", 7, True),
])
def test_ball_tops_match_dense_where_the_filter_end_moves(spec, r, loses, monkeypatch):
    filter_end, calls = spectral._filter_end, []

    def spy(lo, rho, e, old, new):
        end = filter_end(lo, rho, e, old, new)
        calls.append((lo, rho, e, old, new, end))
        return end

    monkeypatch.setattr(spectral, "_filter_end", spy)
    g = generate(spec) if isinstance(spec, FamilySpec) else weighted_path(16, 8)
    assert_tops_match_dense(g, r)
    moved = lost = 0
    for lo, rho, e, old, new, end in calls:
        # the last end, lo + 2e, between the floor and the ceiling
        ceiling = lo + spectral.BALL_FILTER_TOP * (rho - lo)
        kept = np.clip(lo + 2 * e, lo + spectral.BALL_FILTER_CUT * (rho - lo), ceiling)
        assert np.all(kept <= end) and np.all(end <= ceiling)
        # a residual that is not finite at either test leaves the end where it was
        unknown = ~(np.isfinite(old) & np.isfinite(new))
        assert np.array_equal(end[unknown], kept[unknown])
        moved += int(np.sum(end > kept))
        lost += int(np.sum(np.isfinite(old) & np.isinf(new)))
    assert moved > 0
    assert (lost > 0) == loses


def test_lambda1_balls_do_not_depend_on_the_chunking(monkeypatch):
    g = random_connected_graph(3, n_min=20, n_max=40, weighted=True)
    rr = generate(FamilySpec("random-regular", n=60, d=4, seed=101))
    default = [lambda1_balls(g, 2), lambda1_balls(rr, 3)]
    monkeypatch.setattr(spectral, "BALL_CHUNK_ORDER", 1)
    assert np.array_equal(lambda1_balls(g, 2), default[0])
    assert np.array_equal(lambda1_balls(rr, 3), default[1])


def test_lambda1_balls_fall_back_to_dense_at_the_budget(monkeypatch):
    g = random_connected_graph(5, n_min=20, n_max=30, weighted=True)
    monkeypatch.setattr(spectral, "BALL_POWER_BUDGET", 1)
    tops = lambda1_balls(g, 2)
    dense = dense_ball_tops(g, 2)
    for v in range(g.n):
        h = ball(g, v, 2)[0]
        sums = h.csr.sum(axis=1)
        if sums.min() < sums.max():  # not settled by the first step from x = 1
            assert tops[v] == lambda1(h)  # lambda1's dense top-only solve
            assert tops[v] == pytest.approx(dense[v], rel=1e-14)
        else:
            assert tops[v] == pytest.approx(dense[v], rel=1e-14)
    # above the dense cap an unsettled ball raises
    monkeypatch.setattr(spectral, "DEFAULT_SOLVER_CAP", 4)
    with pytest.raises(SolverBudgetError, match="order-5 block"):
        lambda1_balls(generate(FamilySpec("path", n=9)), 2)


def test_lambda1_balls_far_above_the_diameter(monkeypatch):
    products = []
    matmul = sp.csr_matrix.__matmul__
    def counted(a, b):
        if sp.issparse(b):
            products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted)
    c5_and_p4 = build_graph(9, [(i, (i + 1) % 5, 1.0) for i in range(5)]
                            + [(i, i + 1, 2.0) for i in range(5, 8)])
    graphs = [
        random_connected_graph(11, n_min=15, n_max=25, weighted=True),
        generate(FamilySpec("path", n=9)),
        c5_and_p4,
    ]
    for g in graphs:
        diameter = int(all_pairs_distances(g).max())
        expected = lambda1_balls(g, diameter)
        for r in (diameter + 1, 3 * diameter, 1000):
            products.clear()
            assert np.array_equal(lambda1_balls(g, r), expected)
            # the product after the diameter adds nothing, and is the last
            assert len(products) <= diameter + 1


def test_spectrum_csv_format(tmp_path, cycle12):
    path = tmp_path / "spec.csv"
    assert main(["spectrum", "--family", "cycle", "--n", str(cycle12.n), "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == cycle12.n + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(-2.0, abs=1e-9)


def interval_query(cycle12, tmp_path, interval):
    path = tmp_path / "q.json"
    argv = ["spectrum", "--family", "cycle", "--n", str(cycle12.n), f"--interval={interval}",
            "--query-out", str(path), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    return json.loads(path.read_text())


def test_interval_query_json_is_flat(cycle12, tmp_path):
    record = interval_query(cycle12, tmp_path, "-2:2")
    assert record == {"a": -2.0, "b": 2.0, "closed_a": True, "closed_b": True,
                      "count": cycle12.n, "mu": 1.0}


def test_interval_query_counts_boundary(cycle12, tmp_path):
    # C_12 has simple eigenvalue 2 at the top
    assert interval_query(cycle12, tmp_path, "2:3")["count"] == 1


# -- inertia counts against the dense spectrum --------------------------------


def test_spectrum_below_and_top_match_searchsorted(cycle12):
    spec = eigenvalues(cycle12)
    top = spec.values[-1]  # 2 up to rounding, which can put it on either side of 2
    assert spec.below(top) == 11 and spec.below(top, inclusive=True) == 12
    assert spec.below(1.5) == 9 and spec.below(3.0, inclusive=True) == 12
    assert spec.top(1) == spec.values[-1] and spec.top(2) == spec.values[-2]
    with pytest.raises(GraphError):
        spec.top(13)


def check_counts(g, xs):
    """Every count the thm and finite-param checks take at these x, as
    (count, point): #{lambda <= x} for the tail and the window's top, and
    #{lambda < (1 - theta) x} for the window's foot at the criterion 05
    widths, the second-eig preset and its en-route width."""
    preset = 10.0 / (math.log(g.n) / math.log(g.delta_tilde))
    thetas = (0.1, 0.3, 0.5, 0.7, preset, preset if preset < 1.0 else EN_ROUTE_THETA_CAP)
    out = []
    for x in xs:
        out.append((count_at_most, x))
        out += [(count_below, (1.0 - theta) * x) for theta in thetas]
    return out


def reference_top(g, k):
    """``InertiaCounts.top(k)`` certified by two counts, as before the
    residual enclosure and the row-sum rule: Lanczos and shift-invert
    Lanczos, in the order ``_top_gap_bound`` picks, each accepted when the
    counts at x -+ TOL_EIG leave at least k eigenvalues at or above
    x - TOL_EIG and at most k - 1 above x + TOL_EIG, else the dense value.
    The counts come from the dense spectrum."""
    dense = eigenvalues(g)
    if g.m == 0:
        return 0.0
    if k < g.n - 1:
        a = g.csr
        bound = float(a.sum(axis=1).max())
        shifts = [None, bound + 1e-6 * max(bound, 1.0)]
        if spectral._top_gap_bound(a, bound) < spectral.SHIFT_INVERT_GAP * bound:
            shifts.reverse()
        for shift in shifts:
            try:
                x = float(spectral._lanczos_top(a, k, sigma=shift)[k - 1])
            except SolverBudgetError:
                continue
            if dense.below(x - TOL_EIG) <= g.n - k < dense.below(x + TOL_EIG, True):
                return x
    return dense.top(k)


def assert_tops_and_counts(g, name):
    """On a fresh ``InertiaCounts`` each: top(2), and top(1) unless the row
    sums are all equal, are bit-equal to ``reference_top``; top(1) of equal
    row sums c is c, as ``lambda1`` has it. Every count of
    ``check_counts`` equals the dense count. Returns the counts used."""
    spec = eigenvalues(g)
    top2 = InertiaCounts(g).top(2)
    assert top2 == reference_top(g, 2), name
    top1 = InertiaCounts(g).top(1)
    sums = np.asarray(g.csr.sum(axis=1)).ravel()
    if sums.min() == sums.max():
        assert top1 == sums[0] == lambda1(g), name
    else:
        assert top1 == reference_top(g, 1), name
    for k, top in ((1, top1), (2, top2)):
        assert abs(top - spec.top(k)) <= TOL_EIG, (name, k)
    counts = InertiaCounts(g)
    lam1, lam2 = spec.top(1), spec.top(2)
    xs = (lam2, top2, 0.75 * lam1, lam1 / 2.0, max(lam2, g.w_min))
    for count, x in check_counts(g, xs):
        assert count(counts, x) == count(spec, x), (name, count.__name__, x)
    return counts, spec


def test_inertia_counts_match_dense_on_corpus(corpus):
    for name, g in corpus:
        counts, spec = assert_tops_and_counts(g, name)
        for k in (1, 2):
            assert abs(InertiaCounts(g).top(k) - spec.top(k)) <= 1e-12, (name, k)
        # the factorization certifies every shift not within 2 tol of an
        # eigenvalue (tori have lambda_1 / 2 = 2 in their spectrum)
        for sigma, entry in counts._below.items():
            assert entry is not None or np.min(np.abs(spec.values - sigma)) < 2 * TOL_EIG


CYCLE, RR4 = {"family": "cycle"}, {"family": "random-regular", "d": 4}
SWEEP_SIZES = [2**k for k in range(8, 13)]


def sweep_row_graph(fam, n, seed=17):
    """The graph and trial seed of one row of the criterion 11 sweep."""
    i = [CYCLE, RR4].index(fam) * len(SWEEP_SIZES) + SWEEP_SIZES.index(n)
    return graph_provider({**fam, "n": n})(trial_seed(seed, i)), trial_seed(seed, i)


@pytest.mark.parametrize("fam, n", [(CYCLE, 256), (CYCLE, 512), (RR4, 256), (RR4, 512)],
                         ids=["cycle-256", "cycle-512", "rr4-256", "rr4-512"])
def test_inertia_counts_match_the_reference_on_sweep_rows(fam, n):
    g, _ = sweep_row_graph(fam, n)
    assert_tops_and_counts(g, f"{fam['family']} n={n}")


@pytest.mark.parametrize("spec", [FamilySpec("torus-grid", dims=(256, 4)), FamilySpec("path", n=256)],
                         ids=lambda spec: spec.describe())
def test_inertia_counts_match_the_reference_on_small_top_gaps(spec):
    # top gaps of 1.5e-4 and 2.2e-4 of lambda_1: plain Lanczos runs out of restarts
    assert_tops_and_counts(generate(spec), spec.describe())


@given(st.integers(0, 2**32 - 1))
def test_inertia_counts_match_the_reference_on_weighted_graphs(seed):
    assert_tops_and_counts(random_connected_graph(seed, n_min=3, n_max=40, weighted=True), seed)


@pytest.mark.parametrize("g, shifted", [
    (sweep_row_graph(CYCLE, 512)[0], True),
    (generate(FamilySpec("torus-grid", dims=(256, 4))), True),
    (sweep_row_graph(RR4, 512)[0], False),
    (generate(FamilySpec("path", n=1024)), True),
], ids=["cycle-512", "torus-256x4", "rr4-512", "path-1024"])
def test_the_top_gap_bound_picks_the_lanczos_that_finishes(g, shifted, monkeypatch):
    """Small top gaps start with shift-invert, expanders with plain
    Lanczos, and either way the first solve is certified."""
    real_lanczos = spectral._lanczos_top
    calls = []

    def recorded(a, k, sigma=None):
        calls.append(sigma is not None)
        return real_lanczos(a, k, sigma)

    monkeypatch.setattr(spectral, "_lanczos_top", recorded)
    InertiaCounts(g).top(2)
    assert calls == [shifted]


def reweighted(g, seed):
    rng = np.random.default_rng(seed)
    return build_graph(g.n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in g.edges()])


weighted_graphs = st.one_of(
    st.builds(reweighted, graphs.filter(lambda g: g.n >= 4), st.integers(0, 2**32 - 1)),
    st.builds(random_connected_graph, st.integers(0, 2**32 - 1),
              n_min=st.just(4), n_max=st.just(40), weighted=st.just(True)),
)


@given(weighted_graphs)
def test_the_top_gap_bound_holds(g):
    vals = scipy.linalg.eigvalsh(g.dense())
    bound = float(g.csr.sum(axis=1).max())
    assert spectral._top_gap_bound(g.csr, bound) >= vals[-1] - vals[-2] - 1e-9 * bound


def recorded_factorizations(mp):
    """Patch ``splu`` and ``spilu`` to record, in call order, each
    factorization's ordering (``permc_spec``) or "spilu" for the ordering
    call, and the fill of each factorization."""
    real_splu, real_spilu = scipy.sparse.linalg.splu, scipy.sparse.linalg.spilu
    orderings, sizes = [], []

    def splu(*args, **kwargs):
        orderings.append(kwargs["permc_spec"])
        lu = real_splu(*args, **kwargs)
        sizes.append(lu.nnz)
        return lu

    def spilu(*args, **kwargs):
        orderings.append("spilu")
        return real_spilu(*args, **kwargs)

    mp.setattr(scipy.sparse.linalg, "splu", splu)
    mp.setattr(scipy.sparse.linalg, "spilu", spilu)
    return orderings, sizes


def second_eig_factorizations(fam, n, monkeypatch):
    """The row of the criterion 11 sweep (its record and the cells the
    record does not hold), and the orderings and fills that
    ``recorded_factorizations`` records for it."""
    g, seed = sweep_row_graph(fam, n)
    orderings, sizes = recorded_factorizations(monkeypatch)
    return g, _second_eig(g, seed, argparse.Namespace())[0], orderings, sizes


@pytest.mark.parametrize("fam", [CYCLE], ids=["cycle"])
def test_second_eig_row_orders_once_and_factors_three_times(fam, monkeypatch):
    """x + TOL_EIG's count and its vector certify lambda_2; the row then
    needs the two window counts, each in the first factorization's order.
    A cycle's factor cannot fill a tail, so its first LU runs MMD itself
    and no separate ordering call is made."""
    _, _, orderings, sizes = second_eig_factorizations(fam, 512, monkeypatch)
    assert orderings == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]
    assert sizes == [sizes[0]] * 3  # the shared order keeps the first one's fill


@pytest.mark.parametrize("n, lhs, fp_lhs", [(256, 255 / 256, 114 / 256), (512, 511 / 512, 230 / 512)],
                         ids=["rr4-256", "rr4-512"])
def test_second_eig_row_counts_below_minus_b_without_a_factorization(n, lhs, fp_lhs, monkeypatch):
    """theta >= 1 puts the theorem window's lower end (1 - theta) x - TOL_EIG
    (about -5.07 and -4.21) below -B = -4, where the count is 0 with no
    factorization; the en-route window's count is factored as before. The
    row's counts are the dense spectrum's, as before this rule."""
    g, (rep, row), orderings, sizes = second_eig_factorizations(RR4, n, monkeypatch)
    x, theta = rep.x, rep.theta
    assert (1.0 - theta) * x - TOL_EIG < -4.0
    assert orderings == ["MMD_AT_PLUS_A", "NATURAL"]
    assert sizes == [sizes[0]] * 2
    assert (rep.lhs, row["fp_lhs"]) == (lhs, fp_lhs)
    dense = eigenvalues(g)
    assert rep.lhs == thm_checker(g, "second-eig", spectrum=dense).lhs
    assert row["fp_lhs"] == en_route_finite_param(g, dense, x, theta).lhs


@pytest.mark.parametrize("spec", [FamilySpec("torus-grid", dims=(32, 32)), FamilySpec("torus-grid", dims=(40, 16))],
                         ids=lambda spec: spec.describe())
def test_the_shared_order_is_computed_once(spec, monkeypatch):
    """2 is an exact eigenvalue, whose LU meets an exactly zero pivot and is
    refused; the ordinary shift after it factors in the same order, so the
    graph makes one ordering call in all (an MMD LU that met that pivot
    would leave no order to share)."""
    g = generate(spec)
    dense = eigenvalues(g)
    orderings, _ = recorded_factorizations(monkeypatch)
    counts = InertiaCounts(g)
    assert counts.below(2.0) == dense.below(2.0) and counts._below[2.0] is None
    assert counts.below(0.5) == dense.below(0.5) and counts._below[0.5] is not None
    assert orderings == ["spilu", "NATURAL", "NATURAL"]


def assert_the_ordering_call_gives_the_mmd_order(g):
    """``_mmd_order`` is the order of ``splu``'s MMD on A - sigma I, at
    sigma = 0, or at 0.37 where 0 meets an exactly zero pivot (cycles)."""
    for sigma in (0.0, 0.37):
        try:
            lu = scipy.sparse.linalg.splu(
                (g.csr - sigma * sp.identity(g.n, format="csr")).tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError:
            continue
        bound = float(g.csr.sum(axis=1).max())
        assert np.array_equal(spectral._mmd_order(g.csr, bound), np.argsort(lu.perm_c))
        return
    pytest.fail("splu factored neither shift")


@given(st.integers(3, 6), st.integers(4, 200), st.integers(0, 2**32 - 1))
def test_the_ordering_call_gives_the_mmd_order_on_random_regular_graphs(d, half_n, seed):
    assert_the_ordering_call_gives_the_mmd_order(generate(FamilySpec("random-regular", n=2 * half_n, d=d, seed=seed)))


def test_the_ordering_call_gives_the_mmd_order_on_the_corpus(corpus):
    for _, g in corpus:
        assert_the_ordering_call_gives_the_mmd_order(g)


def assert_the_fill_bound_is_below_the_factor(g, p, width):
    """``_schur_columns`` never exceeds the column counts of L in the shared
    order, and equals it in column p."""
    bound = float(g.csr.sum(axis=1).max())
    order = spectral._mmd_order(g.csr, bound)
    permuted = g.csr[order][:, order]
    # beyond the spectrum: definite, so no pivot vanishes or moves
    lu = scipy.sparse.linalg.splu((permuted + (bound + 0.5) * sp.identity(g.n, format="csr")).tocsc(),
                                  permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_r, np.arange(g.n)) and np.array_equal(lu.perm_c, np.arange(g.n))
    fill = np.diff(lu.L.indptr)[p:p + width]
    columns = spectral._schur_columns(permuted, p, width)
    assert len(columns) == width
    assert np.all(columns <= fill) and columns[0] == fill[0]
    return columns, fill


@given(st.integers(3, 6), st.integers(4, 150), st.integers(0, 2**32 - 1), st.floats(0, 1), st.floats(0, 1))
def test_the_fill_bound_is_below_the_factor_on_random_regular_graphs(d, half_n, seed, start, span):
    g = generate(FamilySpec("random-regular", n=2 * half_n, d=d, seed=seed))
    p = min(int(start * g.n), g.n - 1)
    assert_the_fill_bound_is_below_the_factor(g, p, max(1, int(span * (g.n - p))))


@pytest.mark.parametrize("spec", [FamilySpec("cycle", n=1000), FamilySpec("torus-grid", dims=(40, 40)),
                                  FamilySpec("random-regular", n=2048, d=4, seed=1)],
                         ids=lambda spec: spec.describe())
def test_the_fill_bound_of_the_last_columns(spec):
    """On the last TAIL_MIN columns the bound reads a cycle and a torus as
    sparse and an expander as dense, as its factor has them."""
    g = generate(spec)
    k = spectral.TAIL_MIN
    columns, fill = assert_the_fill_bound_is_below_the_factor(g, g.n - k, k)
    dense = spectral.TAIL_FILL * k * (k + 1) / 2
    assert (columns.sum() >= dense) == (fill.sum() >= dense) == (spec.family == "random-regular")


# -- block elimination of later shifts -----------------------------------------


def recorded_block_pivots(mp, whole=False):
    """Patch ``InertiaCounts._block_pivots`` and ``_certify`` to record
    (shift, certified count or None) of the block route's shifts on a
    head/tail split, or on the empty head of the dense LDL^T when
    ``whole``. Each route's factorization goes to ``_certify`` next."""
    real_pivots, real_certify, calls, pending = InertiaCounts._block_pivots, InertiaCounts._certify, [], []

    def pivots(self, sigma, split):
        if (split.h == 0) == whole:
            pending.append(sigma)
        return real_pivots(self, sigma, split)

    def certify(self, factored):
        entry = real_certify(self, factored)
        if pending:
            calls.append((pending.pop(), None if entry is None else entry[0]))
        return entry

    mp.setattr(InertiaCounts, "_block_pivots", pivots)
    mp.setattr(InertiaCounts, "_certify", certify)
    return calls


@given(st.integers(3, 6), st.integers(10, 150), st.integers(1, spectral.HEAD_BLOCK),
       st.integers(0, 2**32 - 1))
def test_block_route_counts_match_the_dense_spectrum(d, half_n, head_block, seed):
    """With the thresholds lowered so that random-regular graphs are split,
    each count, the first one included, equals the dense spectrum's, at
    random shifts across [-B, B] = [-d, d] and below the spectrum; shifts
    within 1e-6 of an eigenvalue are left out, where the dense count itself
    can round."""
    g = generate(FamilySpec("random-regular", n=2 * half_n, d=d, seed=seed))
    vals = eigenvalues(g).values
    rng = np.random.default_rng(seed)
    shifts = [s for s in [*rng.uniform(-d, d, 8), vals[0] - 0.01, vals[0] - 1.0]
              if np.min(np.abs(vals - s)) > 1e-6]
    inside = [sigma for sigma in shifts if abs(sigma) <= d]  # beyond B nothing is factored
    assume(inside)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "TAIL_MIN", 1)
        mp.setattr(spectral, "TAIL_FILL", 0.0)
        mp.setattr(spectral, "HEAD_BLOCK", min(head_block, half_n))
        calls = recorded_block_pivots(mp)
        counts = InertiaCounts(g)
        for sigma in shifts:
            assert counts.below(sigma) == np.searchsorted(vals, sigma), sigma
        # no split when every component has at most HEAD_BLOCK vertices
        assume(counts._head_tail is not None)
    assert [sigma for sigma, _ in calls] == inside
    assert sum(count is not None for _, count in calls) >= len(inside) / 2


def assert_the_sweep_row_goes_by_block_elimination(n, monkeypatch):
    """Every count of the rr4 row, the first one included, goes by block
    elimination: one ordering call, no sparse LU and no dense spectrum; and
    the row is the one SuperLU gives in every cell."""
    g, seed = sweep_row_graph(RR4, n)
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "TAIL_MIN", g.n + 1)  # no split: SuperLU only
        reference = _second_eig(g, seed, argparse.Namespace())[0]
    calls = recorded_block_pivots(monkeypatch)
    monkeypatch.setattr(InertiaCounts, "_dense", lambda self: pytest.fail("went dense"))
    _, row, orderings, _ = second_eig_factorizations(RR4, n, monkeypatch)
    assert row == reference
    assert orderings == ["spilu"]
    assert len(calls) == 3 and all(count is not None for _, count in calls)


def test_the_rr4_2048_sweep_row_counts_later_shifts_by_block_elimination(monkeypatch):
    assert_the_sweep_row_goes_by_block_elimination(2048, monkeypatch)


def test_the_rr4_4096_sweep_row_counts_every_shift_by_block_elimination(monkeypatch):
    assert_the_sweep_row_goes_by_block_elimination(4096, monkeypatch)


@pytest.mark.filterwarnings("error")
def test_a_refused_block_shift_goes_to_the_shared_order_lu(monkeypatch):
    """sigma = 0 is an exact eigenvalue of every one-vertex head block, so
    the block route refuses it; the sparse LU in the shared order runs
    next and refuses it too, and the dense LDL^T certifies the dense
    spectrum's count."""
    g = generate(FamilySpec("random-regular", n=200, d=4, seed=3))
    monkeypatch.setattr(spectral, "TAIL_MIN", 1)
    monkeypatch.setattr(spectral, "TAIL_FILL", 0.0)
    monkeypatch.setattr(spectral, "HEAD_BLOCK", 1)
    counts = InertiaCounts(g)
    counts.below(0.5)
    assert counts._head_tail.groups[0][0] == 1
    calls = recorded_block_pivots(monkeypatch)
    dense = recorded_block_pivots(monkeypatch, whole=True)
    orderings, _ = recorded_factorizations(monkeypatch)
    assert counts.below(0.0) == eigenvalues(g).below(0.0) == 101
    assert calls == [(0.0, None)] and orderings == ["NATURAL"] and dense == [(0.0, 101)]


@pytest.mark.parametrize("spec", [FamilySpec("cycle", n=4096), FamilySpec("torus-grid", dims=(64, 64)),
                                  FamilySpec("random-regular", n=1024, d=4, seed=1)],
                         ids=lambda spec: spec.describe())
def test_no_split_for_short_or_sparse_tails(spec):
    # a cycle's tail is short, the torus's 1150 is 13% filled, and
    # rr4 n=1024's tail of about 365 is below TAIL_MIN
    counts = InertiaCounts(generate(spec))
    counts.below(0.123)
    assert counts._head_tail is None


@pytest.mark.parametrize("spec", [FamilySpec("cycle", n=4096), FamilySpec("path", n=5000)],
                         ids=lambda spec: spec.describe())
def test_paths_and_cycles_make_no_ordering_call_and_no_split(spec, monkeypatch):
    """Largest degree 2: the first LU runs MMD itself, and the degree alone
    rules out a dense tail, with no Schur pattern formed."""
    monkeypatch.setattr(spectral, "_schur_columns", lambda *args: pytest.fail("formed a Schur pattern"))
    orderings, _ = recorded_factorizations(monkeypatch)
    counts = InertiaCounts(generate(spec))
    counts.below(0.123)
    counts.below(0.456)
    assert counts._head_tail is None
    assert orderings == ["MMD_AT_PLUS_A", "NATURAL"]


def test_a_block_shift_holds_one_tail_sized_array():
    g, _ = sweep_row_graph(RR4, 2048)
    counts = InertiaCounts(g)
    counts.below(0.123)
    m = g.n - counts._head_tail.h
    tracemalloc.start()
    try:
        assert counts._certify(counts._block_pivots(0.456, counts._head_tail)) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S in one array, factored in place: no copy of it and no |L| beside it
    assert peak < 2 * 8 * m * m


@pytest.mark.filterwarnings("error")
def test_counts_beyond_the_row_sum_bound_factor_nothing(monkeypatch):
    # B = 2 on the cycle: shifts strictly beyond +-B are counted 0 and n
    g = generate(FamilySpec("cycle", n=12))
    counts = InertiaCounts(g)
    # -2 and 2 are eigenvalues: shifts at +-B go to the factorization, which
    # refuses them, and so get the dense spectrum's counts
    spec = eigenvalues(g)
    for sigma in (-2.0, 2.0):
        for inclusive in (False, True):
            assert counts.below(sigma, inclusive) == spec.below(sigma, inclusive)
        assert counts._below[sigma] is None
    monkeypatch.setattr(scipy.sparse.linalg, "splu", None)
    for sigma in (-2.5e300, -2.0 - 1e-9, np.nextafter(-2.0 * (1 + 12 * np.finfo(float).eps), -np.inf)):
        assert counts.below(sigma) == counts.below(sigma, inclusive=True) == 0
    for sigma in (2.0 + 1e-9, 1e300, math.inf):
        assert counts.below(sigma) == counts.below(sigma, inclusive=True) == 12
    assert all(entry is None or entry[1] is None for entry in counts._below.values())


def test_a_refused_exact_eigenvalue_is_counted_up_to_rounding():
    """2 is an eigenvalue of the cycle n = 12, so the factorization refuses
    sigma = 2 and both counts are the computed dense spectrum's: off by its
    rounding, as ``Spectrum.below`` says. On numpy 2.4 with OpenBLAS the
    inclusive count reads 11, although all 12 eigenvalues are <= 2. The
    counts at 2 itself, at 2 -+ TOL_EIG, are certified and exact."""
    g = generate(FamilySpec("cycle", n=12))
    counts = InertiaCounts(g)
    dense = eigenvalues(g)
    for inclusive in (False, True):
        assert counts.below(2.0, inclusive) == dense.below(2.0, inclusive) in (11, 12)
    assert counts._below[2.0] is None
    assert count_at_most(counts, 2.0) - count_below(counts, 2.0) == 1
    assert counts._below[2.0 - TOL_EIG] is not None and counts._below[2.0 + TOL_EIG] is not None


def test_top_certified_from_a_count_beyond_the_row_sum_bound():
    # K_12 with one edge 1e-9 heavier: lambda_1 is 8e-10 below B = 11 + 1e-9,
    # so the count at x + TOL_EIG is n with no vector to enclose lambda_1;
    # the count at x - TOL_EIG, factored, certifies it instead
    edges = [(u, v, 1.0 + 1e-9 * ((u, v) == (0, 1))) for u in range(12) for v in range(u + 1, 12)]
    g = build_graph(12, edges)
    counts = InertiaCounts(g)
    x = counts.top(1)
    assert abs(x - eigenvalues(g).top(1)) <= TOL_EIG
    assert counts._below[x + TOL_EIG] == (12, None)
    assert counts._below[x - TOL_EIG][0] == 11


def test_two_counts_certify_lambda2_next_to_lambda1():
    # two disjoint 8-cycles: lambda_1 = lambda_2 = 2
    g = build_graph(16, [(o + i, o + (i + 1) % 8, 1.0) for o in (0, 8) for i in range(8)])
    assert_tops_and_counts(g, "C8 + C8")
    counts = InertiaCounts(g)
    x = counts.top(2)
    assert set(counts._below) == {x - TOL_EIG, x + TOL_EIG}


@pytest.mark.parametrize("fake", ["random", "lambda1"])
def test_a_wrong_vector_fails_the_enclosure(corpus, monkeypatch, fake):
    _, g = corpus[7]  # random-regular n=150 d=4
    x = reference_top(g, 2)
    for first_shift in ((), (0.1,)):  # x + TOL_EIG factored first, or in the shared order
        counts = InertiaCounts(g)
        for sigma in first_shift:
            counts.below(sigma)
            assert counts._below[sigma] is not None
        assert counts.top(2) == x and x - TOL_EIG not in counts._below
    if fake == "random":
        vector = np.random.default_rng(5).standard_normal(g.n)
    else:
        vector = np.ones(g.n)  # the lambda_1 eigenvector of a regular graph
    vector /= np.linalg.norm(vector)
    real_pivots, real_encloses = InertiaCounts._negative_pivots, InertiaCounts._encloses
    verdicts = []

    def faked(self, sigma):
        entry = real_pivots(self, sigma)
        return entry if entry is None else (entry[0], vector)

    def recorded(self, *args):
        verdicts.append(real_encloses(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(InertiaCounts, "_negative_pivots", faked)
    monkeypatch.setattr(InertiaCounts, "_encloses", recorded)
    counts = InertiaCounts(g)
    assert counts.top(2) == x
    assert verdicts == [False] and x - TOL_EIG in counts._below


@given(st.integers(0, 2**32 - 1))
def test_enclosures_hold_an_eigenvalue(seed):
    g = random_connected_graph(seed, n_min=3, n_max=30, weighted=True)
    vals, vecs = scipy.linalg.eigh(g.dense())
    counts = InertiaCounts(g)
    rng = np.random.default_rng(seed)
    j = int(rng.integers(g.n))
    assert counts._encloses(vecs[:, j], vals[j] - 1e-9, vals[j] + 1e-9)
    for v in (rng.standard_normal(g.n), vecs[:, j] + 1e-6 * rng.standard_normal(g.n)):
        rho = float(v @ (g.csr @ v) / (v @ v))
        for t in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1.0, 10.0):
            for lo, hi in ((rho - t, rho + t), (rho, rho + t), (rho - t, rho)):
                if counts._encloses(v, lo, hi):
                    assert np.any((vals >= lo) & (vals < hi)), (lo, hi)


CLOSED_FORMS = [
    # (family spec, eigenvalues in closed form)
    (FamilySpec("cycle", n=12), [2 * math.cos(2 * math.pi * j / 12) for j in range(12)]),
    (FamilySpec("cycle", n=40), [2 * math.cos(2 * math.pi * j / 40) for j in range(40)]),
    (FamilySpec("cycle", n=64), [2 * math.cos(2 * math.pi * j / 64) for j in range(64)]),
    (FamilySpec("hypercube", d=6),
     [6 - 2 * i for i in range(7) for _ in range(math.comb(6, i))]),
    (FamilySpec("hypercube", d=8),
     [8 - 2 * i for i in range(9) for _ in range(math.comb(8, i))]),
    (FamilySpec("complete", n=9), [8.0] + [-1.0] * 8),
]


@pytest.mark.parametrize("spec, values", CLOSED_FORMS, ids=lambda v: getattr(v, "describe", str)())
def test_inertia_counts_at_exact_eigenvalues(spec, values):
    g = generate(spec)
    exact = Spectrum(np.sort(np.array(values)))
    dense = eigenvalues(g)
    counts = InertiaCounts(g)
    distinct = sorted(set(np.round(values, 12)))
    ends = []
    for lam in distinct:
        for a in (lam - TOL_EIG / 2, lam, lam + TOL_EIG / 2):
            ends += [(count_below, a), (count_at_most, a), (count_at_most, a - 1.0)]
    ends.append((count_at_most, distinct[-1]))
    for count, a in ends:
        want = count(exact, a)
        assert count(dense, a) == want, (count.__name__, a)
        assert count(counts, a) == want, (count.__name__, a)
    assert counts.top(1) == exact.top(1)
    assert counts.top(2) == pytest.approx(exact.top(2), abs=1e-12)
    assert_tops_and_counts(g, spec.describe())


@pytest.mark.parametrize("spec, values", [c for c in CLOSED_FORMS if generate(c[0]).n > spectral.HEAD_BLOCK],
                         ids=lambda v: getattr(v, "describe", str)())
def test_block_route_at_exact_eigenvalues(spec, values, monkeypatch):
    """The same counts with the thresholds lowered, so that the later
    shifts of these graphs go by block elimination first: a count it
    certifies at or next to an exact eigenvalue must still be exact."""
    monkeypatch.setattr(spectral, "TAIL_MIN", 1)
    monkeypatch.setattr(spectral, "TAIL_FILL", 0.0)
    calls = recorded_block_pivots(monkeypatch)
    test_inertia_counts_at_exact_eigenvalues(spec, values)
    assert any(count is not None for _, count in calls)


def test_inertia_counts_fall_back_to_dense_once(corpus, monkeypatch):
    """A sparse LU off the diagonal and a Lanczos that never converges
    leave every count and top eigenvalue as the dense spectrum has them,
    except top(1) of equal row sums, which needs neither. The one dense
    solve is top's; the dense LDL^T certifies every count."""
    irregular = random_connected_graph(7, n_min=60, n_max=60, weighted=True)
    graphs = [corpus[7][1], irregular]  # random-regular n=150 d=4
    spectra = [eigenvalues(g) for g in graphs]
    real_splu = scipy.sparse.linalg.splu

    class OffDiagonal:
        def __init__(self, lu):
            self.L, self.U, self.perm_c = lu.L, lu.U, lu.perm_c
            self.perm_r = np.roll(lu.perm_r, 1)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no", np.empty(0), np.empty((0, 0)))

    dense_calls = []

    def counted(*args, **kwargs):
        dense_calls.append(1)
        return eigenvalues(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *a, **k: OffDiagonal(real_splu(*a, **k)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(spectral, "eigenvalues", counted)
    for g, spec, top1 in zip(graphs, spectra, (4.0, spectra[1].top(1))):
        dense_calls.clear()
        counts = InertiaCounts(g)
        assert counts.top(1) == top1 and counts.top(2) == spec.top(2)
        assert len(dense_calls) == 1
        for count, x in check_counts(g, (spec.top(2), 0.75 * spec.top(1))):
            assert count(counts, x) == count(spec, x), (count.__name__, x)
        assert len(dense_calls) == 1
        assert all(entry is not None for entry in counts._below.values())


# -- the dense LDL^T of a shift the sparse LU refuses ---------------------------


def no_spectrum(mp):
    mp.setattr(spectral, "eigenvalues", lambda *args, **kwargs: pytest.fail("computed a dense spectrum"))


def cycle_and_closed_form(n):
    return generate(FamilySpec("cycle", n=n)), 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)


@given(st.one_of(graphs.map(lambda g: (g, np.zeros(0))), st.integers(3, 48).map(cycle_and_closed_form)))
def test_the_dense_ldlt_refuses_or_counts_as_the_dense_spectrum(graph_and_exact):
    """At each eigenvalue +- 1e-9, 1e-8 and 1e-6, and at a cycle's
    eigenvalues in closed form, the dense LDL^T and its certificate either
    refuse the shift or give the dense spectrum's count."""
    g, exact = graph_and_exact
    assume(g.n > 0)
    spec = eigenvalues(g)
    counts = InertiaCounts(g)
    offsets = np.array([-1e-6, -1e-8, -1e-9, 1e-9, 1e-8, 1e-6])
    for sigma in [*(np.unique(spec.values)[:, None] + offsets).ravel(), *np.unique(exact)]:
        entry = counts._certify(counts._block_pivots(sigma, spectral._whole(g.csr)))
        assert entry is None or entry[0] == spec.below(sigma), sigma


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_cycle_counts_next_to_a_double_eigenvalue_need_no_spectrum(n, monkeypatch):
    """0 is a double eigenvalue of these cycles: the counts 1e-8 from it are
    the closed form's, with no dense spectrum."""
    g, closed = cycle_and_closed_form(n)
    no_spectrum(monkeypatch)
    counts = InertiaCounts(g)
    for sigma in (-1e-8, 1e-8):
        assert counts.below(sigma) == np.count_nonzero(closed < sigma), sigma


def test_the_sweep_rows_need_no_dense_spectrum(tmp_path, monkeypatch):
    """Criterion 11's rows as they were when a shift the sparse LU refused
    went to the dense spectrum (cycle n = 1024 at -1e-8): the reference
    refuses the dense LDL^T's factorization, so no certificate runs on it."""
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(suite="second-eig", seed=17, families=(CYCLE, RR4), grid={"n": SWEEP_SIZES})
    real = InertiaCounts._block_pivots
    with monkeypatch.context() as mp:
        mp.setattr(InertiaCounts, "_block_pivots",
                   lambda self, sigma, split: real(self, sigma, split) if split.h else None)
        reference = sweep_rows(cfg)
    no_spectrum(monkeypatch)
    assert sweep_rows(cfg) == reference


def test_later_block_shifts_make_no_eigensolve(monkeypatch):
    """The head blocks are eigendecomposed once, when the first shift splits
    the order; a later shift reuses them."""
    g, _ = sweep_row_graph(RR4, 2048)
    counts = InertiaCounts(g)
    counts.below(0.123)
    calls = recorded_block_pivots(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigendecomposed a head block"))
    vals = eigenvalues(g)
    for sigma in (0.456, -1.5, 3.2):
        assert counts.below(sigma) == vals.below(sigma)
    assert [sigma for sigma, count in calls if count is not None] == [0.456, -1.5, 3.2]


@pytest.mark.parametrize("cap, dense", [(200, [(0.0, 101)]), (199, [])], ids=["at-the-cap", "above-it"])
def test_the_dense_ldlt_runs_up_to_the_cap(cap, dense, monkeypatch):
    """The sparse LU refuses rr4 n = 200 at 0; the dense LDL^T certifies
    that count on at most DEFAULT_SOLVER_CAP vertices and is not tried
    above, where the count is the dense spectrum's."""
    g = generate(FamilySpec("random-regular", n=200, d=4, seed=3))
    monkeypatch.setattr(spectral, "DEFAULT_SOLVER_CAP", cap)
    calls = recorded_block_pivots(monkeypatch, whole=True)
    counts = InertiaCounts(g)
    assert counts.below(0.0) == eigenvalues(g).below(0.0) == 101
    assert calls == dense and (counts._below[0.0] is None) == (not dense)


@pytest.mark.parametrize("n, sigma, refused, tried", [
    (700, 0.123, 0, ["block"]),
    (700, 0.123, 1, ["block", "lu"]),
    (700, 0.123, 2, ["block", "lu", "ldlt"]),
    (700, 0.123, 3, ["block", "lu", "ldlt"]),
    (200, 0.0, 0, ["lu", "ldlt"]),
    (200, 0.0, 1, ["lu", "ldlt"]),
], ids=["rr4-700-block", "rr4-700-lu", "rr4-700-ldlt", "rr4-700-spectrum", "rr4-200-ldlt", "rr4-200-spectrum"])
def test_a_refused_certificate_falls_through_to_the_next_route(n, sigma, refused, tried, monkeypatch):
    """``_certify`` refuses the first ``refused`` factorizations, and the
    count goes to the next route in order: block elimination, the sparse
    LU, the dense LDL^T, then the dense spectrum. rr4 n = 700, split with
    the thresholds lowered, factors 0.123 on every route; on rr4 n = 200 the
    sparse LU refuses 0 before any certificate. Every count is the dense
    spectrum's."""
    g = generate(FamilySpec("random-regular", n=n, d=4, seed=1 if n == 700 else 3))
    if n == 700:
        monkeypatch.setattr(spectral, "TAIL_MIN", 1)
        monkeypatch.setattr(spectral, "TAIL_FILL", 0.0)
    real_lu, real_block, real_certify = InertiaCounts._lu_pivots, InertiaCounts._block_pivots, InertiaCounts._certify
    routes, seen = [], []  # the routes called, and the factorizations they made

    def certify(self, factored):
        if factored is not None:
            seen.append(factored)
            if len(seen) <= refused:
                return None
        return real_certify(self, factored)

    monkeypatch.setattr(InertiaCounts, "_lu_pivots", lambda self, s: routes.append("lu") or real_lu(self, s))
    monkeypatch.setattr(InertiaCounts, "_block_pivots", lambda self, s, split:
                        routes.append("block" if split.h else "ldlt") or real_block(self, s, split))
    monkeypatch.setattr(InertiaCounts, "_certify", certify)
    counts = InertiaCounts(g)
    assert counts.below(sigma) == eigenvalues(g).below(sigma)
    assert routes == tried
    assert (counts._below[sigma] is None) == (refused == len(seen))


@pytest.mark.parametrize("spec", [FamilySpec("cycle", n=12), FamilySpec("random-regular", n=700, d=4, seed=1)],
                         ids=lambda spec: spec.describe())
def test_a_nan_point_raises_before_anything_is_factored(spec, monkeypatch):
    g = generate(spec)
    counts = InertiaCounts(g)
    for name in ("splu", "spilu"):
        monkeypatch.setattr(scipy.sparse.linalg, name, lambda *args, **kwargs: pytest.fail("factored"))
    no_spectrum(monkeypatch)
    for count in (count_at_most, count_below, InertiaCounts.below, Spectrum.below):
        with pytest.raises(GraphError, match="NaN"):
            count(Spectrum(np.zeros(g.n)) if count is Spectrum.below else counts, math.nan)
    assert counts._below == {}
    assert count_at_most(counts, -math.inf) == count_below(counts, -math.inf) == 0
    assert count_at_most(counts, math.inf) == count_below(counts, math.inf) == g.n


def test_inertia_counts_zero_pivot_and_small_graphs():
    k2 = build_graph(2, [(0, 1, 1.0)])  # A - I eliminates to an exact zero pivot
    counts = InertiaCounts(k2)
    assert counts.below(1.0) == 1 and counts.below(1.0, inclusive=True) == 2
    assert counts.top(1) == 1.0 and counts.top(2) == -1.0  # too small for Lanczos
    with pytest.raises(GraphError):
        counts.top(3)
    empty = InertiaCounts(build_graph(0, []))
    assert count_at_most(empty, 1.0) == count_below(empty, -1.0) == 0
    edgeless = InertiaCounts(build_graph(5, []))
    assert edgeless.top(1) == edgeless.top(2) == 0.0
    assert count_at_most(edgeless, 0.0) - count_below(edgeless, 0.0) == 5


def test_lambda1_lanczos_has_a_budget(monkeypatch, tmp_path):
    g = generate(FamilySpec("path", n=5000))  # irregular, above the dense cap
    budgets = []

    def no_convergence(*args, maxiter, **kwargs):
        budgets.append(maxiter)
        raise scipy.sparse.linalg.ArpackNoConvergence("no", np.empty(0), np.empty((0, 0)))

    with monkeypatch.context() as patch:
        patch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        _no_dense(patch)
        # both Lanczos runs stop at their budget, and the dense fallback is refused
        with pytest.raises(SolverCapError):
            lambda1(g)
    assert budgets == [spectral.LANCZOS_MAXITER] * 2
    assert issubclass(SolverCapError, GraphError)
    # a cycle has constant row sums, so no Lanczos solve runs at any size
    assert lambda1(generate(FamilySpec("cycle", n=5000))) == 2.0
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "rad-drop", "--family", "cycle", "--n", "5000", "--r", "1",
            "--out", "rd.csv"]
    assert main(argv) == 0
    with open("rd.csv", encoding="ascii") as fh:
        assert [row["lam1_g"] for row in csv.DictReader(fh)] == ["2"]


def test_rad_drop_certifies_lambda1_of_a_path_above_the_cap(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "rad-drop", "--family", "path", "--n", "5000", "--r", "1",
            "--out", "rd.csv"]
    assert main(argv) == 0
    with open("rd.csv", encoding="ascii") as fh:
        (row,) = csv.DictReader(fh)
    assert abs(float(row["lam1_g"]) - 2.0 * math.cos(math.pi / 5001)) <= TOL_EIG


def test_lambda1_lanczos_within_budget():
    g = generate(FamilySpec("random-regular", n=5000, d=4, seed=1))
    assert lambda1(g) == pytest.approx(4.0, abs=1e-10)


# x - lambda2 in units of TOL_EIG; not +-1, which put a count's shift on the
# double eigenvalue lambda2 itself, where the factorization is singular and
# the count refuses with SolverCapError above the dense cap
STEPS = st.sampled_from([-3, -2, -1.5, -0.5, 0, 0.5, 1.5, 2, 3])


@settings(max_examples=4)
@given(n=st.integers(62_800, 62_870), steps=st.lists(STEPS, min_size=1, max_size=3))
def test_cycle_counts_bracket_the_closed_form_across_the_top_gap(n, steps):
    """lambda1 - lambda2 is about (2 pi / n)^2, which crosses TOL_EIG in this
    range of n. At x a few TOL_EIG from the closed-form lambda2 =
    2 cos(2 pi / n), the counts read high and low bracket the closed-form
    count above x (at n = 62 832 and x = lambda2: 0 <= 1 <= 3)."""
    counts = InertiaCounts(generate(FamilySpec("cycle", n=n)))
    closed = 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    for step in steps:
        x = closed[1] + step * TOL_EIG
        above = int(np.count_nonzero(closed > x))
        assert n - count_at_most(counts, x) <= above <= n - count_below(counts, x)
