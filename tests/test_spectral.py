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
from hypothesis import assume, given
from hypothesis import strategies as st

from spectop import (
    FamilySpec,
    GraphError,
    InertiaCounts,
    SolverBudgetError,
    SolverCapError,
    SpectralInterval,
    Spectrum,
    WeightedGraph,
    all_pairs_distances,
    ball,
    build_graph,
    eigenvalues,
    generate,
    interval_query_json,
    lambda1,
    lambda1_balls,
    local_global_check,
    m_count,
    mu,
    trace_power,
)
from spectop import spectral
from spectop.bounds import thm_checker
from spectop.cli import EN_ROUTE_THETA_CAP, _second_eig, en_route_finite_param, graph_provider, main
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
    assert spec.residual_bound <= 1e-10


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
    # a count at a refused shift (lambda_1 = 2) falls back to the dense
    # spectrum, which InertiaCounts computes only up to the default cap
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


def test_residual_skipped_is_nan():
    g = generate(FamilySpec("cycle", n=8))
    spec = eigenvalues(g, compute_residual=False)
    assert math.isnan(spec.residual_bound)


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


@given(g=graphs, seed=st.integers(0, 10_000))
def test_lambda1_matches_the_full_dense_spectrum(g, seed):
    # empty, edgeless and disconnected graphs, weights in [0.5, 2]
    if g.n == 0:
        with pytest.raises(GraphError):
            lambda1(g)
        return
    weights = rng_for(seed).uniform(0.5, 2.0, g.m).tolist()
    g = build_graph(g.n, [(u, v, w) for (u, v, _), w in zip(g.edges(), weights)])
    assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)


def test_lambda1_matches_the_full_dense_spectrum_at_a_repeated_top_and_large_n():
    h = random_connected_graph(7, n_min=20, n_max=30, weighted=True)
    edges = list(h.edges())
    # two disjoint copies: the top eigenvalue is double
    twice = build_graph(2 * h.n, edges + [(u + h.n, v + h.n, w) for u, v, w in edges])
    large = random_connected_graph(3, n_min=300, n_max=400, weighted=True)
    for g in (h, twice, large):
        assert spectral._constant_row_sum(g) is None  # irregular: the dense solve runs
        assert abs(lambda1(g) - _dense_oracle(g)) <= 1e-12 * _dense_oracle(g)
    assert abs(lambda1(twice) - lambda1(h)) <= 1e-12 * lambda1(h)


def test_a_lapack_failure_in_lambda1_raises(monkeypatch):
    def failed(a, **kwargs):
        return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, dtype=np.int32), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failed)
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])  # a path: irregular, so solved
    with pytest.raises(SolverBudgetError, match="info 3"):
        lambda1(g)


def test_m_count_endpoint_semantics():
    spec = Spectrum(np.array([-1.0, 0.0, 1.0, 1.0, 2.0]), 0.0)
    assert m_count(spec, SpectralInterval.closed(1.0, 2.0)) == 3
    assert m_count(spec, SpectralInterval(1.0, 2.0, False, True)) == 1
    assert m_count(spec, SpectralInterval(1.0, 2.0, True, False)) == 2
    assert m_count(spec, SpectralInterval.above(0.0)) == 3
    assert m_count(spec, SpectralInterval.below(0.0)) == 2
    # endpoints match up to the eigenvalue tolerance
    assert m_count(spec, SpectralInterval.closed(1.0 + 1e-12, 2.0)) == 3


def test_mu_is_exact_rational():
    spec = Spectrum(np.array([0.0, 1.0, 1.0, 3.0]), 0.0)
    value = mu(spec, SpectralInterval.closed(1.0, 3.0))
    assert isinstance(value, Fraction)
    assert value == Fraction(3, 4)


def test_top_window_interval():
    iv = SpectralInterval.top_window(2.0, 0.25)
    assert iv.a == 1.5 and iv.b == 2.0
    assert iv.closed_a and iv.closed_b


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
    # with the cut at the Rayleigh quotient itself, every eigenvalue between
    # it and lambda1 is amplified too, and the iterates change sign
    monkeypatch.setattr(spectral, "BALL_FILTER_CUT", 1.0)
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
    # plain power iteration on B + I, tested on every 4th product, made 2596
    assert len(products) <= 1328


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
    with pytest.raises(SolverBudgetError):
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


def test_interval_query_json_is_flat(cycle12):
    spec = eigenvalues(cycle12)
    record = interval_query_json(spec, SpectralInterval.closed(-2.0, 2.0))
    assert set(record) == {"a", "b", "closed_a", "closed_b", "count", "mu"}
    assert record["count"] == cycle12.n
    assert record["mu"] == 1.0
    json.dumps(record)  # round-trippable


def test_interval_query_counts_boundary(cycle12):
    spec = eigenvalues(cycle12)
    # C_12 has simple eigenvalue 2 at the top
    record = interval_query_json(spec, SpectralInterval.closed(2.0, 3.0))
    assert record["count"] == 1


# -- inertia counts against the dense spectrum --------------------------------


def test_spectrum_below_and_top_match_searchsorted(cycle12):
    spec = eigenvalues(cycle12)
    assert spec.below(2.0) == 11 and spec.below(2.0, inclusive=True) == 12
    assert spec.top(1) == spec.values[-1] and spec.top(2) == spec.values[-2]
    with pytest.raises(GraphError):
        spec.top(13)


def check_intervals(g, xs):
    """Every interval the thm and finite-param checks build at these x:
    (x, inf) and [(1 - theta) x, x] for the criterion 05 widths, the
    second-eig preset and its en-route width."""
    preset = 10.0 / (math.log(g.n) / math.log(g.delta_tilde))
    thetas = (0.1, 0.3, 0.5, 0.7, preset, preset if preset < 1.0 else EN_ROUTE_THETA_CAP)
    out = []
    for x in xs:
        out.append(SpectralInterval.above(x))
        out += [SpectralInterval.top_window(x, theta) for theta in thetas]
    return out


def reference_top(g, k):
    """``InertiaCounts.top(k)`` certified by two counts, as before the
    residual enclosure and the row-sum rule: Lanczos and shift-invert
    Lanczos, in the order ``_top_gap_bound`` picks, each accepted when the
    counts at x -+ TOL_EIG leave at least k eigenvalues at or above
    x - TOL_EIG and at most k - 1 above x + TOL_EIG, else the dense value.
    The counts come from the dense spectrum."""
    dense = eigenvalues(g, compute_residual=False)
    if g.m == 0:
        return 0.0
    if k < g.n - 1:
        a = g.csr
        bound = float(a.sum(axis=1).max())
        shifts = [{}, {"sigma": bound + 1e-6 * max(bound, 1.0)}]
        if spectral._top_gap_bound(a, bound) < spectral.SHIFT_INVERT_GAP * bound:
            shifts.reverse()
        for shift in shifts:
            try:
                x = float(spectral._lanczos_top(a, k, **shift)[k - 1])
            except SolverBudgetError:
                continue
            if dense.below(x - TOL_EIG) <= g.n - k < dense.below(x + TOL_EIG, True):
                return x
    return dense.top(k)


def assert_tops_and_counts(g, name):
    """On a fresh ``InertiaCounts`` each: top(2), and top(1) unless the row
    sums are all equal, are bit-equal to ``reference_top``; top(1) of equal
    row sums c is c, as ``lambda1`` has it. Every count over
    ``check_intervals`` equals the dense count. Returns the counts used."""
    spec = eigenvalues(g, compute_residual=False)
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
    for iv in check_intervals(g, xs):
        assert m_count(counts, iv) == m_count(spec, iv), (name, iv.describe())
        assert mu(counts, iv) == mu(spec, iv)
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

    def recorded(a, k, **kwargs):
        calls.append("sigma" in kwargs)
        return real_lanczos(a, k, **kwargs)

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


def second_eig_factorizations(fam, n, monkeypatch):
    """The row of the criterion 11 sweep, and the ordering and fill of each
    factorization it made."""
    g, seed = sweep_row_graph(fam, n)
    real_splu = scipy.sparse.linalg.splu
    orderings, sizes = [], []

    def recorded(*args, **kwargs):
        orderings.append(kwargs["permc_spec"])
        lu = real_splu(*args, **kwargs)
        sizes.append(lu.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    return g, _second_eig(g, seed, argparse.Namespace())[0], orderings, sizes


@pytest.mark.parametrize("fam", [CYCLE], ids=["cycle"])
def test_second_eig_row_orders_once_and_factors_three_times(fam, monkeypatch):
    """x + TOL_EIG's count and its vector certify lambda_2; the row then
    needs the two window counts, each in the first factorization's order."""
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
    g, row, orderings, sizes = second_eig_factorizations(RR4, n, monkeypatch)
    x, theta = row["x"], row["theta"]
    assert (1.0 - theta) * x - TOL_EIG < -4.0
    assert orderings == ["MMD_AT_PLUS_A", "NATURAL"]
    assert sizes == [sizes[0]] * 2
    assert (row["lhs"], row["fp_lhs"]) == (lhs, fp_lhs)
    dense = eigenvalues(g, compute_residual=False)
    assert row["lhs"] == thm_checker(g, "second-eig", spectrum=dense).lhs
    assert row["fp_lhs"] == en_route_finite_param(g, dense, x, theta)[3].lhs


# -- block elimination of later shifts -----------------------------------------


def recorded_block_pivots(mp):
    """Patch ``InertiaCounts._block_pivots`` to record (shift, count or None)."""
    real, calls = InertiaCounts._block_pivots, []

    def recorded(self, sigma):
        entry = real(self, sigma)
        calls.append((sigma, None if entry is None else entry[0]))
        return entry

    mp.setattr(InertiaCounts, "_block_pivots", recorded)
    return calls


@given(st.integers(3, 6), st.integers(10, 150), st.integers(1, spectral.HEAD_BLOCK),
       st.integers(0, 2**32 - 1))
def test_block_route_counts_match_the_dense_spectrum(d, half_n, head_block, seed):
    """With the thresholds lowered so that random-regular graphs are split,
    each later count equals the dense spectrum's, at random shifts across
    [-B, B] = [-d, d] and below the spectrum; shifts within 1e-6 of an
    eigenvalue are left out, where the dense count itself can round."""
    g = generate(FamilySpec("random-regular", n=2 * half_n, d=d, seed=seed))
    vals = eigenvalues(g, compute_residual=False).values
    rng = np.random.default_rng(seed)
    shifts = [s for s in [*rng.uniform(-d, d, 8), vals[0] - 0.01, vals[0] - 1.0]
              if np.min(np.abs(vals - s)) > 1e-6]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "TAIL_MIN", 1)
        mp.setattr(spectral, "TAIL_FILL", 0.0)
        mp.setattr(spectral, "HEAD_BLOCK", min(head_block, half_n))
        calls = recorded_block_pivots(mp)
        counts = InertiaCounts(g)
        counts.below(0.123)  # the first shift, factored by SuperLU in MMD order
        # no split when every component has at most HEAD_BLOCK vertices
        assume(counts._head_tail is not None)
        for sigma in shifts:
            assert counts.below(sigma) == np.searchsorted(vals, sigma), sigma
    inside = [sigma for sigma in shifts if abs(sigma) <= d]  # beyond B nothing is factored
    assert [sigma for sigma, _ in calls] == inside
    assert sum(count is not None for _, count in calls) >= len(inside) / 2


def test_the_rr4_2048_sweep_row_counts_later_shifts_by_block_elimination(monkeypatch):
    """The row's two later counts need no sparse LU and no dense spectrum,
    and the row is the one SuperLU gives in every cell."""
    g, seed = sweep_row_graph(RR4, 2048)
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "TAIL_MIN", g.n + 1)  # no split: SuperLU only
        reference = _second_eig(g, seed, argparse.Namespace())[0]
    calls = recorded_block_pivots(monkeypatch)
    monkeypatch.setattr(InertiaCounts, "_dense", lambda self: pytest.fail("went dense"))
    _, row, orderings, _ = second_eig_factorizations(RR4, 2048, monkeypatch)
    assert row == reference
    assert orderings == ["MMD_AT_PLUS_A"]
    assert len(calls) == 2 and all(count is not None for _, count in calls)


@pytest.mark.filterwarnings("error")
def test_a_refused_block_shift_goes_to_the_shared_order_lu(monkeypatch):
    """sigma = 0 is an exact eigenvalue of every one-vertex head block, so
    the block route refuses it; the sparse LU in the shared order runs
    next, and the count is the dense spectrum's."""
    g = generate(FamilySpec("random-regular", n=200, d=4, seed=3))
    monkeypatch.setattr(spectral, "TAIL_MIN", 1)
    monkeypatch.setattr(spectral, "TAIL_FILL", 0.0)
    monkeypatch.setattr(spectral, "HEAD_BLOCK", 1)
    counts = InertiaCounts(g)
    counts.below(0.5)
    assert counts._head_tail.groups[0][0] == 1
    calls = recorded_block_pivots(monkeypatch)
    real_splu, orderings = scipy.sparse.linalg.splu, []

    def recorded(*args, **kwargs):
        orderings.append(kwargs["permc_spec"])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    assert counts.below(0.0) == eigenvalues(g, compute_residual=False).below(0.0)
    assert calls == [(0.0, None)] and orderings == ["NATURAL"]


@pytest.mark.parametrize("spec", [FamilySpec("cycle", n=4096), FamilySpec("torus-grid", dims=(64, 64)),
                                  FamilySpec("random-regular", n=1024, d=4, seed=1)],
                         ids=lambda spec: spec.describe())
def test_no_split_for_short_or_sparse_tails(spec):
    # a cycle's tail is short, the torus's 1150 is 13% filled, and
    # rr4 n=1024's tail of about 365 is below TAIL_MIN
    counts = InertiaCounts(generate(spec))
    counts.below(0.123)
    assert counts._head_tail is None


def test_a_block_shift_holds_one_tail_sized_array():
    g, _ = sweep_row_graph(RR4, 2048)
    counts = InertiaCounts(g)
    counts.below(0.123)
    m = g.n - counts._head_tail.h
    tracemalloc.start()
    try:
        assert counts._block_pivots(0.456) is not None
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
    spec = eigenvalues(g, compute_residual=False)
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
    counts m_count asks for, at 2 -+ TOL_EIG, are certified and exact."""
    g = generate(FamilySpec("cycle", n=12))
    counts = InertiaCounts(g)
    dense = eigenvalues(g, compute_residual=False)
    for inclusive in (False, True):
        assert counts.below(2.0, inclusive) == dense.below(2.0, inclusive) in (11, 12)
    assert counts._below[2.0] is None
    assert m_count(counts, SpectralInterval.closed(2.0, 2.0)) == 1
    assert counts._below[2.0 - TOL_EIG] is not None and counts._below[2.0 + TOL_EIG] is not None


def test_top_certified_from_a_count_beyond_the_row_sum_bound():
    # K_12 with one edge 1e-9 heavier: lambda_1 is 8e-10 below B = 11 + 1e-9,
    # so the count at x + TOL_EIG is n with no vector to enclose lambda_1;
    # the count at x - TOL_EIG, factored, certifies it instead
    edges = [(u, v, 1.0 + 1e-9 * ((u, v) == (0, 1))) for u in range(12) for v in range(u + 1, 12)]
    g = build_graph(12, edges)
    counts = InertiaCounts(g)
    x = counts.top(1)
    assert abs(x - eigenvalues(g, compute_residual=False).top(1)) <= TOL_EIG
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
    exact = Spectrum(np.sort(np.array(values)), 0.0)
    dense = eigenvalues(g, compute_residual=False)
    counts = InertiaCounts(g)
    distinct = sorted(set(np.round(values, 12)))
    intervals = []
    for lam in distinct:
        for a in (lam - TOL_EIG / 2, lam, lam + TOL_EIG / 2):
            intervals += [
                SpectralInterval.closed(a, a),
                SpectralInterval.open(a - 1.0, a),
                SpectralInterval.above(a),
                SpectralInterval.below(a),
                SpectralInterval(a, distinct[-1], False, True),
            ]
    for iv in intervals:
        want = m_count(exact, iv)
        assert m_count(dense, iv) == want, iv.describe()
        assert m_count(counts, iv) == want, iv.describe()
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
    """A factorization off the diagonal and a Lanczos that never converges
    leave every count and top eigenvalue as the dense spectrum has them,
    except top(1) of equal row sums, which needs neither."""
    irregular = random_connected_graph(7, n_min=60, n_max=60, weighted=True)
    graphs = [corpus[7][1], irregular]  # random-regular n=150 d=4
    spectra = [eigenvalues(g, compute_residual=False) for g in graphs]
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
        for iv in check_intervals(g, (spec.top(2), 0.75 * spec.top(1))):
            assert m_count(counts, iv) == m_count(spec, iv), iv.describe()
        assert len(dense_calls) == 1


def test_inertia_counts_zero_pivot_and_small_graphs():
    k2 = build_graph(2, [(0, 1, 1.0)])  # A - I eliminates to an exact zero pivot
    counts = InertiaCounts(k2)
    assert counts.below(1.0) == 1 and counts.below(1.0, inclusive=True) == 2
    assert counts.top(1) == 1.0 and counts.top(2) == -1.0  # too small for Lanczos
    with pytest.raises(GraphError):
        counts.top(3)
    assert m_count(InertiaCounts(build_graph(0, [])), SpectralInterval.closed(-1, 1)) == 0
    edgeless = InertiaCounts(build_graph(5, []))
    assert edgeless.top(1) == edgeless.top(2) == 0.0
    assert m_count(edgeless, SpectralInterval.closed(0.0, 0.0)) == 5


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
