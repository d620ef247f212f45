"""Return-probability series, the Kesten reference measure, and decay fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from spectop.cli import main
from spectop.families import FamilySpec, generate
from spectop.graphs import GraphError, build_graph
from spectop.walks import (
    RETURN_K_CAP,
    TREE_N_CAP,
    KestenRef,
    NonRegularGraphError,
    ReturnSeries,
    adjacency_moments,
    decay_fit,
    kesten_mass,
    moment_mass_upper,
    return_decay_roundtrip,
    return_probs_finite,
    tree_return_probs,
    tree_return_probs_exact,
)

REL = 1e-12
QUAD_TOL = 1e-8
MASS_TOL = 1e-9

DEGREES = (3, 4, 6)


# ---------------------------------------------------------------------------
# exact tree DP


@pytest.mark.parametrize("d", DEGREES)
def test_tree_exact_low_orders(d):
    ex = tree_return_probs_exact(d, 4)
    assert ex[0] == Fraction(1)
    assert ex[1] == Fraction(1, d)
    assert ex[2] == Fraction(2 * d - 1, d**3)


@pytest.mark.parametrize("d", (3, 4))
def test_tree_exact_matches_walk_count(d):
    # independent oracle: closed-walk counts at the root of a tree ball
    # deep enough that no length-4 walk can feel the leaves
    g = generate(FamilySpec(family="tree-ball", d=d, depth=3))
    am = adjacency_moments(g, 0, 4)
    assert am.values[2] == d
    assert am.values[4] == d * (2 * d - 1)
    ex = tree_return_probs_exact(d, 2)
    assert ex[1] == Fraction(int(am.values[2]), d**2)
    assert ex[2] == Fraction(int(am.values[4]), d**4)


def test_tree_float_dp_tracks_exact():
    ex = tree_return_probs_exact(3, 40)
    fl = tree_return_probs(3, 40)
    for n in range(41):
        assert fl.values[n] == pytest.approx(float(ex[n]), rel=1e-12)


def test_tree_series_layout():
    s = tree_return_probs(4, 10)
    assert s.kind == "srw-probability"
    assert s.source == "tree-dp"
    assert s.d == 4
    assert len(s.values) == 11
    # accessors translate walk length to the even-step index
    assert s.p(2) == s.values[1]
    assert s.p(3) == 0.0
    assert s.log_moment(2) == pytest.approx(math.log(s.values[1]) + 2 * math.log(4))


def test_tree_ball_agrees_with_infinite_tree():
    # a closed walk of length <= 2(depth-1) never visits a leaf, so the
    # ball's root walk counts coincide with the infinite tree's
    g = generate(FamilySpec(family="tree-ball", d=3, depth=5))
    counts = adjacency_moments(g, 0, 8)
    inf = tree_return_probs(3, 4)
    for n in range(5):
        assert counts.values[2 * n] / 3.0 ** (2 * n) == pytest.approx(
            inf.values[n], rel=REL
        )
    for k in range(1, 9, 2):
        assert counts.values[k] == 0.0


def test_tree_input_validation():
    with pytest.raises(GraphError, match="d >= 3"):
        tree_return_probs(2, 10)
    with pytest.raises(GraphError):
        tree_return_probs(3, 0)
    with pytest.raises(GraphError):
        tree_return_probs(3, TREE_N_CAP + 1)
    with pytest.raises(GraphError, match="exact"):
        tree_return_probs_exact(3, 51)


# ---------------------------------------------------------------------------
# finite-graph series


def test_finite_returns_match_matrix_power():
    g = generate(FamilySpec(family="cycle", n=7))
    s = return_probs_finite(g, 0, 12)
    P = g.dense() / 2.0
    acc = np.eye(7)
    for k in range(13):
        assert s.values[k] == pytest.approx(acc[0, 0], abs=1e-14)
        acc = acc @ P
    assert s.d == 2
    assert s.source == "finite-graph"


def test_adjacency_moments_match_matrix_power():
    edges = [(0, 1, 1.5), (1, 2, 0.5), (2, 0, 2.0), (2, 3, 1.0)]
    g = build_graph(4, edges)
    s = adjacency_moments(g, 1, 6)
    A = g.dense()
    acc = np.eye(4)
    for k in range(7):
        assert s.values[k] == pytest.approx(acc[1, 1], rel=1e-12, abs=1e-14)
        acc = acc @ A
    assert s.kind == "adjacency-moment"


def test_finite_series_validation():
    g = generate(FamilySpec(family="cycle", n=6))
    with pytest.raises(GraphError, match="K must lie"):
        return_probs_finite(g, 0, RETURN_K_CAP + 1)
    with pytest.raises(GraphError, match="K must lie"):
        return_probs_finite(g, 0, -1)
    with pytest.raises(GraphError, match="root"):
        return_probs_finite(g, 6, 4)
    path = generate(FamilySpec(family="path", n=5))
    with pytest.raises(NonRegularGraphError):
        return_probs_finite(path, 0, 4)
    weighted = build_graph(3, [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)])
    with pytest.raises(NonRegularGraphError, match="unit weights"):
        return_probs_finite(weighted, 0, 4)


def test_series_kind_validation():
    with pytest.raises(GraphError, match="unknown series kind"):
        ReturnSeries(kind="bogus", values=np.ones(3), d=3, source="finite")
    with pytest.raises(GraphError, match="degree"):
        ReturnSeries(kind="srw-probability", values=np.ones(3), d=None, source="finite")
    s = adjacency_moments(generate(FamilySpec(family="cycle", n=4)), 0, 2)
    with pytest.raises(GraphError, match="probabilities"):
        s.p(2)


# ---------------------------------------------------------------------------
# Kesten reference measure


@pytest.mark.parametrize("d", DEGREES)
def test_kesten_normalization_and_moments(d):
    ref = KestenRef(d)
    assert ref.rho == pytest.approx(2 * math.sqrt(d - 1))
    assert ref.mass(-ref.rho, ref.rho) == pytest.approx(1.0, abs=MASS_TOL)
    assert ref.moment(0) == pytest.approx(1.0, abs=QUAD_TOL)
    assert ref.moment(2) == pytest.approx(d, abs=QUAD_TOL)
    assert ref.moment(4) == pytest.approx(d * (2 * d - 1), abs=QUAD_TOL)
    assert ref.moment(1) == pytest.approx(0.0, abs=1e-10)
    assert ref.moment(3) == pytest.approx(0.0, abs=1e-10)


def test_kesten_moments_match_tree_dp():
    # trapezoidal moments against the exact walk counts: M_{2n} = p_{2n} d^{2n}
    for d in (3, 4, 6, 20):
        ref = KestenRef(d)
        ex = tree_return_probs_exact(d, 20)
        for n in range(21):
            want = float(ex[n] * Fraction(d) ** (2 * n))
            assert ref.moment(2 * n) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("d", (3, 4, 8, 20))
def test_kesten_odd_moments_are_exactly_zero(d):
    ref = KestenRef(d)
    for k in range(1, 42, 2):
        assert ref.moment(k) == 0.0


def quad_mass(d, a, b):
    """Reference: the density integrated by adaptive quadrature after
    x = rho cos(phi), which makes the square-root edge a smooth sin^2."""
    rho = 2.0 * math.sqrt(d - 1.0)
    a, b = max(a, -rho), min(b, rho)
    if a >= b:
        return 0.0
    lo = math.acos(max(-1.0, min(1.0, b / rho)))
    hi = math.acos(max(-1.0, min(1.0, a / rho)))

    def integrand(phi):
        cx = rho * math.cos(phi)
        return d * rho * rho * math.sin(phi) ** 2 / (2.0 * math.pi * (d * d - cx * cx))

    value, _ = scipy.integrate.quad(
        integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    return value


KESTEN_ORACLE_DEGREES = (3, 4, 5, 8, 20)


@pytest.mark.parametrize("d", KESTEN_ORACLE_DEGREES)
def test_kesten_top_mass_matches_quadrature(d):
    ref = KestenRef(d)
    for theta in [2.0**-k for k in range(15)] + [1.5, 2.0, 3.0]:
        lo = (1.0 - min(theta, 2.0)) * ref.rho
        assert ref.mass_top(theta) == pytest.approx(
            quad_mass(d, lo, ref.rho), rel=1e-9
        )


@pytest.mark.parametrize("d", KESTEN_ORACLE_DEGREES)
def test_kesten_mass_matches_quadrature_across_the_edges(d):
    ref = KestenRef(d)
    rho = ref.rho
    intervals = [
        (rho - 0.5, rho + 1.0),
        (-rho - 1.0, -rho + 0.3),
        (-rho - 1.0, rho + 1.0),
        (-rho - 2.0, 0.0),
        (0.0, rho + 2.0),
        (-0.7, 1.1),
    ]
    for a, b in intervals:
        assert ref.mass(a, b) == pytest.approx(quad_mass(d, a, b), rel=1e-9)
    assert ref.mass(-rho - 1.0, rho + 1.0) == pytest.approx(1.0, rel=1e-12)
    empty = [(0.5, 0.5), (1.0, -1.0), (rho, rho + 1.0), (-rho - 2.0, -rho)]
    for a, b in empty:
        assert ref.mass(a, b) == 0.0


def test_kesten_mass_top_is_top_window():
    ref = KestenRef(4)
    theta = 0.1
    assert ref.mass_top(theta) == ref.mass((1 - theta) * ref.rho, ref.rho)
    assert kesten_mass(4, theta) == ref.mass_top(theta)


def test_kesten_density_support():
    ref = KestenRef(3)
    assert ref.density(ref.rho + 0.01) == 0.0
    assert ref.density(-ref.rho - 0.01) == 0.0
    assert ref.density(0.0) > 0.0


def test_kesten_validation():
    with pytest.raises(GraphError, match="d >= 3"):
        KestenRef(2)
    with pytest.raises(GraphError, match="nonnegative"):
        KestenRef(3).moment(-1)


# ---------------------------------------------------------------------------
# moment-based mass bound


@given(theta=st.floats(min_value=0.01, max_value=0.9))
def test_mass_upper_dominates_kesten(theta, tree_series_d4):
    rho = 2 * math.sqrt(3)
    upper = moment_mass_upper(tree_series_d4, rho, theta)
    assert upper >= kesten_mass(4, theta) - 1e-12
    assert upper <= 1.0


def test_mass_upper_validation():
    s = tree_return_probs(4, 10)
    with pytest.raises(GraphError, match="rho"):
        moment_mass_upper(s, 0.0, 0.1)
    with pytest.raises(GraphError, match="theta"):
        moment_mass_upper(s, 2.0, 1.0)


@pytest.fixture(scope="module")
def tree_series_d4():
    return tree_return_probs(4, 200)


# ---------------------------------------------------------------------------
# decay fit and roundtrip


def test_decay_fit_frozen_d4():
    fit = decay_fit(tree_return_probs(4, 1000), (100, 1000))
    assert fit.rho_hat == pytest.approx(3.46403440078371, abs=1e-9)
    assert fit.alpha_hat == pytest.approx(1.4672227261173578, abs=1e-9)
    assert fit.window == (100, 1000)
    assert fit.max_residual < 0.02


@pytest.mark.parametrize("d", DEGREES)
def test_decay_fit_recovers_growth_rate(d):
    fit = decay_fit(tree_return_probs(d, 1000), (100, 1000))
    rho = 2 * math.sqrt(d - 1)
    assert abs(fit.rho_hat - rho) / rho < 0.01
    assert fit.alpha_hat >= 1.0
    assert fit.note != ""


def test_decay_fit_validation():
    s = tree_return_probs(3, 50)
    with pytest.raises(GraphError, match="window"):
        decay_fit(s, (48, 50))
    with pytest.raises(GraphError, match="window"):
        decay_fit(s, (10, 51))
    fin = return_probs_finite(generate(FamilySpec(family="cycle", n=8)), 0, 20)
    with pytest.raises(GraphError, match="tree-dp"):
        decay_fit(fin, (2, 10))


def test_roundtrip_frozen():
    rt3 = return_decay_roundtrip(3)
    assert rt3.ok
    assert rt3.difference == pytest.approx(0.020803958196984107, abs=1e-9)
    assert rt3.alpha_walk == pytest.approx(1.429500680016748, abs=1e-9)
    rt4 = return_decay_roundtrip(4)
    assert rt4.ok
    assert rt4.difference == pytest.approx(0.010891372603261562, abs=1e-9)
    assert rt4.alpha_mass == pytest.approx(1.4781140987206194, abs=1e-9)
    assert rt4.theta_grid[0] == 2.0**-4
    assert rt4.theta_grid[-1] == 2.0**-14


@pytest.mark.parametrize("grid", [(0.0, 0.5), (0.5, 1.0), (0.25, 2.0), (0.5, math.nan),
                                  (0.5,), (0.5, 0.5), ()])
def test_roundtrip_rejects_theta_grid(grid):
    # log(mass_top(0)) = log 0 would reach the slope fit; one value leaves no slope
    with pytest.raises(GraphError, match="theta grid"):
        return_decay_roundtrip(3, theta_grid=grid, N=100, window=(10, 50))


# ---------------------------------------------------------------------------
# CSV serialization


def test_series_csv_tree_layout(tmp_path):
    out = tmp_path / "tree.csv"
    assert main(["walks", "tree", "--d", "4", "--N", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p_2n,scaled"
    assert lines[1] == "0,1,1"
    # scaled = p_2n (d/rho)^{2n}; at n=1 that is 0.25 * 16/12 = 1/3
    assert lines[2] == "1,0.25,0.33333333333333331"
    assert len(lines) == 5


def test_series_csv_finite_layout(tmp_path):
    out = tmp_path / "fin.csv"
    argv = ["walks", "finite", "--family", "cycle", "--n", "6", "--K", "4", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,value"
    assert lines[1] == "0,1"
    assert lines[3] == "2,0.5"
    assert len(lines) == 6
