"""Window bound, schedules, theorem checker, interlacing counts."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectop import (
    BoundParams,
    Check,
    FamilySpec,
    GraphError,
    HypothesisViolatedError,
    InertiaCounts,
    NotANetError,
    Spectrum,
    count_at_most,
    count_below,
    eigenvalues,
    finite_param_check,
    finite_param_rhs,
    generate,
    greedy_tree_net,
    interlacing_check,
    select_r_s,
    thm_checker,
)
from spectop import spectral
from spectop.cli import ExperimentConfig, main, sweep_rows
from spectop.graphs import VertexSet
from spectop.nets import NetResult
from spectop.rng import rng_for

from conftest import random_connected_graph


def test_bound_params_validation():
    good = dict(theta=0.5, x=2.0, r=1, s=2, delta_top=0.1, eps_net=0.2,
                delta=3, w_min=1.0, w_max=1.0)
    BoundParams(**good)
    for key, bad in [
        ("theta", 1.0),
        ("theta", -0.1),
        ("x", 0.5),  # below w_min
        ("x", math.nan),  # an empty window would read as a pass
        ("x", math.inf),
        ("theta", math.nan),
        ("r", 0),
        ("s", 0),
        ("delta_top", 1.5),
        ("eps_net", -0.2),
        ("delta", 0),
    ]:
        with pytest.raises(GraphError):
            BoundParams(**{**good, key: bad})


def test_finite_param_rhs_hand_computed():
    p = BoundParams(theta=0.5, x=2.0, r=1, s=2, delta_top=0.01, eps_net=0.3,
                    delta=2, w_min=1.0, w_max=1.0)
    terms = finite_param_rhs(p)
    # (1-theta)^{-2s} (1 - (w_min/x)^{2r})^{s/r} = 16 * 0.75^2
    assert terms.moment == pytest.approx(16 * 0.5625, rel=1e-12)
    # 2 delta_top Delta^{2(s+2)} = 2 * 0.01 * 2^8; the separated-subset
    # counting argument uses the raw degree cap, not delta * w_max / w_min
    assert terms.tail == pytest.approx(5.12, rel=1e-12)
    assert terms.net == pytest.approx(0.6, rel=1e-12)
    assert terms.total == pytest.approx(9.0 + 5.12 + 0.6, rel=1e-12)


def test_finite_param_rhs_overflow():
    # 2^1200 overflows alone, but 2^1200 base^10 is about 1e262
    p = BoundParams(theta=0.5, x=1.0 + 1e-12, r=60, s=600, delta_top=0.0, eps_net=0.0,
                    delta=2)
    base = 1.0 - (1.0 / p.x) ** 120
    terms = finite_param_rhs(p)
    assert terms.moment == pytest.approx(math.ldexp(base**10, 1200), rel=1e-9)
    assert terms.tail == 0.0  # delta_top = 0, though 2^1204 overflows
    # 2^1024 overflows alone, but 0.02 * 2^1024 is about 3.6e306
    p = BoundParams(theta=0.1, x=2.0, r=1, s=510, delta_top=0.01, eps_net=0.0, delta=2)
    assert finite_param_rhs(p).tail == pytest.approx(math.ldexp(0.02, 1024), rel=1e-9)
    p = BoundParams(theta=0.5, x=2.0, r=1, s=2000, delta_top=0.01, eps_net=0.0, delta=2)
    terms = finite_param_rhs(p)
    assert terms.moment == terms.tail == terms.total == math.inf


def test_finite_param_rhs_x_at_w_min_kills_moment_term():
    p = BoundParams(theta=0.3, x=1.0, r=2, s=3, delta_top=0.0, eps_net=0.1,
                    delta=4, w_min=1.0, w_max=1.0)
    terms = finite_param_rhs(p)
    assert terms.moment == 0.0
    assert terms.tail == 0.0
    assert terms.total == pytest.approx(0.2, rel=1e-12)


@given(
    seed=st.integers(0, 4_000),
    theta=st.floats(0.0, 0.8),
    r=st.integers(1, 2),
    s=st.integers(1, 4),
    q=st.floats(0.1, 1.0),
)
def test_finite_param_bound_holds(seed, theta, r, s, q):
    g = random_connected_graph(seed, n_max=18, weighted=seed % 2 == 0)
    spectrum = eigenvalues(g)
    top = float(spectrum.values[-1])
    x = max(g.w_min, q * top)
    net = greedy_tree_net(g, r)
    rep = finite_param_check(g, x, theta, r, s, net, spectrum=spectrum)
    assert rep.ok
    assert rep.lhs <= rep.rhs + 1e-8
    assert rep.kind == "finite-param"
    assert set(rep.terms) == {"moment", "tail", "net"}


def test_finite_param_check_lhs_is_window_mass(cycle12):
    spectrum = eigenvalues(cycle12)
    net = greedy_tree_net(cycle12, 1)
    rep = finite_param_check(cycle12, 2.0, 0.5, 1, 1, net, spectrum=spectrum)
    expected = (count_at_most(spectrum, 2.0) - count_below(spectrum, 1.0)) / 12
    assert rep.lhs == expected == 5 / 12


def test_window_mass_counts_both_closed_ends(cycle12):
    """[(1 - theta) x, x] is closed: eigenvalues at either end, or within
    TOL_EIG outside it, count in the window and not in the tail above x.
    The tail_mass hypothesis reads that tail high, so the eigenvalue 1e-9
    above x leaves it undecided."""
    values = np.array([-2.0] * 7 + [1.5 - 1e-9, 1.5, 1.7, 2.0, 2.0 + 1e-9])
    spectrum = Spectrum(values)
    rep = finite_param_check(cycle12, 2.0, 0.25, 1, 1, greedy_tree_net(cycle12, 1), spectrum=spectrum)
    assert rep.lhs == 5 / 12 and rep.params["delta_top"] == 0.0
    with pytest.raises(HypothesisViolatedError, match="'tail_mass' undecided"):
        thm_checker(cycle12, "main", x=2.0, theta=0.25, spectrum=spectrum)


def test_finite_param_check_rejects_radius_mismatch(cycle12):
    net = greedy_tree_net(cycle12, 2)
    with pytest.raises(GraphError):
        finite_param_check(cycle12, 2.0, 0.3, 1, 1, net)


def test_finite_param_check_rejects_fake_net(cycle12):
    fake = NetResult("greedy-tree", 1, VertexSet.of([0], 12), 1 / 12, True)
    with pytest.raises(NotANetError):
        finite_param_check(cycle12, 2.0, 0.3, 1, 1, fake)


def test_select_r_s_admissible_case():
    sel = select_r_s(1e-5, 2.0)
    assert sel.ok
    assert sel.s == 100_000
    # r = floor(log_2(s) / 10) = floor(1.66) = 1
    assert sel.r == 1


def test_select_r_s_exact_reciprocal():
    sel = select_r_s(0.125, 2.0)
    assert sel.s == 8


def test_select_r_s_rejections():
    assert not select_r_s(0.0, 2.0).ok
    assert select_r_s(math.nan, 2.0).reason == "theta must be positive"
    tiny = select_r_s(5e-324, 2.0)  # 1/theta overflows
    assert not tiny.ok and tiny.reason == "theta too small: 1/theta overflows"
    assert not select_r_s(0.6, 2.0).ok  # theta > 1/delta_tilde
    too_small = select_r_s(0.2, 3.0)  # s=5 gives r=0
    assert not too_small.ok
    assert "r" in too_small.reason


def test_thm_second_eig_boundary_tail_mass():
    # C_64: delta = 1/64 equals the tail cap 2^{-10/theta} exactly at
    # theta = 10/6, so the hypothesis check must tolerate the boundary
    g = generate(FamilySpec("cycle", n=64))
    rep = thm_checker(g, "second-eig")
    assert rep.ok
    assert rep.hypotheses["tail_mass"]
    assert rep.params["theta"] == pytest.approx(10.0 / 6.0, rel=1e-15)
    assert rep.params["x"] == pytest.approx(2.0 * math.cos(2 * math.pi / 64), abs=1e-12)
    assert math.isfinite(rep.implied_constant)


def test_checks_count_without_a_dense_spectrum(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense spectrum computed")

    g = generate(FamilySpec("random-regular", n=200, d=4, seed=1))
    spec = eigenvalues(g)
    monkeypatch.setattr(spectral, "eigenvalues", no_dense)
    rep = thm_checker(g, "second-eig")
    assert rep.params["x"] == pytest.approx(spec.top(2), abs=1e-12)
    assert rep.lhs == thm_checker(g, "second-eig", spectrum=spec).lhs
    net = greedy_tree_net(g, 1)
    fp = finite_param_check(g, rep.params["x"], 0.5, 1, 2, net)
    assert fp.lhs == finite_param_check(g, rep.params["x"], 0.5, 1, 2, net, spectrum=spec).lhs


def test_thm_main_requires_x_and_theta(cycle12):
    with pytest.raises(GraphError):
        thm_checker(cycle12, "main")


@pytest.mark.parametrize("x, theta", [(math.nan, 0.5), (math.inf, 0.5), (2.5, math.nan),
                                      (2.5, math.inf), (2.5, 0.0)])
def test_thm_main_needs_finite_x_and_theta(cycle12, x, theta):
    with pytest.raises(GraphError, match="finite"):
        thm_checker(cycle12, "main", x=x, theta=theta)


def test_thm_expander_size_floor_beyond_the_float_range(cycle12):
    # 2 theta^{-c / (10 ln 2)} = 2e43280 overflows: no graph is that large
    with pytest.raises(HypothesisViolatedError, match="graph_size"):
        thm_checker(cycle12, "expander", x=2.5, theta=1e-300, c=1000.0)


@pytest.mark.filterwarnings("error")
def test_thm_expander_rate_beyond_the_float_range(cycle12):
    # theta^{c / (40 ln 2)} = 1e300^36 overflows: the rate is inf and the
    # implied constant is written as 0, as for the main variant at theta = 1
    rep = thm_checker(cycle12, "expander", x=2.5, theta=1e300, c=1000.0)
    assert rep.rate == math.inf and rep.implied_constant == 0.0


def test_thm_main_violated_tail_mass_raises(cycle12):
    # x = 0 leaves far too much mass above, naming the failed hypothesis
    with pytest.raises(HypothesisViolatedError, match="tail_mass"):
        thm_checker(cycle12, "main", x=0.0, theta=0.5)


def test_thm_main_rate_formula():
    g = generate(FamilySpec("cycle", n=512))
    rep = thm_checker(g, "main", x=2.5, theta=0.25)
    assert rep.rate == pytest.approx(math.log(2.0) / math.log(4.0), rel=1e-12)
    # window (1.875, 2.5] catches 2 cos(2 pi k / 512) with cos > 0.9375,
    # i.e. |k| <= 28, which is 57 of the 512 eigenvalues
    assert rep.lhs == pytest.approx(57.0 / 512.0, abs=1e-12)
    assert rep.implied_constant == pytest.approx(rep.lhs / rep.rate, rel=1e-12)


def test_thm_expander_variant():
    g = generate(FamilySpec("cycle", n=100))
    rep = thm_checker(g, "expander", x=2.5, theta=0.3, c=0.5)
    assert rep.kind == "thm-expander"
    assert rep.rate == pytest.approx(0.3 ** (0.5 / (40 * math.log(2))), rel=1e-12)
    assert rep.hypotheses["graph_size"]
    json.loads(rep.to_json())


def test_thm_expander_needs_positive_c(cycle12):
    for c in (None, 0.0, math.nan, math.inf):
        with pytest.raises(GraphError, match="expansion"):
            thm_checker(cycle12, "expander", x=2.5, theta=0.3, c=c)


@given(seed=st.integers(0, 4_000), mode=st.sampled_from(["delete", "zero-rows-cols"]))
def test_interlacing_bounds_hold(seed, mode):
    g = random_connected_graph(seed, n_max=18)
    size = max(1, g.n // 4)
    u = VertexSet.of(rng_for(seed).choice(g.n, size=size, replace=False).tolist(), g.n)
    rep = interlacing_check(g, u, mode)
    assert rep.ok
    assert rep.halfline_dev <= rep.halfline_bound == len(u)
    assert rep.interval_dev <= rep.interval_bound == 2 * len(u)
    assert rep.lhs == max(rep.halfline_dev, rep.interval_dev / 2) <= rep.rhs == len(u)


def test_check_reads_its_terms_and_params_as_attributes(cycle12):
    rep = finite_param_check(cycle12, 1.5, 0.3, 1, 2, greedy_tree_net(cycle12, 1))
    assert (rep.moment, rep.net) == (rep.terms["moment"], rep.terms["net"])
    assert (rep.theta, rep.n, rep.net_method) == (0.3, 12, "greedy-tree")
    assert rep.slack == rep.rhs - rep.lhs and rep.tightness == rep.lhs / rep.rhs
    for name in ("nonesuch", "_moment", "__nonesuch__"):
        with pytest.raises(AttributeError):
            getattr(rep, name)
    # copy and pickle look up dunder names on a bare instance
    assert copy.deepcopy(rep) == rep == pickle.loads(pickle.dumps(rep))
    assert json.loads(rep.to_json())["terms"] == rep.terms


def test_check_tightness_at_a_zero_rhs():
    assert math.isnan(Check("c", 0.0, 0, True).tightness)
    assert Check("c", 2.0, 0, False).tightness == math.inf
    assert Check("c", 1.0, 4.0, True).tightness == 0.25


def test_interlacing_tight_on_complete_graph():
    g = generate(FamilySpec("complete", n=8))
    rep = interlacing_check(g, VertexSet.of([0], 8), mode="delete")
    assert rep.halfline_dev == 1
    assert rep.ok


def test_interlacing_zero_mode_keeps_vertex_count():
    g = generate(FamilySpec("cycle", n=10))
    u = VertexSet.of([0, 5], 10)
    rep = interlacing_check(g, u, mode="zero-rows-cols")
    assert rep.mode == "zero-rows-cols"
    assert rep.ok


def test_interlacing_rejects_unknown_mode(cycle12):
    with pytest.raises(GraphError):
        interlacing_check(cycle12, VertexSet.of([0], 12), mode="shuffle")



# The shifts each InertiaCounts is first asked for, in order, over the
# criterion 11 sweep (seed 17) and one finite-param run at a given x (where
# no top eigenvalue asks first): their count and the sha256 of their
# float.hex strings joined by commas. The cache, the shared elimination
# order and every count follow from them. Recorded while the counts still
# went through a four-flag interval object.
CHECK_SHIFTS = (30, "91144bf428b7183a188e2e5a56117b84bb9d156f3cca2d2188facea9d642a579")


def test_checks_ask_for_the_recorded_shifts(tmp_path, monkeypatch):
    shifts = []
    real = InertiaCounts.below

    def below(self, sigma, inclusive=False):
        if sigma not in self._below:
            shifts.append(sigma)
        return real(self, sigma, inclusive)

    monkeypatch.setattr(InertiaCounts, "below", below)
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(suite="second-eig", seed=17,
                           families=({"family": "cycle"}, {"family": "random-regular", "d": 4}),
                           grid={"n": [2**k for k in range(8, 13)]})
    sweep_rows(cfg)
    assert main(["verify", "finite-param", "--family", "random-regular", "--n", "1024",
                 "--d", "4", "--theta", "0.3", "--r", "1", "--s", "2", "--x-rule", "value",
                 "--x", "3", "--seed", "3", "--out", "fp.csv"]) == 0
    text = ",".join(sigma.hex() for sigma in shifts)
    assert (len(shifts), hashlib.sha256(text.encode()).hexdigest()) == CHECK_SHIFTS
