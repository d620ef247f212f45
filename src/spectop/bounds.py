"""Quantitative non-concentration bounds and their verification reports.

The central inequality bounds the spectral mass of a window just below a
point x >= w_min: with an r-net of density eps_net removed, s moment rounds,
tail mass delta_top above x, and degree cap Delta,

    mu[(1-theta) x, x]  <=  (1-theta)^{-2s} (1 - (w_min/x)^{2r})^{s/r}
                            + 2 delta_top Delta^{2(s+2)} + 2 eps_net.

``finite_param_check`` measures the left side by eigenvalue counts and
evaluates the right side from an actual net.  ``thm_checker`` wires in the
parameter schedules behind the headline rates (1/log(1/theta) in general, a
power of theta on expanders) and reports the implied constant, never
asserting any absolute constant.  ``interlacing_check`` verifies the
finite-graph eigenvalue-count stability under vertex deletion or row/column
zeroing that the transfer arguments rely on.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .graphs import (
    GraphError,
    VertexSet,
    WeightedGraph,
    _intra_class,
    delete_vertices,
    is_connected,
    is_r_net,
)
from .nets import NetResult, NotANetError, _exp
from .spectral import (
    TOL_EIG,
    InertiaCounts,
    Spectrum,
    count_at_most,
    count_below,
    eigenvalues,
)

__all__ = [
    "BoundParams",
    "BoundTerms",
    "BoundReport",
    "HypothesisViolatedError",
    "RSSelection",
    "finite_param_rhs",
    "finite_param_check",
    "select_r_s",
    "thm_checker",
    "InterlacingReport",
    "interlacing_check",
]

FINITE_PARAM_TOL = 1e-8
HYPOTHESIS_REL_TOL = 1e-9


class HypothesisViolatedError(GraphError):
    """A theorem hypothesis failed; the message names which one."""


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the window bound.

    ``delta_top`` is the spectral mass strictly above x, ``eps_net`` the
    density of the removed r-net, ``delta`` the degree cap, and ``w_min`` /
    ``w_max`` the weight range.
    """

    theta: float
    x: float
    r: int
    s: int
    delta_top: float
    eps_net: float
    delta: int
    w_min: float = 1.0
    w_max: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < 1.0:
            raise GraphError("theta must lie in [0, 1)")
        if not self.w_min <= self.x < math.inf:
            raise GraphError("x must be finite and at least w_min")
        if self.r < 1 or self.s < 1:
            raise GraphError("r and s must be positive integers")
        if not 0.0 <= self.delta_top <= 1.0 or not 0.0 <= self.eps_net <= 1.0:
            raise GraphError("delta_top and eps_net are densities in [0, 1]")
        if self.delta < 1 or self.w_min <= 0 or self.w_max < self.w_min:
            raise GraphError("need delta >= 1 and 0 < w_min <= w_max")


@dataclass(frozen=True)
class BoundTerms:
    """Right-hand side of the window bound, term by term.

    ``total`` is the unclamped sum (any single term above 1 makes the bound
    vacuous).
    """

    moment: float
    tail: float
    net: float

    @property
    def total(self) -> float:
        return self.moment + self.tail + self.net


def finite_param_rhs(params: BoundParams) -> BoundTerms:
    """Evaluate the three terms of the window bound in double precision.

    A term beyond the float range is inf. A power that overflows alone is
    redone in logs with its factor, which can bring the term back in range.
    The tail is 0 when delta_top = 0, however large the Delta power.
    """
    theta, r, s = params.theta, params.r, params.s
    base = 1.0 - (params.w_min / params.x) ** (2 * r)
    if base <= 0.0:
        moment = 0.0
    else:
        try:
            moment = (1.0 - theta) ** (-2 * s) * base ** (s / r)
        except OverflowError:
            moment = _exp(-2 * s * math.log1p(-theta) + s / r * math.log(base))
    if params.delta_top == 0.0:
        tail = 0.0
    else:
        try:
            tail = 2.0 * params.delta_top * math.pow(params.delta, 2 * (s + 2))
        except OverflowError:
            tail = _exp(math.log(2.0 * params.delta_top) + 2 * (s + 2) * math.log(params.delta))
    net = 2.0 * params.eps_net
    return BoundTerms(moment=moment, tail=tail, net=net)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound verification.

    ``hypotheses`` maps hypothesis names to booleans; ``implied_constant``
    is lhs / rate for theorem variants carrying a rate, else None.
    """

    kind: str
    lhs: float
    rhs: float
    ok: bool
    terms: dict[str, float]
    params: dict[str, float | int | str | bool | None]
    hypotheses: dict[str, bool]
    rate: float | None = None
    implied_constant: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def finite_param_check(
    g: WeightedGraph,
    x: float,
    theta: float,
    r: int,
    s: int,
    net: NetResult,
    spectrum: Spectrum | InertiaCounts | None = None,
) -> BoundReport:
    """Measure mu[(1-theta) x, x] and compare with the window bound.

    The net must be a verified r-net for the same radius; its covering
    property is re-checked.  The graph must be connected (the net-removal
    step of the argument assumes it).  The counts come from ``spectrum``,
    by default the graph's :class:`InertiaCounts`.
    """
    if not is_connected(g):
        raise GraphError("finite_param_check needs a connected graph")
    if net.r != r:
        raise GraphError(f"net radius {net.r} does not match r={r}")
    if not net.verified or not is_r_net(g, net.vertices, r):
        raise NotANetError("finite_param_check needs a verified r-net")
    # x and theta are checked before the first count, which x = inf would break
    params = BoundParams(
        theta=theta,
        x=x,
        r=r,
        s=s,
        delta_top=0.0,
        eps_net=net.density,
        delta=g.delta,
        w_min=g.w_min,
        w_max=g.w_max,
    )
    if spectrum is None:
        spectrum = InertiaCounts(g)
    at_most = count_at_most(spectrum, x)
    params = replace(params, delta_top=(g.n - at_most) / g.n)
    terms = finite_param_rhs(params)
    lhs = max(0, at_most - count_below(spectrum, (1.0 - theta) * x)) / g.n
    rhs = terms.total
    ok = lhs <= rhs + FINITE_PARAM_TOL
    return BoundReport(
        kind="finite-param",
        lhs=lhs,
        rhs=rhs,
        ok=ok,
        terms=asdict(terms),
        params={**asdict(params), "n": g.n, "net_method": net.method},
        hypotheses={
            "x_ge_w_min": x >= g.w_min,
            "theta_in_range": 0.0 <= theta < 1.0,
            "net_verified": True,
        },
    )


@dataclass(frozen=True)
class RSSelection:
    """The (s, r) schedule for a target window width theta."""

    s: int
    r: int
    ok: bool
    reason: str


def select_r_s(theta: float, delta_tilde: float) -> RSSelection:
    """s = floor(1/theta), r = floor(log_{delta_tilde}(s) / 10).

    The schedule is admissible when 0 < theta <= 1/delta_tilde and the
    resulting r is at least 1; otherwise ``ok`` is False and ``reason`` says
    which constraint failed.
    """
    if not theta > 0:
        return RSSelection(0, 0, False, "theta must be positive")
    if delta_tilde <= 1:
        return RSSelection(0, 0, False, "delta_tilde must exceed 1")
    # nudge before floor: 1/theta for decimal theta like 1e-5 lands one ulp
    # below the intended integer
    rounds = (1.0 / theta) * (1.0 + 1e-12)
    if rounds == math.inf:
        return RSSelection(0, 0, False, "theta too small: 1/theta overflows")
    s = math.floor(rounds)
    if s < 1:
        return RSSelection(s, 0, False, "theta > 1 leaves no moment rounds")
    # nudge before floor so exact powers are not lost to rounding
    r = math.floor(math.log(s) / math.log(delta_tilde) / 10.0 + 1e-12)
    if theta > 1.0 / delta_tilde:
        return RSSelection(s, r, False, "theta exceeds 1/delta_tilde")
    if r < 1:
        return RSSelection(s, r, False, "r < 1: theta too large for this delta_tilde")
    return RSSelection(s, r, True, "ok")


def _hyp_leq(lhs: float, rhs: float) -> bool:
    """lhs <= rhs with relative slack, for hypotheses that hold with equality."""
    return lhs <= rhs * (1.0 + HYPOTHESIS_REL_TOL) + 1e-300


def thm_checker(
    g: WeightedGraph,
    variant: str,
    x: float | None = None,
    theta: float | None = None,
    c: float | None = None,
    spectrum: Spectrum | InertiaCounts | None = None,
) -> BoundReport:
    """Check a non-concentration theorem instance and report the implied constant.

    Variants: ``main`` (rate 1 / log_{delta_tilde}(1/theta)), ``expander``
    (rate theta^{c / (40 ln delta_tilde)}; c is the assumed expansion), and
    ``second-eig`` (the main variant preset at x = lambda_2 and
    theta = 10 / log_{delta_tilde} n).  Hypothesis failures raise
    :class:`HypothesisViolatedError` naming the hypothesis; the implied
    constant is measured, never asserted against any absolute value.
    lambda_2 and the counts come from ``spectrum``, by default the graph's
    :class:`InertiaCounts`.

    ``tail_mass`` holds when delta_top = mu(x, inf) is under its cap read
    high, counting the eigenvalues within ``TOL_EIG`` of x; one that passes
    only read low raises as undecided.  ``delta_top`` reports the low
    reading.  The second-eig preset reads it low only: its x is lambda_2,
    which a high reading would count.
    """
    if g.n < 2:
        raise GraphError("thm_checker needs at least two vertices")
    if spectrum is None:
        spectrum = InertiaCounts(g)
    dt = g.delta_tilde
    if dt <= 1:
        raise GraphError("thm_checker needs delta_tilde > 1")
    log_dt = math.log(dt)

    if variant == "second-eig":
        x = spectrum.top(2)
        theta = 10.0 / (math.log(g.n) / log_dt)
        variant_kind = "second-eig"
        rate_kind = "main"
    elif variant in ("main", "expander"):
        if x is None or theta is None:
            raise GraphError(f"variant {variant!r} needs explicit x and theta")
        variant_kind = variant
        rate_kind = variant
    else:
        raise GraphError(f"unknown theorem variant {variant!r}")
    if not (0 < theta < math.inf and math.isfinite(x)):
        raise GraphError("x and theta must be finite, and theta positive")

    at_most = count_at_most(spectrum, x)
    delta_top = (g.n - at_most) / g.n
    tail_cap = math.pow(dt, -10.0 / theta)
    hypotheses = {"tail_mass": _hyp_leq(delta_top, tail_cap)}
    if rate_kind == "main":
        size_floor = math.log(1.0 / theta) / log_dt
        hypotheses["graph_size"] = g.n >= size_floor * (1.0 - HYPOTHESIS_REL_TOL)
        log_ratio = math.log(1.0 / theta) / log_dt
        rate = math.inf if log_ratio == 0.0 else 1.0 / log_ratio
    else:
        if c is None or not 0 < c < math.inf:
            raise GraphError("expander variant needs a finite assumed expansion c > 0")
        try:
            size_floor = 2.0 * theta ** (-c / (10.0 * log_dt))
        except OverflowError:  # beyond any graph's size
            size_floor = math.inf
        hypotheses["graph_size"] = g.n >= size_floor * (1.0 - HYPOTHESIS_REL_TOL)
        try:
            rate = theta ** (c / (40.0 * log_dt))
        except OverflowError:
            rate = math.inf
    for name, passed in hypotheses.items():
        if not passed:
            raise HypothesisViolatedError(
                f"hypothesis {name!r} violated for variant {variant_kind!r}"
            )
    if variant_kind != "second-eig":
        delta_high = (g.n - count_below(spectrum, x)) / g.n
        if not _hyp_leq(delta_high, tail_cap):
            raise HypothesisViolatedError(
                f"hypothesis 'tail_mass' undecided for variant {variant_kind!r}: "
                f"delta_top is {delta_top!r} read low and {delta_high!r} read high, "
                f"against a cap of {tail_cap!r}"
            )

    lhs = max(0, at_most - count_below(spectrum, (1.0 - theta) * x)) / g.n
    selection = select_r_s(theta, dt)
    implied = lhs / rate if rate not in (0.0, math.inf) else 0.0
    return BoundReport(
        kind=f"thm-{variant_kind}",
        lhs=lhs,
        rhs=rate,
        ok=True,
        terms={},
        params={
            "x": x,
            "theta": theta,
            "n": g.n,
            "delta_tilde": dt,
            "c": c,
            "delta_top": delta_top,
            "schedule_s": selection.s,
            "schedule_r": selection.r,
            "schedule_ok": selection.ok,
            "schedule_reason": selection.reason,
        },
        hypotheses=hypotheses,
        rate=rate,
        implied_constant=implied,
    )


# -- interlacing --------------------------------------------------------------


@dataclass(frozen=True)
class InterlacingReport:
    mode: str
    u_size: int
    halfline_dev: int
    halfline_bound: int
    interval_dev: int
    interval_bound: int
    grid_size: int
    ok: bool


def interlacing_check(
    g: WeightedGraph, u: VertexSet, mode: str = "delete"
) -> InterlacingReport:
    """Compare eigenvalue counts of G and of G with U removed.

    ``mode="delete"`` removes the vertices; ``mode="zero-rows-cols"`` keeps
    them as isolated vertices.  Counts m(-inf, x] may differ by at most |U|
    at every grid point, and interval counts m[x, y] by at most 2|U|.  The
    grid takes midpoints between consecutive points of the merged spectra,
    plus one point beyond each extreme, where counting is exact.
    """
    spec_g = eigenvalues(g)
    if mode == "delete":
        h, _ = delete_vertices(g, u.ids)
    elif mode == "zero-rows-cols":
        # every edge that touches U goes
        arrays = _intra_class(g, np.where(u.mask(), -1, 0))
        h = WeightedGraph(g.n, *arrays, g.w_min, g.w_max, g.delta)
    else:
        raise GraphError(f"unknown interlacing mode {mode!r}")
    spec_h = eigenvalues(h)
    merged = np.unique(np.concatenate([spec_g.values, spec_h.values]))
    # collapse values that agree up to solver error: an eigenvalue shared
    # by G and H analytically comes back as two floats 1e-15 apart, and a
    # midpoint between those would count one but not the other
    if len(merged) > 1:
        gaps = np.diff(merged)
        merged = merged[np.concatenate([[True], gaps > TOL_EIG])]
    if len(merged) == 0:
        grid = np.array([0.0])
    elif len(merged) == 1:
        grid = np.array([merged[0] - 1.0, merged[0] + 1.0])
    else:
        mids = (merged[:-1] + merged[1:]) / 2.0
        grid = np.concatenate([[merged[0] - 1.0], mids, [merged[-1] + 1.0]])

    le_g = np.searchsorted(spec_g.values, grid, side="right")
    le_h = np.searchsorted(spec_h.values, grid, side="right")
    lt_g = np.searchsorted(spec_g.values, grid, side="left")
    lt_h = np.searchsorted(spec_h.values, grid, side="left")
    d_le = le_g - le_h
    d_lt = lt_g - lt_h
    halfline_dev = int(np.abs(d_le).max())

    # interval count m[x, y] = (# <= y) - (# < x); maximize |D_le[j] - D_lt[i]|
    # over i <= j using prefix extrema of D_lt
    run_min = np.minimum.accumulate(d_lt)
    run_max = np.maximum.accumulate(d_lt)
    interval_dev = int(
        max(
            (d_le - run_min).max(initial=0),
            (run_max - d_le).max(initial=0),
        )
    )
    size = len(u)
    return InterlacingReport(
        mode=mode,
        u_size=size,
        halfline_dev=halfline_dev,
        halfline_bound=size,
        interval_dev=interval_dev,
        interval_bound=2 * size,
        grid_size=len(grid),
        ok=halfline_dev <= size and interval_dev <= 2 * size,
    )

