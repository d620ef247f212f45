"""Return probabilities, the d-regular-tree reference, and decay fits.

The bridge between walk decay and spectral mass near the top: with
rho = 2 sqrt(d-1),

    mu[(1-theta) rho, rho] * ((1-theta) rho)^{2n}  <=  d^{2n} p_{2n},

so polynomial corrections n^{-alpha} to the exponential decay of p_{2n}
translate into theta^alpha mass decay and back.  ``kesten_mass`` evaluates
the tree's spectral measure (Kesten 1959, McKay 1981) in closed form,
``tree_return_probs`` computes p_{2n} by an exact distance-chain DP, and
``decay_fit`` / ``return_decay_roundtrip`` recover and compare the exponents
from both routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import GraphError, WeightedGraph

__all__ = [
    "ReturnSeries",
    "NonRegularGraphError",
    "return_probs_finite",
    "adjacency_moments",
    "tree_return_probs",
    "tree_return_probs_exact",
    "KestenRef",
    "kesten_mass",
    "moment_mass_upper",
    "DecayFit",
    "decay_fit",
    "RoundtripReport",
    "return_decay_roundtrip",
]

RETURN_K_CAP = 500
TREE_N_CAP = 5000
TREE_EXACT_N_CAP = 50
ROUNDTRIP_TOL = 0.15
DEFAULT_THETA_GRID = tuple(2.0 ** -k for k in range(4, 15))


class NonRegularGraphError(GraphError):
    """Simple-random-walk normalization needs a regular unit-weight graph."""


@dataclass(frozen=True)
class ReturnSeries:
    """A sequence of return moments of a rooted graph.

    ``kind="srw-probability"`` stores p_k (simple random walk return
    probabilities, so M_k = d^k p_k); ``kind="adjacency-moment"`` stores the
    raw moments M_k = <1_o, A^k 1_o>.  ``values[k]`` is the k-step entry,
    starting at k = 0.
    """

    kind: str
    values: np.ndarray
    d: int | None
    source: str

    def __post_init__(self) -> None:
        if self.kind not in ("srw-probability", "adjacency-moment"):
            raise GraphError(f"unknown series kind {self.kind!r}")
        if self.kind == "srw-probability" and self.d is None:
            raise GraphError("srw-probability series needs the degree d")

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def _value_at_step(self, k: int) -> float:
        """Entry for walk length k, honoring the tree-dp even-step layout."""
        if self.source == "tree-dp":
            if k % 2:
                return 0.0
            k = k // 2
        return float(self.values[k])

    def p(self, k: int) -> float:
        if self.kind != "srw-probability":
            raise GraphError("probabilities only defined for srw-probability kind")
        return self._value_at_step(k)

    def log_moment(self, k: int) -> float:
        """log M_k, computed without overflowing d^k for large k."""
        v = self._value_at_step(k)
        if v <= 0.0:
            return -math.inf
        if self.kind == "adjacency-moment":
            return math.log(v)
        return math.log(v) + k * math.log(self.d)


def _assert_regular_unit(g: WeightedGraph) -> int:
    if g.n == 0:
        raise GraphError("empty graph has no walks")
    degs = set(np.diff(g.indptr).tolist())
    if len(degs) != 1 or degs == {0}:
        raise NonRegularGraphError(
            "graph is not regular; SRW normalization is undefined "
            "(use adjacency_moments instead)"
        )
    if g.w_min != 1.0 or g.w_max != 1.0:
        raise NonRegularGraphError("SRW probabilities need unit weights")
    return degs.pop()


def return_probs_finite(g: WeightedGraph, o: int, K: int) -> ReturnSeries:
    """p_0..p_K at root o of a finite regular unit-weight graph.

    Iterates the SRW transition matrix (K sparse matvecs against 1_o); the
    entries live in [0, 1] so no overflow is possible at any K <= cap.
    """
    if K < 0 or K > RETURN_K_CAP:
        raise GraphError(f"K must lie in 0..{RETURN_K_CAP}")
    if o < 0 or o >= g.n:
        raise GraphError("root out of range")
    d = _assert_regular_unit(g)
    return ReturnSeries("srw-probability", _root_walk(g.csr / d, o, K), d, "finite-graph")


def adjacency_moments(g: WeightedGraph, o: int, K: int) -> ReturnSeries:
    """Raw moments M_0..M_K = <1_o, A^k 1_o> of any weighted graph."""
    if K < 0 or K > RETURN_K_CAP:
        raise GraphError(f"K must lie in 0..{RETURN_K_CAP}")
    if o < 0 or o >= g.n:
        raise GraphError("root out of range")
    return ReturnSeries("adjacency-moment", _root_walk(g.csr, o, K), None, "finite-graph")


def _root_walk(step, o: int, K: int) -> np.ndarray:
    """<1_o, step^k 1_o> for k = 0..K, by K sparse matvecs."""
    x = np.zeros(step.shape[0])
    x[o] = 1.0
    out = np.empty(K + 1)
    out[0] = 1.0
    for k in range(1, K + 1):
        x = step @ x
        out[k] = x[o]
    return out


def tree_return_probs(d: int, N: int) -> ReturnSeries:
    """p_0, p_2, ..., p_{2N} at the root of the infinite d-regular tree.

    The walk's distance from the root is a birth-death chain (up with
    probability (d-1)/d, down with 1/d, reflect at 0); the DP over that
    chain is exact up to floating point.  Stored as a series over k = 2n,
    i.e. ``values[n]`` is p_{2n}.
    """
    if d < 3:
        raise GraphError("tree walk needs d >= 3")
    if N < 1 or N > TREE_N_CAP:
        raise GraphError(f"N must lie in 1..{TREE_N_CAP}")
    up = (d - 1.0) / d
    down = 1.0 / d
    steps = 2 * N
    q = np.zeros(steps + 1)
    q[0] = 1.0
    out = np.empty(N + 1)
    out[0] = 1.0
    for k in range(1, steps + 1):
        nxt = np.zeros(steps + 1)
        nxt[1] = q[0]
        nxt[2:] = q[1:-1] * up
        nxt[0] = q[1] * down
        nxt[1:-1] += q[2:] * down
        q = nxt
        if k % 2 == 0:
            out[k // 2] = q[0]
    return ReturnSeries("srw-probability", out, d, "tree-dp")


def tree_return_probs_exact(d: int, N: int) -> list[Fraction]:
    """The same DP in exact rational arithmetic (small N only); the oracle
    for the floating-point route."""
    if d < 3:
        raise GraphError("tree walk needs d >= 3")
    if N < 1 or N > TREE_EXACT_N_CAP:
        raise GraphError(f"exact DP capped at N = {TREE_EXACT_N_CAP}")
    up = Fraction(d - 1, d)
    down = Fraction(1, d)
    steps = 2 * N
    q = {0: Fraction(1)}
    out = [Fraction(1)]
    for k in range(1, steps + 1):
        nxt: dict[int, Fraction] = {}
        for j, mass in q.items():
            if j == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + mass
            else:
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + mass * up
                nxt[j - 1] = nxt.get(j - 1, Fraction(0)) + mass * down
        q = nxt
        if k % 2 == 0:
            out.append(q.get(0, Fraction(0)))
    return out


# -- Kesten reference ---------------------------------------------------------


class KestenRef:
    """Spectral measure of the d-regular tree at the root (Kesten-McKay).

    Density d sqrt(4(d-1) - x^2) / (2 pi (d^2 - x^2)) on |x| <= 2 sqrt(d-1).
    After x = rho cos(phi) it reads (d / 2pi) (1 - (d-2)^2 / (d^2 - x^2)) in
    phi, with antiderivative

        F(phi) = (d phi - (d-2) atan2(d sin phi, (d-2) cos phi)) / (2 pi),

    so ``mass`` is F(hi) - F(lo), with no quadrature.  Odd moments are 0 by
    symmetry.  An even moment M_k is a trapezoidal sum over k + 256
    equispaced phi nodes on [0, pi); the phi-integrand is periodic and
    analytic, so the sum converges exponentially in the node count.
    """

    def __init__(self, d: int) -> None:
        if d < 3:
            raise GraphError("Kesten reference needs d >= 3")
        self.d = d
        self.rho = 2.0 * math.sqrt(d - 1.0)

    def density(self, x: float) -> float:
        if abs(x) >= self.rho:
            return 0.0
        return (
            self.d
            * math.sqrt(4.0 * (self.d - 1.0) - x * x)
            / (2.0 * math.pi * (self.d * self.d - x * x))
        )

    def _phi_antiderivative(self, phi: float) -> float:
        d = self.d
        edge = math.atan2(d * math.sin(phi), (d - 2) * math.cos(phi))
        return (d * phi - (d - 2) * edge) / (2.0 * math.pi)

    def mass(self, a: float, b: float) -> float:
        """Measure of [a, b] (intersected with the support)."""
        a = max(a, -self.rho)
        b = min(b, self.rho)
        if a >= b:
            return 0.0
        lo = math.acos(max(-1.0, min(1.0, b / self.rho)))
        hi = math.acos(max(-1.0, min(1.0, a / self.rho)))
        return self._phi_antiderivative(hi) - self._phi_antiderivative(lo)

    def mass_top(self, theta: float) -> float:
        """Measure of the window [(1-theta) rho, rho]."""
        if theta <= 0.0:
            return 0.0
        return self.mass((1.0 - min(theta, 2.0)) * self.rho, self.rho)

    def moment(self, k: int) -> float:
        """k-th moment; equals d^k p_k on the tree."""
        if k < 0:
            raise GraphError("moment order must be nonnegative")
        if k % 2:
            return 0.0
        d, rho = self.d, self.rho
        nodes = k + 256
        phi = np.arange(nodes) * (math.pi / nodes)
        cx = rho * np.cos(phi)
        integrand = d * rho * rho * np.sin(phi) ** 2 / (d * d - cx * cx) * cx**k
        return float(integrand.sum()) / (2.0 * nodes)


def kesten_mass(d: int, theta: float) -> float:
    """Tree spectral mass of the top window [(1-theta) rho, rho]."""
    return KestenRef(d).mass_top(theta)


def moment_mass_upper(series: ReturnSeries, rho: float, theta: float) -> float:
    """Chebyshev-style upper bound on mass[(1-theta) rho, rho] from even moments.

    mass <= min_n M_{2n} / ((1-theta) rho)^{2n}, clamped to 1 (the n = 0 term).
    Computed in log space so large k cannot overflow.
    """
    if rho <= 0.0:
        raise GraphError("rho must be positive")
    if not 0.0 <= theta < 1.0:
        raise GraphError("theta must lie in [0, 1)")
    floor_log = math.log1p(-theta) + math.log(rho)
    k_top = 2 * series.k_max if series.source == "tree-dp" else series.k_max
    best = 0.0  # log of 1, the n = 0 bound
    for k in range(2, k_top + 1, 2):
        log_m = series.log_moment(k)
        if log_m > -math.inf:  # skips an M_k that underflowed to 0
            best = min(best, log_m - k * floor_log)
    return math.exp(best)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log p_{2n} = 2n log(rho/d) - alpha log n + const.

    ``note`` records (without asserting) when the fitted alpha is at least 1,
    i.e. the series is consistent with the folklore p_{2n} <~ rho^{2n} n^{-1}
    upper bound.
    """

    rho_hat: float
    alpha_hat: float
    const_hat: float
    max_residual: float
    window: tuple[int, int]
    note: str = ""


def decay_fit(series: ReturnSeries, window: tuple[int, int]) -> DecayFit:
    """Fit the polynomially corrected exponential decay over n in [lo, hi].

    The series must be an srw-probability series indexed by n (tree DP
    layout, ``values[n]`` = p_{2n}); the fit needs at least 5 points with
    p_{2n} > 0.
    """
    if series.kind != "srw-probability" or series.source != "tree-dp":
        raise GraphError("decay_fit expects a tree-dp probability series")
    lo, hi = window
    if lo < 1 or hi > series.k_max or hi - lo + 1 < 5:
        raise GraphError("fit window must contain at least 5 valid indices")
    n = np.arange(lo, hi + 1, dtype=np.float64)
    p = series.values[lo : hi + 1]
    if (p <= 0).any():
        raise GraphError("fit window contains nonpositive probabilities")
    y = np.log(p)
    design = np.column_stack([2.0 * n, -np.log(n), np.ones_like(n)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    alpha = float(coef[1])
    note = "consistent with p_{2n} <~ rho^{2n} n^{-1}" if alpha >= 1.0 else ""
    return DecayFit(
        rho_hat=float(series.d * math.exp(coef[0])),
        alpha_hat=alpha,
        const_hat=float(math.exp(coef[2])),
        max_residual=float(np.abs(fitted - y).max()),
        window=(lo, hi),
        note=note,
    )


@dataclass(frozen=True)
class RoundtripReport:
    """Mass-decay exponent vs walk-decay exponent for the same tree."""

    d: int
    alpha_mass: float
    alpha_walk: float
    difference: float
    tol: float
    ok: bool
    theta_grid: tuple[float, ...]
    window: tuple[int, int]


def return_decay_roundtrip(
    d: int,
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID,
    N: int = 1000,
    window: tuple[int, int] = (100, 1000),
) -> RoundtripReport:
    """Recover the mass exponent two ways and compare.

    alpha_mass is the log-log slope of kesten_mass(d, theta) over the theta
    grid; alpha_walk is the polynomial-correction exponent fitted to the
    tree return probabilities.  Agreement within ``ROUNDTRIP_TOL`` is the
    round-trip consistency check.
    """
    if len(set(theta_grid)) < 2 or not all(0 < t < 1 for t in theta_grid):
        raise GraphError(f"the theta grid needs two or more values in (0, 1), got {theta_grid}")
    ref = KestenRef(d)
    masses = [ref.mass_top(t) for t in theta_grid]
    lt = np.log(theta_grid)
    lm = np.log(masses)
    design = np.column_stack([lt, np.ones_like(lt)])
    coef, *_ = np.linalg.lstsq(design, lm, rcond=None)
    alpha_mass = float(coef[0])
    series = tree_return_probs(d, N)
    fit = decay_fit(series, window)
    diff = abs(alpha_mass - fit.alpha_hat)
    return RoundtripReport(
        d=d,
        alpha_mass=alpha_mass,
        alpha_walk=fit.alpha_hat,
        difference=diff,
        tol=ROUNDTRIP_TOL,
        ok=diff <= ROUNDTRIP_TOL,
        theta_grid=tuple(theta_grid),
        window=window,
    )

