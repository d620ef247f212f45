"""Spectra of weighted adjacency matrices and interval mass queries.

Eigenvalue counting is the measurement side of every inequality in the
package: ``mu`` for normalized counting measure mass, ``trace_power`` for
walk sums, ``lambda1`` for spectral radii of graphs and balls.  Counts near
interval endpoints use the shared tolerance ``TOL_EIG`` so that exact
multiplicities (cycle spectra, hypercubes) land on the intended side.

``m_count`` and ``mu`` take either a dense :class:`Spectrum` or an
:class:`InertiaCounts`, which counts by Sylvester's law of inertia on a
sparse factorization and finds the top eigenvalues by Lanczos; the checks
that need only a few counts use the latter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .graphs import GraphError, WeightedGraph, _induced_arrays

__all__ = [
    "SolverCapError",
    "SolverBudgetError",
    "Spectrum",
    "InertiaCounts",
    "SpectralInterval",
    "eigenvalues",
    "lambda1",
    "lambda1_balls",
    "m_count",
    "mu",
    "trace_power",
    "LocalGlobalReport",
    "local_global_check",
    "interval_query_json",
]

TOL_EIG = 1e-8
DEFAULT_SOLVER_CAP = 4096
TRACE_POWER_MAX_K = 200
LOCAL_GLOBAL_SLACK_TOL = 1e-6

# Restart budget (ARPACK's maxiter) of every Lanczos solve. Random-regular
# d=4, n=4096 needs about 30 restarts for its top two eigenvalues; a top gap
# below about 4e-4 of lambda_1 exhausts it (cycle n >= 256, torus 256x16).
LANCZOS_MAXITER = 100

# ``InertiaCounts.top`` tries shift-invert Lanczos before plain Lanczos when
# its upper bound on the top gap, B - mu_2 (see ``_top_gap_bound``), is below
# this fraction of the row-sum bound B. Plain Lanczos converged at 4.8e-4
# (cycle n=224) and 1.4e-3 (torus 128x32) and ran out of restarts at 3.7e-4
# (cycle n=256, torus 256x16); expanders sit above 0.1.
SHIFT_INVERT_GAP = 1e-3

# Ball tops (``lambda1_balls``): power iteration on the distinct balls side
# by side, at most this total order per block-diagonal matrix, each ball
# stopped once its Collatz-Wielandt bounds agree to this relative width, or
# solved densely after this many steps. The bounds are tested on every
# BALL_TEST_EVERY-th step only; the steps between are one sparse product each.
BALL_CHUNK_ORDER = 5000
BALL_CW_WIDTH = 1e-10
BALL_POWER_BUDGET = 2000
BALL_TEST_EVERY = 4


class SolverCapError(GraphError):
    """Graph exceeds the dense-eigensolver size cap."""


class SolverBudgetError(GraphError):
    """An eigensolver ran out of its restart budget or did not converge."""


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a weighted adjacency matrix, ascending.

    ``residual_bound`` is the largest 2-norm residual ``|A v - lambda v|``
    across the computed eigenpairs, or NaN when the solver was asked to skip
    the residual computation.
    """

    values: np.ndarray
    residual_bound: float

    @property
    def n(self) -> int:
        return len(self.values)

    def below(self, sigma: float, inclusive: bool = False) -> int:
        """Number of eigenvalues < sigma (<= sigma when ``inclusive``)."""
        side = "right" if inclusive else "left"
        return int(np.searchsorted(self.values, sigma, side=side))

    def top(self, k: int) -> float:
        """The k-th largest eigenvalue."""
        if not 1 <= k <= self.n:
            raise GraphError(f"no eigenvalue number {k} among {self.n}")
        return float(self.values[-k])


@dataclass(frozen=True)
class SpectralInterval:
    """An interval with explicit open/closed endpoint flags.

    Infinite endpoints are allowed (use ``math.inf``); an infinite endpoint's
    flag is irrelevant.
    """

    a: float
    b: float
    closed_a: bool = True
    closed_b: bool = True

    @classmethod
    def closed(cls, a: float, b: float) -> "SpectralInterval":
        return cls(a, b, True, True)

    @classmethod
    def open(cls, a: float, b: float) -> "SpectralInterval":
        return cls(a, b, False, False)

    @classmethod
    def above(cls, x: float) -> "SpectralInterval":
        """The open half line (x, inf)."""
        return cls(x, math.inf, False, True)

    @classmethod
    def below(cls, x: float) -> "SpectralInterval":
        """The closed half line (-inf, x]."""
        return cls(-math.inf, x, True, True)

    @classmethod
    def top_window(cls, x: float, theta: float) -> "SpectralInterval":
        """The closed window [(1-theta) x, x]."""
        return cls((1.0 - theta) * x, x, True, True)

    def describe(self) -> str:
        lo = "[" if self.closed_a else "("
        hi = "]" if self.closed_b else ")"
        return f"{lo}{self.a:.17g}, {self.b:.17g}{hi}"


def eigenvalues(
    g: WeightedGraph,
    cap: int = DEFAULT_SOLVER_CAP,
    compute_residual: bool = True,
) -> Spectrum:
    """Full spectrum via a dense symmetric eigensolver.

    Parameters
    ----------
    g : the graph; must satisfy ``g.n <= cap``.
    cap : refuse larger graphs instead of silently grinding.
    compute_residual : verify the eigenpairs and report the worst residual;
        skipping it roughly halves the cost for large graphs.
    """
    if g.n > cap:
        raise SolverCapError(f"n={g.n} exceeds solver cap {cap}")
    if g.n == 0:
        return Spectrum(np.array([], dtype=np.float64), 0.0)
    a = g.dense()
    if compute_residual:
        vals, vecs = scipy.linalg.eigh(a)
        resid = a @ vecs - vecs * vals[np.newaxis, :]
        residual = float(np.sqrt((resid * resid).sum(axis=0)).max())
    else:
        vals = scipy.linalg.eigvalsh(a)
        residual = math.nan
    vals = np.sort(vals)
    return Spectrum(vals, residual)


def _lanczos_top(a: sp.spmatrix, k: int, **kwargs) -> np.ndarray:
    """The k largest eigenvalues of the sparse symmetric ``a``, descending.

    The start vector, and any vector ARPACK draws when its Krylov space
    closes, come from a fixed generator, so that a run repeats to the last
    bit in any process or thread. The start vector is not the ones vector,
    which is the Perron vector of a regular graph and would end the
    iteration at once. ``kwargs`` go to ``eigsh`` (a shift ``sigma`` for
    shift-invert mode, a ``tol``). Raises :class:`SolverBudgetError` after
    ``LANCZOS_MAXITER`` restarts.
    """
    gen = np.random.default_rng(0)
    try:
        vals = scipy.sparse.linalg.eigsh(
            a, k=k, which="LM" if "sigma" in kwargs else "LA",
            v0=gen.standard_normal(a.shape[0]), rng=gen,
            maxiter=LANCZOS_MAXITER, return_eigenvectors=False, **kwargs,
        )
    except scipy.sparse.linalg.ArpackNoConvergence:
        raise SolverBudgetError(
            f"Lanczos did not converge to the top {k} eigenvalue(s) of an "
            f"order-{a.shape[0]} matrix within {LANCZOS_MAXITER} restarts"
        ) from None
    return np.sort(vals)[::-1]


def _top_gap_bound(a: sp.csr_matrix, bound: float) -> float:
    """An upper bound on lambda_1 - lambda_2 of the symmetric ``a``, whose
    top eigenvalue is at most ``bound``.

    By Courant-Fischer, lambda_2 is at least the smaller Ritz value mu_2 of
    ``a`` on any 2-dimensional subspace; here the span of the ones vector
    and f, the hop distance from the vertex farthest from vertex 0 (a double
    sweep; -1 off its component). f is not constant when n >= 2.
    """
    n = a.shape[0]
    far = int(sp.csgraph.breadth_first_order(a, 0, return_predecessors=False)[-1])
    hops = sp.csgraph.shortest_path(a, method="D", unweighted=True, indices=far)
    f = np.where(np.isfinite(hops), hops, -1.0)
    f -= f.mean()
    basis = np.stack([np.full(n, 1.0 / math.sqrt(n)), f / np.linalg.norm(f)], axis=1)
    ritz = np.linalg.eigvalsh(basis.T @ (a @ basis))
    return bound - float(ritz[0])


def _constant_row_sum(g: WeightedGraph) -> float | None:
    """c when every row sum of A equals c, else None."""
    # not add.reduceat over indptr, which misreads empty rows
    sums = np.bincount(g.rows(), weights=g.weights, minlength=g.n)
    return float(sums[0]) if sums.min() == sums.max() else None


def lambda1(g: WeightedGraph) -> float:
    """Top eigenvalue of the adjacency matrix.

    When every row sum equals c, lambda1 is c exactly (the ones vector is a
    positive eigenvector), so no solve runs; this covers the graph with no
    edges (lambda1 = 0). Otherwise a dense top-only solve (``_dense_top``)
    up to ``DEFAULT_SOLVER_CAP`` vertices, and ``InertiaCounts(g).top(1)``
    beyond, which is certified to within ``TOL_EIG`` or raises
    :class:`SolverCapError`. Errors on the empty graph.
    """
    if g.n == 0:
        raise GraphError("lambda1 of the empty graph is undefined")
    c = _constant_row_sum(g)
    if c is not None:
        return c
    if g.n <= DEFAULT_SOLVER_CAP:
        return _dense_top(g.dense())
    return InertiaCounts(g).top(1)


def _dense_top(a: np.ndarray) -> float:
    """Top eigenvalue of the symmetric matrix ``a``, which it overwrites."""
    # LAPACK finds the n-th eigenvalue alone; a.T is a in Fortran order, not a copy
    n = len(a)
    w, *_, info = scipy.linalg.lapack.dsyevr(a.T, compute_v=0, range="I", il=n, iu=n, overwrite_a=1)
    if info != 0:
        raise SolverBudgetError(f"LAPACK dsyevr failed (info {info}) on an order-{n} matrix")
    return float(w[0])


class InertiaCounts:
    """Eigenvalue counts and top eigenvalues without a full spectrum.

    ``below(sigma)`` is the number of negative pivots of A - sigma I in a
    sparse LU with diagonal pivoting, which by Sylvester's law of inertia is
    the number of eigenvalues < sigma; it is computed once per shift, each
    shift after the first in the first one's fill-reducing (MMD) order (a
    symmetric permutation keeps the inertia).

    ``top(1)`` of equal row sums c is c, as in :func:`lambda1`. Otherwise
    ``top(k)`` finds lambda_k by plain Lanczos and by shift-invert Lanczos
    above the row-sum bound B, and takes the first value it certifies to
    within ``TOL_EIG`` (see ``_certifies``). Shift-invert goes first when
    B - mu_2, an upper bound on the top gap (see ``_top_gap_bound``), is
    below ``SHIFT_INVERT_GAP`` B, where plain Lanczos would run out of
    restarts; either order ends in the same certificate.

    The factorizations and Lanczos runs work at any n. The answer comes from
    the dense spectrum, computed once, when the factorization leaves the
    diagonal, meets a zero pivot or is not accurate enough to fix the
    inertia (see ``_negative_pivots``), when both Lanczos runs exhaust their
    budget or fail the certificate, and when the graph is too small for
    Lanczos. That dense solve alone is capped: above ``DEFAULT_SOLVER_CAP``
    vertices such a query raises :class:`SolverCapError` instead.
    """

    def __init__(self, g: WeightedGraph) -> None:
        self.g = g
        self.n = g.n
        # per shift: the count and the last inverse-iteration vector, or None
        self._below: dict[float, tuple[int, np.ndarray] | None] = {}
        self._spectrum: Spectrum | None = None
        # the shared ordering q and A[q][:, q], set by the first factorization
        self._order: np.ndarray | None = None
        self._permuted: sp.csr_matrix | None = None

    def _dense(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = eigenvalues(self.g, compute_residual=False)
        return self._spectrum

    def _negative_pivots(self, sigma: float) -> tuple[int, np.ndarray] | None:
        """Negative pivots of A - sigma I and a unit vector v, or None when
        the pivots do not certify its inertia.

        Without stability pivoting, the computed factors are the exact
        factors of A - sigma I + E with ``|E|`` up to about eps ``|L||U|``.
        Their pivot signs give the inertia of A - sigma I when ``||E||`` is
        below the distance from sigma to the spectrum, 1 / ``||(A - sigma I)^-1||``,
        which a few steps of inverse iteration estimate. Shifts within ~1e-8
        of an interior or multiple eigenvalue fail this test (and did
        miscount on hypercubes, cycles and tori); shifts near lambda_2 pass it.
        v is the last iterate, close to an eigenvector of the eigenvalue
        nearest sigma.
        """
        first = self._order is None
        a = self.g.csr if first else self._permuted
        shifted = (a - sigma * sp.identity(self.n, format="csr")).tocsc()
        try:
            lu = scipy.sparse.linalg.splu(
                shifted, permc_spec="MMD_AT_PLUS_A" if first else "NATURAL",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
        except RuntimeError:  # a pivot is exactly zero
            return None
        if first:
            self._order = np.argsort(lu.perm_c)
            self._permuted = self.g.csr[self._order][:, self._order]
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        # |L| |U| 1, without abs(), which would sort the factors' indices first
        row_sums = np.ones(self.n)
        for factor in (lu.U, lu.L):
            row_sums = sp.csc_matrix(
                (np.abs(factor.data), factor.indices, factor.indptr), shape=factor.shape
            ) @ row_sums
        backward = np.finfo(np.float64).eps * np.max(row_sums)
        # the start vector in the factored matrix's coordinates
        order = np.arange(self.n) if first else self._order
        v = np.random.default_rng(0).standard_normal(self.n)[order]
        v /= np.linalg.norm(v)
        for _ in range(4):
            w = lu.solve(v)
            inverse_norm = np.linalg.norm(w)
            v = w / inverse_norm
        if not backward * inverse_norm < 1.0:  # also when the solve overflowed
            return None
        vector = np.empty(self.n)
        vector[order] = v
        return int(np.count_nonzero(lu.U.diagonal() < 0)), vector

    def below(self, sigma: float, inclusive: bool = False) -> int:
        """Number of eigenvalues < sigma (<= sigma when ``inclusive``).

        A factorization without a zero pivot means sigma is no eigenvalue,
        so the two counts agree.
        """
        if sigma not in self._below:
            self._below[sigma] = self._negative_pivots(sigma)
        entry = self._below[sigma]
        if entry is None:
            return self._dense().below(sigma, inclusive)
        return entry[0]

    def _encloses(self, v: np.ndarray, lo: float, hi: float) -> bool:
        """Whether the residual of v puts an eigenvalue of A in [lo, hi).

        For symmetric A, any v != 0 and any rho, some eigenvalue lies within
        ``||Av - rho v|| / ||v||`` of rho. Rounding term: the float residual
        is off by at most gamma ``||(|A| + |rho|) |v|||`` and each norm by a
        factor 1 +- gamma, with gamma = j eps / (1 - j eps) and
        j = n + (longest row) + 8; the radius adds both, and the interval's
        ends are rounded outwards by one ulp.
        """
        a = self.g.csr
        av = a @ v
        rho = float(v @ av) / float(v @ v)
        resid = np.linalg.norm(av - rho * v)
        scale = np.linalg.norm(a @ np.abs(v) + abs(rho) * np.abs(v))  # weights are positive
        j = self.n + int(np.diff(a.indptr).max()) + 8
        eps = np.finfo(np.float64).eps
        gamma = j * eps / (1.0 - j * eps)
        radius = (resid + gamma * scale) * (1.0 + gamma) / ((1.0 - gamma) * np.linalg.norm(v))
        return lo <= np.nextafter(rho - radius, -np.inf) and np.nextafter(rho + radius, np.inf) < hi

    def _certifies(self, x: float, k: int) -> bool:
        """Whether lambda_k lies within ``TOL_EIG`` of x.

        The count at x + ``TOL_EIG`` must leave at most k - 1 eigenvalues
        above it. When it leaves exactly k - 1, an eigenvalue that the
        residual of its last inverse-iteration vector encloses in
        [x - ``TOL_EIG``, x + ``TOL_EIG``) makes k at or above x - ``TOL_EIG``;
        otherwise (as when lambda_1 is within ``TOL_EIG`` of lambda_2) the
        count at x - ``TOL_EIG`` must show them.
        """
        lo, hi = x - TOL_EIG, x + TOL_EIG
        above = self.n - self.below(hi, True)
        if above > k - 1:
            return False
        entry = self._below[hi]
        if above == k - 1 and entry is not None and self._encloses(entry[1], lo, hi):
            return True
        return self.below(lo) <= self.n - k

    def top(self, k: int) -> float:
        """The k-th largest eigenvalue, k <= 2."""
        if not 1 <= k <= min(2, self.n):
            raise GraphError(f"top({k}) needs 1 <= k <= min(2, n={self.n})")
        c = _constant_row_sum(self.g) if k == 1 else None
        if c is not None:
            return c
        if self.g.m == 0:
            return 0.0
        if self._spectrum is None and k < self.n - 1:
            a = self.g.csr
            bound = float(a.sum(axis=1).max())  # >= lambda_1; weights are positive
            shifts = [{}, {"sigma": bound + 1e-6 * max(bound, 1.0)}]
            if _top_gap_bound(a, bound) < SHIFT_INVERT_GAP * bound:
                shifts.reverse()
            for shift in shifts:
                try:
                    x = float(_lanczos_top(a, k, **shift)[k - 1])
                except SolverBudgetError:
                    continue
                if self._certifies(x, k):
                    return x
        return self._dense().top(k)


def _ball_members(g: WeightedGraph, r: int) -> sp.csr_matrix:
    """Row ``v`` holds the radius-``r`` ball at ``v``: the pattern of (I + A)^r."""
    step = sp.csr_matrix((np.ones(len(g.indices), dtype=bool), g.indices, g.indptr),
                         shape=(g.n, g.n))
    step = (step + sp.identity(g.n, dtype=bool, format="csr")).tocsr()
    members = sp.identity(g.n, dtype=bool, format="csr")
    for _ in range(r):
        grown = members @ step
        if grown.nnz == members.nnz:  # products only add entries: this pattern is final
            break
        members = grown
    members.sort_indices()
    return members


def _power_tops(a: sp.csr_matrix, starts: np.ndarray) -> np.ndarray:
    """The top eigenvalue of each diagonal block of ``a``, from below.

    ``a`` is symmetric, nonnegative and block diagonal with irreducible
    blocks starting at rows ``starts``. Power iteration on ``a + I`` from
    the ones vector. For positive x, both the Collatz-Wielandt minimum
    min(Ax/x) and the Rayleigh quotient x'Ax / x'x are <= lambda1 <=
    max(Ax/x). These bounds are tested on every ``BALL_TEST_EVERY``-th step
    (steps 0, 4, 8, ...), which also normalizes x per block; a block's
    value is the larger lower bound at the first test where its
    Collatz-Wielandt bounds agree to ``BALL_CW_WIDTH`` relative. Every
    other step is one sparse product with S(a + I), where S scales each
    block by a power of two at most 1 / (its largest row sum of a + I).
    That scaling is exact, so x keeps its direction; it keeps x at most 1
    for any positive weights, and a block's largest entry shrinks by at
    most a factor 2m per step (m the block's order), so the steps between
    tests cannot underflow it. Like every other operation here, it acts on
    each block alone, so the values do not depend on which blocks share
    ``a``. A block still open after ``BALL_POWER_BUDGET`` steps gets the
    dense top-only solve of ``lambda1`` (``_dense_top``) up to order
    ``DEFAULT_SOLVER_CAP`` and raises :class:`SolverBudgetError` above it.
    """
    sizes = np.diff(np.append(starts, a.shape[0]))
    step_matrix = a + sp.identity(a.shape[0], format="csr")
    # every row holds its diagonal entry, so reduceat reads no empty row
    row_sums = np.add.reduceat(step_matrix.data, step_matrix.indptr[:-1])
    scale = np.ldexp(1.0, -np.frexp(np.maximum.reduceat(row_sums, starts))[1])
    step_matrix.data *= scale.repeat(sizes).repeat(np.diff(step_matrix.indptr))
    tops = np.empty(len(starts))
    todo = np.ones(len(starts), dtype=bool)
    x = np.ones(a.shape[0])
    for step in range(BALL_POWER_BUDGET):
        if step % BALL_TEST_EVERY:
            x = step_matrix @ x
            continue
        y = a @ x
        q = y / x
        q_min = np.minimum.reduceat(q, starts)
        q_max = np.maximum.reduceat(q, starts)
        done = todo & (q_max - q_min <= BALL_CW_WIDTH * q_max)
        if done.any():
            rayleigh = np.add.reduceat(x * y, starts) / np.add.reduceat(x * x, starts)
            tops[done] = np.maximum(q_min, rayleigh)[done]
            todo &= ~done
            if not todo.any():
                return tops
        x += y
        x /= np.maximum.reduceat(x, starts).repeat(sizes)
    for b in np.flatnonzero(todo).tolist():
        lo, hi = starts[b], starts[b] + sizes[b]
        if hi - lo > DEFAULT_SOLVER_CAP:
            raise SolverBudgetError(
                f"power iteration did not settle the top eigenvalue of an "
                f"order-{hi - lo} ball within {BALL_POWER_BUDGET} steps"
            )
        tops[b] = _dense_top(a[lo:hi, lo:hi].toarray())
    return tops


def lambda1_balls(g: WeightedGraph, r: int) -> np.ndarray:
    """lambda1 of every radius-``r`` ball, indexed by center.

    Balls that coincide as vertex sets share one value, and a ball that is
    all of ``g`` gets ``lambda1(g)``. The other distinct balls are laid side
    by side in block-diagonal matrices of total order about
    ``BALL_CHUNK_ORDER`` and go through :func:`_power_tops` together, so
    each value is a lower bound on the ball's lambda1 up to rounding,
    certified by a Collatz-Wielandt test on every ``BALL_TEST_EVERY``-th
    power step. Each ball's arithmetic is its own, so the values do not
    depend on ``BALL_CHUNK_ORDER``.
    """
    if r < 0:
        raise GraphError("radius must be nonnegative")
    members = _ball_members(g, r)
    # one key per distinct vertex set: the bytes of its sorted ids
    raw, width = members.indices.tobytes(), members.indices.itemsize
    ptr = members.indptr.tolist()
    first: dict[bytes, int] = {}
    reps: list[int] = []
    which = np.empty(g.n, dtype=np.int64)
    for v in range(g.n):
        key = raw[width * ptr[v]:width * ptr[v + 1]]
        b = first.setdefault(key, len(reps))
        if b == len(reps):
            reps.append(v)
        which[v] = b
    sizes = np.diff(members.indptr)[reps]
    tops = np.empty(len(reps))
    whole = sizes == g.n
    if whole.any():
        tops[whole] = lambda1(g)
    chunks: list[list[int]] = []
    for b in np.flatnonzero(~whole).tolist():
        if not chunks or order + sizes[b] > BALL_CHUNK_ORDER:
            chunks.append([])
            order = 0
        chunks[-1].append(b)
        order += sizes[b]
    for chunk in chunks:
        part = members[[reps[b] for b in chunk]]
        block = np.arange(len(chunk)).repeat(np.diff(part.indptr))
        indptr, indices, weights = _induced_arrays(g, part.indices, block)
        a = sp.csr_matrix((weights, indices, indptr), shape=(len(block), len(block)))
        tops[chunk] = _power_tops(a, part.indptr[:-1])
    return tops[which]


def _kahan_sum(values: Iterable[float]) -> float:
    total = 0.0
    comp = 0.0
    for x in values:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def m_count(spectrum: Spectrum | InertiaCounts, interval: SpectralInterval) -> int:
    """Number of eigenvalues in the interval.

    Eigenvalues within ``TOL_EIG`` of a closed endpoint count as inside;
    within ``TOL_EIG`` of an open endpoint they count as outside.
    """
    if spectrum.n == 0:
        return 0
    if interval.a == -math.inf:
        lo = 0
    elif interval.closed_a:
        lo = spectrum.below(interval.a - TOL_EIG)
    else:
        lo = spectrum.below(interval.a + TOL_EIG, inclusive=True)
    if interval.b == math.inf:
        hi = spectrum.n
    elif interval.closed_b:
        hi = spectrum.below(interval.b + TOL_EIG, inclusive=True)
    else:
        hi = spectrum.below(interval.b - TOL_EIG)
    return max(0, hi - lo)


def mu(spectrum: Spectrum | InertiaCounts, interval: SpectralInterval) -> Fraction:
    """Normalized counting measure of the interval, as an exact rational."""
    if spectrum.n == 0:
        raise GraphError("mu of the empty spectrum is undefined")
    return Fraction(m_count(spectrum, interval), spectrum.n)


def trace_power(g: WeightedGraph, k: int) -> float:
    """trace(A^k) for even k, as ||A^{k/2}||_F^2 from k/2 - 1 sparse products.

    A is symmetric, so trace(A^k) = sum over u, v of (A^{k/2})_uv^2, and the
    work and memory are those of the sparse A^{k/2}, never a dense n x n
    array. Each vertex's column sum of squares is a plain sum; those sums
    are added with compensated summation in ascending vertex order. On
    unit weights every term is an integer, so the value is exact while
    trace(A^k) < 2^53. The eigenvalue route sum(lambda_i^k) is the
    cross-check (the spectrum-moment oracle in ``tests/test_spectral.py``);
    the two agree to relative 1e-8 on the corpora this package verifies.
    """
    if k % 2 != 0 or k < 0:
        raise GraphError("trace_power requires even k >= 0")
    if k > TRACE_POWER_MAX_K:
        raise GraphError(f"trace_power capped at k = {TRACE_POWER_MAX_K}")
    if k == 0:
        return float(g.n)
    half = g.csr
    for _ in range(k // 2 - 1):
        half = half @ g.csr
    columns = np.bincount(half.indices, weights=half.data * half.data, minlength=g.n)
    return _kahan_sum(columns.tolist())


@dataclass(frozen=True)
class LocalGlobalReport:
    r: int
    lhs: float
    rhs: float
    slack: float
    ok: bool


def local_global_check(g: WeightedGraph, r: int) -> LocalGlobalReport:
    """Check trace(A^{2r}) <= sum_v lambda1(B(v, r))^{2r}.

    ``slack = rhs - lhs`` must be >= -1e-6 * rhs (the inequality is exact
    mathematics; the tolerance only absorbs floating-point error).
    """
    if r < 1:
        raise GraphError("local_global_check needs r >= 1")
    lhs = trace_power(g, 2 * r)
    lams = lambda1_balls(g, r)
    rhs = _kahan_sum(float(x) ** (2 * r) for x in lams)
    slack = rhs - lhs
    ok = slack >= -LOCAL_GLOBAL_SLACK_TOL * abs(rhs)
    return LocalGlobalReport(r, lhs, rhs, slack, ok)


# -- exports -----------------------------------------------------------------


def interval_query_json(spectrum: Spectrum, interval: SpectralInterval) -> dict:
    """The flat record {a, b, closed_a, closed_b, count, mu}."""
    count = m_count(spectrum, interval)
    return {
        "a": interval.a,
        "b": interval.b,
        "closed_a": interval.closed_a,
        "closed_b": interval.closed_b,
        "count": count,
        "mu": count / spectrum.n if spectrum.n else None,
    }
