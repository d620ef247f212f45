"""Spectra of weighted adjacency matrices and eigenvalue counts.

Eigenvalue counting is the measurement side of every inequality in the
package: ``count_at_most`` and ``count_below`` for window and tail masses,
``trace_power`` for walk sums, ``lambda1`` and ``lambda1_balls`` for the
spectral radii of graphs and balls (one Collatz-Wielandt iteration,
``_power_tops``, for balls and for the components of a graph above
``DENSE_TOP_MAX`` vertices).  Each count rounds in a named direction by
``TOL_EIG``: ``count_at_most`` reads high and ``count_below`` reads low, so
that exact multiplicities (cycle spectra, hypercubes) land on the intended
side.

Both counts take either a dense :class:`Spectrum` or an
:class:`InertiaCounts`, which counts by Sylvester's law of inertia on a
sparse factorization and finds the top eigenvalues by Lanczos; the checks
that need only a few counts use the latter.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .graphs import GraphError, WeightedGraph, _ball_rows, _induced_arrays

__all__ = [
    "SolverCapError",
    "SolverBudgetError",
    "Spectrum",
    "InertiaCounts",
    "eigenvalues",
    "lambda1",
    "lambda1_balls",
    "count_at_most",
    "count_below",
    "trace_power",
    "Check",
    "local_global_check",
]

TOL_EIG = 1e-8
DEFAULT_SOLVER_CAP = 4096
TRACE_POWER_MAX_K = 200
LOCAL_GLOBAL_SLACK_TOL = 1e-6
# ``local_global_check`` scales A by a power of two when n (delta w_max)^{2r},
# a bound on both its sides, reaches 2^1000 or 2^-1000, inside the float range
LOCAL_GLOBAL_LOG2_MAX = 1000

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

# Ball tops (``lambda1_balls``): Chebyshev-filtered power iteration on the
# balls side by side, at most this total order per block-diagonal matrix,
# each ball stopped once its Collatz-Wielandt bounds agree to this relative
# width, or solved densely after this many sparse products. The bounds are
# tested once per filter of BALL_FILTER_DEGREE products; the filter damps
# the interval from minus the largest row sum to b, from BALL_FILTER_CUT (the
# floor) to BALL_FILTER_TOP (the ceiling) of the way up to the Rayleigh quotient.
BALL_CHUNK_ORDER = 5000
BALL_CW_WIDTH = 1e-10
BALL_POWER_BUDGET = 2000
BALL_FILTER_DEGREE = 8
BALL_FILTER_CUT = 0.9
BALL_FILTER_TOP = 0.99

# ``lambda1`` of an irregular graph: a dense top-only solve up to this order,
# ``_power_tops`` on its components above it. On the 503 irregular G - W of a
# rad-drop pass (seed 0, one BLAS thread), median ms dense against components:
# 4.8/0.8 at n=350-387, 2.8/0.8 at 300-350, 2.1/1.1 at 250-300, 1.4/1.4 at
# 200-250, 0.8/3.7 at 150-200, 0.04/0.6 under 50. All 503 took 0.29 s dense,
# 0.18-0.20 s with the cut at 200 or 256 and 0.24 s at 320.
DENSE_TOP_MAX = 256

# Block elimination (``InertiaCounts``). The head of the shared elimination
# order is its longest prefix whose induced components have at most
# HEAD_BLOCK vertices; the tail is the rest. When the tail has TAIL_MIN to
# DEFAULT_SOLVER_CAP vertices and the factor L provably fills at least
# TAIL_FILL of its lower triangle in the tail's columns (a symbolic lower
# bound, ``_schur_columns``), every shift factors the head blocks densely
# and the tail's Schur complement with LAPACK's blocked Bunch-Kaufman
# (``InertiaCounts._block_pivots``). Per shift, on random-regular graphs
# (one BLAS thread, medians of 15): d=4 n=4096, tail 1452, 0.09 s against
# SuperLU's 0.27 s; n=2048, tail 724, 0.040 against 0.064 s; tails of
# 479-534 (d=3..6) took as long as SuperLU. Torus tails of 1010-1150
# (60x60, 64x64) are 13-14% filled, and SuperLU took 0.02 s there against
# 0.06 s for the dense route; expander tails are 80-95% filled. The bound
# reads 1.0 on the last TAIL_MIN columns of rr4 n=2048..8192 and hypercube
# d=12, 0.13-0.15 on those tori (L: 0.24-0.34) and under 0.01 on cycles.
HEAD_BLOCK = 48
TAIL_MIN = 600
TAIL_FILL = 0.5


class SolverCapError(GraphError):
    """Graph exceeds the dense-eigensolver size cap."""


class SolverBudgetError(GraphError):
    """An eigensolver ran out of its restart budget or did not converge."""


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a weighted adjacency matrix, ascending."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    def below(self, sigma: float, inclusive: bool = False) -> int:
        """Number of computed eigenvalues < sigma (<= sigma when
        ``inclusive``). Each computed value is off by rounding, so at or
        near an exact eigenvalue the two counts can be one off either way:
        on cycle n = 12 the eigenvalue 2 can be computed just above 2. A
        NaN sigma raises :class:`GraphError`.
        """
        if math.isnan(sigma):
            raise GraphError("cannot count eigenvalues below NaN")
        side = "right" if inclusive else "left"
        return int(np.searchsorted(self.values, sigma, side=side))

    def top(self, k: int) -> float:
        """The k-th largest eigenvalue."""
        if not 1 <= k <= self.n:
            raise GraphError(f"no eigenvalue number {k} among {self.n}")
        return float(self.values[-k])


def eigenvalues(g: WeightedGraph, cap: int = DEFAULT_SOLVER_CAP) -> Spectrum:
    """Full spectrum via a dense symmetric eigensolver, without eigenvectors.

    Refuses graphs with ``g.n > cap`` instead of silently grinding.
    """
    if g.n > cap:
        raise SolverCapError(f"n={g.n} exceeds solver cap {cap}")
    return Spectrum(scipy.linalg.eigvalsh(g.dense()))


def _lanczos_top(a: sp.spmatrix, k: int, sigma: float | None = None) -> np.ndarray:
    """The k largest eigenvalues of the sparse symmetric ``a``, descending.

    The start vector, and any vector ARPACK draws when its Krylov space
    closes, come from a fixed generator, so that a run repeats to the last
    bit in any process or thread. The start vector is not the ones vector,
    which is the Perron vector of a regular graph and would end the
    iteration at once. A shift ``sigma`` selects shift-invert mode. Raises
    :class:`SolverBudgetError` after ``LANCZOS_MAXITER`` restarts.
    """
    gen = np.random.default_rng(0)
    try:
        vals = scipy.sparse.linalg.eigsh(
            a, k=k, sigma=sigma, which="LA" if sigma is None else "LM",
            v0=gen.standard_normal(a.shape[0]), rng=gen,
            maxiter=LANCZOS_MAXITER, return_eigenvectors=False,
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

    By Courant-Fischer, lambda_2 is at least the second largest Ritz value
    mu_2 of ``a`` on any subspace; here the span of 1, f, f^2 and f^3, with
    f the hop distance from the vertex farthest from vertex 0 (a double
    sweep; -1 off its component), scaled to at most 1. f is not constant
    when n >= 2. The cubic matters on paths, where lambda_2's eigenvector is
    odd about the middle and vanishes at both ends: in the span of 1, f and
    f^2 the only odd vector is linear, and B - mu_2 stays at 6/n against a
    true gap of about 3 pi^2 / n^2.
    """
    n = a.shape[0]
    far = int(sp.csgraph.breadth_first_order(a, 0, return_predecessors=False)[-1])
    hops = sp.csgraph.shortest_path(a, method="D", unweighted=True, indices=far)
    f = np.where(np.isfinite(hops), hops, -1.0)
    f /= max(f.max(), 1.0)
    basis = np.linalg.qr(np.stack([np.ones(n), f, f * f, f * f * f], axis=1))[0]
    ritz = np.linalg.eigvalsh(basis.T @ (a @ basis))
    return bound - float(ritz[-2])


def _row_sums(g: WeightedGraph) -> np.ndarray:
    # not add.reduceat over indptr, which misreads empty rows
    return np.bincount(g.rows(), weights=g.weights, minlength=g.n)


def lambda1(g: WeightedGraph) -> float:
    """Top eigenvalue of the adjacency matrix.

    When every row sum equals c, lambda1 is c exactly (the ones vector is a
    positive eigenvector), so no solve runs; this covers the graph with no
    edges (lambda1 = 0). Otherwise, by the order n: a dense top-only solve
    (``_dense_top``) up to ``DENSE_TOP_MAX``; up to ``DEFAULT_SOLVER_CAP``,
    the largest ball-top value (``_power_tops``) of its components, a lower
    bound up to rounding; beyond, ``InertiaCounts(g).top(1)``, certified to
    within ``TOL_EIG`` or raising :class:`SolverCapError`. Errors on the
    empty graph. The component route runs only the components whose largest
    row sum reaches the largest mean row sum (a Rayleigh quotient, at most
    its component's lambda1): no other can hold the top. The components are
    strong components, and each runs alone (see ``graphs.is_connected``).
    """
    if g.n == 0:
        raise GraphError("lambda1 of the empty graph is undefined")
    sums = _row_sums(g)
    if np.ptp(sums) == 0:
        return float(sums[0])
    if g.n <= DENSE_TOP_MAX:
        return _dense_top(g.dense())
    if g.n <= DEFAULT_SOLVER_CAP:
        labels = sp.csgraph.connected_components(g.csr, directed=True, connection="strong")[1]
        ids, sizes = np.argsort(labels, kind="stable"), np.bincount(labels)
        starts = np.cumsum(sizes) - sizes
        means = np.add.reduceat(sums[ids], starts) / sizes
        # a rounded mean can exceed the largest row sum: keep its component
        keep = np.maximum(np.maximum.reduceat(sums[ids], starts), means) >= means.max()
        return float(_power_tops(g, ids[keep.repeat(sizes)], sizes[keep]).max())
    return InertiaCounts(g).top(1)


def _dense_top(a: np.ndarray) -> float:
    """Top eigenvalue of the symmetric matrix ``a``, which it overwrites."""
    # LAPACK finds the n-th eigenvalue alone; a.T is a in Fortran order, not a copy
    n = len(a)
    w, *_, info = scipy.linalg.lapack.dsyevr(a.T, compute_v=0, range="I", il=n, iu=n, overwrite_a=1)
    if info != 0:
        raise SolverBudgetError(f"LAPACK dsyevr failed (info {info}) on an order-{n} matrix")
    return float(w[0])


@dataclass(frozen=True)
class _HeadTail:
    """A symmetric order of A that puts small components first.

    ``order[:h]`` are the head blocks, components of the head's induced
    subgraph laid out contiguously and grouped by order; ``order[h:]`` is
    the tail. Each group is (its block order s, the blocks' eigenvalues
    (blocks, s) and eigenvectors (blocks, s, s), computed once per graph,
    each block's largest absolute row sum, and each block's sum of squared
    weights into the tail). ``indptr`` and ``indices`` are the CSR pattern
    of the block-diagonal head. The head of ``_whole`` is empty.
    """

    order: np.ndarray
    h: int
    groups: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    indptr: np.ndarray
    indices: np.ndarray
    head_tail: sp.csr_matrix  # A_FT, h x m
    tail_head: sp.csr_matrix  # A_TF, m x h
    tail: sp.csr_matrix  # A_TT, m x m


def _whole(a: sp.csr_matrix) -> _HeadTail:
    """The split of A in its own order with an empty head: all of A is the tail."""
    n, none = a.shape[0], np.zeros(0, dtype=np.int64)
    return _HeadTail(np.arange(n), 0, (), np.zeros(1, dtype=np.int64), none,
                     sp.csr_matrix((0, n)), sp.csr_matrix((n, 0)), a)


def _mmd_order(a: sp.csr_matrix, bound: float) -> np.ndarray:
    """``splu``'s MMD order of the symmetric ``a`` (row sums at most
    ``bound``), from ``spilu``, which runs the same ordering step on the
    pattern alone and, with a drop tolerance of 1, next to no numeric work.
    A + (B + 1) I is strictly diagonally dominant, so no pivot vanishes, as
    one would in A - sigma I at an eigenvalue sigma.
    """
    dominant = (a + (bound + 1.0) * sp.identity(a.shape[0], format="csr")).tocsc()
    ilu = scipy.sparse.linalg.spilu(
        dominant, drop_tol=1.0, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )
    return np.argsort(ilu.perm_c)


def _schur_columns(permuted: sp.csr_matrix, p: int, width: int) -> np.ndarray:
    """Lower bounds on the entries in columns p, ..., p + width - 1 of the
    factor L of the symmetric ``permuted`` in its own order, exact in
    column p.

    Eliminating the first p vertices leaves a Schur complement whose entry
    (u, v) is structurally nonzero when u ~ v or some component of the
    eliminated prefix touches both. Column j of L has the pattern of the
    complement left after eliminating every vertex before j, which holds
    this one's.
    """
    pattern = permuted[p:, p:p + width].astype(bool)
    if p:
        count, labels = sp.csgraph.connected_components(permuted[:p, :p], directed=False)
        members = sp.csr_matrix((np.ones(p, dtype=bool), (labels, np.arange(p))), shape=(count, p))
        touches = (members @ permuted[:p, p:].astype(bool)).tocsc()  # component x later vertex
        pattern = pattern + touches.T @ touches[:, :width]
    below = pattern.tocoo()
    return 1 + np.bincount(below.col[below.row > below.col], minlength=width)


def _head_tail(permuted: sp.csr_matrix, order: np.ndarray) -> _HeadTail | None:
    """The head/tail split of the elimination order ``order`` of A, given
    ``permuted`` = A[order][:, order]. None when n is at most ``TAIL_MIN``,
    when the tail has fewer than ``TAIL_MIN`` or more than
    ``DEFAULT_SOLVER_CAP`` vertices, or when the factor L cannot be shown to
    hold ``TAIL_FILL`` of a dense lower triangle in the tail's columns (a
    sparse tail, as on tori, where SuperLU is faster).

    Growing a prefix only merges its components, so the head's length is
    found by bisection, after testing the two lengths that bound it. The
    last ``TAIL_MIN`` columns are tested for fill first, so that cycles and
    tori of any size skip the bisection. For the whole tail,
    ``_schur_columns`` is summed over the blocks of the last ``TAIL_MIN``,
    1.5 ``TAIL_MIN``, 2 ``TAIL_MIN``, ... columns, each read only where the
    smaller block ends, until the sum shows the fill: the complement left
    by the head alone is sparse (14% on rr4 n=4096, whose L fills 90% of
    the tail).
    """
    n = permuted.shape[0]

    def dense(entries: int, k: int) -> bool:
        return entries >= TAIL_FILL * k * (k + 1) / 2

    # on paths and cycles (largest degree at most 2) elimination keeps every
    # degree at most 2, so each column of L holds at most 3 entries
    if n <= TAIL_MIN or (np.diff(permuted.indptr).max() <= 2 and not dense(3 * TAIL_MIN, TAIL_MIN)):
        return None
    entries = int(_schur_columns(permuted, n - TAIL_MIN, TAIL_MIN).sum())
    if not dense(entries, TAIL_MIN):
        return None

    def components(k: int) -> np.ndarray:
        return sp.csgraph.connected_components(permuted[:k, :k], directed=False)[1]

    def small(k: int) -> bool:
        return k == 0 or int(np.bincount(components(k)).max()) <= HEAD_BLOCK

    lo, bad = max(n - DEFAULT_SOLVER_CAP, 0), n - TAIL_MIN + 1
    if not small(lo) or small(bad):
        return None
    while bad - lo > 1:
        mid = (lo + bad) // 2
        if small(mid):
            lo = mid
        else:
            bad = mid
    m, k = n - lo, TAIL_MIN
    while k < m and not dense(entries, m):
        wider = min(k + TAIL_MIN // 2, m)
        entries += int(_schur_columns(permuted, n - wider, wider - k).sum())
        k = wider
    if not dense(entries, m):
        return None
    h = lo
    labels = components(h)
    sizes = np.bincount(labels)[labels]
    head = np.lexsort((labels, sizes))  # by block order, then block
    split = np.concatenate([head, np.arange(h, n)])
    order, permuted = order[split], permuted[split][:, split]
    labels, sizes = labels[head], sizes[head]
    new_block = np.r_[True, labels[1:] != labels[:-1]]
    starts = np.flatnonzero(new_block)
    block = np.cumsum(new_block) - 1  # of each head row
    local = np.arange(h) - starts[block]
    head_tail = permuted[:h, h:]
    cut = np.bincount(block, weights=np.asarray(head_tail.multiply(head_tail).sum(axis=1)).ravel())
    coo = permuted[:h, :h].tocoo()
    groups = []
    for s, first, rows in zip(*np.unique(sizes, return_index=True, return_counts=True)):
        b0, nb = block[first], rows // s
        stack = np.zeros((nb, s, s))
        mine = (coo.row >= first) & (coo.row < first + rows)
        r, c = coo.row[mine], coo.col[mine]
        stack[block[r] - b0, local[r], local[c]] = coo.data[mine]
        groups.append((int(s), *np.linalg.eigh(stack), np.abs(stack).sum(axis=2).max(axis=1),
                       cut[b0:b0 + nb]))
    indptr = np.r_[0, np.cumsum(sizes)]
    indices = np.repeat(starts[block], sizes) + np.arange(indptr[-1]) - np.repeat(indptr[:-1], sizes)
    return _HeadTail(order, h, tuple(groups), indptr, indices, head_tail.tocsr(),
                     permuted[h:, :h].tocsr(), permuted[h:, h:].tocsr())


class InertiaCounts:
    """Eigenvalue counts and top eigenvalues without a full spectrum.

    ``below(sigma)`` is the number of negative pivots of a factorization of
    A - sigma I that ``_certify`` certifies, which by Sylvester's law of
    inertia is the number of eigenvalues < sigma; it is computed once per
    shift, every shift in one fill-reducing (MMD) order shared by the graph
    (a symmetric permutation keeps the inertia). A graph of more than
    ``TAIL_MIN`` vertices and largest degree 3 or more gets that order
    before its first shift, from SuperLU's ordering step alone
    (``_mmd_order``), once. Other graphs cannot split (below): smaller ones
    have no tail of ``TAIL_MIN``, paths and cycles (largest degree at most
    2) no dense one. Their first shift's LU runs MMD itself, which costs
    less than a separate ordering step, and its order is shared from then
    on. A shift takes the count of the first route certified, in this order:

    1. when the order ends in a large dense tail, as on expanders, block
       elimination (``_block_pivots``): small head blocks by dense
       eigendecompositions made once per graph, the tail's Schur complement
       by LAPACK's Bunch-Kaufman, the inertias added (Haynsworth);
    2. the sparse LU (``_lu_pivots``) with diagonal pivoting in the shared order;
    3. up to ``DEFAULT_SOLVER_CAP`` vertices, a dense Bunch-Kaufman LDL^T of
       all of A - sigma I (``_block_pivots`` on the empty head of
       ``_whole``), whose pivoting steps past the zero and tiny pivots that
       end the LU (as at the eigenvalues of the small paths MMD eliminates
       first).

    ``top(1)`` of equal row sums c is c, as in :func:`lambda1`. Otherwise
    ``top(k)`` finds lambda_k by plain Lanczos and by shift-invert Lanczos
    above the row-sum bound B, and takes the first value it certifies to
    within ``TOL_EIG`` (see ``_certifies``). Shift-invert goes first when
    B - mu_2, an upper bound on the top gap (see ``_top_gap_bound``), is
    below ``SHIFT_INVERT_GAP`` B, where plain Lanczos would run out of
    restarts; either order ends in the same certificate.

    The sparse factorizations and Lanczos runs work at any n. The answer
    comes from the dense spectrum, computed once, when every route refuses
    a shift, as all do at an exact eigenvalue, where A - sigma I is
    singular; when both Lanczos runs exhaust their budget or fail the
    certificate; and when the graph is too small for Lanczos. The dense
    routes alone are capped: above ``DEFAULT_SOLVER_CAP`` vertices such a
    query raises :class:`SolverCapError` instead.
    """

    def __init__(self, g: WeightedGraph) -> None:
        self.g = g
        self.n = g.n
        # per shift: the count and the last inverse-iteration vector (None
        # beyond the row-sum bound, where nothing is factored), or None
        self._below: dict[float, tuple[int, np.ndarray | None] | None] = {}
        self._spectrum: Spectrum | None = None
        # the shared ordering q and A[q][:, q] (see ``_share``)
        self._order: np.ndarray | None = None
        self._permuted: sp.csr_matrix | None = None

    @cached_property
    def _largest_row_sum(self) -> float:
        """B, the largest row sum; with positive weights every |lambda| <= B."""
        return float(np.asarray(self.g.csr.sum(axis=1)).max(initial=0.0))

    def _dense(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = eigenvalues(self.g)
        return self._spectrum

    def _negative_pivots(self, sigma: float) -> tuple[int, np.ndarray] | None:
        """Negative pivots of A - sigma I and a unit vector near an
        eigenvector of the eigenvalue nearest sigma, from the first route
        (see :class:`InertiaCounts`) ``_certify`` certifies, or None."""
        if self._order is None and self.n > TAIL_MIN and int(np.diff(self.g.indptr).max()) > 2:
            self._share(_mmd_order(self.g.csr, self._largest_row_sum))
        routes = [lambda: self._lu_pivots(sigma)]
        if self._order is not None and self._head_tail is not None:
            routes.insert(0, lambda: self._block_pivots(sigma, self._head_tail))
        if self.n <= DEFAULT_SOLVER_CAP:
            routes.append(lambda: self._block_pivots(sigma, _whole(self.g.csr)))
        for route in routes:
            entry = self._certify(route())
            if entry is not None:
                return entry
        return None

    def _certify(self, factored: tuple | None) -> tuple[int, np.ndarray] | None:
        """The negative pivots of a route's factorization and its last
        inverse-iteration vector in A's order, or None when it was refused
        (None) or not certified.

        ``factored`` is (negative pivots, elimination order, solve, backward):
        the exact factors of A - sigma I + E in that order, with ``||E||`` at
        most ``backward``, and a solve with them. The pivot signs give the
        inertia of A - sigma I when ``||E||`` is below the distance from sigma
        to the spectrum, 1 / ``||(A - sigma I)^-1||``, which 4 steps of
        inverse iteration from one fixed vector of A estimate. Shifts within
        ~1e-8 of an interior or multiple eigenvalue fail this test, which
        keeps them from miscounting; shifts near lambda_2 pass it.
        """
        if factored is None:
            return None
        negative, order, solve, backward = factored
        v = np.random.default_rng(0).standard_normal(self.n)[order]
        v /= np.linalg.norm(v)
        for _ in range(4):
            w = solve(v)
            inverse_norm = np.linalg.norm(w)
            v = w / inverse_norm
        if not backward * inverse_norm < 1.0:  # also when the solve overflowed
            return None
        vector = np.empty(self.n)
        vector[order] = v
        return negative, vector

    def _lu_pivots(self, sigma: float) -> tuple | None:
        """A - sigma I factored for ``_certify`` by a sparse LU with diagonal
        pivoting, or None when a pivot is exactly zero or a row moved.

        Without stability pivoting, the computed factors are the exact
        factors of A - sigma I + E with ``|E|`` up to about eps ``|L||U|``.
        A shift factors in the shared order; without one, its LU runs MMD
        itself and shares that order, unless a pivot is exactly zero.
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
            self._share(np.argsort(lu.perm_c))
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        # |L| |U| 1, without abs(), which would sort the factors' indices first
        row_sums = np.ones(self.n)
        for factor in (lu.U, lu.L):
            row_sums = sp.csc_matrix(
                (np.abs(factor.data), factor.indices, factor.indptr), shape=factor.shape
            ) @ row_sums
        backward = np.finfo(np.float64).eps * np.max(row_sums)
        # splu's own MMD permutes inside the solve: the first LU's coordinates are A's
        order = np.arange(self.n) if first else self._order
        return int(np.count_nonzero(lu.U.diagonal() < 0)), order, lu.solve, backward

    def _share(self, order: np.ndarray) -> None:
        """Make ``order`` the elimination order of every later shift."""
        self._order = order
        self._permuted = self.g.csr[order][:, order]

    @cached_property
    def _head_tail(self) -> _HeadTail | None:
        """The head/tail split of the shared order (see ``_head_tail``)."""
        return _head_tail(self._permuted, self._order)

    def _block_pivots(self, sigma: float, split: _HeadTail) -> tuple | None:
        """A - sigma I factored for ``_certify`` by block elimination in
        ``split``, or None when it is refused (below). On the empty head of
        ``_whole`` this is a dense Bunch-Kaufman LDL^T of A - sigma I.

        In the split order, M = A - sigma I is [[H, A_FT], [A_TF, A_TT - sigma I]]
        with H block diagonal, and In(M) = In(H) + In(S) for the Schur
        complement S = A_TT - sigma I - A_TF H^-1 A_FT (Haynsworth). Each
        head block C's eigendecomposition V diag(w) V^T, made once per graph
        (``_head_tail``), gives the inertia and inverse of C - sigma I from
        w - sigma. That is exact for the block perturbed by at most
        delta = (s^2 + 1) eps (largest row sum of |C| + |sigma|): s^2 eps
        for the eigensolve, and one rounding of w - sigma. A block whose
        smallest |w - sigma| is not above its delta refuses the shift.
        S is formed in one dense array and factored in place by LAPACK's
        ``dsytrf`` (Bunch-Kaufman); D's 1 x 1 blocks count by sign, and each
        2 x 2 block counts one, but a 2 x 2 block that is not indefinite, or
        a failed ``dsytrf``, refuses the shift. The backward error adds:

        - the largest delta;
        - for each head block C, its squared weights into the tail times
          (4 s^2 + (2 r + 8) s) eps / (smallest |w - sigma|), r the longest
          row of A: the rounding of C's inverse (2 s^2 eps for the
          eigenvectors' loss of orthogonality, as in delta, and (s + 1) s eps
          for V diag(1 / (w - sigma)) V^T) and of the sparse products that
          form S (sums of at most 2 r + 8 terms, times ||C's inverse||_F, at
          most s^(1/2) / smallest);
        - 2 eps ||S||_F for the subtractions that form S;
        - eps sum_k ||L_k||_F^2 ||D_k||_F for the factorization, L_k the
          columns of L at D's k-th block, which bounds eps || |L| |D| |L^T| ||_2
          whatever row interchanges L's columns carry.
        """
        h = split.h
        m = self.n - h
        eps = np.finfo(np.float64).eps
        longest = int(np.diff(self.g.indptr).max())
        negative, head, formed, parts = 0, 0.0, 0.0, [np.zeros(0)]  # one array to concatenate, also for an empty head
        for s, w, v, row_sums, cut in split.groups:
            shifted = w - sigma
            delta = (s * s + 1) * eps * (row_sums + abs(sigma))
            smallest = np.abs(shifted).min(axis=1)
            if not np.all(smallest > delta):
                return None
            negative += int(np.count_nonzero(shifted < 0))
            parts.append(((v / shifted[:, None, :]) @ v.transpose(0, 2, 1)).ravel())
            head = max(head, float(delta.max()))
            formed += float(np.sum(cut / smallest)) * (4 * s * s + (2 * longest + 8) * s) * eps
        h_inv = sp.csr_matrix((np.concatenate(parts), split.indices, split.indptr), shape=(h, h))
        schur = (split.tail - split.tail_head @ (h_inv @ split.head_tail)).toarray()
        schur.flat[::m + 1] -= sigma
        formed += 2.0 * eps * float(np.linalg.norm(schur))
        lwork = int(scipy.linalg.lapack.dsytrf_lwork(m, lower=1)[0])
        # schur.T is schur in Fortran order, factored in place
        ldu, ipiv, info = scipy.linalg.lapack.dsytrf(schur.T, lower=1, lwork=lwork, overwrite_a=1)
        d = ldu.diagonal().copy()
        pairs = np.flatnonzero(ipiv < 0)[::2]  # first rows of D's 2 x 2 blocks
        off = ldu[pairs + 1, pairs]
        # Bunch-Kaufman takes a 2 x 2 pivot only when it is indefinite
        if info != 0 or not np.all(d[pairs] * d[pairs + 1] < off * off):
            return None
        single = np.ones(m, dtype=bool)
        single[pairs] = single[pairs + 1] = False
        negative += int(np.count_nonzero(d[single] < 0)) + len(pairs)
        # ||L_k||_F^2: 1 plus the squared multipliers below each diagonal
        # entry, read from rows of ldu.T (a C-order view) 64 at a time
        norms = np.ones(m)
        for r in range(0, m, 64):
            rows = ldu.T[r:r + 64, r:]
            norms[r:r + 64] += np.triu(rows * rows, 1).sum(axis=1)
        norms[pairs] += norms[pairs + 1] - off * off
        d_norm = np.abs(d)
        d_norm[pairs] = np.sqrt(d[pairs] ** 2 + 2.0 * off * off + d[pairs + 1] ** 2)
        factored = eps * float(norms[single] @ d_norm[single] + norms[pairs] @ d_norm[pairs])

        def solve(v: np.ndarray) -> np.ndarray:
            y = h_inv @ v[:h]
            x, _ = scipy.linalg.lapack.dsytrs(ldu, ipiv, v[h:] - split.tail_head @ y, lower=1)
            return np.concatenate([y - h_inv @ (split.head_tail @ x), x])

        return negative, split.order, solve, head + formed + factored

    def below(self, sigma: float, inclusive: bool = False) -> int:
        """Number of eigenvalues < sigma (<= sigma when ``inclusive``).

        Exact at a shift whose factorization is certified: sigma is then no
        eigenvalue, so the two counts agree. A shift strictly outside
        [-B, B], B the largest row sum, is no eigenvalue either and needs no
        factorization: the count is 0 below -B and n above B. A shift that
        every route refuses, such as an exact eigenvalue, gets the dense
        spectrum's count (:meth:`Spectrum.below`), which rounding can put one
        off either way. A NaN sigma raises :class:`GraphError`.
        """
        if math.isnan(sigma):
            raise GraphError("cannot count eigenvalues below NaN")
        if sigma not in self._below:
            # n eps covers the rounding of the row sums and of this product
            if abs(sigma) > self._largest_row_sum * (1.0 + self.n * np.finfo(np.float64).eps):
                self._below[sigma] = (0 if sigma < 0 else self.n), None
            else:
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
        vector = None if entry is None else entry[1]
        if above == k - 1 and vector is not None and self._encloses(vector, lo, hi):
            return True
        return self.below(lo) <= self.n - k

    def top(self, k: int) -> float:
        """The k-th largest eigenvalue, k <= 2."""
        if not 1 <= k <= min(2, self.n):
            raise GraphError(f"top({k}) needs 1 <= k <= min(2, n={self.n})")
        if k == 1 and np.ptp(sums := _row_sums(self.g)) == 0:
            return float(sums[0])
        if self.g.m == 0:
            return 0.0
        if self._spectrum is None and k < self.n - 1:
            a = self.g.csr
            bound = self._largest_row_sum
            shifts = [None, bound + 1e-6 * max(bound, 1.0)]
            if _top_gap_bound(a, bound) < SHIFT_INVERT_GAP * bound:
                shifts.reverse()
            for shift in shifts:
                try:
                    x = float(_lanczos_top(a, k, sigma=shift)[k - 1])
                except SolverBudgetError:
                    continue
                if self._certifies(x, k):
                    return x
        return self._dense().top(k)


def _power_tops(g: WeightedGraph, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The top eigenvalue, from below, of each subgraph of ``g`` induced on
    a run of ``ids``: balls, or the components of a graph. The runs have the
    given sizes, each is ascending and connected, and ``_induced_arrays``
    lays them out as the diagonal blocks of one matrix ``a``.

    Chebyshev-filtered power iteration from the ones vector. For strictly
    positive x, both the Collatz-Wielandt minimum min(Ax/x) and the Rayleigh
    quotient rho = x'Ax / x'x are <= lambda1 <= max(Ax/x). Each filter starts
    with a test of these bounds on y = Ax; a block's value is the larger
    lower bound at the first test where its x is strictly positive and its
    Collatz-Wielandt bounds agree to ``BALL_CW_WIDTH`` relative.

    The filter applies T_m((a - c) / e), the degree-m Chebyshev polynomial
    (m = ``BALL_FILTER_DEGREE``) on the block's interval
    [lo, b] = [c - e, c + e], by the three-term recurrence, whose first
    product is the test's y; then it scales each block to max |x| = 1.
    lo = -(the block's largest row sum) <= lambda_min, and b < lambda1. T_m
    is at most 1 in size on [lo, b] and grows fastest at lambda1, so the
    Perron component keeps its sign and gains on every other one. b sets only
    the speed: the test certifies any strictly positive x. Until a filter
    cuts the block's Collatz-Wielandt width by less than it cuts all
    eigenvalues under the floor, b is the floor lo + theta (max(rho, 0) - lo),
    theta = ``BALL_FILTER_CUT``; then :func:`_filter_end` moves it. b is
    never under the floor, so lambda1 - lo <= -2 lo and e >= -theta lo / 2,
    and between tests the iterates grow by at most T_m(4 / theta - 1)
    sqrt(order), about 2e6 sqrt(order): row sums up to about 1e290 cannot
    overflow. Each block's arithmetic is its own, so the values do not
    depend on which blocks share ``a``. A block still open after
    ``BALL_POWER_BUDGET`` products gets its dense top, ``_dense_top``, up to
    order ``DEFAULT_SOLVER_CAP`` and raises :class:`SolverBudgetError` above.
    """
    indptr, indices, weights = _induced_arrays(g, ids, np.arange(len(sizes)).repeat(sizes))
    a = sp.csr_matrix((weights, indices, indptr), shape=(len(ids), len(ids)))
    starts = np.cumsum(sizes) - sizes
    tops = np.empty(len(starts))
    todo = np.ones(len(starts), dtype=bool)
    x = np.ones(a.shape[0])
    y = a @ x
    # x = 1: y holds the row sums
    lo = -np.maximum.reduceat(y, starts)
    adapt, e, spread, width = np.zeros(len(starts), dtype=bool), *np.full((3, len(starts)), np.inf)
    floor_cut = 1.0 / np.cosh(BALL_FILTER_DEGREE * np.arccosh(2.0 / BALL_FILTER_CUT - 1.0))
    for _ in range(0, BALL_POWER_BUDGET, BALL_FILTER_DEGREE):
        # inf where x is not positive, so such a block cannot settle
        q = np.divide(y, x, out=np.full_like(y, np.inf), where=x > 0)
        q_min = np.minimum.reduceat(q, starts)
        q_max = np.maximum.reduceat(q, starts)
        rho = np.maximum(np.add.reduceat(x * y, starts) / np.add.reduceat(x * x, starts), 0.0)
        width, adapt = q_max - q_min, adapt | (q_max - q_min > floor_cut * width)
        done = todo & (q_max < np.inf) & (width <= BALL_CW_WIDTH * q_max)
        tops[done] = np.maximum(q_min, rho)[done]
        todo &= ~done
        if not todo.any():
            return tops
        # T_k of (a - c) / e, where [lo, b] = [c - e, c + e]; b at the floor
        last, e = e, 0.5 * BALL_FILTER_CUT * (rho - lo)
        if adapt.any():
            res = np.add.reduceat((y - rho.repeat(sizes) * x) ** 2, starts)
            res[~adapt | (q_max == np.inf)] = np.inf  # b at the floor, or x not positive
            e, spread = np.where(adapt, (_filter_end(lo, rho, last, spread, res) - lo) / 2, e), res
        e[e == 0] = 1.0  # an edgeless vertex, settled at the first test
        c = (lo + e).repeat(sizes)
        slope = (2.0 / e).repeat(sizes)
        prev, x = x, 0.5 * slope * (y - c * x)
        for _ in range(BALL_FILTER_DEGREE - 1):
            prev, x = x, slope * (a @ x - c * x) - prev
        x /= np.maximum.reduceat(np.abs(x), starts).repeat(sizes)
        y = a @ x
    for b in np.flatnonzero(todo).tolist():
        begin, end = starts[b], starts[b] + sizes[b]
        if sizes[b] > DEFAULT_SOLVER_CAP:
            raise SolverBudgetError(
                f"power iteration did not settle the top eigenvalue of an "
                f"order-{sizes[b]} block within {BALL_POWER_BUDGET} products"
            )
        tops[b] = _dense_top(a[begin:end, begin:end].toarray())
    return tops


def _filter_end(lo: np.ndarray, rho: np.ndarray, e: np.ndarray, old: np.ndarray,
                new: np.ndarray) -> np.ndarray:
    """Each block's next filter end: the last, b = lo + 2e, raised to the floor
    and to the lambda_2 at which the filter's cut of its squared residual,
    new / old, is (T_m(l2) / T_m(l1))^2 (l = (lambda - lo - e) / e, l1 at rho;
    Manteuffel 1977), or to b if a residual is not finite; then cut to the ceiling."""
    known = (old > 0) & (old + new < np.inf)
    shrink = np.sqrt(np.divide(new, old, out=np.zeros_like(new), where=known))
    grow = shrink * np.cosh(BALL_FILTER_DEGREE * np.arccosh(np.maximum((rho - lo) / e - 1.0, 1.0)))
    top = lo + e * (1.0 + np.cosh(np.arccosh(np.maximum(grow, 1.0)) / BALL_FILTER_DEGREE))
    return np.clip(top, lo + BALL_FILTER_CUT * (rho - lo), lo + BALL_FILTER_TOP * (rho - lo))


def lambda1_balls(g: WeightedGraph, r: int) -> np.ndarray:
    """lambda1 of every radius-``r`` ball, indexed by center.

    The balls are the rows of ``_ball_rows`` at every vertex, so memory is
    n x (ball size). A ball that is all of ``g`` gets ``lambda1(g)``. The
    other balls, in center order, are laid side by side in block-diagonal
    matrices of total order about ``BALL_CHUNK_ORDER`` and go through
    :func:`_power_tops` together, so each value is a lower bound on the
    ball's lambda1 up to rounding, certified by its Collatz-Wielandt test on
    a strictly positive iterate. Each ball's arithmetic is its own, so the
    values do not depend on ``BALL_CHUNK_ORDER``, and balls that coincide as
    vertex sets get equal values without being grouped.

    A ball repeated k times is iterated k times. The worst case is a large
    clique with a short tail at r = 1: on K_200 plus a 2-vertex path, 199
    balls equal the clique without being whole, and take 0.3-0.4 s against
    8-11 ms with equal balls grouped. No family or corpus graph has this
    shape.
    """
    if r < 0:
        raise GraphError("radius must be nonnegative")
    members = _ball_rows(g, range(g.n), r)
    sizes = np.diff(members.indptr)
    tops = np.empty(g.n)
    whole = sizes == g.n
    if whole.any():
        tops[whole] = lambda1(g)
    chunks: list[list[int]] = []
    for v in np.flatnonzero(~whole).tolist():
        if not chunks or order + sizes[v] > BALL_CHUNK_ORDER:
            chunks.append([])
            order = 0
        chunks[-1].append(v)
        order += sizes[v]
    for chunk in chunks:
        tops[chunk] = _power_tops(g, members[chunk].indices, sizes[chunk])
    return tops


def _kahan_sum(values: Iterable[float]) -> float:
    total = 0.0
    comp = 0.0
    for x in values:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def count_at_most(spectrum: Spectrum | InertiaCounts, x: float) -> int:
    """#{lambda <= x}, read high: eigenvalues within ``TOL_EIG`` above x count."""
    return spectrum.below(x + TOL_EIG, inclusive=True) if spectrum.n else 0


def count_below(spectrum: Spectrum | InertiaCounts, x: float) -> int:
    """#{lambda < x}, read low: eigenvalues within ``TOL_EIG`` below x do not count."""
    return spectrum.below(x - TOL_EIG) if spectrum.n else 0


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
class Check:
    """One inequality check, lhs <= rhs, and its verdict.

    Every check returns this record: ``net_removal_drop_check``,
    ``local_global_check``, ``interlacing_check``, ``finite_param_check``
    and ``thm_checker``. ``ok`` is each check's own verdict, lhs <= rhs up to
    that check's tolerance; for ``thm_checker``, whose rhs is a rate with an
    unknown constant, ``ok`` says that the hypotheses hold. ``terms`` holds
    the named parts of the two sides and ``params`` the instance; both are
    also read as attributes (``rep.lam1_h``). ``hypotheses``, ``rate`` and
    ``implied_constant`` are empty or None where a check has none.
    """

    kind: str
    lhs: float
    rhs: float
    ok: bool
    terms: dict[str, float] = field(default_factory=dict)
    params: dict[str, float | int | str | bool | None] = field(default_factory=dict)
    hypotheses: dict[str, bool] = field(default_factory=dict)
    rate: float | None = None
    implied_constant: float | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def tightness(self) -> float:
        """lhs / rhs: nan for 0 / 0 and inf / inf, +-inf for x / 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(self.lhs, self.rhs))

    def __getattr__(self, name: str):
        # only for names that are not fields; underscore names raise at once,
        # so that copy and pickle probing a bare instance do not recurse
        if not name.startswith("_"):
            for named in (self.__dict__.get("terms", {}), self.__dict__.get("params", {})):
                if name in named:
                    return named[name]
        raise AttributeError(f"Check has no term or parameter {name!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def local_global_check(g: WeightedGraph, r: int) -> Check:
    """Check trace(A^{2r}) <= sum_v lambda1(B(v, r))^{2r}.

    It passes when rhs - lhs >= -1e-6 * rhs (the inequality is exact
    mathematics; the tolerance only absorbs floating-point error). When
    n (delta w_max)^{2r}, which bounds both sides, reaches 2^1000 or 2^-1000,
    they are computed on A scaled by a power of two, exact and keeping the
    verdict, and scaled back: a side beyond the float range is inf or 0.
    """
    if r < 1:
        raise GraphError("local_global_check needs r >= 1")
    top, shift = g.delta * g.w_max, 0
    if top > 0 and abs(math.log2(g.n) + 2 * r * math.log2(top)) >= LOCAL_GLOBAL_LOG2_MAX:
        shift = math.frexp(top)[1]
        g = WeightedGraph(g.n, g.indptr, g.indices, np.ldexp(g.weights, -shift),
                          math.ldexp(g.w_min, -shift), math.ldexp(g.w_max, -shift), g.delta)
    lhs = trace_power(g, 2 * r)
    rhs = _kahan_sum(float(x) ** (2 * r) for x in lambda1_balls(g, r))
    ok = rhs - lhs >= -LOCAL_GLOBAL_SLACK_TOL * abs(rhs)
    with np.errstate(over="ignore"):  # inf beyond the float range
        lhs, rhs = np.ldexp([lhs, rhs], 2 * r * shift).tolist()
    return Check("local-global", lhs, rhs, ok, params={"n": g.n, "r": r})
