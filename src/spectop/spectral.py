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
from functools import cached_property
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

# Ball tops (``lambda1_balls``): Chebyshev-filtered power iteration on the
# distinct balls side by side, at most this total order per block-diagonal
# matrix, each ball stopped once its Collatz-Wielandt bounds agree to this
# relative width, or solved densely after this many sparse products. The
# bounds are tested once per filter of BALL_FILTER_DEGREE products; the
# filter damps the interval from minus the largest row sum to
# BALL_FILTER_CUT of the way up to the Rayleigh quotient.
BALL_CHUNK_ORDER = 5000
BALL_CW_WIDTH = 1e-10
BALL_POWER_BUDGET = 2000
BALL_FILTER_DEGREE = 8
BALL_FILTER_CUT = 0.9

# Block elimination of later shifts (``InertiaCounts``). The head of the
# shared elimination order is its longest prefix whose induced components
# have at most HEAD_BLOCK vertices; the tail is the rest. When the tail has
# TAIL_MIN to DEFAULT_SOLVER_CAP vertices and the first factorization filled
# at least TAIL_FILL of its lower triangle, a later shift factors the head
# blocks densely and the tail's Schur complement with LAPACK's blocked
# Bunch-Kaufman (``InertiaCounts._block_pivots``). Per shift, on
# random-regular graphs (one BLAS thread, medians of 15): d=4 n=4096, tail
# 1452, 0.09 s against SuperLU's 0.27 s; n=2048, tail 724, 0.040 against
# 0.064 s; tails of 479-534 (d=3..6) took as long as SuperLU. Torus tails
# of 1010-1150 (60x60, 64x64) are 13-14% filled, and SuperLU took 0.02 s
# there against 0.06 s for the dense route; expander tails are 80-95% filled.
HEAD_BLOCK = 48
TAIL_MIN = 600
TAIL_FILL = 0.5


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
        """Number of computed eigenvalues < sigma (<= sigma when
        ``inclusive``). Each computed value is off by rounding, so at or
        near an exact eigenvalue the two counts can be one off either way:
        on cycle n = 12 the eigenvalue 2 can be computed just above 2.
        """
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


@dataclass(frozen=True)
class _HeadTail:
    """A symmetric order of A that puts small components first.

    ``order[:h]`` are the head blocks, components of the head's induced
    subgraph laid out contiguously and grouped by order; ``order[h:]`` is
    the tail. Each group is (its block order s, the blocks' dense matrices
    (blocks, s, s), each block's largest absolute row sum, and each block's
    sum of squared weights into the tail). ``indptr`` and ``indices`` are
    the CSR pattern of the block-diagonal head.
    """

    order: np.ndarray
    h: int
    groups: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    indptr: np.ndarray
    indices: np.ndarray
    head_tail: sp.csr_matrix  # A_FT, h x m
    tail_head: sp.csr_matrix  # A_TF, m x h
    tail: sp.csr_matrix  # A_TT, m x m


def _head_tail(permuted: sp.csr_matrix, order: np.ndarray, fill: np.ndarray) -> _HeadTail | None:
    """The head/tail split of the elimination order ``order`` of A, given
    ``permuted`` = A[order][:, order] and the entries ``fill[k]`` in column
    k of its factor L. None when n is at most ``TAIL_MIN``, when the tail
    has fewer than ``TAIL_MIN`` or more than ``DEFAULT_SOLVER_CAP``
    vertices, or when L holds less than ``TAIL_FILL`` of a dense lower
    triangle in the tail's columns (a sparse tail, as on tori, where
    SuperLU is faster).

    Growing a prefix only merges its components, so the head's length is
    found by bisection, after testing the two lengths that bound it. The
    last ``TAIL_MIN`` columns are tested for fill first, so that cycles and
    tori of any size skip the bisection.
    """
    n = permuted.shape[0]

    def dense(k: int) -> bool:
        return int(fill[n - k:].sum()) >= TAIL_FILL * k * (k + 1) / 2

    if n <= TAIL_MIN or not dense(TAIL_MIN):
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
    if not dense(n - lo):
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
        groups.append((int(s), stack, np.abs(stack).sum(axis=2).max(axis=1), cut[b0:b0 + nb]))
    indptr = np.r_[0, np.cumsum(sizes)]
    indices = np.repeat(starts[block], sizes) + np.arange(indptr[-1]) - np.repeat(indptr[:-1], sizes)
    return _HeadTail(order, h, tuple(groups), indptr, indices, head_tail.tocsr(),
                     permuted[h:, :h].tocsr(), permuted[h:, h:].tocsr())


class InertiaCounts:
    """Eigenvalue counts and top eigenvalues without a full spectrum.

    ``below(sigma)`` is the number of negative pivots of A - sigma I in a
    sparse LU with diagonal pivoting, which by Sylvester's law of inertia is
    the number of eigenvalues < sigma; it is computed once per shift, each
    shift after the first in the first one's fill-reducing (MMD) order (a
    symmetric permutation keeps the inertia). When that order ends in a
    large dense tail, as on expanders, later shifts go by block elimination
    instead (``_block_pivots``): small head blocks by batched dense
    eigensolves, the tail's Schur complement by LAPACK's Bunch-Kaufman, the
    inertias added (Haynsworth). A shift that route does not certify goes
    through the sparse LU in the shared order, then to the dense spectrum.

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
        # per shift: the count and the last inverse-iteration vector (None
        # beyond the row-sum bound, where nothing is factored), or None
        self._below: dict[float, tuple[int, np.ndarray | None] | None] = {}
        self._spectrum: Spectrum | None = None
        # the shared ordering q and A[q][:, q], set by the first factorization
        self._order: np.ndarray | None = None
        self._permuted: sp.csr_matrix | None = None
        self._fill: np.ndarray | None = None  # entries in each column of its L

    @cached_property
    def _largest_row_sum(self) -> float:
        """B, the largest row sum; with positive weights every |lambda| <= B."""
        return float(np.asarray(self.g.csr.sum(axis=1)).max(initial=0.0))

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
        nearest sigma. A later shift tries ``_block_pivots`` first when the
        shared order has a head/tail split, and comes to this LU only when
        that route refuses it.
        """
        first = self._order is None
        if not first and self._head_tail is not None:
            entry = self._block_pivots(sigma)
            if entry is not None:
                return entry
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
            self._fill = np.diff(lu.L.indptr)
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

    @cached_property
    def _head_tail(self) -> _HeadTail | None:
        """The head/tail split of the shared order (see ``_head_tail``)."""
        return _head_tail(self._permuted, self._order, self._fill)

    def _block_pivots(self, sigma: float) -> tuple[int, np.ndarray] | None:
        """``_negative_pivots`` of a later shift by block elimination, or None
        when it does not certify the inertia.

        In the split order, M = A - sigma I is [[H, A_FT], [A_TF, A_TT - sigma I]]
        with H block diagonal, and In(M) = In(H) + In(S) for the Schur
        complement S = A_TT - sigma I - A_TF H^-1 A_FT (Haynsworth). A batched
        dense eigensolve per block order gives each head block's inertia and
        inverse; it is exact for the block perturbed by at most
        delta = s^2 eps (largest row sum of |block| + |sigma|), and a block
        whose smallest |eigenvalue| is not above its delta refuses the shift.
        S is formed in one dense array and factored in place by LAPACK's
        ``dsytrf`` (Bunch-Kaufman); D's 1 x 1 blocks count by sign, and each
        2 x 2 block, whose determinant is negative, counts one. As in
        ``_negative_pivots``, the inertia is certified when the backward
        error stays below 1 / ||M^-1||, which 4 steps of inverse iteration
        with the block solve estimate. The backward error adds:

        - the largest delta;
        - for each head block C, its squared weights into the tail times
          (4 s^2 + (2 r + 8) s) eps / (smallest |eigenvalue|), r the longest
          row of A: the rounding of C's inverse (2 s^2 eps for the
          eigenvectors' loss of orthogonality, as in delta, and (s + 1) s eps
          for V diag(1/w) V^T) and of the sparse products that form S (sums
          of at most 2 r + 8 terms, times ||C's inverse||_F, at most
          s^(1/2) / smallest);
        - 2 eps ||S||_F for the subtractions that form S;
        - eps sum_k ||L_k||_F^2 ||D_k||_F for the factorization, L_k the
          columns of L at D's k-th block, which bounds eps || |L| |D| |L^T| ||_2
          whatever row interchanges L's columns carry.
        """
        split = self._head_tail
        n, h = self.n, split.h
        m = n - h
        eps = np.finfo(np.float64).eps
        longest = int(np.diff(self.g.indptr).max())
        negative, head, formed, parts = 0, 0.0, 0.0, []
        for s, stack, row_sums, cut in split.groups:
            w, v = np.linalg.eigh(stack - sigma * np.eye(s))
            delta = s * s * eps * (row_sums + abs(sigma))
            smallest = np.abs(w).min(axis=1)
            if not np.all(smallest > delta):
                return None
            negative += int(np.count_nonzero(w < 0))
            parts.append(((v / w[:, None, :]) @ v.transpose(0, 2, 1)).ravel())
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
        v = np.random.default_rng(0).standard_normal(n)[split.order]
        v /= np.linalg.norm(v)
        for _ in range(4):
            y = h_inv @ v[:h]
            x, _ = scipy.linalg.lapack.dsytrs(ldu, ipiv, v[h:] - split.tail_head @ y, lower=1)
            w = np.concatenate([y - h_inv @ (split.head_tail @ x), x])
            inverse_norm = np.linalg.norm(w)
            v = w / inverse_norm
        if not (head + formed + factored) * inverse_norm < 1.0:
            return None
        vector = np.empty(n)
        vector[split.order] = v
        return negative, vector

    def below(self, sigma: float, inclusive: bool = False) -> int:
        """Number of eigenvalues < sigma (<= sigma when ``inclusive``).

        Exact at a shift whose factorization is certified: sigma is then no
        eigenvalue, so the two counts agree. A shift strictly outside
        [-B, B], B the largest row sum, is no eigenvalue either and needs no
        factorization: the count is 0 below -B and n above B. A refused
        shift, such as an exact eigenvalue, gets the dense spectrum's count
        (:meth:`Spectrum.below`), which rounding can put one off either way.
        """
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
        c = _constant_row_sum(self.g) if k == 1 else None
        if c is not None:
            return c
        if self.g.m == 0:
            return 0.0
        if self._spectrum is None and k < self.n - 1:
            a = self.g.csr
            bound = self._largest_row_sum
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
    blocks starting at rows ``starts``. Chebyshev-filtered power iteration
    from the ones vector. For strictly positive x, both the
    Collatz-Wielandt minimum min(Ax/x) and the Rayleigh quotient
    rho = x'Ax / x'x are <= lambda1 <= max(Ax/x). Each filter starts with a
    test of these bounds on y = Ax; a block's value is the larger lower
    bound at the first test where its x is strictly positive and its
    Collatz-Wielandt bounds agree to ``BALL_CW_WIDTH`` relative.

    The filter applies T_m((a - c) / e), the degree-m Chebyshev polynomial
    (m = ``BALL_FILTER_DEGREE``) on the block's interval
    [lo, b] = [c - e, c + e], by the three-term recurrence, whose first
    product is the test's y; then it scales each block to max |x| = 1.
    lo = -(the block's largest row sum) <= lambda_min, and
    b = lo + theta (max(rho, 0) - lo) < lambda1 (theta =
    ``BALL_FILTER_CUT``). T_m is at most 1 in size on [lo, b] and grows
    fastest at lambda1, so the Perron component keeps its positive sign and
    gains on every other one, and a block is tested every m products.
    lambda1 - lo <= -2 lo and e >= -theta lo / 2, so between tests the
    iterates grow by at most T_m(4 / theta - 1) sqrt(order), about
    2e6 sqrt(order): row sums up to about 1e290 cannot overflow. Like every
    other operation here, the filter acts on each block alone, so the
    values do not depend on which blocks share ``a``. A block still open
    after ``BALL_POWER_BUDGET`` products gets the dense top-only solve of
    ``lambda1`` (``_dense_top``) up to order ``DEFAULT_SOLVER_CAP`` and
    raises :class:`SolverBudgetError` above it.
    """
    sizes = np.diff(np.append(starts, a.shape[0]))
    tops = np.empty(len(starts))
    todo = np.ones(len(starts), dtype=bool)
    x = np.ones(a.shape[0])
    y = a @ x
    # x = 1: y holds the row sums
    lo = -np.maximum.reduceat(y, starts)
    for _ in range(0, BALL_POWER_BUDGET, BALL_FILTER_DEGREE):
        # inf where x is not positive, so such a block cannot settle
        q = np.divide(y, x, out=np.full_like(y, np.inf), where=x > 0)
        q_min = np.minimum.reduceat(q, starts)
        q_max = np.maximum.reduceat(q, starts)
        rayleigh = np.add.reduceat(x * y, starts) / np.add.reduceat(x * x, starts)
        done = todo & (q_max < np.inf) & (q_max - q_min <= BALL_CW_WIDTH * q_max)
        tops[done] = np.maximum(q_min, rayleigh)[done]
        todo &= ~done
        if not todo.any():
            return tops
        # T_k of (a - c) / e, where [lo, b] = [c - e, c + e]
        e = 0.5 * BALL_FILTER_CUT * (np.maximum(rayleigh, 0.0) - lo)
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
                f"order-{sizes[b]} ball within {BALL_POWER_BUDGET} products"
            )
        tops[b] = _dense_top(a[begin:end, begin:end].toarray())
    return tops


def lambda1_balls(g: WeightedGraph, r: int) -> np.ndarray:
    """lambda1 of every radius-``r`` ball, indexed by center.

    Balls that coincide as vertex sets share one value, and a ball that is
    all of ``g`` gets ``lambda1(g)``. The other distinct balls are laid side
    by side in block-diagonal matrices of total order about
    ``BALL_CHUNK_ORDER`` and go through :func:`_power_tops` together, so
    each value is a lower bound on the ball's lambda1 up to rounding,
    certified by a Collatz-Wielandt test on a strictly positive iterate of
    a Chebyshev-filtered power iteration, one test per
    ``BALL_FILTER_DEGREE`` sparse products. Each ball's arithmetic is its
    own, so the values do not depend on ``BALL_CHUNK_ORDER``.
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
