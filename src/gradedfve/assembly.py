"""Finite-volume-element assembly for the conservative two-sided fractional
diffusion equation on an arbitrary grid.

The equation on (0, 1) is

    -d/dx ( K(x) * ( gamma * D_left^{1-beta} + (1-gamma) * D_right^{1-beta} ) ) u = f,

with Dirichlet data ``u(0) = u_left``, ``u(1) = u_right``, where D_left and
D_right are the left/right Caputo derivatives of order ``1 - beta``,
``0 < beta < 1``.  Integrating over the control volumes
``[x_{i-1/2}, x_{i+1/2}]`` with piecewise-linear trial functions yields a
dense N x N system.  Three operator kinds answer one protocol (``shape``,
``matvec``, ``diagonal``, ``to_dense`` and ``scale_rows``, which divides
their rows), and :func:`assemble_operator` picks one from the grid, K, beta
and N alone:

- With constant K, the rows and columns of the nodes in a uniform run of
  steps form a Toeplitz block for every gamma (a symmetric one at
  gamma = 1/2), so a grid that ends in a uniform tail gets a Toeplitz
  operator: rows and columns for its graded nodes (the border) around a
  Toeplitz tail, whose product goes through FFTs.  The border's coupling
  with the tail is dense next to their interface and, where that holds
  fewer numbers, an exponential sum of the kernel beyond it.  The uniform
  grid is the Toeplitz operator with no border.
- Any other grid (or variable K) with more than 1023 unknowns and
  ``0 < beta < 1`` gets the matrix-free sum-of-exponentials operator: the
  pieces near each midpoint from the flux kernel, the far ones through an
  exponential sum of the kernel ``|z - x|**(beta - 1)``, in O(N) memory.
- The rest gets the dense matrix, which is also what direct solves, the
  grading scan and the spectral checks assemble.

The scheme is assembled as it is derived: equation ``i`` is the flux
``-K (gamma D_left^{1-beta} + (1-gamma) D_right^{1-beta}) u`` at the right
end ``z_{i+1}`` of its control volume minus the flux at its left end
``z_i``.  With piecewise-linear functions the flux at a midpoint is a
sum of piece fluxes, one per piece ``[x_k, x_{k+1}]``, each a difference of
powers ``|x_m - z|**beta`` at the piece's two nodes divided by its length
and weighted by gamma left of ``z`` and by gamma - 1 right of it; the
piece that holds ``z`` is split by it.  A hat's flux is the difference of
the piece fluxes of the two pieces it lies on, so one formula gives every
matrix entry (the first row and column of a Toeplitz tail, and through it
the generating function's coefficients, included) and, through the two
boundary half-hats, the Dirichlet terms of the right-hand side; the
node coordinates double as the prefix sums of the step lengths, so each
entry costs O(1) and the whole assembly O(N^2).
The dense assembly is blocked: it fills the matrix, or a block of rows and
columns of it, through three block buffers allocated once per call, each
holding as many rows as fit in a fixed budget of entries, so the buffers
stay in L2 cache and the peak memory is the result plus a bound that does
not grow with N (until one row outgrows the budget).  A
preconditioned solve on a pure power mesh with odd N and constant
diffusion holds one finest operator, whose scaled leading blocks are its
coarse levels: views of the dense matrix at N <= 1023, and above that of
the matrix-free operator's near array and sweep tables (eps6 at
N + 1 = 4096 peaks at about 23 MB, where its dense matrix alone is
134 MB).  Other meshes without a tail, or variable diffusion, add
rediscretized coarse levels, and a mesh with a tail holds only the
borders of its levels and the factors of their far couplings.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from ._memory import require_memory
from .mesh import Grid, uniform_grid

__all__ = [
    "AssemblyError",
    "FdeProblem",
    "DenseOperator",
    "ToeplitzOperator",
    "SoeOperator",
    "FveSystem",
    "assemble_matrix",
    "assemble_rhs",
    "assemble_operator",
    "assemble_system",
    "uniform_toeplitz",
    "row_scale",
]


class AssemblyError(ValueError):
    """Invalid problem data or assembly request."""


def _as_coefficient(value) -> Callable[[np.ndarray], np.ndarray]:
    if callable(value):
        return value
    const = float(value)
    return lambda x: np.full_like(np.asarray(x, dtype=float), const)


@dataclass(frozen=True)
class FdeProblem:
    """Problem data: order parameter, anisotropy weight, coefficients, Dirichlet values.

    ``beta`` is accepted on the closed interval [0, 1]; the endpoint values
    evaluate the assembly formulas at their classical limits (discrete
    Laplacian at 0, tridiagonal skew form at 1) and are used for structural
    checks.  ``diffusion`` may be a constant or a callable; it is sampled at
    the cell midpoints and must be positive and finite there.  ``source`` is
    integrated over the control volumes, so it is evaluated at quadrature
    points strictly inside (0, 1); it may be singular at either end of the
    interval.
    """

    beta: float
    gamma: float
    diffusion: Callable[[np.ndarray], np.ndarray] | float = 1.0
    source: Callable[[np.ndarray], np.ndarray] | None = None
    u_left: float = 0.0
    u_right: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise AssemblyError("beta must lie in [0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise AssemblyError("gamma must lie in [0, 1]")

    def diffusion_at(self, x: np.ndarray) -> np.ndarray:
        k = np.asarray(_as_coefficient(self.diffusion)(x), dtype=float)
        if not np.all((k > 0.0) & (k < np.inf)):  # NaN fails both
            raise AssemblyError("diffusion coefficient must be positive and finite")
        return k


@dataclass(frozen=True)
class DenseOperator:
    """Dense operator: ``scale`` times a square matrix, or a block of one.

    ``entries`` may be a view of a larger matrix: a coarse multigrid level
    of a self-similar grid is a scaled leading block of the finest matrix.
    """

    entries: np.ndarray
    scale: float = 1.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        return self.scale * (self.entries @ v)

    def diagonal(self) -> np.ndarray:
        return self.scale * np.diag(self.entries)

    def to_dense(self) -> np.ndarray:
        return self.entries if self.scale == 1.0 else self.scale * self.entries

    def scale_rows(self, h_rows: np.ndarray) -> "DenseOperator":
        """Divide row ``i`` by ``h_rows[i]`` in place."""
        np.divide(self.entries, h_rows[:, None], out=self.entries)  # frozen: no rebinding
        return self

    def leading(self, n: int, factor: float) -> "DenseOperator":
        """``factor`` times the leading ``n x n`` block, a view of the entries."""
        return DenseOperator(self.entries[:n, :n], self.scale * factor)


class ToeplitzOperator:
    """Matrix whose trailing ``m x m`` block is Toeplitz:

        [ rows        | right ]   rows: the first b rows, dense, b x c
        [ cols | tail         ]   cols: tail rows b .. c - 1, dense, (c - b) x b
        [ left |              ]   left, right: far blocks, factored (c < N)

    This is the FVE matrix of a mesh whose last ``m`` nodes lie in a uniform
    tail (constant diffusion, any gamma); the ``b = N - m`` graded nodes
    form the border, which is empty on the uniform grid.  The tail is
    stored by its first column and first row, column ``b`` and row ``b`` of
    the matrix, which share the diagonal entry, and a product goes through
    real FFTs of a circulant embedding of the tail, whose size is the first
    power of two ``>= 2m - 1``.

    The coupling of the border with the tail is dense up to column and row
    ``c``: all of it when ``c = N``, and otherwise a near strip of
    ``c - b`` columns and rows next to the interface, with the far blocks
    ``right`` (border rows, tail columns ``c ..``) and ``left`` (tail rows
    ``c ..``, border columns) given by ``far``, the tuple ``(kernel,
    ev_left, add_left, ev_right, add_right)`` of :func:`_coupling_factors`:
    the first ``k0`` columns of ``left`` are the dense ``kernel``, and the
    others are the exponential-sum factors ``ev_left @ (add_left @ d)`` for
    the differences ``d`` of :func:`_differences` of ``u[k0:b]``; ``right @
    u`` is ``ev_right @ (add_right @ d)`` likewise.  The dense coupling
    stores ``2 b m`` numbers, the factored one ``2 b (c - b)``, ``k0 (N -
    c)`` and about ``2 L (N - c + b + 1)`` for ``L`` terms.
    """

    def __init__(
        self,
        first_col: np.ndarray,
        first_row: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        far: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        col, row = np.asarray(first_col, dtype=float), np.asarray(first_row, dtype=float)
        if row.ndim != 1 or row.size == 0 or col.shape != row.shape:
            raise AssemblyError("first_col and first_row must be nonempty 1-D arrays of one size")
        b, c = rows.shape
        n = b + row.size
        if not b <= c <= n or cols.shape != (c - b, b) or (far is None) != (c == n):
            raise AssemblyError("border and tail shapes do not fit together")
        self.rows, self.cols, self.first_col, self.first_row = rows, cols, col, row
        self.far = far
        self._circ_size = 1 << (2 * row.size - 2).bit_length()
        self._circ_fft: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.border + self.first_row.size
        return (n, n)

    @property
    def border(self) -> int:
        return self.rows.shape[0]

    def _fft(self) -> np.ndarray:
        if self._circ_fft is None:  # first column: the tail's, then its first row reversed
            m = self.first_row.size
            circ = np.zeros(self._circ_size)
            circ[:m] = self.first_col
            circ[circ.size - m + 1 :] = self.first_row[:0:-1]
            self._circ_fft = np.fft.rfft(circ)
        return self._circ_fft

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        (b, c), size = self.rows.shape, self._circ_size
        out = np.empty(v.size)
        out[:b] = self.rows @ v[:c]
        out[b:] = np.fft.irfft(self._fft() * np.fft.rfft(v[b:], size), size)[: v.size - b]
        out[b:c] += self.cols @ v[:b]
        if self.far is not None:
            kernel, ev_left, add_left, ev_right, add_right = self.far
            k0 = kernel.shape[1]
            out[c:] += kernel @ v[:k0] + ev_left @ (add_left @ _differences(v[k0:b]))
            out[:b] += ev_right @ (add_right @ _differences(v[c:]))
        return out

    def diagonal(self) -> np.ndarray:
        return np.concatenate((np.diag(self.rows), np.full(self.first_row.size, self.first_row[0])))

    def to_dense(self) -> np.ndarray:
        """The matrix: the border, then tail row ``i`` as ``c[i:0:-1]``
        followed by ``t[:m-i]`` (first column ``c``, first row ``t``), copied
        straight from a sliding window over ``c`` reversed joined to ``t``;
        far blocks are multiplied out from their factors."""
        (b, c), col, row = self.rows.shape, self.first_col, self.first_row
        a = np.empty(self.shape)
        a[:b, :c] = self.rows
        a[b:c, :b] = self.cols
        if self.far is not None:
            kernel, ev_left, add_left, ev_right, add_right = self.far
            k0 = kernel.shape[1]
            a[c:, :k0] = kernel
            factored = ((a[c:, k0:b], ev_left, add_left), (a[:b, c:], ev_right, add_right))
            for out, ev, add in factored:
                g = ev @ add  # on the differences: column j is g[:, j + 1] - g[:, j]
                np.subtract(g[:, 1:], g[:, :-1], out=out)
        joined = np.concatenate((col[:0:-1], row))
        windows = np.lib.stride_tricks.sliding_window_view(joined, row.size)
        a[b:, b:] = windows[::-1]
        return a

    def scale_rows(self, h_rows: np.ndarray) -> "ToeplitzOperator":
        """Divide row ``i`` by ``h_rows[i]`` in place, the tail by
        ``h_rows[b]``, the step of its first row: the tail rows share one step
        up to rounding, so it stays Toeplitz; the circulant FFT of the
        unscaled tail is dropped.  The far blocks divide the rows of their
        dense columns and evaluation tables."""
        b, c = self.rows.shape
        self.rows /= h_rows[:b, None]
        self.cols /= h_rows[b:c, None]
        if self.far is not None:
            kernel, ev_left, _, ev_right, _ = self.far
            kernel /= h_rows[c:, None]
            ev_left /= h_rows[c:, None]
            ev_right /= h_rows[:b, None]
        self.first_col = self.first_col / h_rows[b]
        self.first_row = self.first_row / h_rows[b]
        self._circ_fft = None
        return self


def _differences(u: np.ndarray) -> np.ndarray:
    """``d_k = u_k - u_{k+1}`` of ``u`` with a zero before and after it."""
    d = np.zeros(u.size + 1)
    d[1:] = u
    d[:-1] -= u
    return d


#: The replaced symmetric class's name, under which perfbench wraps ``matvec``.
SymToeplitzOperator = ToeplitzOperator

#: Fewest unknowns at which a mesh without a Toeplitz tail gets the
#: :class:`SoeOperator`.  Preconditioned eps6 solves (beta 0.5, median of 9)
#: took 0.039 s dense and 0.043 s with a matrix-free finest level at
#: N = 1023, 0.151 and 0.130 s at N = 2047; at N = 4095, cutoffs of 512,
#: 1024 and 2048 gave 0.280, 0.268 and 0.358 s.
_SOE_MIN_N = 1024
#: Midpoints per block of :class:`SoeOperator`: at N = 4095 blocks of 32, 64,
#: 128 and 256 gave products of 3.66, 3.04, 2.78 and 3.35 ms (median of 15).
_SOE_BLOCK = 128
#: An exponential term ``exp(-s r)`` with ``s r`` above this is below 4.3e-18
#: of its weight and is dropped.
_SOE_CUTOFF = 40.0
#: Gauss-Jacobi nodes of the exponential sum on ``s`` in [0, 1].  On
#: [1e-10, 1] the sum is off ``r**(beta - 1)`` by at most 1.9e-13, 1.2e-13,
#: 4.0e-14, 8.2e-15 and 1.7e-15 at beta 0.05, 0.2, 0.5, 0.8 and 0.95 with 6
#: nodes, as with 8 to 20; 5 nodes give 2.7e-13, 3.1e-13, 3.0e-13, 1.8e-13
#: and 5.4e-14, and 4 nodes 4e-10.
_SOE_JACOBI_NODES = 6


def _soe_nodes(beta: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``s_l`` (ascending) and weights ``w_l`` with
    ``r**(beta - 1) ~ sum_l w_l exp(-s_l r)`` on ``[delta, 1]``.

    The sum is a quadrature of ``r**(beta-1) = int_0^inf s**-beta exp(-s r) ds
    / Gamma(1 - beta)``: on [0, 1] the Gauss-Jacobi rule of the weight
    ``s**-beta`` (Golub-Welsch: the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials ``P^(0, -beta)``, mapped from [-1, 1]); above it the
    8-point Gauss-Legendre rule on unit panels in ``u = ln s``, up to the
    first panel end past ``ln(cutoff / delta)``.
    """
    b = -beta
    k = np.arange(_SOE_JACOBI_NODES, dtype=float)
    ab = 2.0 * k + b
    main = b * b / (ab * (ab + 2.0))
    kk, abk = k[1:], ab[1:]
    off = 2.0 * kk * (kk + b) / (abk * np.sqrt(abk * abk - 1.0))
    lam, vec = np.linalg.eigh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
    s_jac = 0.5 * (1.0 + lam)
    w_jac = vec[0] ** 2 / (1.0 - beta)
    panels = max(math.ceil(math.log(_SOE_CUTOFF / delta)), 1)
    s_log = np.exp((np.arange(panels)[:, None] + _GL_NODES).ravel())
    w_log = np.tile(_GL_WEIGHTS, panels) * s_log ** (1.0 - beta)
    return np.concatenate((s_jac, s_log)), np.concatenate((w_jac, w_log)) / math.gamma(1.0 - beta)


def _far_gaps(y: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Distance from the first midpoint of block ``j`` to the right end of
    block ``j - 2``, the nearest far piece of the block, for ``j >= 2``."""
    return 0.5 * (y[bounds[2:-1]] + y[bounds[2:-1] + 1]) - y[bounds[1:-2]]


def _far_sweep_tables(
    y: np.ndarray, bounds: np.ndarray, s: np.ndarray, w: np.ndarray
) -> list[tuple[int, int, int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Factor tables of one left-to-right sweep over the nodes ``y``.

    Block ``j`` holds the midpoints (and pieces) ``bounds[j] ..
    bounds[j+1] - 1``; its far pieces are those of blocks ``0 .. j - 2``.
    With ``ref = y[bounds[j-1]]``, their right end, the sweep's state is
    ``S_l = sum_k exp(-s_l (ref - y_{k+1})) phi_l(h_k) d_k`` with
    ``phi_l(h) = -expm1(-s_l h) / (s_l h)``, so that
    ``sum_l w_l exp(-s_l (z_t - ref)) S_l`` is ``sum_k I_k(t) d_k / h_k``,
    ``I_k(t)`` the integral of ``(z_t - x)**(beta - 1)`` over piece ``k``.
    Per block ``j`` the tables are ``(t0, t1, k0, k1, ev, add, decay)``:
    the midpoints ``t0 .. t1 - 1`` read ``ev @ S``, the pieces ``k0 ..
    k1 - 1`` of block ``j - 2`` enter as ``add @ d``, and ``decay`` moves
    the state from the previous block's ``ref`` to this one's.  Terms with
    ``s_l`` times the block's far gap above :data:`_SOE_CUTOFF` are dropped,
    so each table holds a prefix of the terms.  A term dropped at block
    ``j - 1`` and kept at ``j`` resumes from a stale state, which ``decay``
    and ``ev`` scale by less than ``exp(-cutoff)``: ``s_l`` times the
    distance from ``ref`` of block ``j - 1`` to any midpoint of block ``j``
    exceeds the cutoff.
    """
    tables = []
    gaps = _far_gaps(y, bounds)
    for j in range(2, bounds.size - 1):
        t0, t1, k0, k1 = bounds[j], bounds[j + 1], bounds[j - 2], bounds[j - 1]
        ref = y[k1]
        m = int(np.searchsorted(s, _SOE_CUTOFF / gaps[j - 2], side="right"))
        sl = s[:m]
        z = 0.5 * (y[t0:t1] + y[t0 + 1 : t1 + 1])
        ev = w[:m] * np.exp(np.outer(z - ref, -sl))
        decay = np.exp(-sl * (ref - y[k0]))
        tables.append((t0, t1, k0, k1, ev, _piece_table(y, k0, k1, sl), decay))
    return tables


def _piece_table(y: np.ndarray, k0: int, k1: int, s: np.ndarray) -> np.ndarray:
    """``exp(-s_l (y_{k1} - y_{k+1})) phi_l(h_k)`` for the pieces ``k = k0
    .. k1 - 1`` of the nodes ``y``, with ``phi_l(h) = -expm1(-s_l h) / (s_l
    h)``: times ``exp(-s_l (z - y_{k1}))`` it is the integral of
    ``exp(-s_l (z - x))`` over piece ``k`` divided by its length, formed
    with no difference of nearly equal numbers."""
    sh = np.outer(s, y[k0 + 1 : k1 + 1] - y[k0:k1])
    return np.exp(np.outer(-s, y[k1] - y[k0 + 1 : k1 + 1])) * (-np.expm1(-sh) / sh)


def _far_sweep(tables, d: np.ndarray) -> np.ndarray:
    """One sweep's far sums of the differences ``d``, at every midpoint."""
    out = np.zeros(d.size)
    state = np.zeros(max((t[6].size for t in tables), default=0))
    for t0, t1, k0, k1, ev, add, decay in tables:
        s = state[: decay.size]
        s *= decay
        s += add @ d[k0:k1]
        out[t0:t1] = ev @ s
    return out


class SoeOperator:
    """Matrix-free FVE operator: exact near field, far field by a sum of
    exponentials (SOE), in flux form.

    With ``d_k = v_k - v_{k+1}`` (``v_0 = v_{N+1} = 0``) the flux at the
    midpoint ``z_t`` is ``(F v)_t = sum_k Q[t, k] d_k``, with the piece
    fluxes ``Q`` of :func:`_piece_fluxes`, and ``A v`` is
    ``(K_i (F v)_i - K_{i+1} (F v)_{i+1}) / Gamma(beta + 1)``, divided by the
    row divisor that :meth:`scale_rows` keeps: the steps by which
    :func:`assemble_matrix` forms its rows, applied to a vector.

    The midpoints are split into blocks of :data:`_SOE_BLOCK`.  For the
    targets of block ``J`` the pieces of blocks ``J - 1 .. J + 1`` take their
    exact ``Q`` from the kernel, stored as one ``(nb, B, 3B)`` array, one
    batched product.  A far piece left of ``z_t`` adds
    ``-gamma beta I_k(t) d_k / h_k`` and one right of it
    ``(gamma - 1) beta I_k(t) d_k / h_k``, with ``I_k(t)`` the integral of
    ``|z_t - x|**(beta - 1)`` over the piece.  The kernel is the exponential
    sum of :func:`_soe_nodes` on ``[delta, 1]``, ``delta`` the smallest far
    gap, and each exponential is integrated over a piece exactly, so no
    difference of nearly equal powers is formed.  The left sums are one
    sweep of :func:`_far_sweep_tables`; the right sums are the same sweep
    on the mirrored grid, ``-x`` reversed (negation is exact, so every
    distance is the one formed on ``x``).  It stores ``O(N (3B + L))``
    numbers for ``L`` terms, and a product costs as many multiply-adds.
    :meth:`leading` gives a scaled leading block that shares them.
    """

    def __init__(self, grid: Grid, problem: FdeProblem):
        beta, gamma = float(problem.beta), float(problem.gamma)
        if not 0.0 < beta < 1.0:
            raise AssemblyError("the exponential sum needs 0 < beta < 1")
        n, bs = grid.n, _SOE_BLOCK
        nb = -(-(n + 1) // bs)
        x = grid.points
        self.kz = problem.diffusion_at(0.5 * (x[:-1] + x[1:]))
        bounds = np.minimum(np.arange(nb + 1) * bs, n + 1)
        mirror = n + 1 - bounds[::-1]
        gaps = np.concatenate((_far_gaps(x, bounds), _far_gaps(-x[::-1], mirror)))
        s, w = _soe_nodes(beta, gaps.min()) if gaps.size else (np.empty(0), np.empty(0))
        # the near array and the two sweeps' ev and add tables, up to L
        # numbers per midpoint each; tracemalloc peaks at 0.71-0.94 of this
        # count (eps6 and sqrt, N = 1025 ... 16383, beta 0.05 ... 0.95)
        require_memory(
            8 * nb * bs * (3 * bs + 4 * s.size),
            f"an exponential-sum operator at N = {n}",
            AssemblyError,
        )
        self.near = np.zeros((nb, bs, 3 * bs))
        for j in range(nb):
            t0, t1 = bounds[j], bounds[j + 1]
            k0, k1 = max(t0 - bs, 0), min(t0 + 2 * bs, n + 1)
            r0 = max(t0 - 1, 0)  # at least two midpoints, so one equation
            ((_, _, q),) = _piece_fluxes(grid, problem, (r0, t1 - 1), (k0, k1), bs + 1)
            self.near[j, : t1 - t0, k0 - t0 + bs : k1 - t0 + bs] = q[t0 - r0 :]
        self.left = _far_sweep_tables(x, bounds, s, -gamma * beta * w)
        self.right = _far_sweep_tables(-x[::-1], mirror, s, (gamma - 1.0) * beta * w)
        self.gam1 = math.gamma(beta + 1.0)
        self.row_div = np.ones(n)
        # the diagonal, from the near entries with the arithmetic of assemble_matrix
        def near_q(t, k):
            return self.near[t // bs, t % bs, k - t // bs * bs + bs]

        i = np.arange(n)
        f_left = (near_q(i, i + 1) - near_q(i, i)) * self.kz[:-1]
        f_right = (near_q(i + 1, i + 1) - near_q(i + 1, i)) * self.kz[1:]
        self._diag = (f_left - f_right) / self.gam1

    @property
    def shape(self) -> tuple[int, int]:
        n = self.kz.size - 1
        return (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n = self.shape[1]
        if v.shape != (n,):
            raise AssemblyError("dimension mismatch in matvec")
        nb, bs, _ = self.near.shape
        d_pad = np.zeros((nb + 2) * bs)
        d = d_pad[bs : bs + n + 1]
        d[1:] = v
        d[:-1] -= v
        step = d_pad.itemsize
        windows = np.lib.stride_tricks.as_strided(
            d_pad, (nb, 3 * bs, 1), (bs * step, step, step), writeable=False
        )  # window j: the differences of blocks j - 1 .. j + 1
        flux = np.matmul(self.near, windows).reshape(-1)[: n + 1]
        flux += _far_sweep(self.left, d)
        flux += _far_sweep(self.right, d[::-1].copy())[::-1]
        out = self.kz[:-1] * flux[:-1]
        out -= self.kz[1:] * flux[1:]
        out /= self.gam1
        out /= self.row_div
        return out

    def diagonal(self) -> np.ndarray:
        return self._diag

    def to_dense(self) -> np.ndarray:
        """The matrix, one product per column (for small checks only)."""
        return np.column_stack([self.matvec(e) for e in np.eye(self.shape[1])])

    def scale_rows(self, h_rows: np.ndarray) -> "SoeOperator":
        """Divide row ``i`` by ``h_rows[i]``: the divisor is kept and applied
        to every product."""
        self.row_div = self.row_div * h_rows
        self._diag = self._diag / h_rows
        return self

    def leading(self, n: int, factor: float) -> "SoeOperator":
        """``factor`` times the leading ``n x n`` block, sharing this
        operator's near array and sweep tables, with ``factor`` folded into
        its row divisor.

        The block's rows read the midpoints ``0 .. n`` and its columns the
        differences of the pieces ``0 .. n``, the others being zero, so it
        keeps the near blocks up to that of midpoint ``n``, the left tables
        of those blocks (the last one cut at midpoint ``n``), and the right
        tables from the first that adds a piece ``<= n``, with their indices
        shifted to its own mirrored pieces and the first one's piece table
        cut to those pieces.  A skipped table only adds zeros, so a product
        costs as much as one of an operator of ``n`` unknowns.
        """
        shift = self.shape[0] - n  # the mirrored piece of piece n
        view = copy.copy(self)
        view.near = self.near[: n // self.near.shape[1] + 1]
        view.left = [
            (t0, min(t1, n + 1), k0, k1, ev[: n + 1 - t0], add, decay)
            for t0, t1, k0, k1, ev, add, decay in self.left
            if t0 <= n
        ]
        view.right = [
            (t0 - shift, t1 - shift, max(k0, shift) - shift, k1 - shift, ev,
             add[:, max(shift - k0, 0) :], decay)
            for t0, t1, k0, k1, ev, add, decay in self.right
            if k1 > shift
        ]
        view.kz = self.kz[: n + 1]
        view.row_div = self.row_div[:n] / factor
        view._diag = self._diag[:n] * factor
        return view


LinearOperator = DenseOperator | ToeplitzOperator | SoeOperator


@dataclass(frozen=True)
class FveSystem:
    """Assembled linear system ``A u = b`` with its provenance."""

    operator: LinearOperator
    rhs: np.ndarray
    grid: Grid
    problem: FdeProblem
    scaled: bool = False

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.operator.shape != (n, n) or self.rhs.shape != (n,):
            raise AssemblyError("system dimensions are inconsistent")


#: Entries per assembly block buffer (512 KB): a block takes as many rows as
#: fit (15 at N = 4095), so its power table and its two flux tables stay in
#: a 2 MB L2 cache and the working memory does not grow with N; at
#: N = 4095, 64-row blocks took 1.0 to 1.05 times as long.
_BLOCK_ENTRIES = 2**16


def assemble_matrix(
    grid: Grid,
    problem: FdeProblem,
    rows: tuple[int, int] | None = None,
    cols: tuple[int, int] | None = None,
) -> DenseOperator:
    """Assemble the dense FVE coefficient matrix on an arbitrary grid, or the
    block of it in the row range ``rows`` and the column range ``cols``
    (half-open ``(start, stop)`` pairs; the full range by default).

    Equation ``i`` is the flux at ``z_{i+1}`` minus the flux at ``z_i``,
    the ends of its control volume.  The hat of node ``m`` rises over piece
    ``m - 1`` and falls over piece ``m``, so with the piece fluxes ``Q`` of
    :func:`_piece_fluxes` its flux at ``z_t`` is
    ``-K(z_t) F[t, m] / Gamma(beta + 1)``, where the hat flux is
    ``F[t, m] = Q[t, m] - Q[t, m - 1]``, and column ``j`` (node ``j + 1``)
    holds

        A[i, j] = (K(z_i) F[i, j+1] - K(z_{i+1}) F[i+1, j+1]) / Gamma(beta + 1).

    The block is filled a few rows at a time, as many as keep each block
    buffer within :data:`_BLOCK_ENTRIES` entries (at least one row; more
    rows when the block has fewer columns): each block takes the piece
    fluxes of its own ``rows + 1`` midpoints and their hat fluxes in a
    third buffer allocated once per call, scales the hat fluxes at each
    midpoint by its ``K`` once (row ``i`` uses midpoint ``i`` on its left
    and row ``i - 1`` on its right), and writes the differences straight
    into the matrix rows.  Every entry comes from the same arithmetic
    whatever the block size and the ranges, and the memory used beyond the
    result is three buffers of :data:`_BLOCK_ENTRIES` entries, whatever N
    (up to ``N + 2 = _BLOCK_ENTRIES`` columns).
    """
    n = grid.n
    r0, r1 = (0, n) if rows is None else rows
    c0, c1 = (0, n) if cols is None else cols
    if not (0 <= r0 <= r1 <= n and 0 <= c0 <= c1 <= n):
        raise AssemblyError("block ranges must lie within the matrix")
    need = 8 * (r1 - r0) * (c1 - c0)
    require_memory(need, f"a {r1 - r0} x {c1 - c0} matrix block", AssemblyError)
    gam1 = math.gamma(float(problem.beta) + 1.0)
    x = grid.points
    kz = problem.diffusion_at(0.5 * (x[:-1] + x[1:]))

    a = np.empty((r1 - r0, c1 - c0))
    block = max(_BLOCK_ENTRIES // (c1 - c0 + 2), 1)  # the power table has c1 - c0 + 2 columns
    f_buf = np.empty((min(block, r1 - r0) + 1, c1 - c0))
    # columns c0 .. c1 - 1 are the hats of nodes c0 + 1 .. c1, on pieces c0 .. c1
    for i0, i1, q in _piece_fluxes(grid, problem, (r0, r1), (c0, c1 + 1), block):
        f = f_buf[: i1 - i0 + 1]
        np.subtract(q[:, 1:], q[:, :-1], out=f)
        f *= kz[i0 : i1 + 1, None]
        out = a[i0 - r0 : i1 - r0]
        np.subtract(f[:-1], f[1:], out=out)
        out /= gam1
        with np.errstate(invalid="ignore", over="ignore"):
            total = out.sum()  # finite only if every entry is
        if not np.isfinite(total) and not np.all(np.isfinite(out)):
            raise AssemblyError("assembled matrix has non-finite entries")
    return DenseOperator(a)


def _piece_fluxes(
    grid: Grid, problem: FdeProblem, rows: tuple[int, int], pieces: tuple[int, int], block: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield the piece fluxes at the midpoints of the equations ``rows`` over
    the pieces ``pieces`` (half-open ``(start, stop)`` pairs), block after
    block of ``block`` equations.

    Piece ``k`` is ``[x_k, x_{k+1}]`` of length ``h_k``, and ``z_t`` is the
    midpoint of piece ``t``.  With ``w_m = |x_m - z_t|**beta`` and
    ``e_k = (w_{k+1} - w_k) / h_k``, the flux at ``z_t`` of the function
    that rises linearly by 1 over piece ``k`` and is constant elsewhere is
    ``K(z_t) Q[t, k] / Gamma(beta + 1)``, with ``Q[t, k] = gamma * e_k``
    for a piece left of ``z_t`` (``k < t``) and ``(gamma - 1) * e_k`` for
    one right of it (``k > t``); the piece split by the midpoint has
    ``Q[t, t] = -(gamma * w_t + (1 - gamma) * w_{t+1}) / h_t``.

    Equations ``i0 .. i1 - 1`` read the midpoints ``i0 .. i1``, so each
    block yields ``(i0, i1, q)`` with ``q[l, p] = Q[i0 + l, k0 + p]`` in
    ``i1 - i0 + 1`` rows.  ``q`` and the power table are buffers allocated
    once per call and filled by in-place ufuncs.  The weights ``gamma`` and
    ``gamma - 1`` depend on ``k - t`` alone, so every block reads them from a
    Toeplitz window over one vector.
    """
    x = grid.points
    r0, r1 = rows
    k0, k1 = pieces
    beta = float(problem.beta)
    gamma = float(problem.gamma)
    z = 0.5 * (x[:-1] + x[1:])
    xk = x[k0 : k1 + 1]
    inv_h = 1.0 / grid.steps[k0:k1]
    # weight j belongs to k - t = j + k0 - r1, so the midpoint z_t reads window r1 - t
    d = np.arange(k0 - r1, k1 - r0)
    weights = np.lib.stride_tricks.sliding_window_view(np.where(d < 0, gamma, gamma - 1.0), k1 - k0)
    size = min(block, r1 - r0) + 1
    w_buf = np.empty((size, xk.size))
    q_buf = np.empty((size, k1 - k0))
    for i0 in range(r0, r1, block):
        i1 = min(i0 + block, r1)
        w = w_buf[: i1 - i0 + 1]
        np.subtract(xk[None, :], z[i0 : i1 + 1, None], out=w)
        np.abs(w, out=w)
        w **= beta
        q = q_buf[: i1 - i0 + 1]
        np.subtract(w[:, 1:], w[:, :-1], out=q)
        q *= inv_h
        q *= weights[r1 - i1 : r1 - i0 + 1][::-1]
        t = np.arange(max(i0, k0), min(i1 + 1, k1))  # the midpoints whose piece is in range
        l, p = t - i0, t - k0
        q[l, p] = -(gamma * w[l, p] + (1.0 - gamma) * w[l, p + 1]) * inv_h[p]
        yield i0, i1, q


#: 8-point Gauss-Legendre rule mapped to [0, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _control_volume_loads(grid: Grid, source) -> np.ndarray:
    """Integrals of ``source`` over the control volumes ``[x_{i-1/2}, x_{i+1/2}]``.

    Each volume is split at its node into two half volumes, and each half
    volume gets the 8-point Gauss-Legendre rule in the variable
    ``t = ln(x / (1 - x))``, where ``dx = x (1 - x) dt``.  The substitution
    sends both ends of (0, 1) to infinity, so endpoint behaviour like ``1/x``
    or ``(1 - x)**(beta - 1)`` turns into a bounded, smooth integrand, and
    half volumes spanning many orders of magnitude next to x = 0 are
    integrated as accurately as the others.  The width of each half volume in
    ``t`` is formed from its length with ``log1p``, so it keeps full relative
    precision on fine meshes.
    """
    # each table below holds 8 bytes per point, 8 points per half volume; the
    # tables and their temporaries peak at 6.5 tables (tracemalloc, N = 4095
    # and 65535), so the guard counts 7
    require_memory(7 * 8 * 8 * 2 * grid.n, f"7 {2 * grid.n} x 8 quadrature tables", AssemblyError)
    x = grid.points
    ends = np.empty(2 * grid.n + 1)  # x_{1/2}, x_1, x_{3/2}, ..., x_N, x_{N+1/2}
    ends[0::2] = 0.5 * (x[:-1] + x[1:])
    ends[1::2] = x[1:-1]
    a, b = ends[:-1], ends[1:]
    d = b - a
    dt = np.log1p(d / a) + np.log1p(d / (1.0 - b))
    t = (np.log(a) - np.log1p(-a))[:, None] + dt[:, None] * _GL_NODES
    u = np.exp(-np.abs(t))  # x = 1/(1+u) for t >= 0, u/(1+u) for t < 0
    xq = np.where(t < 0.0, u, 1.0) / (1.0 + u)
    fq = np.asarray(source(xq.ravel()), dtype=float)
    if fq.shape != (xq.size,):
        raise AssemblyError("source must return one value per evaluation point")
    if not np.all(np.isfinite(fq)):
        raise AssemblyError("source evaluated to a non-finite value")
    w = (dt[:, None] * _GL_WEIGHTS) * u / (1.0 + u) ** 2  # dx/dt = x (1 - x)
    halves = (fq.reshape(xq.shape) * w).sum(axis=1)
    return halves[0::2] + halves[1::2]


def assemble_rhs(grid: Grid, problem: FdeProblem) -> np.ndarray:
    """Assemble the right-hand side, including the Dirichlet boundary terms.

    The load of equation ``i`` is the integral of the source over its control
    volume ``[x_{i-1/2}, x_{i+1/2}]``, computed by :func:`_control_volume_loads`
    to near machine precision even for sources singular at x = 0 or x = 1.
    The boundary values enter through the two boundary half-hats, which
    fall over piece 0 and rise over piece ``N``: the flux of
    ``u_left`` times the first plus ``u_right`` times the second at the
    midpoint ``z_t`` is ``-K(z_t) g_t / Gamma(beta + 1)`` with
    ``g_t = u_left Q[t, 0] - u_right Q[t, N]``, from the piece fluxes of
    :func:`_piece_fluxes` (the arithmetic of the matrix), and equation ``i``
    moves its flux difference to this side.
    """
    n = grid.n
    ul = float(problem.u_left)
    ur = float(problem.u_right)

    if problem.source is None:
        b = np.zeros(n)
    else:
        b = _control_volume_loads(grid, problem.source)

    if ul == 0.0 and ur == 0.0:
        return b

    def flux(piece: int) -> np.ndarray:  # Q[t, piece] at every midpoint, in one block
        ((_, _, q),) = _piece_fluxes(grid, problem, (0, n), (piece, piece + 1), n)
        return q[:, 0]

    x = grid.points
    kz = problem.diffusion_at(0.5 * (x[:-1] + x[1:]))
    g = ul * flux(0) - ur * flux(n)
    b += (kz[1:] * g[1:] - kz[:-1] * g[:-1]) / math.gamma(float(problem.beta) + 1.0)
    if not np.all(np.isfinite(b)):
        raise AssemblyError("assembled right-hand side has non-finite entries")
    return b


def uniform_toeplitz(n: int, beta: float) -> LinearOperator:
    """Toeplitz operator, with no border, of the discretization on the
    uniform grid of ``n`` nodes with unit diffusion and ``gamma = 1/2``,
    where the matrix is symmetric: its first row is the series of the
    generating function in :mod:`gradedfve.spectral`.
    """
    if n < 1:
        raise AssemblyError("n must be >= 1")
    return assemble_operator(uniform_grid(n), FdeProblem(beta, 0.5))


#: Steps of a uniform tail differ only by the rounding of their node
#: coordinates in [0, 1]: by at most 2.2e-16 on the composite and blended
#: meshes of the benchmark and 6.7e-16 on eps4, while the graded steps next
#: to a tail differ from it by 1e-7 or more at N = 4095.
_TAIL_STEP_TOL = 2e-15


def _tail_start(grid: Grid) -> int:
    """First row of the grid's uniform tail: row ``i`` (node ``x_{i+1}``) and
    every later one have both their steps equal to the last step, to
    :data:`_TAIL_STEP_TOL`.  0 on a uniform grid, ``n`` when there is no tail.
    """
    off = np.flatnonzero(np.abs(grid.steps - grid.steps[-1]) > _TAIL_STEP_TOL)
    return int(off[-1]) + 1 if off.size else 0


#: Columns and rows of a Toeplitz operator's coupling kept dense next to
#: the interface of border and tail, where the rest is an exponential sum.
#: eps1 pgmres solves at N = 4095 (beta 0.83, median of 5) took 77, 73, 72,
#: 79, 77 and 86 ms with widths 32, 64, 96, 128, 192 and 256, and peaked at 17.9,
#: 17.6, 17.8, 18.0, 18.5 and 19.3 MB (tracemalloc): flat within noise, and
#: 64 holds the fewest numbers.  The rule of :func:`_coupling_is_factored`
#: also sets the smallest factored level: on the eps1 levels of that solve
#: it factors N = 511 and up, where a product took 0.046 ms factored and
#: 0.037 ms dense and the assembly 1.10 and 1.31 ms, and keeps N = 255
#: dense (0.039 ms dense, 0.057 ms factored).
_NEAR_WIDTH = 64


#: Border pieces shorter than this keep the kernel's entries in the far
#: coupling of a Toeplitz operator's tail rows.  Their entries there are
#: differences of powers of about 1 that agree to 1e-10 or better, so the
#: kernel's rounding is 2e-6 of an entry or more, which an exponential sum,
#: free of it, does not reproduce; through the few pieces next to x = 0 at
#: the capped exponent (x_1 = 1e-16) it sets the solution's error (ROADMAP
#: item 2).  Preconditioned solves on eps4 at beta = 0.8, N = 1023, with
#: the pieces below 1e-12, 1e-10 and 1e-8 kept read e_inf = 3.82462e-4,
#: 3.82394e-4 and 3.82397e-4, against 3.82397e-4 with a dense coupling and
#: 6.57339e-4 with none kept; eps1 and eps2 at N = 511 and 1023 agree to 4
#: digits or more as well.  The far block of the border rows moves no digit
#: of them.
_KERNEL_STEP = 1e-10


def _far_flux_factors(
    y: np.ndarray, k0: int, k1: int, eqs: tuple[int, int], s: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(ev, add)`` of the flux differences of the pieces ``k0 ..
    k1 - 1`` of the nodes ``y`` at the equations ``eqs`` right of them
    (half-open; equation ``i`` reads the midpoints ``i`` and ``i + 1``).

    ``add`` is the :func:`_piece_table` of the pieces, so that with ``ref =
    y[k1]``, ``sum_l c_l exp(-s_l (z_t - ref)) (add @ d)_l`` is ``sum_k c
    I_k(t) d_k / h_k``; ``ev[r, l]`` is the difference of that factor
    between the midpoints ``i`` and ``i + 1`` of equation ``i = eqs[0] +
    r``, formed as ``c_l exp(-s_l (z_i - ref)) (-expm1(-s_l (z_{i+1} -
    z_i)))``, with no difference of nearly equal numbers either.
    """
    i0, i1 = eqs
    z = 0.5 * (y[i0 : i1 + 1] + y[i0 + 1 : i1 + 2])
    ev = c * np.exp(np.outer(y[k1] - z[:-1], s)) * -np.expm1(np.outer(z[:-1] - z[1:], s))
    return ev, _piece_table(y, k0, k1, s)


def _coupling_is_factored(b: int, m: int, w: int, k0: int, nterms: int) -> bool:
    """Whether the far coupling of a border of ``b`` nodes with a tail of
    ``m`` holds fewer numbers with a near strip of ``w``, ``k0`` dense far
    columns and ``nterms`` exponential-sum terms, ``2 b w + k0 (m - w) +
    nterms (2 b + 2 (m - w) + 2 - k0)``, than dense, ``2 b m``."""
    return 2 * b * w + k0 * (m - w) + nterms * (2 * b + 2 * (m - w) + 2 - k0) < 2 * b * m


def _coupling_factors(grid: Grid, problem: FdeProblem, b: int):
    """The far coupling ``(kernel, ev_left, add_left, ev_right, add_right)``
    of a Toeplitz operator with border ``b`` (see
    :class:`ToeplitzOperator`), or None where the dense coupling holds
    fewer numbers (:func:`_coupling_is_factored`).

    With ``c = b + w``, ``w`` = :data:`_NEAR_WIDTH`, the left block (tail
    rows ``c ..``, border columns) takes the columns of the nodes ``1 ..
    k0`` from :func:`assemble_matrix`, ``k0 - 1`` the last border piece
    shorter than :data:`_KERNEL_STEP`, and reads the pieces ``k0 .. b`` at
    the tail midpoints by an exponential sum; the right block (border
    rows, tail columns ``c ..``) reads the pieces ``c .. N`` at the border
    midpoints: the left factors of the mirrored grid, ``-x`` reversed,
    with the rows reversed and negated (a flux difference changes sign
    with the orientation).  The piece fluxes are those of :class:`SoeOperator`'s far
    field, and an equation is ``K / Gamma(beta + 1)`` times a flux
    difference.  Every distance is at least ``delta``, ``w - 1/2`` tail
    steps, so one sum of :func:`_soe_nodes` on ``[delta, 1]`` serves both
    blocks, less its terms with ``s_l delta`` above :data:`_SOE_CUTOFF`.
    """
    n, w, beta = grid.n, _NEAR_WIDTH, float(problem.beta)
    m, c = n - b, b + w
    if b == 0 or m <= w or not 0.0 < beta < 1.0:
        return None
    x = grid.points
    k0 = int(np.max(np.flatnonzero(grid.steps[:b] < _KERNEL_STEP), initial=-1)) + 1
    delta = min(0.5 * (x[c] + x[c + 1]) - x[b + 1], x[c] - 0.5 * (x[b] + x[b + 1]))
    s, wts = _soe_nodes(beta, delta)
    nterms = int(np.searchsorted(s, _SOE_CUTOFF / delta, side="right"))
    if not _coupling_is_factored(b, m, w, k0, nterms):
        return None
    # tracemalloc peaks at 1.8-2.2 times the tables while they are made
    # (eps1 and eps4, N = 1023 ... 16383, beta 0.05 ... 0.95)
    require_memory(
        3 * 8 * 2 * nterms * (n - w + 1), f"an exponential-sum coupling at N = {n}", AssemblyError
    )
    s, wts = s[:nterms], wts[:nterms] * float(problem.diffusion) * beta / math.gamma(beta + 1.0)
    gamma = float(problem.gamma)
    kernel = assemble_matrix(grid, problem, rows=(c, n), cols=(0, k0)).entries
    ev_left, add_left = _far_flux_factors(x, k0, b + 1, (c, n), s, -gamma * wts)
    ev_right, add_right = _far_flux_factors(
        -x[::-1], 0, n + 1 - c, (n - b, n), s, (gamma - 1.0) * wts
    )
    return kernel, ev_left, add_left, -ev_right[::-1], np.ascontiguousarray(add_right[:, ::-1])


def assemble_operator(grid: Grid, problem: FdeProblem, scaled: bool = False) -> LinearOperator:
    """Assemble the coefficient operator alone, row-scaled if ``scaled``.

    With constant diffusion the rows and columns of a uniform tail form a
    Toeplitz block, whatever gamma: a grid with a uniform tail gets a
    :class:`ToeplitzOperator` whose border rows up to column ``c``, border
    columns up to row ``c``, and the tail's first row and column, row and
    column ``b`` of the matrix, are :func:`assemble_matrix` blocks, with
    ``c = N`` unless :func:`_coupling_factors` factors the far coupling
    (the uniform grid has no border).
    Every other case (no tail, or variable diffusion) gets the matrix-free
    :class:`SoeOperator` above :data:`_SOE_MIN_N` unknowns when
    ``0 < beta < 1``, and the dense matrix of :func:`assemble_matrix`
    otherwise, which is also what a caller that factors the matrix calls
    directly.
    ``scaled`` applies the row scaling of :func:`row_scale` to the operator,
    for callers (the coarse multigrid levels) that need no right-hand side.
    """
    n = grid.n
    b = n if callable(problem.diffusion) else _tail_start(grid)
    if b < n:
        far = _coupling_factors(grid, problem, b)
        c = n if far is None else b + _NEAR_WIDTH

        def block(rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
            return assemble_matrix(grid, problem, rows=rows, cols=cols).entries

        first_col, first_row = block((b, n), (b, b + 1))[:, 0], block((b, b + 1), (b, n))[0]
        op: LinearOperator = ToeplitzOperator(
            first_col, first_row, block((0, b), (0, c)), block((b, c), (0, b)), far
        )
    elif n >= _SOE_MIN_N and 0.0 < problem.beta < 1.0:
        op = SoeOperator(grid, problem)
    else:
        op = assemble_matrix(grid, problem)
    return op.scale_rows(grid.steps[:-1]) if scaled else op


def assemble_system(grid: Grid, problem: FdeProblem) -> FveSystem:
    """Assemble the right-hand side of :func:`assemble_rhs`, then the
    operator of :func:`assemble_operator`.  The right-hand side goes first:
    its quadrature guard refuses a grid too large for memory before the
    operator's buffers are made; the larger tables of the
    sum-of-exponentials operator have a guard of their own."""
    rhs = assemble_rhs(grid, problem)
    return FveSystem(assemble_operator(grid, problem), rhs, grid, problem)


def row_scale(system: FveSystem) -> FveSystem:
    """Multiply both sides of the system by ``diag(1/h_i)``.

    The scaling removes the grid-dependent measure factor from each
    equation, which the multigrid hierarchy relies on.  The operator's
    ``scale_rows`` divides it in place: a dense matrix row by row, a
    Toeplitz operator's border and far factors row by row and its tail by
    the step of the tail's first row, so it stays Toeplitz.

    The returned system holds the very operator of ``system``, so the
    argument is consumed and its matrix must not be read as unscaled
    afterwards.  No second N x N matrix is made.
    """
    if system.scaled:
        raise AssemblyError("system is already row-scaled")
    h_rows = system.grid.steps[:-1]  # h_1 .. h_N
    return replace(
        system, operator=system.operator.scale_rows(h_rows), rhs=system.rhs / h_rows, scaled=True
    )
