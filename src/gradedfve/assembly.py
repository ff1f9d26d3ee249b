"""Finite-volume-element assembly for the conservative two-sided fractional
diffusion equation on an arbitrary grid.

The equation on (0, 1) is

    -d/dx ( K(x) * ( gamma * D_left^{1-beta} + (1-gamma) * D_right^{1-beta} ) ) u = f,

with Dirichlet data ``u(0) = u_left``, ``u(1) = u_right``, where D_left and
D_right are the left/right Caputo derivatives of order ``1 - beta``,
``0 < beta < 1``.  Integrating over the control volumes
``[x_{i-1/2}, x_{i+1/2}]`` with piecewise-linear trial functions yields a
dense N x N system.  With constant K and gamma = 1/2, the rows and columns
of the nodes in a uniform run of steps form a symmetric Toeplitz block, so a
grid that ends in a uniform tail gets a Toeplitz operator: dense rows and
columns for its graded nodes (the border) around a Toeplitz tail, whose
product goes through FFTs.  The uniform grid is the Toeplitz operator with
no border; every other operator is a dense matrix.  The two kinds answer
one protocol (``shape``, ``matvec``, ``diagonal``, ``to_dense`` and
``scale_rows``, which divides their rows in place).

The scheme is assembled as it is derived: equation ``i`` is the flux
``-K (gamma D_left^{1-beta} + (1-gamma) D_right^{1-beta}) u`` at the right
end ``z_{i+1}`` of its control volume minus the flux at its left end
``z_i``.  With piecewise-linear functions the flux at a midpoint is a
sum of piece fluxes, one per piece ``[x_k, x_{k+1}]``, each a difference of
powers ``|x_m - z|**beta`` at the piece's two nodes divided by its length
and weighted by gamma left of ``z`` and by gamma - 1 right of it; the
piece that holds ``z`` is split by it.  A hat's flux is the difference of
the piece fluxes of the two pieces it lies on, so one formula gives every
matrix entry, the first row of a Toeplitz tail included, and, through the
two boundary half-hats, the Dirichlet terms of the right-hand side; the
node coordinates double as the prefix sums of the step lengths, so each
entry costs O(1) and the whole assembly O(N^2).
The dense assembly is blocked: it fills the matrix, or a block of rows and
columns of it, through three block buffers allocated once per call, each
holding as many rows as fit in a fixed budget of entries, so the buffers
stay in L2 cache and the peak memory is the result plus a bound that does
not grow with N (until one row outgrows the budget).  A
preconditioned solve on a pure power mesh with odd N and constant diffusion
holds one finest matrix, whose scaled leading blocks are its coarse levels
(1.05x the finest matrix at N + 1 = 4096); other meshes without a tail, or
variable diffusion, add rediscretized coarse levels, and a mesh with a tail
holds only the borders of its levels.
"""

from __future__ import annotations

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
    "SymToeplitzOperator",
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


class SymToeplitzOperator:
    """Matrix whose trailing ``m x m`` block is symmetric Toeplitz:

        [ rows        ]   rows: the first b rows, dense, b x N
        [ cols | tail ]   cols: the tail rows' border columns, dense, m x b

    This is the FVE matrix of a mesh whose last ``m`` nodes lie in a uniform
    tail (constant diffusion, ``gamma = 1/2``); the ``b = N - m`` graded
    nodes form the border, which is empty by default, as on the uniform
    grid.  The tail is stored by its first row, row ``b`` of the matrix.  It
    stores ``N^2 - m^2`` numbers plus O(m), and a product costs
    ``N^2 - m^2`` multiply-adds plus real FFTs of a circulant embedding of
    the tail, whose size is the first power of two ``>= 2m - 1``.
    """

    def __init__(
        self,
        first_row: np.ndarray,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ):
        row = np.asarray(first_row, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise AssemblyError("first_row must be a nonempty 1-D array")
        m = row.size
        rows = np.empty((0, m)) if rows is None else rows
        cols = np.empty((m, 0)) if cols is None else cols
        b, n = rows.shape
        if n != b + m or cols.shape != (m, b):
            raise AssemblyError("border and tail shapes do not fit together")
        self.rows, self.cols, self.first_row = rows, cols, row
        self._circ_size = 1 << (2 * m - 2).bit_length()
        self._circ_fft: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.rows.shape[1]
        return (n, n)

    @property
    def border(self) -> int:
        return self.rows.shape[0]

    def _fft(self) -> np.ndarray:
        if self._circ_fft is None:
            t = self.first_row
            circ = np.zeros(self._circ_size)
            circ[: t.size] = t
            circ[circ.size - t.size + 1 :] = t[1:][::-1]
            self._circ_fft = np.fft.rfft(circ)
        return self._circ_fft

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        b, size = self.border, self._circ_size
        out = np.empty(v.size)
        out[:b] = self.rows @ v
        out[b:] = np.fft.irfft(self._fft() * np.fft.rfft(v[b:], size), size)[: v.size - b]
        out[b:] += self.cols @ v[:b]
        return out

    def diagonal(self) -> np.ndarray:
        return np.concatenate((np.diag(self.rows), np.full(self.first_row.size, self.first_row[0])))

    def to_dense(self) -> np.ndarray:
        """The matrix: the border, then tail row ``i`` as ``t[i:0:-1]``
        followed by ``t[:m-i]``, copied straight from a sliding window over
        the first row reflected about ``t_0``."""
        b, t = self.border, self.first_row
        a = np.empty(self.shape)
        a[:b] = self.rows
        a[b:, :b] = self.cols
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((t[:0:-1], t)), t.size)
        a[b:, b:] = windows[::-1]
        return a

    def scale_rows(self, h_rows: np.ndarray) -> "SymToeplitzOperator":
        """Divide row ``i`` by ``h_rows[i]`` in place, the tail by
        ``h_rows[b]``, the step of its first row: the tail rows share one step
        up to rounding, so it stays Toeplitz; the circulant FFT of the
        unscaled tail is dropped."""
        b = self.border
        self.rows /= h_rows[:b, None]
        self.cols /= h_rows[b:, None]
        self.first_row = self.first_row / h_rows[b]
        self._circ_fft = None
        return self


LinearOperator = DenseOperator | SymToeplitzOperator


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


def uniform_toeplitz(n: int, beta: float, diffusion: float = 1.0) -> LinearOperator:
    """Symmetric Toeplitz operator, with no border, of the discretization on
    the uniform grid of ``n`` nodes.

    Valid only for constant diffusion and ``gamma = 1/2``, where the matrix
    entries of rows and columns inside a uniform run of steps depend on
    ``|i - j|`` alone.
    """
    if n < 1:
        raise AssemblyError("n must be >= 1")
    return assemble_operator(uniform_grid(n), FdeProblem(beta, 0.5, diffusion))


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


def assemble_operator(grid: Grid, problem: FdeProblem, scaled: bool = False) -> LinearOperator:
    """Assemble the coefficient operator alone, row-scaled if ``scaled``.

    With constant diffusion and ``gamma = 1/2`` the rows and columns of a
    uniform tail form a symmetric Toeplitz block: a grid with a uniform tail
    gets a :class:`SymToeplitzOperator` whose border rows and the tail's
    first row, rows ``0 .. b`` of the matrix, come from one
    :func:`assemble_matrix` block and the border columns from a second
    (the uniform grid one with no border).
    Every other case gets the dense matrix of :func:`assemble_matrix`, which
    is also what a caller that factors the matrix calls directly.
    ``scaled`` applies the row scaling of :func:`row_scale` to the operator,
    for callers (the coarse multigrid levels) that need no right-hand side.
    """
    n = grid.n
    toeplitz = not callable(problem.diffusion) and problem.gamma == 0.5
    b = _tail_start(grid) if toeplitz else n
    if b < n:
        top = assemble_matrix(grid, problem, rows=(0, b + 1)).entries
        op: LinearOperator = SymToeplitzOperator(
            top[b, b:], top[:b], assemble_matrix(grid, problem, rows=(b, n), cols=(0, b)).entries
        )
    else:
        op = assemble_matrix(grid, problem)
    return op.scale_rows(grid.steps[:-1]) if scaled else op


def assemble_system(grid: Grid, problem: FdeProblem) -> FveSystem:
    """Assemble the right-hand side of :func:`assemble_rhs`, then the
    operator of :func:`assemble_operator`.  The right-hand side goes first:
    its quadrature guard counts the solve's largest O(N) need, so a grid too
    large for memory is refused before the operator's buffers are made."""
    rhs = assemble_rhs(grid, problem)
    return FveSystem(assemble_operator(grid, problem), rhs, grid, problem)


def row_scale(system: FveSystem) -> FveSystem:
    """Multiply both sides of the system by ``diag(1/h_i)``.

    The scaling removes the grid-dependent measure factor from each
    equation, which the multigrid hierarchy relies on.  The operator's
    ``scale_rows`` divides it in place: a dense matrix row by row, a
    Toeplitz operator's border row by row and its tail by the step of the
    tail's first row, so it stays Toeplitz.

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
