"""Finite-volume-element assembly for the conservative two-sided fractional
diffusion equation on an arbitrary grid.

The equation on (0, 1) is

    -d/dx ( K(x) * ( gamma * D_left^{1-beta} + (1-gamma) * D_right^{1-beta} ) ) u = f,

with Dirichlet data ``u(0) = u_left``, ``u(1) = u_right``, where D_left and
D_right are the left/right Caputo derivatives of order ``1 - beta``,
``0 < beta < 1``.  Integrating over the control volumes
``[x_{i-1/2}, x_{i+1/2}]`` with piecewise-linear trial functions yields a
dense N x N system.  With constant K and gamma = 1/2, the rows and columns
of the nodes in a uniform run of steps form a symmetric Toeplitz block.  On
the uniform grid that is the whole matrix; a graded mesh that ends in a
uniform tail (the composite and blended meshes) gets a bordered operator:
dense rows and columns for its graded nodes around a Toeplitz tail, whose
product goes through FFTs.

Every matrix entry is a short combination of powers of distances between
cell midpoints ``x_{i +- 1/2}`` and nodes ``x_m``; the node coordinates
double as the prefix sums of the step lengths, so each entry costs O(1) and
the whole assembly O(N^2).  The dense assembly is blocked: it fills the
matrix, or a block of rows and columns of it, a few dozen rows at a time
through block buffers allocated once per call, so its peak memory is the
result plus O(block * N).  Row scaling divides dense parts in place.  A
preconditioned solve on a mesh without a tail (a pure power map, variable
diffusion or gamma != 1/2) holds one finest matrix plus its coarse levels,
about 1.36x the finest matrix at N + 1 = 4096; with a tail it holds only the
borders of its levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .mesh import Grid

__all__ = [
    "AssemblyError",
    "FdeProblem",
    "DenseOperator",
    "SymToeplitzOperator",
    "BorderedToeplitzOperator",
    "FveSystem",
    "assemble_matrix",
    "assemble_rhs",
    "assemble_system",
    "toeplitz_coefficients",
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
    the cell midpoints and must be positive there.  ``source`` is integrated
    over the control volumes, so it is evaluated at quadrature points strictly
    inside (0, 1); it may be singular at either end of the interval.
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
        if np.any(k <= 0.0):
            raise AssemblyError("diffusion coefficient must be positive")
        return k


@dataclass(frozen=True)
class DenseOperator:
    """Dense operator: a square matrix, or a block of one."""

    entries: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        return self.entries @ v

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def to_dense(self) -> np.ndarray:
        return self.entries


class SymToeplitzOperator:
    """Symmetric Toeplitz operator stored by its first row.

    ``scale`` multiplies the whole matrix; the matrix-vector product embeds
    the Toeplitz matrix into a circulant whose size is the first power of two
    ``>= 2N - 1`` and goes through real FFTs, costing O(N log N).
    """

    def __init__(self, first_row: np.ndarray, scale: float = 1.0):
        row = np.asarray(first_row, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise AssemblyError("first_row must be a nonempty 1-D array")
        self.first_row = row
        self.scale = float(scale)
        self._circ_size = 1 << (2 * row.size - 2).bit_length()
        self._circ_fft: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.first_row.size
        return (n, n)

    def _fft(self) -> np.ndarray:
        if self._circ_fft is None:
            n = self.first_row.size
            circ = np.zeros(self._circ_size)
            circ[:n] = self.first_row
            circ[circ.size - n + 1 :] = self.first_row[1:][::-1]
            self._circ_fft = np.fft.rfft(circ)
        return self._circ_fft

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n = self.first_row.size
        if v.shape != (n,):
            raise AssemblyError("dimension mismatch in matvec")
        size = self._circ_size
        prod = np.fft.irfft(self._fft() * np.fft.rfft(v, size), size)[:n]
        prod *= self.scale
        return prod

    def diagonal(self) -> np.ndarray:
        return np.full(self.first_row.size, self.scale * self.first_row[0])

    def to_dense(self) -> np.ndarray:
        a = scipy.linalg.toeplitz(self.first_row)
        a *= self.scale
        return a

    def with_scale(self, factor: float) -> "SymToeplitzOperator":
        out = SymToeplitzOperator(self.first_row, self.scale * factor)
        out._circ_fft = self._circ_fft
        return out


class BorderedToeplitzOperator:
    """Matrix whose trailing ``m x m`` block is symmetric Toeplitz:

        [ rows        ]   rows: the first b rows, dense, b x N
        [ cols | tail ]   cols: the tail rows' border columns, dense, m x b

    This is the FVE matrix of a mesh whose last ``m`` nodes lie in a uniform
    tail (constant diffusion, ``gamma = 1/2``); the ``b = N - m`` graded
    nodes form the border.  ``step`` is the tail's step length.  It stores
    ``N^2 - m^2`` numbers plus O(m), and a product costs ``N^2 - m^2``
    multiply-adds plus O(m log m).
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, tail: SymToeplitzOperator, step: float):
        b, n = rows.shape
        if cols.shape != (n - b, b) or tail.shape != (n - b, n - b):
            raise AssemblyError("border and tail shapes do not fit together")
        self.rows, self.cols, self.tail, self.step = rows, cols, tail, float(step)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.rows.shape[1]
        return (n, n)

    @property
    def border(self) -> int:
        return self.rows.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        b = self.border
        out = np.empty(v.size)
        out[:b] = self.rows @ v
        out[b:] = self.tail.matvec(v[b:])
        out[b:] += self.cols @ v[:b]
        return out

    def diagonal(self) -> np.ndarray:
        return np.concatenate((np.diag(self.rows), self.tail.diagonal()))

    def to_dense(self) -> np.ndarray:
        b = self.border
        a = np.empty(self.shape)
        a[:b] = self.rows
        a[b:, :b] = self.cols
        a[b:, b:] = self.tail.to_dense()
        return a

    def scale_rows(self, h_rows: np.ndarray) -> "BorderedToeplitzOperator":
        """Divide row ``i`` by ``h_rows[i]`` (the dense parts in place) and the
        tail by its step, whose rows share one step up to rounding."""
        b = self.border
        self.rows /= h_rows[:b, None]
        self.cols /= h_rows[b:, None]
        tail = self.tail.with_scale(1.0 / self.step)
        return BorderedToeplitzOperator(self.rows, self.cols, tail, self.step)


LinearOperator = DenseOperator | SymToeplitzOperator | BorderedToeplitzOperator


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


#: Rows per assembly block, so that a block's power table and its second
#: differences stay in L2 cache; at N = 4095, 16 to 256 rows are within noise.
_BLOCK_ROWS = 64


def assemble_matrix(
    grid: Grid,
    problem: FdeProblem,
    rows: tuple[int, int] | None = None,
    cols: tuple[int, int] | None = None,
) -> DenseOperator:
    """Assemble the dense FVE coefficient matrix on an arbitrary grid, or the
    block of it in the row range ``rows`` and the column range ``cols``
    (half-open ``(start, stop)`` pairs; the full range by default).

    Row ``i`` combines powers ``|x_m - x_{i-1/2}|**beta`` and
    ``|x_m - x_{i+1/2}|**beta`` over the nodes ``m`` of its columns.  The
    block is filled in blocks of :data:`_BLOCK_ROWS` rows (proportionally
    more when it has fewer columns than the matrix); each block
    evaluates the power table of its own ``rows + 1`` midpoints, its first
    differences divided by the steps and its second differences in the node
    index, which row ``i`` uses for its left midpoint and row ``i - 1`` for
    its right one.  The three tables live in buffers allocated once per call
    and are filled by in-place ufuncs, which write the kernel straight into
    the matrix rows and scale them there; only each block's own square is
    split into its lower and upper triangles.  Every entry comes from the
    same arithmetic whatever the block size and the ranges, and the memory
    used beyond the result is O(block * N).
    """
    x = grid.points
    n = grid.n
    r0, r1 = (0, n) if rows is None else rows
    c0, c1 = (0, n) if cols is None else cols
    if not (0 <= r0 <= r1 <= n and 0 <= c0 <= c1 <= n):
        raise AssemblyError("block ranges must lie within the matrix")
    beta = float(problem.beta)
    gamma = float(problem.gamma)
    gam1 = math.gamma(beta + 1.0)

    hp = np.empty(n + 2)
    hp[1:] = grid.steps
    hp[0] = 1.0  # unused slot
    inv_h = 1.0 / hp

    z = 0.5 * (x[:-1] + x[1:])  # cell midpoints x_{t+1/2}, t = 0..n
    kz = problem.diffusion_at(z)

    a = np.empty((r1 - r0, c1 - c0))
    # column j of the block uses the nodes c0 + j .. c0 + j + 2
    xc = x[c0 : c1 + 2]
    inv_hc = inv_h[c0 + 1 : c1 + 2]
    # block buffers, reused by every block: powers, first and second differences
    block = max(_BLOCK_ROWS * n // max(c1 - c0, 1), 1)
    size = min(block, r1 - r0) + 1
    w_buf = np.empty((size, xc.size))
    e_buf = np.empty((size, xc.size - 1))
    d_buf = np.empty((size, xc.size - 2))
    for i0 in range(r0, r1, block):
        i1 = min(i0 + block, r1)
        r = i1 - i0 + 1
        # w[l, m] = |x_{c0+m} - x_{i0+l-1/2}|**beta; row i's midpoints are rows i-i0, i-i0+1
        w = w_buf[:r]
        np.subtract(xc[None, :], z[i0 : i1 + 1, None], out=w)
        np.abs(w, out=w)
        w **= beta
        # e_j = (w_{j+1}-w_j)/h_{j+1}; value at column j (1-based) is e_j - e_{j-1}
        e = e_buf[:r]
        np.subtract(w[:, 1:], w[:, :-1], out=e)
        e *= inv_hc
        d = d_buf[:r]
        np.subtract(e[:, 1:], e[:, :-1], out=d)
        out = a[i0 - r0 : i1 - r0]
        np.multiply(kz[i0:i1, None], d[:-1], out=out)
        d[1:] *= kz[i0 + 1 : i1 + 1, None]
        out -= d[1:]

        # left of the block's band the gamma kernel, right of it the 1-gamma one
        lo = min(max(i0 - 1, 0, c0), c1) - c0
        hi = max(min(i1 + 1, c1), c0) - c0
        out[:, :lo] *= gamma
        right = out[:, hi:]
        right *= 1.0 - gamma
        np.subtract(0.0, right, out=right)  # 0 - y, not -y: zeros stay +0
        sq = out[:, lo:hi]
        k = i0 - c0 - lo  # the square's column k is the block's first row's diagonal
        sq[:] = np.tril(sq, k - 2) * gamma - (1.0 - gamma) * np.triu(sq, k + 2)

        if lo < hi:  # the band meets the block's columns
            t = np.arange(i0, i1)
            _fill_bands(out, t, t - i0, w, inv_h, kz[t], kz[t + 1], gamma, (c0, c1))
        out /= gam1
        if not np.all(np.isfinite(out)):
            raise AssemblyError("assembled matrix has non-finite entries")
    return DenseOperator(a)


def _fill_bands(out, t, l, w, inv_h, km, kp, gamma, cols=None) -> None:
    """Overwrite the entries of the three central bands, which mix the left
    and right kernels, in the rows ``t`` (local rows ``l`` of ``out``) and the
    columns ``cols = (c0, c1)`` (all of ``out``'s by default, local columns
    from ``c0``).

    ``w[l]`` holds the powers about row ``t``'s left midpoint and
    ``w[l + 1]`` those about its right one, from node ``c0`` on; the entry in
    column ``c`` uses the nodes ``c .. c + 2`` and the steps ``h_{c+1}``,
    ``h_{c+2}``.
    """
    c0, c1 = (0, out.shape[1]) if cols is None else cols
    for offset in (0, -1, 1):
        col = t + offset
        inside = (col >= c0) & (col < c1)
        c, li, j = col[inside], l[inside], col[inside] - c0
        km_i, kp_i = km[inside], kp[inside]
        w0, w1, w2 = w[li, j], w[li, j + 1], w[li, j + 2]  # about the left midpoint
        p0, p1, p2 = w[li + 1, j], w[li + 1, j + 1], w[li + 1, j + 2]  # the right one
        ih1, ih2 = inv_h[c + 1], inv_h[c + 2]
        if offset == 0:
            out[li, j] = km_i * (w0 * ih1 + (1.0 - gamma) * (w1 - w2) * ih2) - kp_i * (
                gamma * (p0 - p1) * ih1 - p1 * ih2
            )
        elif offset == -1:
            out[li, j] = km_i * (gamma * (w0 - w1) * ih1 - w1 * ih2) - kp_i * gamma * (
                (p0 - p1) * ih1 + (p2 - p1) * ih2
            )
        else:
            out[li, j] = km_i * (1.0 - gamma) * ((w1 - w0) * ih1 + (w1 - w2) * ih2) - kp_i * (
                p1 * ih1 + (1.0 - gamma) * (p1 - p2) * ih2
            )


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
    The boundary contributions enter through kernels evaluated at the cell
    midpoints; the first and last midpoints carry modified kernels because
    they sit outside ``[x_1, x_N]``.
    """
    x = grid.points
    n = grid.n
    beta = float(problem.beta)
    gamma = float(problem.gamma)
    gam1 = math.gamma(beta + 1.0)
    ul = float(problem.u_left)
    ur = float(problem.u_right)

    if problem.source is None:
        b = np.zeros(n)
    else:
        b = _control_volume_loads(grid, problem.source)

    if ul == 0.0 and ur == 0.0:
        return b

    z = 0.5 * (x[:-1] + x[1:])
    kz = problem.diffusion_at(z)
    h1 = grid.steps[0]
    hn1 = grid.steps[-1]
    x1 = x[1]
    xn = x[n]

    g = np.empty(n + 1)
    zi = z[1:-1] if n >= 2 else z[1:0]
    # interior midpoints x_{3/2} .. x_{N-1/2}
    g[1:n] = (ul * gamma / h1) * ((zi - x1) ** beta - zi**beta) + (
        ur * (1.0 - gamma) / hn1
    ) * ((1.0 - zi) ** beta - (xn - zi) ** beta)
    # leftmost midpoint x_{1/2} sits left of x_1
    z0 = z[0]
    g[0] = -(ul * gamma / h1) * z0**beta + (1.0 - gamma) * (
        -(ul / h1) * (x1 - z0) ** beta
        + (ur / hn1) * ((1.0 - z0) ** beta - (xn - z0) ** beta)
    )
    # rightmost midpoint x_{N+1/2} sits right of x_N
    zn = z[n]
    g[n] = (
        (ul * gamma / h1) * ((zn - x1) ** beta - zn**beta)
        + (ur * gamma / hn1) * (zn - xn) ** beta
        + (ur * (1.0 - gamma) / hn1) * (1.0 - zn) ** beta
    )

    b += (kz[1:] * g[1:] - kz[:-1] * g[:-1]) / gam1
    if not np.all(np.isfinite(b)):
        raise AssemblyError("assembled right-hand side has non-finite entries")
    return b


def toeplitz_coefficients(beta: float, count: int) -> np.ndarray:
    """First ``count`` entries ``t_0, t_1, ...`` of the uniform-mesh first row,
    normalized.

    With constant diffusion ``K`` and ``gamma = 1/2`` on a uniform mesh of
    step ``h``, entry ``(i, j)`` of the FVE matrix is
    ``K h^(beta-1) / (2^beta Gamma(beta+1)) * t_|i-j|``.  The same numbers are
    the cosine coefficients of the generating function
    ``t_0 + 2 sum t_k cos(k theta)``.
    """
    if count < 1:
        raise AssemblyError("the number of coefficients must be >= 1")
    t = np.empty(count)
    t[0] = 3.0 - 3.0**beta
    if count > 1:
        t[1] = 0.5 * (3.0 ** (beta + 1.0) - 4.0 - 5.0**beta)
    if count > 2:
        k = np.arange(2.0, count)
        t[2:] = 0.5 * (
            3.0 * (2.0 * k + 1.0) ** beta
            - 3.0 * (2.0 * k - 1.0) ** beta
            + (2.0 * k - 3.0) ** beta
            - (2.0 * k + 3.0) ** beta
        )
    return t


def uniform_toeplitz(
    n: int,
    beta: float,
    diffusion: float = 1.0,
    gamma: float = 0.5,
    step: float | None = None,
) -> SymToeplitzOperator:
    """Symmetric Toeplitz operator of the discretization on ``n`` nodes with
    the uniform step ``step`` (by default ``1/(n+1)``, the uniform grid).

    Valid only for constant diffusion and ``gamma = 1/2``, where the matrix
    entries of rows and columns inside a uniform run of steps depend on
    ``|i - j|`` alone: this is the whole matrix of the uniform grid and the
    tail block of a mesh with a uniform tail.
    """
    if gamma != 0.5:
        raise AssemblyError("the symmetric Toeplitz form requires gamma = 1/2")
    if n < 1:
        raise AssemblyError("n must be >= 1")
    h = 1.0 / (n + 1) if step is None else step
    c = diffusion * h ** (beta - 1.0) / (2.0**beta * math.gamma(beta + 1.0))
    return SymToeplitzOperator(c * toeplitz_coefficients(beta, n))


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


def assemble_system(grid: Grid, problem: FdeProblem, dense: bool = False) -> FveSystem:
    """Assemble operator and right-hand side.

    With constant diffusion and ``gamma = 1/2`` the rows and columns of a
    uniform tail form a symmetric Toeplitz block: the uniform grid gets a
    :class:`SymToeplitzOperator`, a graded mesh with a uniform tail a
    :class:`BorderedToeplitzOperator` whose border rows and columns come from
    :func:`assemble_matrix`.  Every other case, and a graded mesh when
    ``dense`` is true (for a caller that factors the matrix), gets the dense
    matrix of :func:`assemble_matrix`.
    """
    n = grid.n
    toeplitz = not callable(problem.diffusion) and problem.gamma == 0.5
    b = _tail_start(grid) if toeplitz else n
    if b == 0:
        op: LinearOperator = uniform_toeplitz(n, problem.beta, float(problem.diffusion))
    elif b < n and not dense:
        step = (grid.points[-1] - grid.points[b]) / (n - b + 1)
        op = BorderedToeplitzOperator(
            assemble_matrix(grid, problem, rows=(0, b)).entries,
            assemble_matrix(grid, problem, rows=(b, n), cols=(0, b)).entries,
            uniform_toeplitz(n - b, problem.beta, float(problem.diffusion), step=step),
            step,
        )
    else:
        op = assemble_matrix(grid, problem)
    return FveSystem(op, assemble_rhs(grid, problem), grid, problem)


def row_scale(system: FveSystem) -> FveSystem:
    """Multiply both sides of the system by ``diag(1/h_i)``.

    The scaling removes the grid-dependent measure factor from each
    equation, which the multigrid hierarchy relies on.  A Toeplitz operator
    stays Toeplitz (uniform mesh implies a scalar factor ``n + 1``), and so
    does the tail of a bordered one, divided by its step.

    Dense parts are scaled in place: the returned system holds the very
    arrays of ``system.operator``, so the argument is consumed and its
    matrix must not be read as unscaled afterwards.  No second N x N matrix
    is made.
    """
    if system.scaled:
        raise AssemblyError("system is already row-scaled")
    h_rows = system.grid.steps[:-1]  # h_1 .. h_N
    op = system.operator
    if isinstance(op, SymToeplitzOperator):
        factor = float(system.grid.n + 1)
        return replace(system, operator=op.with_scale(factor), rhs=system.rhs * factor, scaled=True)
    if isinstance(op, BorderedToeplitzOperator):
        op = op.scale_rows(h_rows)
    else:
        entries = op.entries  # op is frozen: divide the array, not the field
        entries /= h_rows[:, None]
    return replace(system, operator=op, rhs=system.rhs / h_rows, scaled=True)
