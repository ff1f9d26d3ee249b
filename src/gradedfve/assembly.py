"""Finite-volume-element assembly for the conservative two-sided fractional
diffusion equation on an arbitrary grid.

The equation on (0, 1) is

    -d/dx ( K(x) * ( gamma * D_left^{1-beta} + (1-gamma) * D_right^{1-beta} ) ) u = f,

with Dirichlet data ``u(0) = u_left``, ``u(1) = u_right``, where D_left and
D_right are the left/right Caputo derivatives of order ``1 - beta``,
``0 < beta < 1``.  Integrating over the control volumes
``[x_{i-1/2}, x_{i+1/2}]`` with piecewise-linear trial functions yields a
dense N x N system; on a uniform mesh with constant K and gamma = 1/2 the
matrix is symmetric Toeplitz and a compact FFT-ready representation is
available.

Every matrix entry is a short combination of powers of distances between
cell midpoints ``x_{i +- 1/2}`` and nodes ``x_m``; the node coordinates
double as the prefix sums of the step lengths, so each entry costs O(1) and
the whole assembly O(N^2).  The dense assembly is blocked: it fills the
matrix a few dozen rows at a time through block buffers allocated once per
call, so its peak memory is the matrix plus O(block * N).  Row scaling
divides a dense matrix in place, so a preconditioned solve holds one finest
matrix plus its coarse levels (about 1.36x the finest matrix at N + 1 = 4096).
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
    """Dense square operator."""

    entries: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[0],):
            raise AssemblyError("dimension mismatch in matvec")
        return self.entries @ v

    def to_dense(self) -> np.ndarray:
        return self.entries


class SymToeplitzOperator:
    """Symmetric Toeplitz operator stored by its first row.

    ``scale`` multiplies the whole matrix; the matrix-vector product embeds
    the Toeplitz matrix into a circulant of size 2N and goes through real
    FFTs, costing O(N log N).
    """

    def __init__(self, first_row: np.ndarray, scale: float = 1.0):
        row = np.asarray(first_row, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise AssemblyError("first_row must be a nonempty 1-D array")
        self.first_row = row
        self.scale = float(scale)
        self._circ_fft: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        n = self.first_row.size
        return (n, n)

    def _fft(self) -> np.ndarray:
        if self._circ_fft is None:
            n = self.first_row.size
            circ = np.zeros(2 * n)
            circ[:n] = self.first_row
            circ[n + 1 :] = self.first_row[1:][::-1]
            self._circ_fft = np.fft.rfft(circ)
        return self._circ_fft

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n = self.first_row.size
        if v.shape != (n,):
            raise AssemblyError("dimension mismatch in matvec")
        prod = np.fft.irfft(self._fft() * np.fft.rfft(v, 2 * n), 2 * n)[:n]
        return self.scale * prod

    def to_dense(self) -> np.ndarray:
        a = scipy.linalg.toeplitz(self.first_row)
        a *= self.scale
        return a

    def with_scale(self, factor: float) -> "SymToeplitzOperator":
        out = SymToeplitzOperator(self.first_row, self.scale * factor)
        out._circ_fft = self._circ_fft
        return out


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


#: Rows per assembly block, so that a block's power table and its second
#: differences stay in L2 cache; at N = 4095, 16 to 256 rows are within noise.
_BLOCK_ROWS = 64


def assemble_matrix(grid: Grid, problem: FdeProblem) -> DenseOperator:
    """Assemble the dense FVE coefficient matrix on an arbitrary grid.

    Row ``i`` combines powers ``|x_m - x_{i-1/2}|**beta`` and
    ``|x_m - x_{i+1/2}|**beta`` over all nodes ``m``.  The matrix is filled
    in blocks of :data:`_BLOCK_ROWS` rows; each block evaluates the power
    table of its own ``rows + 1`` midpoints, its first differences divided by
    the steps and its second differences in the node index, which row ``i``
    uses for its left midpoint and row ``i - 1`` for its right one.  The
    three tables live in buffers allocated once per call and are filled by
    in-place ufuncs, which write the kernel straight into the matrix rows and
    scale them there; only each block's own square is split into its lower
    and upper triangles.  Every entry comes from the same arithmetic whatever
    the block size, and the memory used beyond the matrix is O(block * N).
    """
    x = grid.points
    n = grid.n
    beta = float(problem.beta)
    gamma = float(problem.gamma)
    gam1 = math.gamma(beta + 1.0)

    hp = np.empty(n + 2)
    hp[1:] = grid.steps
    hp[0] = 1.0  # unused slot
    inv_h = 1.0 / hp

    z = 0.5 * (x[:-1] + x[1:])  # cell midpoints x_{t+1/2}, t = 0..n
    kz = problem.diffusion_at(z)

    a = np.empty((n, n))
    # block buffers, reused by every block: powers, first and second differences
    rows = min(_BLOCK_ROWS, n)
    w_buf = np.empty((rows + 1, n + 2))
    e_buf = np.empty((rows + 1, n + 1))
    d_buf = np.empty((rows + 1, n))
    for i0 in range(0, n, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n)
        r = i1 - i0 + 1
        # w[l, m] = |x_m - x_{i0+l-1/2}|**beta; row i's midpoints are rows i-i0, i-i0+1
        w = w_buf[:r]
        np.subtract(x[None, :], z[i0 : i1 + 1, None], out=w)
        np.abs(w, out=w)
        w **= beta
        # e_j = (w_{j+1}-w_j)/h_{j+1}; value at column j (1-based) is e_j - e_{j-1}
        e = e_buf[:r]
        np.subtract(w[:, 1:], w[:, :-1], out=e)
        e *= inv_h[1:]
        d = d_buf[:r]
        np.subtract(e[:, 1:], e[:, :-1], out=d)
        out = a[i0:i1]
        np.multiply(kz[i0:i1, None], d[:-1], out=out)
        d[1:] *= kz[i0 + 1 : i1 + 1, None]
        out -= d[1:]

        # left of the block's band the gamma kernel, right of it the 1-gamma one
        lo, hi = max(i0 - 1, 0), min(i1 + 1, n)
        out[:, :lo] *= gamma
        right = out[:, hi:]
        right *= 1.0 - gamma
        np.subtract(0.0, right, out=right)  # 0 - y, not -y: zeros stay +0
        sq = out[:, lo:hi]
        sq[:] = np.tril(sq, i0 - 2 - lo) * gamma - (1.0 - gamma) * np.triu(sq, i0 + 2 - lo)

        t = np.arange(i0, i1)
        _fill_bands(out, t, t - i0, w, inv_h, kz[t], kz[t + 1], gamma)
        out /= gam1
        if not np.all(np.isfinite(out)):
            raise AssemblyError("assembled matrix has non-finite entries")
    return DenseOperator(a)


def _fill_bands(out, t, l, w, inv_h, km, kp, gamma) -> None:
    """Overwrite the three central bands of the rows ``t`` (local rows ``l``
    of ``out``), whose entries mix the left and right kernels.

    ``w[l]`` holds the powers about row ``t``'s left midpoint and ``w[l + 1]``
    those about its right one.
    """
    n = out.shape[1]
    # main diagonal
    out[l, t] = km * (
        w[l, t] * inv_h[t + 1]
        + (1.0 - gamma) * (w[l, t + 1] - w[l, t + 2]) * inv_h[t + 2]
    ) - kp * (
        gamma * (w[l + 1, t] - w[l + 1, t + 1]) * inv_h[t + 1]
        - w[l + 1, t + 1] * inv_h[t + 2]
    )
    # first subdiagonal
    sub = t >= 1
    u, lu = t[sub], l[sub]
    out[lu, u - 1] = km[sub] * (
        gamma * (w[lu, u - 1] - w[lu, u]) * inv_h[u]
        - w[lu, u] * inv_h[u + 1]
    ) - kp[sub] * gamma * (
        (w[lu + 1, u - 1] - w[lu + 1, u]) * inv_h[u]
        + (w[lu + 1, u + 1] - w[lu + 1, u]) * inv_h[u + 1]
    )
    # first superdiagonal
    sup = t <= n - 2
    v, lv = t[sup], l[sup]
    out[lv, v + 1] = km[sup] * (1.0 - gamma) * (
        (w[lv, v + 2] - w[lv, v + 1]) * inv_h[v + 2]
        + (w[lv, v + 2] - w[lv, v + 3]) * inv_h[v + 3]
    ) - kp[sup] * (
        w[lv + 1, v + 2] * inv_h[v + 2]
        + (1.0 - gamma) * (w[lv + 1, v + 2] - w[lv + 1, v + 3]) * inv_h[v + 3]
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
    n: int, beta: float, diffusion: float = 1.0, gamma: float = 0.5
) -> SymToeplitzOperator:
    """Symmetric Toeplitz operator of the uniform-mesh discretization.

    Valid only for constant diffusion and ``gamma = 1/2`` on the uniform
    grid with ``n`` interior points, where the matrix entries depend on
    ``|i - j|`` alone.
    """
    if gamma != 0.5:
        raise AssemblyError("the symmetric Toeplitz form requires gamma = 1/2")
    if n < 1:
        raise AssemblyError("n must be >= 1")
    h = 1.0 / (n + 1)
    c = diffusion * h ** (beta - 1.0) / (2.0**beta * math.gamma(beta + 1.0))
    return SymToeplitzOperator(c * toeplitz_coefficients(beta, n))


def assemble_system(grid: Grid, problem: FdeProblem) -> FveSystem:
    """Assemble operator and right-hand side; take the Toeplitz fast path
    when the mesh is uniform, the diffusion constant and gamma = 1/2.
    """
    uniform = np.ptp(grid.steps) <= 1e-14 * grid.steps[0]
    const_k = not callable(problem.diffusion)
    if uniform and const_k and problem.gamma == 0.5:
        op: LinearOperator = uniform_toeplitz(
            grid.n, problem.beta, float(problem.diffusion), problem.gamma
        )
    else:
        op = assemble_matrix(grid, problem)
    return FveSystem(op, assemble_rhs(grid, problem), grid, problem)


def row_scale(system: FveSystem) -> FveSystem:
    """Multiply both sides of the system by ``diag(1/h_i)``.

    The scaling removes the grid-dependent measure factor from each
    equation, which the multigrid hierarchy relies on.  A Toeplitz operator
    stays Toeplitz (uniform mesh implies a scalar factor ``n + 1``).

    A dense operator is scaled in place: the returned system holds the very
    array of ``system.operator.entries``, so the argument is consumed and
    its matrix must not be read as unscaled afterwards.  No second N x N
    matrix is made.
    """
    if system.scaled:
        raise AssemblyError("system is already row-scaled")
    h_rows = system.grid.steps[:-1]  # h_1 .. h_N
    if isinstance(system.operator, SymToeplitzOperator):
        factor = float(system.grid.n + 1)
        op: LinearOperator = system.operator.with_scale(factor)
        rhs = system.rhs * factor
    else:
        entries = system.operator.entries
        entries /= h_rows[:, None]
        op = DenseOperator(entries)
        rhs = system.rhs / h_rows
    return replace(system, operator=op, rhs=rhs, scaled=True)
