"""Geometric multigrid for the row-scaled FVE systems.

The hierarchy halves the number of interior points per level (keeping the
even-indexed nodes).  The finest level is the caller's row-scaled operator;
every coarser level rediscretizes the equation on its grid through the same
``assemble_system`` and ``row_scale`` path.  Every level holds an operator,
not an array: coarsening keeps the even nodes, so a uniform tail stays a
uniform tail, and each level of a mesh with one is a bordered Toeplitz
operator (a pure Toeplitz one on the uniform grid) whose products cost
O(N log N) on the tail.  Dense matrices are formed only where they are the
point: the LU factors of the coarsest level and the small eigenproblem of
the damping estimate.  Grid transfer uses
piecewise-linear interpolation on the non-uniform nodes; restriction is
the weighted transpose of the interpolation (the 1/2 factor that turns the
transpose into full weighting on a uniform grid).  The smoother is one
damped-Jacobi sweep before and after coarse-grid correction, with the
damping weight estimated once from the spectrum of the Jacobi iteration
matrix on a small rediscretization of the same problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .assembly import FdeProblem, FveSystem, LinearOperator, assemble_system, row_scale
# unused here, but perfbench/layers.py wraps multigrid.assemble_matrix
from .assembly import assemble_matrix  # noqa: F401
from .mesh import Grid

__all__ = [
    "MultigridError",
    "OmegaFallbackWarning",
    "SmootherRegion",
    "DEFAULT_REGION",
    "MgLevel",
    "MgHierarchy",
    "coarsen",
    "prolongation",
    "estimate_omega",
    "build_hierarchy",
    "vcycle",
]

OMEGA_FALLBACK = 2.0 / 3.0

#: The damping weight is estimated on the first level with at most this many
#: interior points.
_OMEGA_SIZE = 16

#: Factor on the transposed interpolation; 1/2 makes the residual transfer
#: full weighting on uniform grids, which pairs with rediscretized row-scaled
#: coarse operators.
_RESTRICTION_SCALE = 0.5


class MultigridError(ValueError):
    """Invalid multigrid construction request."""


class OmegaFallbackWarning(UserWarning):
    """No Jacobi weight passed the region test; the classical 2/3 is used."""


@dataclass(frozen=True)
class SmootherRegion:
    """Lens-shaped region of the complex plane used to vet smoother spectra.

    The region is ``{x + iy : x in [x_min, x_max], |y| < boundary(x)}``
    where the boundary is a semicircle tilted by a line,
    ``sqrt(1 - x^2) + slope*(x - 1)``.  ``x_min`` is the left root of the
    boundary, so the boundary is nonnegative on the whole interval.
    """

    slope: float = 0.475
    x_min: float = -1239.0 / 1961.0
    x_max: float = 1.0

    def boundary(self, x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum(1.0 - x * x, 0.0)) + self.slope * (x - 1.0)

    def contains(self, z) -> bool:
        """True if every entry of ``z`` lies strictly inside the lens."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x = z.real
        ok = (x >= self.x_min) & (x <= self.x_max)
        return bool(np.all(ok & (np.abs(z.imag) < self.boundary(x))))


DEFAULT_REGION = SmootherRegion()


def coarsen(grid: Grid) -> Grid:
    """Keep the boundary nodes and every second interior node."""
    n = grid.n
    if n < 4:
        raise MultigridError("coarsening needs at least 4 interior points")
    nc = n // 2
    x = grid.points
    return Grid(np.concatenate(([x[0]], x[2 : 2 * nc + 1 : 2], [x[-1]])))


def prolongation(fine: Grid, coarse: Grid) -> scipy.sparse.csr_matrix:
    """Linear interpolation from coarse to fine interior nodes.

    Even fine nodes coincide with coarse nodes and are copied; odd fine
    nodes are linearly interpolated between their bracketing coarse
    neighbours, with the Dirichlet boundary nodes acting as zero-value
    anchors (the operands are error corrections, which vanish there).
    """
    n, nc = fine.n, coarse.n
    if nc != n // 2 or not np.array_equal(coarse.points[1:-1], fine.points[2 : 2 * nc + 1 : 2]):
        raise MultigridError("coarse grid is not the coarsening of the fine grid")
    xf = fine.points
    even = np.arange(2, n + 1, 2)  # fine nodes 2k coincide with coarse node k
    odd = np.arange(1, n + 1, 2)
    k = (odd - 1) // 2  # left coarse neighbour of fine node 2k+1 (0 = boundary)
    wl = (xf[2 * k + 2] - xf[odd]) / (xf[2 * k + 2] - xf[2 * k])
    left = k >= 1
    right = k + 1 <= nc
    # left weights precede right ones, so each row lists its columns in order
    rows = np.concatenate((even - 1, odd[left] - 1, odd[right] - 1))
    cols = np.concatenate((even // 2 - 1, k[left] - 1, k[right]))
    vals = np.concatenate((np.ones(even.size), wl[left], 1.0 - wl[right]))
    p = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, nc))
    return p.tocsr()


def estimate_omega(
    problem: FdeProblem, small_grid: Grid, matrix: np.ndarray | None = None
) -> float:
    """Estimate the Jacobi damping weight from a small rediscretization.

    The scaled system is assembled on ``small_grid`` (a member of the same
    mesh family with at most ~2^4 interior points), the eigenvalues
    ``lam_j`` of ``D^{-1} A`` are computed, and the weight is scanned over
    ``1.995, 1.990, ..., 0.005``.  Among the candidates for which the whole
    smoother spectrum ``1 - omega*lam_j`` sits inside :data:`DEFAULT_REGION`,
    the one minimizing the damping of the oscillatory half of the spectrum
    (the eigenvalues of largest modulus) is returned; ties go to the larger
    weight.  If no candidate is admissible the classical 2/3 is returned
    with an :class:`OmegaFallbackWarning`.
    """
    if matrix is None:
        a = row_scale(assemble_system(small_grid, problem)).operator.to_dense()
    else:
        a = matrix
    d = np.diag(a).copy()
    if np.any(d == 0.0):
        raise MultigridError("zero diagonal entry; Jacobi smoothing undefined")
    lam = np.linalg.eigvals(a / d[:, None])
    upper = lam[np.argsort(np.abs(lam))][lam.size // 2 :]

    best = None
    best_damp = np.inf
    for k in range(399, 0, -1):
        omega = k * 0.005
        z = 1.0 - omega * lam
        if not DEFAULT_REGION.contains(z):
            continue
        damp = float(np.abs(1.0 - omega * upper).max())
        if damp < best_damp - 1e-15:
            best_damp = damp
            best = omega
    if best is None:
        warnings.warn(
            "no Jacobi weight keeps the smoother spectrum inside the region; "
            "falling back to 2/3",
            OmegaFallbackWarning,
            stacklevel=2,
        )
        return OMEGA_FALLBACK
    return round(best, 3)


@dataclass
class MgLevel:
    grid: Grid
    operator: LinearOperator
    diag: np.ndarray
    prolong: scipy.sparse.csr_matrix | None = None


@dataclass
class MgHierarchy:
    """V-cycle hierarchy: finest level first, direct solver at the bottom."""

    levels: list[MgLevel]
    omega: float
    coarse_lu: tuple = field(repr=False, default=None)

    @property
    def depth(self) -> int:
        """Number of coarsening steps."""
        return len(self.levels) - 1

    def apply(self, r: np.ndarray) -> np.ndarray:
        return vcycle(self, r)


def build_hierarchy(system: FveSystem) -> MgHierarchy:
    """Build the V-cycle hierarchy of a row-scaled system.

    Level 0 is the caller's operator itself.  The coarser levels are
    ``row_scale(assemble_system(...))`` of ``system.problem`` on the
    coarsenings of ``system.grid``; the coarsest level has at most 3
    interior points and is LU-factored.

    One damping weight, estimated by :func:`estimate_omega` on the first
    level with at most 16 interior points (a member of the same mesh
    family), serves every level.
    """
    if not system.scaled:
        raise MultigridError("the hierarchy needs a row-scaled system")
    grid, problem = system.grid, system.problem
    if grid.n < 4:
        raise MultigridError("hierarchy needs at least 4 interior points")

    grids = [grid]
    while grids[-1].n > 3:
        grids.append(coarsen(grids[-1]))

    levels: list[MgLevel] = []
    for g in grids:
        op = row_scale(assemble_system(g, problem)).operator if levels else system.operator
        levels.append(MgLevel(grid=g, operator=op, diag=op.diagonal()))
    for lev, coarse in zip(levels, levels[1:]):
        lev.prolong = prolongation(lev.grid, coarse.grid)

    est = next(lev for lev in levels if lev.grid.n <= _OMEGA_SIZE)
    omega = estimate_omega(problem, est.grid, matrix=est.operator.to_dense())

    lu = scipy.linalg.lu_factor(levels[-1].operator.to_dense())
    return MgHierarchy(levels, omega, lu)


def _vcycle(hier: MgHierarchy, level: int, r: np.ndarray) -> np.ndarray:
    lev = hier.levels[level]
    if level == len(hier.levels) - 1:
        return scipy.linalg.lu_solve(hier.coarse_lu, r)
    omega = hier.omega
    x = omega * r / lev.diag  # pre-smoothing from zero guess
    res = r - lev.operator.matvec(x)
    rc = _RESTRICTION_SCALE * (lev.prolong.T @ res)
    x = x + lev.prolong @ _vcycle(hier, level + 1, rc)
    x = x + omega * (r - lev.operator.matvec(x)) / lev.diag
    return x


def vcycle(hier: MgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle applied to the residual ``r`` with zero guess."""
    r = np.asarray(r, dtype=float)
    if r.shape != (hier.levels[0].grid.n,):
        raise MultigridError("residual length does not match the finest level")
    return _vcycle(hier, 0, r)
