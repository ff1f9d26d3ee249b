"""Geometric multigrid for the row-scaled FVE systems.

The hierarchy halves the number of interior points per level (keeping the
even-indexed nodes).  The finest level is the caller's row-scaled operator.
Each coarser level is the scaled view that
:func:`~gradedfve.assembly.coarse_view` gives of the newest level that
owns its operator, where it gives one, and otherwise owns one:
``assemble_operator`` of the problem on its grid, row-scaled like the
finest level and with no right-hand side, which picks its kind by the one
rule of :mod:`gradedfve.assembly` (a dense matrix below 128 unknowns).
Coarsening keeps the even nodes, so a uniform tail stays a uniform tail,
and each owned level of 128 unknowns or more of a mesh with one, with
constant diffusion, has a Toeplitz tail.  The coarsest level, at most
3 x 3, is solved directly.  Grid transfer uses piecewise-linear
interpolation on the non-uniform nodes, stored once per level as its two
weights per odd fine node and applied, as is its transpose, with strided
slices; restriction is that transpose times 1/2 (the factor that makes it
full weighting on a uniform grid).  The smoother is one damped-Jacobi
sweep before and after coarse-grid correction, with the damping weight
estimated once from the spectrum of the Jacobi iteration matrix on a small
rediscretization of the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FveSystem, LinearOperator, assemble_operator, coarse_view
# unused here; perfbench's tracer wraps this module's name, so it must stay
from .assembly import assemble_matrix  # noqa: F401
from .mesh import Grid

__all__ = [
    "MultigridError",
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

    def inside(self, z) -> np.ndarray:
        """Which entries of ``z`` lie strictly inside the lens, elementwise."""
        z = np.asarray(z, dtype=complex)
        x = z.real
        ok = (x >= self.x_min) & (x <= self.x_max)
        return ok & (np.abs(z.imag) < self.boundary(x))


DEFAULT_REGION = SmootherRegion()


def coarsen(grid: Grid) -> Grid:
    """Keep the boundary nodes and every second interior node.

    On an even ``N`` the kept nodes end at ``x_N``, so the coarse grid's last
    step is a half step and a uniform tail is lost from the coarse levels.
    """
    n = grid.n
    if n < 4:
        raise MultigridError("coarsening needs at least 4 interior points")
    nc = n // 2
    x = grid.points
    return Grid(np.concatenate(([x[0]], x[2 : 2 * nc + 1 : 2], [x[-1]])))


def _interpolate(weights: tuple[np.ndarray, np.ndarray], y: np.ndarray) -> np.ndarray:
    """Fine values of the coarse values ``y`` by the weights of
    :func:`prolongation`, each summed from zero in the order of a
    compressed sparse row product."""
    left, right = weights
    out = np.zeros(left.size + right.size + 1)
    odd = out[0::2]  # fine entries 2k, nodes 2k + 1
    odd[1:] += left * y[: left.size]
    odd[: right.size] += right * y
    out[1::2] += y
    return out


def _restrict(weights: tuple[np.ndarray, np.ndarray], r: np.ndarray) -> np.ndarray:
    """The transpose of :func:`_interpolate` applied to the fine values
    ``r``, each coarse entry summed from zero in the order of a compressed
    sparse column product."""
    left, right = weights
    out = np.zeros(right.size)  # coarse entry k: fine entries 2k, 2k + 1, 2k + 2
    out += right * r[0::2][: right.size]
    out += r[1::2]
    out[: left.size] += left * r[2::2][: left.size]
    return out


def prolongation(fine: Grid, coarse: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the linear interpolation from coarse to fine interior nodes.

    Even fine nodes coincide with coarse nodes and are copied; odd fine
    nodes are linearly interpolated between their bracketing coarse
    neighbours, with the Dirichlet boundary nodes acting as zero-value
    anchors (the operands are error corrections, which vanish there).
    Returns ``(left, right)``: fine node ``2k + 1`` takes ``left[k - 1]``
    times coarse entry ``k - 1`` (for ``k >= 1``) plus ``right[k]`` times
    coarse entry ``k`` (for ``k < nc``).
    """
    n, nc = fine.n, coarse.n
    if nc != n // 2 or not np.array_equal(coarse.points[1:-1], fine.points[2 : 2 * nc + 1 : 2]):
        raise MultigridError("coarse grid is not the coarsening of the fine grid")
    xf = fine.points
    odd = np.arange(1, n + 1, 2)
    k = (odd - 1) // 2  # left coarse neighbour of fine node 2k+1 (0 = boundary)
    wl = (xf[2 * k + 2] - xf[odd]) / (xf[2 * k + 2] - xf[2 * k])
    return wl[1:], 1.0 - wl[:nc]


def estimate_omega(a: np.ndarray) -> float:
    """Estimate the Jacobi damping weight from the dense row-scaled matrix
    ``a`` of a small rediscretization.

    The hierarchy passes the matrix of its first level with at most ~2^4
    interior points (a member of the same mesh family).  The eigenvalues
    ``lam_j`` of ``D^{-1} A`` are computed, and the weight is scanned over
    ``1.995, 1.990, ..., 0.005`` (all candidates in one array expression).
    Among the candidates for which the whole smoother spectrum
    ``1 - omega*lam_j`` sits inside :data:`DEFAULT_REGION`, the one
    minimizing the damping of the oscillatory half of the spectrum (the
    eigenvalues of largest modulus) is returned; ties (within 1e-15) go to
    the larger weight.  If no candidate is admissible the classical 2/3 is
    returned; no scanned weight (a multiple of 0.005, rounded to 3 digits)
    equals it, so :attr:`MgHierarchy.omega_fallback` can tell.
    """
    d = np.diag(a).copy()
    if np.any(d == 0.0):
        raise MultigridError("zero diagonal entry; Jacobi smoothing undefined")
    lam = np.linalg.eigvals(a / d[:, None])
    upper = lam[np.argsort(np.abs(lam))][lam.size // 2 :]

    omegas = np.arange(399, 0, -1) * 0.005
    admissible = DEFAULT_REGION.inside(1.0 - omegas[:, None] * lam).all(axis=1)
    damps = np.abs(1.0 - omegas[admissible, None] * upper).max(axis=1)
    best = None
    best_damp = np.inf
    for omega, damp in zip(omegas[admissible].tolist(), damps.tolist()):
        if damp < best_damp - 1e-15:
            best_damp = damp
            best = omega
    return OMEGA_FALLBACK if best is None else round(best, 3)


@dataclass
class MgLevel:
    grid: Grid
    operator: LinearOperator
    diag: np.ndarray
    # prolongation weights to the next coarser level; None on the coarsest
    weights: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class MgHierarchy:
    """V-cycle hierarchy: finest level first, direct solver at the bottom."""

    levels: list[MgLevel]
    omega: float
    # coarse levels assembled on their own grid; the others view a finer level
    reassembled: int = 0

    @property
    def depth(self) -> int:
        """Number of coarsening steps."""
        return len(self.levels) - 1

    @property
    def omega_fallback(self) -> bool:
        """True when no scanned weight passed the region test and the
        classical 2/3 is used."""
        return self.omega == OMEGA_FALLBACK

    def apply(self, r: np.ndarray) -> np.ndarray:
        return vcycle(self, r)


def build_hierarchy(system: FveSystem) -> MgHierarchy:
    """Build the V-cycle hierarchy of a row-scaled system.

    Level 0 is the caller's operator itself, and the newest level that owns
    its operator.  Each coarser level is the
    :func:`~gradedfve.assembly.coarse_view` of that level's operator where
    there is one; otherwise it is ``assemble_operator(..., scaled=True)``
    of ``system.problem`` on its coarsening of ``system.grid``, with no
    right-hand side, counted in :attr:`MgHierarchy.reassembled`, and the
    levels below view it in turn.  The coarsest level has at most 3
    interior points, and the V-cycle solves with its dense matrix.

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

    levels = [MgLevel(grid=grid, operator=system.operator, diag=system.operator.diagonal())]
    source = levels[0]
    reassembled = 0
    for g in grids[1:]:
        op = coarse_view(source.operator, source.grid, g, problem)
        owned = op is None
        if owned:
            op = assemble_operator(g, problem, scaled=True)
        levels.append(MgLevel(grid=g, operator=op, diag=op.diagonal()))
        if owned:
            source = levels[-1]
            reassembled += 1
    for lev, coarse in zip(levels, levels[1:]):
        lev.weights = prolongation(lev.grid, coarse.grid)

    est = next(lev for lev in levels if lev.grid.n <= _OMEGA_SIZE)
    omega = estimate_omega(est.operator.to_dense())

    return MgHierarchy(levels, omega, reassembled)


def _vcycle(hier: MgHierarchy, level: int, r: np.ndarray) -> np.ndarray:
    lev = hier.levels[level]
    if level == len(hier.levels) - 1:
        return np.linalg.solve(lev.operator.to_dense(), r)
    omega = hier.omega
    x = omega * r / lev.diag  # pre-smoothing from zero guess
    res = r - lev.operator.matvec(x)
    rc = _RESTRICTION_SCALE * _restrict(lev.weights, res)
    x = x + _interpolate(lev.weights, _vcycle(hier, level + 1, rc))
    x = x + omega * (r - lev.operator.matvec(x)) / lev.diag
    return x


def vcycle(hier: MgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle applied to the residual ``r`` with zero guess."""
    r = np.asarray(r, dtype=float)
    if r.shape != (hier.levels[0].grid.n,):
        raise MultigridError("residual length does not match the finest level")
    return _vcycle(hier, 0, r)
