"""Geometric multigrid for the row-scaled FVE systems.

The hierarchy halves the number of interior points per level (keeping the
even-indexed nodes).  The finest level is the caller's row-scaled operator.
Every coarser level of at least 128 unknowns holds an operator of one of
the two kinds of ``assemble_operator``, picked by the same rule, and every
smaller one a dense matrix, whose product costs 2-4 us there against
11-38 us in flux form.  Coarsening keeps the even nodes, so a uniform tail
stays a uniform tail, and with constant diffusion each level of a mesh
with one is a flux operator with a Toeplitz tail for every gamma, whose
products cost O(N log N) on the tail and O(N) on the flux-form border of
its graded nodes (none on the uniform grid).  A level without a tail,
assembled on its own grid, is a tail-free flux operator (all border, its
far field a sum of exponentials) above 1023 unknowns and a dense matrix
below.  A coarser level whose grid is the finest level's leading nodes
stretched to [0, 1] (an odd-N power-mapped grid) is, with constant
diffusion, a scaled view of the leading block of a tail-free finest
operator, dense or flux, with no assembly: at N = 1023 on eps6 the views
cut the solve from 0.059 to 0.049 s and its peak from 12.77 to 10.17 MB,
and at N + 1 = 4096, where the finest level is matrix-free, from 0.32 to
0.19 s and from 41.5 to 23.0 MB.  Below 128 unknowns such a level views
the newest level that owns a dense matrix instead.  Every other coarser
level rediscretizes the operator alone on its grid, row-scaled like the
finest one and with no right-hand side: through ``assemble_operator``
from 128 unknowns, and below as a dense matrix, which the smaller levels
of a self-similar grid then view.  The coarsest level, at most 3 x 3, is
solved directly.  Grid transfer uses piecewise-linear interpolation on the
non-uniform nodes, stored once per level as its two weights per odd fine
node and applied, as is its transpose, with strided slices; restriction is
that transpose times 1/2 (the factor that makes it full weighting on a
uniform grid).  The smoother is one damped-Jacobi sweep before and after
coarse-grid correction, with the damping weight estimated once from the
spectrum of the Jacobi iteration matrix on a small rediscretization of the
same problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import DenseOperator, FdeProblem, FveSystem, LinearOperator
from .assembly import assemble_matrix, assemble_operator
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

#: Coarse levels of fewer unknowns are dense matrices, whatever their
#: structure.  On eps6 and sqrt at N = 4095, beta 0.5, a product of a level
#: of 3 ... 127 unknowns took 11-15 us as a view of the matrix-free level 0
#: and 25-38 us as a flux operator with a tail, against 2-4 us dense.  The
#: ``pgmres_large`` benchmark's passes (12 interleaved in one process,
#: seeds 1 and 2) took 0.330 and 0.340 s from 64 unknowns, 0.321 and
#: 0.321 s from 128 and 0.326 and 0.313 s from 256, and it peaked at
#: 18.49, 18.58 and 19.24 MB.
_DENSE_BELOW = 128

#: Relative distance within which a coarse grid's nodes count as the finest
#: grid's leading nodes stretched to [0, 1]; rounding puts them at most
#: 3.14e-16 apart on power grids with q from 1 to 9 at N + 1 = 32 ... 2^15.
_SIMILAR_TOL = 4 * np.finfo(float).eps


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
    # the dense matrix of the coarsest level, at most 3 x 3
    coarse_matrix: np.ndarray | None = field(repr=False, default=None)
    # coarse levels assembled on their own grid; the others view level 0 or
    # a finer dense level
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


def _leading_block(level: MgLevel, problem: FdeProblem, coarse: Grid) -> LinearOperator | None:
    """The row-scaled operator on ``coarse`` as a scaled view of the leading
    block of the operator of ``level``, dense or a tail-free flux operator,
    or None when that does not hold.

    When the coarse nodes are the level's nodes ``x_0 .. x_{n+1}`` divided
    by ``s = x_{n+1}`` (to :data:`_SIMILAR_TOL`), rows and columns
    ``0 .. n-1`` of the level's operator read only those nodes and their
    midpoints.  Stretching a grid by ``1/s`` multiplies ``|x - z|**beta``
    by ``s**-beta`` and each ``1/h``, and the row scaling, by ``s``, so
    with constant diffusion the coarse operator is ``s**(2 - beta)`` times
    that leading block: for a dense matrix a view of its entries, for a
    flux operator one that shares its near array and sweep tables and
    whose products cost O(n).  An operator with a Toeplitz tail has no such
    view (of the grids with a tail only the uniform one is self-similar):
    its coarse levels have tails of their own.
    """
    op, x, n = level.operator, level.grid.points, coarse.n
    # a dense matrix has no border, a flux operator without a tail is all border
    if callable(problem.diffusion) or getattr(op, "border", op.shape[0]) < op.shape[0]:
        return None
    s = x[n + 1]
    if np.any(np.abs(coarse.points - x[: n + 2] / s) > _SIMILAR_TOL * coarse.points):
        return None
    return op.leading(n, s ** (2.0 - problem.beta))


def build_hierarchy(system: FveSystem) -> MgHierarchy:
    """Build the V-cycle hierarchy of a row-scaled system.

    Level 0 is the caller's operator itself.  A coarser level of at least
    :data:`_DENSE_BELOW` unknowns views level 0 if its grid is level 0's
    leading nodes stretched to [0, 1] (odd-N power-mapped grids with
    constant diffusion, level 0 dense or a tail-free flux operator): it is
    the scaled view of :func:`_leading_block`.  Otherwise it is
    ``assemble_operator(..., scaled=True)`` of ``system.problem`` on its
    coarsening of ``system.grid``, with no right-hand side.  A smaller
    level is dense: the same view of the newest level that owns a dense
    matrix (level 0, if level 0 is dense), or else the row-scaled
    :func:`~gradedfve.assembly.assemble_matrix` of its grid, which the
    levels below it then view.  Levels assembled on their own grid are
    counted in :attr:`MgHierarchy.reassembled`.  The coarsest level has at
    most 3 interior points, and its dense matrix is kept for the direct
    solve at the bottom of the V-cycle.

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
    # the newest level that owns a dense matrix, which the small levels view
    dense = levels[0] if isinstance(system.operator, DenseOperator) else None
    reassembled = 0
    for g in grids[1:]:
        small = g.n < _DENSE_BELOW
        source = dense if small else levels[0]
        op = _leading_block(source, problem, g) if source else None
        owned = op is None
        if small and owned:
            op = assemble_matrix(g, problem).scale_rows(g.steps[:-1])
        elif owned:
            op = assemble_operator(g, problem, scaled=True)
        levels.append(MgLevel(grid=g, operator=op, diag=op.diagonal()))
        reassembled += owned
        if owned and isinstance(op, DenseOperator):
            dense = levels[-1]
    for lev, coarse in zip(levels, levels[1:]):
        lev.weights = prolongation(lev.grid, coarse.grid)

    est = next(lev for lev in levels if lev.grid.n <= _OMEGA_SIZE)
    omega = estimate_omega(est.operator.to_dense())

    return MgHierarchy(levels, omega, levels[-1].operator.to_dense(), reassembled)


def _vcycle(hier: MgHierarchy, level: int, r: np.ndarray) -> np.ndarray:
    lev = hier.levels[level]
    if level == len(hier.levels) - 1:
        return np.linalg.solve(hier.coarse_matrix, r)
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
