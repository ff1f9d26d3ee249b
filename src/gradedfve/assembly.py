"""Finite-volume-element assembly for the conservative two-sided fractional
diffusion equation on an arbitrary grid.

The equation on (0, 1) is

    -d/dx ( K(x) * ( gamma * D_left^{1-beta} + (1-gamma) * D_right^{1-beta} ) ) u = f,

with Dirichlet data ``u(0) = u_left``, ``u(1) = u_right``, where D_left and
D_right are the left/right Caputo derivatives of order ``1 - beta``,
``0 < beta < 1``.  Integrating over the control volumes
``[x_{i-1/2}, x_{i+1/2}]`` with piecewise-linear trial functions yields a
dense N x N system.  Two operator kinds answer one protocol (``shape``,
``matvec``, ``diagonal``, ``to_dense`` and ``scale_rows``, which divides
their rows), and :func:`assemble_operator`, the one function that picks
the kind of every operator (a multigrid level's included), picks one from
the grid, K, beta and N alone:

- Below 128 unknowns, the dense matrix.
- From 128, the matrix-free :class:`FluxOperator`: a border of equations
  in flux form, the pieces near each block of equations from the flux
  kernel and the far ones through an exponential sum of the kernel
  ``|z - x|**(beta - 1)`` swept block to block, in O(N) memory, and below
  it an optional Toeplitz tail, whose product goes through FFTs.  With
  constant K the rows and columns of the nodes in a uniform run of steps
  form a Toeplitz block for every gamma (a symmetric one at gamma = 1/2),
  so a grid that ends in a uniform tail gets one with its graded nodes as
  the border (the uniform grid is all tail).  Any other grid (or variable
  K) gets one with no tail, all border, from 1024 unknowns when
  ``0 < beta < 1``.
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
not grow with N (until one row outgrows the budget).
:func:`coarse_view` is the one rule for which coarse multigrid levels are
scaled views of a finer level's operator; the other levels come from
:func:`assemble_operator`.
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
    "FluxOperator",
    "FveSystem",
    "assemble_matrix",
    "assemble_rhs",
    "assemble_operator",
    "coarse_view",
    "assemble_system",
    "uniform_toeplitz",
    "row_scale",
]


class AssemblyError(ValueError):
    """Invalid problem data or assembly request."""


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
        d = self.diffusion
        k = np.asarray(d(x) if callable(d) else np.full(np.shape(x), float(d)), dtype=float)
        if k.shape != np.shape(x):
            raise AssemblyError("diffusion coefficient must give one value per midpoint")
        if not np.all((k > 0.0) & (k < np.inf)):  # NaN fails both
            raise AssemblyError("diffusion coefficient must be positive and finite")
        return k


@dataclass(frozen=True)
class DenseOperator:
    """Dense operator: ``scale`` times a square matrix, or a block of one.

    ``entries`` may be a view of a larger matrix, by :meth:`leading`.
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


#: Operators of fewer unknowns are dense matrices, whatever their structure
#: and at every multigrid level.  On eps6 and sqrt at N = 4095, beta 0.5, a
#: product of a level of 3 ... 127 unknowns took 11-15 us as a view of the
#: matrix-free level 0 and 25-38 us as a flux operator with a tail, against
#: 2-4 us dense.  The ``pgmres_large`` benchmark's passes (12 interleaved in
#: one process, seeds 1 and 2) took 0.330 and 0.340 s with dense coarse
#: levels from 64 unknowns, 0.321 and 0.321 s from 128 and 0.326 and
#: 0.313 s from 256, and it peaked at 18.49, 18.58 and 19.24 MB.
_DENSE_BELOW = 128
#: Fewest unknowns at which a mesh without a Toeplitz tail gets a
#: :class:`FluxOperator`.  Preconditioned eps6 solves (beta 0.5, in-process
#: medians, 2 BLAS threads) took 33-41 ms with a dense level 0 and 26-37 ms
#: with a flux one at N + 1 = 1024, 11.8-17.0 and 12.5-15.6 ms at 512 and
#: 5.3-7.4 and 7.0-8.4 ms at 256; at N = 4095, before the near field of two
#: guards, cutoffs of 512, 1024 and 2048 gave 0.280, 0.268 and 0.358 s.  A
#: lower cut also moves the solution: at beta 0.8, eps6 at N + 1 = 256 and
#: 512 reads e_inf 2.69e-4 and 2.67e-4 against references of 5.8e-4 and
#: 4.3e-4, the flux form's far field being free of the dense kernel's
#: cancellation (ROADMAP item 2).
_SOE_MIN_N = 1024
#: Equations per near block of the flux form (fewer on a border of fewer
#: nodes): on eps6 at N = 4095, beta 0.5, with guards of 32 pieces, blocks
#: of 32, 64, 128 and 256 midpoints gave tail-free :class:`FluxOperator`
#: products of 1.77, 1.27, 1.10 and 1.13 ms (2 BLAS threads, median of 15).
_SOE_BLOCK = 128
#: Pieces on each side of a near block that it reads from the kernel (all
#: of them for a block of fewer equations); its far sweeps start beyond
#: them.  On eps6 at N = 4095, beta 0.5, guards of 16, 32, 64 and 128 gave
#: near arrays of 5.2, 6.3, 8.4 and 12.6 MB, 134, 126, 126 and 110 terms
#: and products of 1.08, 1.09, 1.17 and 1.32 ms (median of 15); the
#: ``pgmres_large`` benchmark at seed 1 peaked at 18.27, 18.58, 19.96 and
#: 23.31 MB, and its passes took 0.335, 0.321 and 0.330 s at 16, 32 and 64
#: (median of 12 interleaved in one process).
_SOE_GUARD = 32
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


def _far_sweep_tables(
    y: np.ndarray, plan: list[tuple[int, int, int, int, int]], s: np.ndarray, w: np.ndarray, kz: np.ndarray
) -> list[tuple[int, int, int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Factor tables of one left-to-right sweep over the nodes ``y``, with
    ``kz`` the diffusion at their midpoints ``z``.

    Each entry ``(t0, t1, k0, k1, m)`` of ``plan`` is a block of equations
    ``t0 .. t1 - 1`` whose far pieces are ``0 .. k1 - 1``, the pieces ``k0
    .. k1 - 1`` new since the previous entry, read through the first ``m``
    terms: those whose ``s_l`` times the block's far gap is within
    :data:`_SOE_CUTOFF` (a block that keeps none has no entry, and the next
    one adds its pieces).  With ``ref = y[k1]`` the sweep's state is ``S_l = sum_k
    exp(-s_l (ref - y_{k+1})) phi_l(h_k) d_k`` with ``phi_l(h) = -expm1(-s_l
    h) / (s_l h)``, so that ``sum_l w_l exp(-s_l (z_t - ref)) S_l`` is ``sum_k
    w I_k(t) d_k / h_k``, ``I_k(t)`` the integral of ``(z_t - x)**(beta - 1)``
    over piece ``k``.  Equation ``i`` reads ``K_i`` times that sum at ``z_i``
    less ``K_{i+1}`` times it at ``z_{i+1}``: column ``i`` of ``ev`` is
    ``w_l exp(-s_l (z_i - ref)) (K_i - K_{i+1} - K_{i+1} expm1(-s_l dz))``,
    ``dz = z_{i+1} - z_i``, so no difference of nearly equal numbers is
    formed (with constant K, ``-K expm1(-s_l dz)``).  The tables are ``(t0,
    t1, k0, k1, ev, add, decay)``: the pieces enter as ``add @ d``, the
    equations read ``S @ ev``, and ``decay`` moves the state from the
    previous ``ref`` to this one.  A term dropped at one entry and kept at a
    later one resumes from a stale state, which ``decay`` and ``ev`` scale
    by less than ``exp(-cutoff)``: ``s_l`` times the distance from the
    dropping entry's ``ref`` to any later midpoint exceeds the cutoff.
    """
    z = 0.5 * (y[:-1] + y[1:])
    tables = []
    for t0, t1, k0, k1, m in plan:
        sl, ref, zt = s[:m], y[k1], z[t0 : t1 + 1]
        kl, kr = kz[t0:t1], kz[t0 + 1 : t1 + 1]
        ev = np.outer(sl, ref - zt[:-1])
        np.exp(ev, out=ev)
        step = np.outer(sl, zt[:-1] - zt[1:])
        np.expm1(step, out=step)
        step *= -kr
        step += kl - kr
        ev *= step
        ev *= w[:m, None]
        decay = np.exp(-sl * (ref - y[k0]))
        tables.append((t0, t1, k0, k1, ev, _piece_table(y, k0, k1, sl), decay))
    return tables


def _piece_table(y: np.ndarray, k0: int, k1: int, s: np.ndarray) -> np.ndarray:
    """``exp(-s_l (y_{k1} - y_{k+1})) phi_l(h_k)`` for the pieces ``k = k0
    .. k1 - 1`` of the nodes ``y``, with ``phi_l(h) = -expm1(-s_l h) / (s_l
    h)``: times ``exp(-s_l (z - y_{k1}))`` it is the integral of
    ``exp(-s_l (z - x))`` over piece ``k`` divided by its length, formed
    with no difference of nearly equal numbers."""
    sh = np.outer(-s, y[k0 + 1 : k1 + 1] - y[k0:k1])
    table = np.outer(-s, y[k1] - y[k0 + 1 : k1 + 1])
    np.exp(table, out=table)
    table /= sh
    table *= np.expm1(sh, out=sh)
    return table


def _far_sweep(tables, d: np.ndarray, out: np.ndarray, terms: int) -> None:
    """Add one sweep's far sums of the differences ``d``, through at most
    ``terms`` terms, to the equations ``out``."""
    state = np.zeros(terms)
    for t0, t1, k0, k1, ev, add, decay in tables:
        s = state[: decay.size]
        s *= decay
        s += add @ d[k0:k1]
        out[t0:t1] += s @ ev


class FluxOperator:
    """Matrix-free FVE operator of ``grid`` and ``problem``: a border of the
    first ``b`` equations in flux form, with near blocks from the kernel and
    far sweeps by a sum of exponentials (SOE), and below it a Toeplitz tail
    of the last ``m = N - b``:

        [ border rows, every column        ]
        [ border columns | Toeplitz tail   ]

    With callable diffusion the border is every equation (``b = N``, no
    tail, which needs ``0 < beta < 1``); otherwise it is the graded nodes
    before the grid's uniform tail (:func:`_tail_start`), whose rows and
    columns form a Toeplitz block for every gamma when the diffusion is
    constant.  The uniform grid (``b = 0``) is all tail.  The tail is
    stored by its first column and first row, column ``b`` and row ``b`` of
    :func:`assemble_matrix`, which share the diagonal entry, and its
    product goes through real FFTs of a circulant embedding of the tail,
    whose size is the first power of two ``>= 2m - 1``.

    With ``d_k = v_k - v_{k+1}`` (``v_0 = v_{N+1} = 0``) the flux at the
    midpoint ``z_t`` is ``(F v)_t = sum_k Q[t, k] d_k``, with the piece
    fluxes ``Q`` of :func:`_piece_fluxes`, and equation ``i`` is
    ``(K_i (F v)_i - K_{i+1} (F v)_{i+1}) / Gamma(beta + 1)``, divided by the
    row divisor that :meth:`scale_rows` keeps: the steps by which
    :func:`assemble_matrix` forms its rows, applied to a vector.

    The border is split into equal blocks of ``B``, at most
    :data:`_SOE_BLOCK`, that end at equation ``b`` (the first may begin
    before equation 0), and below a border the next ``B`` equations form one
    more block.  The pieces ``e - g .. e + B + g - 1``, with the guard ``g =
    min(_SOE_GUARD, B)``, are near to the block whose first equation is
    ``e``: their flux differences at its equations, ``(K_i Q[i, k] - K_{i+1}
    Q[i+1, k]) / Gamma(beta + 1)`` from the kernel, are one ``(nb, B, B +
    2g)`` array, one batched product, and both midpoints of an equation read
    the same near pieces.  A far piece left of ``z_t``
    adds ``-gamma beta I_k(t) d_k / h_k`` to its flux and one right of it
    ``(gamma - 1) beta I_k(t) d_k / h_k``, with ``I_k(t)`` the integral of
    ``|z_t - x|**(beta - 1)`` over the piece: the kernel is the exponential
    sum of :func:`_soe_nodes` on ``[delta, 1]``, ``delta`` the smallest far
    gap, and each exponential is integrated over a piece exactly, so no
    difference of nearly equal powers is formed.  The left sums are one
    sweep of :func:`_far_sweep_tables`, which forms each equation's
    difference of its two midpoints; the right sums are the same sweep on
    the mirrored grid, ``-x`` reversed (negation is exact, so every distance
    is the one formed on ``x``), over the blocks of the border.

    Below a border, equations read the differences of the border's values
    alone, on the pieces ``0 .. b``: those of their near block through it,
    the others through the left sweep, in which every tail row beyond that
    block is one block whose far pieces are all of them; the tail pieces
    beyond the border's near blocks are one block of the right sweep.  When
    there is a tail, the far border pieces shorter than :data:`_KERNEL_STEP`
    keep the kernel's flux differences in ``kernel`` at every equation that
    has them far (ROADMAP item 2), and the sweeps skip them.  At beta 0 and
    1 the two midpoints of an equation give a far piece the same piece flux
    (0, and ``-gamma`` left of them or ``gamma - 1`` right of them), so with
    constant K the far field holds no terms.  It stores ``O(N (B + 2g + L))``
    numbers for ``L`` terms, and a product costs as many multiply-adds.
    """

    def __init__(self, grid: Grid, problem: FdeProblem):
        n, beta, gamma = grid.n, float(problem.beta), float(problem.gamma)
        # the tail test, the tail's first column and row and their assembly's
        # temporaries: tracemalloc peaks at 14.0 x 8N on the uniform grid
        # (N = 2^14 ... 2^18) and 12.0 x 8N for the tail of sqrt and log2
        # grids (N = 2^14, 2^16); a border's tables have a guard below
        require_memory(14 * 8 * n, f"a flux-form operator at N = {n}", AssemblyError)
        b = n if callable(problem.diffusion) else _tail_start(grid)
        if b == n and not 0.0 < beta < 1.0:
            raise AssemblyError("the exponential sum needs 0 < beta < 1")
        self.border, self.row_div, self._diag = b, np.ones(n), np.empty(0)
        self.first_col = self.first_row = np.empty(0)
        if b < n:
            self.first_col = assemble_matrix(grid, problem, rows=(b, n), cols=(b, b + 1)).entries[:, 0]
            self.first_row = assemble_matrix(grid, problem, rows=(b, b + 1), cols=(b, n)).entries[0]
            self._circ_size = 1 << (2 * (n - b) - 2).bit_length()
            self._circ_fft: np.ndarray | None = None
        if b == 0:
            return
        short = np.flatnonzero(grid.steps[:b] < _KERNEL_STEP) if b < n and 0.0 < beta < 1.0 else []
        kernel_pieces = int(np.max(short, initial=-1)) + 1

        nbb = -(-b // _SOE_BLOCK)
        bs = -(-b // nbb)
        origin = b - nbb * bs  # the first block's first equation, <= 0
        x = grid.points
        kz = problem.diffusion_at(0.5 * (x[:-1] + x[1:]))
        gam1 = math.gamma(beta + 1.0)
        starts = list(range(origin, b, bs)) + ([b] if b < n else [])
        blocks = [(max(t0, 0), min(t0 + bs, n), t0) for t0 in starts]  # equations, first row
        g = min(_SOE_GUARD, bs)
        left = [(t0, t1, max(e - g, 0)) for t0, t1, e in blocks]
        if b + bs < n:
            left.append((b + bs, n, b + 1))  # the tail beyond: every border piece
        right = [(n - t1, n - t0, max(n + 1 - e - bs - g, 0)) for t0, t1, e in blocks[:nbb][::-1]]
        sweeps = []
        for y, far in ((x, left), (-x[::-1], right)):
            z = 0.5 * (y[:-1] + y[1:])
            sweeps.append((y, [(t0, t1, k1, z[t0] - y[k1]) for t0, t1, k1 in far if k1 > 0]))
        gaps = [gap for _, far in sweeps for *_, gap in far]
        s, w = _soe_nodes(beta, min(gaps)) if 0.0 < beta < 1.0 and gaps else (np.empty(0), np.empty(0))
        plans = []
        for _, far in sweeps:
            plan, k0 = [], 0
            for t0, t1, k1, gap in far:
                m = int(np.searchsorted(s, _SOE_CUTOFF / gap, side="right"))
                if m:
                    plan.append((t0, t1, k0, k1, m))
                    k0 = k1
            plans.append(plan)
        # the near array, the kernel's far columns and the sweeps' tables, and
        # the temporary of the largest table while it is made: tracemalloc
        # peaks at 0.95-1.10 of this count at N = 4095 and 0.93-1.18 at
        # N = 1023 and 16383 (eps6, eps1, eps4 and sqrt, beta 0.05, 0.5, 0.95)
        tables = [m * size for plan in plans for t0, t1, k0, k1, m in plan for size in (t1 - t0, k1 - k0)]
        count = len(blocks) * bs * (bs + 2 * g) + n * kernel_pieces + sum(tables) + max(tables, default=0)
        require_memory(8 * count, f"an exponential-sum operator at N = {n}", AssemblyError)

        near, self._diag = np.zeros((len(blocks), bs, bs + 2 * g)), np.empty(b)
        for j, (t0, t1, e) in enumerate(blocks):
            k0, k1 = max(e - g, 0), min(e + bs + g, n + 1)
            ((_, _, q),) = _piece_fluxes(grid, problem, (t0, t1), (k0, k1), bs)
            if t0 < b:  # the diagonal, with the arithmetic of assemble_matrix
                r = np.arange(t1 - t0)
                c = r + t0 - k0
                f_left = (q[r, c + 1] - q[r, c]) * kz[t0:t1]
                f_right = (q[r + 1, c + 1] - q[r + 1, c]) * kz[t0 + 1 : t1 + 1]
                self._diag[t0:t1] = (f_left - f_right) / gam1
            q *= kz[t0 : t1 + 1, None] / gam1
            np.subtract(q[:-1], q[1:], out=near[j, t0 - e : t1 - e, k0 - e + g : k1 - e + g])
        # window j of a product: the differences at the pieces of block j's
        # near array, read from [d_0 .. d_N, d_b, 0] with v_{b-1} in place of
        # d_b: below the border piece b is the border's value alone, and no
        # later piece is read
        pieces = np.array(starts)[:, None, None] - g + np.arange(bs + 2 * g)[:, None]
        windows = np.where((pieces < 0) | (pieces > n), n + 2, pieces)
        windows[:nbb][pieces[:nbb] == b] = n + 1
        windows[nbb:][pieces[nbb:] > b] = n + 2
        self.near, self._origin, self._windows, self._pieces = near, origin, windows, n
        self._terms = s.size

        self.kernel = np.zeros((kernel_pieces, n))  # piece k, equation i
        if kernel_pieces:
            rows = max(_BLOCK_ENTRIES // (kernel_pieces + 2), 1)
            for i0, i1, q in _piece_fluxes(grid, problem, (0, n), (0, kernel_pieces), rows):
                q *= kz[i0 : i1 + 1, None] / gam1
                self.kernel[:, i0:i1] = (q[:-1] - q[1:]).T
            for t0, t1, e in blocks:
                self.kernel[max(e - g, 0) : e + bs + g, t0:t1] = 0.0
        self.left, self.right = (
            _far_sweep_tables(y, plan, s, c * w / gam1, k)
            for (y, _), plan, c, k in zip(sweeps, plans, (-gamma * beta, (1.0 - gamma) * beta), (kz, kz[::-1]))
        )

    @property
    def shape(self) -> tuple[int, int]:
        n = self.row_div.size
        return (n, n)

    def _fft(self) -> np.ndarray:
        if self._circ_fft is None:  # first column: the tail's, then its first row reversed
            m = self.first_row.size
            circ = np.zeros(self._circ_size)
            circ[:m] = self.first_col
            circ[circ.size - m + 1 :] = self.first_row[:0:-1]
            self._circ_fft = np.fft.rfft(circ)
        return self._circ_fft

    def _flux_product(self, v: np.ndarray) -> np.ndarray:
        """The border's product: near blocks, far sweeps and kernel
        columns, divided by the row divisor."""
        n, b, k0 = v.size, self.border, self.kernel.shape[0]
        # the differences d_0 .. d_n of the border's values alone (d_b is
        # v_{b-1}), zero up to the last piece the windows index (a leading
        # view's are its operator's), the full d_b and 0
        src = np.zeros(self._pieces + 3)
        src[1 : n + 1] = v
        src[:n] -= v
        src[-2] = src[b]
        src[b] = v[b - 1]
        eqs = np.matmul(self.near, src[self._windows]).reshape(-1)[-self._origin :]
        out = np.zeros(n)
        out[: eqs.size] = eqs[:n]
        if k0:  # the kernel's pieces, which the sweeps skip
            out += src[:k0] @ self.kernel
            src[:k0] = 0.0
        _far_sweep(self.left, src, out, self._terms)
        mirrored = src[n::-1].copy()
        mirrored[n - b] = src[-2]
        _far_sweep(self.right, mirrored, out[::-1], self._terms)
        out /= self.row_div
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise AssemblyError("dimension mismatch in matvec")
        b, n = self.border, v.size
        out = self._flux_product(v) if b else np.zeros(n)
        if b < n:
            size = self._circ_size
            out[b:] += np.fft.irfft(self._fft() * np.fft.rfft(v[b:], size), size)[: n - b]
        return out

    def diagonal(self) -> np.ndarray:
        if not self.first_row.size:
            return self._diag
        return np.concatenate((self._diag, np.full(self.first_row.size, self.first_row[0])))

    def to_dense(self) -> np.ndarray:
        """The matrix (for small checks only): the border one product per
        column, and tail row ``i`` as ``c[i:0:-1]`` followed by ``t[:m-i]``
        (first column ``c``, first row ``t``), copied straight from a
        sliding window over ``c`` reversed joined to ``t``."""
        n, b, col, row = self.shape[0], self.border, self.first_col, self.first_row
        a, e = np.empty((n, n)), np.zeros(n)
        for j in range(n if b else 0):
            e[j] = 1.0
            a[:, j] = self._flux_product(e)
            e[j] = 0.0
        if b < n:
            joined = np.concatenate((col[:0:-1], row))
            a[b:, b:] = np.lib.stride_tricks.sliding_window_view(joined, row.size)[::-1]
        return a

    def scale_rows(self, h_rows: np.ndarray) -> "FluxOperator":
        """Divide row ``i`` by ``h_rows[i]``: the border keeps the divisor
        and applies it to every product, and the tail is divided by
        ``h_rows[b]``, the step of its first row: the tail rows share one
        step up to rounding, so it stays Toeplitz; the circulant FFT of the
        unscaled tail is dropped."""
        self.row_div = self.row_div * h_rows
        self._diag = self._diag / h_rows[: self._diag.size]
        if self.first_row.size:
            self.first_col = self.first_col / h_rows[self.border]
            self.first_row = self.first_row / h_rows[self.border]
            self._circ_fft = None
        return self

    def leading(self, n: int, factor: float) -> "FluxOperator | None":
        """``factor`` times the leading ``n x n`` block of an operator with
        no tail (for :func:`coarse_view`), sharing its near array and sweep
        tables, with ``factor`` folded into its row divisor; None on an
        operator with a Toeplitz tail or for ``n`` below
        :data:`_DENSE_BELOW`, where :func:`assemble_operator` gives no flux
        operator either.

        The block's rows are the equations ``0 .. n - 1`` and its columns the
        differences of the pieces ``0 .. n``, the others being zero, so it
        keeps the near blocks of those equations, the left tables of those
        blocks (the last one cut at equation ``n``), and the right tables
        from the first that adds a piece ``<= n``, with their indices shifted
        to its own mirrored pieces and the first one's piece table cut to
        those pieces.  A skipped table only adds zeros, so a product costs as
        much as one of an operator of ``n`` unknowns.
        """
        if self.first_row.size or n < _DENSE_BELOW:
            return None
        shift = self.shape[0] - n  # the mirrored piece of piece n
        view = copy.copy(self)
        view.near = self.near[: -(-(n - self._origin) // self.near.shape[1])]
        view._windows = self._windows[: view.near.shape[0]]
        view.border = n
        view.left = [
            (t0, min(t1, n), k0, k1, ev[:, : n - t0], add, decay)
            for t0, t1, k0, k1, ev, add, decay in self.left
            if t0 < n
        ]
        view.right = [
            (t0 - shift, t1 - shift, max(k0, shift) - shift, k1 - shift, ev,
             add[:, max(shift - k0, 0) :], decay)
            for t0, t1, k0, k1, ev, add, decay in self.right
            if k1 > shift
        ]
        view.row_div = self.row_div[:n] / factor
        view._diag = self._diag[:n] * factor
        return view


#: The replaced symmetric Toeplitz class's name, under which perfbench wraps
#: ``matvec``: every operator that is not dense is a :class:`FluxOperator`.
SymToeplitzOperator = FluxOperator

LinearOperator = DenseOperator | FluxOperator


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


def uniform_toeplitz(n: int, beta: float) -> FluxOperator:
    """The :class:`FluxOperator` with no border, all Toeplitz tail, of the
    discretization on the uniform grid of ``n`` nodes with unit diffusion
    and ``gamma = 1/2``, where the matrix is symmetric: its first row is
    the series of the generating function in :mod:`gradedfve.spectral`.
    It is built at every ``n``, also where :func:`assemble_operator` gives
    the dense matrix.
    """
    if n < 1:
        raise AssemblyError("n must be >= 1")
    return FluxOperator(uniform_grid(n), FdeProblem(beta, 0.5))


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


#: Far border pieces shorter than this keep the kernel's flux differences
#: in the border of a :class:`FluxOperator` with a tail.  Their entries are differences of
#: powers of about 1 that agree to 1e-10 or better, so the kernel's
#: rounding is 2e-6 of an entry or more, which an exponential sum, free of
#: it, does not reproduce; through the few pieces next to x = 0 at the
#: capped exponent (x_1 = 1e-16) it sets the solution's error (ROADMAP
#: item 2).  Preconditioned solves on eps4 at beta = 0.8, N = 1023, with
#: the pieces below 1e-12, 1e-10 and 1e-8 kept read e_inf = 3.82462e-4,
#: 3.82394e-4 and 3.82397e-4, against 3.82397e-4 with a dense coupling and
#: 6.57339e-4 with none kept; eps1 and eps2 at N = 511 and 1023 agree to 4
#: digits or more as well (measured when only the tail rows kept them).
_KERNEL_STEP = 1e-10


def assemble_operator(grid: Grid, problem: FdeProblem, scaled: bool = False) -> LinearOperator:
    """Assemble the coefficient operator alone, row-scaled if ``scaled``.

    This is the one rule for the operator kind, at every multigrid level
    too.  Below :data:`_DENSE_BELOW` unknowns it is the dense matrix of
    :func:`assemble_matrix`, whatever the structure.  From there, with
    constant diffusion the rows and columns of a uniform tail form a
    Toeplitz block, whatever gamma: a grid with a uniform tail gets a
    :class:`FluxOperator` with that tail.  Every other case (no tail, or
    variable diffusion) gets a tail-free :class:`FluxOperator` from
    :data:`_SOE_MIN_N` unknowns when ``0 < beta < 1``, and the dense matrix
    otherwise, which is also what a caller that factors the matrix calls
    directly.  ``scaled`` applies the row scaling of :func:`row_scale` to
    the operator, for callers (the coarse multigrid levels) that need no
    right-hand side.
    """
    n = grid.n
    tail = not callable(problem.diffusion) and _tail_start(grid) < n
    if n >= _DENSE_BELOW and (tail or (n >= _SOE_MIN_N and 0.0 < problem.beta < 1.0)):
        op: LinearOperator = FluxOperator(grid, problem)
    else:
        op = assemble_matrix(grid, problem)
    return op.scale_rows(grid.steps[:-1]) if scaled else op


#: Relative distance within which a coarse grid's nodes count as a finer
#: grid's leading nodes stretched to [0, 1]; rounding puts them at most
#: 3.14e-16 apart on power grids with q from 1 to 9 at N + 1 = 32 ... 2^15.
_SIMILAR_TOL = 4 * np.finfo(float).eps


def coarse_view(op: LinearOperator, grid: Grid, coarse: Grid, problem: FdeProblem) -> LinearOperator | None:
    """The row-scaled operator of ``problem`` on ``coarse`` as a scaled view
    of ``op``, the row-scaled operator on ``grid``, or None: the one rule
    for which multigrid levels are views.

    When the coarse nodes are the nodes ``x_0 .. x_{n+1}`` of ``grid``
    divided by ``s = x_{n+1}`` (to :data:`_SIMILAR_TOL`; odd-N power-mapped
    and uniform grids), rows and columns ``0 .. n-1`` of ``op`` read only
    those nodes and their midpoints.  Stretching a grid by ``1/s``
    multiplies ``|x - z|**beta`` by ``s**-beta`` and each ``1/h``, and the
    row scaling, by ``s``, so with constant diffusion the coarse operator is
    ``s**(2 - beta)`` times that leading block: a view of a dense matrix's
    entries, or of a tail-free :class:`FluxOperator` of at least
    :data:`_DENSE_BELOW` unknowns, sharing its near array and sweep tables
    (products cost O(n)).  A Toeplitz tail gives none: of the grids with a
    tail only the uniform one is self-similar, and its coarse levels have
    tails of their own.  On eps6 at N = 1023 the views cut a solve from
    0.059 to 0.049 s and its peak from 12.77 to 10.17 MB; at N + 1 = 4096
    from 0.32 to 0.19 s and 41.5 to 23.0 MB (its dense matrix is 134 MB).
    """
    if callable(problem.diffusion):
        return None
    x, n = grid.points, coarse.n
    s = x[n + 1]
    if np.any(np.abs(coarse.points - x[: n + 2] / s) > _SIMILAR_TOL * coarse.points):
        return None
    return op.leading(n, s ** (2.0 - problem.beta))


def assemble_system(grid: Grid, problem: FdeProblem) -> FveSystem:
    """Assemble the right-hand side of :func:`assemble_rhs`, then the
    operator of :func:`assemble_operator`.  The right-hand side goes first:
    its quadrature guard refuses a grid too large for memory before the
    operator's buffers are made; the larger tables of a flux-form border
    have a guard of their own."""
    rhs = assemble_rhs(grid, problem)
    return FveSystem(assemble_operator(grid, problem), rhs, grid, problem)


def row_scale(system: FveSystem) -> FveSystem:
    """Multiply both sides of the system by ``diag(1/h_i)``.

    The scaling removes the grid-dependent measure factor from each
    equation, which the multigrid hierarchy relies on.  The operator's
    ``scale_rows`` divides it in place: a dense matrix row by row, the
    flux-form border of a :class:`FluxOperator` by a row divisor it keeps,
    and its Toeplitz tail by the step of the tail's first row, so it stays
    Toeplitz.

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
