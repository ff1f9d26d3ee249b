"""Generating functions, spectral symbols and distribution diagnostics.

On a uniform mesh with constant diffusion and balanced anisotropy the
coefficient matrix is symmetric Toeplitz; its normalized generating
function is the cosine series whose coefficients are the (scaled) matrix
diagonals, read from the first row that the assembly gives.  Pushing the
mesh through an increasing map ``g`` multiplies the generating function
by the diagonal factor
``K / (2^beta Gamma(beta+1) g'(x)^{1-beta})``; the routines here sample
that two-variable symbol, compare its sorted samples against the sorted
eigenvalues of the scaled matrices, and evaluate the trace-norm asymmetry
sequence that signals whether the eigenvalue distribution claim extends to
a given grading strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import assembly  # symbol_p calls assembly.uniform_toeplitz, so perfbench's wrap sees it
from ._memory import require_memory
from .assembly import AssemblyError, FdeProblem, assemble_matrix
from .mesh import blend_coefficients, graded_grid

__all__ = [
    "DEFAULT_SYMBOL_TERMS",
    "SymbolSample",
    "DistributionReport",
    "symbol_p",
    "sample_symbol",
    "eig_vs_symbol",
    "glt5_sequence",
    "glt5_region",
]

#: Series length used when approximating the limiting generating function.
DEFAULT_SYMBOL_TERMS = 4096

#: Frequencies per block of :func:`symbol_p`, which bounds its memory.  At
#: 4096 terms, 64 points keep each block's GEMMs on one BLAS thread: 256 are
#: 6% faster on an idle 2-vCPU machine but 1.7x slower in the median, with
#: stalls of 0.1 s, while another process keeps one core busy.
_THETA_CHUNK = 64

#: Samples per block of the fine pool that :func:`eig_vs_symbol` streams
#: (8 MB).  A block is 1 to 4 chunks of frequencies wide: at n = 32 and 64,
#: wider blocks are no faster but hold 1.4-3.5x more memory.
_BLOCK_SAMPLES = 2**20

#: Groups per axis of the corner subsample that first brackets each quantile.
_CORNER_GROUPS = 256

#: Bisection stops once a bracket holds about this many samples.
_CANDIDATES = 4096

#: Relative slack that makes a count from the factors bound the pool's count:
#: it covers the roundings of ``t / p_j`` and of the products ``d_i p_j``.
_SLACK = 2.0**-50


@dataclass(frozen=True)
class SymbolSample:
    """Symbol values over a product grid of space and frequency points."""

    theta_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray  # shape (len(x_grid), len(theta_grid))


@dataclass(frozen=True)
class DistributionReport:
    """Sorted eigenvalues vs sorted symbol samples and their sup distance."""

    sorted_eigs: np.ndarray
    sorted_samples: np.ndarray
    sup_gap: float
    grid_tag: str


def symbol_p(n_terms: int, beta: float, theta):
    """Truncated generating function ``t_0 + 2 sum t_k cos(k theta)``.

    The coefficients are the first row of ``uniform_toeplitz(n_terms, beta)``,
    whose entry ``(i, j)`` is ``h^(beta-1) / (2^beta Gamma(beta+1)) t_|i-j|``
    at step ``h``.  Even in ``theta``, nonnegative, with a single zero at the
    origin of order below 2 for every ``beta`` in (0, 1).  ``theta`` may be
    a scalar or an array.

    The series is summed by blocked angle addition: with ``B = ceil(sqrt(K))``
    for ``K = n_terms`` terms, ``k = b*B + j`` and ``cos(k theta) =
    cos(bB theta) cos(j theta) - sin(bB theta) sin(j theta)``, so each block
    ``b`` is a product of the ``cos(j theta)`` and ``sin(j theta)`` tables
    with the ``B x ceil(K/B)`` coefficient matrix, finished by a row sum
    against ``cos(bB theta)`` and ``sin(bB theta)``.  P points cost about
    ``4 P sqrt(K)`` sines and cosines plus two GEMMs of about ``P K``
    multiply-adds each, instead of ``P K`` cosines; ``theta`` is taken
    :data:`_THETA_CHUNK` points at a time, so the memory beyond the result is
    ``O(_THETA_CHUNK * sqrt(K))`` (under 1 MB at ``K = 4096``).
    """
    if n_terms < 1:
        raise AssemblyError("the number of coefficients must be >= 1")
    scale = 2.0**beta * math.gamma(beta + 1.0) / (n_terms + 1) ** (1.0 - beta)
    c = assembly.uniform_toeplitz(n_terms, beta).first_row * scale
    c[1:] *= 2.0
    blk = math.isqrt(n_terms - 1) + 1
    nblk = -(-n_terms // blk)
    coef = np.zeros(nblk * blk)
    coef[:n_terms] = c
    coef = coef.reshape(nblk, blk).T  # coef[j, b] = c_{b*blk + j}
    j = np.arange(blk, dtype=float)
    jb = blk * np.arange(nblk, dtype=float)

    th = np.atleast_1d(np.asarray(theta, dtype=float))
    flat = th.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _THETA_CHUNK):
        t = flat[lo : lo + _THETA_CHUNK, None]
        angle = t * j
        u = np.cos(angle) @ coef
        v = np.sin(angle) @ coef
        angle = t * jb
        u *= np.cos(angle)
        v *= np.sin(angle)
        u -= v
        out[lo : lo + _THETA_CHUNK] = u.sum(axis=1)
    if np.isscalar(theta):
        return float(out[0])
    return out.reshape(th.shape)


def sample_symbol(
    beta: float,
    x_grid,
    theta_grid,
    diffusion: float = 1.0,
    gprime: Callable[[np.ndarray], np.ndarray] | None = None,
    n_terms: int = DEFAULT_SYMBOL_TERMS,
) -> SymbolSample:
    """Tabulate the two-variable symbol over a product grid."""
    xs = np.asarray(x_grid, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    values = np.outer(_space_factor(beta, xs, diffusion, gprime), symbol_p(n_terms, beta, thetas))
    return SymbolSample(thetas, xs, values)


def _space_factor(beta: float, xs: np.ndarray, diffusion: float, gprime) -> np.ndarray:
    """The symbol's factor ``d(x) = K / (2^beta Gamma(beta+1) g'(x)^(1-beta))``."""
    gp = np.ones_like(xs) if gprime is None else np.asarray(gprime(xs), dtype=float)
    if np.any(gp <= 0.0):
        raise ValueError("the mesh map derivative must be positive")
    return diffusion / (2.0**beta * math.gamma(beta + 1.0) * gp ** (1.0 - beta))


def _brackets(ds: np.ndarray, p: np.ndarray, ranks: np.ndarray, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= v_r <= hi`` on the order statistics ``v_r`` of the pool
    ``fl(d_i p_j)``, from its sorted factor ``ds`` and positive factor ``p``.

    The pool is a sorted matrix over ``sort(d) x sort(p)``, so each group of
    a coarse grid of its rows and columns has its extremes at its corners:
    at most ``r`` samples lie below ``lo`` and more than ``r`` at or below
    ``hi`` (Frederickson, Johnson, SIAM J. Comput. 13, 1984).  Geometric
    bisection then narrows each bracket, counting the products below a
    value ``t`` as ``sum_j #{i: d_i < t / p_j}``; :data:`_SLACK` turns that
    count into a bound on the pool's own.  The counts are taken ``batch``
    thresholds at a time.
    """
    ps = np.sort(p)

    def groups(k):
        start = np.arange(0, k, -(-k // _CORNER_GROUPS))
        return start, np.append(start[1:], k)

    r0, r1 = groups(ds.size)
    c0, c1 = groups(ps.size)
    weight = np.outer(r1 - r0, c1 - c0).ravel()
    low = np.outer(ds[r0], ps[c0]).ravel()  # each group's smallest sample
    high = np.outer(ds[r1 - 1], ps[c1 - 1]).ravel()  # and its largest
    i = np.argsort(low)
    low, low_weight = low[i], np.cumsum(weight[i])
    i = np.argsort(high)
    high, high_weight = high[i], np.cumsum(weight[i])
    lo = low[np.searchsorted(low_weight, ranks, side="right")]
    hi = high[np.searchsorted(high_weight, ranks + 1)]
    # the samples below lo are at least those of the groups wholly below it,
    # and those up to hi at most those of the groups that start by it
    below = np.append(0, high_weight)[np.searchsorted(high, lo)]
    upto = low_weight[np.searchsorted(low, hi, side="right") - 1]

    inv = ps[::-1]  # t / inv rises along a row, which speeds up the search
    while True:
        # a bracket within 4 slacks of a point cannot shrink further
        live = np.flatnonzero((upto - below > _CANDIDATES) & (hi > lo * (1.0 + 4.0 * _SLACK)))
        if live.size == 0:
            return lo, hi
        mid = np.sqrt(lo[live] * hi[live])
        count = np.concatenate([
            np.searchsorted(ds, mid[i : i + batch, None] / inv).sum(axis=1)
            for i in range(0, mid.size, batch)
        ])
        up = count > ranks[live]
        k = live[up]
        hi[k] = np.minimum(hi[k], mid[up] * (1.0 + _SLACK))
        upto[k] = count[up]
        k = live[~up]
        lo[k] = np.maximum(lo[k], mid[~up] * (1.0 - _SLACK))
        below[k] = count[~up]


def _counts_below(
    vals: np.ndarray, order: np.ndarray, ds: np.ndarray, p: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """``#{i: vals[i, j] < t_k}`` for each threshold ``t_k`` and column ``j``.

    Every column of ``vals`` is ``fl(d_i p_j)``, sorted along ``order``.
    The count from the factors is exact where the column's entries next to
    it straddle ``t_k``; elsewhere a rounding tie decides, and the column
    itself is searched.
    """
    m = ds.size
    est = np.searchsorted(ds, t[:, None] / p)
    col = np.arange(p.size)
    ok = (est == 0) | (vals[order[np.maximum(est - 1, 0)], col] < t[:, None])
    ok &= (est == m) | (vals[order[np.minimum(est, m - 1)], col] >= t[:, None])
    for k, j in zip(*np.nonzero(~ok)):
        est[k, j] = np.searchsorted(vals[order, j], t[k])
    return est


def _pool_quantiles(
    beta: float, xs: np.ndarray, thetas: np.ndarray, gprime, n_terms: int,
    ranks: np.ndarray, width: int,
) -> np.ndarray:
    """Order statistics ``ranks`` of the symbol samples over ``xs x thetas``.

    The samples are drawn once each, through :func:`sample_symbol`, in
    blocks of ``width`` frequencies; only each quantile's bracket of
    candidates is kept.
    """
    d = _space_factor(beta, xs, 1.0, gprime)
    p = symbol_p(n_terms, beta, thetas)
    if not np.all(p > 0.0):
        raise ValueError(
            f"the generating function must be positive on the sampling grid, "
            f"its least value is {p.min():.3g}"
        )
    order = np.argsort(d, kind="stable")  # d need not be monotone in x
    ds = d[order]
    lo, hi = _brackets(ds, p, ranks, max(1, width // 2))  # its searches take one block's memory
    # candidates are the samples in [lo, hi]: below lo, and below the next float after hi
    bounds = np.concatenate([lo, np.nextafter(hi, np.inf)])
    nq = ranks.size
    below = np.zeros(nq, dtype=int)
    parts: list[list[np.ndarray]] = [[] for _ in range(nq)]
    for c0 in range(0, thetas.size, width):
        vals = sample_symbol(beta, xs, thetas[c0 : c0 + width], gprime=gprime, n_terms=n_terms).values
        counts = _counts_below(vals, order, ds, p[c0 : c0 + width], bounds)
        start, lengths = counts[:nq], counts[nq:] - counts[:nq]
        below += start.sum(axis=1)
        # row positions start[k, j], ..., start[k, j] + lengths[k, j] - 1 of column j, k by k
        run = lengths.ravel()
        pos = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run - start.ravel(), run)
        col = np.repeat(np.tile(np.arange(vals.shape[1]), nq), run)
        found = vals[order[pos], col]
        del vals  # so that the next block does not join it
        for k, part in enumerate(np.split(found, np.cumsum(lengths.sum(axis=1))[:-1])):
            parts[k].append(part)
    out = np.empty(nq)
    for k in range(nq):
        cand = np.concatenate(parts[k])
        j = ranks[k] - below[k]
        assert 0 <= j < cand.size, "a quantile fell outside its bracket"
        out[k] = np.partition(cand, j)[j]
    return out


def _power_grid_matrix(beta: float, q: float, n: int) -> np.ndarray:
    grid = graded_grid(n, blend_coefficients(q, 1.0, 0.0))
    problem = FdeProblem(beta=beta, gamma=0.5, diffusion=1.0)
    return assemble_matrix(grid, problem).entries


def eig_vs_symbol(
    beta: float,
    q: float,
    n: int,
    grid_tag: str = "fine",
    n_terms: int = DEFAULT_SYMBOL_TERMS,
) -> DistributionReport:
    """Compare eigenvalues of the scaled matrix with sorted symbol samples.

    The matrix is assembled on the pure power-graded mesh ``x = xhat**q``
    with balanced anisotropy and unit diffusion, scaled by ``h**(1-beta)``
    with ``h = 1/(n+1)``.  The symbol is sampled on one of two product
    grids: ``"coarse"`` uses ``sqrt(n)`` points per axis (n samples in
    total), ``"fine"`` ``n**2`` points per axis, reduced to ``n``
    midpoint quantiles of the sorted sample pool; the report labels them
    ``coarse-(i)`` and ``fine-(ii)``.  The quantiles are selected by
    counting, with the pool drawn in blocks of ``2**20`` samples or fewer
    (``64 n**2`` beyond n = 128), so the ``n**4`` fine samples are never
    held at once; the work still grows as ``n**4``.  ``sup_gap`` is the
    maximum absolute difference of the matched sorted sequences (real
    parts; eigenvalues are reported complex only when their imaginary
    parts are non-negligible against the spectral radius), with the single
    extreme pair at each tail excluded: the distribution limit permits a
    vanishing fraction of spectral outliers, and the symbol is unbounded
    so the extreme order statistics carry no distributional information.
    The full matched sequences are returned untrimmed.
    """
    label = {"coarse": "coarse-(i)", "fine": "fine-(ii)"}.get(grid_tag)
    if label is None:
        raise ValueError("grid_tag must be 'coarse' or 'fine'")
    if n > 2**9:
        raise ValueError("dense eigensolve limited to n <= 512")
    m = math.isqrt(n) if grid_tag == "coarse" else n * n  # sampling points per axis
    if grid_tag == "coarse" and m * m != n:
        raise ValueError("the coarse sampling grid needs n to be a perfect square")
    width = _THETA_CHUNK * min(4, max(1, _BLOCK_SAMPLES // (_THETA_CHUNK * m)))
    # one block of samples and the factors d, p, their sorted copies and the row order
    require_memory(8 * m * (width + 5), f"the {grid_tag} sampling blocks at n = {n}")

    a = _power_grid_matrix(beta, q, n)
    h = 1.0 / (n + 1)
    eigs = np.linalg.eigvals(h ** (1.0 - beta) * a)
    radius = float(np.abs(eigs).max())
    if np.abs(eigs.imag).max() < 1e-8 * radius:
        sorted_eigs: np.ndarray = np.sort(eigs.real)
    else:
        sorted_eigs = eigs[np.argsort(eigs.real)]

    xs = np.arange(1, m + 1) / m
    thetas = np.arange(1, m + 1) * math.pi / (m + 1)
    # midpoint quantiles reduce the pool of m^2 samples to one value per eigenvalue
    ranks = np.minimum(((np.arange(n) + 0.5) / n * (m * m)).astype(int), m * m - 1)
    samples = _pool_quantiles(
        beta, xs, thetas, lambda x: q * x ** (q - 1.0), n_terms, ranks, width
    )

    gaps = np.abs(np.asarray(sorted_eigs).real - samples)
    gap = float(gaps[1:-1].max() if gaps.size > 2 else gaps.max())
    return DistributionReport(sorted_eigs, samples, gap, label)


def glt5_sequence(beta: float, q: float, n_list: Sequence[int]) -> np.ndarray:
    """Trace-norm asymmetry ``h^(1-b) ||S||_tr / n`` of ``S = A - A^T`` along ``n_list``.

    Decreasing values support the distribution claim; the crossover is near q = (2-b)/(1-b).
    ``||S||_tr = sum sqrt(eig(S^T S))`` (Gram eigensolve) costs ``sqrt(eps) ||S||`` absolute
    per small singular value: within 6.6e-12 relative of an SVD to q = 6, 2e-10 at q = 9.
    """
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        if n > 2**10:
            raise ValueError("dense Gram eigensolve limited to n <= 1024")
        a = _power_grid_matrix(beta, q, int(n))
        s = a - a.T  # where S is rounding noise (q = 1), S^T S has tiny negative eigenvalues
        del a  # so that the Gram matrix does not join it
        sv = np.sqrt(np.maximum(np.linalg.eigvalsh(s.T @ s), 0.0))
        out[i] = (1.0 / (n + 1)) ** (1.0 - beta) * sv.sum() / n
    return out


def glt5_region(betas: Sequence[float], qs: Sequence[float]) -> np.ndarray:
    """Sign map of ``s(16) - s(32)`` over a (beta, q) grid.

    +1 marks the convergent (distribution-preserving) side, -1 the
    divergent one, 0 the symmetric boundary ``q = 1``.
    """
    signs = np.zeros((len(betas), len(qs)), dtype=int)
    for i, beta in enumerate(betas):
        for j, q in enumerate(qs):
            s = glt5_sequence(float(beta), float(q), [2**4, 2**5])
            diff = s[0] - s[1]
            if abs(diff) < 1e-14:
                signs[i, j] = 0
            else:
                signs[i, j] = 1 if diff > 0 else -1
    return signs
