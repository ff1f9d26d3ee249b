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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import assembly  # symbol_p calls assembly.uniform_toeplitz, so perfbench's wrap sees it
from ._memory import require_memory
from .assembly import AssemblyError, FdeProblem, assemble_matrix
from .mesh import blend_coefficients, graded_grid, one_of

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

#: The sampling grids of :func:`eig_vs_symbol` by tag, their labels, and its default.
GRID_LABELS = {"coarse": "coarse-(i)", "fine": "fine-(ii)"}
DEFAULT_GRID_TAG = "fine"
#: Largest n of the dense eigensolves of :func:`eig_vs_symbol` and of :func:`glt5_sequence`.
_EIG_MAX_N, _GRAM_MAX_N = 2**9, 2**10

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
#: With 64, 256 and 1024 the fine report took 0.161, 0.153 and 0.308 s at
#: n = 64 and 1.62, 1.56 and 1.64 s at n = 128 (median of 5, 2 vCPUs).
_CORNER_GROUPS = 256

#: Bisection stops once a bracket holds about this many samples.  With 1024,
#: 4096 and 16384 the fine report took 0.154, 0.153 and 0.148 s at n = 64 and
#: 1.56, 1.56 and 1.36 s at n = 128 (median of 5); over 9 runs 16384 is within
#: the quartiles of 4096, and its peak is 16.3 MB against 10.9 MB at n = 64.
_CANDIDATES = 4096


@dataclass(frozen=True)
class SymbolSample:
    """Symbol values over a product grid of space and frequency points."""

    values: np.ndarray  # shape (len(x_grid), len(theta_grid))


@dataclass(frozen=True)
class DistributionReport:
    """Sorted eigenvalues vs sorted symbol samples and their sup distance."""

    sorted_eigs: np.ndarray
    sorted_samples: np.ndarray
    sup_gap: float
    grid_tag: str


@functools.lru_cache(maxsize=1)
def _first_row(n_terms: int, beta: float) -> np.ndarray:
    """The first row of ``uniform_toeplitz(n_terms, beta)``, read-only: a
    report's blocks all read the one row."""
    row = assembly.uniform_toeplitz(n_terms, beta).first_row
    row.flags.writeable = False
    return row


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
    c = _first_row(n_terms, beta) * scale
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
    gprime: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SymbolSample:
    """Tabulate the two-variable symbol over a product grid at unit diffusion
    and :data:`DEFAULT_SYMBOL_TERMS` terms, as :func:`eig_vs_symbol` samples it."""
    xs = np.asarray(x_grid, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    values = np.outer(_space_factor(beta, xs, gprime), symbol_p(DEFAULT_SYMBOL_TERMS, beta, thetas))
    return SymbolSample(values)


def _space_factor(beta: float, xs: np.ndarray, gprime) -> np.ndarray:
    """The symbol's factor ``d(x) = 1 / (2^beta Gamma(beta+1) g'(x)^(1-beta))`` at K = 1."""
    gp = np.ones_like(xs) if gprime is None else np.asarray(gprime(xs), dtype=float)
    if np.any(gp <= 0.0):
        raise ValueError("the mesh map derivative must be positive")
    return 1.0 / (2.0**beta * math.gamma(beta + 1.0) * gp ** (1.0 - beta))


def _counts_below(ds: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``#{i: fl(ds_i p_j) < t_k}`` for each threshold ``t_k`` and column ``j``.

    ``ds`` is sorted and ``p`` positive, so column ``j`` of the pool never
    decreases down the rows (rounding is monotone), and ``searchsorted(ds,
    t_k / p_j)`` is its count unless a product next to it rounds across
    ``t_k``; only those pairs search the column ``ds * p_j`` itself.
    """
    est = np.searchsorted(ds, t[:, None] / p)
    ext = np.concatenate(([-np.inf], ds, [np.inf]))  # ext[i + 1] = ds[i], infinite past the ends
    ok = ext[est] * p < t[:, None]
    ok &= ext[est + 1] * p >= t[:, None]
    if not ok.all():  # rare, and the scan for it costs 4% of a report at n = 128
        for k, j in zip(*np.nonzero(~ok)):
            est[k, j] = np.searchsorted(ds * p[j], t[k])
    return est


def _brackets(ds: np.ndarray, p: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds ``lo <= v_r < hi`` on the order statistics ``v_r`` of the pool
    ``fl(d_i p_j)``, from its sorted factor ``ds`` and positive factor ``p``,
    and the pool's count below each ``lo``.

    The pool is a sorted matrix over ``sort(d) x sort(p)``, so each group of
    a coarse grid of its rows and columns has its extremes at its corners:
    at most ``r`` samples lie below ``lo`` and more than ``r`` at or below a
    group's largest sample, whose next float is ``hi`` (Frederickson,
    Johnson, SIAM J. Comput. 13, 1984).  Geometric bisection with exact
    counts then narrows each bracket until it holds about
    :data:`_CANDIDATES` samples or a single float, ``hi = nextafter(lo)``.
    """
    ps = np.sort(p)
    # a count over all m columns holds four arrays of batch x m entries; at a
    # sixteenth of a block each (512 KB) they stay in a 2 MB L2 cache, and the
    # n = 256 report took 21 s, against 26 s at a quarter of a block (2 vCPUs)
    batch = max(1, _BLOCK_SAMPLES // 16 // ps.size)

    def counts(t):
        return np.concatenate([
            _counts_below(ds, ps, t[i : i + batch]).sum(axis=1) for i in range(0, t.size, batch)
        ])

    def groups(k):
        start = np.arange(0, k, -(-k // _CORNER_GROUPS))
        return start, np.append(start[1:], k)

    r0, r1 = groups(ds.size)
    c0, c1 = groups(ps.size)
    weight = np.outer(r1 - r0, c1 - c0).ravel()
    low = np.outer(ds[r0], ps[c0]).ravel()  # each group's smallest sample
    high = np.outer(ds[r1 - 1], ps[c1 - 1]).ravel()  # and its largest
    i = np.argsort(low)
    lo = low[i][np.searchsorted(np.cumsum(weight[i]), ranks, side="right")]
    i = np.argsort(high)
    hi = np.nextafter(high[i][np.searchsorted(np.cumsum(weight[i]), ranks + 1)], np.inf)
    below, upto = np.split(counts(np.concatenate([lo, hi])), 2)

    while True:
        live = np.flatnonzero((upto - below > _CANDIDATES) & (np.nextafter(lo, np.inf) < hi))
        if live.size == 0:
            return lo, hi, below
        a, b = lo[live], hi[live]
        # the geometric mean, kept strictly inside its bracket
        mid = np.clip(np.sqrt(a * b), np.nextafter(a, np.inf), np.nextafter(b, -np.inf))
        count = counts(mid)
        up = count > ranks[live]
        hi[live[up]], upto[live[up]] = mid[up], count[up]
        lo[live[~up]], below[live[~up]] = mid[~up], count[~up]


def _pool_quantiles(
    beta: float, xs: np.ndarray, thetas: np.ndarray, gprime, ranks: np.ndarray, width: int
) -> np.ndarray:
    """Order statistics ``ranks`` of the symbol samples over ``xs x thetas``.

    The samples are drawn once each, through :func:`sample_symbol`, in
    blocks of ``width`` frequencies; only the candidates of each bracket
    wider than one float are kept.
    """
    d = _space_factor(beta, xs, gprime)
    p = symbol_p(DEFAULT_SYMBOL_TERMS, beta, thetas)
    if not np.all(p > 0.0):
        raise ValueError(
            f"the generating function must be positive on the sampling grid, "
            f"its least value is {p.min():.3g}"
        )
    order = np.argsort(d, kind="stable")  # d need not be monotone in x
    ds = d[order]
    lo, hi, below = _brackets(ds, p, ranks)
    out = lo  # a bracket of one float is its quantile
    wide = np.flatnonzero(hi != np.nextafter(lo, np.inf))
    bounds = np.concatenate([lo[wide], hi[wide]])
    nq = wide.size
    parts: list[list[np.ndarray]] = [[] for _ in range(nq)]
    for c0 in range(0, thetas.size, width):
        pb = p[c0 : c0 + width]
        counts = _counts_below(ds, pb, bounds)
        start, lengths = counts[:nq], counts[nq:] - counts[:nq]
        # row positions start[k, j], ..., start[k, j] + lengths[k, j] - 1 of column j, k by k
        run = lengths.ravel()
        pos = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run - start.ravel(), run)
        col = np.repeat(np.tile(np.arange(pb.size), nq), run)
        found = sample_symbol(beta, xs, thetas[c0 : c0 + width], gprime=gprime).values[order[pos], col]
        assert np.array_equal(found, ds[pos] * pb[col]), "a drawn sample is not its factors' product"
        for part, cand in zip(parts, np.split(found, np.cumsum(lengths.sum(axis=1))[:-1])):
            part.append(cand)
    for k, r in enumerate(wide):
        cand = np.concatenate(parts[k])
        j = ranks[r] - below[r]
        assert 0 <= j < cand.size, "a quantile fell outside its bracket"
        out[r] = np.partition(cand, j)[j]
    return out


def _power_grid_matrix(beta: float, q: float, n: int) -> np.ndarray:
    grid = graded_grid(n, blend_coefficients(q, 1.0, 0.0))
    return assemble_matrix(grid, FdeProblem(beta, 0.5)).entries


def eig_vs_symbol(beta: float, q: float, n: int, grid_tag: str = DEFAULT_GRID_TAG) -> DistributionReport:
    """Compare eigenvalues of the scaled matrix with sorted symbol samples.

    The matrix is assembled on the pure power-graded mesh ``x = xhat**q``
    with balanced anisotropy and unit diffusion, scaled by ``h**(1-beta)``
    with ``h = 1/(n+1)``.  The symbol is sampled on one of two product
    grids: ``"coarse"`` uses ``sqrt(n)`` points per axis (n samples in
    total), ``"fine"`` ``n**2`` points per axis, reduced to ``n``
    midpoint quantiles of the sorted sample pool; the report labels them
    by :data:`GRID_LABELS`.  The quantiles are selected by
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
    label = GRID_LABELS.get(grid_tag)
    if label is None:
        raise ValueError(f"grid_tag must be {one_of(map(repr, GRID_LABELS))}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _EIG_MAX_N:
        raise ValueError(f"dense eigensolve limited to n <= {_EIG_MAX_N}")
    m = math.isqrt(n) if grid_tag == "coarse" else n * n  # sampling points per axis
    if grid_tag == "coarse" and m * m != n:
        raise ValueError("the coarse sampling grid needs n to be a perfect square")
    width = _THETA_CHUNK * min(4, max(1, _BLOCK_SAMPLES // (_THETA_CHUNK * m)))
    # one block of samples, the factors d, p, their sorted copies, the row order
    # and the padded copy of sorted d that a count reads
    require_memory(8 * m * (width + 6), f"the {grid_tag} sampling blocks at n = {n}")

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
    samples = _pool_quantiles(beta, xs, thetas, lambda x: q * x ** (q - 1.0), ranks, width)

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
        if n > _GRAM_MAX_N:
            raise ValueError(f"dense Gram eigensolve limited to n <= {_GRAM_MAX_N}")
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
            s16, s32 = glt5_sequence(float(beta), float(q), [2**4, 2**5])
            signs[i, j] = np.sign(s16 - s32) if abs(s16 - s32) >= 1e-14 else 0
    return signs
