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
    gp = np.ones_like(xs) if gprime is None else np.asarray(gprime(xs), dtype=float)
    if np.any(gp <= 0.0):
        raise ValueError("the mesh map derivative must be positive")
    diag = diffusion / (2.0**beta * math.gamma(beta + 1.0) * gp ** (1.0 - beta))
    values = np.outer(diag, symbol_p(n_terms, beta, thetas))
    return SymbolSample(thetas, xs, values)


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
    ``coarse-(i)`` and ``fine-(ii)``.  ``sup_gap`` is the
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
    require_memory(m * m * 8, f"the {grid_tag} sampling grid at n = {n}")

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
    table = sample_symbol(
        beta, xs, thetas, gprime=lambda x: q * x ** (q - 1.0), n_terms=n_terms
    )
    samples = table.values.ravel()
    samples.sort()
    if samples.size != n:
        # midpoint quantiles reduce the sample pool to one value per eigenvalue
        idx = ((np.arange(n) + 0.5) / n * samples.size).astype(int)
        samples = samples[np.clip(idx, 0, samples.size - 1)]

    gaps = np.abs(np.asarray(sorted_eigs).real - samples)
    gap = float(gaps[1:-1].max() if gaps.size > 2 else gaps.max())
    return DistributionReport(sorted_eigs, samples, gap, label)


def glt5_sequence(beta: float, q: float, n_list: Sequence[int]) -> np.ndarray:
    """Trace-norm asymmetry ``h^(1-b) ||A - A^T||_tr / n`` along ``n_list``.

    Decreasing values support the eigenvalue-distribution claim for the
    grading strength ``q``; the crossover sits near ``q = (2-b)/(1-b)``.
    """
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        if n > 2**10:
            raise ValueError("dense SVD limited to n <= 1024")
        a = _power_grid_matrix(beta, q, int(n))
        sv = np.linalg.svd(a - a.T, compute_uv=False)
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
