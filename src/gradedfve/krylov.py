"""Full (unrestarted) GMRES with optional left preconditioning.

The stopping rule follows the experiment protocol used throughout this
package: zero initial guess and iteration until the *true* relative
residual ``||b - A x_k|| / ||b||`` drops below the tolerance, regardless of
any preconditioner.  The orthogonalization is modified Gram-Schmidt with a
single conditional reorthogonalization pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._memory import require_memory

__all__ = ["SolveReport", "gmres"]

_REORTH_TOL = 1e-8


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    ``residual_history[k]`` is the true relative residual after ``k + 1``
    iterations; ``converged`` is true iff the final entry is below the
    tolerance used for the solve.  ``breakdown`` flags a numerical Arnoldi
    breakdown that was not a converged (happy) one.
    """

    iterations: int
    residual_history: np.ndarray
    converged: bool
    solution: np.ndarray
    breakdown: bool = field(default=False)


def gmres(
    op,
    b: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-7,
    maxit: int = 100,
) -> SolveReport:
    """Solve ``A x = b`` by full GMRES with zero initial guess.

    Parameters
    ----------
    op : object with a ``matvec`` method
        The system operator; only its ``matvec`` is used.
    b : ndarray
        Right-hand side.
    precond : callable, optional
        Approximate inverse applied on the left (e.g. one multigrid
        V-cycle).  The Krylov space is built for the preconditioned
        operator but the stopping test uses the unpreconditioned residual.
    tol : float
        Relative residual tolerance.
    maxit : int
        Maximum number of iterations; running out is reported via
        ``converged=False``, not raised.  The Krylov basis and the Hessenberg
        matrix for ``maxit`` steps are allocated up front, so a ``maxit``
        whose storage exceeds physical memory raises ``ValueError``.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    require_memory(8 * (maxit + 1) * (n + maxit), f"GMRES storage for {maxit} iterations")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveReport(0, np.zeros(0), True, np.zeros(n))

    apply_m = precond if precond is not None else (lambda v: v)

    r0 = apply_m(b)
    r0norm = float(np.linalg.norm(r0))
    if r0norm == 0.0:
        # preconditioner annihilated b; treat as numerical breakdown
        return SolveReport(0, np.array([1.0]), False, np.zeros(n), breakdown=True)

    v = np.zeros((maxit + 1, n))
    v[0] = r0 / r0norm
    h = np.zeros((maxit + 1, maxit))
    cs = np.zeros(maxit)
    sn = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = r0norm

    history: list[float] = []
    solution = np.zeros(n)
    converged = False
    breakdown = False

    for k in range(maxit):
        w = apply_m(op.matvec(v[k]))
        wnorm_in = float(np.linalg.norm(w))
        for j in range(k + 1):
            h[j, k] = v[j] @ w
            w -= h[j, k] * v[j]
        # one reorthogonalization pass if orthogonality degraded
        d = v[: k + 1] @ w
        if d.size and np.abs(d).max() > _REORTH_TOL * max(np.linalg.norm(w), 1e-300):
            w -= d @ v[: k + 1]
            h[: k + 1, k] += d
        h[k + 1, k] = float(np.linalg.norm(w))

        happy = h[k + 1, k] <= 1e-14 * max(wnorm_in, 1.0)
        if not happy:
            v[k + 1] = w / h[k + 1, k]

        # apply stored Givens rotations, then generate the new one
        for j in range(k):
            t = cs[j] * h[j, k] + sn[j] * h[j + 1, k]
            h[j + 1, k] = -sn[j] * h[j, k] + cs[j] * h[j + 1, k]
            h[j, k] = t
        denom = float(np.hypot(h[k, k], h[k + 1, k]))
        if denom == 0.0:
            breakdown = True
            history.append(history[-1] if history else 1.0)
            break
        cs[k] = h[k, k] / denom
        sn[k] = h[k + 1, k] / denom
        h[k, k] = denom
        h[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]

        # current iterate and true residual
        y = np.linalg.solve(h[: k + 1, : k + 1], g[: k + 1])
        solution = y @ v[: k + 1]
        true_res = float(np.linalg.norm(b - op.matvec(solution))) / bnorm
        history.append(true_res)

        if true_res < tol:
            converged = True
            break
        if happy:
            # exact subspace solution that still misses the tolerance
            breakdown = True
            break

    return SolveReport(
        iterations=len(history),
        residual_history=np.asarray(history),
        converged=converged,
        solution=solution,
        breakdown=breakdown,
    )
