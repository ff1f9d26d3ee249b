"""Full (unrestarted) GMRES with optional left preconditioning.

The stopping rule follows the experiment protocol used throughout this
package: zero initial guess and iteration until the *true* relative
residual ``||b - A x_k|| / ||b||`` drops below the tolerance, regardless of
any preconditioner.  The products ``A v_j`` of the Krylov basis vectors,
which the preconditioned Arnoldi step forms anyway, are kept, so each
iteration tracks ``A x_k = sum_j y_j (A v_j)`` without a further product;
one real product ``A x_k`` confirms the residual before the iteration
stops.  The orthogonalization is classical Gram-Schmidt applied twice, each
pass two matrix-vector products with the basis, and each iteration solves
the small Hessenberg least-squares problem afresh by one QR factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._memory import require_memory

__all__ = ["SolveReport", "gmres"]

#: Krylov basis vectors allocated at the start of a solve; the basis doubles
#: when it is full.  A V-cycle-preconditioned solve of the benchmark's cases
#: stops after 6 to 15 iterations, so one allocation serves it.
_BASIS_ROWS = 16


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    ``residual_history[k]`` is the relative residual after ``k + 1``
    iterations, formed from the kept products ``A v_j``, so it equals the
    true residual up to rounding.  An entry below the tolerance, and the
    final entry, is the true residual ``||b - A x_k|| / ||b||`` of a real
    product; ``converged`` is true iff the final entry is below the
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
        It must not modify its argument, which is a kept product ``A v_j``.
    tol : float
        Relative residual tolerance.
    maxit : int
        Maximum number of iterations; running out is reported via
        ``converged=False``, not raised.  The Hessenberg matrix for ``maxit``
        steps is allocated up front, the Krylov basis starts with
        :data:`_BASIS_ROWS` vectors and doubles when it is full, and the kept
        products grow by one vector per iteration; a ``maxit`` whose storage
        would exceed physical memory raises ``ValueError`` before any of it
        is allocated.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    require_memory(8 * ((maxit + 1) * (n + maxit) + maxit * n),
                   f"GMRES storage for {maxit} iterations")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveReport(0, np.zeros(0), True, np.zeros(n))

    # w is orthogonalized in place, so it must not be the kept product A v_k
    apply_m = precond if precond is not None else np.copy

    r0 = apply_m(b)
    r0norm = float(np.linalg.norm(r0))
    if r0norm == 0.0:
        # preconditioner annihilated b; treat as numerical breakdown
        return SolveReport(0, np.array([1.0]), False, np.zeros(n), breakdown=True)

    v = np.empty((min(maxit + 1, _BASIS_ROWS), n))
    v[0] = r0 / r0norm
    h = np.zeros((maxit + 1, maxit))

    def confirm(y: np.ndarray) -> tuple[np.ndarray, float]:
        """The iterate of the coefficients ``y`` and its true residual."""
        x = y @ v[: y.size]
        return x, float(np.linalg.norm(b - op.matvec(x))) / bnorm

    av: list[np.ndarray] = []  # A v_j, one per iteration
    y = np.zeros(0)  # coefficients of the current iterate, x_0 = 0
    history: list[float] = []
    solution = np.zeros(n)
    converged = False
    breakdown = False

    for k in range(maxit):
        av.append(op.matvec(v[k]))
        w = apply_m(av[k])
        wnorm_in = float(np.linalg.norm(w))
        for _ in range(2):
            d = v[: k + 1] @ w
            w -= d @ v[: k + 1]
            h[: k + 1, k] += d
        h[k + 1, k] = float(np.linalg.norm(w))

        happy = h[k + 1, k] <= 1e-14 * max(wnorm_in, 1.0)
        if not happy:
            if k + 1 == v.shape[0]:
                grown = np.empty((min(2 * v.shape[0], maxit + 1), n))
                grown[: k + 1] = v
                v = grown
            v[k + 1] = w / h[k + 1, k]

        # y minimizes ||r0norm e_1 - H y|| over the (k + 2) x (k + 1) Hessenberg H
        q, r = np.linalg.qr(h[: k + 2, : k + 1])
        if r[k, k] == 0.0:  # H is rank deficient: the previous iterate stands
            breakdown = True
            solution, res = confirm(y)
            history.append(res)
            break
        y = np.linalg.solve(r, r0norm * q[0])

        # residual of the current iterate from the kept products
        ax = y[0] * av[0]
        for j in range(1, k + 1):
            ax += y[j] * av[j]
        res = float(np.linalg.norm(b - ax)) / bnorm
        if res < tol or happy or k == maxit - 1:
            solution, res = confirm(y)
        history.append(res)

        if res < tol:
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
