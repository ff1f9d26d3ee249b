"""Experiment driver: manufactured test problem, single-case runs, grading
exponent scans and the four benchmark table sweeps.

The test problem has constant unit diffusion, source
``(1-gamma)*(1-beta) / (Gamma(beta) x (1-x)^(1-beta))`` and boundary values
0 and 1; its reference solution is ``u(x) = x**(1-beta)``, singular at the
left boundary.

Two infinity-norm error measures are reported for every case: ``e_inf``
samples the numerical solution's piecewise-linear interpolant at the nodes
of the once-refined mesh of the same family (a function-space error, which
the bundled Table 2 tracks), while ``e_inf_nodes`` restricts to the
solution's own interior nodes (the measure of the bundled Table 3).  The
relative error ``e_rel`` is the nodal discrete 2-norm ratio.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import assembly
from ._memory import require_memory
from .assembly import FdeProblem, assemble_system, row_scale
from .krylov import gmres
from .mesh import (
    BlendCoeffs,
    CompositeRule,
    Grid,
    blend_coefficients,
    composite_grid_from_counts,
    graded_grid,
    q_cap,
    q_for_beta,
    uniform_grid,
)
from .multigrid import build_hierarchy

__all__ = [
    "EPS_PRESETS",
    "MeshSpec",
    "CaseConfig",
    "CaseResult",
    "QOptResult",
    "TableResult",
    "exact_solution",
    "source_term",
    "make_problem",
    "build_case_grid",
    "run_case",
    "scan_qopt",
    "table_sweep",
    "write_csv",
]

#: Named blending-parameter presets used throughout the benchmark tables.
EPS_PRESETS = {
    "eps1": (0.1, 0.05),
    "eps2": (0.2, 0.05),
    "eps3": (0.25, 0.0),
    "eps4": (0.45, 0.05),
    "eps5": (0.5, 0.0),
    "eps6": (1.0, 0.0),
}


def exact_solution(beta: float, x):
    return np.asarray(x, dtype=float) ** (1.0 - beta)


def source_term(beta: float, gamma: float):
    """Source whose solution is ``x**(1-beta)`` with the given anisotropy."""
    c = (1.0 - gamma) * (1.0 - beta) / math.gamma(beta)

    def f(x):
        x = np.asarray(x, dtype=float)
        return c / (x * (1.0 - x) ** (1.0 - beta))

    return f


def make_problem(beta: float, gamma: float) -> FdeProblem:
    return FdeProblem(
        beta=beta,
        gamma=gamma,
        diffusion=1.0,
        source=source_term(beta, gamma),
        u_left=0.0,
        u_right=1.0,
    )


#: The ``MeshSpec`` fields each mesh kind reads.
_MESH_FIELDS = {"uniform": (), "graded": ("q", "eps1", "eps2"), "composite": ("rule", "n1")}


@dataclass(frozen=True)
class MeshSpec:
    """Mesh family selector for a benchmark case.

    ``kind`` is one of ``"uniform"``, ``"graded"``, ``"composite"``.  For
    graded meshes ``q=None`` selects the capped order-optimal exponent for
    the case's beta; an explicit ``q`` above :func:`~gradedfve.mesh.q_cap`
    raises ``ValueError`` (the flux kernel cancels on grids whose first step
    falls below 1e-16).  ``eps1``/``eps2`` are the blend of
    :func:`~gradedfve.mesh.blend_coefficients`.  A composite
    mesh of ``n`` interior points puts ``n1`` of them in the dyadic part and
    ``n - n1`` in the uniform part, with ``n1`` given either by a named
    ``rule`` (``"sqrt"`` or ``"log2"``) or explicitly.  A field that the
    kind does not read, set to anything but its default, raises
    ``ValueError``.
    """

    kind: str = "graded"
    q: float | None = None
    eps1: float = 1.0
    eps2: float = 0.0
    rule: str | None = None
    n1: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _MESH_FIELDS:
            raise ValueError("mesh kind must be uniform, graded or composite")
        unread = [f.name for f in fields(self)
                  if f.name not in ("kind", *_MESH_FIELDS[self.kind])
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"a {self.kind} mesh does not read {', '.join(unread)}")
        if self.kind == "composite" and (self.rule is None) == (self.n1 is None):
            raise ValueError("a composite mesh needs exactly one of rule and n1")

    def coefficients(self, beta: float, n: int) -> BlendCoeffs:
        if self.q is not None and self.q > q_cap(n):
            raise ValueError(f"q = {self.q:g} exceeds the cap {q_cap(n):.4g} at n = {n}")
        q = q_for_beta(beta, n) if self.q is None else self.q
        return blend_coefficients(q, self.eps1, self.eps2)

    def composite_n1(self, n: int) -> int:
        """Dyadic points of the composite grid with ``n`` interior points:
        the rule's value, or the explicit ``n1``."""
        n1 = self.n1 if self.rule is None else CompositeRule(self.rule)(n)
        if not 1 <= n1 < n:
            raise ValueError(f"a composite mesh needs 1 <= n1 < n; got n1 = {n1} at n = {n}")
        return n1

    def refined(self, beta: float, n: int) -> Grid:
        """Once-refined member of the family of the ``n``-point case grid,
        used to sample errors.

        A graded mesh keeps the case grid's map, so the refined even nodes
        coincide with the case grid's nodes.
        """
        if self.kind == "uniform":
            return uniform_grid(2 * n + 1)
        if self.kind == "graded":
            return graded_grid(2 * n + 1, self.coefficients(beta, n))
        n1 = self.composite_n1(n)
        return composite_grid_from_counts(n1 + 1, 2 * (n - n1) + 1)


def build_case_grid(spec: MeshSpec, beta: float, n: int) -> Grid:
    if spec.kind == "uniform":
        return uniform_grid(n)
    if spec.kind == "graded":
        return graded_grid(n, spec.coefficients(beta, n))
    n1 = spec.composite_n1(n)
    return composite_grid_from_counts(n1, n - n1)


@dataclass(frozen=True)
class CaseConfig:
    beta: float
    gamma: float
    mesh: MeshSpec
    n: int
    solver: str = "pgmres"  # pgmres | gmres | direct
    tol: float = 1e-7
    maxit: int = 100

    def __post_init__(self) -> None:
        if self.solver not in ("pgmres", "gmres", "direct"):
            raise ValueError("solver must be pgmres, gmres or direct")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        FdeProblem(self.beta, self.gamma)  # raises on a beta or gamma out of range
        if not 0.0 < self.beta < 1.0:  # the source divides by Gamma(beta)
            raise ValueError("beta must lie in (0, 1)")
        if self.mesh.kind == "composite":
            self.mesh.composite_n1(self.n)  # raises on counts that do not fit n


@dataclass
class CaseResult:
    it: int | None  # None for direct solves or non-converged runs
    converged: bool
    e_inf: float | None
    e_inf_nodes: float | None
    e_rel: float | None
    wall_time: float
    # multigrid hierarchy of a pgmres solve: coarsening steps, Jacobi weight,
    # whether no weight passed the region test (the 2/3 fallback) and how
    # many coarse levels were assembled rather than viewed in the finest operator
    depth: int | None = None
    omega: float | None = None
    omega_fallback: bool = False
    reassembled: int | None = None
    # GMRES stopped on an Arnoldi breakdown that was not convergence
    breakdown: bool = False


def run_case(cfg: CaseConfig) -> CaseResult:
    """Build, solve and measure one benchmark case."""
    t0 = time.perf_counter()
    if cfg.solver == "direct":
        # np.linalg.solve factors a copy of the whole dense matrix
        require_memory(2 * 8 * cfg.n**2, f"a direct solve at N = {cfg.n} (matrix and LU factors)")
    grid = build_case_grid(cfg.mesh, cfg.beta, cfg.n)
    problem = make_problem(cfg.beta, cfg.gamma)
    converged = True
    it: int | None = None
    info: dict = {}
    if cfg.solver == "direct":
        solution = np.linalg.solve(
            assembly.assemble_matrix(grid, problem).entries, assembly.assemble_rhs(grid, problem)
        )
    else:
        # row_scale scales the operator in place and consumes the unscaled
        # system; a mesh with a uniform tail keeps only its tail and its
        # flux-form border on every level, so the solve holds far less than
        # one finest matrix
        system = row_scale(assemble_system(grid, problem))
        precond = None
        if cfg.solver == "pgmres":
            hier = build_hierarchy(system)
            info = dict(depth=hier.depth, omega=hier.omega, omega_fallback=hier.omega_fallback,
                        reassembled=hier.reassembled)
            precond = hier.apply
        report = gmres(
            system.operator, system.rhs, precond=precond, tol=cfg.tol, maxit=cfg.maxit
        )
        solution = report.solution
        converged = report.converged
        info["breakdown"] = report.breakdown
        it = report.iterations if report.converged else None

    wall = time.perf_counter() - t0
    if not converged:
        return CaseResult(None, False, None, None, None, wall, **info)

    xs = grid.points[1:-1]
    ue = exact_solution(cfg.beta, xs)
    e_nodes = float(np.abs(solution - ue).max())
    e_rel = float(np.linalg.norm(solution - ue) / np.linalg.norm(ue))

    fine = cfg.mesh.refined(cfg.beta, cfg.n)
    y = fine.points[1:-1]
    interp = np.interp(
        y,
        grid.points,
        np.concatenate(([problem.u_left], solution, [problem.u_right])),
    )
    e_fine = float(np.abs(interp - exact_solution(cfg.beta, y)).max())

    return CaseResult(it, True, e_fine, e_nodes, e_rel, wall, **info)


@dataclass
class QOptResult:
    q_opt: float
    e_opt: float
    q_beta: float
    e_beta: float
    scanned: list[tuple[float, float]] = field(repr=False, default_factory=list)


def scan_qopt(
    beta: float,
    gamma: float,
    eps1: float,
    eps2: float,
    n: int,
    q_range: tuple[float, float] = (1.0, 9.0),
    step: float = 0.1,
) -> QOptResult:
    """Scan the grading exponent for the smallest infinity-norm error.

    Candidates run over the closed range in the given step; every candidate
    is capped by :func:`~gradedfve.mesh.q_cap` (capped duplicates are
    evaluated once).  Each evaluation is a direct dense solve.  Also
    reports the error at the capped order-optimal exponent.
    """
    if not step > 0.0:
        raise ValueError("the q step must be positive")
    if q_range[1] < q_range[0]:
        raise ValueError("the q range must not decrease")
    count = int(round((q_range[1] - q_range[0]) / step))
    cap = q_cap(n)
    candidates: list[float] = []
    for k in range(count + 1):
        q = min(round(q_range[0] + k * step, 10), cap)
        if not candidates or q != candidates[-1]:
            candidates.append(q)
    qb = q_for_beta(beta, n)
    if qb not in candidates:
        candidates.append(qb)

    errors = {
        q: run_case(CaseConfig(beta, gamma, MeshSpec("graded", q, eps1, eps2), n, "direct")).e_inf
        for q in candidates
    }
    q_opt = min(errors, key=errors.get)
    return QOptResult(q_opt, errors[q_opt], qb, errors[qb], list(errors.items()))


# ---------------------------------------------------------------------------
# table sweeps


def write_csv(fh, columns: Sequence[str], rows, digits: int = 6) -> None:
    """Write a header and rows as CSV to ``fh``.

    A ``None`` cell reads ``-`` and a float is written to ``digits``
    significant digits; any other cell is written as ``str``.
    """
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow(
            ["-" if c is None else f"{c:.{digits}g}" if isinstance(c, float) else c for c in row]
        )


@dataclass
class TableResult:
    table_id: int
    columns: list[str]
    rows: list[list]
    complete: bool


_COMPOSITE_RULES = ("sqrt", "log2")
_SOLVER = {"tol": CaseConfig.tol, "maxit": CaseConfig.maxit}

#: Each table's parameters; an override may replace these keys and no other.
_TABLES: dict[int, dict] = {
    1: dict(gammas=[0.3, 0.5, 0.7], betas=[0.2, 0.5, 0.8], n=2**10 - 1, meshes=list(EPS_PRESETS)),
    2: dict(gammas=[0.5], betas=[0.2, 0.5, 0.8], n_list=[2**k for k in range(4, 11)],
            meshes=[*_COMPOSITE_RULES, "eps1", "eps2", "eps4", "eps6"], **_SOLVER),
    3: dict(pairs=[(2**3, 2**8), (2**4, 2**9), (2**5, 2**10)], beta=0.9, gamma=0.5, **_SOLVER),
    4: dict(gammas=[0.0, 1.0], betas=[0.1, 0.3, 0.7], n_list=[2**k for k in range(5, 11)],
            meshes=[*_COMPOSITE_RULES, "eps1", "eps4", "eps6"], **_SOLVER),
}


def _case(table_id: int, p: dict, key: tuple, mesh: str | None) -> tuple | CaseConfig:
    """One table case: the ``scan_qopt`` arguments for table 1, else the
    ``CaseConfig`` of a solve."""
    if table_id == 1:
        gamma, beta, _ = key
        FdeProblem(beta, gamma)  # raises on a beta or gamma out of range
        return (beta, gamma, *EPS_PRESETS[mesh], p["n"])
    if table_id == 3:
        n1, n2 = key
        spec, beta, gamma, n = MeshSpec("composite", n1=n1), p["beta"], p["gamma"], n1 + n2
    else:
        gamma, beta, n1p = key
        n = n1p - 1
        if mesh in _COMPOSITE_RULES:
            spec = MeshSpec("composite", rule=mesh)
        else:
            eps1, eps2 = EPS_PRESETS[mesh]
            spec = MeshSpec("graded", eps1=eps1, eps2=eps2)
    return CaseConfig(beta, gamma, spec, n, "pgmres", p["tol"], p["maxit"])


def _case_cells(table_id: int, case: tuple | CaseConfig) -> tuple[list, bool]:
    """The three cells of one case and whether it ran; a case that raises
    fills them with ``ERR: <exception type>: <message>``."""
    try:
        if table_id == 1:
            res = scan_qopt(*case)
            return [res.q_opt, res.e_opt, res.e_beta], True
        res = run_case(case)
        e = res.e_inf_nodes if table_id == 3 else res.e_inf
        return [res.it, e, res.e_rel], True
    except Exception as exc:
        return [f"ERR: {type(exc).__name__}: {exc}"] * 3, False


def table_sweep(table_id: int, overrides: dict | None = None) -> TableResult:
    """Run one of the four bundled benchmark tables.

    ``overrides`` may shrink a sweep for time-boxed runs, replacing only the
    keys its table reads: table 1 ``gammas``, ``betas``, ``n``, ``meshes``;
    tables 2 and 4 ``gammas``, ``betas``, ``n_list``, ``meshes``, ``tol``,
    ``maxit``; table 3 ``pairs``, ``beta``, ``gamma``, ``tol``, ``maxit``.
    ``meshes`` keeps a subset of the table's mesh columns, in the table's
    order.  Any other key, a mesh that is not a column of the table, or a
    ``beta``, ``gamma``, ``tol``, ``maxit`` or size that ``CaseConfig``
    rejects raises ``ValueError`` before any case runs.  Cells of a case
    that raises read ``ERR: <exception type>: <message>`` and clear
    ``TableResult.complete``.
    The ``e_inf`` column of table 3 is the nodal maximum ``e_inf_nodes``;
    the other tables report the refined-mesh ``e_inf``, and table 2's ``ord``
    is the ``log2`` of the previous size's ``e_inf`` over this one's.
    """
    if table_id not in _TABLES:
        raise ValueError("table_id must be 1, 2, 3 or 4")
    defaults = _TABLES[table_id]
    ov = dict(overrides or {})
    unread = sorted(set(ov) - set(defaults))
    if unread:
        raise ValueError(f"table {table_id} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(defaults)}")
    p = {**defaults, **ov}
    foreign = [str(m) for m in p.get("meshes", ()) if m not in defaults["meshes"]]
    if foreign:
        raise ValueError(f"table {table_id} has no mesh column {', '.join(foreign)}; "
                         f"its columns are {', '.join(defaults['meshes'])}")

    if table_id == 1:
        head, cells = ["gamma", "beta", "q_beta"], ["q_opt", "e_opt", "e_beta"]
        keys = [(g, b, q_for_beta(b, p["n"])) for g in p["gammas"] for b in p["betas"]]
    elif table_id == 3:
        head, cells = ["n1", "n2"], ["it", "e_inf", "e_rel"]
        keys = [tuple(pair) for pair in p["pairs"]]
    else:
        head = ["gamma", "beta", "n_plus_1"]
        cells = ["it", "e_inf", "ord" if table_id == 2 else "e_rel"]
        keys = [(g, b, n1p) for g in p["gammas"] for b in p["betas"] for n1p in p["n_list"]]
    meshes = [m for m in defaults["meshes"] if m in p["meshes"]] if "meshes" in p else [None]
    columns = head + [c if m is None else f"{m}_{c}" for m in meshes for c in cells]
    plan = [(key, [(m, _case(table_id, p, key, m)) for m in meshes]) for key in keys]

    rows = []
    complete = True
    last_e: dict = {}  # (gamma, beta, mesh) -> e_inf of the previous size
    for key, cases in plan:
        row = list(key)
        for m, case in cases:
            out, ok = _case_cells(table_id, case)
            complete &= ok
            e = out[1] if ok else None
            if table_id == 2 and e is not None:
                e_prev = last_e.get((*key[:2], m))
                out[2] = None if e_prev is None else math.log2(e_prev / e)
            last_e[(*key[:2], m)] = e
            row += out
        rows.append(row)
    return TableResult(table_id, columns, rows, complete)
