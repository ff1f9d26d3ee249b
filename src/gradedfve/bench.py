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
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import mesh as meshmod
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
from .multigrid import OmegaFallbackWarning, build_hierarchy

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


@dataclass(frozen=True)
class MeshSpec:
    """Mesh family selector for a benchmark case.

    ``kind`` is one of ``"uniform"``, ``"graded"``, ``"composite"``.  For
    graded meshes ``q=None`` selects the capped order-optimal exponent for
    the case's beta; an explicit ``q`` is still capped so the first step
    never collapses below the floating-point floor.  Composite meshes are
    driven either by a named ``rule`` (``"sqrt"`` or ``"log2"``) or by
    explicit part sizes ``n1``/``n2`` (overriding the case size).
    """

    kind: str = "graded"
    q: float | None = None
    eps1: float = 1.0
    eps2: float = 0.0
    rule: str | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "graded", "composite"):
            raise ValueError("mesh kind must be uniform, graded or composite")
        if self.kind == "composite" and self.rule is None and self.n1 is None:
            raise ValueError("composite mesh needs a rule or explicit counts")
        if (self.n1 is None) != (self.n2 is None):
            raise ValueError("explicit composite counts need both n1 and n2")
        if self.n1 is not None and min(self.n1, self.n2) < 1:
            raise ValueError("n1 and n2 must be >= 1")

    def coefficients(self, beta: float, n: int) -> BlendCoeffs:
        q = q_for_beta(beta, n) if self.q is None else min(self.q, q_cap(n))
        return blend_coefficients(q, self.eps1, self.eps2)

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
        if self.n1 is not None:
            n1, n2 = self.n1, self.n2
        else:
            n1 = CompositeRule(self.rule)(n)
            n2 = n - n1
        return composite_grid_from_counts(n1 + 1, 2 * n2 + 1)


def build_case_grid(spec: MeshSpec, beta: float, n: int) -> Grid:
    if spec.kind == "uniform":
        return uniform_grid(n)
    if spec.kind == "graded":
        return graded_grid(n, spec.coefficients(beta, n))
    if spec.n1 is not None:
        return composite_grid_from_counts(spec.n1, spec.n2)
    rule = CompositeRule(spec.rule)
    return meshmod.composite_grid(n, rule)


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


@dataclass
class CaseResult:
    it: int | None  # None for direct solves or non-converged runs
    converged: bool
    e_inf: float | None
    e_inf_nodes: float | None
    e_rel: float | None
    wall_time: float
    # multigrid hierarchy of a pgmres solve: coarsening steps, Jacobi weight
    # and whether no weight passed the region test (the 2/3 fallback)
    depth: int | None = None
    omega: float | None = None
    omega_fallback: bool = False

    @property
    def it_label(self) -> str:
        if self.it is None and not self.converged:
            return "-"
        return "" if self.it is None else str(self.it)


def run_case(cfg: CaseConfig) -> CaseResult:
    """Build, solve and measure one benchmark case."""
    t0 = time.perf_counter()
    grid = build_case_grid(cfg.mesh, cfg.beta, cfg.n)
    problem = make_problem(cfg.beta, cfg.gamma)
    # a direct solve factors a dense matrix, so it gets one from the start
    system = assemble_system(grid, problem, dense=cfg.solver == "direct")

    converged = True
    it: int | None = None
    mg: dict = {}
    if cfg.solver == "direct":
        solution = np.linalg.solve(system.operator.to_dense(), system.rhs)
    else:
        # row_scale scales dense parts in place and consumes the unscaled
        # system; a mesh with a uniform tail keeps only its border dense on
        # every level, so the solve holds far less than one finest matrix
        system = row_scale(system)
        precond = None
        if cfg.solver == "pgmres":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", OmegaFallbackWarning)
                hier = build_hierarchy(system)
            fallback = False
            for w in caught:
                if issubclass(w.category, OmegaFallbackWarning):
                    fallback = True
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            mg = dict(depth=hier.depth, omega=hier.omega, omega_fallback=fallback)
            precond = hier.apply
        report = gmres(
            system.operator, system.rhs, precond=precond, tol=cfg.tol, maxit=cfg.maxit
        )
        solution = report.solution
        converged = report.converged
        it = report.iterations if report.converged else None

    wall = time.perf_counter() - t0
    if not converged:
        return CaseResult(None, False, None, None, None, wall, **mg)

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

    return CaseResult(it, True, e_fine, e_nodes, e_rel, wall, **mg)


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

    scanned = []
    results = {}
    for q in candidates:
        cfg = CaseConfig(
            beta, gamma, MeshSpec("graded", q=q, eps1=eps1, eps2=eps2), n, "direct"
        )
        e = run_case(cfg).e_inf
        results[q] = e
        scanned.append((q, e))
    q_opt = min(results, key=lambda q: results[q])
    return QOptResult(q_opt, results[q_opt], qb, results[qb], scanned)


# ---------------------------------------------------------------------------
# table sweeps


@dataclass
class TableResult:
    table_id: int
    columns: list[str]
    rows: list[list]
    complete: bool

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow([_fmt_cell(c) for c in row])
        return buf.getvalue()

    def to_json(self) -> str:
        recs = [
            {col: (None if c is None else c) for col, c in zip(self.columns, row)}
            for row in self.rows
        ]
        return json.dumps({"table": self.table_id, "rows": recs}, indent=2)


def _fmt_cell(c) -> str:
    if c is None:
        return "-"
    if isinstance(c, float):
        return f"{c:.6g}"
    return str(c)


_T2_MESHES: list[tuple[str, MeshSpec]] = [
    ("sqrt", MeshSpec("composite", rule="sqrt")),
    ("log2", MeshSpec("composite", rule="log2")),
    ("eps1", MeshSpec("graded", eps1=0.1, eps2=0.05)),
    ("eps2", MeshSpec("graded", eps1=0.2, eps2=0.05)),
    ("eps4", MeshSpec("graded", eps1=0.45, eps2=0.05)),
    ("eps6", MeshSpec("graded", eps1=1.0, eps2=0.0)),
]
_T4_MESHES = [m for m in _T2_MESHES if m[0] not in ("eps2",)]


def _sweep_grid_columns(
    table_id: int,
    betas: Sequence[float],
    gammas: Sequence[float],
    n_list: Sequence[int],
    meshes: Sequence[tuple[str, MeshSpec]],
    with_ord: bool,
    tol: float,
    maxit: int,
) -> TableResult:
    columns = ["gamma", "beta", "n_plus_1"]
    for name, _ in meshes:
        columns += [f"{name}_it", f"{name}_e_inf"]
        columns += [f"{name}_ord"] if with_ord else [f"{name}_e_rel"]
    rows = []
    complete = True
    for gamma in gammas:
        for beta in betas:
            prev: dict[str, float | None] = {name: None for name, _ in meshes}
            for n1p in n_list:
                row: list = [gamma, beta, n1p]
                for name, spec in meshes:
                    try:
                        res = run_case(
                            CaseConfig(beta, gamma, spec, n1p - 1, "pgmres", tol, maxit)
                        )
                    except Exception:
                        complete = False
                        row += ["ERR", "ERR", "ERR"]
                        prev[name] = None
                        continue
                    it = res.it_label or None
                    if not res.converged:
                        row += [it, None, None]
                        prev[name] = None
                        continue
                    third: float | None
                    if with_ord:
                        third = (
                            math.log2(prev[name] / res.e_inf)
                            if prev[name] is not None
                            else None
                        )
                        prev[name] = res.e_inf
                    else:
                        third = res.e_rel
                    row += [it, res.e_inf, third]
                rows.append(row)
    return TableResult(table_id, columns, rows, complete)


def table_sweep(table_id: int, overrides: dict | None = None) -> TableResult:
    """Run one of the four bundled benchmark tables.

    ``overrides`` may shrink a sweep for time-boxed runs: recognized keys
    are ``betas``, ``gammas``, ``n_list``, ``meshes`` (subset of column
    names), ``tol``, ``maxit``.  Cells that raise are reported as ``ERR``
    and flagged through ``TableResult.complete``.  The ``e_inf`` column of
    table 3 is the nodal maximum ``e_inf_nodes``; the other tables report the
    refined-mesh ``e_inf``.
    """
    ov = dict(overrides or {})
    tol = ov.get("tol", 1e-7)
    maxit = ov.get("maxit", 100)

    if table_id == 1:
        gammas = ov.get("gammas", [0.3, 0.5, 0.7])
        betas = ov.get("betas", [0.2, 0.5, 0.8])
        n = ov.get("n", 2**10 - 1)
        eps_names = ov.get("meshes", ["eps1", "eps2", "eps3", "eps4", "eps5", "eps6"])
        columns = ["gamma", "beta", "q_beta"]
        for name in eps_names:
            columns += [f"{name}_q_opt", f"{name}_e_opt", f"{name}_e_beta"]
        rows = []
        complete = True
        for gamma in gammas:
            for beta in betas:
                row: list = [gamma, beta, q_for_beta(beta, n)]
                for name in eps_names:
                    e1, e2 = EPS_PRESETS[name]
                    try:
                        res = scan_qopt(beta, gamma, e1, e2, n)
                        row += [res.q_opt, res.e_opt, res.e_beta]
                    except Exception:
                        complete = False
                        row += ["ERR", "ERR", "ERR"]
                rows.append(row)
        return TableResult(1, columns, rows, complete)

    if table_id == 2:
        meshes = [m for m in _T2_MESHES if m[0] in ov.get("meshes", [n for n, _ in _T2_MESHES])]
        return _sweep_grid_columns(
            2,
            ov.get("betas", [0.2, 0.5, 0.8]),
            ov.get("gammas", [0.5]),
            ov.get("n_list", [2**k for k in range(4, 11)]),
            meshes,
            with_ord=True,
            tol=tol,
            maxit=maxit,
        )

    if table_id == 3:
        pairs = ov.get("pairs", [(2**3, 2**8), (2**4, 2**9), (2**5, 2**10)])
        beta = ov.get("beta", 0.9)
        gamma = ov.get("gamma", 0.5)
        columns = ["n1", "n2", "it", "e_inf", "e_rel"]
        rows = []
        complete = True
        for n1, n2 in pairs:
            spec = MeshSpec("composite", n1=n1, n2=n2)
            try:
                res = run_case(
                    CaseConfig(beta, gamma, spec, n1 + n2, "pgmres", tol, maxit)
                )
                rows.append([n1, n2, res.it_label or None, res.e_inf_nodes, res.e_rel])
            except Exception:
                complete = False
                rows.append([n1, n2, "ERR", "ERR", "ERR"])
        return TableResult(3, columns, rows, complete)

    if table_id == 4:
        meshes = [m for m in _T4_MESHES if m[0] in ov.get("meshes", [n for n, _ in _T4_MESHES])]
        return _sweep_grid_columns(
            4,
            ov.get("betas", [0.1, 0.3, 0.7]),
            ov.get("gammas", [0.0, 1.0]),
            ov.get("n_list", [2**k for k in range(5, 11)]),
            meshes,
            with_ord=False,
            tol=tol,
            maxit=maxit,
        )

    raise ValueError("table_id must be 1, 2, 3 or 4")
