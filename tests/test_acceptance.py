"""Acceptance suite: reproduction of the bundled reference tables and the
structural/spectral/multigrid property checks, each at its stated tolerance.

Every criterion prints one PASS/FAIL line; failed criteria list the
offending cells with measured vs reference values.  Reference numbers are
the results of the experiment protocol this package implements
(two significant digits; error cells are compared within a factor 1.5,
iteration counts within +-2 unless noted, convergence orders within
+-0.2).

Table 2 error cells are compared with ``e_inf``, the error of the
piecewise-linear interpolant sampled on the once-refined mesh.  Table 3
error cells are maxima over the mesh nodes and are compared with
``e_inf_nodes``: on a composite mesh the refined sampling puts points inside
the first cell ``[0, x_1]``, where the interpolant of ``x**0.1`` misses by
about ``0.6 * x_1**0.1`` whatever the solver does.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from gradedfve import bench, spectral as sp
from gradedfve.assembly import (
    FdeProblem,
    assemble_matrix,
    assemble_system,
    row_scale,
    uniform_toeplitz,
)
from gradedfve.bench import CaseConfig, MeshSpec
from gradedfve.mesh import blend_coefficients, graded_grid, uniform_grid
from gradedfve.multigrid import (
    DEFAULT_REGION,
    build_hierarchy,
    estimate_omega,
    prolongation,
    coarsen,
    vcycle,
)

warnings.filterwarnings("ignore", message="no Jacobi weight")

FACTOR = 1.5
IT_TOL = 2
ORD_TOL = 0.2

MESHES = [
    ("sqrt", MeshSpec("composite", rule="sqrt")),
    ("log2", MeshSpec("composite", rule="log2")),
    ("eps1", MeshSpec("graded", eps1=0.1, eps2=0.05)),
    ("eps2", MeshSpec("graded", eps1=0.2, eps2=0.05)),
    ("eps4", MeshSpec("graded", eps1=0.45, eps2=0.05)),
    ("eps6", MeshSpec("graded", eps1=1.0, eps2=0.0)),
]

# reference data, columns ordered as MESHES; None encodes the "-" marker
T2_E = {
    (0.2, 16): [2.9e-3, 2.9e-3, 3.3e-3, 3.0e-3, 3.0e-3, 3.0e-3],
    (0.2, 32): [1.0e-3, 1.2e-3, 1.4e-3, 1.3e-3, 1.3e-3, 1.3e-3],
    (0.2, 64): [4.7e-4, 5.8e-4, 5.9e-4, 5.9e-4, 5.9e-4, 5.9e-4],
    (0.2, 128): [2.5e-4, 2.9e-4, 2.6e-4, 2.6e-4, 2.6e-4, 2.6e-4],
    (0.2, 256): [1.4e-4, 1.5e-4, 1.1e-4, 1.1e-4, 1.1e-4, 1.1e-4],
    (0.2, 512): [8.1e-5, 8.4e-5, 4.9e-5, 4.9e-5, 4.9e-5, 4.9e-5],
    (0.2, 1024): [None, 4.7e-5, 2.1e-5, 2.1e-5, 2.1e-5, 2.1e-5],
    (0.5, 16): [2.3e-2, 2.3e-2, 2.0e-2, 1.2e-2, 5.1e-3, 5.0e-3],
    (0.5, 32): [8.3e-3, 1.1e-2, 9.4e-3, 4.1e-3, 1.8e-3, 1.8e-3],
    (0.5, 64): [2.9e-3, 5.7e-3, 3.2e-3, 1.2e-3, 6.4e-4, 6.4e-4],
    (0.5, 128): [1.3e-3, 2.8e-3, 9.0e-4, 3.1e-4, 2.3e-4, 2.3e-4],
    (0.5, 256): [9.1e-4, 1.4e-3, 2.3e-4, 8.0e-5, 8.0e-5, 1.0e-4],
    (0.5, 512): [6.4e-4, 7.8e-4, 5.6e-5, 2.8e-5, 3.0e-5, 5.2e-5],
    (0.5, 1024): [4.5e-4, 5.1e-4, 1.4e-5, 1.1e-5, 1.5e-5, 2.6e-5],
    (0.8, 16): [1.1e-1, 1.1e-1, 1.2e-1, 1.3e-1, 9.0e-2, 2.2e-2],
    (0.8, 32): [7.6e-2, 8.7e-2, 1.1e-1, 9.7e-2, 5.0e-2, 6.5e-3],
    (0.8, 64): [5.0e-2, 6.6e-2, 7.7e-2, 5.8e-2, 2.4e-2, 1.9e-3],
    (0.8, 128): [2.5e-2, 5.0e-2, 4.5e-2, 3.5e-2, 4.0e-3, 9.2e-4],
    (0.8, 256): [1.3e-2, 3.8e-2, 3.2e-2, 1.3e-2, 5.8e-4, 5.8e-4],
    (0.8, 512): [5.5e-3, 2.9e-2, 1.7e-2, 2.7e-3, 4.5e-4, 4.3e-4],
    (0.8, 1024): [4.8e-3, 2.2e-2, 4.2e-3, 3.7e-4, 3.4e-4, 3.4e-4],
}
T2_IT = {
    (0.2, 16): [11, 11, 8, 10, 10, 10],
    (0.2, 32): [12, 11, 8, 8, 8, 10],
    (0.2, 64): [16, 11, 8, 8, 8, 8],
    (0.2, 128): [27, 17, 8, 8, 8, 8],
    (0.2, 256): [35, 22, 8, 8, 8, 8],
    (0.2, 512): [40, 28, 8, 8, 8, 9],
    (0.2, 1024): [None, 36, 8, 8, 8, 9],
    (0.5, 16): [8, 8, 7, 8, 10, 10],
    (0.5, 32): [9, 9, 8, 8, 9, 10],
    (0.5, 64): [11, 11, 9, 9, 9, 10],
    (0.5, 128): [13, 11, 9, 9, 9, 10],
    (0.5, 256): [17, 13, 10, 10, 10, 10],
    (0.5, 512): [22, 16, 10, 11, 11, 10],
    (0.5, 1024): [22, 17, 11, 10, 10, 11],
    (0.8, 16): [8, 8, 7, 7, 7, 8],
    (0.8, 32): [8, 8, 7, 7, 8, 8],
    (0.8, 64): [10, 8, 7, 7, 8, 8],
    (0.8, 128): [10, 9, 7, 7, 8, 8],
    (0.8, 256): [11, 9, 7, 7, 8, 9],
    (0.8, 512): [13, 10, 7, 8, 8, 9],
    (0.8, 1024): [14, 10, 7, 8, 8, 9],
}
T2_ORD = {
    (0.2, 32): [1.5, 1.2, 1.3, 1.2, 1.1, 1.1],
    (0.2, 64): [1.1, 1.1, 1.2, 1.2, 1.2, 1.2],
    (0.2, 128): [0.9, 1.0, 1.2, 1.2, 1.2, 1.2],
    (0.2, 256): [0.8, 0.9, 1.2, 1.2, 1.2, 1.2],
    (0.2, 512): [0.8, 0.9, 1.2, 1.2, 1.2, 1.2],
    (0.2, 1024): [None, 0.8, 1.2, 1.2, 1.2, 1.2],
    (0.5, 32): [1.5, 1.0, 1.1, 1.5, 1.5, 1.5],
    (0.5, 64): [1.5, 1.0, 1.6, 1.8, 1.5, 1.5],
    (0.5, 128): [1.1, 1.0, 1.8, 1.9, 1.5, 1.5],
    (0.5, 256): [0.6, 1.0, 2.0, 1.9, 1.5, 1.1],
    (0.5, 512): [0.5, 0.9, 2.0, 1.5, 1.4, 1.0],
    (0.5, 1024): [0.5, 0.6, 2.0, 1.3, 1.0, 1.0],
    (0.8, 32): [0.6, 0.4, 0.2, 0.4, 0.8, 1.8],
    (0.8, 64): [0.6, 0.4, 0.5, 0.7, 1.0, 1.8],
    (0.8, 128): [1.0, 0.4, 0.8, 0.7, 2.6, 1.1],
    (0.8, 256): [1.0, 0.4, 0.5, 1.4, 2.8, 0.7],
    (0.8, 512): [1.2, 0.4, 0.9, 2.3, 0.4, 0.4],
    (0.8, 1024): [0.2, 0.4, 2.0, 2.8, 0.4, 0.3],
}

# grading-scan references for the balanced-anisotropy row: per mesh column
# (eps1..eps6 presets), values (q_opt, e_opt, e_beta)
T1_GAMMA05 = {
    0.2: {
        "eps1": (1.7, 9.0e-6, 2.1e-5),
        "eps2": (1.7, 9.6e-6, 2.1e-5),
        "eps3": (1.7, 9.7e-6, 2.1e-5),
        "eps4": (1.7, 1.1e-5, 2.1e-5),
        "eps5": (1.7, 1.1e-5, 2.1e-5),
        "eps6": (1.6, 1.3e-5, 2.1e-5),
    },
    0.5: {
        "eps1": (2.9, 1.3e-5, 1.4e-5),
        "eps2": (3.0, 1.1e-5, 1.1e-5),
        "eps3": (3.0, 1.2e-5, 1.2e-5),
        "eps4": (2.9, 1.5e-5, 1.5e-5),
        "eps5": (2.9, 1.5e-5, 1.5e-5),
        "eps6": (2.7, 2.4e-5, 2.6e-5),
    },
    0.8: {
        "eps1": (4.3, 1.0e-3, 4.2e-3),
        "eps2": (5.3, 3.5e-4, 3.7e-4),
        "eps3": (4.6, 8.0e-4, 2.9e-3),
        "eps4": (5.3, 3.4e-4, 3.4e-4),
        "eps5": (5.3, 3.4e-4, 3.4e-4),
        "eps6": (5.3, 3.4e-4, 3.4e-4),
    },
}

T3_CELLS = [  # (n1, n2, expected_it, expected_e_inf)
    (2**3, 2**8, 7, 7.9306e-2),
    (2**4, 2**9, 7, 4.2326e-2),
    (2**5, 2**10, 8, 1.3025e-2),
]


def _report(criterion: int, violations: list[str], checked: int) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {criterion}] {status}: {checked - len(violations)}/{checked} checks")
    if violations:
        detail = "\n".join(violations)
        pytest.fail(f"criterion {criterion}: {len(violations)} of {checked} checks failed\n{detail}")


def _in_band(value, reference) -> bool:
    return reference / FACTOR <= value <= reference * FACTOR


@pytest.mark.acceptance
def test_criterion_1_table2_reproduction():
    results = {
        (beta, np1, name): bench.run_case(CaseConfig(beta, 0.5, spec, np1 - 1, "pgmres"))
        for (beta, np1) in sorted(T2_E)
        for name, spec in MESHES
    }
    violations = []
    checked = 0
    for (beta, np1), e_refs in sorted(T2_E.items()):
        it_refs = T2_IT[(beta, np1)]
        ord_refs = T2_ORD.get((beta, np1), [None] * 6)
        for (name, _), e_ref, it_ref, ord_ref in zip(MESHES, e_refs, it_refs, ord_refs):
            res = results[(beta, np1, name)]
            cell = f"beta={beta} N+1={np1} {name}"
            # error
            checked += 1
            if e_ref is None:
                if res.converged:
                    violations.append(f"{cell}: reference marks '-', measured e={res.e_inf:.2e}")
            elif not res.converged:
                violations.append(f"{cell}: no convergence, reference e={e_ref:.1e}")
            elif not _in_band(res.e_inf, e_ref):
                violations.append(
                    f"{cell}: e_inf={res.e_inf:.2e} vs {e_ref:.1e} (x{res.e_inf / e_ref:.2f})"
                )
            # iterations
            checked += 1
            if it_ref is None:
                if res.converged:
                    violations.append(f"{cell}: reference marks '-', measured it={res.it}")
            elif not res.converged:
                violations.append(f"{cell}: no convergence, reference it={it_ref}")
            elif abs(res.it - it_ref) > IT_TOL:
                violations.append(f"{cell}: it={res.it} vs {it_ref}")
            # order against the previous refinement level
            if ord_ref is not None and res.converged:
                prev = results.get((beta, np1 // 2, name))
                checked += 1
                if prev is None or not prev.converged:
                    violations.append(f"{cell}: ord unavailable (coarser level diverged)")
                else:
                    ordv = math.log2(prev.e_inf / res.e_inf)
                    if abs(ordv - ord_ref) > ORD_TOL:
                        violations.append(f"{cell}: ord={ordv:.2f} vs {ord_ref}")
    _report(1, violations, checked)


@pytest.mark.acceptance
def test_criterion_2_grading_scan():
    n = 2**10 - 1
    violations = []
    checked = 0
    for beta in (0.2, 0.5):
        for name, (q_ref, e_ref, _) in T1_GAMMA05[beta].items():
            e1, e2 = bench.EPS_PRESETS[name]
            res = bench.scan_qopt(beta, 0.5, e1, e2, n)
            checked += 1
            if abs(res.q_opt - q_ref) > 0.1 + 1e-9:
                violations.append(
                    f"beta={beta} {name}: q_opt={res.q_opt:.2f} vs {q_ref}"
                    f" (e_opt={res.e_opt:.2e} vs {e_ref:.1e})"
                )
    # capped path for the strongest singularity
    q_capped = bench.MeshSpec("graded").coefficients(0.8, n).q
    checked += 1
    if not abs(q_capped - 5.315) < 5e-4:
        violations.append(f"capped exponent {q_capped:.4f} != 5.315")
    for name, (_, _, e_beta_ref) in T1_GAMMA05[0.8].items():
        e1, e2 = bench.EPS_PRESETS[name]
        res = bench.run_case(
            CaseConfig(0.8, 0.5, MeshSpec("graded", eps1=e1, eps2=e2), n, "direct")
        )
        checked += 1
        if not _in_band(res.e_inf, e_beta_ref):
            violations.append(
                f"beta=0.8 {name}: e_beta={res.e_inf:.2e} vs {e_beta_ref:.1e}"
                f" (x{res.e_inf / e_beta_ref:.2f})"
            )
    _report(2, violations, checked)


@pytest.mark.acceptance
def test_criterion_3_composite_solver_cells():
    violations = []
    checked = 0
    for n1, n2, it_ref, e_ref in T3_CELLS:
        res = bench.run_case(
            CaseConfig(0.9, 0.5, MeshSpec("composite", n1=n1, n2=n2), n1 + n2, "pgmres")
        )
        cell = f"(n1,n2)=({n1},{n2})"
        checked += 1
        if not res.converged or abs(res.it - it_ref) > 1:
            violations.append(f"{cell}: it={res.it_label} vs {it_ref}+-1")
        checked += 1
        if not _in_band(res.e_inf_nodes, e_ref):
            violations.append(
                f"{cell}: e_inf_nodes={res.e_inf_nodes:.3e} vs {e_ref:.3e}"
                f" (x{res.e_inf_nodes / e_ref:.2f}; refined-mesh e_inf={res.e_inf:.3e},"
                f" x{res.e_inf / e_ref:.2f})"
            )
    _report(3, violations, checked)


@pytest.mark.acceptance
def test_criterion_4_anisotropic_spot_checks():
    violations = []
    res = bench.run_case(
        CaseConfig(0.1, 0.0, MeshSpec("graded", eps1=1.0, eps2=0.0), 2**8 - 1, "pgmres")
    )
    if not res.converged or abs(res.it - 7) > 1:
        violations.append(f"gamma=0 beta=0.1: it={res.it_label} vs 7+-1")
    if not _in_band(res.e_inf, 1.8e-4):
        violations.append(f"gamma=0 beta=0.1: e_inf={res.e_inf:.2e} vs 1.8e-4")
    res = bench.run_case(
        CaseConfig(0.7, 1.0, MeshSpec("graded", eps1=1.0, eps2=0.0), 2**7 - 1, "pgmres")
    )
    if res.converged:
        violations.append(f"gamma=1 beta=0.7: expected '-', measured it={res.it}")
    _report(4, violations, 3)


@pytest.mark.acceptance
def test_criterion_5_structural_properties(rng):
    violations = []
    n = 2**6
    # exact symmetric Toeplitz structure on the balanced uniform case
    a = assemble_matrix(uniform_grid(n), FdeProblem(beta=0.5, gamma=0.5)).entries
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-13 * scale:
        violations.append("uniform balanced assembly is not symmetric to 1e-13")
    for k in range(n):
        d = np.diagonal(a, k)
        if np.abs(d - d[0]).max() > 1e-13 * scale:
            violations.append(f"diagonal {k} is not constant to 1e-13")
            break
    # discrete Laplacian at the lower order limit
    h = 1.0 / (n + 1)
    a0 = assemble_matrix(uniform_grid(n), FdeProblem(beta=0.0, gamma=0.3)).entries
    lap = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
    if np.abs(a0 - lap).max() > 1e-12 / h:
        violations.append("lower limit is not the scaled (-1,2,-1) Laplacian")
    # skew tridiagonal at the upper limit
    k0, gamma = 1.5, 0.2
    a1 = assemble_matrix(uniform_grid(n), FdeProblem(beta=1.0, gamma=gamma, diffusion=k0)).entries
    skew = k0 * (gamma - 0.5) * (np.eye(n, k=-1) - np.eye(n, k=1))
    if np.abs(a1 - skew).max() > 1e-12 * k0:
        violations.append("upper limit is not the skew tridiagonal form")
    # anisotropy swap transposes
    a3 = assemble_matrix(uniform_grid(n), FdeProblem(beta=0.6, gamma=0.3)).entries
    a7 = assemble_matrix(uniform_grid(n), FdeProblem(beta=0.6, gamma=0.7)).entries
    if np.abs(a3 - a7.T).max() > 1e-12 * np.abs(a3).max():
        violations.append("gamma swap is not the transpose to 1e-12")
    # FFT matvec against the dense operator
    op = uniform_toeplitz(2**8, 0.3)
    dense = op.to_dense()
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(2**8)
        ref = dense @ v
        worst = max(worst, np.abs(op.matvec(v) - ref).max() / np.abs(ref).max())
    if worst > 1e-11:
        violations.append(f"FFT matvec deviates by {worst:.2e} > 1e-11")
    _report(5, violations, 6)


@pytest.mark.acceptance
def test_criterion_6_spectral_suite(rng):
    violations = []
    # evenness and positivity of the generating function
    th = rng.uniform(0.0, math.pi, 32)
    if np.abs(sp.symbol_p(2**10, 0.5, th) - sp.symbol_p(2**10, 0.5, -th)).max() > 1e-12:
        violations.append("generating function is not even to 1e-12")
    grid_th = np.linspace(math.pi / 64, math.pi, 100)
    for beta in np.arange(0.1, 0.95, 0.1):
        if not np.all(sp.symbol_p(2**10, float(beta), grid_th) > 0):
            violations.append(f"positivity fails for beta={beta:.1f}")
    # trace-norm asymmetry on both sides of the crossover
    ns = [2**k for k in range(4, 10)]
    s_dec = sp.glt5_sequence(0.5, 2.0, ns)
    s_inc = sp.glt5_sequence(0.5, 4.0, ns)
    if not np.all(np.diff(s_dec) < 0):
        violations.append("asymmetry sequence not decreasing for q=2")
    if not np.all(np.diff(s_inc) > 0):
        violations.append("asymmetry sequence not increasing for q=4")
    # sign-map boundary tracks (2-beta)/(1-beta) within one grid step
    betas = np.round(np.arange(0.1, 0.85, 0.1), 2)
    qs = np.round(np.arange(1.25, 9.01, 0.25), 3)
    signs = sp.glt5_region(betas, qs)
    for i, beta in enumerate(betas):
        boundary = (2 - beta) / (1 - beta)
        pos = qs[signs[i] > 0]
        neg = qs[signs[i] < 0]
        lo = pos.max() if pos.size else qs[0]
        hi = neg.min() if neg.size else qs[-1]
        if not (lo - 0.25 - 1e-9 <= boundary <= hi + 0.25 + 1e-9):
            violations.append(
                f"beta={beta}: sign change in [{lo},{hi}] vs boundary {boundary:.3f}"
            )
    # eigenvalue distribution against the symbol on the fine sampling grid
    rep = sp.eig_vs_symbol(0.5, 2.0, 2**6, "fine")
    radius = float(np.abs(np.asarray(rep.sorted_eigs)).max())
    if rep.sup_gap > 0.05 * radius:
        violations.append(f"sup_gap {rep.sup_gap:.3f} exceeds 5% of radius {radius:.3f}")
    _report(6, violations, 14)


@pytest.mark.acceptance
def test_criterion_7_multigrid_suite(rng):
    violations = []
    checked = 0
    # interpolation reproduces linear data away from the boundary anchors
    fine = graded_grid(2**6 - 1, blend_coefficients(3.0, 1.0, 0.0))
    coarse = coarsen(fine)
    p = prolongation(fine, coarse)
    vals = p @ coarse.points[1:-1]
    interior = slice(1, 2 * coarse.n)
    checked += 1
    if np.abs(vals[interior] - fine.points[1:-1][interior]).max() > 1e-13:
        violations.append("prolongation does not reproduce linear data")
    # V-cycle linearity
    scaled = row_scale(assemble_system(fine, FdeProblem(beta=0.5, gamma=0.5)))
    hier = build_hierarchy(scaled)
    r1, r2 = rng.standard_normal(fine.n), rng.standard_normal(fine.n)
    lhs = vcycle(hier, r1 + r2)
    rhs = vcycle(hier, r1) + vcycle(hier, r2)
    checked += 1
    if np.abs(lhs - rhs).max() > 1e-11 * max(1.0, np.abs(lhs).max()):
        violations.append("V-cycle is not linear to 1e-11")
    # grid-independent contraction on the classical limit
    for k in range(5, 10):
        n = 2**k - 1
        scaled = row_scale(assemble_system(uniform_grid(n), FdeProblem(beta=0.0, gamma=0.5)))
        h = build_hierarchy(scaled)
        a = h.levels[0].operator
        e = rng.standard_normal(n)
        rho = 1.0
        for _ in range(25):
            e_new = e - vcycle(h, a.matvec(e))
            rho = np.linalg.norm(e_new) / np.linalg.norm(e)
            e = e_new / np.linalg.norm(e_new)
        checked += 1
        if rho >= 0.2:
            violations.append(f"contraction {rho:.3f} >= 0.2 at n=2^{k}-1")
    # the estimated weight lies in the admissible containment interval
    ntilde = 15
    omega = estimate_omega(FdeProblem(beta=0.0, gamma=0.5), uniform_grid(ntilde))
    lam = 1.0 - np.cos(np.arange(1, ntilde + 1) * math.pi / (ntilde + 1))
    checked += 1
    if not DEFAULT_REGION.contains(1.0 - omega * lam):
        violations.append(f"estimated weight {omega} leaves the containment region")
    checked += 1
    if not 0.0 < omega <= (1.0 - DEFAULT_REGION.x_min) / lam.max():
        violations.append(f"estimated weight {omega} outside the admissible interval")
    _report(7, violations, checked)
