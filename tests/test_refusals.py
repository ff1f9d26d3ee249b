"""Every input check of the library refuses what it exists to refuse."""

import time
import tracemalloc

import numpy as np
import pytest

from gradedfve import _memory, bench, mesh, spectral
from gradedfve.assembly import (
    AssemblyError,
    DenseOperator,
    FdeProblem,
    FluxOperator,
    FveSystem,
    assemble_matrix,
    assemble_rhs,
    assemble_system,
    row_scale,
    uniform_toeplitz,
)
from gradedfve.cli import main as cli_main
from gradedfve.mesh import (
    Grid,
    MeshError,
    blend_coefficients,
    composite_grid,
    composite_grid_from_counts,
    graded_grid,
    graded_map_eval,
    q_for_beta,
    uniform_grid,
)
from gradedfve.multigrid import MultigridError, build_hierarchy

PROBLEM = FdeProblem(0.5, 0.5)


#: A composite grid of 5 nodes: a border of 3 and a Toeplitz tail of 2.
BORDERED = composite_grid_from_counts(2, 3)
#: The pure power mesh eps6 at 1025 nodes, whose operator has no tail.
EPS6 = graded_grid(1025, blend_coefficients(3.0, 1.0, 0.0))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: DenseOperator(np.eye(2)).matvec(np.ones(3)), AssemblyError, "dimension mismatch"),
        (lambda: FluxOperator(BORDERED, PROBLEM).matvec(np.ones(2)), AssemblyError,
         "dimension mismatch"),
        (lambda: FluxOperator(EPS6, FdeProblem(0.0, 0.5)), AssemblyError,
         "the exponential sum needs 0 < beta < 1"),
        (lambda: FluxOperator(EPS6, FdeProblem(1.0, 0.5)), AssemblyError,
         "the exponential sum needs 0 < beta < 1"),
        # a callable K makes the whole grid the border, although it has a tail
        (lambda: FluxOperator(BORDERED, FdeProblem(0.0, 0.5, diffusion=lambda x: 1.0 + x)),
         AssemblyError, "the exponential sum needs 0 < beta < 1"),
        (lambda: FveSystem(DenseOperator(np.eye(2)), np.zeros(2), uniform_grid(3), PROBLEM),
         AssemblyError, "dimensions are inconsistent"),
        (lambda: assemble_rhs(uniform_grid(3), FdeProblem(0.5, 0.5, source=lambda x: np.ones(3))),
         AssemblyError, "one value per evaluation point"),
        # a scalar K from a callable broadcast nowhere but raised IndexError
        (lambda: assemble_matrix(uniform_grid(3), FdeProblem(0.5, 0.5, diffusion=lambda x: 2.0)),
         AssemblyError, "one value per midpoint"),
        (lambda: FluxOperator(BORDERED, FdeProblem(0.5, 0.5, diffusion=lambda x: np.ones(3))),
         AssemblyError, "one value per midpoint"),
        (lambda: assemble_rhs(uniform_grid(3), FdeProblem(0.5, 0.5, u_left=np.nan)),
         AssemblyError, "right-hand side has non-finite entries"),
        (lambda: uniform_toeplitz(0, 0.5), AssemblyError, "n must be >= 1"),
        (lambda: Grid(np.array([0.0, 1.0])), MeshError, "at least one interior point"),
        (lambda: Grid(np.array([0.0, 0.5, 0.9])), MeshError, "span \\[0, 1\\]"),
        (lambda: Grid(np.array([0.0, 0.6, 0.4, 1.0])), MeshError, "strictly increasing"),
        (lambda: q_for_beta(1.0, 15), MeshError, "beta must lie in \\(0, 1\\)"),
        (lambda: graded_grid(0, blend_coefficients(2.0, 1.0, 0.0)), MeshError, "n must be >= 1"),
        # (1/16)**400 underflows to 0, the left end
        (lambda: graded_grid(15, blend_coefficients(400.0, 1.0, 0.0)), MeshError, "collapsed a step"),
        # NaN fails every comparison, so only an all-inside test refuses it
        (lambda: graded_map_eval(blend_coefficients(2.0, 0.1, 0.05), np.nan), MeshError,
         "outside \\[0, 1\\]"),
        (lambda: graded_map_eval(blend_coefficients(2.0, 0.1, 0.05), np.array([0.5, np.nan])),
         MeshError, "outside \\[0, 1\\]"),
        (lambda: composite_grid(15, "cube"), MeshError, "selector must be 'sqrt' or 'log2'"),
        (lambda: bench.MeshSpec("composite", rule="cube"), MeshError, "selector must be"),
        (lambda: composite_grid_from_counts(0, 5), MeshError, "n1 and n2 must be >= 1"),
        (lambda: build_hierarchy(row_scale(assemble_system(uniform_grid(3), PROBLEM))),
         MultigridError, "at least 4 interior points"),
        (lambda: spectral.eig_vs_symbol(0.5, 2.0, 513), ValueError, "n <= 512"),
        (lambda: spectral.eig_vs_symbol(0.5, 2.0, 15, "coarse"), ValueError, "perfect square"),
        (lambda: spectral.eig_vs_symbol(0.5, 2.0, 16, "fine-(ii)"), ValueError,
         "grid_tag must be 'coarse' or 'fine'"),
        (lambda: spectral.glt5_sequence(0.5, 2.0, [2048]), ValueError, "n <= 1024"),
    ],
    ids=[
        "dense-matvec", "bordered-matvec", "flux-beta-0", "flux-beta-1", "flux-variable-k-beta-0",
        "system-dimensions", "source-length", "diffusion-scalar", "diffusion-length", "non-finite-rhs", "uniform-toeplitz-n",
        "grid-size", "grid-span", "grid-order", "q-for-beta", "graded-n", "graded-collapse",
        "grading-map-nan", "grading-map-nan-array", "composite-rule", "composite-spec-rule",
        "composite-counts",
        "hierarchy-size", "eig-size", "eig-coarse-square", "eig-tag", "glt5-size",
    ],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "table,key,call",
    [
        ((bench, "MESH_FIELDS"), "twoended", lambda: bench.MeshSpec("weird")),
        ((mesh, "COMPOSITE_RULES"), "cube", lambda: bench.MeshSpec("composite", rule="weird")),
        ((bench, "SOLVERS"), "cg", lambda: bench.CaseConfig(0.5, 0.5, bench.MeshSpec(), 15, "lu")),
        ((bench, "TABLES"), 5, lambda: bench.table_sweep(9)),
        ((spectral, "GRID_LABELS"), "medium", lambda: spectral.eig_vs_symbol(0.5, 2.0, 16, "x")),
    ],
    ids=["mesh-kind", "composite-rule", "solver", "table", "grid-tag"],
)
def test_a_refusal_names_every_key_of_its_table(monkeypatch, table, key, call):
    owner, name = table
    entries = getattr(owner, name)
    if isinstance(entries, dict):
        monkeypatch.setitem(entries, key, entries[next(iter(entries))])
    else:
        monkeypatch.setattr(owner, name, (*entries, key))
    with pytest.raises(ValueError) as exc:
        call()
    assert str(key) in str(exc.value)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--qmax", "inf"], "the q range must be finite"),
        (["--qmin", "nan"], "the q range must be finite"),
        (["--qmin=-inf", "--qmax=-inf"], "the q range must be finite"),
        (["--qmin", "0"], "the q range must start at q >= 1"),
        (["--qstep", "inf"], "the q step must be positive and finite"),
        (["--qstep", "nan"], "the q step must be positive and finite"),
        # 8 / 5e-324 overflows to inf
        (["--qstep", "5e-324"], "the q range holds too many steps"),
    ],
    ids=["qmax-inf", "qmin-nan", "qmin-minus-inf", "qmin-0", "qstep-inf", "qstep-nan",
         "qstep-subnormal"],
)
def test_bad_scan_range_is_refused_before_any_solve(monkeypatch, capsys, flags, message):
    def never(cfg):
        raise AssertionError("no solve may run")

    monkeypatch.setattr(bench, "run_case", never)
    assert cli_main(["qopt", "--n", "15", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_a_fine_q_step_is_refused_at_once(monkeypatch, capsys):
    # 8e300 grid indices, of which about 10^300 round to q = 1.0: the
    # coarse list grew until memory ran out
    def never(cfg):
        raise AssertionError("no solve may run")

    monkeypatch.setattr(bench, "run_case", never)
    start = time.perf_counter()
    assert cli_main(["qopt", "--n", "15", "--qstep", "1e-300"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.splitlines() == [
        "error: the q grid holds more than 10000 candidates up to the cap"
    ]
    with pytest.raises(ValueError, match="more than 10000 candidates"):
        bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 15, step=1e-6)


def test_quadrature_tables_are_guarded_together(monkeypatch):
    # the load keeps several 2N x 8 tables alive at once: room for three is
    # refused, and the seven the guard counts hold the whole load
    grid, problem = uniform_grid(4095), FdeProblem(0.5, 0.5, source=np.ones_like)
    table = 8 * 8 * 2 * grid.n
    monkeypatch.setattr(_memory, "physical_memory", lambda: 3 * table)
    with pytest.raises(AssemblyError, match="quadrature tables"):
        assemble_rhs(grid, problem)
    monkeypatch.setattr(_memory, "physical_memory", lambda: 7 * table)
    tracemalloc.start()
    try:
        assemble_rhs(grid, problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * table


def test_exponential_sum_tables_are_guarded(monkeypatch):
    # the near array and factor tables of the matrix-free operator grow as
    # N (B + 2g + 4L) numbers, more than the right-hand side's quadrature tables:
    # at N = 4095 those fit in 8 MB and the operator is refused before its
    # arrays are made
    grid = graded_grid(4095, blend_coefficients(3.0, 1.0, 0.0))
    monkeypatch.setattr(_memory, "physical_memory", lambda: 8 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(AssemblyError, match="exponential-sum operator"):
            assemble_system(grid, FdeProblem(0.5, 0.5, source=np.ones_like))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_exponential_sum_coupling_is_guarded(monkeypatch):
    # the near blocks and sweep tables of a Toeplitz operator's border grow
    # as N (B + 2g + L) numbers, more than the right-hand side's quadrature
    # tables: on eps1 at N = 4095 those fit in 8 MB and the border's tables
    # are refused before they are made
    grid = graded_grid(4095, blend_coefficients(q_for_beta(0.8, 4095), 0.1, 0.05))
    monkeypatch.setattr(_memory, "physical_memory", lambda: 8 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(AssemblyError, match="exponential-sum operator"):
            assemble_system(grid, FdeProblem(0.8, 0.5, source=np.ones_like))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "build,arrays",
    [
        (uniform_grid, 3),
        (lambda n: composite_grid_from_counts(255, n - 255), 4),
        (lambda n: graded_grid(n, blend_coefficients(2.0, 0.1, 0.05)), 3 + 3 * 0.05),
    ],
    ids=["uniform", "composite", "graded"],
)
def test_grid_arrays_are_guarded_together(monkeypatch, build, arrays):
    # a grid constructor holds several arrays of 8 (N + 2) bytes at once: one
    # byte short of them is refused before any is made, and they hold it
    n = 2**16 - 1
    need = arrays * 8 * (n + 2)
    for limit in (need - 1, need):
        monkeypatch.setattr(_memory, "physical_memory", lambda: limit)
        tracemalloc.start()
        try:
            if limit < need:
                with pytest.raises(MeshError, match="physical memory"):
                    build(n)
            else:
                assert build(n).n == n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit


@pytest.mark.parametrize(
    "mesh",
    [["--mesh", "uniform"], ["--mesh", "composite", "--rule", "sqrt"], ["--mesh", "graded"]],
    ids=["uniform", "sqrt", "graded"],
)
def test_solve_beyond_physical_memory_is_refused_before_assembly(monkeypatch, mesh):
    # the right-hand side is assembled first, and its guard refuses the
    # grid, so the operator's buffers are never made
    monkeypatch.setattr(_memory, "physical_memory", lambda: 2**20)
    tracemalloc.start()
    try:
        code = cli_main(["solve", *mesh, "--n", "16385"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2**20
