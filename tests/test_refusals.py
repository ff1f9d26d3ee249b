"""Every input check of the library refuses what it exists to refuse."""

import tracemalloc

import numpy as np
import pytest

from gradedfve import _memory, spectral
from gradedfve.assembly import (
    AssemblyError,
    DenseOperator,
    FdeProblem,
    FluxOperator,
    FveSystem,
    assemble_rhs,
    assemble_system,
    row_scale,
    uniform_toeplitz,
)
from gradedfve.cli import main as cli_main
from gradedfve.mesh import (
    CompositeRule,
    Grid,
    MeshError,
    blend_coefficients,
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
        (lambda: CompositeRule("cube"), MeshError, "selector must be"),
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
        "system-dimensions", "source-length", "non-finite-rhs", "uniform-toeplitz-n",
        "grid-size", "grid-span", "grid-order", "q-for-beta", "graded-n", "graded-collapse",
        "grading-map-nan", "grading-map-nan-array", "composite-rule", "composite-counts",
        "hierarchy-size", "eig-size", "eig-coarse-square", "eig-tag", "glt5-size",
    ],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    # N (3B + 4L) numbers, more than the right-hand side's quadrature tables:
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
    # as N (3B + L) numbers, more than the right-hand side's quadrature
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
