import math
import warnings

import numpy as np
import pytest
import scipy.sparse

from gradedfve import bench
from gradedfve.assembly import (
    BorderedToeplitzOperator,
    FdeProblem,
    SymToeplitzOperator,
    assemble_matrix,
    assemble_system,
    row_scale,
)
from gradedfve.mesh import blend_coefficients, graded_grid, uniform_grid
from gradedfve.multigrid import (
    DEFAULT_REGION,
    MultigridError,
    SmootherRegion,
    build_hierarchy,
    coarsen,
    estimate_omega,
    prolongation,
    vcycle,
)


def scaled_hierarchy(grid, problem):
    return build_hierarchy(row_scale(assemble_system(grid, problem)))


def loop_prolongation(fine, coarse):
    """Row-by-row construction of the interpolation, kept as an oracle."""
    n, nc = fine.n, coarse.n
    xf = fine.points
    rows, cols, vals = [], [], []
    for i in range(1, n + 1):
        if i % 2 == 0 and i // 2 <= nc:
            rows.append(i - 1)
            cols.append(i // 2 - 1)
            vals.append(1.0)
            continue
        k = (i - 1) // 2
        xl = xf[2 * k]
        xr = xf[2 * k + 2] if k + 1 <= nc else xf[-1]
        wl = (xr - xf[i]) / (xr - xl)
        if k >= 1:
            rows.append(i - 1)
            cols.append(k - 1)
            vals.append(wl)
        if k + 1 <= nc:
            rows.append(i - 1)
            cols.append(k)
            vals.append(1.0 - wl)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, nc)).tocsr()


class TestRegion:
    def test_boundary_nonnegative_on_interval(self):
        xs = np.linspace(DEFAULT_REGION.x_min, DEFAULT_REGION.x_max, 2001)
        assert np.all(DEFAULT_REGION.boundary(xs) >= -1e-12)

    def test_left_end_is_boundary_root(self):
        assert DEFAULT_REGION.boundary(DEFAULT_REGION.x_min) == pytest.approx(0.0, abs=1e-12)

    def test_containment(self):
        assert DEFAULT_REGION.contains(np.array([0.0, 0.5, -0.6]))
        assert not DEFAULT_REGION.contains(np.array([-0.7]))
        assert not DEFAULT_REGION.contains(np.array([0.5 + 0.9j]))
        assert DEFAULT_REGION.contains(np.array([0.5 + 0.3j]))


class TestCoarsen:
    def test_uniform_doubles_step(self):
        g = coarsen(uniform_grid(7))
        assert g.n == 3
        assert np.allclose(g.steps, 0.25)

    def test_graded_keeps_even_nodes(self):
        fine = graded_grid(7, blend_coefficients(2.0, 1.0, 0.0))
        g = coarsen(fine)
        assert np.array_equal(g.points[1:-1], fine.points[2:7:2])

    def test_even_count(self):
        assert coarsen(uniform_grid(8)).n == 4

    def test_refuses_tiny(self):
        with pytest.raises(MultigridError):
            coarsen(uniform_grid(3))


class TestProlongation:
    def test_uniform_classical_stencil(self):
        fine = uniform_grid(7)
        p = prolongation(fine, coarsen(fine)).toarray()
        # coarse node k feeds fine nodes 2k-1, 2k, 2k+1 with 1/2, 1, 1/2
        expected = np.array(
            [
                [0.5, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, 0.5, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.5, 0.5],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 0.5],
            ]
        )
        assert np.allclose(p, expected)

    def test_coincident_rows_are_unit(self):
        fine = graded_grid(15, blend_coefficients(3.0, 1.0, 0.0))
        coarse = coarsen(fine)
        p = prolongation(fine, coarse).toarray()
        for k in range(1, coarse.n + 1):
            row = p[2 * k - 1]
            assert row[k - 1] == 1.0 and np.count_nonzero(row) == 1

    def test_linear_reproduction_in_interior(self):
        fine = graded_grid(31, blend_coefficients(2.5, 1.0, 0.0))
        coarse = coarsen(fine)
        p = prolongation(fine, coarse)
        vals = p @ coarse.points[1:-1]
        interior = slice(1, 2 * coarse.n)  # rows bracketed by true coarse nodes
        assert np.abs(vals[interior] - fine.points[1:-1][interior]).max() < 1e-14

    @pytest.mark.parametrize("n", [30, 31])
    def test_matches_loop_construction(self, n):
        fine = graded_grid(n, blend_coefficients(3.0, 0.45, 0.05))
        coarse = coarsen(fine)
        p = prolongation(fine, coarse)
        ref = loop_prolongation(fine, coarse)
        assert p.shape == ref.shape
        assert np.array_equal(p.indptr, ref.indptr)
        assert np.array_equal(p.indices, ref.indices)
        assert np.array_equal(p.data, ref.data)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(MultigridError):
            prolongation(uniform_grid(15), uniform_grid(5))


class TestOmegaEstimate:
    def test_three_eigenvalue_example(self):
        # symmetric matrix with unit diagonal and spectrum {0.5, 1, 1.5}:
        # containment allows omega up to ~1.0879, the oscillatory-half
        # damping max(|1-w|, |1-1.5w|) is minimized at w = 0.8
        a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.allclose(np.sort(np.linalg.eigvals(a)), [0.5, 1.0, 1.5])
        omega = estimate_omega(None, None, matrix=a)
        assert omega == pytest.approx(0.8)
        assert omega <= 1.0879

    def test_laplacian_weight_within_admissible_interval(self):
        ntilde = 15
        grid = uniform_grid(ntilde)
        prob = FdeProblem(beta=0.0, gamma=0.5)
        omega = estimate_omega(prob, grid)
        # closed-form Jacobi spectrum of the scaled discrete Laplacian
        lam = 1.0 - np.cos(np.arange(1, ntilde + 1) * math.pi / (ntilde + 1))
        assert DEFAULT_REGION.contains(1.0 - omega * lam)
        upper = (1.0 - DEFAULT_REGION.x_min) / lam.max()
        assert 0.0 < omega <= upper
        # damping-optimal weight for the oscillatory half: 2/(1 + lam_max)
        assert omega == pytest.approx(2.0 / (1.0 + lam.max()), abs=0.005)

    def test_fallback_for_skew_dominated_spectrum(self):
        a = np.array([[1.0, -100.0], [100.0, 1.0]])
        with pytest.warns(UserWarning):
            omega = estimate_omega(None, None, matrix=a)
        assert omega == pytest.approx(2.0 / 3.0)

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(MultigridError):
            estimate_omega(None, None, matrix=a)


class TestHierarchy:
    def test_level_sizes_by_floor_halving(self):
        grid = uniform_grid(2**6 - 1)
        hier = scaled_hierarchy(grid, FdeProblem(beta=0.0, gamma=0.5))
        assert [lev.grid.n for lev in hier.levels] == [63, 31, 15, 7, 3]
        assert hier.depth == 4

    def test_levels_match_direct_assembly(self):
        grid = graded_grid(2**5 - 1, blend_coefficients(3.0, 1.0, 0.0))
        prob = FdeProblem(beta=0.5, gamma=0.5)
        hier = scaled_hierarchy(grid, prob)
        lev = hier.levels[2]
        direct = assemble_matrix(lev.grid, prob).entries / lev.grid.steps[:-1][:, None]
        assert np.abs(lev.operator.to_dense()[3] - direct[3]).max() <= 1e-12 * np.abs(direct).max()

    def test_dense_level_zero_is_the_system_operator(self):
        grid = graded_grid(2**5 - 1, blend_coefficients(3.0, 1.0, 0.0))
        system = row_scale(assemble_system(grid, FdeProblem(beta=0.5, gamma=0.5)))
        hier = build_hierarchy(system)
        assert np.shares_memory(hier.levels[0].operator.entries, system.operator.entries)

    def test_toeplitz_level_zero_matches_assembly(self):
        grid = uniform_grid(2**5 - 1)
        prob = FdeProblem(beta=0.5, gamma=0.5)
        system = row_scale(assemble_system(grid, prob))
        assert isinstance(system.operator, SymToeplitzOperator)
        level0 = build_hierarchy(system).levels[0].operator.to_dense()
        direct = assemble_matrix(grid, prob).entries / grid.steps[:-1][:, None]
        assert np.abs(level0 - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize(
        "spec,beta",
        [
            (bench.MeshSpec("composite", rule="sqrt"), 0.5),
            (bench.MeshSpec("graded", eps1=0.1, eps2=0.05), 0.8),
        ],
        ids=["sqrt", "eps1"],
    )
    def test_every_level_keeps_the_coarsened_tail(self, spec, beta):
        grid = bench.build_case_grid(spec, beta, 2**10 - 1)
        hier = scaled_hierarchy(grid, FdeProblem(beta=beta, gamma=0.5))
        for fine, coarse in zip(hier.levels, hier.levels[1:]):
            assert isinstance(coarse.operator, BorderedToeplitzOperator)
            fine_tail = fine.grid.points[fine.operator.border + 1 : -1]
            coarse_tail = coarse.grid.points[coarse.operator.border + 1 : -1]
            kept = fine_tail[np.isin(fine_tail, coarse.grid.points)]
            # all kept tail nodes but at most the first, whose left coarse step is graded
            assert len(coarse_tail) >= len(kept) - 1
            assert np.array_equal(coarse_tail, kept[len(kept) - len(coarse_tail) :])
            assert coarse.operator.step == pytest.approx(2.0 * fine.operator.step, rel=1e-12)
            assert np.array_equal(coarse.diag, coarse.operator.diagonal())

    def test_unscaled_system_rejected(self):
        system = assemble_system(uniform_grid(15), FdeProblem(beta=0.5, gamma=0.5))
        with pytest.raises(MultigridError):
            build_hierarchy(system)


class TestVcycle:
    def test_zero_maps_to_zero(self):
        hier = scaled_hierarchy(uniform_grid(15), FdeProblem(beta=0.5, gamma=0.5))
        assert np.array_equal(vcycle(hier, np.zeros(15)), np.zeros(15))

    def test_linearity(self, rng):
        grid = graded_grid(31, blend_coefficients(2.0, 1.0, 0.0))
        hier = scaled_hierarchy(grid, FdeProblem(beta=0.4, gamma=0.5))
        r1 = rng.standard_normal(31)
        r2 = rng.standard_normal(31)
        lhs = vcycle(hier, r1 + r2)
        rhs = vcycle(hier, r1) + vcycle(hier, r2)
        assert np.abs(lhs - rhs).max() <= 1e-11 * max(np.abs(lhs).max(), 1.0)

    def test_assembled_operator_matches_application(self, rng):
        n = 15
        hier = scaled_hierarchy(uniform_grid(n), FdeProblem(beta=0.6, gamma=0.5))
        m = np.column_stack([vcycle(hier, e) for e in np.eye(n)])
        r = rng.standard_normal(n)
        assert np.abs(m @ r - vcycle(hier, r)).max() <= 1e-11 * np.abs(m @ r).max()

    def test_dimension_mismatch(self):
        hier = scaled_hierarchy(uniform_grid(15), FdeProblem(beta=0.5, gamma=0.5))
        with pytest.raises(MultigridError):
            vcycle(hier, np.zeros(16))

    @pytest.mark.parametrize("k", [5, 7])
    def test_laplacian_contraction(self, rng, k):
        n = 2**k - 1
        hier = scaled_hierarchy(uniform_grid(n), FdeProblem(beta=0.0, gamma=0.5))
        a = hier.levels[0].operator
        e = rng.standard_normal(n)
        rho = 1.0
        for _ in range(25):
            e_new = e - vcycle(hier, a.matvec(e))
            rho = np.linalg.norm(e_new) / np.linalg.norm(e)
            e = e_new / np.linalg.norm(e_new)
        assert rho < 0.2
