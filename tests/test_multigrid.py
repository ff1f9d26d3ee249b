import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gradedfve import assembly as asm
from gradedfve import bench, multigrid
from gradedfve.assembly import (
    DenseOperator,
    FdeProblem,
    FluxOperator,
    assemble_matrix,
    assemble_operator,
    assemble_system,
    coarse_view,
    row_scale,
)
from gradedfve.mesh import (
    blend_coefficients,
    composite_grid_from_counts,
    graded_grid,
    q_for_beta,
    uniform_grid,
)
from gradedfve.multigrid import (
    DEFAULT_REGION,
    OMEGA_FALLBACK,
    MultigridError,
    SmootherRegion,
    _interpolate,
    _restrict,
    build_hierarchy,
    coarsen,
    estimate_omega,
    prolongation,
    vcycle,
)


def scaled_hierarchy(grid, problem):
    return build_hierarchy(row_scale(assemble_system(grid, problem)))


def dense_transfer(transfer, weights, cols):
    """The matrix of a grid transfer with ``cols`` columns, built column by
    column."""
    return np.column_stack([transfer(weights, e) for e in np.eye(cols)])


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


def reference_vcycle(hier, r):
    """The V-cycle with sparse-matrix transfers from :func:`loop_prolongation`
    and an LU factorization at the bottom, kept as an oracle."""
    lu = scipy.linalg.lu_factor(hier.levels[-1].operator.to_dense())

    def cycle(level, r):
        lev = hier.levels[level]
        if level == len(hier.levels) - 1:
            return scipy.linalg.lu_solve(lu, r)
        p = loop_prolongation(lev.grid, hier.levels[level + 1].grid)
        x = hier.omega * r / lev.diag
        res = r - lev.operator.matvec(x)
        x = x + p @ cycle(level + 1, 0.5 * (p.T @ res))
        return x + hier.omega * (r - lev.operator.matvec(x)) / lev.diag

    return cycle(0, r)


# odd and even sizes; table 3's composite meshes have an even N = n1 + n2
TRANSFER_GRIDS = {
    "graded30": lambda: graded_grid(30, blend_coefficients(3.0, 0.45, 0.05)),
    "graded31": lambda: graded_grid(31, blend_coefficients(3.0, 0.45, 0.05)),
    "composite263": lambda: composite_grid_from_counts(8, 255),
    "composite264": lambda: composite_grid_from_counts(8, 256),
}


def vcycle_contraction(hier):
    """Spectral radius of the error propagator ``I - M A`` of one V-cycle
    ``M`` on the finest operator ``A``, from the dense ``M A`` built column
    by column through ``hier.apply``: a dense oracle for N up to a few
    hundred."""
    a = hier.levels[0].operator
    n = a.shape[0]
    ma, e = np.empty((n, n)), np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        ma[:, j] = hier.apply(a.matvec(e))
        e[j] = 0.0
    return float(np.abs(np.linalg.eigvals(np.eye(n) - ma)).max())


def loop_omega(a):
    """The damping-weight scan one candidate at a time, kept as an oracle."""
    d = np.diag(a)
    lam = np.linalg.eigvals(a / d[:, None])
    upper = lam[np.argsort(np.abs(lam))][lam.size // 2 :]
    best, best_damp = None, np.inf
    for k in range(399, 0, -1):
        omega = k * 0.005
        if not DEFAULT_REGION.inside(1.0 - omega * lam).all():
            continue
        damp = float(np.abs(1.0 - omega * upper).max())
        if damp < best_damp - 1e-15:
            best_damp, best = damp, omega
    return None if best is None else round(best, 3)


class TestRegion:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("gamma", [0.5, 0.3, 1.0])
    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_scan_matches_the_loop(self, beta, gamma, n):
        grid = graded_grid(n, blend_coefficients(2.5, 1.0, 0.0))
        a = row_scale(assemble_system(grid, FdeProblem(beta=beta, gamma=gamma))).operator.to_dense()
        expected = loop_omega(a)
        omega = estimate_omega(a)
        assert omega == (OMEGA_FALLBACK if expected is None else expected)
        assert type(omega) is float

    def test_boundary_nonnegative_on_interval(self):
        xs = np.linspace(DEFAULT_REGION.x_min, DEFAULT_REGION.x_max, 2001)
        assert np.all(DEFAULT_REGION.boundary(xs) >= -1e-12)

    def test_left_end_is_boundary_root(self):
        assert DEFAULT_REGION.boundary(DEFAULT_REGION.x_min) == pytest.approx(0.0, abs=1e-12)

    def test_containment(self):
        assert DEFAULT_REGION.inside(np.array([0.0, 0.5, -0.6])).all()
        assert not DEFAULT_REGION.inside(np.array([-0.7])).all()
        assert not DEFAULT_REGION.inside(np.array([0.5 + 0.9j])).all()
        assert DEFAULT_REGION.inside(np.array([0.5 + 0.3j])).all()


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
        p = dense_transfer(_interpolate, prolongation(fine, coarsen(fine)), 3)
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
        p = dense_transfer(_interpolate, prolongation(fine, coarse), coarse.n)
        for k in range(1, coarse.n + 1):
            row = p[2 * k - 1]
            assert row[k - 1] == 1.0 and np.count_nonzero(row) == 1

    def test_linear_reproduction_in_interior(self):
        fine = graded_grid(31, blend_coefficients(2.5, 1.0, 0.0))
        coarse = coarsen(fine)
        vals = _interpolate(prolongation(fine, coarse), coarse.points[1:-1])
        interior = slice(1, 2 * coarse.n)  # rows bracketed by true coarse nodes
        assert np.abs(vals[interior] - fine.points[1:-1][interior]).max() < 1e-14

    @pytest.mark.parametrize("n", [30, 31])
    def test_matches_loop_construction(self, n):
        fine = graded_grid(n, blend_coefficients(3.0, 0.45, 0.05))
        coarse = coarsen(fine)
        weights = prolongation(fine, coarse)
        p = scipy.sparse.csr_matrix(dense_transfer(_interpolate, weights, coarse.n))
        ref = loop_prolongation(fine, coarse)
        assert p.shape == ref.shape
        assert np.array_equal(p.indptr, ref.indptr)
        assert np.array_equal(p.indices, ref.indices)
        assert np.array_equal(p.data, ref.data)

    @pytest.mark.parametrize("name", TRANSFER_GRIDS)
    def test_products_match_the_sparse_reference_bytes(self, name, rng):
        fine = TRANSFER_GRIDS[name]()
        coarse = coarsen(fine)
        n, nc = fine.n, coarse.n
        weights = prolongation(fine, coarse)
        ref = loop_prolongation(fine, coarse)
        for y in (*np.eye(nc), rng.standard_normal(nc)):
            assert _interpolate(weights, y).tobytes() == (ref @ y).tobytes()
        for r in (*np.eye(n), rng.standard_normal(n)):
            assert _restrict(weights, r).tobytes() == (ref.T @ r).tobytes()

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
        omega = estimate_omega(a)
        assert omega == pytest.approx(0.8)
        assert omega <= 1.0879

    def test_laplacian_weight_within_admissible_interval(self):
        ntilde = 15
        grid = uniform_grid(ntilde)
        prob = FdeProblem(beta=0.0, gamma=0.5)
        omega = estimate_omega(assemble_operator(grid, prob, scaled=True).to_dense())
        # closed-form Jacobi spectrum of the scaled discrete Laplacian
        lam = 1.0 - np.cos(np.arange(1, ntilde + 1) * math.pi / (ntilde + 1))
        assert DEFAULT_REGION.inside(1.0 - omega * lam).all()
        upper = (1.0 - DEFAULT_REGION.x_min) / lam.max()
        assert 0.0 < omega <= upper
        # damping-optimal weight for the oscillatory half: 2/(1 + lam_max)
        assert omega == pytest.approx(2.0 / (1.0 + lam.max()), abs=0.005)

    def test_fallback_for_skew_dominated_spectrum(self):
        a = np.array([[1.0, -100.0], [100.0, 1.0]])
        omega = estimate_omega(a)
        assert omega == pytest.approx(2.0 / 3.0)

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(MultigridError):
            estimate_omega(a)


# (mesh, beta, reassembled levels at N + 1 = 1024 and 4096) of the large
# preconditioned benchmark, gamma 0.5
LARGE = {
    "eps6": (bench.MeshSpec("graded", eps1=1.0, eps2=0.0), 0.5, {1024: 0, 4096: 1}),
    "sqrt": (bench.MeshSpec("composite", rule="sqrt"), 0.5, {1024: 8, 4096: 10}),
    "eps1": (bench.MeshSpec("graded", eps1=0.1, eps2=0.05), 0.8, {1024: 8, 4096: 10}),
    "uniform": (bench.MeshSpec("uniform"), 0.5, {1024: 3, 4096: 5}),
}


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
        grid = uniform_grid(2**8 - 1)
        prob = FdeProblem(beta=0.5, gamma=0.5)
        system = row_scale(assemble_system(grid, prob))
        assert isinstance(system.operator, FluxOperator)
        assert system.operator.border == 0
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
            if coarse.grid.n < asm._DENSE_BELOW:  # small levels are dense
                assert isinstance(coarse.operator, DenseOperator)
                continue
            assert isinstance(coarse.operator, FluxOperator)
            assert coarse.operator.border < coarse.grid.n  # a Toeplitz tail
            fine_tail = fine.grid.points[fine.operator.border + 1 : -1]
            coarse_tail = coarse.grid.points[coarse.operator.border + 1 : -1]
            kept = fine_tail[np.isin(fine_tail, coarse.grid.points)]
            # all kept tail nodes but at most the first, whose left coarse step is graded
            assert len(coarse_tail) >= len(kept) - 1
            assert np.array_equal(coarse_tail, kept[len(kept) - len(coarse_tail) :])
            assert coarse.grid.steps[-1] == pytest.approx(2.0 * fine.grid.steps[-1], rel=1e-12)
            assert np.array_equal(coarse.diag, coarse.operator.diagonal())

    @pytest.mark.parametrize("n1p", [1024, 4096])
    @pytest.mark.parametrize("name", LARGE)
    def test_benchmark_hierarchies_are_dense_below_128(self, name, n1p):
        # the preconditioned solves of the large benchmark, at their stated
        # beta: views and rediscretizations alike are dense below 128
        # unknowns, and the levels that own an operator stay as they were
        spec, beta, reassembled = LARGE[name]
        grid = bench.build_case_grid(spec, beta, n1p - 1)
        hier = scaled_hierarchy(grid, FdeProblem(beta=beta, gamma=0.5))
        assert hier.reassembled == reassembled[n1p]
        assert not any(isinstance(lev.operator, FluxOperator) for lev in hier.levels if lev.grid.n < 128)

    def test_unscaled_system_rejected(self):
        system = assemble_system(uniform_grid(15), FdeProblem(beta=0.5, gamma=0.5))
        with pytest.raises(MultigridError):
            build_hierarchy(system)


def power_grid(beta, n):
    """The pure power grid ``x = xi**q`` of the eps6 mesh, at the capped
    order-optimal exponent."""
    return graded_grid(n, blend_coefficients(q_for_beta(beta, n), 1.0, 0.0))


def counted_hierarchy(monkeypatch, system):
    """The hierarchy of ``system`` and the sizes of the levels it assembled,
    as operators or as dense matrices."""
    assembled = []

    def counting(assemble):
        def wrapped(grid, problem, **kwargs):
            assembled.append(grid.n)
            return assemble(grid, problem, **kwargs)

        return wrapped

    for name in ("assemble_operator", "assemble_matrix"):
        monkeypatch.setattr(multigrid, name, counting(getattr(multigrid, name)))
    return build_hierarchy(system), assembled


# dense level 0, constant diffusion, odd N: every coarse grid is the finest
# grid's leading nodes stretched to [0, 1]
SELF_SIMILAR = [
    pytest.param(lambda n, b=beta: power_grid(b, n), beta, gamma, id=f"power-{beta}-{gamma}")
    for beta in (0.2, 0.5, 0.8)
    for gamma in (0.0, 0.3, 0.5, 1.0)
]

# each breaks one property the views rely on
REASSEMBLED = {
    "eps1": (lambda: bench.build_case_grid(bench.MeshSpec("graded", eps1=0.1, eps2=0.05), 0.8, 255),
             FdeProblem(beta=0.8, gamma=0.3)),
    "sqrt": (lambda: bench.build_case_grid(bench.MeshSpec("composite", rule="sqrt"), 0.5, 255),
             FdeProblem(beta=0.5, gamma=0.3)),
    "variable-K": (lambda: power_grid(0.5, 255),
                   FdeProblem(beta=0.5, gamma=0.3, diffusion=lambda x: 1.0 + x)),
    "even-N": (lambda: power_grid(0.5, 256), FdeProblem(beta=0.5, gamma=0.3)),
    "toeplitz-level-0": (lambda: uniform_grid(255), FdeProblem(beta=0.5, gamma=0.5)),
    "asymmetric-toeplitz-level-0": (lambda: uniform_grid(255), FdeProblem(beta=0.5, gamma=0.3)),
}

# (finest grid, coarse size, diffusion, view): eps6 at odd N views a dense
# level and a tail-free flux level; each other case breaks one property the
# views rely on
COARSE_VIEWS = {
    "dense": (lambda: power_grid(0.5, 1023), 511, 1.0, True),
    "flux": (lambda: power_grid(0.5, 4095), 2047, 1.0, True),
    "variable-K": (lambda: power_grid(0.5, 255), 127, lambda x: 1.0 + x, False),
    "sqrt": (lambda: bench.build_case_grid(bench.MeshSpec("composite", rule="sqrt"), 0.5, 127), 63,
             1.0, False),
    "even-N": (lambda: power_grid(0.5, 256), 128, 1.0, False),
    "toeplitz-tail": (lambda: uniform_grid(1023), 511, 1.0, False),
    "flux-below-128": (lambda: power_grid(0.5, 4095), 127, 1.0, False),
}


class TestSelfSimilarLevels:
    @pytest.mark.parametrize("name", COARSE_VIEWS)
    def test_coarse_view(self, rng, name):
        make_grid, n, diffusion, view = COARSE_VIEWS[name]
        grid = coarse = make_grid()
        while coarse.n > n:
            coarse = coarsen(coarse)
        problem = FdeProblem(beta=0.5, gamma=0.3, diffusion=diffusion)
        op = assemble_operator(grid, problem, scaled=True)
        found = coarse_view(op, grid, coarse, problem)
        if not view:
            assert found is None
            return
        assert type(found) is type(op)
        name = "entries" if isinstance(op, DenseOperator) else "near"
        assert np.shares_memory(getattr(found, name), getattr(op, name))
        v = rng.standard_normal(n)
        ref = assemble_operator(coarse, problem, scaled=True).matvec(v)
        abs_a = np.abs(assemble_matrix(coarse, problem).entries) / coarse.steps[:-1, None]
        assert np.abs(found.matvec(v) - ref).max() <= 1e-12 * (abs_a @ np.abs(v)).max()

    @pytest.mark.parametrize("n", [31, 255, 1023])
    @pytest.mark.parametrize("make_grid,beta,gamma", SELF_SIMILAR)
    def test_coarse_levels_view_level_zero(self, monkeypatch, make_grid, beta, gamma, n):
        system = row_scale(assemble_system(make_grid(n), FdeProblem(beta=beta, gamma=gamma)))
        hier, assembled = counted_hierarchy(monkeypatch, system)
        assert assembled == [] and hier.reassembled == 0
        for lev in hier.levels[1:]:
            assert np.shares_memory(lev.operator.entries, system.operator.entries)

    @pytest.mark.parametrize("n", [31, 255, 1023])
    @pytest.mark.parametrize("make_grid,beta,gamma", SELF_SIMILAR)
    def test_views_match_a_rediscretization(self, make_grid, beta, gamma, n):
        # both versions cancel (ROADMAP item 2) at beta = 0.8: at N = 31
        # (x_1 = 2.8e-14) they differ by 2.3e-14 of max|A_l| in entry (0, 0),
        # and each is 0.7-1.4e-14 off a 40-digit evaluation of the same
        # formula; at beta <= 0.5 they differ by <= 9e-16
        problem = FdeProblem(beta=beta, gamma=gamma)
        hier = scaled_hierarchy(make_grid(n), problem)
        grid = hier.levels[0].grid
        for lev in hier.levels[1:]:
            grid = coarsen(grid)
            ref = assemble_operator(grid, problem, scaled=True).to_dense()
            assert np.abs(lev.operator.to_dense() - ref).max() <= 5e-14 * np.abs(ref).max()
            assert np.array_equal(lev.diag, np.diag(lev.operator.to_dense()))

    # N + 1 a multiple of the block, and not: the mirrored blocks differ
    @pytest.mark.parametrize("n0,block", [(255, 16), (383, 5)])
    @pytest.mark.parametrize("make_grid,beta,gamma", SELF_SIMILAR)
    def test_levels_of_a_matrix_free_level_zero_view_it(
        self, monkeypatch, rng, make_grid, beta, gamma, n0, block
    ):
        # with the exponential sum from 64 unknowns on, level 0 is matrix-free
        # and, with no dense small levels, every coarser level is a scaled
        # view of it: its near array and sweep tables, whose products are
        # level 0's on the vector padded with zeros, and which matches a
        # rediscretization within the bound of the dense views
        monkeypatch.setattr(asm, "_SOE_MIN_N", 64)
        monkeypatch.setattr(asm, "_SOE_BLOCK", block)
        monkeypatch.setattr(asm, "_DENSE_BELOW", 0)
        problem = FdeProblem(beta=beta, gamma=gamma)
        system = row_scale(assemble_system(make_grid(n0), problem))
        hier, assembled = counted_hierarchy(monkeypatch, system)
        assert assembled == [] and hier.reassembled == 0
        level0, x = system.operator, system.grid.points
        assert isinstance(level0, FluxOperator) and level0.border == n0  # no tail
        tables = [a for t in level0.left + level0.right for a in t[4:6]]
        grid = system.grid
        for lev in hier.levels[1:]:
            op, n = lev.operator, lev.grid.n
            assert isinstance(op, FluxOperator) and op.border == n
            assert np.shares_memory(op.near, level0.near)
            for a in [a for t in op.left + op.right for a in t[4:6]]:
                assert any(np.shares_memory(a, b) for b in tables)
            v = rng.standard_normal(n)
            padded = level0.matvec(np.concatenate((v, np.zeros(n0 - n))))[:n]
            ref = x[n + 1] ** (2.0 - beta) * padded
            assert np.abs(op.matvec(v) - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(lev.diag, x[n + 1] ** (2.0 - beta) * level0.diagonal()[:n])
            grid = coarsen(grid)
            ref = assemble_operator(grid, problem, scaled=True).to_dense()
            assert np.abs(op.to_dense() - ref).max() <= 5e-14 * np.abs(ref).max()

    def test_a_matrix_free_finest_level_reassembles_one_dense_level(self, monkeypatch):
        # eps6 at N = 4095: level 0 is matrix-free and the four levels of
        # 128 unknowns or more below it view it; the level of 127 is dense,
        # and the five below it view that
        system = row_scale(assemble_system(power_grid(0.5, 4095), FdeProblem(beta=0.5, gamma=0.5)))
        hier, assembled = counted_hierarchy(monkeypatch, system)
        assert assembled == [127] and hier.reassembled == 1 and hier.depth == 10
        small = next(lev for lev in hier.levels if lev.grid.n == 127)
        assert isinstance(small.operator, DenseOperator)
        for lev in hier.levels[1:]:
            if lev.grid.n >= 128:
                assert np.shares_memory(lev.operator.near, system.operator.near)
            elif lev is not small:
                assert np.shares_memory(lev.operator.entries, small.operator.entries)

    @pytest.mark.parametrize("name", REASSEMBLED)
    def test_every_other_hierarchy_reassembles_its_levels(self, monkeypatch, name):
        make_grid, problem = REASSEMBLED[name]
        system = row_scale(assemble_system(make_grid(), problem))
        hier, assembled = counted_hierarchy(monkeypatch, system)
        assert all(isinstance(lev.operator, DenseOperator) for lev in hier.levels[2:])  # below 128
        if "toeplitz" in name:
            # the uniform grid's first level below 128 unknowns is dense and
            # the levels below it view it
            assert assembled == [127] and hier.reassembled == 1
            for lev in hier.levels[2:]:
                assert np.shares_memory(lev.operator.entries, hier.levels[1].operator.entries)
        else:
            assert assembled == [lev.grid.n for lev in hier.levels[1:]]
            assert hier.reassembled == hier.depth


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

    @pytest.mark.parametrize("name", TRANSFER_GRIDS)
    @pytest.mark.parametrize("gamma", [0.5, 0.3])
    def test_matches_sparse_lu_reference_bytes(self, rng, name, gamma):
        hier = scaled_hierarchy(TRANSFER_GRIDS[name](), FdeProblem(beta=0.6, gamma=gamma))
        r = rng.standard_normal(hier.levels[0].grid.n)
        assert vcycle(hier, r).tobytes() == reference_vcycle(hier, r).tobytes()

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

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("mesh", [
        bench.MeshSpec("graded", eps1=1.0, eps2=0.0),  # eps6
        bench.MeshSpec("graded", eps1=0.1, eps2=0.05),  # eps1
        bench.MeshSpec("composite", rule="sqrt"),
        bench.MeshSpec("uniform"),
    ], ids=["eps6", "eps1", "sqrt", "uniform"])
    def test_fractional_contraction(self, mesh, beta):
        grid = bench.build_case_grid(mesh, beta, 255)
        rho = vcycle_contraction(scaled_hierarchy(grid, FdeProblem(beta=beta, gamma=0.5)))
        assert rho < 0.45
