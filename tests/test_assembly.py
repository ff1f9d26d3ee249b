import math
import tracemalloc
import typing

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gradedfve import _memory
from gradedfve import assembly as asm
from gradedfve import bench
from gradedfve.assembly import (
    AssemblyError,
    DenseOperator,
    FdeProblem,
    LinearOperator,
    ToeplitzOperator,
    assemble_matrix,
    assemble_operator,
    assemble_rhs,
    assemble_system,
    row_scale,
    uniform_toeplitz,
)
from gradedfve.mesh import (
    CompositeRule,
    blend_coefficients,
    composite_grid,
    composite_grid_from_counts,
    graded_grid,
    q_cap,
    uniform_grid,
)


def literal_matrix(grid, beta, gamma, diffusion=lambda x: np.ones_like(x)):
    """Independent oracle: loop transcription of the entry formulas with
    explicit partial sums of step lengths."""
    x = grid.points
    n = grid.n
    h = np.concatenate(([np.nan], grid.steps))
    gam1 = math.gamma(beta + 1)
    a = np.zeros((n, n))

    def s(lo, hi):
        return x[hi] - x[lo - 1] if hi >= lo else 0.0

    for i in range(1, n + 1):
        km = diffusion(np.array([(x[i - 1] + x[i]) / 2]))[0]
        kp = diffusion(np.array([(x[i] + x[i + 1]) / 2]))[0]
        for k in range(2, i):
            t1 = ((h[i] / 2 + s(i - k, i - 1)) ** beta - (h[i] / 2 + s(i - k + 1, i - 1)) ** beta) / h[i - k]
            t2 = ((h[i] / 2 + s(i - k + 2, i - 1)) ** beta - (h[i] / 2 + s(i - k + 1, i - 1)) ** beta) / h[i - k + 1]
            t3 = ((h[i + 1] / 2 + s(i - k, i)) ** beta - (h[i + 1] / 2 + s(i - k + 1, i)) ** beta) / h[i - k]
            t4 = ((h[i + 1] / 2 + s(i - k + 2, i)) ** beta - (h[i + 1] / 2 + s(i - k + 1, i)) ** beta) / h[i - k + 1]
            a[i - 1, i - k - 1] = (km * gamma * (t1 + t2) - kp * gamma * (t3 + t4)) / gam1
        if i >= 2:
            t1 = gamma * ((h[i - 1] + h[i] / 2) ** beta - (h[i] / 2) ** beta) / h[i - 1] - (h[i] / 2) ** beta / h[i]
            t2 = ((h[i - 1] + h[i] + h[i + 1] / 2) ** beta - (h[i] + h[i + 1] / 2) ** beta) / h[i - 1] \
                + ((h[i + 1] / 2) ** beta - (h[i] + h[i + 1] / 2) ** beta) / h[i]
            a[i - 1, i - 2] = (km * t1 - kp * gamma * t2) / gam1
        t1 = (h[i] / 2) ** beta / h[i] + (1 - gamma) * ((h[i] / 2) ** beta - (h[i + 1] + h[i] / 2) ** beta) / h[i + 1]
        t2 = gamma * ((h[i] + h[i + 1] / 2) ** beta - (h[i + 1] / 2) ** beta) / h[i] - (h[i + 1] / 2) ** beta / h[i + 1]
        a[i - 1, i - 1] = (km * t1 - kp * t2) / gam1
        if i <= n - 1:
            t1 = ((h[i + 1] + h[i] / 2) ** beta - (h[i] / 2) ** beta) / h[i + 1] \
                + ((h[i + 1] + h[i] / 2) ** beta - (h[i + 2] + h[i + 1] + h[i] / 2) ** beta) / h[i + 2]
            t2 = (h[i + 1] / 2) ** beta / h[i + 1] + (1 - gamma) * ((h[i + 1] / 2) ** beta - (h[i + 2] + h[i + 1] / 2) ** beta) / h[i + 2]
            a[i - 1, i] = (km * (1 - gamma) * t1 - kp * t2) / gam1
        for k in range(2, n - i + 1):
            t1 = ((h[i] / 2 + s(i + 1, i + k)) ** beta - (h[i] / 2 + s(i + 1, i + k - 1)) ** beta) / h[i + k]
            t2 = ((h[i] / 2 + s(i + 1, i + k)) ** beta - (h[i] / 2 + s(i + 1, i + k + 1)) ** beta) / h[i + k + 1]
            t3 = ((h[i + 1] / 2 + s(i + 2, i + k)) ** beta - (h[i + 1] / 2 + s(i + 2, i + k - 1)) ** beta) / h[i + k]
            t4 = ((h[i + 1] / 2 + s(i + 2, i + k)) ** beta - (h[i + 1] / 2 + s(i + 2, i + k + 1)) ** beta) / h[i + k + 1]
            a[i - 1, i + k - 1] = (km * (1 - gamma) * (t1 + t2) - kp * (1 - gamma) * (t3 + t4)) / gam1
    return a


def mpmath_flux_matrix(grid, beta, gamma):
    """The piece-flux/hat-flux formula of the assembly, with constant unit
    diffusion, in 40-digit mpmath at the float nodes and midpoints."""
    mpmath = pytest.importorskip("mpmath")
    x = grid.points
    n = grid.n
    z = 0.5 * (x[:-1] + x[1:])
    with mpmath.workdps(40):
        beta, gamma = mpmath.mpf(beta), mpmath.mpf(gamma)
        xs = [mpmath.mpf(float(v)) for v in x]
        h = [xs[k + 1] - xs[k] for k in range(n + 1)]
        flux = []  # hat fluxes F[t, m], nodes m = 1 .. n
        for t in range(n + 1):
            zt = mpmath.mpf(float(z[t]))
            w = [abs(xm - zt) ** beta for xm in xs]
            q = [
                gamma * (w[k + 1] - w[k]) / h[k] if k < t
                else (gamma - 1) * (w[k + 1] - w[k]) / h[k] if k > t
                else -(gamma * w[k] + (1 - gamma) * w[k + 1]) / h[k]
                for k in range(n + 1)
            ]
            flux.append([q[m] - q[m - 1] for m in range(1, n + 1)])
        gam1 = mpmath.gamma(beta + 1)
        return np.array([[float((flux[i][j] - flux[i + 1][j]) / gam1) for j in range(n)] for i in range(n)])


def mpmath_boundary_rhs(grid, beta, gamma, u_left, u_right, diffusion):
    """Independent oracle for the Dirichlet terms, in 40-digit mpmath.

    The function with nodal values ``u_left, 0, ..., 0, u_right`` (the two
    boundary half-hats) has slope ``-u_left / h_0`` on the first piece and
    ``u_right / h_N`` on the last.  Its flux at a midpoint ``z`` is
    ``K(z) (gamma I_left + (1 - gamma) I_right)`` of that slope, where
    ``I_left`` integrates ``(z - s)**(beta - 1) / Gamma(beta)`` over the part
    of each piece left of ``z`` and ``I_right`` integrates
    ``(s - z)**(beta - 1) / Gamma(beta)`` over the part right of it, both in
    closed form.  Equation ``i`` gets the flux at ``z_{i+1}`` minus the flux
    at ``z_i``; the second array is ``|flux(z_i)| + |flux(z_{i+1})|``, the
    scale of that difference.
    """
    mpmath = pytest.importorskip("mpmath")
    x = grid.points
    n = grid.n
    z = 0.5 * (x[:-1] + x[1:])
    kz = diffusion(z)
    with mpmath.workdps(40):
        beta, gamma = mpmath.mpf(beta), mpmath.mpf(gamma)
        gam1 = mpmath.gamma(beta + 1)
        xs = [mpmath.mpf(float(v)) for v in x]
        slopes = {0: -u_left / (xs[1] - xs[0]), n: u_right / (xs[n + 1] - xs[n])}
        flux = []
        for t in range(n + 1):
            zt = mpmath.mpf(float(z[t]))
            total = mpmath.mpf(0)
            for k, slope in slopes.items():
                lo, hi = xs[k], xs[k + 1]
                if lo < zt:
                    total += gamma * slope * ((zt - lo) ** beta - (zt - min(hi, zt)) ** beta) / gam1
                if hi > zt:
                    total += (1 - gamma) * slope * ((hi - zt) ** beta - (max(lo, zt) - zt) ** beta) / gam1
            flux.append(total * mpmath.mpf(float(kz[t])))
        rhs = np.array([float(flux[i + 1] - flux[i]) for i in range(n)])
        scale = np.array([float(abs(flux[i + 1]) + abs(flux[i])) for i in range(n)])
    return rhs, scale


def unfused_matrix(grid, problem):
    """Reference for the fused block kernel: the piece fluxes, the hat fluxes
    and the matrix rows computed with one whole-block temporary per
    operation, in the order the fused kernel must reproduce bit for bit."""
    x = grid.points
    n = grid.n
    beta, gamma = float(problem.beta), float(problem.gamma)
    inv_h = 1.0 / grid.steps
    z = 0.5 * (x[:-1] + x[1:])
    kz = problem.diffusion_at(z)
    pieces = np.arange(n + 1)
    a = np.empty((n, n))
    for i0 in range(0, n, 64):
        i1 = min(i0 + 64, n)
        t = np.arange(i0, i1 + 1)[:, None]
        w = np.abs(x[None, :] - z[i0 : i1 + 1, None]) ** beta
        q = (w[:, 1:] - w[:, :-1]) * inv_h * np.where(pieces < t, gamma, gamma - 1.0)
        split = -(gamma * w[:, :-1] + (1.0 - gamma) * w[:, 1:]) * inv_h
        q = np.where(pieces == t, split, q)
        f = q[:, 1:] - q[:, :-1]
        a[i0:i1] = (kz[i0:i1, None] * f[:-1] - kz[i0 + 1 : i1 + 1, None] * f[1:]) / math.gamma(beta + 1.0)
    return a


class TestAgainstLiteralOracle:
    @pytest.mark.parametrize(
        "beta,gamma,grid,tol",
        [
            (0.5, 0.5, uniform_grid(24), 1e-13),
            (0.3, 0.7, graded_grid(20, blend_coefficients(2.0, 1.0, 0.0)), 1e-12),
            (0.5, 0.3, graded_grid(20, blend_coefficients(3.0, 0.2, 0.05)), 1e-12),
            (0.9, 0.5, composite_grid_from_counts(5, 20), 1e-12),
            # extreme grading stresses the two algebraically equal forms
            (0.8, 0.5, graded_grid(15, blend_coefficients(9.0, 1.0, 0.0)), 1e-8),
        ],
    )
    def test_vectorized_matches_loops(self, beta, gamma, grid, tol):
        mine = assemble_matrix(grid, FdeProblem(beta=beta, gamma=gamma)).entries
        ref = literal_matrix(grid, beta, gamma)
        assert np.abs(mine - ref).max() <= tol * np.abs(ref).max()

    def test_variable_diffusion(self):
        k = lambda x: 1.0 + 0.5 * np.asarray(x)
        grid = graded_grid(12, blend_coefficients(2.0, 0.3, 0.1))
        mine = assemble_matrix(grid, FdeProblem(beta=0.6, gamma=0.4, diffusion=k)).entries
        ref = literal_matrix(grid, 0.6, 0.4, diffusion=k)
        assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "grid", [uniform_grid(31), composite_grid(31, CompositeRule("sqrt"))], ids=["uniform", "sqrt"]
    )
    def test_matches_the_flux_formula_in_mpmath(self, grid):
        """Rounding only: every row within 1e-12 of its largest entry.

        Graded grids with a first step near 1e-16 (eps6 at the capped
        exponent) are not covered: there the powers ``|x_m - z_t|**beta``
        of far midpoints cancel in their differences, and the float matrix
        is 2 to 92% off this formula in some rows (ROADMAP item 1)."""
        for beta in (0.2, 0.5, 0.8):
            for gamma in (0.3, 0.5):
                mine = assemble_matrix(grid, FdeProblem(beta=beta, gamma=gamma)).entries
                ref = mpmath_flux_matrix(grid, beta, gamma)
                err = np.abs(mine - ref).max(axis=1) / np.abs(ref).max(axis=1)
                assert err.max() <= 1e-12, (beta, gamma)


class TestBlockedAssembly:
    GRIDS = {
        "uniform130": uniform_grid(130),  # not a multiple of the block size
        "graded20": graded_grid(20, blend_coefficients(2.0, 0.2, 0.05)),  # one block
        "eps6_x1_1e-16": graded_grid(127, blend_coefficients(q_cap(127), 1.0, 0.0)),
    }

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_block_size_does_not_change_a_bit(self, monkeypatch, name, gamma):
        grid = self.GRIDS[name]
        if name.startswith("eps6"):
            assert grid.points[1] == pytest.approx(1e-16, rel=1e-6)
        problem = FdeProblem(beta=0.7, gamma=gamma, diffusion=lambda x: 1.0 + x)
        default = assemble_matrix(grid, problem).entries
        for rows in (1, grid.n + 1):
            monkeypatch.setattr(asm, "_BLOCK_ENTRIES", rows * (grid.n + 2))
            assert np.array_equal(assemble_matrix(grid, problem).entries, default)

    FUSED_GRIDS = dict(GRIDS, sqrt255=composite_grid(255, CompositeRule("sqrt")))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("name", list(FUSED_GRIDS))
    def test_fused_kernel_matches_unfused_bit_for_bit(self, name, gamma):
        grid = self.FUSED_GRIDS[name]
        for beta in (0.0, 0.5, 1.0):
            problem = FdeProblem(beta=beta, gamma=gamma, diffusion=lambda x: 1.0 + x)
            fused = assemble_matrix(grid, problem).entries
            # byte comparison also tells signed zeros apart
            assert fused.tobytes() == unfused_matrix(grid, problem).tobytes(), beta

    def test_peak_memory_stays_near_the_matrix(self):
        n = 2**10 - 1
        grid = graded_grid(n, blend_coefficients(q_cap(n), 1.0, 0.0))
        problem = FdeProblem(beta=0.5, gamma=0.3)
        tracemalloc.start()
        try:
            op = assemble_matrix(grid, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * op.entries.nbytes

    def test_finite_check_survives_an_overflowing_block_sum(self):
        # finite entries up to 1.6e308 whose sum overflows: no error and no warning
        a = assemble_matrix(uniform_grid(4), FdeProblem(beta=0.5, gamma=0.0, diffusion=7e307)).entries
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(a)) and a.sum() == np.inf
        # entries that overflow are refused
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AssemblyError, match="non-finite entries"):
                assemble_matrix(uniform_grid(16), FdeProblem(beta=0.5, gamma=0.0, diffusion=5e307))

    @pytest.mark.parametrize("n", [2**10 - 1, 2**11 - 1])
    def test_working_memory_does_not_grow_with_n(self, n):
        # three block buffers of _BLOCK_ENTRIES entries each, 1.5 MB, whatever n
        grid = graded_grid(n, blend_coefficients(q_cap(n), 1.0, 0.0))
        problem = FdeProblem(beta=0.5, gamma=0.3)
        tracemalloc.start()
        try:
            op = assemble_matrix(grid, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - op.entries.nbytes <= 2 * 2**20


class TestStructuralLimits:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    def test_beta_zero_is_laplacian(self, gamma):
        n = 9
        grid = uniform_grid(n)
        a = assemble_matrix(grid, FdeProblem(beta=0.0, gamma=gamma)).entries
        h = 1.0 / (n + 1)
        lap = (np.diag(2 * np.ones(n)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h
        assert np.abs(a - lap).max() <= 1e-13 / h

    def test_beta_zero_interior_row_sums(self):
        grid = graded_grid(12, blend_coefficients(2.0, 1.0, 0.0))
        a = assemble_matrix(grid, FdeProblem(beta=0.0, gamma=0.4)).entries
        sums = a.sum(axis=1)
        assert np.abs(sums[1:-1]).max() <= 1e-10 * np.abs(a).max()
        assert sums[0] > 0 and sums[-1] > 0

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
    def test_beta_one_is_skew_tridiagonal(self, gamma):
        n = 8
        k0 = 2.5
        a = assemble_matrix(
            uniform_grid(n), FdeProblem(beta=1.0, gamma=gamma, diffusion=k0)
        ).entries
        expected = k0 * (gamma - 0.5) * (np.diag(np.ones(n - 1), -1) - np.diag(np.ones(n - 1), 1))
        assert np.abs(a - expected).max() <= 1e-12 * max(k0, 1.0)

    def test_diagonal_closed_form(self):
        n, beta = 16, 0.5
        h = 1.0 / (n + 1)
        c = h ** (beta - 1) / (2**beta * math.gamma(beta + 1))
        a = assemble_matrix(uniform_grid(n), FdeProblem(beta=beta, gamma=0.5)).entries
        assert a[5, 5] == pytest.approx(0.5 * c * (6 - 2 * 3**beta), rel=1e-13)

    def test_second_offdiagonal_closed_form(self):
        n, beta = 16, 0.5
        h = 1.0 / (n + 1)
        c = h ** (beta - 1) / (2**beta * math.gamma(beta + 1))
        t = uniform_toeplitz(n, beta).first_row
        assert t[2] == pytest.approx(
            0.5 * c * (3 * 5**beta - 3 * 3**beta + 1 - 7**beta), rel=1e-13
        )

    def test_uniform_assembly_exactly_symmetric_toeplitz(self):
        n = 32
        a = assemble_matrix(uniform_grid(n), FdeProblem(beta=0.7, gamma=0.5)).entries
        scale = np.abs(a).max()
        assert np.abs(a - a.T).max() <= 1e-13 * scale
        for k in range(n):
            diag = np.diagonal(a, k)
            assert np.abs(diag - diag[0]).max() <= 1e-13 * scale

    def test_gamma_swap_transposes(self):
        n = 24
        for beta in (0.2, 0.8):
            a3 = assemble_matrix(uniform_grid(n), FdeProblem(beta=beta, gamma=0.3)).entries
            a7 = assemble_matrix(uniform_grid(n), FdeProblem(beta=beta, gamma=0.7)).entries
            assert np.abs(a3 - a7.T).max() <= 1e-12 * np.abs(a3).max()

    def test_toeplitz_limit_row(self):
        t = uniform_toeplitz(8, 1e-14).first_row
        h = 1.0 / 9
        assert t[0] * h == pytest.approx(2.0, rel=1e-10)
        assert t[1] * h == pytest.approx(-1.0, rel=1e-10)
        assert np.abs(t[2:] * h).max() < 1e-10


class TestToeplitzOperator:
    def test_matches_dense_assembly(self):
        n, beta = 64, 0.5
        dense = assemble_matrix(uniform_grid(n), FdeProblem(beta=beta, gamma=0.5)).entries
        top = uniform_toeplitz(n, beta).to_dense()
        assert np.abs(dense - top).max() <= 1e-12 * np.abs(dense).max()

    def test_fft_matvec_against_dense(self, rng):
        n = 2**8
        op = uniform_toeplitz(n, 0.3)
        dense = op.to_dense()
        worst = 0.0
        for _ in range(100):
            v = rng.standard_normal(n)
            ref = dense @ v
            worst = max(worst, np.abs(op.matvec(v) - ref).max() / np.abs(ref).max())
        assert worst <= 1e-11

    def test_to_dense_makes_one_matrix(self):
        grid = uniform_grid(2**10 - 1)
        op = assemble_operator(grid, FdeProblem(beta=0.5, gamma=0.5), scaled=True)
        tracemalloc.start()
        try:
            a = op.to_dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * a.nbytes

    def test_fft_matvec_every_small_size(self, rng):
        # circulant sizes 2n - 1 .. 2n, odd ones included, of nonsymmetric tails
        for n in range(1, 41):
            col, row = rng.standard_normal(n), rng.standard_normal(n)
            col[0] = row[0]
            op = ToeplitzOperator(col, row, np.empty((0, n)), np.empty((n, 0)))
            a = op.to_dense()
            assert np.array_equal(a, scipy.linalg.toeplitz(col, row)), n
            v = rng.standard_normal(n)
            ref = a @ v
            assert np.abs(op.matvec(v) - ref).max() <= 1e-13 * np.abs(ref).max(), n

    def test_identity_and_zero(self, rng):
        op = DenseOperator(np.eye(5))
        v = rng.standard_normal(5)
        assert np.array_equal(op.matvec(v), v)
        assert np.array_equal(op.matvec(np.zeros(5)), np.zeros(5))

    def test_dimension_mismatch(self):
        op = uniform_toeplitz(8, 0.5)
        with pytest.raises(AssemblyError):
            op.matvec(np.ones(9))


class TestBorderedToeplitz:
    """The bordered operator of a mesh with a uniform tail against the dense
    assembly: its border and the tail's first row and column, row and
    column ``b`` of the matrix, are the same arithmetic, and the later tail
    rows repeat them."""

    # (mesh, beta): the grids of eps1 and eps4 depend on beta through q; the
    # uniform grid is all tail, with no border
    MESHES = {
        "uniform": (bench.MeshSpec("uniform"), 0.7),
        "sqrt": (bench.MeshSpec("composite", rule="sqrt"), 0.5),
        "log2": (bench.MeshSpec("composite", rule="log2"), 0.3),
        "eps1": (bench.MeshSpec("graded", eps1=0.1, eps2=0.05), 0.8),
        "eps4": (bench.MeshSpec("graded", eps1=0.45, eps2=0.05), 0.5),
    }

    @pytest.mark.parametrize("gamma", [0.5, 0.3])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("n", [127, 1023])
    @pytest.mark.parametrize("name", list(MESHES))
    def test_matches_dense_assembly(self, rng, name, n, scaled, gamma):
        spec, beta = self.MESHES[name]
        grid = bench.build_case_grid(spec, beta, n)
        problem = FdeProblem(beta=beta, gamma=gamma)
        system = assemble_system(grid, problem)
        assert isinstance(system.operator, ToeplitzOperator)
        b = system.operator.border
        assert b == 0 if name == "uniform" else 0 < b < n
        dense = assemble_matrix(grid, problem).entries
        column = dense[b:, b] / (grid.steps[b] if scaled else 1.0)  # the tail's one step
        if scaled:
            system = row_scale(system)
            dense /= grid.steps[:-1][:, None]
        op = system.operator
        a = op.to_dense()
        assert a[: b + 1].tobytes() == dense[: b + 1].tobytes()  # the border and row b
        assert a[b:, :b].tobytes() == dense[b:, :b].tobytes()
        assert a[b:, b].tobytes() == column.tobytes()  # and column b
        tail = a[b:, b:]
        assert np.abs(tail - dense[b:, b:]).max() <= 1e-11 * np.abs(dense).max()
        assert np.array_equal(tail, scipy.linalg.toeplitz(tail[:, 0], tail[0]))
        v = rng.standard_normal(n)
        ref = a @ v
        assert np.abs(op.matvec(v) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(op.diagonal(), np.diag(a))

    def test_meshes_without_a_toeplitz_tail_stay_dense(self):
        sqrt = composite_grid(127, CompositeRule("sqrt"))
        eps6 = graded_grid(127, blend_coefficients(3.0, 1.0, 0.0))
        for grid, problem in [
            (eps6, FdeProblem(beta=0.5, gamma=0.5)),
            (eps6, FdeProblem(beta=0.5, gamma=0.4)),
            (sqrt, FdeProblem(beta=0.5, gamma=0.4, diffusion=lambda x: 1.0 + x)),
        ]:
            assert isinstance(assemble_system(grid, problem).operator, DenseOperator)

    def test_dense_request_keeps_the_dense_matrix(self, monkeypatch):
        # a direct solve factors the whole dense matrix, also on the grids whose
        # iterative solves get a bordered Toeplitz operator
        shapes = []

        def recording(grid, problem, **blocks):
            shapes.append(blocks)
            return assemble_matrix(grid, problem, **blocks)

        monkeypatch.setattr(asm, "assemble_matrix", recording)
        problem = bench.make_problem(0.5, 0.5)
        for spec in (bench.MeshSpec("composite", rule="sqrt"), bench.MeshSpec("uniform")):
            shapes.clear()
            res = bench.run_case(bench.CaseConfig(0.5, 0.5, spec, 127, "direct"))
            assert shapes == [{}]  # one call, for the whole matrix
            grid = bench.build_case_grid(spec, 0.5, 127)
            u = np.linalg.solve(assemble_matrix(grid, problem).entries, assemble_rhs(grid, problem))
            assert res.e_inf_nodes == np.abs(u - grid.points[1:-1] ** 0.5).max()

    def test_block_ranges_are_slices_of_the_matrix(self, monkeypatch):
        grid = composite_grid(130, CompositeRule("sqrt"))
        problem = FdeProblem(beta=0.7, gamma=0.3, diffusion=lambda x: 1.0 + x)
        full = assemble_matrix(grid, problem).entries
        b = asm._tail_start(grid)
        assert 0 < b < 130
        ranges = [
            ((0, 130), (0, 130)),
            ((5, 70), (60, 72)),
            ((64, 65), (0, 1)),
            ((3, 3), (0, 9)),
            ((70, 130), (0, 40)),  # every node left of every midpoint
            ((0, 40), (70, 130)),  # every node right of every midpoint
            ((0, b), (0, 130)),  # the two blocks of the bordered operator
            ((b, 130), (0, b)),
        ]
        for rows, cols in ranges:
            ref = full[slice(*rows), slice(*cols)].tobytes()
            # the default budget, then blocks of 1 and of 3 rows
            for budget in (asm._BLOCK_ENTRIES, cols[1] - cols[0] + 2, 3 * (cols[1] - cols[0] + 2)):
                monkeypatch.setattr(asm, "_BLOCK_ENTRIES", budget)
                block = assemble_matrix(grid, problem, rows=rows, cols=cols).entries
                assert block.tobytes() == ref, (rows, cols, budget)
        with pytest.raises(AssemblyError):
            assemble_matrix(grid, problem, rows=(0, 131))

    def test_matrix_beyond_physical_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(_memory, "physical_memory", lambda: 4 * 2**20)
        grid = uniform_grid(1023)
        problem = FdeProblem(beta=0.5, gamma=0.5)
        with pytest.raises(AssemblyError, match="physical memory"):
            assemble_matrix(grid, problem)
        # the bordered operator of the same grid stores no N x N block
        assert assemble_operator(grid, problem).border == 0


#: Mesh families of the property test: the uniform grid, the composite
#: rules and the graded presets whose tail, where they have one, differs
PROPERTY_MESHES = {
    "uniform": bench.MeshSpec("uniform"),
    "sqrt": bench.MeshSpec("composite", rule="sqrt"),
    "log2": bench.MeshSpec("composite", rule="log2"),
    **{
        name: bench.MeshSpec("graded", eps1=eps1, eps2=eps2)
        for name, (eps1, eps2) in bench.EPS_PRESETS.items()
        if name in ("eps1", "eps4", "eps6")
    },
}


@settings(max_examples=150, deadline=None)
@given(
    mesh=st.sampled_from(list(PROPERTY_MESHES)),
    n=st.integers(9, 80),  # eps1 needs a step of at most 0.1
    beta=st.floats(0.05, 0.95),
    gamma=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    variable=st.booleans(),
    scaled=st.booleans(),
)
def test_every_operator_kind_agrees_with_the_dense_assembly(mesh, n, beta, gamma, variable, scaled):
    """Both operator kinds answer one protocol, and each answers it with
    the dense assembly: border entries and the tail's first row and column
    bit for bit, the rest of the Toeplitz tail to 1e-11 of max|A|.  The
    kind follows from the grid and K alone: Toeplitz exactly when K is
    constant and the grid has a uniform tail, whatever gamma."""
    kinds = typing.get_args(LinearOperator)
    grid = bench.build_case_grid(PROPERTY_MESHES[mesh], beta, n)
    problem = FdeProblem(beta, gamma, diffusion=(lambda x: 1.0 + x) if variable else 1.0)
    op = assemble_operator(grid, problem, scaled=scaled)
    assert isinstance(op, kinds) and op.shape == (n, n)
    toeplitz = not variable and asm._tail_start(grid) < n
    assert isinstance(op, ToeplitzOperator) == toeplitz
    b = op.border if toeplitz else n
    dense = assemble_matrix(grid, problem).entries
    # scaling divides the tail by one step, that of its first row
    column = dense[b:, b : b + 1] / (grid.steps[b] if scaled else 1.0)
    if scaled:
        dense /= grid.steps[:-1][:, None]
    a = op.to_dense()
    assert a[: b + 1].tobytes() == dense[: b + 1].tobytes()
    assert a[b:, :b].tobytes() == dense[b:, :b].tobytes()
    assert a[b:, b : b + 1].tobytes() == column.tobytes()
    scale = np.abs(dense).max()
    assert np.abs(a[b:, b:] - dense[b:, b:]).max(initial=0.0) <= 1e-11 * scale
    assert np.array_equal(op.diagonal(), np.diag(a))
    v = np.random.default_rng(n).standard_normal(n)
    assert np.abs(op.matvec(v) - dense @ v).max() <= 1e-11 * scale * np.abs(v).sum()
    # the tail alone, on the uniform grid of its size, answers the same
    # protocol; a product before the scaling must not outlive it
    top = uniform_toeplitz(n, beta)
    assert isinstance(top, kinds)
    top.matvec(v)
    uniform = uniform_grid(n)
    ref = assemble_matrix(uniform, FdeProblem(beta, 0.5)).entries / uniform.steps[:-1][:, None]
    top.scale_rows(uniform.steps[:-1])
    scale = np.abs(ref).max()
    assert np.abs(top.to_dense() - ref).max() <= 1e-11 * scale
    assert np.abs(top.matvec(v) - ref @ v).max() <= 1e-11 * scale * np.abs(v).sum()


class TestRhs:
    def test_zero_problem(self):
        grid = uniform_grid(9)
        b = assemble_rhs(grid, FdeProblem(beta=0.5, gamma=0.5))
        assert np.array_equal(b, np.zeros(9))

    def test_unit_source_uniform(self):
        n = 9
        grid = uniform_grid(n)
        b = assemble_rhs(grid, FdeProblem(beta=0.5, gamma=0.5, source=lambda x: np.ones_like(x)))
        assert np.allclose(b, 1.0 / (n + 1), rtol=0, atol=1e-15)

    def test_laplacian_boundary_terms(self):
        n = 9
        h = 1.0 / (n + 1)
        grid = uniform_grid(n)
        b = assemble_rhs(grid, FdeProblem(beta=0.0, gamma=0.5, u_left=2.0, u_right=3.0))
        assert b[0] == pytest.approx(2.0 / h, rel=1e-12)
        assert b[-1] == pytest.approx(3.0 / h, rel=1e-12)
        assert np.abs(b[1:-1]).max() <= 1e-12 / h

    @pytest.mark.parametrize(
        "grid,tol",
        [
            (uniform_grid(24), 1e-13),
            (graded_grid(20, blend_coefficients(2.0, 1.0, 0.0)), 1e-12),
            # first step 1e-4: the far midpoints' powers cancel in e_0
            (graded_grid(20, blend_coefficients(3.0, 0.2, 0.05)), 1e-11),
            (composite_grid_from_counts(5, 20), 1e-12),
        ],
        ids=["uniform", "graded", "graded-q3", "composite"],
    )
    def test_boundary_terms_match_the_half_hat_fluxes(self, grid, tol):
        for beta in (0.3, 0.8):
            for gamma in (0.0, 0.3, 1.0):
                for k in (lambda x: np.ones_like(x), lambda x: 1.0 + 0.5 * np.asarray(x)):
                    problem = FdeProblem(beta=beta, gamma=gamma, diffusion=k, u_left=0.7, u_right=1.3)
                    ref, scale = mpmath_boundary_rhs(grid, beta, gamma, 0.7, 1.3, k)
                    err = np.abs(assemble_rhs(grid, problem) - ref) / scale
                    assert err.max() <= tol, (beta, gamma)

    def test_single_interior_point(self):
        grid = uniform_grid(1)
        b = assemble_rhs(grid, FdeProblem(beta=0.4, gamma=0.3, u_left=1.0, u_right=2.0))
        assert b.shape == (1,) and np.isfinite(b[0])

    @pytest.mark.parametrize(
        "beta,grid",
        [
            # graded eps6 at the capped exponent, first step 1e-16
            (0.8, bench.build_case_grid(bench.MeshSpec("graded"), 0.8, 127)),
            (0.9, composite_grid_from_counts(32, 1024)),
        ],
        ids=["graded", "composite"],
    )
    def test_benchmark_load_matches_control_volume_integrals(self, beta, grid):
        """The load is the integral of the source over each control volume;
        sampling ``f(x_i) * (h_i + h_{i+1}) / 2`` misses the first volume of
        the graded grid by a factor of about 18."""
        mpmath = pytest.importorskip("mpmath")
        gamma = 0.5
        source = bench.source_term(beta, gamma)
        b = assemble_rhs(grid, FdeProblem(beta=beta, gamma=gamma, source=source))

        z = 0.5 * (grid.points[:-1] + grid.points[1:])
        with mpmath.workdps(30):
            c = (1 - mpmath.mpf(gamma)) * (1 - mpmath.mpf(beta)) / mpmath.gamma(beta)
            f = lambda y: c / (y * (1 - y) ** (1 - mpmath.mpf(beta)))
            ref = np.array(
                [
                    float(mpmath.quad(f, [z[i - 1], grid.points[i], z[i]]))
                    for i in range(1, grid.n + 1)
                ]
            )
        np.testing.assert_allclose(b, ref, rtol=1e-12, atol=0.0)

    def test_nonfinite_source_rejected(self):
        grid = uniform_grid(5)
        def bad(x):
            with np.errstate(divide="ignore"):  # the infinite value is the point
                return 1.0 / (np.asarray(x) - x[2])

        with pytest.raises(AssemblyError):
            assemble_rhs(grid, FdeProblem(beta=0.5, gamma=0.5, source=bad))


class TestSystemAndScaling:
    def test_auto_picks_toeplitz(self):
        for gamma in (0.5, 0.4):
            sys = assemble_system(uniform_grid(16), FdeProblem(beta=0.5, gamma=gamma))
            assert isinstance(sys.operator, ToeplitzOperator)
            assert sys.operator.border == 0
        sys2 = assemble_system(uniform_grid(16), FdeProblem(0.5, 0.4, diffusion=lambda x: 1.0 + x))
        assert isinstance(sys2.operator, DenseOperator)

    def test_toeplitz_scaling_is_scalar(self):
        sys = assemble_system(uniform_grid(16), FdeProblem(beta=0.5, gamma=0.5))
        row, col = sys.operator.first_row, sys.operator.first_col
        scaled = row_scale(sys)
        assert isinstance(scaled.operator, ToeplitzOperator)
        assert scaled.operator.first_row == pytest.approx(17.0 * row)
        assert scaled.operator.first_col == pytest.approx(17.0 * col)
        assert scaled.scaled

    @pytest.mark.parametrize("kind", ["uniform", "composite"])
    def test_product_after_scaling_uses_the_scaled_tail(self, rng, kind):
        # the first product caches the tail's circulant FFT; scaling must not reuse it
        grid = bench.build_case_grid(bench.MeshSpec(kind, rule="sqrt" if kind == "composite" else None), 0.5, 255)
        system = assemble_system(grid, FdeProblem(beta=0.5, gamma=0.5))
        v = rng.standard_normal(grid.n)
        system.operator.matvec(v)
        op = row_scale(system).operator
        ref = op.to_dense() @ v
        assert np.abs(op.matvec(v) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dense_rows_divided(self):
        grid = graded_grid(16, blend_coefficients(3.0, 1.0, 0.0))
        prob = FdeProblem(beta=0.5, gamma=0.5, source=lambda x: np.ones_like(x))
        sys = assemble_system(grid, prob)
        entries, rhs = sys.operator.entries.copy(), sys.rhs.copy()
        scaled = row_scale(sys)
        h = grid.steps[:-1]
        assert np.allclose(scaled.operator.entries, entries / h[:, None])
        assert np.allclose(scaled.rhs, rhs / h)

    def test_dense_scaling_is_in_place(self):
        grid = graded_grid(16, blend_coefficients(3.0, 1.0, 0.0))
        sys = assemble_system(grid, FdeProblem(beta=0.5, gamma=0.5))
        entries = sys.operator.entries
        assert np.shares_memory(row_scale(sys).operator.entries, entries)

    def test_scaling_preserves_solution(self):
        grid = graded_grid(16, blend_coefficients(3.0, 1.0, 0.0))
        prob = FdeProblem(beta=0.5, gamma=0.5, source=lambda x: np.ones_like(x), u_right=1.0)
        sys = assemble_system(grid, prob)
        entries, rhs = sys.operator.entries.copy(), sys.rhs.copy()
        scaled = row_scale(sys)
        u1 = np.linalg.solve(entries, rhs)
        u2 = np.linalg.solve(scaled.operator.entries, scaled.rhs)
        assert np.abs(u1 - u2).max() <= 1e-10 * np.abs(u1).max()

    @pytest.mark.parametrize(
        "grid,gamma",
        [
            (uniform_grid(31), 0.5),
            (composite_grid(63, CompositeRule("sqrt")), 0.5),
            (graded_grid(31, blend_coefficients(3.0, 1.0, 0.0)), 0.5),
            (composite_grid(63, CompositeRule("sqrt")), 0.3),
        ],
        ids=["toeplitz", "bordered", "dense", "bordered-gamma"],
    )
    def test_operator_path_matches_the_scaled_system(self, grid, gamma):
        prob = FdeProblem(beta=0.5, gamma=gamma, source=lambda x: np.ones_like(x))
        via_system = row_scale(assemble_system(grid, prob)).operator
        alone = assemble_operator(grid, prob, scaled=True)
        assert type(alone) is type(via_system)
        assert np.array_equal(alone.to_dense(), via_system.to_dense())
        unscaled = assemble_operator(grid, prob)
        assert np.array_equal(unscaled.to_dense(), assemble_system(grid, prob).operator.to_dense())

    def test_double_scaling_refused(self):
        sys = assemble_system(uniform_grid(8), FdeProblem(beta=0.5, gamma=0.5))
        with pytest.raises(AssemblyError):
            row_scale(row_scale(sys))

    def test_problem_validation(self):
        with pytest.raises(AssemblyError):
            FdeProblem(beta=1.5, gamma=0.5)
        with pytest.raises(AssemblyError):
            FdeProblem(beta=0.5, gamma=-0.1)
        with pytest.raises(AssemblyError):
            assemble_matrix(uniform_grid(4), FdeProblem(beta=0.5, gamma=0.5, diffusion=-1.0))

    @pytest.mark.parametrize(
        "diffusion",
        [math.nan, math.inf, lambda x: np.where(np.abs(x - 0.5) < 0.05, math.nan, 1.0)],
        ids=["nan", "inf", "nan_at_one_midpoint"],
    )
    def test_non_finite_diffusion_is_refused(self, diffusion):
        grid = uniform_grid(4)  # midpoints 0.1, 0.3, ..., 0.9: one at 1/2
        # nonzero boundary values, so that the right-hand side reads K too
        problem = FdeProblem(beta=0.5, gamma=0.5, diffusion=diffusion, u_left=1.0, u_right=0.5)
        for assemble in (assemble_matrix, assemble_rhs):
            with pytest.raises(AssemblyError, match="positive and finite"):
                assemble(grid, problem)
