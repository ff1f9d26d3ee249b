import math
import tracemalloc
import typing

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from gradedfve import _memory
from gradedfve import assembly as asm
from gradedfve import bench
from gradedfve.assembly import (
    AssemblyError,
    DenseOperator,
    FdeProblem,
    FluxOperator,
    FveSystem,
    LinearOperator,
    assemble_matrix,
    assemble_operator,
    assemble_rhs,
    assemble_system,
    row_scale,
    uniform_toeplitz,
)
from gradedfve.multigrid import coarsen
from gradedfve.mesh import (
    Grid,
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
        "grid", [uniform_grid(31), composite_grid(31, "sqrt")], ids=["uniform", "sqrt"]
    )
    def test_matches_the_flux_formula_in_mpmath(self, grid):
        """Rounding only: every row within 1e-12 of its largest entry.

        Graded grids with a first step near 1e-16 (eps6 at the capped
        exponent) are not covered: there the powers ``|x_m - z_t|**beta``
        of far midpoints cancel in their differences, and the float matrix
        is 2 to 92% off this formula in some rows (ROADMAP item 2)."""
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

    FUSED_GRIDS = dict(GRIDS, sqrt255=composite_grid(255, "sqrt"))

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
        # circulant sizes 2n - 1 .. 2n, odd ones included, of the nonsymmetric
        # tails of uniform grids at gamma 0.3
        for n in range(1, 41):
            grid, problem = uniform_grid(n), FdeProblem(0.5, 0.3)
            op = FluxOperator(grid, problem)
            assert op.border == 0, n
            dense = assemble_matrix(grid, problem).entries
            a = op.to_dense()
            assert np.array_equal(a, scipy.linalg.toeplitz(dense[:, 0], dense[0])), n
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
    assembly: the tail's first row and column, row and column ``b`` of the
    matrix, are the same arithmetic, the later tail rows repeat them, and
    the diagonal of the border is the kernel's bit for bit.  The border
    rows and columns, in flux form, hold the kernel's fluxes in their near
    blocks and at the far pieces shorter than 1e-10 (eps1 at beta 0.8
    starts with steps of 1e-16), and the cancellation-free flux formula at
    the others."""

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
        system = FveSystem(FluxOperator(grid, problem), assemble_rhs(grid, problem), grid, problem)
        b = system.operator.border
        assert b == 0 if name == "uniform" else 0 < b < n
        dense = assemble_matrix(grid, problem).entries
        column = dense[b:, b] / (grid.steps[b] if scaled else 1.0)  # the tail's one step
        if scaled:
            system = row_scale(system)
            dense /= grid.steps[:-1][:, None]
        op = system.operator
        a = op.to_dense()
        assert a[b, b:].tobytes() == dense[b, b:].tobytes()  # row b
        assert a[b:, b].tobytes() == column.tobytes()  # and column b
        assert op.diagonal()[:b].tobytes() == np.diag(dense)[:b].tobytes()
        ref = flux_form_reference(grid, problem, scaled, b, op.kernel.shape[0] if b else 0)
        for block in (np.s_[:b], np.s_[b:, :b]):
            assert np.abs(a[block] - ref[block]).max(initial=0.0) <= 1e-13 * np.abs(dense).max()
        tail = a[b:, b:]
        assert np.abs(tail - dense[b:, b:]).max() <= 1e-11 * np.abs(dense).max()
        assert np.array_equal(tail, scipy.linalg.toeplitz(tail[:, 0], tail[0]))
        v = rng.standard_normal(n)
        ref = a @ v
        assert np.abs(op.matvec(v) - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(op.diagonal()[b:], np.diag(a)[b:])

    def test_meshes_without_a_toeplitz_tail_stay_dense(self):
        sqrt = composite_grid(127, "sqrt")
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
        grid = composite_grid(130, "sqrt")
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


EPS6 = bench.MeshSpec("graded", eps1=1.0, eps2=0.0)

#: Blended meshes: a graded part joined to a uniform tail of equal steps
BLENDS = {
    "eps1": bench.MeshSpec("graded", eps1=0.1, eps2=0.05),
    "eps4": bench.MeshSpec("graded", eps1=0.45, eps2=0.05),
}


def cancellation_free_fluxes(grid, beta, gamma, kernel=None):
    """Piece fluxes ``Q`` with no difference of nearly equal powers: over
    piece ``k`` at distance ``a`` from ``z_t`` the difference of the powers
    at its ends is ``a**beta * expm1(beta * log1p(h_k / a))``; the split
    piece is the kernel's.  With a boolean ``kernel[i, k]`` over equations
    and pieces, the pairs it marks take the kernel's difference instead, as
    the flux form's near blocks and kernel columns do, and the result is the
    pair of the fluxes at the two midpoints, ``i`` and ``i + 1``, of each
    equation ``i``.  Filled 256 midpoints at a time."""
    x, h = grid.points, grid.steps
    z = 0.5 * (x[:-1] + x[1:])
    n = z.size - 1
    k = np.arange(n + 1)
    q = np.empty((n + 1, n + 1)) if kernel is None else (np.empty((n, n + 1)), np.empty((n, n + 1)))
    for t0 in range(0, n + 1, 256):
        t = np.arange(t0, min(t0 + 256, n + 1))[:, None]
        left = k < t
        a = np.where(left, z[t] - x[1:], x[:-1] - z[t])
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = a**beta * np.expm1(beta * np.log1p(h / a))
        w = np.abs(x - z[t]) ** beta
        r, tt = t[:, 0] - t0, t[:, 0]

        def fluxes(diff, rows):
            block = np.where(left, -gamma, gamma - 1.0)[rows] * diff / h
            block[np.arange(rows.size), tt[rows]] = -(
                gamma * w[rows, tt[rows]] + (1.0 - gamma) * w[rows, tt[rows] + 1]
            ) / h[tt[rows]]
            return block

        if kernel is None:
            q[t0 : t0 + r.size] = fluxes(diff, r)
            continue
        kern = np.where(left, -1.0, 1.0) * (w[:, 1:] - w[:, :-1])
        for out, rows, eqs in ((q[0], r[tt < n], tt[tt < n]), (q[1], r[tt > 0], tt[tt > 0] - 1)):
            out[eqs] = fluxes(np.where(kernel[eqs], kern[rows], diff[rows]), rows)
    return q


def near_pairs(n, b, kernel_pieces=0):
    """The (equation, piece) pairs that the flux form of border ``b`` (``b =
    n`` for the exponential-sum operator) reads from the kernel: the border
    in equal blocks of at most ``_SOE_BLOCK`` equations that end at ``b``,
    and one more block below it, each with the pieces from its guard of
    ``min(_SOE_GUARD, size)`` pieces before its first equation to the guard
    after its last, and the pieces shorter than the kernel step, ``0 ..
    kernel_pieces - 1``, everywhere."""
    blocks = -(-b // asm._SOE_BLOCK)
    size = -(-b // blocks)
    guard = min(asm._SOE_GUARD, size)
    i = np.arange(n)[:, None]
    start = np.where(i < b, i - (i - b) % size, np.where(i < b + size, b, n + 1 + size))
    k = np.arange(n + 1)
    return (k >= start - guard) & (k < start + size + guard) | (k < kernel_pieces)


def operator_of_fluxes(q, grid, problem, scaled):
    """The matrix of the piece fluxes ``q`` (or of the pair of them at each
    equation's two midpoints), as :func:`assemble_matrix` forms it."""
    x = grid.points
    kz = problem.diffusion_at(0.5 * (x[:-1] + x[1:]))[:, None]
    if isinstance(q, tuple):
        f_left, f_right = ((p[:, 1:] - p[:, :-1]) * k for p, k in zip(q, (kz[:-1], kz[1:])))
    else:
        f = (q[:, 1:] - q[:, :-1]) * kz
        f_left, f_right = f[:-1], f[1:]
    a = (f_left - f_right) / math.gamma(problem.beta + 1.0)
    return a / grid.steps[:-1][:, None] if scaled else a


def flux_form_reference(grid, problem, scaled, b, kernel_pieces=0):
    """The matrix of the flux form of border ``b``: the kernel's fluxes
    where it reads them (:func:`near_pairs`), the cancellation-free ones
    elsewhere."""
    mask = near_pairs(grid.n, b, kernel_pieces) if b else None
    q = cancellation_free_fluxes(grid, problem.beta, problem.gamma, mask)
    return operator_of_fluxes(q, grid, problem, scaled)


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
    soe_block=st.sampled_from([None, 2, 5]),
    border_block=st.sampled_from([None, 2, 3]),
    soe_guard=st.sampled_from([None, 1, 2]),
)
# eps4's border of 41 has five pieces below the kernel step, the last of
# them far right of the first block of 2
@example(mesh="eps4", n=80, beta=0.9, gamma=0.3, variable=False, scaled=False, soe_block=None,
         border_block=2, soe_guard=None)
def test_every_operator_kind_agrees_with_the_dense_assembly(
    mesh, n, beta, gamma, variable, scaled, soe_block, border_block, soe_guard
):
    """Every operator kind answers one protocol, and each answers it with
    the dense assembly: the diagonal bit for bit, and so the first row and
    column of a Toeplitz tail, the rest of the tail to 1e-11 of max|A|.  The
    kind follows from the grid, K and the size alone: Toeplitz exactly when
    K is constant and the grid has a uniform tail, whatever gamma; otherwise
    the exponential sum from ``_SOE_MIN_N`` unknowns on (lowered here to 9,
    with blocks of ``soe_block`` equations), and dense below
    ``_DENSE_BELOW`` unknowns (lowered here to 0).  The flux form of both, the
    whole exponential-sum operator and the border of a Toeplitz operator
    (with blocks of ``border_block`` equations, so that these sizes get a
    far field, and guards of ``soe_guard`` pieces, narrower than a block),
    is within 1e-11 of max|A| of the flux formula with the
    kernel's fluxes where it reads them and none of its cancellation
    elsewhere."""
    kinds = typing.get_args(LinearOperator)
    grid = bench.build_case_grid(PROPERTY_MESHES[mesh], beta, n)
    problem = FdeProblem(beta, gamma, diffusion=(lambda x: 1.0 + x) if variable else 1.0)
    toeplitz = not variable and asm._tail_start(grid) < n
    block = border_block if toeplitz else soe_block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asm, "_DENSE_BELOW", 0)
        if soe_block is not None:
            patch.setattr(asm, "_SOE_MIN_N", 9)
        if block is not None:
            patch.setattr(asm, "_SOE_BLOCK", block)
        if soe_guard is not None:
            patch.setattr(asm, "_SOE_GUARD", soe_guard)
        op = assemble_operator(grid, problem, scaled=scaled)
        assert isinstance(op, kinds) and op.shape == (n, n)
        soe = soe_block is not None and not toeplitz
        assert isinstance(op, FluxOperator) == (toeplitz or soe)
        b = op.border if toeplitz or soe else n
        assert (b < n) == toeplitz  # a border of N: no tail
        if toeplitz and block is not None and 0 < b < n - -(-b // -(-b // block)):
            assert op.left  # the tail beyond the border's blocks is far
        swept = soe or (toeplitz and b > 0)
        kernel_pieces = op.kernel.shape[0] if swept else 0
        ref = flux_form_reference(grid, problem, scaled, b, kernel_pieces) if swept else None
    dense = assemble_matrix(grid, problem).entries
    # scaling divides the tail by one step, that of its first row
    column = dense[b:, b : b + 1] / (grid.steps[b] if scaled else 1.0)
    if scaled:
        dense /= grid.steps[:-1][:, None]
    a = op.to_dense()
    scale = np.abs(dense).max()
    assert op.diagonal()[:b].tobytes() == np.diag(dense)[:b].tobytes()
    if toeplitz:
        assert a[b, b:].tobytes() == dense[b, b:].tobytes()
        assert a[b:, b : b + 1].tobytes() == column.tobytes()
        assert np.abs(a[b:, b:] - dense[b:, b:]).max(initial=0.0) <= 1e-11 * scale
        assert np.array_equal(op.diagonal()[b:], np.diag(a)[b:])
    if swept:
        # far entries of the dense kernel cancel (ROADMAP item 2), so the sum
        # is held to the flux formula with none, its near field the kernel's
        for part in (np.s_[:b], np.s_[b:, :b]):
            assert np.abs(a[part] - ref[part]).max(initial=0.0) <= 1e-11 * scale
            dense[part] = ref[part]
    else:
        assert a[:b].tobytes() == dense[:b].tobytes()
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


@settings(max_examples=100, deadline=None)
@given(
    mesh=st.sampled_from(list(PROPERTY_MESHES)),
    n=st.integers(9, 80),
    grid_beta=st.floats(0.05, 0.95),  # the grading exponent's beta
    gamma=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    variable=st.booleans(),
)
def test_beta_zero_is_the_finite_volume_laplacian(mesh, n, grid_beta, gamma, variable):
    """At beta = 0 the operator (Toeplitz on a grid with a tail and constant
    K, dense otherwise), on every grid of the property test, is the
    three-point finite-volume Laplacian whatever gamma: row ``i`` (node
    ``i + 1``, between the pieces ``i`` and ``i + 1``) is ``-(K(z_{i+1})
    (u_{i+2} - u_{i+1}) / h_{i+1} - K(z_i) (u_{i+1} - u_i) / h_i)``, ``z_k``
    and ``h_k`` the midpoint and length of piece ``k``.  The Toeplitz tail
    reads one step for all its rows, whose rounding sets the difference: at
    most 7.2e-15 of max|L| over n = 9 .. 80 on eps1 and eps4."""
    grid = bench.build_case_grid(PROPERTY_MESHES[mesh], grid_beta, n)
    problem = FdeProblem(0.0, gamma, diffusion=(lambda x: 1.0 + x) if variable else 2.5)
    x = grid.points
    flux = problem.diffusion_at(0.5 * (x[:-1] + x[1:])) / grid.steps  # K(z_k) / h_k
    lap = np.diag(flux[:-1] + flux[1:]) - np.diag(flux[1:-1], 1) - np.diag(flux[1:-1], -1)
    a = assemble_operator(grid, problem).to_dense()
    assert np.abs(a - lap).max() <= 1e-14 * np.abs(lap).max()


def far_entries_in_mpmath(op, grid, beta, gamma, entries):
    """Check row-scaled entries ``(i, j)`` of ``op`` within 1e-10 of
    themselves against the flux formula in 40-digit mpmath; each column
    takes one product."""
    mpmath = pytest.importorskip("mpmath")
    z = 0.5 * (grid.points[:-1] + grid.points[1:])
    columns = {j: op.matvec(np.eye(grid.n)[j]) for j in {j for _, j in entries}}
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in grid.points]
        be, ga = mpmath.mpf(beta), mpmath.mpf(gamma)

        def q(t, k):  # the piece flux Q[t, k] of a piece off the midpoint
            zt = mpmath.mpf(float(z[t]))
            diff = (abs(x[k + 1] - zt) ** be - abs(x[k] - zt) ** be) / (x[k + 1] - x[k])
            return (ga if k < t else ga - 1) * diff

        for i, j in entries:
            f = [q(t, j + 1) - q(t, j) for t in (i, i + 1)]  # hat fluxes of node j + 1
            want = (f[0] - f[1]) / mpmath.gamma(be + 1) / (x[i + 1] - x[i])
            assert abs(columns[j][i] - want) <= 1e-10 * abs(want), (i, j)


class TestSoeOperator:
    """The exponential-sum operator on the pure power mesh, whose steps span
    the most orders of magnitude, against the flux formula evaluated with no
    cancellation."""

    @pytest.mark.parametrize("beta", [0.2, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    # at N = 255 the module's blocks of 128 would leave no far field
    @pytest.mark.parametrize("n,block", [(255, 32), (1023, asm._SOE_BLOCK), (2047, asm._SOE_BLOCK)])
    def test_matches_the_cancellation_free_operator(self, monkeypatch, rng, n, block, gamma, beta):
        """Within 1e-11 of ``max(|A_ref| |v|)``, ``A_ref`` free of
        cancellation; and, with the near field's kernel entries put into the
        reference, within 1e-12 of ``|A_ref| |v|`` row by row, which leaves
        the exponential sum alone to be measured.  The diagonal is the dense
        assembly's, bit for bit."""
        monkeypatch.setattr(asm, "_SOE_BLOCK", block)
        grid = bench.build_case_grid(EPS6, beta, n)
        v = rng.standard_normal(n)
        q_ref = cancellation_free_fluxes(grid, beta, gamma)
        q_far = cancellation_free_fluxes(grid, beta, gamma, near_pairs(n, n))
        for diffusion in (1.0, lambda x: 1.0 + x * x):
            problem = FdeProblem(beta, gamma, diffusion=diffusion)
            diag = np.diag(assemble_matrix(grid, problem).entries)
            for scaled in (False, True):
                op = FluxOperator(grid, problem)
                if scaled:
                    op.scale_rows(grid.steps[:-1])
                got = op.matvec(v)
                ref = operator_of_fluxes(q_ref, grid, problem, scaled)
                assert np.abs(got - ref @ v).max() <= 1e-11 * (np.abs(ref) @ np.abs(v)).max()
                ref = operator_of_fluxes(q_far, grid, problem, scaled)
                assert np.all(np.abs(got - ref @ v) <= 1e-12 * (np.abs(ref) @ np.abs(v)))
                want = diag / grid.steps[:-1] if scaled else diag
                assert op.diagonal().tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [16, 32])
    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_far_field_on_steps_in_random_order(self, monkeypatch, rng, block, beta):
        """Steps spanning six orders of magnitude in random order make the
        far gaps rise and fall, so the terms kept per block do too: a term
        dropped at one block and kept at the next resumes from a stale
        state that must stay negligible."""
        monkeypatch.setattr(asm, "_SOE_BLOCK", block)
        x = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-6.0, 0.0, 1024))))
        x /= x[-1]
        x[-1] = 1.0
        grid = Grid(x)
        problem = FdeProblem(beta, 0.3)
        op = FluxOperator(grid, problem)
        kept = [tables[6].size for tables in op.left]
        assert any(b > a for a, b in zip(kept, kept[1:]))
        v = rng.standard_normal(grid.n)
        ref = flux_form_reference(grid, problem, False, grid.n)
        assert np.all(np.abs(op.matvec(v) - ref @ v) <= 1e-12 * (np.abs(ref) @ np.abs(v)))

    @pytest.mark.parametrize("beta", [0.5, 0.8])
    def test_far_entries_match_the_flux_formula_in_mpmath(self, beta):
        """Row-scaled far entries within 1e-10 of themselves against the
        flux formula in 40-digit mpmath, in the rows next to x = 0, whose
        steps reach 1e-16 at the capped exponent: there the two midpoints of
        an equation are so close that their far fluxes differ in few of
        their digits, and an equation reads that difference in the sweep.
        The operator that took it of the two sums was off by 1.4e-2 at beta
        0.8 (entry (1, 1024)) and 8.6e-9 at beta 0.5."""
        grid = bench.build_case_grid(EPS6, beta, 1025)
        op = FluxOperator(grid, FdeProblem(beta, 0.3)).scale_rows(grid.steps[:-1])
        entries = [(i, j) for i in (0, 1, 2, 10) for j in (400, 700, 1024)]
        far_entries_in_mpmath(op, grid, beta, 0.3, entries)

    def test_the_near_field_is_a_block_and_two_guards_wide(self):
        """eps6 at N = 4095: blocks of 128 equations, each reading 32 pieces
        on either side from the kernel (three blocks wide, 12.6 MB, when
        each kept a whole block on each side)."""
        grid = bench.build_case_grid(EPS6, 0.5, 4095)
        op = FluxOperator(grid, FdeProblem(0.5, 0.5))
        assert op.near.shape[2] == 128 + 2 * 32
        assert op.near.nbytes <= 6.3e6

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("mesh", ["eps6", "eps1", "eps4", "sqrt"])
    def test_the_memory_guard_counts_the_build(self, monkeypatch, mesh, beta):
        """The bytes the operator asks of the memory guard are 0.9-1.25 of
        the build's traced peak at N = 4095."""
        asked = {}
        monkeypatch.setattr(asm, "require_memory", lambda need, what, error: asked.setdefault(what, need))
        grid = bench.build_case_grid(PROPERTY_MESHES[mesh], beta, 4095)
        tracemalloc.start()
        try:
            FluxOperator(grid, FdeProblem(beta, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.9 <= peak / asked["an exponential-sum operator at N = 4095"] <= 1.25

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.95])
    def test_exponential_sum_matches_the_kernel(self, beta):
        r = np.geomspace(1e-10, 1.0, 2001)
        s, w = asm._soe_nodes(beta, 1e-10)
        assert np.all(np.diff(s) > 0)
        approx = np.exp(-np.outer(r, s)) @ w
        assert np.abs(approx / r ** (beta - 1.0) - 1.0).max() <= 5e-13

    @pytest.mark.parametrize(
        "grid,beta,diffusion,kind",
        [
            (graded_grid(1023, blend_coefficients(3.0, 1.0, 0.0)), 0.5, 1.0, "dense"),
            (graded_grid(1025, blend_coefficients(3.0, 1.0, 0.0)), 0.5, 1.0, "no tail"),
            (graded_grid(1025, blend_coefficients(3.0, 1.0, 0.0)), 0.0, 1.0, "dense"),
            (graded_grid(1025, blend_coefficients(3.0, 1.0, 0.0)), 1.0, 1.0, "dense"),
            (composite_grid(1025, "sqrt"), 0.5, 1.0, "tail"),
            (composite_grid(1025, "sqrt"), 0.5, lambda x: 1.0 + x, "no tail"),
            (bench.build_case_grid(BLENDS["eps1"], 0.8, 4095), 0.8, 1.0, "tail"),
            (bench.build_case_grid(BLENDS["eps4"], 0.5, 4095), 0.5, 1.0, "tail"),
        ],
        ids=["eps6-1023", "eps6-1025", "beta-0", "beta-1", "sqrt", "sqrt-variable-k", "eps1-4095",
             "eps4-4095"],
    )
    def test_the_kind_follows_from_the_grid_k_beta_and_size(self, grid, beta, diffusion, kind):
        op = assemble_operator(grid, FdeProblem(beta, 0.5, diffusion=diffusion))
        assert type(op) is (DenseOperator if kind == "dense" else FluxOperator)
        if kind != "dense":
            assert (op.border == grid.n) == (kind == "no tail")  # a border of N: no tail


class TestExponentialSumBorder:
    """The Toeplitz operator whose border is in flux form, its far field an
    exponential sum, on blended meshes at N = 1023 (borders of 154 and 512
    nodes), against the flux formula evaluated with no cancellation."""

    @pytest.mark.parametrize("beta", [0.2, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("mesh", list(BLENDS))
    def test_matches_the_cancellation_free_operator(self, rng, mesh, gamma, beta):
        """Within 1e-11 of ``max(|A_ref| |v|)``, ``A_ref`` free of
        cancellation; and within 1e-12 of ``|A_ref| |v|`` row by row when
        ``A_ref`` takes the kernel's entries wherever the operator does (the
        near blocks of the border and the Toeplitz tail of row and column
        ``b``), which leaves the exponential sum alone to be measured.  The
        diagonal is the kernel's bit for bit."""
        grid = bench.build_case_grid(BLENDS[mesh], beta, 1023)
        problem = FdeProblem(beta, gamma)
        q = cancellation_free_fluxes(grid, beta, gamma)
        dense = assemble_matrix(grid, problem).entries
        h = grid.steps[:-1]
        v = rng.standard_normal(grid.n)
        for scaled in (False, True):
            op = assemble_operator(grid, problem, scaled=scaled)
            assert op.kernel.shape[0] == 0  # no step below 1e-10
            b = op.border
            got = op.matvec(v)
            ref = operator_of_fluxes(q, grid, problem, scaled)
            assert np.abs(got - ref @ v).max() <= 1e-11 * (np.abs(ref) @ np.abs(v)).max()
            near = flux_form_reference(grid, problem, scaled, b)
            tail = scipy.linalg.toeplitz(dense[b:, b], dense[b, b:])
            near[b:, b:] = tail / h[b] if scaled else tail
            assert np.all(np.abs(got - near @ v) <= 1e-12 * (np.abs(near) @ np.abs(v)))
            want = np.diag(dense) / h if scaled else np.diag(dense)
            assert op.diagonal()[:b].tobytes() == want[:b].tobytes()
            assert op.diagonal()[b:].tobytes() == np.diag(near)[b:].tobytes()

    @pytest.mark.parametrize("mesh", list(BLENDS))
    def test_keeps_the_kernel_solution_where_the_kernel_cancels(self, mesh):
        """eps4 and eps1 at beta 0.8, N = 1023, start with steps of 1e-16,
        and the kernel's cancellation in their far columns sets the
        solution's error (ROADMAP item 2).  The border keeps the kernel's
        fluxes of those pieces wherever they are far, so a direct solve with
        it reads the dense matrix's nodal error to 4 digits (measured: eps4
        3.82398e-4 both, 2.5e-7 apart; eps1 1.97838e-3 both; with them
        summed too, eps4 read 6.57e-4)."""
        grid = bench.build_case_grid(BLENDS[mesh], 0.8, 1023)
        problem = bench.make_problem(0.8, 0.5)
        op = assemble_operator(grid, problem)
        assert op.kernel.shape[0] > 0
        rhs = assemble_rhs(grid, problem)
        exact = bench.exact_solution(0.8, grid.points[1:-1])
        errors = [
            np.abs(np.linalg.solve(a, rhs) - exact).max()
            for a in (op.to_dense(), assemble_matrix(grid, problem).entries)
        ]
        assert errors[0] == pytest.approx(errors[1], rel=1e-4)

    @pytest.mark.parametrize("beta,gamma", [(0.2, 0.3), (0.8, 0.3), (0.95, 0.5)])
    def test_far_entries_match_the_flux_formula_in_mpmath(self, beta, gamma):
        """Row-scaled far entries within 1e-10 of themselves against the
        flux formula in 40-digit mpmath (measured: at most 1e-11), in the
        rows next to x = 0, whose steps reach 1e-16 at the capped exponent:
        there the row difference of the flux formula cancels in float64
        even free of the powers' cancellation, and the dense kernel is off
        by up to 5e5 of an entry at beta = 0.8.  The columns from ``c``
        on are beyond every border row's near block, and the rows from
        ``c`` on are the tail's far block."""
        grid = bench.build_case_grid(BLENDS["eps1"], beta, 1023)
        op = assemble_operator(grid, FdeProblem(beta, gamma), scaled=True)
        b, n = op.border, grid.n
        c = b + 2 * -(-b // -(-b // asm._SOE_BLOCK))  # two blocks below the border
        rows, cols = (0, 1, 2, b // 2, b - 1), (c, c + 1, (c + n) // 2, n - 1)
        entries = [(i, j) for i in rows for j in cols]
        entries += [(i, j) for i in (c, (c + n) // 2, n - 1) for j in (b - 2, b - 1)]
        far_entries_in_mpmath(op, grid, beta, gamma, entries)


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


# (mesh, constant diffusion): every mesh but eps6 has a uniform tail
KIND_MESHES = {
    **{name: (spec, True) for name, spec in PROPERTY_MESHES.items()},
    "eps6-variable-K": (PROPERTY_MESHES["eps6"], False),
}


class TestSystemAndScaling:
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("n", [127, 128, 1023, 1024])
    @pytest.mark.parametrize("name", list(KIND_MESHES))
    def test_auto_picks_toeplitz(self, name, n, beta):
        # one rule: dense below 128 unknowns; from there a Toeplitz tail
        # where the grid has one (with constant K), the exponential sum
        # from 1024 where it has none and 0 < beta < 1, and dense otherwise
        spec, constant = KIND_MESHES[name]
        grid = bench.build_case_grid(spec, 0.5, n)  # graded for beta 0.5
        tail = constant and asm._tail_start(grid) < n
        assert tail == (name not in ("eps6", "eps6-variable-K"))
        problem = FdeProblem(beta, 0.4, diffusion=1.0 if constant else lambda x: 1.0 + x)
        op = assemble_operator(grid, problem)
        dense = n < 128 or (not tail and (n < 1024 or beta == 1.0))
        assert isinstance(op, DenseOperator if dense else FluxOperator)
        if not dense:
            assert (op.border < n) == tail  # a border of N: no tail

    def test_toeplitz_scaling_is_scalar(self):
        grid, problem = uniform_grid(16), FdeProblem(beta=0.5, gamma=0.5)
        sys = FveSystem(FluxOperator(grid, problem), assemble_rhs(grid, problem), grid, problem)
        row, col = sys.operator.first_row, sys.operator.first_col
        scaled = row_scale(sys)
        assert isinstance(scaled.operator, FluxOperator)
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
            (composite_grid(63, "sqrt"), 0.5),
            (graded_grid(31, blend_coefficients(3.0, 1.0, 0.0)), 0.5),
            (composite_grid(63, "sqrt"), 0.3),
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
