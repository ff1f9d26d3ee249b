import numpy as np
import pytest

from gradedfve import _memory, bench, krylov
from gradedfve.assembly import (
    DenseOperator,
    FdeProblem,
    FveSystem,
    assemble_matrix,
    assemble_rhs,
    assemble_system,
    row_scale,
)
from gradedfve.bench import CaseConfig, MeshSpec
from gradedfve.krylov import gmres
from gradedfve.mesh import blend_coefficients, composite_grid_from_counts, graded_grid, uniform_grid
from gradedfve.multigrid import build_hierarchy


def scaled_test_system(beta, gamma, grid):
    prob = bench.make_problem(beta, gamma)
    return row_scale(assemble_system(grid, prob)), prob


class TestBasics:
    def test_identity_converges_in_one_iteration(self, rng):
        b = rng.standard_normal(12)
        rep = gmres(DenseOperator(np.eye(12)), b)
        assert rep.converged and rep.iterations == 1
        assert np.abs(rep.solution - b).max() < 1e-12

    def test_zero_rhs(self):
        rep = gmres(DenseOperator(np.eye(4)), np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(rep.solution, np.zeros(4))

    def test_storage_beyond_physical_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(_memory, "physical_memory", lambda: 4 * 2**20)
        op = DenseOperator(np.eye(200))
        with pytest.raises(ValueError, match="physical memory"):
            gmres(op, np.ones(200), maxit=1000)  # 11.2 MB of Krylov storage
        assert gmres(op, np.ones(200), maxit=20).converged

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_a_growing_basis_changes_no_bit(self, monkeypatch, rng, rows):
        # 40 iterations grow the basis from ``rows`` vectors by doublings;
        # the iterates match those of a basis allocated whole
        a = rng.standard_normal((60, 60)) + 9 * np.eye(60)
        b = rng.standard_normal(60)
        monkeypatch.setattr(krylov, "_BASIS_ROWS", 41)
        whole = gmres(DenseOperator(a), b, tol=1e-15, maxit=40)
        monkeypatch.setattr(krylov, "_BASIS_ROWS", rows)
        grown = gmres(DenseOperator(a), b, tol=1e-15, maxit=40)
        assert whole.iterations == grown.iterations == 40
        assert grown.solution.tobytes() == whole.solution.tobytes()
        assert grown.residual_history.tobytes() == whole.residual_history.tobytes()

    def test_matches_direct_solve(self, rng):
        a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        b = rng.standard_normal(20)
        rep = gmres(DenseOperator(a), b, tol=1e-12, maxit=40)
        assert rep.converged
        assert np.abs(rep.solution - np.linalg.solve(a, b)).max() < 1e-9

    def test_monotone_residual_history(self, rng):
        a = rng.standard_normal((30, 30)) + 8 * np.eye(30)
        b = rng.standard_normal(30)
        rep = gmres(DenseOperator(a), b, tol=1e-13, maxit=30)
        hist = rep.residual_history
        assert np.all(np.diff(hist) <= 1e-12)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_iterate_minimizes_the_preconditioned_residual(self, rng, k):
        # x_k minimizes ||M (b - A x)|| over the Krylov space of M A and M b
        n = 40
        a = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        m = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        rep = gmres(DenseOperator(a), b, precond=lambda r: m @ r, tol=1e-15, maxit=k)
        assert not rep.converged and rep.iterations == k
        basis = [m @ b]
        for _ in range(k - 1):
            w = m @ (a @ basis[-1])
            basis.append(w / np.linalg.norm(w))
        krylov = np.column_stack(basis)
        coef = np.linalg.lstsq(m @ a @ krylov, m @ b, rcond=None)[0]
        expected = krylov @ coef
        assert np.linalg.norm(rep.solution - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_maxit_respected_and_flagged(self, rng):
        # rotation-like spectrum makes unpreconditioned GMRES slow
        a = np.eye(40) + np.diag(np.ones(39), 1) * 2.0
        a[-1, 0] = 2.0
        b = rng.standard_normal(40)
        rep = gmres(DenseOperator(a), b, tol=1e-15, maxit=5)
        assert not rep.converged
        assert rep.iterations == 5
        assert len(rep.residual_history) == 5


class TestBreakdown:
    """Arnoldi breakdowns on A = I, forced by singular preconditioners."""

    @pytest.mark.parametrize(
        "m,b,history",
        [
            # M b = e1 and M e1 = 0: the first step has nothing to rotate
            (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]), [1.0]),
            # M shifts e3 -> e2 -> e1 -> 0: the second step breaks down and
            # the first iterate, x = 0, stands
            (np.diag([1.0, 1.0], 1), np.array([0.0, 0.0, 1.0]), [1.0, 1.0]),
        ],
        ids=["first-step", "previous-iterate"],
    )
    def test_rotation_breakdown_returns_zero(self, m, b, history):
        rep = gmres(DenseOperator(np.eye(b.size)), b, precond=lambda r: m @ r)
        assert rep.breakdown and not rep.converged
        assert rep.iterations == len(history)
        assert rep.residual_history.tolist() == history
        assert np.array_equal(rep.solution, np.zeros(b.size))

    def test_happy_breakdown_short_of_the_tolerance(self):
        # M = diag(1, 0) keeps the Krylov space at span(e1)
        m = np.diag([1.0, 0.0])
        rep = gmres(DenseOperator(np.eye(2)), np.ones(2), precond=lambda r: m @ r)
        assert rep.breakdown and not rep.converged and rep.iterations == 1
        assert rep.residual_history[0] == pytest.approx(2**-0.5, rel=1e-15)
        assert np.array_equal(rep.solution, [1.0, 0.0])


class TestOnFveSystems:
    def test_laplacian_limit_matches_tridiagonal_solve(self):
        n = 2**6 - 1
        grid = uniform_grid(n)
        prob = FdeProblem(beta=0.0, gamma=0.5, source=lambda x: np.sin(np.pi * x))
        # dense on purpose: the uniform balanced case would get the Toeplitz path
        dense = FveSystem(assemble_matrix(grid, prob), assemble_rhs(grid, prob), grid, prob)
        system = row_scale(dense)
        rep = gmres(system.operator, system.rhs, tol=1e-12, maxit=n)
        direct = np.linalg.solve(system.operator.entries, system.rhs)
        assert rep.converged
        assert np.linalg.norm(rep.solution - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_preconditioned_matches_unpreconditioned(self):
        n = 2**5 - 1
        grid = graded_grid(n, blend_coefficients(3.0, 1.0, 0.0))
        system, prob = scaled_test_system(0.5, 0.5, grid)
        plain = gmres(system.operator, system.rhs, tol=1e-7, maxit=100)
        hier = build_hierarchy(system)
        pre = gmres(system.operator, system.rhs, precond=hier.apply, tol=1e-7, maxit=100)
        assert plain.converged and pre.converged
        diff = np.linalg.norm(plain.solution - pre.solution)
        assert diff <= 10 * 1e-7 * np.linalg.norm(plain.solution)

    def test_reference_iteration_count_graded(self):
        # graded mesh case with a reference count of 9 (tolerance +-2)
        res = bench.run_case(
            CaseConfig(0.5, 0.5, MeshSpec("graded", eps1=0.2, eps2=0.05), 2**7 - 1)
        )
        assert res.converged
        assert abs(res.it - 9) <= 2

    def test_reference_iteration_count_composite(self):
        res = bench.run_case(
            CaseConfig(0.9, 0.5, MeshSpec("composite", n1=2**5), 2**5 + 2**10)
        )
        assert res.converged
        assert abs(res.it - 8) <= 2

    def test_nonconvergence_flagged_not_raised(self):
        grid = graded_grid(2**6 - 1, blend_coefficients(17 / 3, 1.0, 0.0))
        system, prob = scaled_test_system(0.7, 1.0, grid)
        hier = build_hierarchy(system)
        rep = gmres(system.operator, system.rhs, precond=hier.apply, tol=1e-7, maxit=20)
        assert not rep.converged
        assert rep.iterations == 20

    def test_reported_residual_is_the_true_residual_at_the_floor(self):
        # gamma = 1, beta = 0.7 on eps6 stagnates at the attainable-accuracy
        # floor (acceptance criterion 4 expects '-'); the recurrence residual
        # of (A V) y would keep falling there, the true residual does not
        grid = bench.build_case_grid(MeshSpec("graded", eps1=1.0, eps2=0.0), 0.7, 2**7 - 1)
        system, _ = scaled_test_system(0.7, 1.0, grid)
        hier = build_hierarchy(system)
        rep = gmres(system.operator, system.rhs, precond=hier.apply, tol=1e-7, maxit=100)
        assert not rep.converged
        b = system.rhs
        true_res = np.linalg.norm(b - system.operator.entries @ rep.solution) / np.linalg.norm(b)
        assert rep.residual_history[-1] == pytest.approx(true_res, rel=1e-12)
