import dataclasses
import io
import itertools
import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from gradedfve import _memory, bench, multigrid
from gradedfve.assembly import FdeProblem, assemble_operator
from gradedfve.bench import CaseConfig, MeshSpec
from gradedfve.cli import main as cli_main
from gradedfve.mesh import q_cap, q_for_beta

# a size whose dense matrix (0.52 MB) fits a patched physical memory of 1.5x
# the matrix, while the matrix and the copy a direct solve factors do not
DIRECT_N = 255


def table_csv(t: bench.TableResult) -> str:
    buf = io.StringIO()
    bench.write_csv(buf, t.columns, t.rows)
    return buf.getvalue()


class TestProblemSetup:
    def test_exact_solution_boundaries(self):
        assert bench.exact_solution(0.3, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]

    def test_source_matches_formula(self):
        f = bench.source_term(0.4, 0.3)
        x = 0.25
        ref = (1 - 0.3) * (1 - 0.4) / (math.gamma(0.4) * x * (1 - x) ** 0.6)
        assert f(np.array([x]))[0] == pytest.approx(ref, rel=1e-14)

    def test_mesh_spec_validation(self):
        with pytest.raises(ValueError):
            MeshSpec("weird")
        with pytest.raises(ValueError):
            MeshSpec("composite")
        with pytest.raises(ValueError):
            CaseConfig(0.5, 0.5, MeshSpec("uniform"), 15, solver="lu")


    def test_mesh_spec_counts_validation(self):
        with pytest.raises(ValueError, match="exactly one of rule and n1"):
            MeshSpec("composite", n1=8, rule="sqrt")
        for n1 in (0, 8):
            with pytest.raises(ValueError, match="1 <= n1 < n"):
                CaseConfig(0.5, 0.5, MeshSpec("composite", n1=n1), 8)
        with pytest.raises(ValueError):
            CaseConfig(0.5, 0.5, MeshSpec("uniform"), 0)

    @pytest.mark.parametrize(
        "kwargs,unread",
        [
            (dict(kind="uniform", q=3.0, eps1=0.3, rule="sqrt", n1=4), "q, eps1, rule, n1"),
            (dict(kind="graded", rule="log2"), "rule"),
            (dict(kind="composite", n1=3, eps2=0.05), "eps2"),
        ],
    )
    def test_mesh_spec_rejects_fields_its_kind_does_not_read(self, kwargs, unread):
        with pytest.raises(ValueError, match=f"mesh does not read {unread}$"):
            MeshSpec(**kwargs)

    @pytest.mark.parametrize(
        "spec",
        [
            MeshSpec("uniform"),
            MeshSpec("graded", eps1=0.1, eps2=0.05),
            MeshSpec("composite", rule="sqrt"),
            MeshSpec("composite", n1=5),
        ],
        ids=["uniform", "eps1", "sqrt", "counts"],
    )
    def test_refined_grid_contains_the_case_grid(self, spec):
        grid = bench.build_case_grid(spec, 0.7, 45)
        fine = spec.refined(0.7, 45)
        assert fine.n > grid.n
        assert np.isin(grid.points, fine.points).all()

    def test_explicit_q_above_the_cap_is_refused(self):
        # q_cap(45) = 9.623: an explicit q at the cap is honoured, one above it refused
        spec = MeshSpec("graded", q=q_cap(45))
        assert spec.coefficients(0.7, 45).q == q_cap(45)
        for build in (bench.build_case_grid, lambda s, b, n: s.refined(b, n)):
            with pytest.raises(ValueError, match=r"q = 30 exceeds the cap 9\.623 at n = 45"):
                build(MeshSpec("graded", q=30.0), 0.7, 45)


class TestRunCase:
    def test_direct_and_pgmres_agree(self):
        spec = MeshSpec("graded", eps1=1.0, eps2=0.0)
        direct = bench.run_case(CaseConfig(0.5, 0.5, spec, 63, "direct"))
        pg = bench.run_case(CaseConfig(0.5, 0.5, spec, 63, "pgmres"))
        assert direct.it is None and direct.converged
        assert pg.converged and pg.it and pg.it <= 15
        assert pg.e_inf == pytest.approx(direct.e_inf, rel=1e-3)
        assert direct.e_rel > 0 and np.isfinite(direct.e_rel)
        assert direct.e_inf >= direct.e_inf_nodes

    def test_uniform_and_composite_cases(self):
        uni = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("uniform"), 63, "direct"))
        comp = bench.run_case(
            CaseConfig(0.5, 0.5, MeshSpec("composite", rule="sqrt"), 63, "direct")
        )
        assert uni.e_inf > 0 and comp.e_inf > 0

    def test_convergence_order_near_one_plus_beta(self):
        # graded meshes recover order 1 + beta for beta = 0.2
        spec = MeshSpec("graded", eps1=1.0, eps2=0.0)
        errs = [
            bench.run_case(CaseConfig(0.2, 0.5, spec, 2**k - 1, "direct")).e_inf
            for k in (6, 7, 8)
        ]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(1.1 <= o <= 1.3 for o in orders)

    def test_relative_error_contract(self):
        # e_rel is the nodal discrete 2-norm ratio; recompute independently
        from gradedfve.assembly import assemble_system
        from gradedfve.mesh import blend_coefficients, graded_grid

        spec = MeshSpec("graded", eps1=1.0, eps2=0.0)
        res = bench.run_case(CaseConfig(0.5, 0.5, spec, 63, "direct"))
        grid = graded_grid(63, blend_coefficients(3.0, 1.0, 0.0))
        system = assemble_system(grid, bench.make_problem(0.5, 0.5))
        u = np.linalg.solve(system.operator.to_dense(), system.rhs)
        xs = grid.points[1:-1]
        ue = xs**0.5
        ref = np.linalg.norm(u - ue) / np.linalg.norm(ue)
        assert res.e_rel == pytest.approx(ref, rel=1e-10)

    def test_pgmres_on_a_wide_border_holds_no_dense_coupling(self):
        # eps1 at N = 4095 has a border of 615 nodes: its dense coupling with
        # the tail alone is 37 MB on level 0 and the solve peaked at 54.5 MB;
        # with the border in flux form it peaks at 16.4 MB
        cfg = CaseConfig(0.8, 0.5, MeshSpec("graded", eps1=0.1, eps2=0.05), 2**12 - 1)
        tracemalloc.start()
        try:
            res = bench.run_case(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 25e6

    def test_a_half_border_holds_no_dense_rows(self):
        # eps4 at N = 8191 has a border of 4096 nodes: its dense rows alone
        # were 136 MB of an operator that peaked at 149.6 MB; in flux form
        # the operator peaks at 29.7 MB
        grid = bench.build_case_grid(MeshSpec("graded", eps1=0.45, eps2=0.05), 0.5, 2**13 - 1)
        tracemalloc.start()
        try:
            op = assemble_operator(grid, FdeProblem(0.5, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.border == 4096
        assert peak <= 60e6

    @pytest.mark.parametrize(
        "spec", [MeshSpec("uniform"), MeshSpec("composite", rule="sqrt")], ids=["uniform", "sqrt"]
    )
    def test_pgmres_on_a_uniform_tail_holds_no_dense_matrix(self, spec):
        # every level keeps only its graded border dense, the tail is Toeplitz
        n = 2**10 - 1
        tracemalloc.start()
        try:
            res = bench.run_case(CaseConfig(0.5, 0.5, spec, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 0.35 * 8 * n * n

    def test_asymmetric_case_on_a_uniform_tail_holds_no_dense_matrix(self):
        # gamma != 1/2 keeps the Toeplitz tail: a dense matrix here is 537 MB
        n = 2**13 - 1
        tracemalloc.start()
        try:
            res = bench.run_case(CaseConfig(0.5, 0.3, MeshSpec("composite", rule="sqrt"), n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and (res.it, res.omega, res.depth) == (12, 0.735, 11)
        assert peak <= 64e6

    def test_pgmres_on_a_pure_power_mesh_holds_no_dense_matrix(self):
        # above 1023 unknowns a mesh without a tail gets the matrix-free
        # exponential-sum operator, and every coarse level of 128 unknowns or
        # more is a scaled view of it, the levels below views of the dense
        # level of 127: a dense matrix here is 537 MB; the solve peaked at
        # 87.3 MB with its own operator on every level above 1023 unknowns,
        # 47.9 MB with views (the views of a dense finest matrix are
        # TestSelfSimilarLevels')
        cfg = CaseConfig(0.5, 0.5, MeshSpec("graded", eps1=1.0, eps2=0.0), 2**13 - 1)
        tracemalloc.start()
        try:
            res = bench.run_case(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and (res.it, res.omega, res.depth) == (13, 0.72, 11)
        assert res.reassembled == 1
        assert peak <= 60e6

    def test_hierarchy_is_reported(self):
        spec = MeshSpec("composite", rule="sqrt")
        res = bench.run_case(CaseConfig(0.5, 0.5, spec, 63))
        assert res.depth == 4  # 63 -> 31 -> 15 -> 7 -> 3
        assert 0.0 < res.omega < 2.0 and not res.omega_fallback
        assert res.reassembled == 4 and not res.breakdown
        power = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("graded", eps1=1.0, eps2=0.0), 63))
        assert power.depth == 4 and power.reassembled == 0
        direct = bench.run_case(CaseConfig(0.5, 0.5, spec, 63, "direct"))
        assert direct.depth is None and direct.omega is None and direct.reassembled is None

    def test_omega_fallback_is_recorded(self, monkeypatch):
        # a region left of nothing admits no weight
        monkeypatch.setattr(multigrid, "DEFAULT_REGION", multigrid.SmootherRegion(x_min=2.0, x_max=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback warning is recorded, not shown
            res = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("graded", eps1=1.0, eps2=0.0), 63))
        assert res.omega_fallback
        assert res.omega == multigrid.OMEGA_FALLBACK

    def test_other_hierarchy_warnings_are_not_hidden(self, monkeypatch):
        build = bench.build_hierarchy

        def noisy(system):
            warnings.warn("unrelated", RuntimeWarning)
            return build(system)

        monkeypatch.setattr(bench, "build_hierarchy", noisy)
        with pytest.warns(RuntimeWarning, match="unrelated"):
            res = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("uniform"), 15))
        assert not res.omega_fallback

    def test_breakdown_is_reported(self, monkeypatch, capsys):
        build = bench.build_hierarchy

        def annihilating(system):
            hier = build(system)
            hier.apply = np.zeros_like  # the preconditioner maps b to zero
            return hier

        monkeypatch.setattr(bench, "build_hierarchy", annihilating)
        res = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("uniform"), 15))
        assert res.breakdown and not res.converged and res.it is None
        assert cli_main(["solve", "--mesh", "uniform", "--n", "15"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["breakdown"] is True and payload["converged"] is False

    def test_only_the_finest_level_integrates_a_load(self, monkeypatch):
        from gradedfve import assembly

        calls = []
        rhs = assembly.assemble_rhs
        monkeypatch.setattr(assembly, "assemble_rhs", lambda g, p: calls.append(g.n) or rhs(g, p))
        for spec in (MeshSpec("graded", eps1=1.0, eps2=0.0), MeshSpec("composite", rule="sqrt")):
            calls.clear()
            res = bench.run_case(CaseConfig(0.5, 0.5, spec, 63))
            assert res.depth == 4 and calls == [63]

    def test_direct_solve_without_room_for_its_factors_is_refused(self, monkeypatch):
        n = DIRECT_N
        monkeypatch.setattr(_memory, "physical_memory", lambda: int(1.5 * 8 * n * n))
        cfg = CaseConfig(0.5, 0.5, MeshSpec("graded", eps1=1.0, eps2=0.0), n, "direct")
        with pytest.raises(ValueError, match="physical memory"):
            bench.run_case(cfg)
        # the preconditioned solve holds the same dense matrix and no copy of it
        assert bench.run_case(dataclasses.replace(cfg, solver="pgmres")).converged

    def test_nonconvergent_case_reports_dash(self):
        res = bench.run_case(
            CaseConfig(0.7, 1.0, MeshSpec("graded", eps1=1.0, eps2=0.0), 2**7 - 1)
        )
        assert not res.converged
        assert res.it is None
        assert res.e_inf is None


def full_scan(beta, gamma, eps1, eps2, n, q_range=(1.0, 9.0), step=0.1):
    """The grading scan that solves every candidate: the grid of ``q_range``
    in ``step``, each capped at ``q_cap(n)`` and capped duplicates dropped,
    then ``q_beta`` if it is not on the grid.  ``bench.scan_qopt`` must
    report what this reports."""
    count = int(round((q_range[1] - q_range[0]) / step))
    cap = q_cap(n)
    candidates = []
    for k in range(count + 1):
        q = min(round(q_range[0] + k * step, 10), cap)
        if not candidates or q != candidates[-1]:
            candidates.append(q)
    qb = q_for_beta(beta, n)
    if qb not in candidates:
        candidates.append(qb)
    errors = {
        q: bench.run_case(CaseConfig(beta, gamma, MeshSpec("graded", q, eps1, eps2), n, "direct")).e_inf
        for q in candidates
    }
    q_opt = min(errors, key=errors.get)
    return bench.QOptResult(q_opt, errors[q_opt], qb, errors[qb], list(errors.items()))


def reported(res: bench.QOptResult) -> tuple:
    return res.q_opt, res.e_opt, res.q_beta, res.e_beta



class TestScanQopt:
    def test_candidates_capped_and_deduped(self):
        res = bench.scan_qopt(0.8, 0.5, 1.0, 0.0, 2**6 - 1, (1.0, 9.0), 0.1)
        qs = [q for q, _ in res.scanned]
        cap = -math.log(1e-16) / math.log(2**6)
        assert max(qs) <= cap + 1e-12
        assert len(qs) == len(set(qs))

    def test_uniform_candidate_is_suboptimal(self):
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 2**6 - 1, (1.0, 4.0), 0.5)
        e_at_one = dict(res.scanned)[1.0]
        assert res.e_opt < e_at_one
        assert res.q_opt > 1.0

    @pytest.mark.parametrize(
        "beta,preset,gamma",
        list(itertools.product((0.2, 0.5, 0.8), ("eps1", "eps2", "eps4", "eps6"), (0.3, 0.5, 0.7))),
    )
    def test_reports_what_the_full_scan_reports(self, beta, preset, gamma):
        args = (beta, gamma, *bench.EPS_PRESETS[preset], 2**6 - 1)
        full, res = full_scan(*args), bench.scan_qopt(*args)
        assert reported(res) == reported(full)
        # the solved candidates carry the full scan's errors, in its order
        assert res.scanned == [pair for pair in full.scanned if pair in res.scanned]

    def test_refines_every_local_minimum(self):
        # at N = 1023, beta = 0.2, gamma = 0.7 the eps1 error curve falls to
        # a minimum at q = 1.8, rises, and falls again towards the cap
        args = (0.2, 0.7, *bench.EPS_PRESETS["eps1"], 2**10 - 1)
        full = full_scan(*args)
        grid = full.scanned[:-1]  # q_beta = 1.2 / 0.8 rounds below 1.5, off the grid
        minima = [q for i, (q, e) in enumerate(grid)
                  if all(e <= grid[j][1] for j in (i - 1, i + 1) if 0 <= j < len(grid))]
        assert minima == [1.8, q_cap(2**10 - 1)]
        res = bench.scan_qopt(*args)
        assert reported(res) == reported(full)
        assert {q for q, _ in res.scanned} >= {1.8, q_cap(2**10 - 1)}

    def test_solves_under_half_of_the_candidates(self):
        # 45 grid candidates from 1 to the cap 5.315, and q_beta = 3 on the grid
        res = bench.scan_qopt(0.5, 0.5, *bench.EPS_PRESETS["eps6"], 2**10 - 1)
        assert len(res.scanned) <= 20
        assert res.q_beta == 3.0 and 3.0 in dict(res.scanned)


class TestScanIndexArithmetic:
    """Which candidates the scan solves, with a stand-in error curve for the
    direct solve, so that long grids cost nothing."""

    @pytest.fixture
    def curve(self, monkeypatch):
        solved = []

        def use(f):
            def fake_run_case(cfg):
                solved.append(cfg.mesh.q)
                return types.SimpleNamespace(e_inf=f(cfg.mesh.q))

            monkeypatch.setattr(bench, "run_case", fake_run_case)
            return solved

        return use

    @pytest.mark.parametrize(
        "n,q_range,step",
        [
            (2**10 - 1, (1.0, 9.0), 0.1),  # the grid ends at the cap
            (2**6 - 1, (1.0, 9.0), 0.1),
            (15, (2.0, 3.0), 0.5),  # q_beta = 3 on the grid
            (2**10 - 1, (1.0, 4.0), 0.7),  # a step that does not divide the range
            (2**10 - 1, (20.0, 30.0), 1.0),  # every candidate is the cap
            (2**10 - 1, (1.0, 1.0 + 1e-7), 1e-9),
        ],
    )
    def test_a_flat_curve_solves_every_candidate_once(self, curve, n, q_range, step):
        # every coarse point of a flat curve is a local minimum
        solved = curve(lambda q: 1.0)
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, n, q_range, step)
        assert len(solved) == len(set(solved))
        assert res.scanned == full_scan(0.5, 0.5, 1.0, 0.0, n, q_range, step).scanned

    def test_a_grid_far_past_the_cap_is_not_listed(self, curve):
        # 1e13 grid indices, of which the 45 up to the cap are candidates
        solved = curve(lambda q: 1.0)
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 2**10 - 1, (1.0, 1e12), 0.1)
        assert len(solved) == 45
        assert res.scanned == full_scan(0.5, 0.5, 1.0, 0.0, 2**10 - 1).scanned

    def test_coarse_points_and_the_bracket(self, curve):
        # grid 1.0, 1.1, ..., 8.8 and the cap 8.86 at N = 63: indices 0..79;
        # the coarse pass solves 0, 5, ..., 75 and 79, the refine pass 16..24
        curve(lambda q: abs(q - 3.0))
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 2**6 - 1)
        grid = [round(1.0 + k / 10, 10) for k in range(79)] + [q_cap(2**6 - 1)]
        indices = sorted({*range(0, 79, 5), 79, *range(16, 25)})
        assert [q for q, _ in res.scanned] == [grid[k] for k in indices]
        assert (res.q_opt, res.e_opt) == (3.0, 0.0)

    def test_two_minima_are_both_bracketed(self, curve):
        cap = q_cap(2**6 - 1)
        curve(lambda q: min(abs(q - 1.8), abs(q - cap) + 0.05))
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 2**6 - 1)
        qs = [q for q, _ in res.scanned]
        assert {1.6, 1.7, 1.8, 1.9, 2.0, 2.4, 8.6, 8.7, 8.8, cap} <= set(qs)
        assert 2.6 not in qs and 8.4 not in qs  # 2.5 and 8.5 are coarse points
        assert res.q_opt == 1.8

    def test_q_beta_off_the_grid_comes_last(self, curve):
        curve(lambda q: q)
        res = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 2**10 - 1, (1.0, 2.0), 0.1)
        assert res.scanned[-1] == (3.0, 3.0) and res.q_beta == 3.0
        assert [q for q, _ in res.scanned[:-1]] == [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0]


class TestTableSweep:
    def test_table3_layout(self):
        t = bench.table_sweep(3, {"pairs": [(8, 256)]})
        assert t.columns == ["n1", "n2", "it", "e_inf", "e_rel"]
        assert len(t.rows) == 1 and t.complete
        assert table_csv(t).splitlines()[0] == "n1,n2,it,e_inf,e_rel"

    def test_table2_override_and_ord(self):
        t = bench.table_sweep(
            2, {"betas": [0.5], "n_list": [2**4, 2**5], "meshes": ["eps6"]}
        )
        assert t.columns[:3] == ["gamma", "beta", "n_plus_1"]
        assert t.rows[0][t.columns.index("eps6_ord")] is None
        ordv = t.rows[1][t.columns.index("eps6_ord")]
        assert 1.0 < ordv < 2.0

    def test_table4_has_relative_error(self):
        t = bench.table_sweep(
            4, {"betas": [0.1], "gammas": [0.0], "n_list": [2**5], "meshes": ["eps6"]}
        )
        assert "eps6_e_rel" in t.columns

    def test_table1_tiny(self):
        t = bench.table_sweep(
            1, {"gammas": [0.5], "betas": [0.5], "n": 2**5 - 1, "meshes": ["eps6"]}
        )
        row = t.rows[0]
        q_opt = row[t.columns.index("eps6_q_opt")]
        assert 1.0 <= q_opt <= 9.0

    @pytest.mark.parametrize(
        "table_id,overrides",
        [
            (1, {"gammas": [0.5], "betas": [0.5], "n": 2**5 - 1, "meshes": ["eps6"]}),
            (2, {"betas": [0.5], "n_list": [2**4], "meshes": ["eps6"]}),
            (3, {"pairs": [(8, 16)]}),
        ],
        ids=["table1", "table2", "table3"],
    )
    def test_failed_cells_carry_the_exception(self, monkeypatch, table_id, overrides):
        def broken(cfg):
            raise RuntimeError("no solve today")

        monkeypatch.setattr(bench, "run_case", broken)
        t = bench.table_sweep(table_id, overrides)
        assert not t.complete
        errs = [c for c in t.rows[0] if isinstance(c, str) and c.startswith("ERR")]
        assert errs == ["ERR: RuntimeError: no solve today"] * 3
        assert "ERR: RuntimeError: no solve today" in table_csv(t)

    @pytest.mark.parametrize(
        "table_id,overrides,message",
        [
            (3, {"pairs": [(8, 16)], "betas": [0.2]}, "table 3 does not read betas"),
            (1, {"gammas": [0.5], "betas": [0.5], "n": 15, "meshes": ["eps6"], "n_list": [16]},
             "table 1 does not read n_list"),
            (1, {"gammas": [0.5], "betas": [0.5], "n": 15, "meshes": ["eps6"], "n_list": [16],
                 "tol": 1e-3}, "table 1 does not read n_list, tol"),
            (2, {"betas": [0.5], "n_list": [16], "meshes": ["eps3"]}, "table 2 has no mesh column eps3"),
        ],
        ids=["table3-betas", "table1-n_list", "table1-tol", "table2-eps3"],
    )
    def test_unread_keys_and_foreign_meshes_raise(self, table_id, overrides, message):
        with pytest.raises(ValueError, match=message):
            bench.table_sweep(table_id, overrides)

    @pytest.mark.parametrize("overrides", [{"tol": 0.0}, {"maxit": 0}], ids=["tol", "maxit"])
    def test_bad_tol_or_maxit_stops_before_any_case(self, monkeypatch, overrides):
        def never(cfg):
            raise AssertionError("no case may run")

        monkeypatch.setattr(bench, "run_case", never)
        with pytest.raises(ValueError, match="tol must be positive|maxit must be >= 1"):
            bench.table_sweep(2, {"betas": [0.5], "n_list": [16], **overrides})

    @pytest.mark.parametrize(
        "table_id,overrides,message",
        [
            (1, {"gammas": [2.0], "n": 15, "meshes": ["eps6"]}, "gamma"),
            (2, {"betas": [1.5], "n_list": [16]}, "beta"),
            (3, {"pairs": [(8, 16)], "gamma": -0.1}, "gamma"),
            (4, {"gammas": [2.0], "betas": [0.5], "n_list": [16]}, "gamma"),
        ],
        ids=["table1", "table2", "table3", "table4"],
    )
    def test_bad_beta_or_gamma_stops_before_any_case(self, monkeypatch, table_id, overrides, message):
        def never(*args):
            raise AssertionError("no case may run")

        monkeypatch.setattr(bench, "run_case", never)
        monkeypatch.setattr(bench, "scan_qopt", never)
        with pytest.raises(ValueError, match=rf"{message} must lie in \[0, 1\]"):
            bench.table_sweep(table_id, overrides)

    def test_determinism(self):
        ov = {"betas": [0.5], "n_list": [2**4], "meshes": ["eps6"]}
        a = table_csv(bench.table_sweep(2, ov))
        b = table_csv(bench.table_sweep(2, ov))
        assert a == b

    def test_bad_table_id(self):
        with pytest.raises(ValueError):
            bench.table_sweep(5)


class TestCli:
    def test_solve_json(self, tmp_path, capsys):
        out = tmp_path / "case.json"
        code = cli_main(
            ["solve", "--beta", "0.5", "--gamma", "0.5", "--mesh", "graded",
             "--eps1", "1.0", "--eps2", "0.0", "--n", "31", "--solver", "direct",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["e_inf"] > 0

    def test_solve_json_keys_are_the_case_result_fields(self, capsys):
        assert cli_main(["solve", "--n", "15", "--maxit", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [f.name for f in dataclasses.fields(bench.CaseResult)]
        assert payload["it"] is None and payload["converged"] is False

    def test_solve_reports_the_hierarchy(self, capsys):
        assert cli_main(["solve", "--mesh", "uniform", "--n", "31"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == 3 and payload["omega"] > 0
        assert payload["omega_fallback"] is False
        # level 0 is dense, and the three levels below it view it
        assert payload["reassembled"] == 0 and payload["breakdown"] is False

    def test_solve_composite_counts_go_with_n(self, capsys):
        assert cli_main(["solve", "--mesh", "composite", "--n1", "3", "--n", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ref = bench.run_case(CaseConfig(0.5, 0.5, MeshSpec("composite", n1=3), 7))
        assert payload["e_inf"] == ref.e_inf and payload["it"] == ref.it and ref.it > 0

    def test_table_csv(self, tmp_path):
        out = tmp_path / "t3.csv"
        code = cli_main(["table", "--id", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n1,n2,it,e_inf,e_rel")

    def test_table_json(self, capsys):
        assert cli_main(["table", "--id", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == 3 and len(payload["rows"]) == 3
        assert all(list(row) == ["n1", "n2", "it", "e_inf", "e_rel"] for row in payload["rows"])
        assert all(type(row["it"]) is int for row in payload["rows"])  # a number, not a label

    def test_config_error_exit_code(self, capsys):
        assert cli_main(["solve", "--mesh", "composite", "--n", "31"]) == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["table", "--id", "7"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["solve", "--mesh", "composite", "--n1", "8", "--n", "8"], "needs 1 <= n1 < n"),
            (["solve", "--mesh", "composite", "--n1", "0"], "needs 1 <= n1 < n"),
            (["solve", "--n", "0"], "n must be >= 1"),
            (["qopt", "--n", "0"], "n must be >= 1"),
            (["symbol", "--beta", "0.5", "--n-terms", "0"], "coefficients must be >= 1"),
            (["qopt", "--n", "15", "--qstep", "0"], "q step must be positive"),
            (["qopt", "--n", "15", "--qmin", "3", "--qmax", "2"], "q range must not decrease"),
            (["solve", "--n", "15", "--maxit", "0"], "maxit must be >= 1"),
            (["solve", "--n", "15", "--tol", "0"], "tol must be positive"),
            (["eigcmp", "--grid", "fine", "--n", "513"], "n <= 512"),
            (["eigcmp", "--n", "0"], "n must be >= 1"),
            (["table", "--id", "3", "--betas", "0.2"], "table 3 does not read betas"),
            (["table", "--id", "3", "--betas"], "--betas: expected at least one argument"),
            (["table", "--id", "2", "--tol", "0"], "tol must be positive"),
            (["table", "--id", "2", "--betas", "1.5", "--n-list", "16"], "beta must lie in [0, 1]"),
            (["table", "--id", "4", "--gammas", "2", "--betas", "0.5", "--n-list", "16"],
             "gamma must lie in [0, 1]"),
            (["glt5", "--beta", "0.5", "--q", "2", "--n-list"], "--n-list: expected at least one argument"),
            (["glt5", "--beta-grid", "--q-grid", "2"], "--beta-grid: expected at least one argument"),
            (["glt5", "--beta-grid", "0.5", "--q-grid"], "--q-grid: expected at least one argument"),
            (["glt5", "--beta", "0.5", "--q", "2", "--beta-grid", "0.5"], "both --beta-grid and --q-grid"),
            (["glt5", "--q-grid", "2"], "both --beta-grid and --q-grid"),
            (["qopt", "--mesh", "composite", "--rule", "log2", "--tol", "-1", "--maxit", "0",
              "--n1", "3", "--n", "15", "--qstep", "4"], "unrecognized arguments: --mesh composite"),
            (["solve", "--mesh", "uniform", "--q", "3", "--rule", "sqrt", "--n1", "4", "--n2", "5",
              "--eps1", "0.3", "--n", "31"], "unrecognized arguments: --n2 5"),
            (["solve", "--mesh", "uniform", "--q", "3", "--rule", "sqrt", "--n1", "4",
              "--eps1", "0.3", "--n", "31"], "a uniform mesh does not read q, eps1, rule, n1"),
            (["solve", "--mesh", "composite", "--rule", "sqrt", "--n1", "3", "--n2", "4", "--n", "1000"],
             "unrecognized arguments: --n2 4"),
            (["solve", "--mesh", "composite", "--rule", "sqrt", "--n1", "3", "--n", "1000"],
             "exactly one of rule and n1"),
            (["glt5", "--beta", "0.5", "--q", "2", "--beta-grid", "0.3", "--q-grid", "3", "--n-list", "99"],
             "the glt5 sign map does not read --beta, --q, --n-list"),
            (["glt5", "--n-list", "16", "--beta-grid", "0.3", "--q-grid", "3"],
             "the glt5 sign map does not read --n-list"),
            (["glt5", "--beta", "0.5"], "glt5 needs either --beta and --q or both grids"),
            (["solve", "--q", "9", "--n", "4095"], "q = 9 exceeds the cap 4.429 at n = 4095"),
            # the case's source divides by Gamma(beta)
            (["solve", "--mesh", "uniform", "--beta", "0"], "beta must lie in (0, 1)"),
            (["solve", "--mesh", "composite", "--rule", "sqrt", "--beta", "0"], "beta must lie in (0, 1)"),
            (["solve", "--mesh", "uniform", "--beta", "1", "--solver", "pgmres"], "beta must lie in (0, 1)"),
        ],
    )
    def test_invalid_sizes_exit_1_with_one_message(self, capsys, argv, message):
        try:
            code, usage = cli_main(argv), False
        except SystemExit as exc:  # the parser prints its usage before the error
            code, usage = exc.code, True
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        if usage:
            assert lines[0].startswith("usage: ")
            lines = [line for line in lines if not line.startswith(("usage: ", " "))]
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "15", "--maxit", "2000"],
            ["solve", "--solver", "direct", "--n", "1023"],
            # one array of 2**18 + 1 doubles is 8 bytes more than the patched memory
            ["symbol", "--beta", "0.5", "--n-terms", str(2**18 + 1)],
            ["symbol", "--beta", "0.5", "--points", str(2**18 + 1)],
            # the theta grid and the values are both alive
            ["symbol", "--beta", "0.5", "--n-terms", "64", "--points", str(2**17)],
            ["solve", "--mesh", "uniform", "--n", str(2**18 + 1)],
            ["solve", "--solver", "direct", "--n", str(2**18 + 1)],
            ["qopt", "--n", str(2**18 + 1)],
            # the grid fits, its 2 N x 8 quadrature table does not
            ["solve", "--mesh", "uniform", "--n", str(2**14 + 1)],
        ],
        ids=["krylov", "direct", "symbol-terms", "symbol-points", "symbol-tables", "uniform-grid",
             "direct-grid", "qopt", "quadrature"],
    )
    def test_requests_beyond_physical_memory_exit_1(self, monkeypatch, capsys, argv):
        # the request is refused before anything near its size is allocated
        memory = 2 * 2**20
        monkeypatch.setattr(_memory, "physical_memory", lambda: memory)
        tracemalloc.start()
        try:
            code = cli_main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < memory
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "physical memory" in lines[0]

    def test_direct_solve_without_room_for_its_factors_exits_1(self, monkeypatch, capsys):
        n = DIRECT_N
        monkeypatch.setattr(_memory, "physical_memory", lambda: int(1.5 * 8 * n * n))
        assert cli_main(["solve", "--solver", "direct", "--n", str(n)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "physical memory" in lines[0]

    def test_qopt_and_symbol_and_glt5_and_eigcmp(self, tmp_path):
        assert cli_main(
            ["qopt", "--beta", "0.5", "--n", "15", "--qmin", "2", "--qmax", "3",
             "--qstep", "0.5", "--out", str(tmp_path / "q.json")]
        ) == 0
        assert json.loads((tmp_path / "q.json").read_text())["q_opt"] >= 2.0

        assert cli_main(
            ["symbol", "--beta", "0.5", "--points", "9", "--n-terms", "64",
             "--out", str(tmp_path / "p.csv")]
        ) == 0
        assert (tmp_path / "p.csv").read_text().startswith("theta,p")

        assert cli_main(
            ["glt5", "--beta", "0.5", "--q", "2.0", "--n-list", "16", "32",
             "--out", str(tmp_path / "s.csv")]
        ) == 0
        assert cli_main(
            ["eigcmp", "--beta", "0.5", "--q", "2.0", "--n", "16",
             "--grid-tag", "coarse", "--out", str(tmp_path / "e.csv")]
        ) == 0
        assert "sup_gap" in (tmp_path / "e.csv").read_text()
