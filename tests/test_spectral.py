import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gradedfve import _memory, bench
from gradedfve import spectral as sp
from gradedfve.assembly import FdeProblem, assemble_matrix, uniform_toeplitz
from gradedfve.cli import main as cli_main
from gradedfve.mesh import blend_coefficients, graded_grid, uniform_grid


class TestGeneratingFunction:
    def test_laplacian_limit(self):
        # beta -> 0 telescopes the series to 2 - 2 cos(theta)
        beta = 1e-13
        assert sp.symbol_p(2048, beta, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert sp.symbol_p(2048, beta, math.pi) == pytest.approx(4.0, abs=1e-9)
        th = 1.234
        assert sp.symbol_p(2048, beta, th) == pytest.approx(2 - 2 * math.cos(th), abs=1e-9)

    def test_evenness(self, rng):
        th = rng.uniform(0.0, math.pi, 16)
        vals_p = sp.symbol_p(2**8, 0.5, th)
        vals_m = sp.symbol_p(2**8, 0.5, -th)
        assert np.abs(vals_p - vals_m).max() <= 1e-12

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_positivity_away_from_origin(self, beta):
        th = np.linspace(math.pi / 64, math.pi, 200)
        assert np.all(sp.symbol_p(2**10, beta, th) > 0)

    def test_truncation_stability(self):
        th = 0.8
        diffs = [
            abs(sp.symbol_p(2 * n, 0.5, th) - sp.symbol_p(n, 0.5, th))
            for n in (2**6, 2**8, 2**10)
        ]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_zero_order_below_two(self):
        # p(theta)/theta^2 grows as theta -> 0 when the zero order is < 2
        th = 2.0 ** -np.arange(3, 11)
        vals = sp.symbol_p(2**12, 0.5, th) / th**2
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("n", [1, 16, 255, 4095])
    def test_coefficients_are_the_scaled_uniform_first_row(self, n, beta):
        # the flux kernel's row against the third difference of powers
        # t_k = (3 (2k+1)^b - 3 (2k-1)^b + (2k-3)^b - (2k+3)^b) / 2 (k >= 2),
        # t_0 = 3 - 3^b, t_1 = (3^(b+1) - 4 - 5^b) / 2, at 50 digits
        mpmath = pytest.importorskip("mpmath")
        t = coefficients(n, beta)
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            ref = [3 - 3**b, (3 ** (b + 1) - 4 - 5**b) / 2] + [
                (3 * (2 * k + 1) ** b - 3 * (2 * k - 1) ** b + (2 * k - 3) ** b - (2 * k + 3) ** b) / 2
                for k in range(2, n)
            ]
            err = max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(t, ref))
        assert err <= 1e-11 * abs(t[0])


def coefficients(n_terms, beta):
    """The series coefficients ``symbol_p`` sums: the first row of the uniform
    grid's matrix times ``2^beta Gamma(beta + 1) h^(1 - beta)``."""
    scale = 2.0**beta * math.gamma(beta + 1.0) / (n_terms + 1) ** (1.0 - beta)
    return uniform_toeplitz(n_terms, beta).first_row * scale


def direct_sum(n_terms, beta, theta):
    """The cosine series summed one term at a time, kept as an oracle."""
    t = coefficients(n_terms, beta)
    k = np.arange(1, n_terms)
    return t[0] + 2.0 * (np.cos(np.outer(theta, k)) @ t[1:])


class TestBlockedSummation:
    """``symbol_p`` sums the series by blocked angle addition and GEMMs."""

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_matches_mpmath_at_4096_terms(self, beta):
        mpmath = pytest.importorskip("mpmath")
        n_terms = 4096
        thetas = np.geomspace(1e-6, math.pi, 12)
        got = sp.symbol_p(n_terms, beta, thetas)
        t = [mpmath.mpf(float(v)) for v in coefficients(n_terms, beta)]
        with mpmath.workdps(30):
            for th, value in zip(thetas, got):
                x = mpmath.mpf(float(th))
                ref = t[0] + 2 * mpmath.fsum(t[k] * mpmath.cos(k * x) for k in range(1, n_terms))
                assert abs(value - float(ref)) <= 1e-14

    @pytest.mark.parametrize("n_terms", [1, 2, 3, 17, 4097])
    def test_matches_the_direct_sum(self, n_terms):
        thetas = np.linspace(-math.pi, math.pi, 301)
        got = sp.symbol_p(n_terms, 0.5, thetas)
        assert np.abs(got - direct_sum(n_terms, 0.5, thetas)).max() <= 1e-14

    @pytest.mark.parametrize("n_terms", [17, 4096])
    def test_even_bit_for_bit(self, n_terms):
        thetas = np.linspace(0.0, math.pi, 1001)  # several chunks
        assert np.array_equal(sp.symbol_p(n_terms, 0.5, -thetas), sp.symbol_p(n_terms, 0.5, thetas))

    def test_scalar_in_float_out(self):
        value = sp.symbol_p(64, 0.5, 1.0)
        assert type(value) is float
        assert value == sp.symbol_p(64, 0.5, np.array([1.0]))[0]

    def test_array_shape_is_kept(self):
        thetas = np.linspace(0.1, 3.0, 6)
        got = sp.symbol_p(64, 0.5, thetas.reshape(2, 3))
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), sp.symbol_p(64, 0.5, thetas))

    def test_memory_stays_bounded(self):
        # a (points x terms) cosine table would be 134 MB here
        thetas = np.arange(1, 4097) * math.pi / 4097
        tracemalloc.start()
        try:
            sp.symbol_p(4096, 0.5, thetas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


def symbol_at(x, theta, beta, **kw):
    """The two-variable symbol at one point, from a 1 x 1 product table."""
    table = sp.sample_symbol(beta, [x], [theta], **kw)
    assert table.values.shape == (1, 1)
    return table.values[0, 0]


class TestTwoVariableSymbol:
    def test_normalization_cancels(self):
        beta = 0.4
        k0 = 2.0**beta * math.gamma(beta + 1.0)
        vals = symbol_at(0.7, 1.3, beta, diffusion=k0, n_terms=2**10)
        assert vals == pytest.approx(sp.symbol_p(2**10, beta, 1.3), rel=1e-13)

    def test_zero_at_origin(self):
        # the truncated series at the origin decays like 1/n_terms
        coarse = symbol_at(0.5, 0.0, 0.3, n_terms=2**10)
        fine = symbol_at(0.5, 0.0, 0.3, n_terms=2**12)
        assert abs(coarse) < 1e-5
        assert abs(fine) < abs(coarse) / 8

    def test_square_map_midpoint(self):
        beta, k0 = 0.5, 1.7
        gp = lambda x: 2.0 * np.asarray(x)
        got = symbol_at(0.5, 2.0, beta, diffusion=k0, gprime=gp, n_terms=2**10)
        ref = k0 * sp.symbol_p(2**10, beta, 2.0) / (2**beta * math.gamma(1.5))
        assert got == pytest.approx(ref, rel=1e-13)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            symbol_at(0.0, 1.0, 0.5, gprime=lambda x: np.zeros_like(x))


class TestEigVsSymbol:
    def test_laplacian_spectrum_oracle(self):
        # beta -> 0 on the identity map: h^(1-b) A has the classical
        # Laplacian eigenvalues 4 K sin^2(j pi h / 2)
        n = 2**6
        grid = graded_grid(n, blend_coefficients(1.0, 1.0, 0.0))
        a = assemble_matrix(grid, FdeProblem(beta=0.0, gamma=0.5)).entries
        h = 1.0 / (n + 1)
        eigs = np.sort(scipy.linalg.eigvals(h * a).real)
        ref = np.sort(4.0 * np.sin(np.arange(1, n + 1) * math.pi * h / 2.0) ** 2)
        assert np.abs(eigs - ref).max() <= 1e-10

    def test_fine_grid_overlap_q2(self):
        rep = sp.eig_vs_symbol(0.5, 2.0, 2**6, "fine")
        assert rep.grid_tag == "fine-(ii)"
        radius = float(np.abs(np.asarray(rep.sorted_eigs)).max())
        assert rep.sup_gap < 0.05 * radius

    def test_overlap_persists_beyond_crossover_q4(self):
        rep = sp.eig_vs_symbol(0.5, 4.0, 2**6, "fine")
        radius = float(np.abs(np.asarray(rep.sorted_eigs)).max())
        gaps = np.abs(np.asarray(rep.sorted_eigs).real - rep.sorted_samples)
        assert np.median(gaps) < 0.02 * radius

    def test_coarse_grid_runs_and_is_rougher(self):
        fine = sp.eig_vs_symbol(0.5, 2.0, 2**6, "coarse")
        assert fine.grid_tag == "coarse-(i)"
        assert fine.sorted_samples.shape == (2**6,)

    def test_fine_grid_beyond_physical_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(_memory, "physical_memory", lambda: 4 * 2**20)
        with pytest.raises(ValueError, match="physical memory"):
            sp.eig_vs_symbol(0.5, 2.0, 2**5, "fine")  # 8.4 MB of samples

    def test_uniform_distribution_matches(self):
        rep = sp.eig_vs_symbol(0.5, 1.0, 2**6, "fine")
        radius = float(np.abs(np.asarray(rep.sorted_eigs)).max())
        assert rep.sup_gap < 0.05 * radius


class TestSymbolTable:
    def test_product_table_matches_pointwise(self):
        import numpy as np

        xs = np.array([0.25, 0.75])
        ths = np.array([0.5, 1.5, 2.5])
        gp = lambda x: 2.0 * np.asarray(x)
        table = sp.sample_symbol(0.5, xs, ths, gprime=gp, n_terms=2**9)
        assert table.values.shape == (2, 3)
        ref = symbol_at(0.75, 1.5, 0.5, gprime=gp, n_terms=2**9)
        assert table.values[1, 1] == pytest.approx(ref, rel=1e-13)
        assert np.all(table.values[:, ths != 0.0] > 0)


class TestTraceNormSequence:
    def test_symmetric_case_vanishes(self):
        s = sp.glt5_sequence(0.5, 1.0, [2**4, 2**5])
        assert np.abs(s).max() <= 1e-13

    def test_monotone_sides(self):
        ns = [2**k for k in range(4, 8)]
        s_dec = sp.glt5_sequence(0.5, 2.0, ns)
        s_inc = sp.glt5_sequence(0.5, 4.0, ns)
        assert np.all(np.diff(s_dec) < 0)
        assert np.all(np.diff(s_inc) > 0)

    def test_region_signs(self):
        signs = sp.glt5_region([0.5], [1.0, 2.0, 4.0])
        assert signs[0, 0] == 0
        assert signs[0, 1] == 1
        assert signs[0, 2] == -1


class TestEmitters:
    """The CLI writes every CSV through ``bench.write_csv``: spectral values
    round-trip exactly, the other outputs carry 6 significant digits and a
    missing value reads ``-``."""

    @staticmethod
    def _cells(path):
        return [line.split(",") for line in path.read_text().splitlines()]

    def test_csv_outputs(self, tmp_path):
        assert cli_main(
            ["glt5", "--beta", "0.5", "--q", "2.0", "--n-list", "16", "32",
             "--out", str(tmp_path / "s.csv")]
        ) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "n,s" and len(lines) == 1 + 2
        seq = sp.glt5_sequence(0.5, 2.0, [16, 32])
        assert [[int(n), float(v)] for n, v in self._cells(tmp_path / "s.csv")[1:]] == [
            [16, seq[0]], [32, seq[1]]
        ]

        assert cli_main(
            ["glt5", "--beta-grid", "0.2", "0.5", "--q-grid", "2.0", "4.0", "6.0",
             "--out", str(tmp_path / "r.csv")]
        ) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "beta,q,sign" and len(lines) == 1 + 2 * 3
        signs = sp.glt5_region([0.2, 0.5], [2.0, 4.0, 6.0])
        assert self._cells(tmp_path / "r.csv")[1:] == [
            [f"{b:.6g}", f"{q:.6g}", str(signs[i, j])]
            for i, b in enumerate([0.2, 0.5])
            for j, q in enumerate([2.0, 4.0, 6.0])
        ]

        assert cli_main(
            ["eigcmp", "--beta", "0.5", "--q", "2.0", "--n", "16",
             "--grid-tag", "coarse", "--out", str(tmp_path / "e.csv")]
        ) == 0
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0].startswith("# grid=coarse-(i) sup_gap=")
        assert lines[1] == "index,eigenvalue,symbol_sample" and len(lines) == 2 + 16
        report = sp.eig_vs_symbol(0.5, 2.0, 16, "coarse")
        assert float(lines[0].split("sup_gap=")[1]) == report.sup_gap
        assert [[int(i), float(e), float(s)] for i, e, s in self._cells(tmp_path / "e.csv")[2:]] == [
            [i, complex(e).real, s]
            for i, (e, s) in enumerate(zip(report.sorted_eigs, report.sorted_samples))
        ]

        assert cli_main(
            ["symbol", "--beta", "0.5", "--points", "9", "--n-terms", "64",
             "--out", str(tmp_path / "p.csv")]
        ) == 0
        rows = self._cells(tmp_path / "p.csv")
        thetas = np.linspace(-np.pi, np.pi, 9)
        assert rows[0] == ["theta", "p"]
        assert [[float(t), float(v)] for t, v in rows[1:]] == [
            list(pair) for pair in zip(thetas, sp.symbol_p(64, 0.5, thetas))
        ]

        assert cli_main(
            ["qopt", "--beta", "0.5", "--n", "15", "--qmin", "2", "--qmax", "3",
             "--qstep", "0.5", "--format", "csv", "--out", str(tmp_path / "q.csv")]
        ) == 0
        rows = self._cells(tmp_path / "q.csv")
        scan = bench.scan_qopt(0.5, 0.5, 1.0, 0.0, 15, (2.0, 3.0), 0.5)
        assert rows[0] == ["q", "e_inf"]
        assert rows[1:] == [[f"{q:.6g}", f"{e:.6g}"] for q, e in scan.scanned]

        for solver in ("pgmres", "direct"):
            out = tmp_path / f"{solver}.csv"
            assert cli_main(
                ["solve", "--mesh", "composite", "--rule", "sqrt", "--n", "63",
                 "--solver", solver, "--format", "csv", "--out", str(out)]
            ) == 0
            header, cells = self._cells(out)
            assert header == ["it", "converged", "e_inf", "e_inf_nodes", "e_rel",
                              "wall_time", "depth", "omega", "omega_fallback",
                              "reassembled", "breakdown"]
            row = dict(zip(header, cells))
            res = bench.run_case(
                bench.CaseConfig(0.5, 0.5, bench.MeshSpec("composite", rule="sqrt"), 63, solver)
            )
            assert row["wall_time"] == f"{float(row['wall_time']):.6g}"
            for key in ("e_inf", "e_inf_nodes", "e_rel"):
                assert row[key] == f"{getattr(res, key):.6g}"
            assert row["converged"] == "True" and row["omega_fallback"] == "False"
            assert row["breakdown"] == "False"
            if solver == "direct":
                assert [row["it"], row["depth"], row["omega"], row["reassembled"]] == ["-"] * 4
            else:
                assert [row["it"], row["depth"], row["omega"], row["reassembled"]] == [
                    str(res.it), str(res.depth), f"{res.omega:.6g}", str(res.reassembled)
                ]
