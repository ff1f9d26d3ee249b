import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedfve import mesh
from gradedfve.mesh import (
    CompositeRule,
    MeshError,
    blend_coefficients,
    composite_grid,
    composite_grid_from_counts,
    graded_grid,
    graded_map_eval,
    q_cap,
    q_for_beta,
    uniform_grid,
)


class TestUniform:
    def test_single_interior_point(self):
        g = uniform_grid(1)
        assert np.array_equal(g.points, [0.0, 0.5, 1.0])

    def test_equal_steps(self):
        g = uniform_grid(3)
        assert np.allclose(g.steps, 0.25, rtol=0, atol=0)

    def test_dyadic_step(self):
        g = uniform_grid(2**10 - 1)
        assert g.steps[0] == 2.0**-10

    def test_rejects_empty(self):
        with pytest.raises(MeshError):
            uniform_grid(0)


class TestBlendCoefficients:
    def test_identity_map_for_q1(self):
        c = blend_coefficients(1.0, 0.2, 0.05)
        assert np.allclose([c.a, c.b, c.m, c.p], [0, 1, 1, 0], atol=1e-12)
        xs = np.linspace(0.0, 1.0, 41)
        assert np.allclose(graded_map_eval(c, xs), xs, rtol=0, atol=1e-15)

    def test_c1_blend_determinant_and_residuals(self):
        # the closed-form determinant of the 5x5 matching system
        e1, e2 = 0.2, 0.05
        s = e1 + e2
        g5 = np.array(
            [
                [e1**2, e1, 1, 0, 0],
                [s**2, s, 1, -s, -1],
                [2 * e1, 1, 0, 0, 0],
                [2 * s, 1, 0, -1, 0],
                [0, 0, 0, 1, 1],
            ]
        )
        assert np.isclose(np.linalg.det(g5), 2 * e1 * e2 - 2 * e2 + e2**2)
        assert np.isclose(np.linalg.det(g5), -0.0775)

        c = blend_coefficients(3.0, e1, e2)
        residuals = [
            # the quadratic just right of eps1 against the power at eps1
            graded_map_eval(c, np.nextafter(e1, 1.0)) - e1**3,
            2 * c.a * e1 + c.b - 3 * e1**2,
            # the quadratic at eps1 + eps2 against the line there
            graded_map_eval(c, s) - (c.m * s + c.p),
            2 * c.a * s + c.b - c.m,
            c.m + c.p - 1.0,
        ]
        assert max(abs(r) for r in residuals) < 1e-10

    def test_full_power_mode(self):
        c = blend_coefficients(3.0, 1.0, 0.0)
        assert graded_map_eval(c, 0.3) == pytest.approx(0.3**3, rel=1e-15)

    def test_c0_join_mode(self):
        c = blend_coefficients(3.0, 0.25, 0.0)
        assert c.m == pytest.approx((1 - 0.25**3) / (1 - 0.25))
        assert c.p == pytest.approx(1 - c.m)
        # continuity at the join, but slope may jump
        assert graded_map_eval(c, 0.25) == pytest.approx(0.25**3, rel=1e-12)
        assert graded_map_eval(c, 1.0) == pytest.approx(1.0)

    def test_quad_to_one_mode(self):
        c = blend_coefficients(3.0, 0.6, 0.4)
        assert graded_map_eval(c, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert graded_map_eval(c, 0.6) == pytest.approx(0.6**3, rel=1e-10)
        # slope continuity at the join
        eps = 1e-7
        left = (0.6**3 - (0.6 - eps) ** 3) / eps
        right = (graded_map_eval(c, 0.6 + eps) - graded_map_eval(c, 0.6)) / eps
        assert left == pytest.approx(right, rel=1e-5)

    @pytest.mark.parametrize(
        "q,e1,e2",
        [(2.0, 0.2, -0.01), (2.0, 0.7, 0.4), (0.5, 0.2, 0.05), (2.0, 0.0, 0.5), (2.0, 0.5, 1e-13)],
    )
    def test_rejects_bad_parameters(self, q, e1, e2):
        with pytest.raises(MeshError):
            blend_coefficients(q, e1, e2)


class TestGradedMap:
    def test_endpoints(self):
        for args in [(2.0, 1.0, 0.0), (3.0, 0.2, 0.05), (4.0, 0.5, 0.0)]:
            c = blend_coefficients(*args)
            assert graded_map_eval(c, 0.0) == 0.0
            assert graded_map_eval(c, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_power_value(self):
        c = blend_coefficients(2.0, 1.0, 0.0)
        assert graded_map_eval(c, 0.5) == 0.25

    def test_domain_error(self):
        c = blend_coefficients(2.0, 1.0, 0.0)
        with pytest.raises(MeshError):
            graded_map_eval(c, 1.5)
        with pytest.raises(MeshError):
            graded_map_eval(c, np.array([0.2, -0.1]))


@st.composite
def blend_parameters(draw):
    q = draw(st.floats(1.0, 9.0))
    eps1 = draw(st.floats(0.0, 1.0, exclude_min=True))
    room = 1.0 - eps1  # eps2 is 0 or at least 1e-12
    eps2 = draw(st.just(0.0) | st.floats(1e-12, room)) if room >= 1e-12 else 0.0
    return q, eps1, eps2


@settings(max_examples=300, deadline=None)
@given(blend_parameters())
def test_blend_map_properties(params):
    q, e1, e2 = params
    c = blend_coefficients(q, e1, e2)
    g = lambda x: graded_map_eval(c, x)
    assert g(0.0) == 0.0 and g(1.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g(np.linspace(0.0, 1.0, 4097))) > 0.0)
    s = e1 + e2
    for join in (e1, s):  # each segment meets the next one
        if join < 1.0:
            assert abs(g(np.nextafter(join, 2.0)) - g(join)) <= 1e-12
    if e2 > 0.0:
        # slopes of the power, the quadratic and the line meet, to 1e-12 of
        # the quadratic's coefficients (of order q / e2, so b carries their
        # rounding)
        scale = 1e-12 * max(1.0, abs(c.a))
        assert abs(2.0 * c.a * e1 + c.b - q * e1 ** (q - 1.0)) <= scale
        assert abs(2.0 * c.a * s + c.b - c.m) <= scale


def where_map(c, x):
    """The map as its three formulas over every point, joined by two nested
    ``np.where``: the form the segment-wise evaluation replaced."""
    quad = c.eps1**c.q + (x - c.eps1) * (c.a * (x + c.eps1) + c.b)
    return np.where(x <= c.eps1, x**c.q, np.where(x <= c.eps1 + c.eps2, quad, c.m * x + c.p))


@settings(max_examples=300, deadline=None)
@given(blend_parameters(), st.integers(1, 300), st.randoms(use_true_random=False))
def test_segment_wise_map_is_the_where_form_bit_for_bit(params, n, random):
    c = blend_coefficients(*params)
    joins = [c.eps1, c.eps1 + c.eps2]
    near = [np.nextafter(j, d) for j in joins for d in (0.0, 2.0)]
    xs = np.concatenate((np.arange(n + 2) / (n + 1), np.clip(joins + near, 0.0, 1.0)))
    random.shuffle(xs)  # any order, not only the sorted nodes of a grid
    assert graded_map_eval(c, xs).tobytes() == where_map(c, xs).tobytes()
    for x in xs[:8]:  # a scalar goes through a 0-d array, as before
        assert graded_map_eval(c, float(x)) == float(where_map(c, np.asarray(x)))
    ref = where_map(c, np.arange(n + 2) / (n + 1))
    ref[0], ref[-1] = 0.0, 1.0
    if 1.0 / (n + 1) <= c.eps1 and np.all(np.diff(ref) > 0.0):  # the grid's own checks
        assert graded_grid(n, c).points.tobytes() == ref.tobytes()


class TestGradingExponent:
    def test_nominal_values(self):
        assert q_for_beta(0.5, 2**10 - 1) == pytest.approx(3.0)
        assert q_for_beta(0.2, 2**10 - 1) == pytest.approx(1.5)

    def test_cap_binds_for_large_beta(self):
        q = q_for_beta(0.8, 2**10 - 1)
        assert q == pytest.approx(16 * math.log(10) / math.log(2**10), rel=1e-12)
        assert q == pytest.approx(5.315, abs=5e-4)

    def test_first_step_never_below_floor(self):
        for beta in (0.3, 0.6, 0.8, 0.9, 0.95):
            for n in (2**6 - 1, 2**10 - 1, 2**12 - 1):
                q = q_for_beta(beta, n)
                g = graded_grid(n, blend_coefficients(q, 1.0, 0.0))
                assert g.points[1] >= 1e-16 * (1 - 1e-12)


class TestGradedGrid:
    def test_q1_is_uniform(self):
        c = blend_coefficients(1.0, 0.2, 0.05)
        assert np.allclose(graded_grid(7, c).points, uniform_grid(7).points, atol=1e-15)

    def test_squares_of_quarters(self):
        c = blend_coefficients(2.0, 1.0, 0.0)
        assert np.allclose(graded_grid(3, c).points, [0, 1 / 16, 1 / 4, 9 / 16, 1])

    @pytest.mark.parametrize(
        "e1,e2,n",
        [(0.45, 0.05, 2**6 - 1), (0.2, 0.05, 2**8 - 1), (0.1, 0.05, 2**9 - 1)],
    )
    def test_step_ratio_bounded_near_joins(self, e1, e2, n):
        # C^1 map: adjacent step ratios approach 1 like 1 + O(h g''/g'); the
        # [1/2, 2] band is reached once h is small against the blend width
        # (narrow blends have large quadratic curvature and need larger n)
        c = blend_coefficients(3.0, e1, e2)
        g = graded_grid(n, c)
        xhat = np.arange(1, n + 2) / (n + 1)
        ratios = g.steps[1:] / g.steps[:-1]
        near_join = (np.abs(xhat[:-1] - e1) < 0.05) | (
            np.abs(xhat[:-1] - e1 - e2) < 0.05
        )
        assert np.all(ratios[near_join] < 2.0)
        assert np.all(ratios[near_join] > 0.5)

    def test_step_ratio_tightens_with_refinement(self):
        c = blend_coefficients(3.0, 0.2, 0.05)
        worst = []
        for n in (2**6 - 1, 2**7 - 1, 2**8 - 1, 2**9 - 1):
            g = graded_grid(n, c)
            xhat = np.arange(1, n + 2) / (n + 1)
            ratios = g.steps[1:] / g.steps[:-1]
            near_join = (np.abs(xhat[:-1] - 0.2) < 0.05) | (
                np.abs(xhat[:-1] - 0.25) < 0.05
            )
            worst.append(np.abs(ratios[near_join] - 1.0).max())
        assert all(a > b for a, b in zip(worst, worst[1:]))

    def test_step_exceeding_power_segment_rejected(self):
        c = blend_coefficients(3.0, 0.05, 0.05)
        with pytest.raises(MeshError):
            graded_grid(7, c)  # h = 1/8 > eps1


class TestComposite:
    def test_explicit_counts_points(self):
        g = composite_grid_from_counts(8, 256)
        h = 1.0 / 257
        assert g.points[1] == pytest.approx(2.0**-8 * h, rel=1e-15)
        assert g.points[8] == pytest.approx(h / 2, rel=1e-15)
        assert g.points[9] == pytest.approx(h, rel=1e-15)
        assert g.n == 264

    def test_sqrt_rule(self):
        g = composite_grid(16, CompositeRule("sqrt"))
        assert g.n == 16
        # n1 = 4 dyadic points, uniform step 1/13 beyond
        assert np.allclose(np.diff(g.points)[5:], 1.0 / 13)

    def test_log2_rule(self):
        assert CompositeRule("log2")(1024) == 10
        assert CompositeRule("sqrt")(16) == 4

    def test_dyadic_ratios(self):
        g = composite_grid_from_counts(6, 40)
        x = g.points
        for i in range(1, 6):
            assert x[i + 1] / x[i] == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(np.diff(x[7:-1]), 1.0 / 41)

    def test_rejects_degenerate_split(self):
        with pytest.raises(MeshError):
            composite_grid(1, CompositeRule("sqrt"))  # n1 == n


class TestGridObject:
    def test_points_immutable(self):
        g = uniform_grid(5)
        with pytest.raises(ValueError):
            g.points[0] = 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_interior_node(self, bad):
        with pytest.raises(MeshError, match="finite"):
            mesh.Grid(np.array([0.0, bad, 0.5, 1.0]))


@st.composite
def any_grid(draw):
    kind = draw(st.sampled_from(["uniform", "graded", "composite"]))
    if kind == "uniform":
        return uniform_grid(draw(st.integers(1, 2**12)))
    if kind == "graded":
        n = draw(st.integers(4, 2**12))
        q = draw(st.floats(1.0, 6.0))
        preset = draw(st.sampled_from([(1.0, 0.0), (0.2, 0.05), (0.5, 0.0), (0.45, 0.05)]))
        q = min(q, q_cap(n))
        return graded_grid(n, blend_coefficients(q, *preset))
    n = draw(st.integers(4, 2**12))
    rule = CompositeRule(draw(st.sampled_from(["sqrt", "log2"])))
    return composite_grid(n, rule)


@settings(max_examples=40, deadline=None)
@given(any_grid())
def test_grid_invariants(grid):
    x = grid.points
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert np.all(grid.steps > 0)
    assert abs(grid.steps.sum() - 1.0) <= 1e-12
