"""Meshes on [0, 1] for diffusion problems with a boundary singularity at x = 0.

Three families are provided:

* uniform grids,
* power-graded grids, obtained by pushing a uniform grid through an
  increasing endomorphism of [0, 1] that behaves like ``x**q`` near the
  origin, optionally blended into a uniform tail through a quadratic
  segment so that the map is C^1,
* composite grids that split the leftmost cell of a uniform mesh into
  geometrically shrinking (dyadic) subintervals.

All generators return immutable :class:`Grid` objects carrying the node
coordinates and the step lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._memory import require_memory

__all__ = [
    "MeshError",
    "Grid",
    "BlendCoeffs",
    "CompositeRule",
    "FIRST_STEP_FLOOR",
    "uniform_grid",
    "blend_coefficients",
    "graded_map_eval",
    "q_cap",
    "q_for_beta",
    "graded_grid",
    "composite_grid",
    "composite_grid_from_counts",
]

#: Smallest admissible first step of a graded grid; grading exponents are
#: capped so that the first mapped step never drops below this value.
FIRST_STEP_FLOOR = 1e-16

#: Shortest quadratic segment of a blended map.  It keeps the denominator
#: ``eps2 (2 - 2 eps1 - eps2)`` positive despite the 1e-14 slack allowed in
#: ``eps1 + eps2 <= 1``, and the quadratic's coefficients, of order
#: ``q / eps2``, far from overflow.
_MIN_BLEND = 1e-12


class MeshError(ValueError):
    """Invalid mesh parameters or a degenerate generated mesh."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing partition ``0 = x_0 < x_1 < ... < x_{N+1} = 1``.

    Attributes
    ----------
    points : ndarray, shape (N+2,)
        Node coordinates including both boundary nodes.
    steps : ndarray, shape (N+1,)
        Step lengths ``h_i = x_i - x_{i-1}`` for ``i = 1..N+1``.
    """

    points: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise MeshError("grid needs at least one interior point")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise MeshError("grid must span [0, 1] exactly")
        if not np.all(np.isfinite(pts)):  # NaN would pass both tests below
            raise MeshError("grid points must be finite")
        steps = np.diff(pts)
        if np.any(steps <= 0.0):
            raise MeshError("grid points must be strictly increasing")
        for name, arr in (("points", pts), ("steps", steps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        """Number of interior points."""
        return self.points.size - 2


def uniform_grid(n: int) -> Grid:
    """Uniform grid with ``n`` interior points, step ``1/(n+1)``."""
    if n < 1:
        raise MeshError("n must be >= 1")
    # at most the points, the steps and the step test's mask are alive at once
    require_memory(3 * 8 * (n + 2), f"a grid of {n} interior points", MeshError)
    return Grid(np.arange(n + 2, dtype=float) / (n + 1))


# ---------------------------------------------------------------------------
# power-graded meshes


@dataclass(frozen=True)
class BlendCoeffs:
    """Coefficients of the piecewise map used to grade a mesh.

    The map is ``x**q`` on ``[0, eps1]``, the quadratic
    ``eps1**q + (x - eps1) (a (x + eps1) + b)`` on ``[eps1, eps1+eps2]`` and
    the line ``m x + p`` on ``[eps1+eps2, 1]``.
    A segment of length zero holds no point: ``eps1 = 1`` is the pure
    power map, ``eps2 = 0`` joins the power to the line, and
    ``eps1 + eps2 = 1`` carries the quadratic to 1.
    """

    q: float
    eps1: float
    eps2: float
    a: float
    b: float
    m: float
    p: float


def blend_coefficients(q: float, eps1: float, eps2: float) -> BlendCoeffs:
    """Join ``x**q`` to the line through (1, 1) by a quadratic, in closed form.

    Parameters
    ----------
    q : float
        Grading exponent, ``q >= 1``.
    eps1, eps2 : float
        Lengths of the power segment and of the quadratic transition, with
        ``0 < eps1 + eps2 <= 1``; ``eps2`` is 0 or at least 1e-12.

    Returns
    -------
    BlendCoeffs
        With ``d = q eps1**(q-1)`` the quadratic is
        ``eps1**q + d (x - eps1) + a (x - eps1)**2`` with
        ``a = (1 - eps1**q - d (1 - eps1)) / (eps2 (2 - 2 eps1 - eps2))``,
        and the line has slope ``m = d + 2 a eps2`` and value 1 at x = 1, so
        value and slope match at both joins.  With ``eps2 = 0`` the line
        joins the power continuously, with slope
        ``(1 - eps1**q) / (1 - eps1)``.
    """
    if not q >= 1.0:
        raise MeshError("grading exponent must satisfy q >= 1")
    if eps2 != 0.0 and not eps2 >= _MIN_BLEND:
        raise MeshError(f"eps2 must be 0 or at least {_MIN_BLEND:g}")
    if not eps1 > 0.0:
        raise MeshError("eps1 must be positive")
    if eps1 + eps2 > 1.0 + 1e-14:
        raise MeshError("eps1 + eps2 must not exceed 1")

    top, d = eps1**q, q * eps1 ** (q - 1.0)
    if eps2 > 0.0:
        a = (1.0 - top - d * (1.0 - eps1)) / (eps2 * (2.0 - 2.0 * eps1 - eps2))
        m = d + 2.0 * a * eps2
    else:  # no quadratic segment; a pure power map (eps1 = 1) has no line either
        a = 0.0
        m = (1.0 - top) / (1.0 - eps1) if eps1 < 1.0 else d
    return BlendCoeffs(q, eps1, eps2, a, d - 2.0 * a * eps1, m, 1.0 - m)


def graded_map_eval(coeffs: BlendCoeffs, xhat):
    """Evaluate the piecewise grading map at ``xhat`` in [0, 1].

    Accepts scalars or arrays; raises :class:`MeshError` outside [0, 1].
    """
    x = np.asarray(xhat, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise MeshError("grading map evaluated outside [0, 1]")
    c = coeffs
    # each formula on the points of its own segment, into one output array
    out = np.empty(x.shape)
    power, line = x <= c.eps1, ~(x <= c.eps1 + c.eps2)
    np.power(x, c.q, out=out, where=power)
    np.multiply(x, c.m, out=out, where=line)
    np.add(out, c.p, out=out, where=line)
    quad = ~(power | line)
    xq = x[quad]
    # the quadratic as its value at eps1 plus (x - eps1) times a difference
    # quotient, which does not cancel the large terms of its monomial form
    out[quad] = c.eps1**c.q + (xq - c.eps1) * (c.a * (xq + c.eps1) + c.b)
    if np.isscalar(xhat):
        return float(out)
    return out


def q_cap(n: int) -> float:
    """Largest exponent keeping the first graded step at or above 1e-16.

    With step ``h = 1/(n+1)`` the first mapped point is ``h**q``; the cap is
    the exponent making it exactly :data:`FIRST_STEP_FLOOR`.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    return -math.log(FIRST_STEP_FLOOR) / math.log(n + 1)


def q_for_beta(beta: float, n: int) -> float:
    """Grading exponent ``(1+beta)/(1-beta)``, capped via :func:`q_cap`.

    The uncapped value matches the order-optimal grading for a solution
    behaving like ``x**(1-beta)`` near the origin; the cap guards against
    first steps below the floating-point floor.
    """
    if not 0.0 < beta < 1.0:
        raise MeshError("beta must lie in (0, 1)")
    return min((1.0 + beta) / (1.0 - beta), q_cap(n))


def graded_grid(n: int, coeffs: BlendCoeffs) -> Grid:
    """Map the uniform grid with ``n`` interior points through ``coeffs``.

    The boundary nodes are pinned to 0 and 1 exactly; interior nodes are the
    mapped uniform nodes.  Raises if any mapped step collapses to zero (this
    signals a grading exponent above the :func:`q_cap` safety cap).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    # the map holds the nodes, the points, three masks (an eighth each) and
    # three copies of the quadratic's share of the nodes, about eps2
    need = (3 + 3 * coeffs.eps2) * 8 * (n + 2)
    require_memory(need, f"a grid of {n} interior points", MeshError)
    h = 1.0 / (n + 1)
    if h > coeffs.eps1:
        raise MeshError(
            "uniform step exceeds the power segment; increase n or eps1"
        )
    pts = graded_map_eval(coeffs, np.arange(n + 2, dtype=float) / (n + 1))
    pts[0] = 0.0
    pts[-1] = 1.0
    if np.any(np.diff(pts) <= 0.0):
        raise MeshError("graded map collapsed a step (grading too strong)")
    return Grid(pts)


# ---------------------------------------------------------------------------
# composite (dyadically refined) meshes


@dataclass(frozen=True)
class CompositeRule:
    """Rule ``n -> n1`` fixing how many points go into the dyadic part."""

    selector: str  # "sqrt" or "log2"

    def __post_init__(self) -> None:
        if self.selector not in ("sqrt", "log2"):
            raise MeshError("selector must be 'sqrt' or 'log2'")

    def __call__(self, n: int) -> int:
        if self.selector == "sqrt":
            return math.isqrt(n)
        return n.bit_length() - 1  # floor(log2 n)


def composite_grid_from_counts(n1: int, n2: int) -> Grid:
    """Composite grid with ``n1`` dyadic points and ``n2`` uniform points.

    The uniform part has step ``h = 1/(n2+1)``; the first cell ``[0, h]`` is
    split at ``x_i = 2**(i-1-n1) * h`` for ``i = 1..n1``.
    """
    if n1 < 1 or n2 < 1:
        raise MeshError("n1 and n2 must be >= 1")
    # the two parts, the points, the steps and the step test's mask
    require_memory(4 * 8 * (n1 + n2 + 2), f"a grid of {n1 + n2} interior points", MeshError)
    h = 1.0 / (n2 + 1)
    dyadic = h * np.exp2(np.arange(-n1, 0, dtype=float))  # x_i = 2^(i-1-n1) h
    uniform = h * np.arange(1, n2 + 1, dtype=float)
    pts = np.concatenate(([0.0], dyadic, uniform, [1.0]))
    return Grid(pts)


def composite_grid(n: int, rule: CompositeRule) -> Grid:
    """Composite grid with ``n`` interior points, split by ``rule``."""
    n1 = rule(n)
    n2 = n - n1
    if not 1 <= n1 < n:
        raise MeshError("rule must yield 1 <= n1 < n")
    return composite_grid_from_counts(n1, n2)
