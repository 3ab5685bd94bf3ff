"""Deterministic motion between jumps: flows and boundary hitting times.

Flow kinds are restricted to monotone 1-D motion:

* ``trivial``      -- the state never moves, so the boundary is never hit;
* ``affine1d``     -- dy/dt = alpha0 + alpha1 * y, solved in closed form;
* ``tabulated1d``  -- velocity sampled on the state grid; the piecewise-linear
  interpolant is integrated exactly cell by cell (log/exp closed forms), which
  keeps motion monotone and makes hitting times bisection-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import Table1D

FLOW_KINDS = ("trivial", "affine1d", "tabulated1d")

#: tolerance used when deciding whether an advance overruns the boundary
PAST_BOUNDARY_TOL = 1e-9


class PastBoundaryError(ValueError):
    """Raised when advance() is asked to move beyond the hitting time."""


@dataclass(frozen=True)
class FlowSpec:
    """Flow description plus the domain data needed to detect boundary hits.

    ``t_max`` is the truncation horizon used wherever the flow never reaches
    the boundary; the model loader resolves it to 50/c when the file omits it.
    """

    kind: str
    alpha0: float = 0.0
    alpha1: float = 0.0
    velocity: Table1D | None = None
    t_max: float = 50.0
    lo: float = 0.0
    hi: float = 1.0
    boundary: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def fixed_point(self) -> float | None:
        """Zero-velocity point of an affine flow, if any."""
        if self.kind == "affine1d" and self.alpha1 != 0.0:
            return -self.alpha0 / self.alpha1
        return None


def validate_flow(flow: FlowSpec) -> list[str]:
    """Structural checks: known kind, monotone velocity on the domain."""
    problems = []
    if flow.kind not in FLOW_KINDS:
        problems.append(f"unknown flow kind {flow.kind!r}")
        return problems
    if flow.kind == "affine1d":
        if not math.isfinite(flow.alpha0) or not math.isfinite(flow.alpha1):
            return [f"affine1d coefficients must be finite, got alpha0={flow.alpha0!r}, alpha1={flow.alpha1!r}"]
        v_lo = flow.alpha0 + flow.alpha1 * flow.lo
        v_hi = flow.alpha0 + flow.alpha1 * flow.hi
        if v_lo == 0.0 and v_hi == 0.0:
            problems.append("affine1d flow has zero velocity everywhere; use kind 'trivial'")
        elif v_lo * v_hi < 0.0:
            problems.append(
                "affine1d velocity changes sign inside the domain "
                f"(fixed point at {flow.fixed_point})"
            )
    if flow.kind == "tabulated1d":
        if flow.velocity is None:
            problems.append("tabulated1d flow requires a velocity table")
        else:
            v = flow.velocity.values
            if not np.all(np.isfinite(v)):
                problems.append("tabulated1d velocity must be finite")
            elif np.any(v == 0.0) or (np.any(v > 0) and np.any(v < 0)):
                problems.append("tabulated1d velocity must have one strict sign on the grid")
    return problems


def velocity_at(flow: FlowSpec, x: np.ndarray) -> np.ndarray:
    """The flow's velocity at each of the points ``x``."""
    if flow.kind == "trivial":
        return np.zeros(x.shape)
    if flow.kind == "affine1d":
        return flow.alpha0 + flow.alpha1 * x
    return flow.velocity(x)


def flow_direction(flow: FlowSpec) -> int:
    """+1 for motion toward larger coordinates, -1 toward smaller, 0 at rest."""
    if flow.kind == "trivial":
        return 0
    if flow.kind == "affine1d":
        v_lo = flow.alpha0 + flow.alpha1 * flow.lo
        v_hi = flow.alpha0 + flow.alpha1 * flow.hi
        v = v_lo if v_lo != 0.0 else v_hi
        return int(np.sign(v))
    return int(np.sign(flow.velocity.values[0]))


def _affine_passage(a0: float, a1: float, x: float, z: float) -> float:
    """Time for dy/dt = a0 + a1*y to move from x to z; inf if unreachable."""
    if a1 == 0.0:
        if a0 == 0.0:
            return math.inf
        t = (z - x) / a0
        return t if t > 0.0 else math.inf
    ystar = -a0 / a1
    if x == ystar:
        return math.inf
    ratio = (z - ystar) / (x - ystar)
    if ratio <= 0.0:
        return math.inf
    t = math.log(ratio) / a1
    return t if t > 0.0 else math.inf


def _tabulated_cell(flow: FlowSpec, y: float, direction: int):
    """Current cell of the velocity interpolant: (edge ahead, v(y), slope)."""
    coords = flow.velocity.coords
    values = flow.velocity.values
    n = coords.size
    if direction > 0:
        if y >= coords[-1]:
            return math.inf, float(values[-1]), 0.0
        if y < coords[0]:
            return float(coords[0]), float(values[0]), 0.0
        i = min(int(np.searchsorted(coords, y, side="right")) - 1, n - 2)
        s = (values[i + 1] - values[i]) / (coords[i + 1] - coords[i])
        return float(coords[i + 1]), float(values[i] + s * (y - coords[i])), s
    if y <= coords[0]:
        return -math.inf, float(values[0]), 0.0
    if y > coords[-1]:
        return float(coords[-1]), float(values[-1]), 0.0
    i = min(max(int(np.searchsorted(coords, y, side="left")) - 1, 0), n - 2)
    s = (values[i + 1] - values[i]) / (coords[i + 1] - coords[i])
    return float(coords[i]), float(values[i] + s * (y - coords[i])), s


def _cell_exit_time(y: float, edge: float, vy: float, s: float) -> float:
    """Exact traversal time of the linear-velocity cell from y to its edge."""
    if not math.isfinite(edge):
        return math.inf
    v_edge = vy + s * (edge - y)
    if s == 0.0 or abs(v_edge - vy) <= 1e-14 * abs(vy):
        return (edge - y) / (0.5 * (vy + v_edge))
    return math.log(v_edge / vy) / s


def _cell_move(y: float, vy: float, s: float, tau: float) -> float:
    """Position after time tau inside one linear-velocity cell."""
    if s == 0.0:
        return y + vy * tau
    return y + vy * math.expm1(s * tau) / s


def _tabulated_advance(flow: FlowSpec, x: float, t: float) -> float:
    direction = flow_direction(flow)
    y = float(x)
    remaining = float(t)
    while remaining > 0.0:
        edge, vy, s = _tabulated_cell(flow, y, direction)
        tau_exit = _cell_exit_time(y, edge, vy, s)
        if tau_exit > remaining:
            return _cell_move(y, vy, s, remaining)
        y = edge
        remaining -= tau_exit
    return y


def _tabulated_passage(flow: FlowSpec, x: float, z: float) -> float:
    direction = flow_direction(flow)
    if (z - x) * direction <= 0.0:
        return math.inf
    y = float(x)
    total = 0.0
    while True:
        edge, vy, s = _tabulated_cell(flow, y, direction)
        past_edge = (z - edge) * direction >= 0.0 if math.isfinite(edge) else False
        if not past_edge:
            return total + _cell_exit_time(y, z, vy, s)
        total += _cell_exit_time(y, edge, vy, s)
        y = edge


def passage_time(flow: FlowSpec, x: float, z: float) -> float:
    """Time for the flow from x to reach z; inf if it never does (always, for a trivial flow)."""
    if flow.kind == "trivial":
        return math.inf
    if flow.kind == "affine1d":
        return _affine_passage(flow.alpha0, flow.alpha1, x, z)
    return _tabulated_passage(flow, x, z)


def hit_time(flow: FlowSpec, x: float) -> float:
    """First time the flow from x reaches a boundary point; inf if never."""
    if flow.kind == "trivial" or flow.boundary.size == 0:
        return math.inf
    direction = flow_direction(flow)
    if direction > 0:
        ahead = flow.boundary[flow.boundary > x]
        target = float(ahead.min()) if ahead.size else None
    elif direction < 0:
        ahead = flow.boundary[flow.boundary < x]
        target = float(ahead.max()) if ahead.size else None
    else:
        target = None
    if target is None:
        return math.inf
    return passage_time(flow, float(x), target)


def advance(flow: FlowSpec, x: float, t: float) -> float:
    """State phi(x, t); raises PastBoundaryError when t overruns t*(x)."""
    if t < 0.0:
        raise ValueError(f"advance needs t >= 0, got {t}")
    if flow.kind == "trivial":
        return float(x)
    t_star = hit_time(flow, x)
    if t > t_star + PAST_BOUNDARY_TOL * max(1.0, t_star):
        raise PastBoundaryError(f"t={t} exceeds the boundary hitting time t*={t_star}")
    t_eff = min(float(t), t_star)
    if flow.kind == "affine1d":
        if flow.alpha1 == 0.0:
            return float(x) + flow.alpha0 * t_eff
        ystar = -flow.alpha0 / flow.alpha1
        return ystar + (float(x) - ystar) * math.exp(flow.alpha1 * t_eff)
    return _tabulated_advance(flow, float(x), t_eff)


def flow_derivative(flow: FlowSpec, h: Table1D, x: float | np.ndarray) -> float | np.ndarray:
    """Directional derivative of h along the flow at x, from grid differences.

    Central where x has table neighbors on both sides, one-sided at the ends
    of the flow line.  Exactly zero for the trivial flow.  ``x`` is a point,
    which gives a float, or an array of points, which gives an array of
    their derivatives.
    """
    points = np.asarray(x, dtype=float)
    xs = points.reshape(-1)
    v = velocity_at(flow, xs)
    coords = h.coords
    values = h.values
    n = coords.size
    out = np.zeros(xs.size)
    if n >= 2:
        # x lies on its nearest table point (the lower on a tie) when within
        # rounding of it, else between table points i and i + 1
        i = np.searchsorted(coords, xs)
        below, above = np.maximum(i - 1, 0), np.minimum(i, n - 1)
        j = np.where(np.abs(coords[below] - xs) <= np.abs(coords[above] - xs), below, above)
        on = np.abs(coords[j] - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs))
        a = np.where(on, np.maximum(j - 1, 0), np.minimum(below, n - 2))
        b = np.where(on, np.minimum(j + 1, n - 1), a + 1)
        slope = (values[b] - values[a]) / (coords[b] - coords[a])
        out = np.where(v == 0.0, 0.0, slope * v)
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)
