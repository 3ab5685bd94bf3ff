"""Per-path quadrature of the one-stage operators, kept as a test reference.

The library assembles every policy's operators from its per-segment tables
and simulates from per-line tables read off the mesh geometry.  This module
integrates the same operators the direct way, one :class:`PolicyPath` (a
policy's feedback path from one grid state) at a time over every mesh
interval of the line, at any discount shift ``alpha >= -c``:

* the cumulative hazard  Lam(x, t) = int_0^t lambda(phi(x,s), u(.)) ds,
* discounted flow integrals  L_a v = int e^{-a s - Lam} v ds,
* the boundary term          H_a w = e^{-a t* - Lam(t*)} w(z, u_b),
* the post-jump kernel       G_a h = int e^{-a s - Lam} Qh dLam + boundary part.

Each interval integrates a linear interpolant of the data against the exactly
integrated exponential survival weight (hazard frozen to its trapezoidal
slope), which is the rule the segment tables sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pdmp_avgctl.numerics import phi0, phi1
from pdmp_avgctl.operators import DEFAULT_FILL, _build_geometry, _LineGeometry


@dataclass(frozen=True)
class PolicyPath:
    """The feedback path of a policy from one grid state, ready to integrate.

    ``node_actions`` samples the feedback selector on the mesh (the interval
    action is the left node's, matching the piecewise-constant-per-segment
    control); ``cum_hazard`` holds Lam at the nodes.
    """

    model: object
    origin_index: int
    times: np.ndarray
    states: np.ndarray
    dt: np.ndarray
    node_actions: np.ndarray      # (K+1,)
    interval_actions: np.ndarray  # (K,)
    lam_left: np.ndarray          # (K,)
    lam_right: np.ndarray         # (K,)
    hazard_slope: np.ndarray      # (K,) trapezoidal slope of Lam
    cum_hazard: np.ndarray        # (K+1,)
    hit: bool
    boundary_index: int
    boundary_action: int
    t_star: float
    truncated: bool
    ilo: np.ndarray
    wlo: np.ndarray

    @property
    def origin(self) -> float:
        return float(self.states[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def node_table_values(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Table values at interval endpoints under each interval's action."""
        a = self.interval_actions
        ilo, wlo = self.ilo, self.wlo
        nmax = table.shape[0] - 1
        left = wlo[:-1] * table[ilo[:-1], a] + (1.0 - wlo[:-1]) * table[np.minimum(ilo[:-1] + 1, nmax), a]
        right = wlo[1:] * table[ilo[1:], a] + (1.0 - wlo[1:]) * table[np.minimum(ilo[1:] + 1, nmax), a]
        return left, right

    def tail_weight(self, alpha: float) -> float:
        """Survival weight left beyond the truncation horizon (0 when the line hits)."""
        if not self.truncated:
            return 0.0
        return float(np.exp(-alpha * self.times[-1] - self.cum_hazard[-1]))

    def flow_integral_tail_bound(self, alpha: float, v_sup: float) -> float:
        """Bound on the neglected tail of a flow integral past the horizon.

        For flow integrals (L v) of a value bounded by ``v_sup``: the state is
        frozen past t_max, so the tail is at most v_sup * tail_weight / (alpha
        + tail rate).  For kernel integrals (G h) use v_sup = sup |Qh| with
        alpha >= 0, where the tail is at most v_sup * tail_weight outright.
        """
        if not self.truncated:
            return 0.0
        rate = float(self.lam_right[-1]) if self.dt.size else 0.0
        denom = max(alpha + rate, 1e-12)
        return abs(v_sup) * self.tail_weight(alpha) / denom


def _path_from_geometry(model, geom: _LineGeometry, policy) -> PolicyPath:
    a = policy.interior[geom.seg_anchor]
    k_idx = np.arange(geom.dt.size)
    lam_left = geom.lam_nodes[k_idx, a]
    lam_right = geom.lam_nodes[k_idx + 1, a]
    slope = 0.5 * (lam_left + lam_right)
    cum = np.empty(geom.times.size)
    cum[0] = 0.0
    np.cumsum(slope * geom.dt, out=cum[1:])
    boundary_action = int(policy.boundary[geom.boundary_index]) if geom.hit else -1
    node_actions = np.append(a, a[-1])
    return PolicyPath(
        model=model,
        origin_index=geom.origin_index,
        times=geom.times,
        states=geom.states,
        dt=geom.dt,
        node_actions=node_actions,
        interval_actions=a,
        lam_left=lam_left,
        lam_right=lam_right,
        hazard_slope=slope,
        cum_hazard=cum,
        hit=geom.hit,
        boundary_index=geom.boundary_index,
        boundary_action=boundary_action,
        t_star=geom.t_star,
        truncated=geom.truncated,
        ilo=geom.ilo,
        wlo=geom.wlo,
    )


def policy_paths(ws, policy) -> list[PolicyPath]:
    """The feedback path of ``policy`` from every grid state, on ``ws``'s mesh."""
    return [_path_from_geometry(ws.model, g, policy) for g in ws.geometry]


def _check_alpha(model, alpha: float) -> None:
    if alpha < -model.constants.c - 1e-12:
        raise ValueError(f"alpha={alpha} below -c={-model.constants.c}; operators undefined there")


def build_policy_path(model, policy, state_index: int, *, fill: int = DEFAULT_FILL,
                      workspace=None) -> PolicyPath:
    """Feedback path of ``policy`` from one grid state."""
    if workspace is not None:
        return _path_from_geometry(model, workspace.geometry[state_index], policy)
    geom = _build_geometry(model, state_index, fill)
    return _path_from_geometry(model, geom, policy)


def cum_rate(path: PolicyPath, t: float) -> float:
    """Cumulative jump hazard Lam(x, t) along the path; piecewise linear."""
    if t < 0.0 or t > path.end_time * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"t={t} outside the path horizon [0, {path.end_time}]")
    return float(np.interp(t, path.times, path.cum_hazard))


def _interval_weights(path: PolicyPath, alpha: float):
    z = (alpha + path.hazard_slope) * path.dt
    head = np.exp(-alpha * path.times[:-1] - path.cum_hazard[:-1])
    return head, z, phi0(z), phi1(z)


def op_L(alpha: float, v: np.ndarray, path: PolicyPath) -> float:
    """Discounted flow integral of a (state, action) table along the path.

    On lines truncated at the horizon the neglected tail is bounded by
    ``path.flow_integral_tail_bound(alpha, sup |v|)``.
    """
    _check_alpha(path.model, alpha)
    v = np.asarray(v, dtype=float)
    head, _, p0, p1 = _interval_weights(path, alpha)
    v_left, v_right = path.node_table_values(v)
    return float(np.sum(head * path.dt * (v_left * p0 + (v_right - v_left) * p1)))


def op_calL(alpha: float, path: PolicyPath) -> float:
    """Expected discounted sojourn weight: op_L with v identically one."""
    _check_alpha(path.model, alpha)
    head, _, p0, _ = _interval_weights(path, alpha)
    return float(np.sum(head * path.dt * p0))


def op_H(alpha: float, w: np.ndarray, path: PolicyPath) -> float:
    """Boundary-hit term; exactly zero when the line never reaches the boundary."""
    _check_alpha(path.model, alpha)
    if not path.hit:
        return 0.0
    surv = math.exp(-alpha * path.end_time - path.cum_hazard[-1])
    return float(surv * np.asarray(w, dtype=float)[path.boundary_index, path.boundary_action])


def op_G(alpha: float, h: np.ndarray, path: PolicyPath) -> float:
    """Expected discounted value of h at the post-jump state."""
    _check_alpha(path.model, alpha)
    model = path.model
    h = np.asarray(h, dtype=float)
    qh = model.kernel_interior @ h  # (n_states, n_actions)
    head, _, p0, p1 = _interval_weights(path, alpha)
    qh_left, qh_right = path.node_table_values(qh)
    mass = path.hazard_slope * path.dt
    total = float(np.sum(head * mass * (qh_left * p0 + (qh_right - qh_left) * p1)))
    if path.hit:
        surv = math.exp(-alpha * path.end_time - path.cum_hazard[-1])
        total += surv * float(model.kernel_boundary[path.boundary_index, path.boundary_action, :] @ h)
    return total


def _kernel_row(path: PolicyPath, alpha: float) -> np.ndarray:
    model = path.model
    n = model.n_states
    n_a = model.n_actions
    head, _, p0, p1 = _interval_weights(path, alpha)
    mass = head * path.hazard_slope * path.dt
    c_left = mass * (p0 - p1)
    c_right = mass * p1
    a = path.interval_actions
    ilo = path.ilo
    wlo = path.wlo
    hi = np.minimum(ilo + 1, n - 1)
    size = n * n_a
    flat = (
        np.bincount(ilo[:-1] * n_a + a, weights=c_left * wlo[:-1], minlength=size)
        + np.bincount(hi[:-1] * n_a + a, weights=c_left * (1.0 - wlo[:-1]), minlength=size)
        + np.bincount(ilo[1:] * n_a + a, weights=c_right * wlo[1:], minlength=size)
        + np.bincount(hi[1:] * n_a + a, weights=c_right * (1.0 - wlo[1:]), minlength=size)
    )
    row = np.einsum("xa,xay->y", flat.reshape(n, n_a), model.kernel_interior)
    if path.hit:
        surv = math.exp(-alpha * path.end_time - path.cum_hazard[-1])
        row = row + surv * model.kernel_boundary[path.boundary_index, path.boundary_action, :]
    return row


def reference_assemble(ws, policy, alpha: float = 0.0):
    """(kernel, ell, cost) of one policy, integrated path by path on ``ws``'s mesh."""
    model = ws.model
    n = model.n_states
    kernel = np.empty((n, n))
    ell = np.empty(n)
    cost = np.empty(n)
    for j, path in enumerate(policy_paths(ws, policy)):
        kernel[j] = _kernel_row(path, alpha)
        ell[j] = op_calL(alpha, path)
        cost[j] = op_L(alpha, model.running_cost, path) + op_H(alpha, model.boundary_cost, path)
    return kernel, ell, cost
