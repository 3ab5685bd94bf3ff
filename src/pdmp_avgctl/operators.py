"""Quadrature engine for the embedded-chain operators along flow lines.

For a feedback policy the engine evaluates, per start state x,

* the cumulative hazard  Lam(x, t) = int_0^t lambda(phi(x,s), u(.)) ds,
* discounted flow integrals  L_a v = int e^{-a s - Lam} v ds,
* the boundary term          H_a w = e^{-a t* - Lam(t*)} w(z, u_b),
* the post-jump kernel       G_a h = int e^{-a s - Lam} Qh dLam + boundary part,

on a mesh whose nodes include every grid-point passage time.  Each mesh
interval integrates a linear interpolant of the data against the exactly
integrated exponential survival weight (hazard frozen to its trapezoidal
slope), so the jump-mass identity  G_0 1 = 1 - e^{-Lam(end)} + boundary mass
telescopes to 1 in exact arithmetic and quadrature error comes only from the
along-flow variation of the tables.

The control along a line is piecewise constant per inter-grid segment: the
action of the most recently passed grid point governs until the next one,
which is what makes the policy-improvement march (a per-segment backward
dynamic program) minimize over exactly the path class the operators evaluate.

Improvement and the optimality certificate read per-segment one-stage tables
(:class:`SegmentTables`), built once per workspace on first use: for every
segment and action the sojourn weight, the running-cost integral, the
survival across the segment and the sparse weights of Qh = Q h on the grid.
Only rho and Qh change between calls, so neither step re-integrates the mesh.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .flow import FlowSpec, flow_direction, hit_time, _affine_passage, _tabulated_passage, advance
from .numerics import phi0, phi1, interp_weights

DEFAULT_FILL = 8
REFINE_TARGET = 5e-9
MAX_FILL = 2048
MIN_TAIL_INTERVALS = 8
TIE_TOL = 1e-12


def _passage_time(flow: FlowSpec, x: float, z: float) -> float:
    if flow.kind == "trivial":
        return math.inf
    if flow.kind == "affine1d":
        return _affine_passage(flow.alpha0, flow.alpha1, x, z)
    return _tabulated_passage(flow, x, z)


@dataclass(frozen=True)
class _LineGeometry:
    """Policy-independent mesh data for the flow line of one start state."""

    origin_index: int
    times: np.ndarray          # (K+1,)
    states: np.ndarray         # (K+1,)
    dt: np.ndarray             # (K,)
    seg_anchor: np.ndarray     # (K,) grid index whose action governs the interval
    seg_slices: tuple          # ((k0, k1, anchor), ...) contiguous interval runs
    ilo: np.ndarray            # (K+1,) interior-grid interpolation indices
    wlo: np.ndarray            # (K+1,)
    lam_nodes: np.ndarray      # (K+1, n_actions) jump rate at nodes, all actions
    f_nodes: np.ndarray        # (K+1, n_actions) running cost at nodes
    hit: bool
    boundary_index: int
    t_star: float
    truncated: bool
    line_feasible: np.ndarray  # (n_actions,) feasible at every anchor of the line


def _reference_transit(model) -> float:
    """Shortest transit time between adjacent grid points, in flow direction."""
    flow = model.flow
    if flow.kind == "trivial":
        return math.inf
    points = model.grid.points
    best = math.inf
    for i in range(points.size - 1):
        a, b = float(points[i]), float(points[i + 1])
        if flow_direction(flow) > 0:
            t = _passage_time(flow, a, b)
        else:
            t = _passage_time(flow, b, a)
        if 0.0 < t < best:
            best = t
    return best


def _build_geometry(model, j: int, fill: int, ref_transit: float | None = None) -> _LineGeometry:
    flow = model.flow
    points = model.grid.points
    n = points.size
    x = float(points[j])
    if ref_transit is None:
        ref_transit = _reference_transit(model)
    t_star = hit_time(flow, x)
    t_max = model.t_max
    hit = t_star <= t_max
    end = t_star if hit else t_max
    truncated = not hit

    boundary_index = -1
    if hit:
        z = advance(flow, x, t_star)
        boundary_index = int(np.argmin(np.abs(model.grid.boundary_points - z)))

    # grid-point passage times, in flow order, strictly inside (0, end)
    direction = flow_direction(flow)
    anchors = [j]
    edges = [0.0]
    if direction > 0:
        downstream = range(j + 1, n)
    elif direction < 0:
        downstream = range(j - 1, -1, -1)
    else:
        downstream = ()
    for i in downstream:
        t = _passage_time(flow, x, float(points[i]))
        if not (t < end - 1e-15):
            break
        anchors.append(i)
        edges.append(t)
    edges.append(end)

    edges = np.asarray(edges)
    dur = np.diff(edges)
    lam_sup = model.lambda_sup
    # per-segment interval counts: each interval at most 0.25 / lambda_sup
    # long; a budget proportional to segment duration (relative to the
    # model's shortest inter-grid transit), so contracting flows refine evenly
    # in time and every line sees the same spacing; a truncated line's tail
    # takes at least max(MIN_TAIL_INTERVALS, fill) intervals instead
    counts = np.ceil(dur / (0.25 / lam_sup)) if lam_sup > 0.0 else np.zeros(dur.size)
    base_h = ref_transit / fill
    budget = np.where((dur > 0) & math.isfinite(base_h), np.ceil(dur / base_h), float(fill))
    if truncated:
        budget[-1] = max(MIN_TAIL_INTERVALS, fill)
    counts = np.maximum(np.maximum(counts, budget), 1).astype(np.int64)

    # node k of segment s sits at edges[s] + k * (dur[s] / counts[s]), the
    # arithmetic of np.linspace; each segment ends exactly on its edge
    seg = np.repeat(np.arange(dur.size), counts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    k = np.arange(1, bounds[-1] + 1) - bounds[seg]
    times = np.concatenate(([0.0], k * (dur / counts)[seg] + edges[seg]))
    times[bounds[1:]] = edges[1:]
    seg_anchor = np.asarray(anchors, dtype=np.int64)[seg]
    seg_slices = tuple(zip(bounds[:-1].tolist(), bounds[1:].tolist(), anchors))
    dt = np.diff(times)

    if flow.kind == "trivial":
        states = np.full_like(times, x)
    elif flow.kind == "affine1d":
        if flow.alpha1 == 0.0:
            states = x + flow.alpha0 * times
        else:
            ystar = -flow.alpha0 / flow.alpha1
            states = ystar + (x - ystar) * np.exp(flow.alpha1 * times)
    else:
        states = np.empty_like(times)
        states[0] = x
        for k in range(dt.size):
            states[k + 1] = advance(flow, states[k], float(dt[k]))
    if hit:
        states[-1] = float(model.grid.boundary_points[boundary_index])

    ilo, wlo = interp_weights(points, states)
    ilo_e, wlo_e = interp_weights(model.rate_coords, states)
    lam_nodes = (
        wlo_e[:, None] * model.rate_table[ilo_e, :]
        + (1.0 - wlo_e)[:, None] * model.rate_table[np.minimum(ilo_e + 1, model.rate_coords.size - 1), :]
    )
    f_nodes = (
        wlo[:, None] * model.running_cost[ilo, :]
        + (1.0 - wlo)[:, None] * model.running_cost[np.minimum(ilo + 1, n - 1), :]
    )
    line_feasible = model.feasible_mask[anchors].all(axis=0)

    return _LineGeometry(
        origin_index=j,
        times=times,
        states=states,
        dt=dt,
        seg_anchor=seg_anchor,
        seg_slices=seg_slices,
        ilo=ilo,
        wlo=wlo,
        lam_nodes=lam_nodes,
        f_nodes=f_nodes,
        hit=hit,
        boundary_index=boundary_index,
        t_star=t_star,
        truncated=truncated,
        line_feasible=line_feasible,
    )


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

        For op_L-type integrals of a value bounded by ``v_sup``: the state is
        frozen past t_max, so the tail is at most v_sup * tail_weight / (alpha
        + tail rate).  For op_G-type integrals use v_sup = sup |Qh| with
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


def _check_alpha(model, alpha: float) -> None:
    if alpha < -model.constants.c - 1e-12:
        raise ValueError(f"alpha={alpha} below -c={-model.constants.c}; operators undefined there")


# ---------------------------------------------------------------------------
# public operator surface
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class KernelMatrix:
    """Embedded-chain kernel G(x, u_phi(x); .) restricted to the grid."""

    matrix: np.ndarray
    alpha: float
    truncation_bound: float

    @property
    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


@dataclass(frozen=True)
class SegmentTables:
    """Policy-independent one-stage weights of every (line segment, action).

    Segments are numbered line by line in flow order; line j owns segments
    ``line_start[j]:line_start[j + 1]``.  With action a held over segment s
    and the value W carried in at the segment's end, the one-stage value over
    the segment is

        -rho * sojourn[s, a] + cost[s, a] + sum_k weights_k * Qh.flat[cols_k]
        + survival[s, a] * W

    where k runs over the entries with ``rows_k == s * n_a + a`` and
    ``cols_k = grid index * n_a + a``.  These are the sums the interval
    quadrature of :func:`op_L`, :func:`op_calL` and :func:`op_G` forms, taken
    relative to the segment's start.
    """

    sojourn: np.ndarray   # (S, n_a) sum of e^{-rel} d phi0 over the intervals
    cost: np.ndarray      # (S, n_a) running-cost integral
    survival: np.ndarray  # (S, n_a) e^{-hazard across the segment}
    rows: np.ndarray      # (nnz,) s * n_a + a
    cols: np.ndarray      # (nnz,) grid index * n_a + a
    weights: np.ndarray   # (nnz,) weight of Qh at that grid point
    line_start: tuple     # (n + 1,) first segment of each line
    anchors: tuple        # (S,) grid index whose action governs the segment

    def values(self, rho: float, qh: np.ndarray) -> np.ndarray:
        """(S, n_a) one-stage value of each segment with nothing carried in."""
        q = np.bincount(self.rows, weights=self.weights * qh.ravel()[self.cols],
                        minlength=self.sojourn.size)
        return -rho * self.sojourn + self.cost + q.reshape(self.sojourn.shape)


def _segment_tables(model, geometry) -> SegmentTables:
    """One vectorized pass per line over its intervals, summed per segment."""
    n, n_a = model.n_states, model.n_actions
    action = np.arange(n_a)
    parts = []
    line_start = [0]
    anchors = []
    for geom in geometry:
        starts = np.array([k0 for k0, _, _ in geom.seg_slices])
        ends = np.array([k1 for _, k1, _ in geom.seg_slices])
        seg = np.repeat(np.arange(starts.size), ends - starts)  # segment of each interval
        d = geom.dt[:, None]
        lam, f = geom.lam_nodes, geom.f_nodes
        m = 0.5 * (lam[:-1] + lam[1:])
        z = m * d
        p0, p1 = phi0(z), phi1(z)
        cum = np.zeros((z.shape[0] + 1, n_a))
        np.cumsum(z, axis=0, out=cum[1:])
        head = np.exp(-(cum[:-1] - cum[starts][seg])) * d  # survival since the segment's start
        sojourn = np.add.reduceat(head * p0, starts, axis=0)
        cost = np.add.reduceat(head * (f[:-1] * p0 + (f[1:] - f[:-1]) * p1), starts, axis=0)
        survival = np.exp(-(cum[ends] - cum[starts]))

        # interval k weighs Qh at node k by m d (p0 - p1) and at node k + 1 by
        # m d p1; a node reads Qh as wlo Qh[ilo] + (1 - wlo) Qh[ilo + 1]
        c_left = head * m * (p0 - p1)
        c_right = head * m * p1
        ilo, wlo = geom.ilo, geom.wlo[:, None]
        hi = np.minimum(ilo + 1, n - 1)
        grid = np.concatenate([ilo[:-1], hi[:-1], ilo[1:], hi[1:]])
        w = np.concatenate([c_left * wlo[:-1], c_left * (1.0 - wlo[:-1]),
                            c_right * wlo[1:], c_right * (1.0 - wlo[1:])])
        key = np.tile(seg, 4) * n + grid
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        w = np.add.reduceat(w[order], first, axis=0).ravel()
        key = key[first]
        rows = ((key // n + line_start[-1])[:, None] * n_a + action).ravel()
        cols = ((key % n)[:, None] * n_a + action).ravel()
        keep = w != 0.0
        parts.append((sojourn, cost, survival, rows[keep], cols[keep], w[keep]))
        line_start.append(line_start[-1] + starts.size)
        anchors.extend(anchor for _, _, anchor in geom.seg_slices)
    sojourn, cost, survival, rows, cols, weights = (np.concatenate(p) for p in zip(*parts))
    return SegmentTables(sojourn=sojourn, cost=cost, survival=survival, rows=rows, cols=cols,
                         weights=weights, line_start=tuple(line_start), anchors=tuple(anchors))


class OperatorWorkspace:
    """Caches per-line meshes so repeated policy evaluations stay cheap.

    The mesh geometry (grid-passage nodes plus per-segment fill) depends only
    on the model, so every policy is integrated on identical nodes; that is
    what makes improvement values directly comparable across policies.
    """

    def __init__(self, model, fill: int = DEFAULT_FILL):
        self.model = model
        self.fill = int(fill)
        ref = _reference_transit(model)
        self.geometry = [_build_geometry(model, j, self.fill, ref) for j in range(model.n_states)]
        self._assembled: dict = {}
        self._segments: SegmentTables | None = None
        self.refine_diff: float | None = None
        self.refine_converged: bool | None = None

    # -- path construction ---------------------------------------------------

    def policy_paths(self, policy) -> list[PolicyPath]:
        return [_path_from_geometry(self.model, g, policy) for g in self.geometry]

    # -- assembled operator set ----------------------------------------------

    def assemble(self, policy, alpha: float = 0.0):
        """(kernel, ell, cost, paths) for one policy at one discount shift."""
        key = (policy.key(), float(alpha))
        hitv = self._assembled.get(key)
        if hitv is not None:
            return hitv
        model = self.model
        paths = self.policy_paths(policy)
        n = model.n_states
        kernel = np.empty((n, n))
        ell = np.empty(n)
        cost = np.empty(n)
        for j, path in enumerate(paths):
            kernel[j] = _kernel_row(path, alpha)
            ell[j] = op_calL(alpha, path)
            cost[j] = op_L(alpha, model.running_cost, path) + op_H(alpha, model.boundary_cost, path)
        if len(self._assembled) > 256:
            self._assembled.clear()
        out = (kernel, ell, cost, paths)
        self._assembled[key] = out
        return out

    # -- one-stage machinery ---------------------------------------------------

    def one_stage_values(self, policy, rho: float, h: np.ndarray) -> np.ndarray:
        kernel, ell, cost, _ = self.assemble(policy, 0.0)
        return -rho * ell + cost + kernel @ h

    def boundary_minima(self, h: np.ndarray, prev=None):
        """Optimal boundary action and value min_b [r(z,b) + Qh(z,b)] per point."""
        model = self.model
        nb = model.n_boundary
        best_val = np.empty(nb)
        best_act = np.empty(nb, dtype=np.int64)
        qh_b = model.kernel_boundary @ h if nb else np.zeros((0, model.n_actions))
        for zi in range(nb):
            vals = model.boundary_cost[zi] + qh_b[zi]
            masked = np.where(model.boundary_feasible_mask[zi], vals, np.inf)
            pick = int(np.argmin(masked))
            if prev is not None:
                incumbent = int(prev.boundary[zi])
                if masked[incumbent] <= masked[pick] + TIE_TOL * max(1.0, abs(masked[pick])):
                    pick = incumbent
            best_act[zi] = pick
            best_val[zi] = vals[pick]
        return best_act, best_val

    def segment_tables(self) -> SegmentTables:
        """The per-segment one-stage tables, built on first use."""
        if self._segments is None:
            self._segments = _segment_tables(self.model, self.geometry)
        return self._segments

    def improve(self, rho: float, h: np.ndarray, prev):
        """Backward march of the one-stage value along each line; argmin policy.

        Within each inter-grid segment the candidate action is frozen, so the
        march minimizes over exactly the piecewise-constant-per-segment paths
        the operators integrate, and the chosen policy's one-stage value
        reproduces the march value.  Each segment's value is read from the
        segment tables.
        """
        from .model import FeedbackPolicy

        model = self.model
        n = model.n_states
        h = np.asarray(h, dtype=float)
        qh_int = model.kernel_interior @ h  # (n, n_a)
        b_act, b_val = self.boundary_minima(h, prev)
        tables = self.segment_tables()
        values = tables.values(rho, qh_int).tolist()
        survival = tables.survival.tolist()
        feasible = model.action_grid.feasible
        mask = model.feasible_mask
        incumbents = prev.interior.tolist()

        new_interior = np.empty(n, dtype=np.int64)
        for geom in self.geometry:
            if geom.hit:
                w_next = float(b_val[geom.boundary_index])
            else:
                # past the horizon the state is frozen: the stationary value
                # (f - rho + lambda Qh) / lambda of the best feasible action
                ilo, wlo = geom.ilo[-1], geom.wlo[-1]
                qh_end = wlo * qh_int[ilo, :] + (1.0 - wlo) * qh_int[min(ilo + 1, n - 1), :]
                lam_T = np.maximum(geom.lam_nodes[-1], 1e-12)
                station = (geom.f_nodes[-1] - rho + geom.lam_nodes[-1] * qh_end) / lam_T
                last_anchor = geom.seg_slices[-1][2]
                w_next = float(np.min(np.where(mask[last_anchor], station, np.inf)))
            j = geom.origin_index
            for s in range(tables.line_start[j + 1] - 1, tables.line_start[j] - 1, -1):
                anchor = tables.anchors[s]
                v_s, b_s = values[s], survival[s]
                pick, best = None, math.inf
                for a in feasible[anchor]:
                    val = v_s[a] + b_s[a] * w_next
                    if val < best:
                        pick, best = a, val
                incumbent = incumbents[anchor]
                if pick is None or (mask[anchor, incumbent] and v_s[incumbent] + b_s[incumbent] * w_next
                                    <= best + TIE_TOL * max(1.0, abs(best))):
                    pick = incumbent
                w_next = v_s[pick] + b_s[pick] * w_next
            new_interior[j] = pick
        return FeedbackPolicy(interior=new_interior, boundary=b_act)

    def optimality_residual(self, rho: float, h: np.ndarray, policy) -> float:
        """sup_x [ h(x) - min over frozen-action sweeps of the one-stage value ].

        Each feasible action is held constant along the whole flow line (the
        boundary choice is optimized separately); actions infeasible at some
        anchor of the line are excluded.  A line's sweep values follow the
        recursion W <- value_s + survival_s * W over its segments, backward,
        run for all lines at once by position from the line's end.
        """
        model = self.model
        h = np.asarray(h, dtype=float)
        qh_int = model.kernel_interior @ h
        _, b_val = self.boundary_minima(h)
        tables = self.segment_tables()
        values, survival = tables.values(rho, qh_int), tables.survival
        ends = np.asarray(tables.line_start[1:])
        lengths = ends - np.asarray(tables.line_start[:-1])
        w = np.zeros((model.n_states, model.n_actions))
        for geom in self.geometry:
            if geom.hit:
                w[geom.origin_index] = b_val[geom.boundary_index]
        for t in range(int(lengths.max(initial=0))):
            live = np.flatnonzero(lengths > t)
            s = ends[live] - 1 - t
            w[live] = values[s] + survival[s] * w[live]
        feasible = np.array([geom.line_feasible for geom in self.geometry])
        some = feasible.any(axis=1)
        if not some.any():
            raise ValueError("no flow line admits a feasible frozen-action sweep")
        best = np.min(np.where(feasible, w, np.inf), axis=1)
        return float(np.max(h[some] - best[some]))


def build_policy_path(model, policy, state_index: int, *, fill: int = DEFAULT_FILL,
                      workspace: OperatorWorkspace | None = None) -> PolicyPath:
    """Feedback path of ``policy`` from one grid state."""
    if workspace is not None:
        return _path_from_geometry(model, workspace.geometry[state_index], policy)
    geom = _build_geometry(model, state_index, fill)
    return _path_from_geometry(model, geom, policy)


def kernel_matrix(model, policy, alpha: float = 0.0, *,
                  workspace: OperatorWorkspace | None = None,
                  fill: int = DEFAULT_FILL) -> KernelMatrix:
    """Embedded-chain kernel under a feedback policy, one row per grid state."""
    _check_alpha(model, alpha)
    ws = workspace if workspace is not None else OperatorWorkspace(model, fill)
    kernel, _, _, paths = ws.assemble(policy, alpha)
    tail = max((p.tail_weight(alpha) for p in paths), default=0.0)
    return KernelMatrix(matrix=kernel, alpha=alpha, truncation_bound=float(tail))


def refined_workspace(model, policy, *, target: float = REFINE_TARGET,
                      start_fill: int = DEFAULT_FILL, max_fill: int = MAX_FILL) -> OperatorWorkspace:
    """Double per-segment mesh fill until successive operator sets agree.

    Agreement is measured as the max absolute change across kernel entries,
    expected sojourn weights and one-policy costs; the finer workspace is
    returned with the achieved difference recorded on ``refine_diff`` and
    whether it met ``target`` on ``refine_converged``.  Stopping at
    ``max_fill`` short of the target warns with a :class:`RuntimeWarning`.
    """
    fill = int(start_fill)
    ws = OperatorWorkspace(model, fill)
    kernel, ell, cost, _ = ws.assemble(policy, 0.0)
    diff = math.inf
    while fill < max_fill:
        finer = OperatorWorkspace(model, fill * 2)
        k2, l2, c2, _ = finer.assemble(policy, 0.0)
        diff = max(
            float(np.max(np.abs(k2 - kernel))),
            float(np.max(np.abs(l2 - ell))),
            float(np.max(np.abs(c2 - cost))),
        )
        finer.refine_diff = diff
        ws = finer
        kernel, ell, cost = k2, l2, c2
        fill *= 2
        if diff <= target:
            break
    ws.refine_converged = diff <= target
    if not ws.refine_converged:
        warnings.warn(f"mesh refinement stopped at fill {fill} (max_fill {max_fill}) with "
                      f"refine_diff {ws.refine_diff} above the target {target:g}",
                      RuntimeWarning, stacklevel=2)
    return ws
