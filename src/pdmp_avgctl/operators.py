"""Quadrature engine for the embedded-chain operators along flow lines.

For a feedback policy u the engine gives, per start state x, the expected
sojourn weight calL = int e^{-Lam} ds, the cost Lf + Hr (running cost along
the flow plus the survival-weighted boundary charge) and the post-jump
kernel G h = int e^{-Lam} Qh dLam + e^{-Lam(t*)} Q h(z, u_b), where Lam is
the cumulative jump hazard along the flow, at zero discount.

The quadrature runs on a mesh whose nodes include every grid-point passage
time.  Each mesh interval integrates a linear interpolant of the data against
the exactly integrated exponential survival weight (hazard frozen to its
trapezoidal slope), so the jump-mass identity  G 1 = 1 - e^{-Lam(end)} +
boundary mass  telescopes to 1 in exact arithmetic and quadrature error comes
only from the along-flow variation of the tables.

The control along a line is piecewise constant per inter-grid segment: the
action of the most recently passed grid point governs until the next one.
The quadrature is therefore written once, in :func:`_segment_tables`, which
sums every (segment, action) pair's sojourn weight, running-cost integral,
survival across the segment and sparse weights of Qh = Q h on the grid.
Survival is multiplicative along a line (the flow's semigroup property), so
:meth:`OperatorWorkspace.assemble` composes a policy's rows from its
segments' entries, each weighted by the survival of the segments before it;
improvement (a per-segment backward dynamic program) and the optimality
certificate read the same tables, so all three minimize over and evaluate
exactly the same path class.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .flow import (FlowSpec, advance, flow_direction, hit_time, _affine_passage, _tabulated_advance,
                   _tabulated_passage)
from .numerics import interp_weights, phi01

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
        # node times never pass the line's end, so no boundary re-check
        states = np.empty_like(times)
        states[0] = x
        for k in range(dt.size):
            states[k + 1] = _tabulated_advance(flow, states[k], float(dt[k]))
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
class KernelMatrix:
    """Embedded-chain kernel G(x, u_phi(x); .) restricted to the grid.

    ``truncation_bound`` is the largest survival left at the horizon on a
    line that never reaches the boundary: the jump mass its row leaves out.
    """

    matrix: np.ndarray
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
    ``cols_k = grid index * n_a + a``.  Every integral is taken relative to
    the segment's start, so a line's operators are its segments' entries
    weighted by the survival of the segments before them.
    """

    sojourn: np.ndarray   # (S, n_a) sum of e^{-rel} d phi0 over the intervals
    cost: np.ndarray      # (S, n_a) running-cost integral
    survival: np.ndarray  # (S, n_a) e^{-hazard across the segment}
    rows: np.ndarray      # (nnz,) s * n_a + a
    cols: np.ndarray      # (nnz,) grid index * n_a + a
    weights: np.ndarray   # (nnz,) weight of Qh at that grid point
    line_start: tuple     # (n + 1,) first segment of each line
    anchors: np.ndarray   # (S,) grid index whose action governs the segment
    line: np.ndarray      # (S,) line of the segment
    position: np.ndarray  # (S,) place of the segment on its line, from 0

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
    for geom in geometry:
        starts = np.array([k0 for k0, _, _ in geom.seg_slices])
        ends = np.array([k1 for _, k1, _ in geom.seg_slices])
        seg = np.repeat(np.arange(starts.size), ends - starts)  # segment of each interval
        d = geom.dt[:, None]
        lam, f = geom.lam_nodes, geom.f_nodes
        m = lam[:-1] + lam[1:]
        m *= 0.5
        z = m * d
        p0, p1 = phi01(z)
        cum = np.zeros((z.shape[0] + 1, n_a))
        np.cumsum(z, axis=0, out=cum[1:])
        # survival since the segment's start, times the interval length
        head = cum[starts][seg]
        head -= cum[:-1]
        np.exp(head, out=head)
        head *= d
        sojourn = np.add.reduceat(head * p0, starts, axis=0)
        q = p0 - p1
        integrand = f[:-1] * q
        integrand += f[1:] * p1
        integrand *= head
        cost = np.add.reduceat(integrand, starts, axis=0)
        survival = np.exp(-(cum[ends] - cum[starts]))

        # interval k weighs Qh at node k by m d (p0 - p1) and at node k + 1 by
        # m d p1, so a node inside a segment carries both neighbours' weights
        # and a segment's end node its last interval's right weight.  A node
        # reads Qh as wlo Qh[ilo] + (1 - wlo) Qh[ilo + 1]; a segment spans a
        # few consecutive grid points, so the weights are summed per
        # (segment, grid point - the segment's lowest, action)
        head *= m
        right = head * p1
        node = head
        node *= q
        first = node[starts[1:]].copy()
        node[1:] += right[:-1]
        node[starts[1:]] = first
        ilo, wlo = geom.ilo, geom.wlo[:, None]
        hi = np.minimum(ilo + 1, n - 1)
        base = np.minimum.reduceat(np.minimum(ilo[:-1], ilo[1:]), starts)
        width = int(np.max(np.maximum(hi[:-1], hi[1:]) - base[seg])) + 1
        size = starts.size * width * n_a
        w = np.zeros(size)
        for at, where, weight in ((seg, slice(0, -1), node), (np.arange(starts.size), ends, right[ends - 1])):
            offset = at * width - base[at]
            share = wlo[where]
            for grid, part in ((ilo[where], weight * share), (hi[where], weight * (1.0 - share))):
                key = (offset + grid)[:, None] * n_a + action
                w += np.bincount(key.ravel(), weights=part.ravel(), minlength=size)
        flat = np.flatnonzero(w)
        s, rest = np.divmod(flat, width * n_a)
        off, a = np.divmod(rest, n_a)
        rows = (s + line_start[-1]) * n_a + a
        cols = (base[s] + off) * n_a + a
        anchors = np.array([anchor for _, _, anchor in geom.seg_slices])
        parts.append((sojourn, cost, survival, rows, cols, w[flat], anchors))
        line_start.append(line_start[-1] + starts.size)
    sojourn, cost, survival, rows, cols, weights, anchors = (np.concatenate(p) for p in zip(*parts))
    lengths = np.diff(line_start)
    line = np.repeat(np.arange(len(geometry)), lengths)
    position = np.arange(line.size) - np.repeat(line_start[:-1], lengths)
    return SegmentTables(sojourn=sojourn, cost=cost, survival=survival, rows=rows, cols=cols,
                         weights=weights, line_start=tuple(line_start), anchors=anchors,
                         line=line, position=position)


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
        self._hit_lines = np.array([g.origin_index for g in self.geometry if g.hit], dtype=np.int64)
        self._hit_boundary = np.array([g.boundary_index for g in self.geometry if g.hit], dtype=np.int64)
        self._assembled: dict = {}
        self._segments: SegmentTables | None = None
        self.refine_diff: float | None = None
        self.refine_converged: bool | None = None

    # -- assembled operator set ----------------------------------------------

    def assemble(self, policy, alpha: float = 0.0):
        """(kernel, ell, cost, survival) of one policy, composed from the segment tables.

        Line j reads segment s at the action of its anchor; with P_s the
        product of the survivals of the line's earlier segments,

            ell[j]  = sum_s P_s sojourn_s
            cost[j] = sum_s P_s cost_s + P_end r(z, u_b)
            G[j]    = sum_s P_s (Q weights_s) . Q_interior + P_end Q_boundary(z, u_b)

        with the boundary terms on lines that hit it.  ``survival[j]`` is
        P_end, the probability of no jump up to the line's end.  Only zero
        discount is served; ``alpha`` is part of the cache key.
        """
        if alpha != 0.0:
            raise ValueError(f"assemble serves only alpha = 0, got alpha={alpha}")
        key = (policy.key(), float(alpha))
        hitv = self._assembled.get(key)
        if hitv is not None:
            return hitv
        model = self.model
        n, n_a = model.n_states, model.n_actions
        tables = self.segment_tables()
        seg = np.arange(tables.anchors.size)
        act = policy.interior[tables.anchors]
        # running products along each line, one row per line padded with ones
        surv = np.ones((n, int(tables.position.max()) + 2))
        surv[tables.line, tables.position + 1] = tables.survival[seg, act]
        np.cumprod(surv, axis=1, out=surv)
        prefix = surv[tables.line, tables.position]
        survival = surv[:, -1].copy()
        ell = np.bincount(tables.line, weights=prefix * tables.sojourn[seg, act], minlength=n)
        cost = np.bincount(tables.line, weights=prefix * tables.cost[seg, act], minlength=n)
        entry_seg, entry_act = np.divmod(tables.rows, n_a)
        pick = entry_act == act[entry_seg]
        entry_seg = entry_seg[pick]
        flat = np.bincount(tables.line[entry_seg] * (n * n_a) + tables.cols[pick],
                           weights=prefix[entry_seg] * tables.weights[pick], minlength=n * n * n_a)
        kernel = flat.reshape(n, n * n_a) @ model.kernel_interior.reshape(n * n_a, n)
        hit, z = self._hit_lines, self._hit_boundary
        b_act = policy.boundary[z]
        kernel[hit] += survival[hit, None] * model.kernel_boundary[z, b_act]
        cost[hit] += survival[hit] * model.boundary_cost[z, b_act]
        if len(self._assembled) > 256:
            self._assembled.clear()
        out = (kernel, ell, cost, survival)
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
        anchors = tables.anchors.tolist()
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
                anchor = anchors[s]
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


def kernel_matrix(model, policy, *, workspace: OperatorWorkspace | None = None,
                  fill: int = DEFAULT_FILL) -> KernelMatrix:
    """Embedded-chain kernel under a feedback policy, one row per grid state."""
    ws = workspace if workspace is not None else OperatorWorkspace(model, fill)
    kernel, _, _, survival = ws.assemble(policy)
    truncated = np.array([g.truncated for g in ws.geometry])
    return KernelMatrix(matrix=kernel, truncation_bound=float(survival[truncated].max(initial=0.0)))


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
