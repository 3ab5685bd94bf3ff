"""Per-line meshes, per-line compositions and per-path quadrature of the operators, kept as a test reference.

The library meshes every inter-grid segment and every chain end's exit piece
once, shares them among the flow lines that pass them, and runs every
operator as one backward pass over the grid positions.  This module keeps
the engines that came before it, on the library's line rule:

* one mesh per line (:func:`_build_geometry`), with every downstream segment
  meshed again from the line's own start, and its per-(line, segment) tables
  (:func:`_segment_tables`);
* the library's mesh with every exit piece at the count rule's intervals
  (:func:`meshed_workspace`), as it was before a constant exit piece became
  one interval;
* a mesh's per-piece running sums as one ``np.cumsum`` per piece
  (:func:`looped_running_sums`), as the library summed them before it laid
  the pieces side by side;
* the piece tables (:func:`gathered_segment_tables`) and the audit's piece
  integrals (:func:`gathered_piece_integrals`) on the interval layout, each
  interval's node data gathered through its left node
  (:func:`interval_left`), as the library built them before it laid every
  per-interval quantity out as node pairs of the mesh;
* on the library's shared pieces, the per-line compositions: each line's
  pieces as an incidence list (:func:`incidence`), the operators as running
  survival products along it (:func:`composed_assemble`), the improvement
  as a backward march along each line (:func:`marched_improve`) and the
  certificate as a sweep of all lines by position from their ends
  (:func:`swept_residual`), and the certificate as its own numpy backward
  pass over the grid positions (:func:`numpy_optimality_residual`);
* on the library's piece tables, each piece's kernel row as a dense
  (P, n * n_a) product with the whole interior kernel
  (:func:`dense_assemble`) and the one-stage values as sparse per-piece
  sums (:func:`sparse_values`), as the library computed them before it
  read the tables' band of Q weights directly.

It also keeps a check on the library's assembled operators that no library
caller needs: the bias's defect on a doubled mesh
(:func:`doubled_mesh_residual`).

On the per-line meshes it integrates the operators the direct way, one
:class:`PolicyPath` (a policy's feedback path from one grid state) at a time
over every mesh interval of the line, at any discount shift ``alpha >= -c``:

* the cumulative hazard  Lam(x, t) = int_0^t lambda(phi(x,s), u(.)) ds,
* discounted flow integrals  L_a v = int e^{-a s - Lam} v ds,
* the boundary term          H_a w = e^{-a t* - Lam(t*)} w(z, u_b),
* the post-jump kernel       G_a h = int e^{-a s - Lam} Qh dLam + boundary part.

Each interval integrates a linear interpolant of the data against the exactly
integrated exponential survival weight (hazard frozen to its trapezoidal
slope), which is the rule the segment tables sum.  Past the end of a line
that stops at t_max the state is frozen at the line's last node, under the
last piece's action: the jump rate lam, running cost f and kernel row there
hold, so the tail adds S / (a + lam) times v to L_a v and S lam / (a + lam)
times Qh to G_a h, S = e^{-a T - Lam(T)} (:func:`_tail_factor`); every
reference here closes that tail in its own arithmetic, and one whose lam is
at or below ``RATE_FLOOR`` never jumps and adds nothing.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from unittest import mock

import numpy as np

from pdmp_avgctl import operators
from pdmp_avgctl.flow import advance, flow_direction, hit_time, passage_time, _tabulated_advance
from pdmp_avgctl.model import FeedbackPolicy
from pdmp_avgctl.numerics import _SERIES_CUTOFF, Table1D, interp_weights, phi01
from pdmp_avgctl.operators import (DEFAULT_FILL, MIN_TAIL_INTERVALS, RATE_FLOOR, TIE_TOL, OperatorWorkspace,
                                   SegmentTables)


def phi0(z):
    """(1 - exp(-z)) / z, stable near z = 0; phi0(0) = 1."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    exact = -np.expm1(-zs) / zs
    series = 1.0 - z / 2.0 + z * z / 6.0
    return np.where(small, series, exact)


def phi1(z):
    """(1 - (1 + z) exp(-z)) / z^2, stable near z = 0; phi1(0) = 1/2."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SERIES_CUTOFF
    zs = np.where(small, 1.0, z)
    exact = (-np.expm1(-zs) / zs - np.exp(-zs)) / zs
    series = 0.5 - z / 3.0 + z * z / 8.0
    return np.where(small, series, exact)


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
            t = passage_time(flow, a, b)
        else:
            t = passage_time(flow, b, a)
        if 0.0 < t < best:
            best = t
    return best


def _line_states(flow, x: float, times: np.ndarray) -> np.ndarray:
    """The states at ``times`` along the flow line from ``x``."""
    if flow.kind == "trivial":
        return np.full_like(times, x)
    if flow.kind == "affine1d":
        if flow.alpha1 == 0.0:
            return x + flow.alpha0 * times
        ystar = -flow.alpha0 / flow.alpha1
        states = ystar + (x - ystar) * np.exp(flow.alpha1 * times)
        states[0] = x  # the state at time 0 is x, which the formula need not round back to
        return states
    # node times never pass the line's end, so no boundary re-check
    states = np.empty_like(times)
    states[0] = x
    for k in range(times.size - 1):
        states[k + 1] = _tabulated_advance(flow, states[k], float(times[k + 1] - times[k]))
    return states


def exit_is_constant(model, anchor: int, duration: float) -> bool:
    """Whether the exit piece from grid point ``anchor`` is one interval.

    It is when its two end states on a one-interval mesh of its own are
    equal, or lie at or beyond the same end of the rate coordinates.
    """
    start, end = _line_states(model.flow, float(model.grid.points[anchor]), np.array([0.0, duration])).tolist()
    lo, hi = model.rate_coords[0], model.rate_coords[-1]
    return start == end or (start <= lo and end <= lo) or (start >= hi and end >= hi)


def _build_geometry(model, j: int, fill: int, ref_transit: float | None = None,
                    counts: np.ndarray | None = None) -> _LineGeometry:
    """The mesh of line ``j``, every segment timed from the line's start.

    ``counts`` overrides the per-segment interval counts the rule gives.
    """
    flow = model.flow
    points = model.grid.points
    n = points.size
    x = float(points[j])
    if ref_transit is None:
        ref_transit = _reference_transit(model)
    t_star = hit_time(flow, x)

    # grid-point passage times, in flow order, before the boundary hit; the
    # last grid point passed starts the exit piece, which stops at t_max
    # when the boundary is farther than t_max from there
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
        t = passage_time(flow, x, float(points[i]))
        if not (t < t_star):
            break
        anchors.append(i)
        edges.append(t)
    hit = hit_time(flow, float(points[anchors[-1]])) <= model.t_max
    end = t_star if hit else edges[-1] + model.t_max
    truncated = not hit
    edges.append(end)

    boundary_index = -1
    if hit:
        z = advance(flow, x, t_star)
        boundary_index = int(np.argmin(np.abs(model.grid.boundary_points - z)))

    edges = np.asarray(edges)
    dur = np.diff(edges)
    lam_sup = model.lambda_sup
    # per-segment interval counts: each interval at most 0.25 / lambda_sup
    # long; a budget proportional to segment duration (relative to the
    # model's shortest inter-grid transit), so contracting flows refine evenly
    # in time and every line sees the same spacing; a truncated line's tail
    # takes at least max(MIN_TAIL_INTERVALS, fill) intervals instead; a
    # constant exit piece (exit_is_constant) takes one
    if counts is None:
        counts = np.ceil(dur / (0.25 / lam_sup)) if lam_sup > 0.0 else np.zeros(dur.size)
        base_h = ref_transit / fill
        budget = np.where((dur > 0) & math.isfinite(base_h), np.ceil(dur / base_h), float(fill))
        if truncated:
            budget[-1] = max(MIN_TAIL_INTERVALS, fill)
        counts = np.maximum(np.maximum(counts, budget), 1).astype(np.int64)
        if exit_is_constant(model, anchors[-1], float(dur[-1])):
            counts[-1] = 1
    counts = np.asarray(counts, dtype=np.int64)

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

    states = _line_states(flow, x, times)
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
class LineSegmentTables:
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


def _segment_tables(model, geometry) -> LineSegmentTables:
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
        end_weight = right[ends - 1]
        if geom.truncated:
            # the frozen tail past t_max, on the line's last segment and node
            closed = np.where(lam[-1] > RATE_FLOOR, survival[-1], 0.0)
            rate = np.maximum(lam[-1], RATE_FLOOR)
            sojourn[-1] += closed / rate
            cost[-1] += closed * f[-1] / rate
            end_weight[-1] += closed
            survival[-1] -= closed
        ilo, wlo = geom.ilo, geom.wlo[:, None]
        hi = np.minimum(ilo + 1, n - 1)
        base = np.minimum.reduceat(np.minimum(ilo[:-1], ilo[1:]), starts)
        width = int(np.max(np.maximum(hi[:-1], hi[1:]) - base[seg])) + 1
        size = starts.size * width * n_a
        w = np.zeros(size)
        for at, where, weight in ((seg, slice(0, -1), node), (np.arange(starts.size), ends, end_weight)):
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
    return LineSegmentTables(sojourn=sojourn, cost=cost, survival=survival, rows=rows, cols=cols,
                         weights=weights, line_start=tuple(line_start), anchors=anchors,
                         line=line, position=position)


_LINES = weakref.WeakKeyDictionary()


def meshed_workspace(model, fill: int) -> OperatorWorkspace:
    """A workspace at ``fill`` that marks no exit piece constant, so every
    exit piece keeps the count rule's intervals, as before constant pieces
    were meshed as one interval.  Its chain geometry is its own: the model's
    shared one is left as it was."""
    with mock.patch.object(operators, "_constant_exits", lambda model, x0, dur: np.zeros(x0.size, bool)):
        chain = operators._chain_geometry(model)
    with mock.patch.dict(vars(model), chain_geometry=chain):
        return OperatorWorkspace(model, fill)


def interval_left(mesh) -> np.ndarray:
    """(K,) the node at the left end of each interval of ``mesh``, pieces in order."""
    counts = np.diff(mesh.first)
    return np.arange(mesh.first[-1]) + np.repeat(np.arange(counts.size), counts)


def looped_running_sums(mesh, z: np.ndarray) -> np.ndarray:
    """``mesh.running_sums`` by one ``np.cumsum`` per piece, of ``z`` given per interval.

    ``z[k]`` belongs to interval k, the pair at node ``interval_left(mesh)[k]``.
    """
    out = np.zeros((mesh.times.size,) + z.shape[1:])
    first = mesh.first.tolist()
    for p, node in enumerate(mesh.node_start[:-1].tolist()):
        k0, k1 = first[p], first[p + 1]
        np.cumsum(z[k0:k1], axis=0, out=out[node + 1:node + 1 + k1 - k0])
    return out


def gathered_segment_tables(model, mesh, truncated_tail) -> SegmentTables:
    """``operators._segment_tables`` on the interval layout: one vectorized
    pass over every piece's intervals, each reading its two nodes' data by
    gathers through its left node, summed per piece; then each piece that
    stops at t_max (``truncated_tail``) gains its frozen tail, one piece at
    a time."""
    n, n_a = model.n_states, model.n_actions
    first = mesh.first
    starts = first[:-1]
    n_pieces = starts.size
    left = interval_left(mesh)
    d = (mesh.times[left + 1] - mesh.times[left])[:, None]
    lam, f = mesh.lam_nodes, mesh.f_nodes
    m = lam[left] + lam[left + 1]
    m *= 0.5
    z = m * d
    p0, p1 = phi01(z)
    rel = looped_running_sums(mesh, z)
    head = np.exp(-rel[left])
    head *= d
    sojourn = np.add.reduceat(head * p0, starts, axis=0)
    q = p0 - p1
    integrand = f[left] * q
    integrand += f[left + 1] * p1
    integrand *= head
    cost = np.add.reduceat(integrand, starts, axis=0)
    survival = np.exp(-rel[mesh.node_start[1:] - 1])
    head *= m
    node = np.zeros(lam.shape)
    node[left] = head * q
    node[left + 1] += head * p1
    for p in np.flatnonzero(truncated_tail).tolist():
        end = mesh.node_start[p + 1] - 1
        closed = np.where(lam[end] > RATE_FLOOR, survival[p], 0.0)
        rate = np.maximum(lam[end], RATE_FLOOR)
        sojourn[p] += closed / rate
        cost[p] += closed * f[end] / rate
        node[end] += closed
        survival[p] -= closed
    ilo, wlo = mesh.ilo, mesh.wlo[:, None]
    hi = np.where(mesh.wlo < 1.0, ilo + 1, ilo)
    node_piece = np.repeat(np.arange(n_pieces), np.diff(mesh.node_start))
    base = np.minimum.reduceat(ilo, mesh.node_start[:-1])
    width = int(np.max(hi - base[node_piece])) + 1
    size = width * n_pieces * n_a
    offset = node_piece - base[node_piece] * n_pieces
    w = np.zeros(size)
    for grid, part in ((ilo, node * wlo), (hi, node * (1.0 - wlo))):
        key = (offset + grid * n_pieces)[:, None] * n_a + np.arange(n_a)
        w += np.bincount(key.ravel(), weights=part.ravel(), minlength=size)
    grid = np.minimum(base + np.arange(width)[:, None], n - 1)
    return SegmentTables(sojourn=sojourn, cost=cost, survival=survival, weights=w.reshape(width, n_pieces, n_a),
                         cols=grid[:, :, None] * n_a + np.arange(n_a))


def gathered_piece_integrals(model, ws, rate: float, v_nodes=None):
    """``model._piece_integrals`` on the interval layout, each interval
    reading its two nodes' data by gathers through its left node."""
    mesh = ws.mesh
    lam_low = Table1D(model.grid.points, model.constants.lambda_lower)(mesh.states)
    left = interval_left(mesh)
    dt = mesh.times[left + 1] - mesh.times[left]
    z = (0.5 * (lam_low[left] + lam_low[left + 1]) - rate) * dt
    rel = looped_running_sums(mesh, z)
    p0, p1 = phi01(z)
    v = np.ones(mesh.times.size) if v_nodes is None else v_nodes
    weight = np.exp(-rel[left]) * dt
    weight *= v[left] * p0 + (v[left + 1] - v[left]) * p1
    return np.add.reduceat(weight, mesh.first[:-1]), rel[mesh.node_start[1:] - 1]


def line_geometry(ws) -> list[_LineGeometry]:
    """The per-line meshes of ``ws``'s model at ``ws``'s fill, built once per workspace."""
    if ws not in _LINES:
        ref = _reference_transit(ws.model)
        _LINES[ws] = [_build_geometry(ws.model, j, ws.fill, ref) for j in range(ws.model.n_states)]
    return _LINES[ws]


def line_pieces(ws) -> list[list[int]]:
    """Per grid state: the pieces of ``ws`` its line runs, in flow order.

    The segments from its own grid point to its chain end, then that chain
    end's exit piece.
    """
    position = np.argsort(ws.chain.order).tolist()
    out = []
    for j, k in enumerate(ws.chain.exit_of.tolist()):
        ex = ws.chain.exits[k]
        out.append(list(range(position[j], ex.position)) + [ex.piece])
    return out


def line_exit(ws, j: int):
    """The exit record of grid state ``j``'s line."""
    return ws.chain.exits[int(ws.chain.exit_of[j])]


def piece_counts(ws) -> list[list[int]]:
    """Per line: the interval count of each of its pieces in ``ws``'s shared mesh."""
    return [[ws.geometry[p].times.size - 1 for p in pieces] for pieces in line_pieces(ws)]


def forced_line_geometry(ws) -> list[_LineGeometry]:
    """Per-line meshes, each timed from the line's own start, with the shared mesh's interval counts."""
    ref = _reference_transit(ws.model)
    return [_build_geometry(ws.model, j, ws.fill, ref, counts=c) for j, c in enumerate(piece_counts(ws))]


def shared_line_geometry(ws) -> list[_LineGeometry]:
    """Each line of ``ws`` laid out as one mesh: its pieces' nodes end to end.

    A piece keeps its own nodes and node data, timed from the line's start,
    so two consecutive pieces both hold their joint node and the interval
    between those two nodes has length zero: it adds exactly nothing to any
    integral.  The per-path quadrature on these meshes therefore integrates
    the very intervals the piece tables sum.
    """
    model = ws.model
    out = []
    for j, line in enumerate(line_pieces(ws)):
        ex = line_exit(ws, j)
        pieces = [ws.geometry[p] for p in line]
        offsets = [0.0]
        for piece in pieces[:-1]:
            offsets.append(offsets[-1] + float(piece.times[-1]))
        times = np.concatenate([offset + piece.times for offset, piece in zip(offsets, pieces)])
        sizes = np.array([piece.times.size for piece in pieces])
        ends = np.cumsum(sizes) - 1
        starts = ends - sizes + 1
        # interval k runs from node k to node k + 1; the joint intervals
        # (the last node of a piece to the first of the next) take the next
        # piece's anchor
        anchors = np.array([piece.anchor for piece in pieces], dtype=np.int64)
        seg_anchor = np.repeat(anchors, sizes)[1:]
        joined = {name: np.concatenate([getattr(piece, name) for piece in pieces])
                  for name in ("states", "ilo", "wlo", "lam_nodes", "f_nodes")}
        out.append(_LineGeometry(
            origin_index=j, times=times, dt=np.diff(times), seg_anchor=seg_anchor,
            seg_slices=tuple(zip(starts.tolist(), ends.tolist(), anchors.tolist())),
            hit=ex.hit, boundary_index=ex.boundary_index, t_star=hit_time(model.flow, float(model.grid.points[j])),
            truncated=not ex.hit, line_feasible=model.feasible_mask[anchors].all(axis=0), **joined))
    return out


# -- per-line compositions on the shared pieces ------------------------------
# Each line's pieces as flat incidence arrays, composed by running survival
# products (operators), a backward march per line (improvement) and a sweep
# of all lines by position from their ends (certificate).

@dataclass(frozen=True)
class Incidence:
    """Which piece each line reads at each place.

    Line j owns entries ``line_start[j]:line_start[j + 1]``, its pieces in
    flow order.
    """

    line: np.ndarray        # (I,) line of the entry
    position: np.ndarray    # (I,) place of the piece on its line, from 0
    piece: np.ndarray       # (I,)
    line_start: np.ndarray  # (n + 1,)


def incidence(ws) -> Incidence:
    """Each line's pieces of ``ws`` as flat arrays."""
    lines = line_pieces(ws)
    lengths = np.array([len(pieces) for pieces in lines], dtype=np.int64)
    line_start = np.concatenate(([0], np.cumsum(lengths)))
    line = np.repeat(np.arange(lengths.size), lengths)
    return Incidence(line=line, position=np.arange(line.size) - line_start[line],
                     piece=np.concatenate(lines).astype(np.int64), line_start=line_start)


def compose(ws, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products of a per-piece ``factor`` along every line.

    Returns, per incidence entry, the product over the line's earlier
    pieces, and per line the product over all of its pieces.
    """
    inc = incidence(ws)
    prod = np.ones((ws.model.n_states, int(inc.position.max()) + 2))
    prod[inc.line, inc.position + 1] = factor[inc.piece]
    np.cumprod(prod, axis=1, out=prod)
    return prod[inc.line, inc.position], prod[:, -1].copy()


def composed_assemble(ws, policy):
    """(kernel, ell, cost) of one policy, composed line by line from the piece tables.

    With P_p the product of the survivals of the line's earlier pieces,
    ell = sum_p P_p sojourn_p, cost = sum_p P_p cost_p + P_end r(z, u_b) and
    G = sum_p P_p (Q weights_p) . Q_interior + P_end Q_boundary(z, u_b).
    """
    model = ws.model
    n, n_a = model.n_states, model.n_actions
    tables = ws.segment_tables()
    inc = incidence(ws)
    pieces = np.arange(ws.chain.anchors.size)
    act = policy.interior[ws.chain.anchors]
    prefix, survival = compose(ws, tables.survival[pieces, act])
    ell = np.bincount(inc.line, weights=prefix * tables.sojourn[pieces, act][inc.piece], minlength=n)
    cost = np.bincount(inc.line, weights=prefix * tables.cost[pieces, act][inc.piece], minlength=n)
    # every incidence entry takes its piece's band at the piece's action,
    # scaled by the entry's prefix
    weights = tables.weights[:, pieces, act][:, inc.piece] * prefix
    cols = inc.line * (n * n_a) + tables.cols[:, pieces, act][:, inc.piece]
    flat = np.bincount(cols.ravel(), weights=weights.ravel(), minlength=n * n * n_a)
    kernel = flat.reshape(n, n * n_a) @ model.kernel_interior.reshape(n * n_a, n)
    for j in range(n):
        ex = line_exit(ws, j)
        if ex.hit:
            b_act = policy.boundary[ex.boundary_index]
            kernel[j] += survival[j] * model.kernel_boundary[ex.boundary_index, b_act]
            cost[j] += survival[j] * model.boundary_cost[ex.boundary_index, b_act]
    return kernel, ell, cost


def dense_assemble(ws, policy):
    """(kernel, ell, cost) of one policy, each piece's kernel row a dense product.

    As the library assembled before it gathered each piece's band of kernel
    rows: the piece's Q weights at its action are scattered into a dense
    (P, n * n_a) array, which multiplies the whole interior kernel; then the
    same backward pass.
    """
    model = ws.model
    n, n_a = model.n_states, model.n_actions
    tables = ws.segment_tables()
    n_pieces = ws.chain.anchors.size
    pieces = np.arange(n_pieces)
    act = policy.interior[ws.chain.anchors]
    flat = np.zeros((n_pieces, n * n_a))
    np.add.at(flat, (pieces, tables.cols[:, pieces, act]), tables.weights[:, pieces, act])
    values = np.zeros((n_pieces, n + 2))
    values[:, :n] = flat @ model.kernel_interior.reshape(n * n_a, n)
    values[:, n] = tables.sojourn[pieces, act]
    values[:, n + 1] = tables.cost[pieces, act]
    terminal = np.zeros((len(ws.chain.exits), n + 2))
    for k, e in enumerate(ws.chain.exits):
        if e.hit:
            b_act = policy.boundary[e.boundary_index]
            terminal[k, :n] = model.kernel_boundary[e.boundary_index, b_act]
            terminal[k, n + 1] = model.boundary_cost[e.boundary_index, b_act]
    w = ws.backward(values, tables.survival[pieces, act], terminal)
    return w[:, :n], w[:, n], w[:, n + 1]


def sparse_values(tables, rho, qh):
    """``tables.values(rho, qh)`` as the library summed it before the band.

    The nonzero band slots as (row = piece * n_a + action, column, weight)
    triples, their products with Qh summed per row by ``bincount``.
    """
    _, n_pieces, n_a = tables.weights.shape
    rows = np.broadcast_to(np.arange(n_pieces * n_a).reshape(n_pieces, n_a), tables.weights.shape)
    nonzero = tables.weights != 0.0
    q = np.bincount(rows[nonzero], weights=tables.weights[nonzero] * qh.ravel()[tables.cols[nonzero]],
                    minlength=n_pieces * n_a)
    return -rho * tables.sojourn + tables.cost + q.reshape(n_pieces, n_a)


def one_stage_values(ws, policy, rho, h):
    """-rho*calL + Lf + Hr + Gh under the policy's feedback paths, per state, from ``ws.assemble``."""
    kernel, ell, cost = ws.assemble(policy)
    return -rho * ell + cost + kernel @ h


def marched_improve(ws, rho, h, prev):
    """Backward march of the one-stage value along each line, piece by piece; argmin policy."""
    model = ws.model
    n = model.n_states
    qh_int = model.kernel_interior @ h
    b_act, b_val, _ = ws._boundary_choice(h, prev)
    tables = ws.segment_tables()
    values = tables.values(rho, qh_int).tolist()
    survival = tables.survival.tolist()
    anchors = ws.chain.anchors.tolist()
    feasible = model.action_grid.feasible
    mask = model.feasible_mask
    incumbents = prev.interior.tolist()
    new_interior = np.empty(n, dtype=np.int64)
    for j, pieces in enumerate(line_pieces(ws)):
        ex = line_exit(ws, j)
        # the tables hold the frozen tail of an exit that stops at t_max
        w_next = float(b_val[ex.boundary_index]) if ex.hit else 0.0
        for p in reversed(pieces):
            anchor = anchors[p]
            v_s, b_s = values[p], survival[p]
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


def swept_residual(ws, rho, h):
    """The optimality residual, every line's frozen-action sweep run by position from its end."""
    model = ws.model
    qh_int = model.kernel_interior @ h
    _, b_val, _ = ws._boundary_choice(h, None)
    tables = ws.segment_tables()
    values, survival = tables.values(rho, qh_int), tables.survival
    inc = incidence(ws)
    ends = inc.line_start[1:]
    lengths = np.diff(inc.line_start)
    w = np.zeros((model.n_states, model.n_actions))
    for j in range(model.n_states):
        ex = line_exit(ws, j)
        if ex.hit:
            w[j] = b_val[ex.boundary_index]
    for t in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > t)
        p = inc.piece[ends[live] - 1 - t]
        w[live] = values[p] + survival[p] * w[live]
    feasible = np.array([model.feasible_mask[ws.chain.anchors[pieces]].all(axis=0) for pieces in line_pieces(ws)])
    some = feasible.any(axis=1)
    best = np.min(np.where(feasible, w, np.inf), axis=1)
    return float(np.max(h[some] - best[some]))


def numpy_optimality_residual(ws, rho, h):
    """The optimality certificate as one numpy backward pass of its own, as the library ran it.

    Every action's frozen sweep value and, as a product of 0/1 factors, its
    feasibility all along the line are carried by ``ws.backward``; the
    library now computes the same certificate on Python floats in the pass
    it shares with improvement, with the same arithmetic.
    """
    model = ws.model
    n_a = model.n_actions
    h = np.asarray(h, dtype=float)
    _, b_val, _ = ws._boundary_choice(h, None)
    tables = ws.segment_tables()
    values = np.hstack((tables.values(rho, model.kernel_interior @ h), np.zeros(tables.survival.shape)))
    factors = np.hstack((tables.survival, model.feasible_mask[ws.chain.anchors]))
    terminal = np.ones((len(ws.chain.exits), 2 * n_a))
    terminal[:, :n_a] = [[b_val[e.boundary_index] if e.hit else 0.0] for e in ws.chain.exits]
    w = ws.backward(values, factors, terminal)
    feasible = w[:, n_a:] > 0.5
    some = feasible.any(axis=1)
    if not some.any():
        raise ValueError("no flow line admits a feasible frozen-action sweep")
    best = np.min(np.where(feasible, w[:, :n_a], np.inf), axis=1)
    return float(np.max(h[some] - best[some]))


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
        """Survival weight at t_max on a line that stops there (0 when the line hits)."""
        if not self.truncated:
            return 0.0
        return float(np.exp(-alpha * self.times[-1] - self.cum_hazard[-1]))


def _tail_factor(path: PolicyPath, alpha: float) -> float:
    """S / (alpha + lam): the discounted time spent in the frozen state past t_max.

    The state is frozen at the path's last node, with the last interval's
    action and its jump rate lam there; a path that hits the boundary, or a
    tail with lam at or below ``RATE_FLOOR``, has no tail.
    """
    rate = float(path.lam_right[-1])
    if not path.truncated or rate <= RATE_FLOOR:
        return 0.0
    return path.tail_weight(alpha) / (alpha + rate)


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


def policy_paths(ws, policy, geometry=None) -> list[PolicyPath]:
    """The feedback path of ``policy`` from every grid state.

    The paths run on ``geometry`` (one mesh per line), by default the
    per-line meshes of ``ws``'s model at ``ws``'s fill.
    """
    lines = line_geometry(ws) if geometry is None else geometry
    return [_path_from_geometry(ws.model, g, policy) for g in lines]


def _check_alpha(model, alpha: float) -> None:
    if alpha < -model.constants.c - 1e-12:
        raise ValueError(f"alpha={alpha} below -c={-model.constants.c}; operators undefined there")


def build_policy_path(model, policy, state_index: int, *, fill: int = DEFAULT_FILL,
                      workspace=None) -> PolicyPath:
    """Feedback path of ``policy`` from one grid state."""
    if workspace is not None:
        return _path_from_geometry(model, line_geometry(workspace)[state_index], policy)
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
    """Discounted flow integral of a (state, action) table along the path, the frozen tail included."""
    _check_alpha(path.model, alpha)
    v = np.asarray(v, dtype=float)
    head, _, p0, p1 = _interval_weights(path, alpha)
    v_left, v_right = path.node_table_values(v)
    along = float(np.sum(head * path.dt * (v_left * p0 + (v_right - v_left) * p1)))
    return along + _tail_factor(path, alpha) * float(v_right[-1])


def op_calL(alpha: float, path: PolicyPath) -> float:
    """Expected discounted sojourn weight: op_L with v identically one."""
    _check_alpha(path.model, alpha)
    head, _, p0, _ = _interval_weights(path, alpha)
    return float(np.sum(head * path.dt * p0)) + _tail_factor(path, alpha)


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
    total += _tail_factor(path, alpha) * float(path.lam_right[-1]) * float(qh_right[-1])
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
    # the frozen tail jumps from the last node, on the kernel row interpolated there
    tail = _tail_factor(path, alpha) * float(path.lam_right[-1])
    row = row + tail * (wlo[-1] * model.kernel_interior[ilo[-1], a[-1]]
                        + (1.0 - wlo[-1]) * model.kernel_interior[hi[-1], a[-1]])
    if path.hit:
        surv = math.exp(-alpha * path.end_time - path.cum_hazard[-1])
        row = row + surv * model.kernel_boundary[path.boundary_index, path.boundary_action, :]
    return row


def reference_assemble(ws, policy, alpha: float = 0.0, geometry=None):
    """(kernel, ell, cost) of one policy, integrated path by path on ``geometry``
    (by default the per-line meshes at ``ws``'s fill)."""
    model = ws.model
    n = model.n_states
    kernel = np.empty((n, n))
    ell = np.empty(n)
    cost = np.empty(n)
    for j, path in enumerate(policy_paths(ws, policy, geometry)):
        kernel[j] = _kernel_row(path, alpha)
        ell[j] = op_calL(alpha, path)
        cost[j] = op_L(alpha, model.running_cost, path) + op_H(alpha, model.boundary_cost, path)
    return kernel, ell, cost


# -- per-interval improvement and optimality certificate ---------------------
# The march and frozen-action sweep that the segment tables replaced: each
# re-integrates every segment of every line from a per-line mesh
# (``geometry``, by default the per-line meshes at ``ws``'s fill).

def frozen_values(geom, rho, qh_end):
    """(n_a,) per action, the one-stage value of the state frozen at the end of a line that stops at t_max.

    (f - rho + lam Qh) / lam at the line's last node, 0 for an action whose
    lam is at or below ``RATE_FLOOR`` (that tail never jumps).
    """
    lam = geom.lam_nodes[-1]
    return np.where(lam > RATE_FLOOR, (geom.f_nodes[-1] - rho + lam * qh_end) / np.maximum(lam, RATE_FLOOR), 0.0)


def reference_improve(ws, rho, h, prev, geometry=None):
    model = ws.model
    n_a = model.n_actions
    qh_int = model.kernel_interior @ h
    b_act, b_val, _ = ws._boundary_choice(h, prev)
    new_interior = np.empty(model.n_states, dtype=np.int64)
    for geom in line_geometry(ws) if geometry is None else geometry:
        qh_nodes = (geom.wlo[:, None] * qh_int[geom.ilo, :]
                    + (1.0 - geom.wlo)[:, None] * qh_int[np.minimum(geom.ilo + 1, model.n_states - 1), :])
        # the last segment carries in the boundary's value, or each action's frozen state past t_max
        w_next = float(b_val[geom.boundary_index]) if geom.hit else frozen_values(geom, rho, qh_nodes[-1])
        for (k0, k1, anchor) in reversed(geom.seg_slices):
            lam, f, qh = geom.lam_nodes[k0:k1 + 1], geom.f_nodes[k0:k1 + 1], qh_nodes[k0:k1 + 1]
            d = geom.dt[k0:k1, None]
            m = 0.5 * (lam[:-1] + lam[1:])
            z = m * d
            p0, p1 = phi0(z), phi1(z)
            contrib = (-rho * d * p0 + d * (f[:-1] * p0 + (f[1:] - f[:-1]) * p1)
                       + m * d * (qh[:-1] * p0 + (qh[1:] - qh[:-1]) * p1))
            rel = np.vstack([np.zeros((1, n_a)), np.cumsum(z, axis=0)])
            w_vec = np.sum(np.exp(-rel[:-1]) * contrib, axis=0) + np.exp(-rel[-1]) * w_next
            masked = np.where(model.feasible_mask[anchor], w_vec, np.inf)
            pick = int(np.argmin(masked))
            incumbent = int(prev.interior[anchor])
            if masked[incumbent] <= masked[pick] + TIE_TOL * max(1.0, abs(masked[pick])):
                pick = incumbent
            w_next = float(w_vec[pick])
        new_interior[geom.origin_index] = pick
    return FeedbackPolicy(interior=new_interior, boundary=b_act)


def reference_sweep_values(ws, rho, h, geometry=None):
    """Per line: the frozen-action one-stage values, or None when no action is feasible."""
    model = ws.model
    qh_int = model.kernel_interior @ h
    _, b_val, _ = ws._boundary_choice(h, None)
    out = []
    for geom in line_geometry(ws) if geometry is None else geometry:
        if not geom.line_feasible.any():
            out.append(None)
            continue
        qh = (geom.wlo[:, None] * qh_int[geom.ilo, :]
              + (1.0 - geom.wlo)[:, None] * qh_int[np.minimum(geom.ilo + 1, model.n_states - 1), :])
        d = geom.dt[:, None]
        m = 0.5 * (geom.lam_nodes[:-1] + geom.lam_nodes[1:])
        z = m * d
        lam_cum = np.vstack([np.zeros((1, model.n_actions)), np.cumsum(z, axis=0)])
        p0, p1 = phi0(z), phi1(z)
        f = geom.f_nodes
        vals = np.sum(np.exp(-lam_cum[:-1]) * (
            -rho * d * p0 + d * (f[:-1] * p0 + (f[1:] - f[:-1]) * p1)
            + m * d * (qh[:-1] * p0 + (qh[1:] - qh[:-1]) * p1)), axis=0)
        end = b_val[geom.boundary_index] if geom.hit else frozen_values(geom, rho, qh[-1])
        vals = vals + np.exp(-lam_cum[-1]) * end
        out.append(np.where(geom.line_feasible, vals, np.inf))
    return out


def reference_optimality_residual(ws, rho, h, geometry=None):
    return max(float(h[j] - np.min(v)) for j, v in enumerate(reference_sweep_values(ws, rho, h, geometry))
               if v is not None)


# -- a check on the library's assembled operators ------------------------------

def doubled_mesh_residual(model, policy, result) -> float:
    """Defect of a solved (rho, h) recomputed on a new mesh at twice the solve's fill.

    Guards against mesh-correlated cancellation: the solve's own defect can be
    tiny on its mesh while the operators are still unconverged.
    """
    kernel, ell, cost = OperatorWorkspace(model, 2 * result.stats["fill"]).assemble(policy)
    return float(np.max(np.abs(result.h + result.rho * ell - cost - kernel @ result.h)))
