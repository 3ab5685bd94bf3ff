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

The flow's semigroup property phi(x, s + t) = phi(phi(x, s), t) makes the line
from grid point j its segment to the next grid point followed by the line
from there.  Whether it goes on is decided once per grid point: it does when
the transit to the next grid point is finite and the boundary does not cut
it.  So a line runs through consecutive segments to its chain end b, then
along the one exit piece of b, timed from x_b, that ends at the boundary hit
t*(x_b) or, when t*(x_b) > t_max, at t_max (``t_max`` bounds only this final
piece).  The mesh is built once per distinct *piece*, each timed from its own
start: one per inter-grid segment, shared by every line that passes it, and
one per chain end, shared by every line that ends there.  Mesh and tables
take O(n * fill) memory, and building them takes little more, by one buffer
rule that every node-array builder keeps: no intermediate outlives its last
read (it is deleted, or its buffer reused in place), and the shared mesh and
chain arrays, which every workspace of a model and the simulator read, are
never written.  An exit piece whose two end states are equal (a
trivial flow, or a chain end on the flow's fixed point) or lie at or beyond
the same end of the rate coordinates, where the model data are clamped, has
the same jump rate, running cost and kernel row all along for every action;
it is one interval (``_Exit.constant``), on which the quadrature is exact.

The pieces' nodes are concatenated into one mesh (:class:`_Mesh`), and every
per-interval quantity is laid out on its node pairs: pair j joins nodes j
and j + 1, so an interval's two ends are the slices ``[:-1]`` and ``[1:]``
of a node array, read without a gather.  The pair that joins a piece's last
node to the next piece's first is no interval; it has length 0, and the
per-piece sums leave it out.

The control along a line is piecewise constant per piece: the action of the
grid point a piece starts from governs it.  The quadrature is therefore
written once, in :func:`_segment_tables`, which sums every (piece, action)
pair's sojourn weight, running-cost integral, survival across the piece and
weights of Qh = Q h on the few consecutive grid points the piece spans: a
dense band of ``width`` slots per (piece, action), which assembly and the
one-stage values both read.  Past the end of an exit piece that stops at
t_max the state is frozen at the piece's last node under the piece's action,
as the simulator runs it, and the tables hold that tail in closed form, so
a line's kernel row keeps its whole jump mass.  The value to go from
a grid point does not depend on the line that reached it, so every operator
is one backward pass over the grid positions in flow order
(:meth:`OperatorWorkspace.backward`): the piece's value plus its survival
times the value at the next grid point, or the exit's terminal value at a
chain end.  Assembly, improvement and the optimality certificate run that
pass on the same tables, so all three minimize over and evaluate exactly
the same path class.  Improvement and the certificate are one entry
(:meth:`OperatorWorkspace.improve_and_certify`), one pass on Python floats,
with Qh, the boundary minima and the pieces' one-stage values computed once
for both.

What no fill changes (flow order, transits, chain ends, exits and piece
durations) is worked out once per model object
(:attr:`~pdmp_avgctl.model.PdmpModel.chain_geometry`) and shared, read-only,
by all its workspaces; a workspace builds only its nodes.  A workspace
belongs to the model object it was built for.  Every entry that takes a
policy runs one check first (:func:`check_entry`): it refuses another
model's workspace and an infeasible policy.  A workspace's one per-policy
cache holds each policy's assembled operators and, from
:func:`~pdmp_avgctl.policy_iteration.run_pia`, each policy's PIA step.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .flow import FlowSpec, advance, flow_direction, hit_time, passage_time, _tabulated_advance
from .model import FeedbackPolicy
from .numerics import interp_weights, phi01

DEFAULT_FILL = 8
REFINE_TARGET = 5e-9
MAX_FILL = 2048
# the most nodes a mesh may have: 10**7 nodes of float64 times, states and
# weights, int64 grid indices and the rate and cost per action take 0.64 GB
# at two actions; the largest bundled or drift_N (N <= 1024) mesh has 9,216
# nodes at DEFAULT_FILL and 2,098,176 at MAX_FILL (drift_1024)
MAX_MESH_NODES = 10_000_000
MIN_TAIL_INTERVALS = 8
# a frozen tail whose jump rate is at or below this never jumps
RATE_FLOOR = 1e-12
TIE_TOL = 1e-12
CACHE_ENTRIES = 256


def _chain(model) -> tuple[np.ndarray, list]:
    """Grid indices in flow order and the transit time between each consecutive pair.

    A transit is ``inf`` where the flow never gets there (a fixed point on a
    grid point).  A trivial flow moves nowhere, so it has no transits.
    """
    flow = model.flow
    direction = flow_direction(flow)
    order = np.arange(model.n_states)
    if direction < 0:
        order = order[::-1].copy()
    if direction == 0:
        return order, []
    xs = model.grid.points[order].tolist()
    return order, [passage_time(flow, a, b) for a, b in zip(xs[:-1], xs[1:])]


@dataclass(frozen=True)
class _Piece:
    """Policy-independent mesh of one piece, timed from the piece's start.

    The arrays are views of the workspace's concatenated :class:`_Mesh`.
    """

    anchor: int              # grid index the piece starts from; its action governs the piece
    times: np.ndarray        # (K+1,) from 0 to the piece's duration
    states: np.ndarray       # (K+1,)
    ilo: np.ndarray          # (K+1,) interior-grid interpolation indices
    wlo: np.ndarray          # (K+1,)
    lam_nodes: np.ndarray    # (K+1, n_actions) jump rate at nodes, all actions
    f_nodes: np.ndarray      # (K+1, n_actions) running cost at nodes


@dataclass(frozen=True)
class _Mesh:
    """The nodes of every piece, concatenated.

    Piece p owns nodes ``node_start[p]:node_start[p + 1]`` and intervals
    ``first[p]:first[p + 1]``; the inter-grid segments come first, in flow
    order (piece q runs from flow position q to q + 1), then the exit piece
    of each chain end in flow order.

    Every per-interval quantity is laid out as the node pairs of the mesh:
    pair j joins nodes j and j + 1, so an (N - 1,) array holds one entry per
    pair, and the two ends of every interval are the slices ``[:-1]`` and
    ``[1:]`` of a node array.  The pair at a piece's last node joins it to
    the next piece's first node: it is not an interval, and its length in
    :attr:`pair_dt` is 0.  Per-piece sums run over each piece's own
    intervals only (:meth:`piece_sums`).
    """

    node_start: np.ndarray   # (P+1,)
    times: np.ndarray        # (N,)
    states: np.ndarray
    ilo: np.ndarray
    wlo: np.ndarray
    lam_nodes: np.ndarray    # (N, n_actions)
    f_nodes: np.ndarray

    @functools.cached_property
    def first(self) -> np.ndarray:
        """(P+1,) first interval of each piece, and the interval count."""
        return self.node_start - np.arange(self.node_start.size)

    @functools.cached_property
    def pair_dt(self) -> np.ndarray:
        """(N-1,) the length of each pair: its interval's, or 0 at a piece's last node."""
        dt = self.times[1:] - self.times[:-1]
        dt[self.node_start[1:-1] - 1] = 0.0
        dt.flags.writeable = False
        return dt

    @functools.cached_property
    def _bounds(self) -> np.ndarray:
        """Per piece, its first pair and the pair that joins it to the next, interleaved.

        As ``np.add.reduceat`` indices, the even segments are the pieces'
        intervals and the odd ones the pairs that join consecutive pieces;
        the last piece's segment runs to the end.
        """
        bounds = np.empty(2 * self.node_start.size - 3, dtype=np.int64)
        bounds[0::2] = self.node_start[:-1]
        bounds[1::2] = self.node_start[1:-1] - 1
        return bounds

    def piece_sums(self, values: np.ndarray) -> np.ndarray:
        """(P, ...) per piece, the sum of the pair values ``values`` over its own intervals."""
        return np.add.reduceat(values, self._bounds, axis=0)[::2]

    @functools.cached_property
    def _runs(self) -> list[tuple[int, int, int]]:
        """The runs of consecutive pieces with equal interval counts: (first node, pieces, count) each."""
        counts = np.diff(self.first)
        first = np.flatnonzero(np.concatenate(([True], counts[1:] != counts[:-1])))
        pieces = np.diff(np.append(first, counts.size))
        return list(zip(self.node_start[first].tolist(), pieces.tolist(), counts[first].tolist()))

    def running_sums(self, z: np.ndarray) -> np.ndarray:
        """Per node: the sum of the pair values ``z`` over its piece's intervals before it.

        Each piece sums from its own first node (where the result is 0), so
        the rounding of one piece never carries into the next, and the pairs
        that join pieces are never read.  Pair j is copied to node j + 1 of
        the result, and the pieces of a run of equal interval counts
        (:attr:`_runs`) are the rows of one view of it, summed in place by
        one cumulative sum along the rows: each piece's own sequential sum,
        bit for bit.  Nothing but the result is allocated.  Equal transits
        make one run of all the segments; at worst each piece is a run.
        """
        out = np.empty((self.times.size,) + z.shape[1:])
        out[1:] = z
        for start, pieces, count in self._runs:
            rows = out[start:start + pieces * (count + 1)].reshape((pieces, count + 1) + z.shape[1:])[:, 1:]
            np.cumsum(rows, axis=1, out=rows)
        out[self.node_start[:-1]] = 0.0
        return out

    def pieces(self, anchors: np.ndarray) -> list[_Piece]:
        bounds = self.node_start.tolist()
        return [_Piece(anchor=a, times=self.times[k0:k1], states=self.states[k0:k1],
                       ilo=self.ilo[k0:k1], wlo=self.wlo[k0:k1], lam_nodes=self.lam_nodes[k0:k1],
                       f_nodes=self.f_nodes[k0:k1])
                for a, k0, k1 in zip(anchors.tolist(), bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class _Exit:
    """The exit piece of one chain end: from its grid point to t* or to ``t_max``."""

    position: int        # flow position of the chain end
    piece: int
    hit: bool            # the piece ends on the boundary, else at t_max
    boundary_index: int  # -1 without a hit
    constant: bool       # jump rate, running cost and kernel row are the same all along: one interval


def _interval_counts(dur: np.ndarray, truncated_tail: np.ndarray, one_interval: np.ndarray, lam_sup: float,
                     base_h: float, fill: int) -> np.ndarray:
    """Intervals per piece: each at most 0.25 / lambda_sup long, and a budget
    proportional to the piece's duration (relative to the model's shortest
    inter-grid transit), so contracting flows refine evenly in time and every
    line sees the same spacing; an exit piece that stops at t_max takes at
    least max(MIN_TAIL_INTERVALS, fill) intervals instead.  A constant exit
    piece (``one_interval``) takes one interval, on which the quadrature is
    exact.  The counts are floats, so a count past the int64 range, or an
    infinite one, reads as what it is."""
    counts = np.ceil(dur / (0.25 / lam_sup)) if lam_sup > 0.0 else np.zeros(dur.size)
    budget = np.where((dur > 0) & math.isfinite(base_h), np.ceil(dur / base_h), float(fill))
    budget[truncated_tail] = max(MIN_TAIL_INTERVALS, fill)
    counts = np.maximum(np.maximum(counts, budget), 1)
    counts[one_interval] = 1
    return counts


def _mesh_nodes(model, chain: _ChainGeometry, fill: int) -> tuple[np.ndarray, float]:
    """The intervals of each piece of ``model``'s mesh at ``fill`` (floats,
    see :func:`_interval_counts`), and the nodes they make, predicted
    without building the mesh."""
    counts = _interval_counts(chain.dur, chain.truncated_tail, chain.one_interval, model.lambda_sup,
                              chain.shortest / fill, fill)
    return counts, float(counts.sum()) + counts.size


def _oversized_mesh(model, chain: _ChainGeometry, fill: int, nodes: float) -> str | None:
    """Why a mesh of ``nodes`` nodes at ``fill`` is refused, or None when it is
    within ``MAX_MESH_NODES`` (a non-finite count is refused)."""
    if nodes <= MAX_MESH_NODES:
        return None
    longest = float(chain.dur.max())
    return (f"the mesh at fill {fill} would have {nodes:.3g} nodes, more than MAX_MESH_NODES = {MAX_MESH_NODES}: "
            f"lambda_sup x duration is {model.lambda_sup * longest:.3g} on the longest piece ({longest:.3g} long), "
            "and no mesh interval is longer than 0.25 / lambda_sup")


def _flow_states(flow: FlowSpec, origin: np.ndarray, times: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The state at each node, on pieces that start from ``origin`` at the nodes flagged in ``starts``.

    A piece's first node is its origin exactly.  The states are written over
    ``origin``, which the caller hands over, and returned.
    """
    if flow.kind == "trivial":
        return origin
    if flow.kind == "affine1d":
        if flow.alpha1 == 0.0:
            origin += flow.alpha0 * times
            return origin
        ystar = -flow.alpha0 / flow.alpha1
        # ystar + (x - ystar) * 1.0 need not round back to x
        first = origin[starts]
        growth = flow.alpha1 * times
        np.exp(growth, out=growth)
        origin -= ystar
        origin *= growth
        origin += ystar
        origin[starts] = first
        return origin
    # node times never pass a piece's end, so no boundary re-check
    t = times.tolist()
    for i in np.flatnonzero(~starts).tolist():
        origin[i] = _tabulated_advance(flow, origin[i - 1], t[i] - t[i - 1])
    return origin


def _constant_exits(model, x0: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Per exit piece from ``x0`` of duration ``dur``, whether it is constant.

    It is when its two end states, as a one-interval mesh places them, are
    equal, or lie at or beyond the same end of the rate coordinates (and so
    of the grid), where the jump rate, running cost and kernel row are
    clamped for every action.  A 1-D flow is monotone, so the two end states
    bound the whole piece.  The rate coordinates hold the boundary points,
    so a piece that hits the boundary is constant only when it has length 0.
    """
    origin = np.repeat(x0, 2)
    times = np.zeros(origin.size)
    times[1::2] = dur
    states = _flow_states(model.flow, origin, times, np.arange(origin.size) % 2 == 0)
    s0, s1 = states[::2], states[1::2]
    lo, hi = model.rate_coords[[0, -1]]
    return (s0 == s1) | ((s0 <= lo) & (s1 <= lo)) | ((s0 >= hi) & (s1 >= hi))


@dataclass(frozen=True)
class _ChainGeometry:
    """The part of the piece meshes that no fill changes, built once per model
    object (:attr:`~pdmp_avgctl.model.PdmpModel.chain_geometry`) and shared by
    all its workspaces, so its arrays are read-only.

    Pieces are numbered as in :class:`_Mesh`.
    """

    order: np.ndarray           # (n,) grid indices in flow order
    n_chain: int                # number of inter-grid segments
    exits: tuple                # the _Exit of each chain end, in flow order
    exit_of: np.ndarray         # (n,) per grid state, the exit its line ends on
    anchors: np.ndarray         # (P,) grid index each piece starts from
    dur: np.ndarray             # (P,) duration; 0 for a segment no line runs along
    truncated_tail: np.ndarray  # (P,) the exit pieces that stop at t_max
    one_interval: np.ndarray    # (P,) the constant exit pieces
    shortest: float             # the shortest positive inter-grid transit
    steps: tuple                # (grid index, piece, exit or -1) per flow position, against the flow


def _chain_geometry(model) -> _ChainGeometry:
    """Flow order, chain ends, exits and piece durations of ``model``'s lines."""
    flow = model.flow
    points = model.grid.points
    n = points.size
    t_max = model.t_max
    order, transit = _chain(model)
    n_chain = len(transit)
    xs = points[order].tolist()
    t_star = [hit_time(flow, x) for x in xs]
    # position q goes on to q + 1 when the transit is finite and the boundary
    # does not cut it; a line runs on to the first chain end
    goes_on = [math.isfinite(t) and s > t for t, s in zip(transit, t_star)]
    ends = [q for q in range(n) if q >= n_chain or not goes_on[q]]
    hits = [t_star[q] <= t_max for q in ends]
    boundary_index = [int(np.argmin(np.abs(model.grid.boundary_points - advance(flow, xs[q], t_star[q]))))
                      if hit else -1 for q, hit in zip(ends, hits)]
    # a segment no line runs along is meshed with zero length
    dur = np.array([t if on else 0.0 for t, on in zip(transit, goes_on)]
                   + [t_star[q] if hit else t_max for q, hit in zip(ends, hits)])
    constant = _constant_exits(model, points[order[ends]], dur[n_chain:])
    exits = tuple(_Exit(position=q, piece=n_chain + k, hit=hit, boundary_index=b, constant=c)
                  for k, (q, hit, b, c) in enumerate(zip(ends, hits, boundary_index, constant.tolist())))
    exit_of = np.empty(n, dtype=np.int64)
    exit_of[order] = np.searchsorted(ends, np.arange(n))
    at_end = {e.position: k for k, e in enumerate(exits)}
    steps = tuple((j, n_chain + at_end[q], at_end[q]) if q in at_end else (j, q, -1)
                  for q, j in reversed(list(enumerate(order.tolist()))))
    chain = _ChainGeometry(
        order=order, n_chain=n_chain, exits=exits, exit_of=exit_of,
        anchors=order[np.concatenate((np.arange(n_chain), ends)).astype(np.int64)], dur=dur,
        truncated_tail=np.concatenate((np.zeros(n_chain, dtype=bool), np.logical_not(hits))),
        one_interval=np.concatenate((np.zeros(n_chain, dtype=bool), constant)),
        shortest=min((t for t in transit if t > 0.0), default=math.inf), steps=steps)
    for arr in (chain.order, chain.exit_of, chain.anchors, chain.dur, chain.truncated_tail, chain.one_interval):
        arr.flags.writeable = False
    return chain


def _interpolated(table: np.ndarray, ilo: np.ndarray, wlo: np.ndarray) -> np.ndarray:
    """(N, n_a) the rows of ``table`` read at each node as ``wlo`` row ilo + (1 - wlo) row ilo + 1, clamped."""
    out = table.take(ilo, axis=0)
    out *= wlo[:, None]
    right = table.take(np.minimum(ilo + 1, table.shape[0] - 1), axis=0)
    right *= (1.0 - wlo)[:, None]
    out += right
    return out


def _build_mesh(model, chain: _ChainGeometry, fill: int) -> _Mesh:
    """Every piece's nodes at ``fill``, in one vectorized pass.

    A mesh of more than ``MAX_MESH_NODES`` nodes is refused with
    ``ValueError`` before anything is allocated.
    """
    points = model.grid.points
    dur = chain.dur
    counts, n_nodes = _mesh_nodes(model, chain, fill)
    refusal = _oversized_mesh(model, chain, fill, n_nodes)
    if refusal is not None:
        raise ValueError(refusal)
    counts = counts.astype(np.int64)

    # node k of a piece sits at k * (duration / count), the arithmetic of
    # np.linspace; each piece ends exactly on its duration
    nodes = counts + 1
    node_start = np.concatenate(([0], np.cumsum(nodes)))
    k = np.arange(node_start[-1])
    k -= np.repeat(node_start[:-1], nodes)
    times = np.repeat(dur / counts, nodes)
    times *= k
    del k
    times[node_start[1:] - 1] = dur
    starts = np.zeros(times.size, dtype=bool)
    starts[node_start[:-1]] = True
    states = _flow_states(model.flow, np.repeat(points[chain.anchors], nodes), times, starts)
    del starts
    for e in chain.exits:
        if e.hit:
            states[node_start[e.piece + 1] - 1] = float(model.grid.boundary_points[e.boundary_index])

    lam_nodes = _interpolated(model.rate_table, *interp_weights(model.rate_coords, states))
    ilo, wlo = interp_weights(points, states)
    f_nodes = _interpolated(model.running_cost, ilo, wlo)
    # the workspace's tables and the simulator's read the mesh; none writes it
    for arr in (node_start, times, states, ilo, wlo, lam_nodes, f_nodes):
        arr.flags.writeable = False
    return _Mesh(node_start=node_start, times=times, states=states, ilo=ilo, wlo=wlo, lam_nodes=lam_nodes,
                 f_nodes=f_nodes)


@dataclass(frozen=True)
class SegmentTables:
    """Policy-independent one-stage weights of every (piece, action).

    With action a held over piece p and the value W carried in at the
    piece's end, the one-stage value over the piece is

        -rho * sojourn[p, a] + cost[p, a] + sum_k weights[k, p, a] * Qh.flat[cols[k, p, a]]
        + survival[p, a] * W

    (an exit piece that stops at t_max includes its frozen tail and has
    survival 0; see :func:`_segment_tables`).

    The band slot k is grid point ``base_p + k``, base_p the lowest grid
    point the piece reads, and ``cols = min(base_p + k, n - 1) * n_a + a``
    indexes both ``Qh.ravel()`` and ``kernel_interior.reshape(n * n_a, n)``;
    a slot past the grid is clamped and has weight exactly 0.  Every
    integral is taken relative to the piece's start, so a line's operators
    are its pieces' entries weighted by the survival of the pieces before
    them.
    """

    sojourn: np.ndarray   # (P, n_a) sum of e^{-rel} d phi0 over the intervals
    cost: np.ndarray      # (P, n_a) running-cost integral
    survival: np.ndarray  # (P, n_a) e^{-hazard across the piece}
    weights: np.ndarray   # (width, P, n_a) weight of Qh at each band slot
    cols: np.ndarray      # (width, P, n_a) grid index * n_a + a of each band slot

    def values(self, rho: float, qh: np.ndarray) -> np.ndarray:
        """(P, n_a) one-stage value of each piece with nothing carried in."""
        q = qh.ravel()[self.cols]
        q *= self.weights
        return -rho * self.sojourn + self.cost + q.sum(axis=0)


def _segment_tables(model, mesh: _Mesh, truncated_tail: np.ndarray) -> SegmentTables:
    """One vectorized pass over the mesh's node pairs, summed per piece over its intervals.

    Past the end of an exit piece that stops at t_max (``truncated_tail``)
    the state is frozen at the piece's last node, under the piece's action:
    a jump comes at the rate lam there, at the running cost f there, to the
    kernel row there.  With S the survival across the piece, that tail
    adds S / lam to the sojourn, S f / lam to the cost and S to the last
    node's Qh weight, and leaves survival 0.  A tail with lam at or below
    ``RATE_FLOOR`` never jumps and keeps S, so its kernel row loses S.

    Each (N - 1, n_a) intermediate is dropped after its last read or reused
    in place, so the pass holds at most six of them at a time.
    """
    n, n_a = model.n_states, model.n_actions
    n_pieces = mesh.node_start.size - 1
    d = mesh.pair_dt[:, None]
    lam, f = mesh.lam_nodes, mesh.f_nodes
    m = lam[:-1] + lam[1:]
    m *= 0.5
    z = m * d
    p0, p1 = phi01(z)
    rel = mesh.running_sums(z)
    del z
    survival = np.exp(-rel[mesh.node_start[1:] - 1])
    # survival since the piece's start, times the interval length (0 on a
    # pair that joins two pieces), in rel's place
    head = rel[:-1]
    np.negative(head, out=head)
    np.exp(head, out=head)
    head *= d
    sojourn = mesh.piece_sums(head * p0)
    q = p0
    q -= p1  # p0 - p1, in p0's place
    integrand = f[:-1] * q
    integrand += f[1:] * p1
    integrand *= head
    cost = mesh.piece_sums(integrand)
    del integrand

    # pair j weighs Qh at node j by m d (p0 - p1) and at node j + 1 by m d p1
    # (both 0 on a pair that joins two pieces), so a node inside a piece
    # carries both neighbouring intervals' weights; the node weights take
    # rel's place.  A node reads Qh as wlo Qh[ilo] + (1 - wlo) Qh[hi],
    # hi = ilo + 1, or ilo itself where wlo = 1 (a node on a grid point reads
    # no other); a piece spans a few consecutive grid points, so the weights
    # are summed per (grid point - the piece's lowest, piece, action)
    head *= m
    del m
    p1 *= head
    head *= q
    del q
    node = rel
    node[-1] = 0.0
    node[1:] += p1
    del p1
    tails = np.flatnonzero(truncated_tail)
    last = mesh.node_start[tails + 1] - 1
    rate = lam[last]
    closed = np.where(rate > RATE_FLOOR, survival[tails], 0.0)
    rate = np.maximum(rate, RATE_FLOOR)
    sojourn[tails] += closed / rate
    cost[tails] += closed * f[last] / rate
    node[last] += closed
    survival[tails] -= closed
    ilo, wlo = mesh.ilo, mesh.wlo
    base = np.minimum.reduceat(ilo, mesh.node_start[:-1])
    top = np.maximum.reduceat(ilo + (wlo < 1.0), mesh.node_start[:-1])  # the highest hi of each piece
    width = int(np.max(top - base)) + 1
    size = width * n_pieces * n_a
    # the slot of (ilo, piece, action) at each node; hi's is n_pieces * n_a further where wlo < 1
    key = np.repeat(np.arange(n_pieces) - base * n_pieces, np.diff(mesh.node_start))
    key += ilo * n_pieces
    key = key[:, None] * n_a + np.arange(n_a)
    w = np.bincount(key.ravel(), weights=(node * wlo[:, None]).ravel(), minlength=size)
    key += (wlo < 1.0)[:, None] * (n_pieces * n_a)
    node *= (1.0 - wlo)[:, None]
    w += np.bincount(key.ravel(), weights=node.ravel(), minlength=size)
    grid = np.minimum(base + np.arange(width)[:, None], n - 1)
    return SegmentTables(sojourn=sojourn, cost=cost, survival=survival, weights=w.reshape(width, n_pieces, n_a),
                         cols=grid[:, :, None] * n_a + np.arange(n_a))


class OperatorWorkspace:
    """Caches the piece meshes so repeated policy evaluations stay cheap.

    The mesh geometry (grid-passage nodes plus per-piece fill) depends only
    on the model, so every policy is integrated on identical nodes; that is
    what makes improvement values directly comparable across policies.
    ``mesh`` holds the pieces' nodes, ``geometry`` lists per-piece views of
    it (built on first read), and ``chain`` is the model's shared
    :class:`_ChainGeometry`, the one place to read ``chain.order`` (the grid
    indices in flow order), ``chain.exits`` (the exit of each chain end) and
    ``chain.exit_of`` (the exit each grid state's line ends on).  The piece
    tables, with the lists the improvement/certificate pass reads, are built
    on first use, and one per-policy cache (:meth:`cached`) keeps assembled
    operators and PIA steps.
    """

    def __init__(self, model, fill: int = DEFAULT_FILL):
        self.model = model
        self.fill = int(fill)
        self.chain = model.chain_geometry
        self.mesh = _build_mesh(model, self.chain, self.fill)
        self._assembled: dict = {}
        self._segments: SegmentTables | None = None
        self._pass: tuple | None = None
        self.refine_diff: float | None = None
        self.refine_converged: bool | None = None

    @functools.cached_property
    def geometry(self) -> list[_Piece]:
        """The pieces, as views of the mesh; no solver layer reads them."""
        return self.mesh.pieces(self.chain.anchors)

    @property
    def truncated(self) -> np.ndarray:
        """(n,) whether each grid state's line stops at t_max instead of the boundary."""
        return ~np.array([e.hit for e in self.chain.exits], dtype=bool)[self.chain.exit_of]

    def backward(self, values: np.ndarray, factors: np.ndarray, terminal: np.ndarray) -> np.ndarray:
        """Value to go along every flow line, in one pass over the grid positions against the flow.

        From flow position q a line runs piece p: the segment to q + 1, or at
        a chain end its exit piece k.  So

            W[q] = values[p] + factors[p] * (W[q + 1], or terminal[k] at a chain end)

        with ``values`` and ``factors`` per piece and ``terminal`` per exit,
        any trailing shape broadcast.  Returns W per grid index.
        """
        out = np.empty((self.model.n_states,) + np.shape(values)[1:])
        w = None
        for j, p, k in self.chain.steps:
            w = values[p] + factors[p] * (w if k < 0 else terminal[k])
            out[j] = w
        return out

    # -- the per-policy cache -------------------------------------------------

    def cached(self, key, compute):
        """``compute()``, kept under ``key`` in the workspace's per-policy cache.

        The cache holds each policy's assembled operators (key ``(policy
        key, alpha)``) and its PIA step (see
        :func:`~pdmp_avgctl.policy_iteration.run_pia`); past
        ``CACHE_ENTRIES`` entries it starts over.  A ``compute`` that raises
        stores nothing.
        """
        out = self._assembled.get(key)
        if out is None:
            out = compute()
            if len(self._assembled) > CACHE_ENTRIES:
                self._assembled.clear()
            self._assembled[key] = out
        return out

    # -- assembled operator set ----------------------------------------------

    def assemble(self, policy, alpha: float = 0.0):
        """(kernel, ell, cost) of one policy, one backward pass over the piece tables.

        Piece p runs at the action a of its anchor, with kernel row

            g_p = sum_k weights[k, p, a] * kernel_interior.reshape(n * n_a, n)[cols[k, p, a]]

        (its band's kernel rows, weighted).  The pass carries

            [G, ell, cost] <- [g_p, sojourn_p, cost_p] + survival_p [G, ell, cost]

        from [Q_boundary(z, u_b), 0, r(z, u_b)] after an exit that hits the
        boundary at z and from 0 after one that stops at t_max, whose frozen
        tail its tables already hold (survival 0; see
        :func:`_segment_tables`).  Only zero discount is served; ``alpha`` is
        part of the cache key.
        """
        if alpha != 0.0:
            raise ValueError(f"assemble serves only alpha = 0, got alpha={alpha}")
        return self.cached((policy.key(), float(alpha)), lambda: self._assemble(policy))

    def _assemble(self, policy):
        model = self.model
        n, n_a = model.n_states, model.n_actions
        tables = self.segment_tables()
        n_pieces = self.chain.anchors.size
        pieces = np.arange(n_pieces)
        act = policy.interior[self.chain.anchors]
        # each piece's kernel row: its band's kernel rows at its action, weighted
        weights, cols = tables.weights[:, pieces, act].T, tables.cols[:, pieces, act].T
        values = np.empty((n_pieces, n + 2))
        values[:, :n] = (weights[:, None, :] @ model.kernel_interior.reshape(n * n_a, n)[cols])[:, 0]
        values[:, n] = tables.sojourn[pieces, act]
        values[:, n + 1] = tables.cost[pieces, act]
        terminal = np.zeros((len(self.chain.exits), n + 2))
        for k, e in enumerate(self.chain.exits):
            if e.hit:
                b_act = policy.boundary[e.boundary_index]
                terminal[k, :n] = model.kernel_boundary[e.boundary_index, b_act]
                terminal[k, n + 1] = model.boundary_cost[e.boundary_index, b_act]
        w = self.backward(values, tables.survival[pieces, act], terminal)
        return w[:, :n].copy(), w[:, n].copy(), w[:, n + 1].copy()

    # -- one-stage machinery ---------------------------------------------------

    def _boundary_choice(self, h: np.ndarray, prev):
        """Per boundary point: the chosen action, its value, and the minimum value.

        The choice is the feasible argmin, or the incumbent of ``prev`` when
        it ties within ``TIE_TOL``; without ``prev`` the chosen value is the
        minimum.
        """
        model = self.model
        nb = model.n_boundary
        best_val = np.empty(nb)
        min_val = np.empty(nb)
        best_act = np.empty(nb, dtype=np.int64)
        qh_b = model.kernel_boundary @ h if nb else np.zeros((0, model.n_actions))
        for zi in range(nb):
            vals = model.boundary_cost[zi] + qh_b[zi]
            masked = np.where(model.boundary_feasible_mask[zi], vals, np.inf)
            pick = int(np.argmin(masked))
            min_val[zi] = vals[pick]
            if prev is not None:
                incumbent = int(prev.boundary[zi])
                if masked[incumbent] <= masked[pick] + TIE_TOL * max(1.0, abs(masked[pick])):
                    pick = incumbent
            best_act[zi] = pick
            best_val[zi] = vals[pick]
        return best_act, best_val, min_val

    def segment_tables(self) -> SegmentTables:
        """The per-piece one-stage tables, built on first use.

        The lists :meth:`improve_and_certify` reads are built with them, so
        no pass pays for them.
        """
        if self._segments is None:
            self._segments = _segment_tables(self.model, self.mesh, self.chain.truncated_tail)
            self._pass = self._pass_lists(self._segments)
        return self._segments

    def _pass_lists(self, tables: SegmentTables) -> tuple:
        """What the improvement/certificate pass reads besides (rho, h), as lists where it loops.

        Per piece the survival of every action; per grid state its feasible
        actions, its mask and the mask of actions feasible at every piece
        start of its line (those a frozen-action sweep may hold); and the
        exits that hit the boundary with their boundary point.  Built with
        the segment tables, once per workspace.
        """
        model = self.model
        chain = self.chain
        # a line's sweep may hold an action feasible at every flow position
        # from the line's own to its chain end's: none of them counts it
        # among the infeasible ones
        bad = ~model.feasible_mask[chain.order]
        infeasible = np.cumsum(bad, axis=0)
        end = np.array([e.position for e in chain.exits], dtype=np.int64)[chain.exit_of[chain.order]]
        line_ok = np.empty(bad.shape, dtype=bool)
        line_ok[chain.order] = infeasible[end] == infeasible - bad
        hits = [(k, e.boundary_index) for k, e in enumerate(chain.exits) if e.hit]
        return (tables.survival.tolist(), [f.tolist() for f in model.action_grid.feasible],
                model.feasible_mask.tolist(), line_ok.tolist(), hits)

    def improve_and_certify(self, rho: float, h: np.ndarray, prev) -> tuple:
        """The improved policy and the optimality residual, one backward pass over the grid positions.

        *Improvement.*  At each grid point every feasible action is held
        over the piece that starts there, with the minimized value to go
        carried in at its end, so the pass minimizes over exactly the
        piecewise-constant-per-piece paths the operators integrate, and the
        chosen policy's one-stage value reproduces the pass's value.  A tie
        within ``TIE_TOL`` keeps the incumbent of ``prev``.  An exit piece
        that stops at t_max holds its frozen tail at the piece's own action
        (:func:`_segment_tables`), as the simulator runs it, so nothing is
        carried in after it.

        *Certificate.*  sup_x [ h(x) - min over frozen-action sweeps of the
        one-stage value ]: each action is held constant along the whole flow
        line (the boundary choice is optimized separately, with no
        incumbent), and an action infeasible at some grid point the line
        starts a piece from is excluded.  The same pass carries every
        action's sweep value.  A line from a chain end runs one piece, so
        only a model with empty feasible sets (which ``validate_model``
        flags) can leave no line such a sweep; that raises ``ValueError``.

        Qh, the boundary minima and the pieces' one-stage values are computed
        once for both, and the arithmetic is that of a pass per part.
        """
        model = self.model
        h = np.asarray(h, dtype=float)
        qh_int = model.kernel_interior @ h  # (n, n_a)
        b_act, b_val, b_min = self._boundary_choice(h, prev)
        values = self.segment_tables().values(rho, qh_int).tolist()
        survival, feasible, mask, line_ok, hits = self._pass
        if not any(map(any, line_ok)):
            raise ValueError("no flow line admits a feasible frozen-action sweep")
        terminal = [0.0] * len(self.chain.exits)  # improvement
        sweep_end = [0.0] * len(self.chain.exits)  # certificate
        b_val, b_min = b_val.tolist(), b_min.tolist()
        for k, zi in hits:
            terminal[k], sweep_end[k] = b_val[zi], b_min[zi]

        h_list = h.tolist()
        incumbents = prev.interior.tolist()
        new_interior = [0] * model.n_states
        residual = -math.inf
        for j, p, k in self.chain.steps:  # the first step, the last flow position, is a chain end
            v_s, b_s = values[p], survival[p]
            if k >= 0:
                w_next = terminal[k]
                w_end = sweep_end[k]
                sweep = [v + b * w_end for v, b in zip(v_s, b_s)]
            else:
                sweep = [v + b * w for v, b, w in zip(v_s, b_s, sweep)]
            ok = line_ok[j]
            if any(ok):
                gap = h_list[j] - min(compress(sweep, ok))
                if gap > residual:
                    residual = gap

            pick, best = None, math.inf
            for a in feasible[j]:
                val = v_s[a] + b_s[a] * w_next
                if val < best:
                    pick, best = a, val
            incumbent = incumbents[j]
            if pick is None or (mask[j][incumbent] and v_s[incumbent] + b_s[incumbent] * w_next
                                <= best + TIE_TOL * max(1.0, abs(best))):
                pick = incumbent
            w_next = v_s[pick] + b_s[pick] * w_next
            new_interior[j] = pick
        return FeedbackPolicy(interior=np.array(new_interior, dtype=np.int64), boundary=b_act), residual


def check_entry(model, policy, workspace: OperatorWorkspace | None = None) -> None:
    """Refuse with ``ValueError`` a workspace built for another model object
    (its mesh, tables and caches would answer for the wrong model without a
    sign), then a policy of the wrong length, with a non-integer action
    array, or with an action outside a state's feasible set or the action
    grid ("infeasible policy: ..."; see
    :meth:`~pdmp_avgctl.model.FeedbackPolicy.feasibility_problems`).
    """
    if workspace is not None and workspace.model is not model:
        raise ValueError("the workspace was built for another model")
    problems = policy.feasibility_problems(model)
    if problems:
        raise ValueError("infeasible policy: " + "; ".join(problems))


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    """max |new - old|, with one array of their size."""
    change = new - old
    np.abs(change, out=change)
    return float(change.max())


def refined_workspace(model, policy, *, target: float = REFINE_TARGET,
                      start: OperatorWorkspace | None = None) -> OperatorWorkspace:
    """Double per-piece mesh fill until successive operator sets agree.

    Refinement starts from ``start`` (a workspace of ``model``, say one an
    audit already built; refused as :func:`check_entry` refuses) or from a
    new one at ``DEFAULT_FILL``.  Agreement
    is measured as the max absolute change across kernel entries, expected
    sojourn weights and one-policy costs; the finer workspace is returned
    with the achieved difference recorded on ``refine_diff`` and whether it
    met ``target`` on ``refine_converged``.  Stopping short of the target,
    at ``MAX_FILL`` or where the doubled fill's mesh would pass
    ``MAX_MESH_NODES`` (predicted before it is built), warns with a
    :class:`RuntimeWarning`.
    """
    check_entry(model, policy, start)
    ws = start if start is not None else OperatorWorkspace(model, DEFAULT_FILL)
    fill = ws.fill
    kernel, ell, cost = ws.assemble(policy, 0.0)
    diff = math.inf
    limit = f"max_fill {MAX_FILL}"
    while fill < MAX_FILL:
        if not _mesh_nodes(model, ws.chain, fill * 2)[1] <= MAX_MESH_NODES:
            limit = f"fill {fill * 2} would pass MAX_MESH_NODES = {MAX_MESH_NODES}"
            break
        # only the coarser fill's operators are compared, so its workspace
        # goes before the finer one is built (a ``start`` stays with its caller)
        del ws
        ws = OperatorWorkspace(model, fill * 2)
        finer = ws.assemble(policy, 0.0)
        diff = max(_max_change(new, old) for new, old in zip(finer, (kernel, ell, cost)))
        ws.refine_diff = diff
        kernel, ell, cost = finer
        fill *= 2
        if diff <= target:
            break
    ws.refine_converged = diff <= target
    if not ws.refine_converged:
        warnings.warn(f"mesh refinement stopped at fill {fill} ({limit}) with "
                      f"refine_diff {ws.refine_diff} above the target {target:g}",
                      RuntimeWarning, stacklevel=2)
    return ws
