"""Monte Carlo simulation of the controlled process under a feedback policy.

Trajectories follow the standard construction: deterministic flow between
jumps, spontaneous jumps via the inhomogeneous hazard (sampled by inverse
transform on the tabulated cumulative hazard), forced jumps at boundary hits,
post-jump states drawn from the transition kernel.  Cost integrals reuse the
operator engine's meshes so the simulated running cost and the solver's flow
integrals are the same discretization.

The tables index the operator mesh's own nodes: a node table holds one
entry per mesh node, an interval table one per node pair.  The inter-grid
segments form one node chain in flow order, with one time, cumulative
hazard C and cumulative running cost along it per policy, each segment's
own running sums on top of the totals of the segments before it.  So the
two nodes of a joint, a segment's last node and the next segment's first,
hold the same time, hazard and cost, and both hold the grid point as their
state: a search of C or of the times steps over the zero-length pair
between them.  Only a level that rounds onto the value at a line's chain
end stops on such a pair, and reads the joint's time and state.  The line
from grid point j is the stretch of the chain from its start node b_j to
the node e_j of its chain end, then the nodes of that chain end's exit
piece, which follow the chain in the same arrays.  So the tables take O(n * fill)
memory, and no line copies the chain or an exit piece.  They are built by
the engine's buffer rule: no intermediate outlives its last read, and the
shared mesh and chain arrays are never written.  A constant exit piece,
whose jump rate, running cost and post-jump kernel row are the same all
along, is one interval of the operator mesh, and so of the tables.

A jump costs O(log K) interpreted work on a K-node line and makes neither a
numpy call nor a Python call: the sojourn, its running cost and the
post-jump draw are written out in :func:`simulate`'s loop.  The tables are
memoryviews of their node arrays, which index to Python floats and are
searched in place by :mod:`bisect` without a copy.  The sojourn is one
``bisect_right(C, C[b_j] + level, b_j, e_j)`` on the chain, or, when the
hazard level passes the chain's end, the same search over the exit piece's
nodes; the running-cost integral reuses the interval found.  The post-jump
state is one ``bisect_left`` on one of the model's cumulative kernel rows.
Between grid points the row is the linear mixture of the two neighbouring
rows, whose cell the interval's ``cell`` entry guesses (two comparisons
check it, and only a failed check searches the grid): one ``bisect_left``
on the lower neighbour's row, then a step at a time to the first state
whose mixed key ``w lo[q] + v hi[q]`` reaches the target.  With no
negative kernel entry the key does not decrease along the row, so that is
the state a binary search on the keys finds, and on neighbouring rows that
differ little it lies within a few states of the lower row's crossing.  The loop runs once per pair of a
block of uniforms drawn from the stream; the jump-count guard cuts the
block where it trips.

A hazard level that passes the whole of a line that hits the boundary (the
chain stretch and the whole exit piece) always gives the same sojourn,
``chain_time + end``, and the same running cost, stored as the line's
``pass_cost``.  The loop takes a third branch for such a boundary pass: it
adds the two with the boundary charge and draws the post-jump state on the
boundary row, the general branch's arithmetic with its searches done once
when the tables are built.  The general branch draws interior jumps and
sojourns past ``t_max`` only.

A stationary line is one such constant exit piece and nothing else: no
chain stretch, no boundary hit, and one stored kernel row for every
post-jump draw (a pure-jump process has only these).  Its state does not
move, so its sojourn is exponential, ``level / rate``, or past ``t_max`` the
tail formula.  A jump on it costs one row search, not O(log K): the loop
takes a short branch that does the general branch's arithmetic with the
line's invariants (:class:`_Stationary`) in place of the searches, and so
draws the same trajectory bit for bit.

What does not change from one replication to the next is checked once: the
policy's feasibility when its :class:`SimulationTables` are built, and in
:func:`simulate` only that the tables belong to the model and policy given.
A replication's stream re-keys the thread's one generator rather than
building one.

The jump loop keeps no batch state.  The batch-means standard error is the
single-run estimator of one long trajectory (Law, *Simulation Modeling and
Analysis*, 5th ed., 2015, ch. 9), so it is derived after the loop from the
trajectory record: each batch edge is costed on the sojourn that holds it,
with the arithmetic a loop that costs the edges as it passes them would
use, and the edges and the standard error are ``np.linspace``'s and
``np.std``'s.  A replication that builds no record (``record=False``, as
:func:`mc_validate`'s do) has no trajectory to batch, and its summary's
``se`` is None.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import RATE_FLOOR, OperatorWorkspace, check_entry

DEFAULT_BATCHES = 20
# the jump-count guard: max(MAX_JUMPS_FLOOR, MAX_JUMPS_FACTOR * (lambda_sup + 1) * horizon)
MAX_JUMPS_FLOOR = 100_000
MAX_JUMPS_FACTOR = 100.0
UNIFORM_BLOCK = 1024  # uniforms per draw from the stream; even, so pairs never straddle blocks
CUMSUM_STATES = 64  # states whose kernel rows one cumsum of _cumulative_rows takes
_DEAD_TAIL = ("drawn hazard level exceeds the tabulated horizon and the tail jump rate is (numerically) "
              "zero; the model violates the divergence the rate floor is supposed to guarantee")


class SimulationError(RuntimeError):
    """Simulation could not proceed (invalid model behavior at runtime)."""


class SimulationExplosionError(SimulationError):
    """Jump-count guard tripped; diagnostics carried on ``.stats``."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True, slots=True)
class _Nodes:
    """A policy's path tables on the mesh's own nodes: the chain of inter-grid
    segments, then every chain end's exit piece.

    A node table holds one entry per mesh node.  Along the chain the times,
    cumulative hazard C and cumulative running cost run on from segment to
    segment, so both nodes of a joint hold the same values; both take the
    next segment's first state, the grid point itself, and the last
    segment's last node, the chain's end, keeps its flowed state.  The exit
    pieces are timed from their start, with hazard and cost summed from 0
    there.  An interval table holds one entry per node pair of the mesh,
    indexed by its left node; a pair that joins two pieces is no interval,
    and a search reads its entry only at a level rounded onto a chain end's
    value, where its zero length gives the joint's time and state.
    ``f_left``/``f_right`` are the views ``[:-1]`` and ``[1:]`` of one node
    array of running costs.  ``cell`` is each pair's grid cell: the lower of
    its two nodes' cells, where the cell of a state is the clamped index
    ``i`` whose grid points ``i`` and ``i + 1`` bound it (``mesh.ilo``).  A
    jump state on the interval lies between the nodes' states, so the
    post-jump draw takes it as a guess at the jump state's cell and checks
    it.  Each table is a ``memoryview`` of a float64 (``actions``, ``cell``:
    int64) array: indexing it gives a Python number and :mod:`bisect`
    searches it, without copying the array.
    """

    times: memoryview
    states: memoryview
    hazard: memoryview       # cumulative hazard at nodes
    slope: memoryview        # hazard slope per interval
    cost_cum: memoryview     # cumulative running cost at nodes
    f_left: memoryview
    f_right: memoryview
    actions: memoryview      # interval actions
    cell: memoryview         # interval grid cells


class _Stationary(NamedTuple):
    """What a sojourn on a stationary line reads, in the jump loop's order.

    The line has no chain stretch and no boundary hit, and its exit piece is
    one interval of constant rate, cost and post-jump row.
    """

    rate: float              # the interval's hazard slope
    end: float
    hazard_end: float
    lam_tail: float
    f_sum: float             # the interval's f_left + f_right
    cost_end: float
    f_tail: float
    row: list                # the cumulative kernel row of every post-jump draw
    row_total: float         # that kernel row's sum()


@dataclass(slots=True)
class _Line:
    """One start state's feedback path: a stretch of the chain, then its chain end's exit piece.

    ``b``/``e`` are the mesh nodes of the start state and of its chain end
    (equal when the start state is a chain end): the first node of the
    segment that starts there, or past the last segment the chain's end
    (node 0 on a mesh with no segment, whose chain stretches are empty).
    ``*_b`` are the node tables' values at ``b``, and ``chain_*`` the hazard,
    time and running cost between ``b`` and ``e``.  ``x0``/``x1`` are the
    first and last mesh nodes of the chain end's exit piece; the scalars are
    its totals and what a sojourn past the tabulated horizon needs.
    ``pass_cost``, set from the rest, is the running cost of the whole line,
    ``_cost_to(line, chain_time + end)``: what a sojourn that ends on the
    boundary hit costs.  ``stationary`` is what the jump loop's short branch
    reads on a stationary line, and None on any other line.
    """

    nodes: _Nodes            # shared by every line, not copied
    b: int
    e: int
    x0: int
    x1: int
    hazard_b: float
    time_b: float
    cost_b: float
    chain_hazard: float
    chain_time: float
    chain_cost: float
    hit: bool
    boundary_index: int
    boundary_action: int
    hazard_end: float        # the exit piece's hazard
    cost_end: float          # the exit piece's running cost
    end: float               # the exit piece's duration
    lam_tail: float
    f_tail: float
    state_tail: float
    action_tail: int         # the exit piece's action
    stationary: _Stationary | None
    pass_cost: float = field(init=False)  # the running cost of a sojourn to the line's end

    def __post_init__(self):
        # the whole line's running cost is _cost_to's on the line itself
        self.pass_cost = _cost_to(self, self.chain_time + self.end)


def _node_tables(mesh, n_chain: int, piece_action: np.ndarray) -> _Nodes:
    """The policy's :class:`_Nodes` on ``mesh``'s own nodes.

    The hazard slope of an interval is the trapezoid of the jump rates at its
    two nodes and the running cost is linear between its node values, each
    node read under its piece's action.  Every piece's hazard and cost are
    its own running sums from 0; the chain adds each segment's onto the
    totals of the segments before it, so rounding does not build up over the
    whole chain.  Each table is made as soon as what it is made from is at
    hand, and every node array is dropped after its last read.
    """
    node_start = mesh.node_start
    ends = node_start[1:n_chain + 1] - 1  # each segment's last node

    def chained(own):
        """``own``, each segment's values in place on top of the totals of the segments before it."""
        before = np.concatenate(([0.0], np.cumsum(own[ends])))
        own[:node_start[n_chain]] += np.repeat(before[:-1], np.diff(node_start[:n_chain + 1]))
        return own

    actions = np.repeat(piece_action, np.diff(node_start))
    cell = np.minimum(mesh.ilo[:-1], mesh.ilo[1:])
    at = np.arange(mesh.times.size)
    at *= mesh.lam_nodes.shape[1]
    at += actions
    lam = mesh.lam_nodes.ravel().take(at)
    f = mesh.f_nodes.ravel().take(at)
    del at
    slope = lam[:-1] + lam[1:]
    slope *= 0.5
    del lam
    hazard = slope * mesh.pair_dt  # the hazard over each pair
    hazard = chained(mesh.running_sums(hazard))
    cost = 0.5 * mesh.pair_dt
    cost *= f[:-1] + f[1:]  # the running cost over each pair
    cost = chained(mesh.running_sums(cost))
    # a joint takes the next segment's first state, the grid point itself
    states = mesh.states.copy()
    states[ends[:-1]] = mesh.states[node_start[1:n_chain]]
    return _Nodes(times=memoryview(chained(mesh.times.copy())), states=memoryview(states),
                  hazard=memoryview(hazard), slope=memoryview(slope), cost_cum=memoryview(cost),
                  f_left=memoryview(f[:-1]), f_right=memoryview(f[1:]), actions=memoryview(actions[:-1]),
                  cell=memoryview(cell))


def _fixed_row(points: list, y0: float, y1: float) -> int:
    """The stored kernel row that every post-jump draw on the interval from
    ``y0`` to ``y1`` reads, or -1 where no one row is sure.

    The jump loop's jump point ``y0 + (y1 - y0) * frac``, ``frac >= 0``, is
    ``y0`` when the two are equal, and else lies on ``y1``'s side of ``y0``
    (or on it), whatever the rounding.  So an interval that starts at or
    below the first grid point and moves down, or at or above the last and
    moves up, draws every jump from the clamped first or last row; one that
    does not move draws from the row the loop's weights give at ``y0``, when
    they pick one stored row.
    """
    n = len(points)
    if y1 < y0 <= points[0]:
        return 0
    if y1 > y0 >= points[-1]:
        return n - 1
    if y1 != y0:
        return -1
    i = min(max(bisect_right(points, y0) - 1, 0), n - 2)
    w = 1.0 - min(max((y0 - points[i]) / (points[i + 1] - points[i]), 0.0), 1.0)
    return i if w == 1.0 else i + 1 if w == 0.0 else -1


class SimulationTables:
    """Frozen per-policy simulation data for every grid state.

    Besides the shared :class:`_Nodes` and one :class:`_Line` per start state
    it holds, as Python lists, the model data a post-jump draw reads: the
    grid points, the cells' bounds, the cumulative kernel rows, each kernel
    row's ``sum()`` and the boundary charges.  ``cell_bounds`` is the grid
    points with the first and last replaced by -inf and inf, so cell ``i``
    holds the states ``y`` with ``cell_bounds[i] <= y < cell_bounds[i +
    1]``, the states outside the grid included.  A stationary line carries
    its :class:`_Stationary`, which holds its cumulative kernel row.  The
    kernel rows are the model's (:attr:`~pdmp_avgctl.model.PdmpModel.kernel_rows`),
    shared by every policy's tables.  Before anything is built, they refuse as
    :func:`~pdmp_avgctl.operators.check_entry` does.
    """

    def __init__(self, model, policy, *, workspace: OperatorWorkspace | None = None):
        check_entry(model, policy, workspace)
        self.model = model
        self.policy = policy
        ws = workspace if workspace is not None else OperatorWorkspace(model)
        mesh = ws.mesh
        self.points = model.grid.points.tolist()
        self.cell_bounds = [-math.inf] + self.points[1:-1] + [math.inf]
        self.interior_cum, self.interior_sum, self.boundary_cum, self.boundary_sum = model.kernel_rows
        self.boundary_cost = model.boundary_cost.tolist()
        piece_action = policy.interior[ws.chain.anchors]
        n_chain = ws.chain.n_chain
        self.nodes = nodes = _node_tables(mesh, n_chain, piece_action)
        times, hazard, cost_cum = nodes.times, nodes.hazard, nodes.cost_cum
        starts = mesh.node_start.tolist()
        # a flow position past the last segment starts at the chain's end, the
        # last segment's last node; with no segment, node 0 stands for it
        node_of = starts[:n_chain] + [max(starts[n_chain] - 1, 0)] * (model.n_states - n_chain)
        position = ws.chain.position.tolist()
        self.lines = []
        for j, k in enumerate(ws.chain.exit_of.tolist()):
            ex = ws.chain.exits[k]
            b, e = node_of[position[j]], node_of[ex.position]
            p = ex.piece
            x0, x1 = starts[p], starts[p + 1] - 1
            act = int(piece_action[p])
            end, hazard_end, cost_end = times[x1], hazard[x1], cost_cum[x1]
            lam_tail, f_tail = float(mesh.lam_nodes[x1, act]), float(mesh.f_nodes[x1, act])
            stationary = None
            if b == e and not ex.hit and ex.constant:
                row = _fixed_row(self.points, nodes.states[x0], nodes.states[x1])
                if row >= 0:
                    stationary = _Stationary(
                        rate=nodes.slope[x0], end=end, hazard_end=hazard_end, lam_tail=lam_tail,
                        f_sum=nodes.f_left[x0] + nodes.f_right[x0], cost_end=cost_end, f_tail=f_tail,
                        row=self.interior_cum[row][act], row_total=self.interior_sum[row][act])
            self.lines.append(_Line(
                nodes=nodes, b=b, e=e, x0=x0, x1=x1,
                hazard_b=hazard[b], time_b=times[b], cost_b=cost_cum[b],
                chain_hazard=hazard[e] - hazard[b],
                chain_time=times[e] - times[b],
                chain_cost=cost_cum[e] - cost_cum[b],
                hit=ex.hit,
                boundary_index=ex.boundary_index,
                boundary_action=int(policy.boundary[ex.boundary_index]) if ex.hit else -1,
                hazard_end=hazard_end,
                cost_end=cost_end,
                end=end,
                lam_tail=lam_tail,
                f_tail=f_tail,
                state_tail=nodes.states[x1],
                action_tail=act,
                stationary=stationary,
            ))


def _cumulative_rows(kernel: np.ndarray) -> tuple[list, list]:
    """Per (state, action) kernel row: its cumulative sums and its ``sum()``, as lists.

    One ``cumsum`` per ``CUMSUM_STATES`` states' rows and one ``sum`` over
    the kernel's last axis, each the row-by-row result bit for bit: a
    cumulative sum runs along its row, and the sum reduces each contiguous
    row on its own.  The blocks keep the array beside the lists to a
    block's rows, not the kernel's size, once per model and kernel.
    """
    cum = []
    for lo in range(0, len(kernel), CUMSUM_STATES):
        cum += np.cumsum(kernel[lo:lo + CUMSUM_STATES], axis=-1).tolist()
    return cum, kernel.sum(axis=-1).tolist()


def prepare_simulation(model, policy, *, workspace: OperatorWorkspace | None = None) -> SimulationTables:
    return SimulationTables(model, policy, workspace=workspace)


def _cost_to(line: _Line, tau: float) -> float:
    """Running-cost integral over [0, tau] along ``line``.

    :func:`simulate` runs the same arithmetic inline for each sojourn, with
    the sojourn's interval as a guess that spares the search.
    """
    nodes = line.nodes
    times, cost_cum = nodes.times, nodes.cost_cum
    if tau < line.chain_time:
        # on the chain stretch, timed from node b
        lo, hi, c_base, c_before = line.b, line.e, line.cost_b, 0.0
        tau += line.time_b
    else:
        # on the exit piece, timed from its start
        tau -= line.chain_time
        if tau >= line.end:
            return line.chain_cost + (line.cost_end + (tau - line.end) * line.f_tail)
        lo, hi, c_base, c_before = line.x0, line.x1, 0.0, line.chain_cost
    k = bisect_right(times, tau, lo, hi) - 1
    t_k = times[k]
    dt = times[k + 1] - t_k
    sigma = tau - t_k
    f_k = nodes.f_left[k]
    f_at = f_k + (nodes.f_right[k] - f_k) * (sigma / dt if dt > 0 else 0.0)
    return c_before + (cost_cum[k] - c_base + 0.5 * sigma * (f_k + f_at))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One simulated path: jump times, post-jump states, costs, counters."""

    jump_times: np.ndarray
    post_jump_states: np.ndarray
    hit_boundary: np.ndarray
    cost_at_jumps: np.ndarray
    running_cost_total: float
    boundary_cost_total: float
    boundary_hits: int
    jump_count: int
    final_time: float

    def to_rows(self) -> list[tuple]:
        rows = []
        for t, z, hb, cum in zip(self.jump_times, self.post_jump_states,
                                 self.hit_boundary, self.cost_at_jumps):
            rows.append((float(t), "boundary" if hb else "jump", int(z), float(cum)))
        rows.append((self.final_time, "end", -1,
                     self.running_cost_total + self.boundary_cost_total))
        return rows


@dataclass(frozen=True)
class SimulationSummary:
    average: float
    se: float | None         # the recorded trajectory's batch-means standard error; None without a record
    jumps: int
    boundary_hits: int
    seed: int
    replication: int
    horizon: float
    batches: int

    def to_dict(self) -> dict:
        return {
            "schema": "pdmp-sim/1",
            "average": self.average,
            "se": self.se,
            "jumps": self.jumps,
            "boundary_hits": self.boundary_hits,
            "seed": self.seed,
            "replication": self.replication,
            "horizon": self.horizon,
            "batches": self.batches,
        }


def _key_words(seed: int, replication: int) -> tuple[int, int]:
    """(seed, replication) as the two words of a Philox key, each an unsigned 64-bit integer."""
    for name, value in (("seed", seed), ("replication", replication)):
        if not 0 <= int(value) < 2**64:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return int(seed), int(replication)


def _rng_stream(seed: int, replication: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, replication).

    The key is passed as a uint64 array: numpy reads a list holding a word
    of 2**63 or more next to a smaller one as float64, which rounds the
    word.  Below 2**63 both forms give the same key.
    """
    return np.random.Generator(np.random.Philox(key=np.array(_key_words(seed, replication), dtype=np.uint64)))


_streams = threading.local()  # each thread's one generator, which _thread_stream re-keys


def _thread_stream(seed: int, replication: int) -> np.random.Generator:
    """This thread's generator, re-keyed to the stream of :func:`_rng_stream` (``seed``, ``replication``).

    Setting the Philox state to a fresh key's (counter, buffer and
    ``buffer_pos`` reset) is several times cheaper than building a
    generator, and gives the same stream whatever was drawn before: the
    state is all a Philox stream reads.  Each thread re-keys its own
    generator, so no two threads share a stream.
    """
    key = _key_words(seed, replication)
    rng = getattr(_streams, "rng", None)
    if rng is None:
        rng = _streams.rng = _rng_stream(*key)
    else:
        rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                                   "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _uniform_block(rng: np.random.Generator) -> list:
    """The stream's next ``UNIFORM_BLOCK`` uniforms, as Python floats.

    ``rng.random(size)`` yields the same doubles as that many scalar
    ``rng.random()`` calls, so reading the blocks in order gives the scalar
    draws.
    """
    return rng.random(UNIFORM_BLOCK).tolist()


def _recorded_se(lines: list, x0: int, horizon: float, batches: int,
                 jt: list, jz: list, jcum: list, total: float) -> float:
    """The batch-means standard error of a recorded trajectory of total cost ``total``.

    Batch edge ``e`` below the horizon lies in the sojourn that starts at
    the last recorded jump at or before it, the ``i``-th with ``i =
    bisect_right(jt, e) - 1``, or at time 0 in ``x0`` when there is none.
    Its cost is the cost at that jump plus the running cost of the
    sojourn's line up to ``e``.
    Edges from the horizon on take the total.  That is the arithmetic, in
    its order, of a jump loop that costs each edge as it passes it, so the
    standard error is the same bit for bit.
    """
    if batches == 1:
        return 0.0
    edge_costs = []
    for e in np.linspace(horizon / batches, horizon, batches).tolist():
        if not e < horizon:
            break
        i = bisect_right(jt, e) - 1
        at, line, t = (jcum[i], lines[jz[i]], jt[i]) if i >= 0 else (0.0, lines[x0], 0.0)
        edge_costs.append(at + _cost_to(line, e - t))
    edge_costs += [total] * (batches - len(edge_costs))
    batch_means = np.diff(np.concatenate([[0.0], edge_costs])) / (horizon / batches)
    return float(np.std(batch_means, ddof=1) / math.sqrt(batches))


def _check_horizon(horizon: float) -> None:
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


def simulate(model, policy, x0: int, horizon: float, seed: int, *,
             replication: int = 0, record: bool = True,
             tables: SimulationTables | None = None) -> tuple[TrajectoryRecord | None, SimulationSummary]:
    """Simulate the controlled process from grid state index ``x0``.

    Identical (model, policy, x0, horizon, seed, replication) reproduce the
    trajectory bit for bit (counter-based generator, fixed draw order: one
    uniform for the sojourn and one for the post-jump state per jump, drawn
    from the stream in blocks).  The stream is this thread's one generator,
    re-keyed for each call (:func:`_thread_stream`).  With ``record=False``
    no :class:`TrajectoryRecord` is built, and None stands in its place.

    ``tables`` must have been prepared for this model object and this policy
    (the same object or one with the same :meth:`FeedbackPolicy.key`); they
    checked the policy's feasibility when they were built, so a replication
    does not check it again.

    The average's standard error comes from ``DEFAULT_BATCHES`` batch means
    of the recorded trajectory (:func:`_recorded_se`); without a record it
    is None.  A run past the jump-count guard (``MAX_JUMPS_FLOOR``,
    ``MAX_JUMPS_FACTOR``) raises :class:`SimulationExplosionError`.
    """
    _check_horizon(horizon)
    if not 0 <= int(x0) < model.n_states:
        raise ValueError(f"x0 must be a grid state index in [0, {model.n_states}), got {x0}")
    if tables is None:
        tabs = prepare_simulation(model, policy)
    elif tables.model is not model:
        raise ValueError("simulation tables were prepared for another model")
    elif tables.policy is not policy and tables.policy.key() != policy.key():
        raise ValueError("simulation tables were prepared for another policy")
    else:
        tabs = tables
    rng = _thread_stream(seed, replication)
    max_jumps = int(max(MAX_JUMPS_FLOOR, MAX_JUMPS_FACTOR * (model.lambda_sup + 1.0) * horizon))

    points = tabs.points
    n = len(points)
    last = n - 1
    # one line past the last, so a draw one past a row's end needs no clamp
    lines = tabs.lines + tabs.lines[-1:]
    nodes = tabs.nodes
    n_hazard, n_times, n_states, n_slope, n_actions, n_cell = \
        nodes.hazard, nodes.times, nodes.states, nodes.slope, nodes.actions, nodes.cell
    n_cost, n_f_left, n_f_right = nodes.cost_cum, nodes.f_left, nodes.f_right
    bounds = tabs.cell_bounds
    cum, total = tabs.interior_cum, tabs.interior_sum
    boundary_cum, boundary_sum, boundary_cost = tabs.boundary_cum, tabs.boundary_sum, tabs.boundary_cost
    log1p = math.log1p
    rate_floor, block_pairs = RATE_FLOOR, UNIFORM_BLOCK // 2
    t = 0.0
    j = int(x0)
    cost_f = 0.0
    cost_r = 0.0
    jumps = 0
    hits = 0
    jt, jz, jh, jcum = [], [], [], []

    while t < horizon:
        block = _uniform_block(rng)
        if max_jumps - jumps < block_pairs:
            # cut the block so that its last pair makes the jump that trips the guard
            block = block[:2 * (max_jumps + 1 - jumps)]
        pairs = iter(block)
        for u_level, u_jump in zip(pairs, pairs):
            line = lines[j]
            level = -log1p(-u_level)
            still = line.stationary
            if still is not None:
                # a stationary line: the general branch's arithmetic on its one
                # interval, where the chain stretch, the node searches and the
                # row interpolation drop out
                rate, end, hazard_end, lam_tail, f_sum, cost_end, f_tail, row, row_total = still
                hit = False
                if level < hazard_end:
                    sojourn = level / rate if rate > rate_floor else 0.0
                elif lam_tail <= rate_floor:
                    raise SimulationError(_DEAD_TAIL)
                else:
                    sojourn = end + (level - hazard_end) / lam_tail
            elif line.hit and level >= line.chain_hazard and level - line.chain_hazard >= line.hazard_end:
                # a boundary pass: the level passes the chain stretch and the
                # whole exit piece, so the sojourn ends on the boundary hit
                sojourn, hit = line.chain_time + line.end, True
            else:
                # the sojourn: inverse transform of the uniform on the cumulative
                # hazard, over the nodes of the chain stretch (timed from node b)
                # or of the exit piece (timed from its start, after the chain
                # time); k is the interval holding it, -1 past the table
                hit = False
                if level < line.chain_hazard:
                    level += line.hazard_b
                    k = bisect_right(n_hazard, level, line.b, line.e) - 1
                    t_base = line.time_b
                    t_before = 0.0
                else:
                    level -= line.chain_hazard
                    k = bisect_right(n_hazard, level, line.x0, line.x1) - 1 if level < line.hazard_end else -1
                    t_base = 0.0
                    t_before = line.chain_time
                if k >= 0:
                    m = n_slope[k]
                    t_k = n_times[k]
                    t_k1 = n_times[k + 1]
                    dt = t_k1 - t_k
                    sigma = (level - n_hazard[k]) / m if m > rate_floor else 0.0
                    frac = sigma / dt if dt > 0 else 0.0
                    y_k = n_states[k]
                    y_jump = y_k + (n_states[k + 1] - y_k) * frac
                    sojourn, act, i = t_before + (t_k - t_base + sigma), n_actions[k], n_cell[k]
                elif line.lam_tail <= rate_floor:
                    raise SimulationError(_DEAD_TAIL)
                else:
                    y_jump = line.state_tail
                    sojourn, act = t_before + (line.end + (level - line.hazard_end) / line.lam_tail), \
                        line.action_tail
                    i = bisect_right(bounds, y_jump) - 1
            t_next = t + sojourn
            # a jump landing exactly on the horizon still counts (T_i <= t convention)
            if t_next > horizon:
                cost_f += _cost_to(line, horizon - t)
                t = horizon
                break

            if still is not None:
                # _cost_to(line, sojourn) on the one interval, and the post-jump
                # state on the line's one kernel row
                if sojourn < end:
                    cost_f += 0.5 * sojourn * f_sum
                else:
                    cost_f += cost_end + (sojourn - end) * f_tail
                j = bisect_left(row, u_jump * row_total)
            elif hit:
                # the whole line's running cost, the boundary charge, and the
                # post-jump state on the boundary row
                cost_f += line.pass_cost
                b, a = line.boundary_index, line.boundary_action
                cost_r += boundary_cost[b][a]
                hits += 1
                j = bisect_left(boundary_cum[b][a], u_jump * boundary_sum[b][a])
            else:
                # the running cost of the sojourn: _cost_to(line, sojourn), with
                # the sojourn's interval k as the guess at the interval holding it
                tau = sojourn
                if tau < line.chain_time:
                    lo, hi, c_base, c_before = line.b, line.e, line.cost_b, 0.0
                    tau += line.time_b
                else:
                    tau -= line.chain_time
                    lo, hi, c_base, c_before = line.x0, line.x1, 0.0, line.chain_cost
                    if tau >= line.end:  # past the table: no interval to integrate
                        lo = -1
                        cost_f += line.chain_cost + (line.cost_end + (tau - line.end) * line.f_tail)
                if lo >= 0:
                    # t_k and t_k1 still hold the times at the ends of the sojourn's interval k
                    if not (lo <= k < hi and t_k <= tau < t_k1):
                        k = bisect_right(n_times, tau, lo, hi) - 1
                        t_k = n_times[k]
                        t_k1 = n_times[k + 1]
                    dt = t_k1 - t_k
                    sigma = tau - t_k
                    f_k = n_f_left[k]
                    f_at = f_k + (n_f_right[k] - f_k) * (sigma / dt if dt > 0 else 0.0)
                    cost_f += c_before + (n_cost[k] - c_base + 0.5 * sigma * (f_k + f_at))

                # the post-jump state: the first whose cumulative kernel mass
                # reaches u times the row's, on the kernel row interpolated
                # between the grid points around y_jump, whose cell i is the
                # guess checked here; between them, the first whose mixed key
                # reaches it, stepped to from the lower row's first crossing
                if not bounds[i] <= y_jump < bounds[i + 1]:
                    i = bisect_right(bounds, y_jump) - 1
                frac = (y_jump - points[i]) / (points[i + 1] - points[i])
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                w = 1.0 - frac
                if w == 1.0:
                    j = bisect_left(cum[i][act], u_jump * total[i][act])
                elif w == 0.0:
                    j = bisect_left(cum[i + 1][act], u_jump * total[i + 1][act])
                else:
                    v = 1.0 - w
                    row_lo, row_hi = cum[i][act], cum[i + 1][act]
                    target = u_jump * (w * total[i][act] + v * total[i + 1][act])
                    j = bisect_left(row_lo, target)
                    while j < n and w * row_lo[j] + v * row_hi[j] < target:
                        j += 1
                    while j and w * row_lo[j - 1] + v * row_hi[j - 1] >= target:
                        j -= 1
            jumps += 1
            t = t_next
            if record:
                jt.append(t)
                jz.append(j if j < n else last)
                jh.append(hit)
                jcum.append(cost_f + cost_r)
            if not t < horizon:
                break
        if jumps > max_jumps:
            raise SimulationExplosionError(
                f"jump count exceeded the guard ({max_jumps}) at t={t:.6g}",
                stats={"jumps": jumps, "time": t, "horizon": horizon,
                       "recent_rate": jumps / max(t, 1e-12)},
            )

    batches = DEFAULT_BATCHES
    se = _recorded_se(tabs.lines, int(x0), horizon, batches, jt, jz, jcum, cost_f + cost_r) if record else None
    record_obj = TrajectoryRecord(
        jump_times=np.asarray(jt),
        post_jump_states=np.asarray(jz, dtype=np.int64),
        hit_boundary=np.asarray(jh, dtype=bool),
        cost_at_jumps=np.asarray(jcum),
        running_cost_total=cost_f,
        boundary_cost_total=cost_r,
        boundary_hits=hits,
        jump_count=jumps,
        final_time=t,
    ) if record else None
    summary = SimulationSummary(
        average=(cost_f + cost_r) / horizon,
        se=se,
        jumps=jumps,
        boundary_hits=hits,
        seed=int(seed),
        replication=int(replication),
        horizon=float(horizon),
        batches=batches,
    )
    return record_obj, summary


@dataclass(frozen=True)
class McVerdict:
    passed: bool
    pooled_mean: float
    pooled_se: float
    rho: float
    replications: int
    horizon: float
    seed: int
    rep_means: np.ndarray

    def to_dict(self) -> dict:
        return {
            "schema": "pdmp-mc/1",
            "passed": bool(self.passed),
            "pooled_mean": self.pooled_mean,
            "pooled_se": self.pooled_se,
            "rho": self.rho,
            "replications": self.replications,
            "horizon": self.horizon,
            "seed": self.seed,
            "rep_means": self.rep_means.tolist(),
        }


def mc_validate(model, policy, rho: float, x0: int, horizon: float,
                replications: int, seed: int, *,
                workspace: OperatorWorkspace | None = None) -> McVerdict:
    """Independent replications; passes iff |pooled mean - rho| <= 3 SE.

    A small absolute floor (1e-9 * max(1, |rho|)) keeps the check meaningful
    on deterministic models where the batch spread is exactly zero.  The
    policy's feasibility is checked once, when its tables are prepared.
    """
    if replications < 2:
        raise ValueError(f"replications must be at least 2 (the standard error needs two), got {replications}")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    _check_horizon(horizon)
    tabs = prepare_simulation(model, policy, workspace=workspace)
    means = np.empty(replications)
    for r in range(replications):
        # the module-level simulate, looked up once per replication, so a
        # wrapper installed around it sees every replication
        _, summary = simulate(model, policy, x0, horizon, seed, replication=r,
                              record=False, tables=tabs)
        means[r] = summary.average
    pooled = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(replications))
    atol = 1e-9 * max(1.0, abs(rho))
    passed = abs(pooled - rho) <= 3.0 * se + atol
    return McVerdict(passed=passed, pooled_mean=pooled, pooled_se=se, rho=float(rho),
                     replications=replications, horizon=float(horizon), seed=int(seed),
                     rep_means=means)
