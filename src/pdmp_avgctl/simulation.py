"""Monte Carlo simulation of the controlled process under a feedback policy.

Trajectories follow the standard construction: deterministic flow between
jumps, spontaneous jumps via the inhomogeneous hazard (sampled by inverse
transform on the tabulated cumulative hazard), forced jumps at boundary hits,
post-jump states drawn from the transition kernel.  Cost integrals reuse the
operator engine's meshes so the simulated running cost and the solver's flow
integrals are the same discretization.

The tables follow the engine's pieces.  The inter-grid segments form one node
chain in flow order, with one cumulative hazard C and one cumulative running
cost along it per policy; the line from grid point j is the stretch of the
chain from its start node b_j to the node e_j of its chain end, then the
nodes of that chain end's exit piece, which follow the chain in the same
arrays.  So the tables take O(n * fill) memory, and no line copies the
chain or an exit piece.

A jump costs O(log K) interpreted work on a K-node line and makes no numpy
call.  The tables are memoryviews of their node arrays, which index to
Python floats and are searched in place by :mod:`bisect` without a copy.  The
sojourn is one ``bisect_right(C, C[b_j] + level, b_j, e_j)`` on the chain,
or, when the hazard level passes the chain's end, the same search over the
exit piece's nodes; the running-cost integral reuses the interval found.  The
post-jump state is one ``bisect_left`` on a precomputed cumulative kernel
row; between grid points, one on each neighbouring row brackets the search
on their linear mixture.  Uniforms are drawn from the stream in blocks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .operators import OperatorWorkspace

DEFAULT_BATCHES = 20
RATE_FLOOR = 1e-12
UNIFORM_BLOCK = 1024  # uniforms per draw from the stream; even, so pairs never straddle blocks


class SimulationError(RuntimeError):
    """Simulation could not proceed (invalid model behavior at runtime)."""


class SimulationExplosionError(SimulationError):
    """Jump-count guard tripped; diagnostics carried on ``.stats``."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True, slots=True)
class _Nodes:
    """A policy's path tables over the whole mesh: the chain of inter-grid
    segments, then every chain end's exit piece.

    The chain holds one node per chain interval plus the last segment's end;
    consecutive segments share their joint node, which takes the next
    segment's first state, the grid point itself.  Its times, cumulative
    hazard C and cumulative running cost run along the whole chain.  The
    exit pieces follow in flow order, one block of nodes each, timed from the
    piece's start, with hazard and cost summed from 0 there.  Interval tables
    are indexed by their left node; the entry at a block's last node is
    unused.  Each table is a ``memoryview`` of a float64 (``actions``: int64)
    array: indexing it gives a Python number and :mod:`bisect` searches it,
    without copying the array.
    """

    times: memoryview
    states: memoryview
    hazard: memoryview       # cumulative hazard at nodes
    slope: memoryview        # hazard slope per interval
    cost_cum: memoryview     # cumulative running cost at nodes
    f_left: memoryview
    f_right: memoryview
    actions: memoryview      # interval actions


@dataclass(frozen=True, slots=True)
class _Line:
    """One start state's feedback path: a stretch of the chain, then its chain end's exit piece.

    ``b``/``e`` are the chain nodes of the start state and of its chain end
    (equal when the start state is a chain end), and ``chain_*`` the
    hazard, time and running cost between them.  ``x0``/``x1`` are the first
    and last nodes of the chain end's exit piece; the scalars are its totals
    and what a sojourn past the tabulated horizon needs.
    """

    nodes: _Nodes            # shared by every line, not copied
    b: int
    e: int
    x0: int
    x1: int
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


def _node_tables(mesh, piece_action: np.ndarray, n_lines: int) -> tuple[_Nodes, list, int]:
    """The policy's :class:`_Nodes`, the chain node of each flow position,
    and the shift from an exit piece's mesh node to its table node.

    The hazard slope of an interval is the trapezoid of the jump rates at its
    two nodes and the running cost is linear between its node values.  Every
    piece's hazard and cost are its own running sums from 0; the chain adds
    each segment's onto the totals of the segments before it, so rounding
    does not build up over the whole chain.
    """
    n_chain = mesh.n_chain
    first, left = mesh.first, mesh.left
    k_chain = int(first[n_chain])
    piece = np.repeat(np.arange(first.size - 1), np.diff(first))
    actions = piece_action[piece]
    dt = mesh.times[left + 1] - mesh.times[left]
    lam, f = mesh.lam_nodes, mesh.f_nodes
    slope = 0.5 * (lam[left, actions] + lam[left + 1, actions])
    f_left, f_right = f[left, actions], f[left + 1, actions]
    per_interval = np.empty((dt.size, 2))
    per_interval[:, 0] = slope * dt
    per_interval[:, 1] = 0.5 * dt * (f_left + f_right)
    running = mesh.running_sums(per_interval)

    # chain node k is the left node of chain interval k; exit nodes follow
    # the chain's end node as they are in the mesh
    exit_start = int(mesh.node_start[n_chain])
    x_first = k_chain + 1
    chain_left = left[:k_chain]
    ends = mesh.node_start[1:n_chain + 1] - 1

    def nodes(own):
        """Node values: along the chain on top of earlier segments' totals, then the exit pieces' own."""
        before = np.concatenate(([0.0], np.cumsum(own[ends])))
        return np.concatenate((before[piece[:k_chain]] + own[chain_left], before[-1:], own[exit_start:]))

    def intervals(values):
        out = np.zeros(x_first + mesh.times.size - exit_start, dtype=values.dtype)
        out[:k_chain] = values[:k_chain]
        out[left[k_chain:] - exit_start + x_first] = values[k_chain:]
        return out

    states = np.concatenate((mesh.states[chain_left], mesh.states[[exit_start - 1]], mesh.states[exit_start:]))
    tables = _Nodes(times=memoryview(nodes(mesh.times)), states=memoryview(states),
                    hazard=memoryview(nodes(running[:, 0])), slope=memoryview(intervals(slope)),
                    cost_cum=memoryview(nodes(running[:, 1])), f_left=memoryview(intervals(f_left)),
                    f_right=memoryview(intervals(f_right)), actions=memoryview(intervals(actions)))
    node_of = first[np.minimum(np.arange(n_lines), n_chain)].tolist()
    return tables, node_of, x_first - exit_start


class SimulationTables:
    """Frozen per-policy simulation data for every grid state.

    Besides the shared :class:`_Nodes` and one :class:`_Line` per start state
    it holds, as Python lists, the model data a post-jump draw reads: the
    grid points, the cumulative kernel rows, each kernel row's ``sum()`` and
    the boundary charges.
    """

    def __init__(self, model, policy, *, workspace: OperatorWorkspace | None = None):
        self.model = model
        self.policy = policy
        ws = workspace if workspace is not None else OperatorWorkspace(model)
        mesh = ws.mesh
        piece_action = policy.interior[mesh.anchors]
        self.nodes, node_of, shift = _node_tables(mesh, piece_action, model.n_states)
        nodes = self.nodes
        times, hazard, cost_cum = nodes.times, nodes.hazard, nodes.cost_cum
        position = np.argsort(ws.order).tolist()
        self.lines = []
        for j, k in enumerate(ws.exit_of.tolist()):
            ex = ws.exits[k]
            b, e = node_of[position[j]], node_of[ex.position]
            p = ex.piece
            x0, x1 = int(mesh.node_start[p]) + shift, int(mesh.node_start[p + 1]) - 1 + shift
            act = int(piece_action[p])
            self.lines.append(_Line(
                nodes=nodes, b=b, e=e, x0=x0, x1=x1,
                chain_hazard=hazard[e] - hazard[b],
                chain_time=times[e] - times[b],
                chain_cost=cost_cum[e] - cost_cum[b],
                hit=ex.hit,
                boundary_index=ex.boundary_index,
                boundary_action=int(policy.boundary[ex.boundary_index]) if ex.hit else -1,
                hazard_end=hazard[x1],
                cost_end=cost_cum[x1],
                end=times[x1],
                lam_tail=float(mesh.lam_nodes[x1 - shift, act]),
                f_tail=float(mesh.f_nodes[x1 - shift, act]),
                state_tail=nodes.states[x1],
                action_tail=act,
            ))
        self.points = model.grid.points.tolist()
        self.interior_cum, self.interior_sum = _cumulative_rows(model.kernel_interior)
        self.boundary_cum, self.boundary_sum = _cumulative_rows(model.kernel_boundary)
        self.boundary_cost = model.boundary_cost.tolist()

    def jump_target(self, hit: bool, line: _Line, y: float, action: int, u: float) -> int:
        """Post-jump state index for uniform ``u``.

        Equals ``min(searchsorted(cumsum(row), u * row.sum()), n - 1)`` for
        the boundary row of ``line`` on a hit, else for the kernel row
        interpolated linearly between the grid points around ``y``.  Where
        ``y`` sits on a grid point the row is one stored row and the search
        runs on its precomputed cumulative sums, bit for bit as on the mixed
        row.  In between it runs on the same mixture of the two neighbours'
        cumulative sums and sums, which can differ from those of the mixed
        row in the last bit, so a level within rounding of a cumulative value
        may land one state over.

        That search is the first ``q`` whose mixed key ``w lo[q] + v hi[q]``
        reaches the level.  The key is nondecreasing, and in exact arithmetic
        it first reaches the level between the first crossings of ``lo`` and
        of ``hi``; rounding can move it one index past either end.  So the
        two crossings are found by ``bisect_left`` on each row, the key is
        checked just outside the bracket at both ends and scanned inside it,
        and a failed check falls back to the keyed bisect over all states.
        """
        points = self.points
        n = len(points)
        if hit:
            b, a = line.boundary_index, line.boundary_action
            j = bisect_left(self.boundary_cum[b][a], u * self.boundary_sum[b][a])
            return j if j < n else n - 1
        i = bisect_right(points, y) - 1
        if i < 0:
            i = 0
        elif i > n - 2:
            i = n - 2
        frac = (y - points[i]) / (points[i + 1] - points[i])
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        w = 1.0 - frac
        cum, total = self.interior_cum, self.interior_sum
        if w == 1.0 or w == 0.0:
            r = i if w == 1.0 else i + 1
            j = bisect_left(cum[r][action], u * total[r][action])
        else:
            v = 1.0 - w
            lo, hi = cum[i][action], cum[i + 1][action]
            target = u * (w * total[i][action] + v * total[i + 1][action])
            j = bisect_left(lo, target)
            end = bisect_left(hi, target)
            if end < j:
                j, end = end, j
            if (j == 0 or w * lo[j - 1] + v * hi[j - 1] < target) and \
                    (end == n or w * lo[end] + v * hi[end] >= target):
                while j < end and w * lo[j] + v * hi[j] < target:
                    j += 1
            else:
                j = bisect_left(range(n), target, key=lambda q: w * lo[q] + v * hi[q])
        return j if j < n else n - 1


def _cumulative_rows(kernel: np.ndarray) -> tuple[list, list]:
    """Per (state, action) kernel row: its cumulative sums and its ``sum()``, as lists."""
    return (np.cumsum(kernel, axis=-1).tolist(),
            [[float(row.sum()) for row in rows] for rows in kernel])


def prepare_simulation(model, policy, *, workspace: OperatorWorkspace | None = None) -> SimulationTables:
    return SimulationTables(model, policy, workspace=workspace)


def _cost_to(line: _Line, tau: float, k: int = -1) -> float:
    """Running-cost integral over [0, tau] along ``line``.

    ``k`` is a guess at the node table interval holding ``tau`` (the
    sojourn's).  It is used when ``tau`` lies in it, otherwise the interval
    is searched for.
    """
    nodes = line.nodes
    times, cost_cum = nodes.times, nodes.cost_cum
    if tau < line.chain_time:
        # on the chain stretch, timed from node b
        lo, hi, c_base, c_before = line.b, line.e, cost_cum[line.b], 0.0
        tau += times[lo]
    else:
        # on the exit piece, timed from its start
        tau -= line.chain_time
        if tau >= line.end:
            return line.chain_cost + (line.cost_end + (tau - line.end) * line.f_tail)
        lo, hi, c_base, c_before = line.x0, line.x1, 0.0, line.chain_cost
    if not (lo <= k < hi and times[k] <= tau < times[k + 1]):
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
    se: float
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


def _rng_stream(seed: int, replication: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(replication)]))


def _uniform_block(rng: np.random.Generator) -> list:
    """The stream's next ``UNIFORM_BLOCK`` uniforms, as Python floats.

    ``rng.random(size)`` yields the same doubles as that many scalar
    ``rng.random()`` calls, so reading the blocks in order gives the scalar
    draws.
    """
    return rng.random(UNIFORM_BLOCK).tolist()


def simulate(model, policy, x0: int, horizon: float, seed: int, *,
             replication: int = 0, batches: int = DEFAULT_BATCHES,
             max_jumps: int | None = None, record: bool = True,
             tables: SimulationTables | None = None) -> tuple[TrajectoryRecord, SimulationSummary]:
    """Simulate the controlled process from grid state index ``x0``.

    Identical (model, policy, x0, horizon, seed, replication) reproduce the
    trajectory bit for bit (counter-based generator, fixed draw order: one
    uniform for the sojourn and one for the post-jump state per jump, drawn
    from the stream in blocks).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0 <= int(x0) < model.n_states:
        raise ValueError(f"x0 must be a grid state index in [0, {model.n_states}), got {x0}")
    problems = policy.feasibility_problems(model)
    if problems:
        raise ValueError("infeasible policy: " + "; ".join(problems))
    tabs = tables if tables is not None else prepare_simulation(model, policy)
    rng = _rng_stream(seed, replication)
    if max_jumps is None:
        max_jumps = int(max(100_000, 100.0 * (model.lambda_sup + 1.0) * horizon))

    # one edge past the last so the "next edge" test needs no bounds check
    edges = np.linspace(horizon / batches, horizon, batches).tolist() + [math.inf]
    edge_costs = []
    next_edge = edges[0]

    lines = tabs.lines
    nodes = tabs.nodes
    n_hazard, n_times, n_states, n_slope, n_actions = \
        nodes.hazard, nodes.times, nodes.states, nodes.slope, nodes.actions
    jump_target = tabs.jump_target
    boundary_cost = tabs.boundary_cost
    cost_to = _cost_to
    log1p = math.log1p
    block = _uniform_block(rng)
    drawn = 0
    t = 0.0
    j = int(x0)
    cost_f = 0.0
    cost_r = 0.0
    jumps = 0
    hits = 0
    jt, jz, jh, jcum = [], [], [], []

    while t < horizon:
        line = lines[j]
        if drawn == UNIFORM_BLOCK:
            block = _uniform_block(rng)
            drawn = 0
        u_jump = block[drawn + 1]
        # the sojourn: inverse transform of the uniform on the cumulative
        # hazard, over nodes lo..hi of the chain stretch (timed from node b)
        # or of the exit piece (timed from its start, after the chain time);
        # k is the interval holding it, -1 past the table
        level = -log1p(-block[drawn])
        drawn += 2
        if level < line.chain_hazard:
            lo, hi, t_base, t_before = line.b, line.e, n_times[line.b], 0.0
            level += n_hazard[lo]
            past = False
        else:
            lo, hi, t_base, t_before = line.x0, line.x1, 0.0, line.chain_time
            level -= line.chain_hazard
            past = level >= line.hazard_end
        if not past:
            k = bisect_right(n_hazard, level, lo, hi) - 1
            m = n_slope[k]
            t_k = n_times[k]
            dt = n_times[k + 1] - t_k
            sigma = (level - n_hazard[k]) / m if m > RATE_FLOOR else 0.0
            frac = sigma / dt if dt > 0 else 0.0
            y_k = n_states[k]
            y_jump = y_k + (n_states[k + 1] - y_k) * frac
            sojourn, hit, act = t_before + (t_k - t_base + sigma), False, n_actions[k]
        else:
            k = -1
            y_jump = line.state_tail
            if line.hit:
                sojourn, hit, act = t_before + line.end, True, line.boundary_action
            elif line.lam_tail <= RATE_FLOOR:
                raise SimulationError(
                    "drawn hazard level exceeds the tabulated horizon and the tail "
                    "jump rate is (numerically) zero; the model violates the "
                    "divergence the rate floor is supposed to guarantee"
                )
            else:
                sojourn, hit, act = t_before + (line.end + (level - line.hazard_end) / line.lam_tail), False, \
                    line.action_tail
        t_next = t + sojourn
        # a jump landing exactly on the horizon still counts (T_i <= t convention)
        if t_next > horizon:
            while next_edge < horizon:
                edge_costs.append(cost_f + cost_r + cost_to(line, next_edge - t))
                next_edge = edges[len(edge_costs)]
            cost_f += cost_to(line, horizon - t)
            t = horizon
            break
        while next_edge < t_next:
            edge_costs.append(cost_f + cost_r + cost_to(line, next_edge - t))
            next_edge = edges[len(edge_costs)]
        cost_f += cost_to(line, sojourn, k)
        if hit:
            cost_r += boundary_cost[line.boundary_index][line.boundary_action]
            hits += 1
        j = jump_target(hit, line, y_jump, act, u_jump)
        jumps += 1
        t = t_next
        if record:
            jt.append(t)
            jz.append(j)
            jh.append(hit)
            jcum.append(cost_f + cost_r)
        if jumps > max_jumps:
            raise SimulationExplosionError(
                f"jump count exceeded the guard ({max_jumps}) at t={t:.6g}",
                stats={"jumps": jumps, "time": t, "horizon": horizon,
                       "recent_rate": jumps / max(t, 1e-12)},
            )

    edge_costs += [cost_f + cost_r] * (batches - len(edge_costs))

    batch_totals = np.diff(np.concatenate([[0.0], edge_costs]))
    batch_means = batch_totals / (horizon / batches)
    se = float(np.std(batch_means, ddof=1) / math.sqrt(batches)) if batches > 1 else 0.0

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
    )
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
    on deterministic models where the batch spread is exactly zero.
    """
    tabs = prepare_simulation(model, policy, workspace=workspace)
    means = np.empty(replications)
    for r in range(replications):
        _, summary = simulate(model, policy, x0, horizon, seed, replication=r,
                              record=False, tables=tabs)
        means[r] = summary.average
    pooled = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    atol = 1e-9 * max(1.0, abs(rho))
    passed = abs(pooled - rho) <= 3.0 * se + atol
    return McVerdict(passed=passed, pooled_mean=pooled, pooled_se=se, rho=float(rho),
                     replications=replications, horizon=float(horizon), seed=int(seed),
                     rep_means=means)
