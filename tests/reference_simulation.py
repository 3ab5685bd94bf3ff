"""The scalar jump loop of the simulator with its per-jump calls, and its
tables on the full mesh, kept as test references.

:func:`simulate`, :func:`cost_to` and :func:`jump_target` are the jump loop
as it was before the running-cost integral and the post-jump draw were
inlined into it, verbatim but for their names and for ``jump_target``
taking the simulation tables as its first argument.  They read the library's tables, streams and
record types, so a trajectory of the library's :func:`pdmp_avgctl.simulate`
must equal this one bit for bit: jump times, post-jump states, hit flags,
costs at jumps, the average and its standard error.

:func:`meshed_tables` prepares the library's simulation tables on a mesh
whose constant exit pieces keep the count rule's intervals instead of one
(:func:`reference_quadrature.meshed_workspace`), so they mark no line
stationary, and the library's trajectories on them are drawn by the general
branch of the jump loop on the full mesh.

:func:`gathered_node_tables` builds a policy's node tables on the mesh's
nodes by gathers and loops, each pair's node data gathered through its left
node and the segments chained one at a time, and each grid state's line
bounds through the pieces' anchors.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right

import numpy as np

from pdmp_avgctl.operators import DEFAULT_FILL
from pdmp_avgctl.simulation import (DEFAULT_BATCHES, RATE_FLOOR, UNIFORM_BLOCK, SimulationError,
                                    SimulationExplosionError, SimulationSummary, TrajectoryRecord, _rng_stream,
                                    _Nodes, _uniform_block, prepare_simulation)
from reference_quadrature import interval_left, looped_running_sums, meshed_workspace


def jump_target(tables, hit: bool, line, y: float, action: int, u: float) -> int:
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
    points = tables.points
    n = len(points)
    if hit:
        b, a = line.boundary_index, line.boundary_action
        j = bisect_left(tables.boundary_cum[b][a], u * tables.boundary_sum[b][a])
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
    cum, total = tables.interior_cum, tables.interior_sum
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


def cost_to(line, tau: float, k: int = -1) -> float:
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


def simulate(model, policy, x0: int, horizon: float, seed: int, *,
             replication: int = 0, batches: int = DEFAULT_BATCHES,
             max_jumps: int | None = None, record: bool = True,
             tables=None) -> tuple[TrajectoryRecord, SimulationSummary]:
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

    jump_target_ = functools.partial(jump_target, tabs)
    boundary_cost = tabs.boundary_cost
    cost_to_ = cost_to
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
                edge_costs.append(cost_f + cost_r + cost_to_(line, next_edge - t))
                next_edge = edges[len(edge_costs)]
            cost_f += cost_to_(line, horizon - t)
            t = horizon
            break
        while next_edge < t_next:
            edge_costs.append(cost_f + cost_r + cost_to_(line, next_edge - t))
            next_edge = edges[len(edge_costs)]
        cost_f += cost_to_(line, sojourn, k)
        if hit:
            cost_r += boundary_cost[line.boundary_index][line.boundary_action]
            hits += 1
        j = jump_target_(hit, line, y_jump, act, u_jump)
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


def meshed_tables(model, policy, *, workspace=None):
    """The library's simulation tables on a workspace at the same fill whose
    exit pieces all keep the count rule's intervals, so no line is
    stationary."""
    fill = workspace.fill if workspace is not None else DEFAULT_FILL
    return prepare_simulation(model, policy, workspace=meshed_workspace(model, fill))


def gathered_node_tables(ws, policy):
    """``simulation._node_tables`` by gathers on ``ws``'s mesh, and each grid
    state's line bounds.

    Every pair's node data are gathered through its left node, each node
    under its own piece's action; each piece is summed over its own
    intervals by its own ``np.cumsum``, and the segments are chained one at
    a time, each on top of the last node of the one before it.  A segment's
    last node takes the next segment's first state.  The line from grid
    state j starts at the first node of the segment anchored at j, or at the
    chain's end (node 0 with no segment) when no segment is, and runs to its
    exit piece's anchor's start; ``(b, e, x0, x1)`` per grid state.
    """
    mesh, n_chain = ws.mesh, ws.chain.n_chain
    node_start = mesh.node_start.tolist()
    anchors = ws.chain.anchors.tolist()
    n_nodes = mesh.times.size
    actions = policy.interior[anchors][np.repeat(np.arange(len(anchors)), np.diff(node_start))]
    at = np.arange(n_nodes)
    lam, f = mesh.lam_nodes[at, actions], mesh.f_nodes[at, actions]
    pair = at[:-1]
    slope = 0.5 * (lam[pair] + lam[pair + 1])
    left = interval_left(mesh)
    dt = mesh.times[left + 1] - mesh.times[left]
    per_interval = np.empty((dt.size, 2))
    per_interval[:, 0] = slope[left] * dt
    per_interval[:, 1] = 0.5 * dt * (f[left] + f[left + 1])
    running = looped_running_sums(mesh, per_interval)
    times, hazard, cost = mesh.times.copy(), running[:, 0].copy(), running[:, 1].copy()
    for values in (times, hazard, cost):
        before = 0.0
        for k0, k1 in zip(node_start[:n_chain], node_start[1:n_chain + 1]):
            values[k0:k1] += before
            before = values[k1 - 1]
    states = mesh.states.copy()
    for k in node_start[1:n_chain]:
        states[k - 1] = mesh.states[k]
    tables = _Nodes(times=memoryview(times), states=memoryview(states), hazard=memoryview(hazard),
                    slope=memoryview(slope), cost_cum=memoryview(cost), f_left=memoryview(f[pair]),
                    f_right=memoryview(f[pair + 1]), actions=memoryview(actions[pair]),
                    cell=memoryview(np.minimum(mesh.ilo[pair], mesh.ilo[pair + 1])))
    start_of = {a: node_start[p] for p, a in enumerate(anchors[:n_chain])}
    chain_end = node_start[n_chain] - 1 if n_chain else 0
    bounds = []
    for j, k in enumerate(ws.chain.exit_of.tolist()):
        p = n_chain + k
        bounds.append((start_of.get(j, chain_end), start_of.get(anchors[p], chain_end),
                       node_start[p], node_start[p + 1] - 1))
    return tables, bounds
