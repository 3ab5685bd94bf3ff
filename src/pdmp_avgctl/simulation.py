"""Monte Carlo simulation of the controlled process under a feedback policy.

Trajectories follow the standard construction: deterministic flow between
jumps, spontaneous jumps via the inhomogeneous hazard (sampled by inverse
transform on the tabulated cumulative hazard), forced jumps at boundary hits,
post-jump states drawn from the transition kernel.  Cost integrals reuse the
operator engine's meshes so the simulated running cost and the solver's flow
integrals are the same discretization.

A jump costs O(log K) interpreted work on a K-node line: one binary search on
the cumulative hazard (whose interval the running-cost integral reuses) and
one on a precomputed cumulative kernel row, with uniforms drawn in blocks.
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
class _Line:
    """One start state's feedback path: the node arrays plus Python-float ends.

    The arrays are the operator engine's path arrays (``cost_cum``, ``f_left``
    and ``f_right`` are derived once per policy); the scalars are what a
    sojourn past the tabulated horizon needs.
    """

    times: np.ndarray
    states: np.ndarray
    hazard: np.ndarray       # cumulative hazard at nodes
    slope: np.ndarray        # hazard slope per interval
    cost_cum: np.ndarray     # cumulative running cost at nodes
    f_left: np.ndarray
    f_right: np.ndarray
    actions: np.ndarray      # interval actions
    last: int                # index of the last interval
    hit: bool
    boundary_index: int
    boundary_action: int
    hazard_end: float
    end: float
    lam_tail: float
    f_tail: float
    state_tail: float
    action_tail: int


class SimulationTables:
    """Frozen per-policy simulation data for every grid state.

    Besides one :class:`_Line` per start state it holds, as Python lists, the
    model data a post-jump draw reads: the grid points, the cumulative kernel
    rows, each kernel row's ``sum()`` and the boundary charges.
    """

    def __init__(self, model, policy, *, workspace: OperatorWorkspace | None = None):
        self.model = model
        self.policy = policy
        ws = workspace if workspace is not None else OperatorWorkspace(model)
        self.lines = []
        for path in ws.policy_paths(policy):
            f_left, f_right = path.node_table_values(model.running_cost)
            cost_cum = np.empty(path.times.size)
            cost_cum[0] = 0.0
            np.cumsum(0.5 * path.dt * (f_left + f_right), out=cost_cum[1:])
            moves = path.dt.size > 0
            self.lines.append(_Line(
                times=path.times,
                states=path.states,
                hazard=path.cum_hazard,
                slope=path.hazard_slope,
                cost_cum=cost_cum,
                f_left=f_left,
                f_right=f_right,
                actions=path.interval_actions,
                last=int(path.dt.size) - 1,
                hit=path.hit,
                boundary_index=path.boundary_index,
                boundary_action=path.boundary_action,
                hazard_end=path.cum_hazard.item(-1),
                end=path.times.item(-1),
                lam_tail=path.lam_right.item(-1) if moves else 0.0,
                f_tail=f_right.item(-1) if moves else 0.0,
                state_tail=path.states.item(-1),
                action_tail=path.interval_actions.item(-1) if moves else 0,
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
        """
        points = self.points
        n = len(points)
        if hit:
            b, a = line.boundary_index, line.boundary_action
            return min(bisect_left(self.boundary_cum[b][a], u * self.boundary_sum[b][a]), n - 1)
        i = min(max(bisect_right(points, y) - 1, 0), n - 2)
        w = 1.0 - min(max((y - points[i]) / (points[i + 1] - points[i]), 0.0), 1.0)
        cum, total = self.interior_cum, self.interior_sum
        if w == 1.0 or w == 0.0:
            r = i if w == 1.0 else i + 1
            j = bisect_left(cum[r][action], u * total[r][action])
        else:
            v = 1.0 - w
            lo, hi = cum[i][action], cum[i + 1][action]
            target = u * (w * total[i][action] + v * total[i + 1][action])
            j = bisect_left(range(n), target, key=lambda q: w * lo[q] + v * hi[q])
        return min(j, n - 1)


def _cumulative_rows(kernel: np.ndarray) -> tuple[list, list]:
    """Per (state, action) kernel row: its cumulative sums and its ``sum()``, as lists."""
    return (np.cumsum(kernel, axis=-1).tolist(),
            [[float(row.sum()) for row in rows] for rows in kernel])


def prepare_simulation(model, policy, *, workspace: OperatorWorkspace | None = None) -> SimulationTables:
    return SimulationTables(model, policy, workspace=workspace)


def _draw_sojourn(line: _Line, u: float) -> tuple[float, bool, float, int, int]:
    """(sojourn, hit_boundary, jump_state, jump_action, k) for one inter-jump leg.

    Inverse transform of the uniform ``u`` on the tabulated cumulative
    hazard; ``k`` is the mesh interval holding the sojourn, -1 past the table.
    """
    level = -math.log1p(-u)
    if level >= line.hazard_end:
        if line.hit:
            return line.end, True, line.state_tail, line.boundary_action, -1
        if line.lam_tail <= RATE_FLOOR:
            raise SimulationError(
                "drawn hazard level exceeds the tabulated horizon and the tail "
                "jump rate is (numerically) zero; the model violates the "
                "divergence the rate floor is supposed to guarantee"
            )
        return line.end + (level - line.hazard_end) / line.lam_tail, False, \
            line.state_tail, line.action_tail, -1
    hazard, times, states = line.hazard, line.times, line.states
    k = min(max(int(hazard.searchsorted(level, "right")) - 1, 0), line.last)
    m = line.slope.item(k)
    t_k = times.item(k)
    dt = times.item(k + 1) - t_k
    sigma = (level - hazard.item(k)) / m if m > RATE_FLOOR else 0.0
    frac = sigma / dt if dt > 0 else 0.0
    y_k = states.item(k)
    y = y_k + (states.item(k + 1) - y_k) * frac
    return t_k + sigma, False, y, line.actions.item(k), k


def _cost_to(line: _Line, tau: float, k: int = -1) -> float:
    """Running-cost integral over [0, tau] along ``line``.

    ``k`` is a guess at the mesh interval holding ``tau`` (the sojourn's, from
    :func:`_draw_sojourn`); it is used when ``tau`` lies in it, otherwise the
    interval is searched for.
    """
    if tau >= line.end:
        return line.cost_cum.item(-1) + (tau - line.end) * line.f_tail
    times = line.times
    if not (k >= 0 and times.item(k) <= tau < times.item(k + 1)):
        k = min(max(int(times.searchsorted(tau, "right")) - 1, 0), line.last)
    t_k = times.item(k)
    dt = times.item(k + 1) - t_k
    sigma = tau - t_k
    f_k = line.f_left.item(k)
    f_at = f_k + (line.f_right.item(k) - f_k) * (sigma / dt if dt > 0 else 0.0)
    return line.cost_cum.item(k) + 0.5 * sigma * (f_k + f_at)


def sample_sojourn(model, policy, x: int, rng, *,
                   tables: SimulationTables | None = None) -> tuple[float, bool]:
    """Draw one inter-jump time from state index ``x``; flags boundary hits."""
    tabs = tables if tables is not None else prepare_simulation(model, policy)
    t, hit, _, _, _ = _draw_sojourn(tabs.lines[x], rng.random())
    return t, hit


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


def _uniform_pairs(rng: np.random.Generator):
    """The stream's uniforms two at a time, drawn in blocks.

    ``rng.random(size)`` yields the same doubles as that many scalar
    ``rng.random()`` calls, so the pairs are those of scalar draws.
    """
    while True:
        block = rng.random(UNIFORM_BLOCK).tolist()
        yield from zip(block[::2], block[1::2])


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
    uniforms = _uniform_pairs(rng)
    t = 0.0
    j = int(x0)
    cost_f = 0.0
    cost_r = 0.0
    jumps = 0
    hits = 0
    jt, jz, jh, jcum = [], [], [], []

    while t < horizon:
        line = lines[j]
        u_sojourn, u_jump = next(uniforms)
        sojourn, hit, y_jump, act, k = _draw_sojourn(line, u_sojourn)
        t_next = t + sojourn
        # a jump landing exactly on the horizon still counts (T_i <= t convention)
        if t_next > horizon:
            while next_edge < horizon:
                edge_costs.append(cost_f + cost_r + _cost_to(line, next_edge - t))
                next_edge = edges[len(edge_costs)]
            cost_f += _cost_to(line, horizon - t)
            t = horizon
            break
        while next_edge < t_next:
            edge_costs.append(cost_f + cost_r + _cost_to(line, next_edge - t))
            next_edge = edges[len(edge_costs)]
        cost_f += _cost_to(line, sojourn, k)
        if hit:
            cost_r += tabs.boundary_cost[line.boundary_index][line.boundary_action]
            hits += 1
        j = tabs.jump_target(hit, line, y_jump, act, u_jump)
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
