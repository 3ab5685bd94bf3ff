import copy
import dataclasses
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl import simulation
from pdmp_avgctl.simulation import (UNIFORM_BLOCK, SimulationError, _cost_to, _cumulative_rows, _Line, _Nodes,
                                    _rng_stream, _thread_stream, _uniform_block)

import reference_simulation
from conftest import traced
from reference_quadrature import policy_paths
from test_operator_properties import FLOWS, random_model_docs
from toy_models import constant_cost_variant, random_feasible, renewal_doc, two_state_jump_doc


@pytest.fixture(scope="module")
def renewal():
    model = pa.model_from_dict(renewal_doc(r0=0.7))
    policy = pa.FeedbackPolicy.lowest_feasible(model)
    return model, policy


class TestSampleSojourn:
    """Sojourns drawn by :func:`simulate`, read off its trajectory records."""

    def test_exponential_law_by_ks(self, models):
        # constant rate 1.0 at state 0 under the lowest policy: sojourns are Exp(1)
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        record, _ = pa.simulate(model, policy, 0, 2e5, seed=1234)
        starts = np.concatenate(([0], record.post_jump_states[:-1]))
        sojourns = np.diff(record.jump_times, prepend=0.0)[starts == 0]
        n = 100_000
        assert sojourns.size >= n
        draws = np.sort(sojourns[:n])
        emp = np.arange(1, n + 1) / n
        cdf = 1.0 - np.exp(-draws)
        ks = max(np.max(np.abs(emp - cdf)), np.max(np.abs(emp - 1.0 / n - cdf)))
        assert ks < 1.628 / math.sqrt(n)  # 1% critical value

    def test_zero_rate_hits_boundary_deterministically(self, renewal):
        model, policy = renewal
        tables = pa.prepare_simulation(model, policy)
        for rep in range(10):
            record, _ = pa.simulate(model, policy, 4, 0.8, seed=9, replication=rep,
                                    tables=tables)  # x = 0.25
            assert record.jump_times[0] == pytest.approx(0.75, abs=1e-12)
            assert record.hit_boundary[0]

    def test_interior_jump_does_not_flag_boundary(self, models):
        model = models["drift_boundary_64"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        tables = pa.prepare_simulation(model, policy)
        saw_interior = False
        for rep in range(50):
            record, _ = pa.simulate(model, policy, 0, 2.0, seed=77, replication=rep, tables=tables)
            if not record.hit_boundary[0]:
                saw_interior = True
                assert record.jump_times[0] < 1.0
        assert saw_interior

    @pytest.mark.parametrize("name", ["drift_boundary_64", "decay_flow_16"])
    def test_sojourn_inverts_the_cumulative_hazard(self, models, workspaces, monkeypatch, name):
        # a hazard level inside every interval of a line, chain stretch and
        # exit piece alike, and one past its end: the first jump comes at the
        # reference path's time of that cumulative hazard, or at its end
        model, ws = models[name], workspaces[name]
        policy = random_feasible(model, np.random.default_rng(4))
        tables = pa.prepare_simulation(model, policy, workspace=ws)
        blocks = []
        # a hazard level far past every line's end for every later sojourn
        monkeypatch.setattr(pa.simulation, "_uniform_block",
                            lambda rng: blocks.pop() if blocks else [1.0 - 2.0**-40, 0.5] * (UNIFORM_BLOCK // 2))
        paths = policy_paths(ws, policy)
        for j in (0, model.n_states // 2, model.n_states - 2):
            path = paths[j]
            hazard = path.cum_hazard
            # about 40 intervals, with the ends of the chain stretch and of the exit piece
            k_chain, size = chain_lefts(tables.lines[j], ws.mesh).size, hazard.size - 1
            picks = set(range(0, size, max(1, size // 40))) | {k_chain - 1, k_chain, size - 2, size - 1}
            levels = [0.5 * (hazard[k] + hazard[k + 1]) for k in sorted(picks)
                      if 0 <= k < size and hazard[k + 1] > hazard[k]]
            for level in levels + [hazard[-1] + 1.0]:
                u = -math.expm1(-level)
                if u == 1.0:
                    continue
                want = float(np.interp(-math.log1p(-u), hazard, path.times))
                blocks.append([u, 0.5] * (UNIFORM_BLOCK // 2))
                record, _ = pa.simulate(model, policy, j, want + 1e-6, seed=0, tables=tables)
                assert record.jump_times[0] == pytest.approx(want, rel=1e-12, abs=1e-12), (j, level)
                assert bool(record.hit_boundary[0]) == (level > hazard[-1] and path.hit), (j, level)

    def test_vanishing_tail_rate_is_an_error(self, write_model):
        doc = two_state_jump_doc()
        doc["rates"]["lambda"] = [[0.0, 0.0], [0.0, 0.0]]
        doc["constants"]["lambda_lower"] = [0.0, 0.0]
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        with pytest.raises(SimulationError, match="tail"):
            pa.simulate(model, policy, 0, 10.0, seed=5)


def chain_lefts(line, mesh) -> np.ndarray:
    """The left nodes of a simulation line's chain intervals on ``mesh``.

    A segment's last node, which repeats the next segment's first, and the
    pair that joins them are left out.
    """
    return np.setdiff1d(np.arange(line.b, line.e), mesh.node_start[1:] - 1)


def line_arrays(line, mesh) -> dict:
    """A simulation line's node and interval tables on ``mesh``, chain stretch then exit piece, from 0."""
    b, x0, x1 = line.b, line.x0, line.x1
    chain = chain_lefts(line, mesh)
    arr = {name: np.asarray(getattr(line.nodes, name)) for name in
           ("times", "states", "hazard", "slope", "f_left", "f_right", "actions")}
    nodes = {name: np.concatenate((arr[name][chain] - (arr[name][b] if name != "states" else 0.0),
                                   start + arr[name][x0:x1 + 1]))
             for name, start in (("times", line.chain_time), ("states", 0.0), ("hazard", line.chain_hazard))}
    intervals = {name: np.concatenate((arr[name][chain], arr[name][x0:x1]))
                 for name in ("slope", "f_left", "f_right", "actions")}
    return nodes | intervals


class TestLineTables:
    def test_preparation_peak_stays_near_what_it_keeps(self, models, workspaces, solved):
        # the tables of decay_flow_16's PIA-optimal policy at its refined
        # fill: each node table is made as soon as its inputs are at hand,
        # and every node array goes after its last read, so the peak is 1.11
        # times the bytes the tables keep (2.23 times with transient copies)
        model = models["decay_flow_16"]
        tables, kept, peak = traced(lambda: pa.prepare_simulation(model, solved["decay_flow_16"][1],
                                                                  workspace=workspaces["decay_flow_16"]))
        assert len(tables.nodes.times) > 20000
        assert peak <= 1.35 * kept, (peak, kept)

    def test_match_the_reference_paths(self, models, workspaces):
        # a line's chain stretch and exit piece hold the reference path's
        # tables; a line that passes no grid point is its exit piece alone,
        # whose tables are the reference path's bit for bit (on a constant
        # exit piece, one interval in both)
        rng = np.random.default_rng(61)
        for name, model in models.items():
            ws = workspaces[name]
            for policy in (pa.FeedbackPolicy.lowest_feasible(model),
                           random_feasible(model, rng)):
                tables = pa.prepare_simulation(model, policy, workspace=ws)
                for line, path in zip(tables.lines, policy_paths(ws, policy)):
                    f_left, f_right = path.node_table_values(model.running_cost)
                    got = line_arrays(line, ws.mesh)
                    wanted = {"times": path.times, "states": path.states, "hazard": path.cum_hazard,
                              "slope": path.hazard_slope, "f_left": f_left, "f_right": f_right,
                              "actions": path.interval_actions}
                    for key, want in wanted.items():
                        if line.b == line.e:
                            assert np.array_equal(got[key], want), (name, key)
                        else:
                            assert got[key].shape == want.shape, (name, key)
                            assert np.max(np.abs(got[key] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), \
                                (name, key)
                    assert (line.hit, line.boundary_index, line.boundary_action) == \
                        (path.hit, path.boundary_index, path.boundary_action)
                    assert line.lam_tail == path.lam_right[-1]
                    assert abs(line.chain_hazard + line.hazard_end - path.cum_hazard[-1]) <= 1e-12

    def test_lines_share_one_chain(self, models, workspaces):
        # no line copies the chain or an exit piece: the tables hold one node
        # per mesh node, and every line that ends on the same chain end reads
        # that end's exit nodes, the exit piece's own mesh nodes and
        # intervals: one on a constant exit piece (every one of
        # ctmdp_3state's, none of drift_boundary_64's)
        for name in ("drift_boundary_64", "ctmdp_3state"):
            model, ws = models[name], workspaces[name]
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            tables = pa.prepare_simulation(model, policy, workspace=ws)
            assert all(line.nodes is tables.nodes for line in tables.lines)
            assert len(tables.nodes.times) == ws.mesh.times.size
            node_start = ws.mesh.node_start
            ends = ws.chain.exit_of.tolist()
            for k, line in zip(ends, tables.lines):
                p = ws.chain.exits[k].piece
                assert (line.x0, line.x1) == (node_start[p], node_start[p + 1] - 1), name
            exit_nodes = [(node_start[e.piece], node_start[e.piece + 1] - 1) for e in ws.chain.exits]
            assert exit_nodes[0][0] == node_start[ws.chain.n_chain], name
            assert all(x1 + 1 == y0 for (_, x1), (y0, _) in zip(exit_nodes, exit_nodes[1:])), name
            assert exit_nodes[-1][1] == len(tables.nodes.times) - 1, name
            constant = [e.constant for e in ws.chain.exits]
            assert all(constant) if name == "ctmdp_3state" else not any(constant)
            for (x0, x1), e in zip(exit_nodes, ws.chain.exits):
                assert x1 - x0 == ws.geometry[e.piece].times.size - 1, name
                assert x1 - x0 == 1 or not e.constant, name


def reference_jump_target(model, line, hit, y, action, u):
    """The post-jump draw on a freshly mixed kernel row (the per-jump numpy formula)."""
    points, n = model.grid.points, model.n_states
    if hit:
        row = model.kernel_boundary[line.boundary_index, line.boundary_action]
    else:
        i = min(max(int(np.searchsorted(points, y, side="right")) - 1, 0), n - 2)
        w = 1.0 - min(max((y - points[i]) / (points[i + 1] - points[i]), 0.0), 1.0)
        row = w * model.kernel_interior[i, action] + (1.0 - w) * model.kernel_interior[i + 1, action]
    return min(int(np.searchsorted(np.cumsum(row), u * row.sum())), n - 1)


def loop_draws(tables, line, hit: bool, y: float, action: int, us: list) -> list:
    """The post-jump states :func:`simulate`'s loop draws with uniforms ``us``
    after a jump at ``y`` under ``action``, or on a hit of ``line``'s boundary.

    Every line of a copy of ``tables`` becomes one exit piece resting at
    ``y`` with unit hazard over unit time, so every sojourn ends at the same
    level inside it (or, on a hit, at its end), where the jump's second
    uniform is the next of ``us``.
    """
    assert 0 < len(us) < UNIFORM_BLOCK // 2
    rate = 0.0 if hit else 1.0

    def table(values, dtype=float):
        return memoryview(np.array(values, dtype=dtype))

    cell = min(max(bisect_right(tables.points, y) - 1, 0), len(tables.points) - 2)
    nodes = _Nodes(times=table([0.0, 1.0]), states=table([y, y]), hazard=table([0.0, rate]),
                   slope=table([rate, 0.0]), cost_cum=table([0.0, 0.0]), f_left=table([0.0, 0.0]),
                   f_right=table([0.0, 0.0]), actions=table([action, action], np.int64),
                   cell=table([cell, 0], np.int64))
    rest = _Line(nodes=nodes, b=0, e=0, x0=0, x1=1, hazard_b=0.0, time_b=0.0, cost_b=0.0,
                 chain_hazard=0.0, chain_time=0.0, chain_cost=0.0, hit=hit,
                 boundary_index=line.boundary_index, boundary_action=line.boundary_action,
                 hazard_end=rate, cost_end=0.0, end=1.0, lam_tail=1.0, f_tail=0.0, state_tail=y,
                 action_tail=action, stationary=None)
    resting = copy.copy(tables)
    resting.nodes, resting.lines = nodes, [rest] * len(tables.lines)
    block = [0.5, 0.5] * (UNIFORM_BLOCK // 2)
    block[1:2 * len(us):2] = us
    sojourn = 1.0 if hit else -math.log1p(-0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pa.simulation, "_uniform_block", lambda rng: block)
        record, _ = pa.simulate(tables.model, tables.policy, 0, (len(us) + 0.5) * sojourn, seed=0,
                                tables=resting)
    assert record.jump_count == len(us) and record.hit_boundary.all() == hit
    return record.post_jump_states.tolist()


class TestJumpDraws:
    def test_uniform_pairs_are_the_scalar_draws(self):
        blocks = _rng_stream(3, 1)
        draws = [u for _ in range(3) for u in _uniform_block(blocks)]  # crosses block boundaries
        scalar = _rng_stream(3, 1)
        assert draws == [scalar.random() for _ in range(3 * UNIFORM_BLOCK)]

    @pytest.mark.parametrize("name", ["drift_boundary_64", "renewal_cycle", "ctmdp_3state"])
    def test_grid_point_and_boundary_draws_match_the_mixed_row_formula(self, models, name):
        model = models[name]
        tables = pa.prepare_simulation(model, pa.FeedbackPolicy.lowest_feasible(model))
        hitting = [line for line in tables.lines if line.hit][:1]
        cases = [(True, hitting[0], 0.0, -1)] if hitting else []
        cases += [(False, tables.lines[0], float(y), a)
                  for y in model.grid.points for a in range(model.n_actions)]
        rng = np.random.default_rng(5)
        for hit, line, y, a in cases:
            row = (model.kernel_boundary[line.boundary_index, line.boundary_action] if hit
                   else model.kernel_interior[int(np.searchsorted(model.grid.points, y)), a])
            # random levels plus levels tied with each cumulative value
            us = rng.random(4).tolist() + (np.cumsum(row) / row.sum()).tolist()
            assert loop_draws(tables, line, hit, y, a, us) == \
                [reference_jump_target(model, line, hit, y, a, u) for u in us]

    @pytest.mark.parametrize("name", ["drift_boundary_64", "decay_flow_16"])
    def test_between_grid_points_draws_match_up_to_rounding(self, models, name):
        model = models[name]
        tables = pa.prepare_simulation(model, pa.FeedbackPolicy.lowest_feasible(model))
        line = tables.lines[0]
        points = model.grid.points
        rng = np.random.default_rng(11)
        for _ in range(2000):
            y = float(rng.uniform(points[0], points[-1]))
            a, u = int(rng.integers(model.n_actions)), float(rng.random())
            [got] = loop_draws(tables, line, False, y, a, [u])
            want = reference_jump_target(model, line, False, y, a, u)
            if got != want:  # only where u sits on a cumulative value to rounding
                i = min(max(int(np.searchsorted(points, y, side="right")) - 1, 0), len(points) - 2)
                w = 1.0 - (y - points[i]) / (points[i + 1] - points[i])
                row = w * model.kernel_interior[i, a] + (1.0 - w) * model.kernel_interior[i + 1, a]
                gap = np.min(np.abs(np.cumsum(row) - u * row.sum()))
                assert gap <= 1e-14, (y, a, u, got, want)


def mixed_row(tables, y, action):
    """(w, v, lo, hi, total): the kernel row mixed at ``y``, with the weights the post-jump draw uses."""
    points, n = tables.points, len(tables.points)
    i = min(max(bisect_right(points, y) - 1, 0), n - 2)
    w = 1.0 - min(max((y - points[i]) / (points[i + 1] - points[i]), 0.0), 1.0)
    v = 1.0 - w
    total = w * tables.interior_sum[i][action] + v * tables.interior_sum[i + 1][action]
    return w, v, tables.interior_cum[i][action], tables.interior_cum[i + 1][action], total


def keyed_jump_target(tables, y, action, u):
    """The post-jump draw as the keyed bisect over every state of the mixed row."""
    w, v, lo, hi, total = mixed_row(tables, y, action)
    n = len(lo)
    return min(bisect_left(range(n), u * total, key=lambda q: w * lo[q] + v * hi[q]), n - 1)


def uniform_for(level: float, total: float) -> float:
    """A uniform u with ``u * total == level`` where one exists next to ``level / total``."""
    u = level / total
    for cand in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
        if 0.0 <= cand < 1.0 and cand * total == level:
            return cand
    return min(u, math.nextafter(1.0, 0.0))


@st.composite
def kernel_rows(draw):
    """A trivial-flow model whose neighbouring kernel rows share cumulative values.

    Rows get runs of zero mass, and a row's neighbour is often the same row
    with its mass reshuffled inside one block, so both rows' cumulative sums
    agree outside it: there the mixed key can round past both.
    """
    doc, _, _ = draw(random_model_docs(flow="trivial"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_a = len(doc["grid"]["points"]), len(doc["actions"]["values"])
    rows = rng.dirichlet(np.full(n, 0.7), size=(n, n_a))
    for x in range(n):
        for a in range(n_a):
            start, stop = sorted(rng.integers(0, n + 1, 2))
            if rng.random() < 0.5 and stop - start < n:
                rows[x, a, start:stop] = 0.0
            if x > 0 and rng.random() < 0.6:
                rows[x, a] = rows[x - 1, a]
                rows[x, a, start:stop] = rng.permutation(rows[x, a, start:stop])
            rows[x, a] /= rows[x, a].sum()
    doc["kernel"]["interior"] = rows.tolist()
    return pa.model_from_dict(doc), int(rng.integers(2**32))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=kernel_rows())
def test_bracketed_draw_is_the_keyed_bisect(case):
    # random levels, levels set exactly to a mixed-key value or a row's
    # cumulative value, grid points and points within rounding of them
    model, seed = case
    tables = pa.prepare_simulation(model, pa.FeedbackPolicy.lowest_feasible(model))
    line = tables.lines[0]
    points = tables.points
    rng = np.random.default_rng(seed)
    for i in range(len(points) - 1):
        gap = points[i + 1] - points[i]
        ys = [points[i], points[i + 1], math.nextafter(points[i], math.inf),
              math.nextafter(points[i + 1], -math.inf)]
        ys += (points[i] + gap * rng.random(4)).tolist()
        for y in ys:
            for a in range(model.n_actions):
                w, v, lo, hi, total = mixed_row(tables, y, a)
                levels = [w * p + v * q for p, q in zip(lo, hi)] + lo + hi
                us = rng.random(3).tolist() + [uniform_for(x, total) for x in levels]
                assert loop_draws(tables, line, False, y, a, us) == \
                    [keyed_jump_target(tables, y, a, u) for u in us], (y, a)


def _outcome(simulate, *args, **kwargs):
    """A simulation's record and summary, or the type and message of what it raised."""
    try:
        return simulate(*args, **kwargs)
    except Exception as exc:  # both loops must raise alike
        return type(exc), str(exc)


@pytest.mark.parametrize("flow", FLOWS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_trajectories_match_the_reference_loop(flow, data):
    # every jump of the library's loop is the reference loop's, bit for bit:
    # times, post-jump states, hit flags, costs at jumps, average and se
    doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True))
    batches = data.draw(st.sampled_from([1, 2, 20]))
    model = pa.model_from_dict(doc)
    ws = pa.OperatorWorkspace(model, fill)
    rng = np.random.default_rng(seed)
    for policy in (pa.FeedbackPolicy.lowest_feasible(model),
                   random_feasible(model, rng),
                   random_feasible(model, rng)):
        tables = pa.prepare_simulation(model, policy, workspace=ws)
        x0 = int(rng.integers(model.n_states))
        horizon = float(rng.uniform(5.0, 40.0))
        kwargs = dict(replication=int(rng.integers(4)), tables=tables)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pa.simulation, "DEFAULT_BATCHES", batches)
            got = _outcome(pa.simulate, model, policy, x0, horizon, seed, **kwargs)
        want = _outcome(reference_simulation.simulate, model, policy, x0, horizon, seed, batches=batches, **kwargs)
        if isinstance(want[0], type):
            assert got == want
            continue
        (rec, summ), (ref_rec, ref_summ) = got, want
        assert rec.jump_count == ref_rec.jump_count > 0
        for name in ("jump_times", "post_jump_states", "hit_boundary", "cost_at_jumps"):
            assert np.array_equal(getattr(rec, name), getattr(ref_rec, name)), name
        assert (rec.running_cost_total, rec.boundary_cost_total, rec.final_time) == \
            (ref_rec.running_cost_total, ref_rec.boundary_cost_total, ref_rec.final_time)
        assert summ == ref_summ


@pytest.mark.parametrize("flow", FLOWS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_recorded_standard_error_is_the_reference_loops(flow, data):
    # the standard error derived from the record is that of the reference
    # loop, which costs each batch edge as it passes it, bit for bit: with
    # the last jump on the horizon, with a batch edge on a jump, and with
    # one batch
    doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True))
    model = pa.model_from_dict(doc)
    policy = random_feasible(model, np.random.default_rng(seed))
    tables = pa.prepare_simulation(model, policy, workspace=pa.OperatorWorkspace(model, fill))
    x0 = data.draw(st.integers(0, model.n_states - 1))
    first = _outcome(pa.simulate, model, policy, x0, 30.0, seed, tables=tables)
    assume(not isinstance(first[0], type))
    times = [t for t in first[0].jump_times.tolist() if t > 0.0]
    assume(times)
    t_k = data.draw(st.sampled_from(times))
    for horizon, batches in ((t_k, 20), (2.0 * t_k, 2), (2.0 * t_k, 1)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pa.simulation, "DEFAULT_BATCHES", batches)
            rec, summ = pa.simulate(model, policy, x0, horizon, seed, tables=tables)
        ref_rec, ref_summ = reference_simulation.simulate(model, policy, x0, horizon, seed, batches=batches,
                                                          tables=tables)
        if batches == 20:
            assert rec.jump_times[-1] == horizon  # the last jump lands on the horizon
        elif batches == 2:
            assert t_k in rec.jump_times  # the batch edge horizon / 2 is a jump time
        for name in ("jump_times", "post_jump_states", "hit_boundary", "cost_at_jumps"):
            assert np.array_equal(getattr(rec, name), getattr(ref_rec, name)), name
        assert (rec.running_cost_total, rec.boundary_cost_total, rec.final_time) == \
            (ref_rec.running_cost_total, ref_rec.boundary_cost_total, ref_rec.final_time)
        assert (summ.average.hex(), summ.se.hex()) == (ref_summ.average.hex(), ref_summ.se.hex())
        assert summ == ref_summ


@pytest.mark.parametrize("name, x0", [("drift_boundary_64", 4), ("decay_flow_16", 0)])
def test_a_draw_one_past_a_row_end_is_recorded_on_the_last_state(models, monkeypatch, name, x0):
    # the kernel row of state x0 under action 0 has a sum() past its last
    # cumulative value, so a first jump at grid point x0 (hazard level 0:
    # on drift_boundary_64's chain, on decay_flow_16's stationary line) with
    # a second uniform just below 1 draws one past the row's end; the record
    # holds the last state, and the trajectory goes on from it as the
    # reference loop's does
    model = models[name]
    policy = pa.FeedbackPolicy.lowest_feasible(model)
    tables = pa.prepare_simulation(model, policy)
    u = math.nextafter(1.0, 0.0)
    assert policy.interior[x0] == 0 and (tables.lines[x0].stationary is None) == (name == "drift_boundary_64")
    assert bisect_left(tables.interior_cum[x0][0], u * tables.interior_sum[x0][0]) == model.n_states
    block = [0.0, u] + np.random.default_rng(17).random(UNIFORM_BLOCK - 2).tolist()
    for module in (pa.simulation, reference_simulation):
        monkeypatch.setattr(module, "_uniform_block", lambda rng: block)
    rec, summ = pa.simulate(model, policy, x0, 60.0, 0, tables=tables)
    ref_rec, ref_summ = reference_simulation.simulate(model, policy, x0, 60.0, 0, tables=tables)
    assert rec.jump_times[0] == 0.0 and rec.post_jump_states[0] == model.n_states - 1
    assert rec.jump_count == ref_rec.jump_count > 1
    for field in ("jump_times", "post_jump_states", "hit_boundary", "cost_at_jumps"):
        assert np.array_equal(getattr(rec, field), getattr(ref_rec, field)), field
    assert summ == ref_summ


def stationary_cases(tables, record, x0: int, seed: int, replication: int) -> Counter:
    """How many recorded jumps left a stationary line inside its one interval, and how many past it.

    A jump's hazard level is the first uniform of its pair, read again from
    the replication's stream.
    """
    rng = _rng_stream(seed, replication)
    uniforms = []
    while len(uniforms) < 2 * record.jump_count:
        uniforms += _uniform_block(rng)
    cases = Counter()
    for i, j in enumerate([x0] + record.post_jump_states[:-1].tolist()):
        still = tables.lines[j].stationary
        if still is not None:
            cases["in_piece" if -math.log1p(-uniforms[2 * i]) < still.hazard_end else "past_t_max"] += 1
    return cases


def reference_loop_examples(request, monkeypatch, flow: str) -> None:
    """Run test_trajectories_match_the_reference_loop on the examples its ``flow`` case draws.

    Hypothesis's pytest plugin seeds each case of a parametrized test with
    the case's node id, which it leaves on the test (the last case run), so
    the id is set here: a direct call draws the case's own examples, alone
    or after any other test.
    """
    module = request.node.nodeid.rsplit("::", 1)[0]
    inner = test_trajectories_match_the_reference_loop.hypothesis.inner_test
    key = f"{module}::test_trajectories_match_the_reference_loop[{flow}]".encode()
    monkeypatch.setattr(inner, "_hypothesis_internal_add_digest", key, raising=False)
    test_trajectories_match_the_reference_loop(flow)


def test_reference_loop_examples_reach_both_stationary_cases(request, monkeypatch, capsys):
    # the trivial-flow examples of test_trajectories_match_the_reference_loop
    # prove the stationary branch bit-identical to the reference loop; they
    # draw sojourns inside the one interval and past t_max alike
    cases = Counter()
    simulate = pa.simulate

    def counting(model, policy, x0, horizon, seed, **kwargs):
        out = simulate(model, policy, x0, horizon, seed, **kwargs)
        cases.update(stationary_cases(kwargs["tables"], out[0], x0, seed, kwargs["replication"]))
        return out

    monkeypatch.setattr(pa, "simulate", counting)
    reference_loop_examples(request, monkeypatch, "trivial")
    with capsys.disabled():
        print(f"\nstationary jumps in the trivial reference-loop examples: {dict(cases)}")
    assert cases["in_piece"] > 0 and cases["past_t_max"] > 0


def test_reference_loop_examples_reach_the_boundary_pass(request, monkeypatch, capsys):
    # the examples of test_trajectories_match_the_reference_loop prove the
    # closed-form boundary branch bit-identical to the reference loop: every
    # recorded boundary hit is a jump whose hazard level passed a whole line
    passes = Counter()
    simulate = pa.simulate

    def counting(model, policy, x0, horizon, seed, **kwargs):
        out = simulate(model, policy, x0, horizon, seed, **kwargs)
        passes[flow] += out[0].boundary_hits
        return out

    monkeypatch.setattr(pa, "simulate", counting)
    for flow in ("affine", "drift", "tabulated"):
        reference_loop_examples(request, monkeypatch, flow)
    with capsys.disabled():
        print(f"\nboundary passes in the reference-loop examples: {dict(passes)}")
    assert all(passes[flow] > 0 for flow in ("affine", "drift", "tabulated")), passes


def assert_meshed_trajectory(tables, meshed, model, policy, x0, horizon, seed, **kwargs):
    """The trajectory on one-interval exit tables is the one on the meshed
    tables: the same post-jump states, hit flags and jump count, and jump
    times, costs at jumps and average within 1e-12 relative."""
    got = _outcome(pa.simulate, model, policy, x0, horizon, seed, tables=tables, **kwargs)
    want = _outcome(pa.simulate, model, policy, x0, horizon, seed, tables=meshed, **kwargs)
    if isinstance(want[0], type):
        assert got == want
        return
    (rec, summ), (ref_rec, ref_summ) = got, want
    assert rec.jump_count == ref_rec.jump_count > 0
    assert np.array_equal(rec.post_jump_states, ref_rec.post_jump_states)
    assert np.array_equal(rec.hit_boundary, ref_rec.hit_boundary)
    for name in ("jump_times", "cost_at_jumps"):
        got_values, want_values = getattr(rec, name), getattr(ref_rec, name)
        assert np.all(np.abs(got_values - want_values) <= 1e-12 * np.abs(want_values)), name
    assert abs(summ.average - ref_summ.average) <= 1e-12 * abs(ref_summ.average)


class TestStationaryLines:
    """Constant exit pieces as one interval, and the jump loop's branch for lines that are only such a piece."""

    @pytest.mark.parametrize("name", ["ctmdp_2state", "ctmdp_3state", "renewal_cycle", "drift_boundary_64",
                                      "decay_flow_16"])
    def test_trajectories_match_the_meshed_tables(self, models, workspaces, solved, name):
        model, ws = models[name], workspaces[name]
        for policy in (solved[name][1], pa.FeedbackPolicy.lowest_feasible(model),
                       random_feasible(model, np.random.default_rng(8))):
            tables = pa.prepare_simulation(model, policy, workspace=ws)
            meshed = reference_simulation.meshed_tables(model, policy, workspace=ws)
            for replication, x0 in enumerate((0, model.n_states - 1)):
                assert_meshed_trajectory(tables, meshed, model, policy, x0, 1e3, 424242, replication=replication)

    @pytest.mark.parametrize("flow", FLOWS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_trajectories_match_the_meshed_tables_on_random_models(self, flow, data):
        doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True))
        model = pa.model_from_dict(doc)
        ws = pa.OperatorWorkspace(model, fill)
        rng = np.random.default_rng(seed)
        for policy in (pa.FeedbackPolicy.lowest_feasible(model), random_feasible(model, rng)):
            tables = pa.prepare_simulation(model, policy, workspace=ws)
            meshed = reference_simulation.meshed_tables(model, policy, workspace=ws)
            assert_meshed_trajectory(tables, meshed, model, policy, int(rng.integers(model.n_states)),
                                     float(rng.uniform(5.0, 40.0)), seed, replication=int(rng.integers(4)))

    def test_no_hit_line_is_stationary_on_the_bundled_models(self, models, workspaces, solved):
        # nor any line of drift_boundary_64, whose exit piece varies
        for name, model in models.items():
            for policy in (solved[name][1], pa.FeedbackPolicy.lowest_feasible(model),
                           random_feasible(model, np.random.default_rng(9))):
                lines = pa.prepare_simulation(model, policy, workspace=workspaces[name]).lines
                assert not any(line.hit and line.stationary is not None for line in lines), name
                if name == "drift_boundary_64":
                    assert all(line.stationary is None for line in lines)

    @pytest.mark.parametrize("flow", FLOWS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_no_hit_line_is_stationary_on_random_models(self, flow, data):
        # and every line of a trivial flow is
        doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True))
        model = pa.model_from_dict(doc)
        ws = pa.OperatorWorkspace(model, fill)
        rng = np.random.default_rng(seed)
        for policy in (pa.FeedbackPolicy.lowest_feasible(model), random_feasible(model, rng)):
            lines = pa.prepare_simulation(model, policy, workspace=ws).lines
            assert not any(line.hit and line.stationary is not None for line in lines)
            if flow == "trivial":
                assert all(line.stationary is not None for line in lines)


class TestRunningCost:
    def test_constant_rate_on_a_trivial_flow(self, models):
        # state 1 of ctmdp_2state never moves: the cost integral is f * tau,
        # inside the tabulated horizon and past it
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        line = pa.prepare_simulation(model, policy).lines[1]
        f = float(model.running_cost[1, policy.interior[1]])
        for tau in (0.0, 0.3, 0.5 * line.end, line.end, 2.0 * line.end + 1.0):
            assert _cost_to(line, tau) == pytest.approx(f * tau, rel=1e-12, abs=1e-15)

    def test_interval_hint_never_changes_the_integral(self, models, monkeypatch):
        # simulate integrates a sojourn's running cost from the interval its
        # sojourn search found, searching only when rounding puts the
        # sojourn outside it (for these lines and levels it does so a few
        # hundred times, twice into the exit piece from a chain interval);
        # for sojourns ending on a node, one ulp either side of it, inside
        # an interval or past the table, that is _cost_to's searched integral
        blocks = []
        # a hazard level far past every line's end for every later sojourn
        monkeypatch.setattr(pa.simulation, "_uniform_block",
                            lambda rng: blocks.pop() if blocks else [1.0 - 2.0**-40, 0.5] * (UNIFORM_BLOCK // 2))
        for name, j in (("decay_flow_16", 12), ("drift_boundary_64", 16), ("drift_boundary_64", 56)):
            model = models[name]
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            ws = pa.OperatorWorkspace(model)
            tables = pa.prepare_simulation(model, policy, workspace=ws)
            line = tables.lines[j]
            assert 0.0 < line.chain_time < line.chain_time + line.end
            charge = tables.boundary_cost[line.boundary_index][line.boundary_action] if line.hit else 0.0
            hazard = line_arrays(line, ws.mesh)["hazard"]
            levels = [x for h in hazard for x in (h, math.nextafter(h, math.inf), math.nextafter(h, 0.0))]
            levels += (0.5 * (hazard[1:] + hazard[:-1]))[::max(1, hazard.size // 20)].tolist()
            levels.append(hazard[-1] + 1.0)
            horizon = line.chain_time + line.end + (2.0 / line.lam_tail if line.lam_tail > 0 else 1.0)
            for level in levels:
                u = -math.expm1(-level)
                if not 0.0 < u < 1.0:
                    continue
                blocks.append([u, 0.5] * (UNIFORM_BLOCK // 2))
                record, _ = pa.simulate(model, policy, j, horizon, seed=0, tables=tables)
                tau = float(record.jump_times[0])
                assert record.cost_at_jumps[0] == _cost_to(line, tau) + (charge if record.hit_boundary[0] else 0.0), \
                    (name, j, level)

    def test_matches_the_reference_path_integral(self, models, workspaces):
        # the running cost up to tau along the chain stretch and exit piece
        # is the reference path's trapezoid integral of the linear running cost
        for name in ("drift_boundary_64", "decay_flow_16"):
            model, ws = models[name], workspaces[name]
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            tables = pa.prepare_simulation(model, policy, workspace=ws)
            for j in (0, model.n_states // 2):
                line, path = tables.lines[j], policy_paths(ws, policy)[j]
                f_left, f_right = path.node_table_values(model.running_cost)
                cum = np.concatenate(([0.0], np.cumsum(0.5 * path.dt * (f_left + f_right))))
                for k in range(0, path.dt.size, max(1, path.dt.size // 50)):
                    assert abs(_cost_to(line, float(path.times[k])) - cum[k]) <= 1e-12 * max(1.0, cum[-1])


def test_cumulative_rows_are_the_row_by_row_sums(models):
    # cumsums over blocks of states and one sum over the kernel give each
    # row's own, bit for bit, past one block of states and on rows past
    # numpy's pairwise-summation blocks too
    rng = np.random.default_rng(5)
    kernels = [k for model in models.values() for k in (model.kernel_interior, model.kernel_boundary)]
    kernels += [rng.dirichlet(np.ones(n), size=(states, 2)) for states, n in ((3, 7), (130, 9), (3, 129), (2, 1025))]
    for kernel in kernels:
        assert _cumulative_rows(kernel) == ([np.cumsum(rows, axis=-1).tolist() for rows in kernel],
                                            [[float(row.sum()) for row in rows] for rows in kernel])


def test_the_kernel_rows_are_the_models(monkeypatch):
    # the cumulative kernel rows are built once per model, the interior and
    # the boundary kernel's, and every policy's tables share them
    model = pa.load_model(pa.bundled_model_path("drift_boundary_64"))
    built = []
    monkeypatch.setattr(simulation, "_cumulative_rows", lambda kernel: built.append(kernel) or _cumulative_rows(kernel))
    ws = pa.OperatorWorkspace(model)
    policies = (pa.FeedbackPolicy.lowest_feasible(model), random_feasible(model, np.random.default_rng(3)))
    first, second = (pa.prepare_simulation(model, policy, workspace=ws) for policy in policies)
    assert len(built) == 2 and built[0] is model.kernel_interior and built[1] is model.kernel_boundary
    assert first.interior_cum is second.interior_cum and first.boundary_sum is second.boundary_sum
    assert (first.interior_cum, first.interior_sum, first.boundary_cum, first.boundary_sum) == model.kernel_rows


class TestSimulate:
    def test_deterministic_renewal_cycle(self, renewal):
        model, policy = renewal
        record, summary = pa.simulate(model, policy, 0, 500.0, seed=3)
        assert summary.average == pytest.approx(0.7, abs=1e-12)
        assert summary.boundary_hits == 500
        assert record.jump_count == 500

    def test_renewal_bias_is_order_one_over_horizon(self, renewal):
        model, policy = renewal
        horizon = 333.4
        _, summary = pa.simulate(model, policy, 0, horizon, seed=3)
        assert abs(summary.average - 0.7) <= 0.7 / horizon + 1e-12

    def test_constant_cost_gives_exact_average(self, write_model):
        doc = constant_cost_variant(two_state_jump_doc(), 1.9)
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        _, summary = pa.simulate(model, policy, 0, 200.0, seed=11)
        assert summary.average == pytest.approx(1.9, rel=1e-12)

    def test_average_tracks_solver_rho(self, models, workspaces, solved):
        model = models["ctmdp_2state"]
        result, policy, _ = solved["ctmdp_2state"]
        _, summary = pa.simulate(model, policy, 0, 1e4, seed=21,
                                 tables=pa.prepare_simulation(model, policy,
                                                              workspace=workspaces["ctmdp_2state"]))
        assert abs(summary.average - result.rho) <= 3.0 * summary.se

    def test_bit_identical_reproducibility(self, models):
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        rec1, sum1 = pa.simulate(model, policy, 2, 300.0, seed=42)
        rec2, sum2 = pa.simulate(model, policy, 2, 300.0, seed=42)
        assert np.array_equal(rec1.jump_times, rec2.jump_times)
        assert np.array_equal(rec1.post_jump_states, rec2.post_jump_states)
        assert sum1.average == sum2.average
        rec3, _ = pa.simulate(model, policy, 2, 300.0, seed=43)
        assert not np.array_equal(rec1.jump_times, rec3.jump_times)

    def test_jump_times_strictly_increasing(self, models):
        model = models["drift_boundary_64"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        record, _ = pa.simulate(model, policy, 0, 500.0, seed=8)
        assert np.all(np.diff(record.jump_times) > 0)
        assert record.boundary_hits == int(record.hit_boundary.sum())
        assert record.boundary_hits <= record.jump_count

    def test_boundary_cost_accounting_is_exact(self, models):
        model = models["drift_boundary_64"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        record, _ = pa.simulate(model, policy, 0, 300.0, seed=13)
        r_charge = float(model.boundary_cost[0, policy.boundary[0]])
        assert record.boundary_cost_total == pytest.approx(record.boundary_hits * r_charge,
                                                           rel=1e-12)

    def test_poisson_rate_bound(self, models):
        # trivial flow, rates bounded by lambda_max: the jump count obeys a
        # 3-sigma Poisson envelope in at least 99 of 100 seeds
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        tables = pa.prepare_simulation(model, policy)
        lam_max = float(model.jump_rate[:2][model.feasible_mask].max())
        horizon = 200.0
        bound = lam_max + 3.0 * math.sqrt(lam_max / horizon)
        ok = 0
        for seed in range(100):
            _, summary = pa.simulate(model, policy, 0, horizon, seed=seed,
                                     record=False, tables=tables)
            ok += summary.jumps / horizon <= bound
        assert ok >= 99

    def test_explosion_guard_aborts_with_stats(self, models, monkeypatch):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        monkeypatch.setattr(pa.simulation, "MAX_JUMPS_FLOOR", 50)
        monkeypatch.setattr(pa.simulation, "MAX_JUMPS_FACTOR", 0.0)
        with pytest.raises(pa.SimulationExplosionError, match=r"guard \(50\)") as err:
            pa.simulate(model, policy, 0, 1e4, seed=4)
        assert err.value.stats["jumps"] > 50
        # the guard trips inside the first uniform block and past it, at the
        # reference loop's jump and time
        for floor in (50, 700):
            monkeypatch.setattr(pa.simulation, "MAX_JUMPS_FLOOR", floor)
            got = _outcome(pa.simulate, model, policy, 0, 1e4, 4)
            assert got == _outcome(reference_simulation.simulate, model, policy, 0, 1e4, 4, max_jumps=floor)
            assert got[0] is pa.SimulationExplosionError and f"guard ({floor})" in got[1], got

    def test_invalid_horizon(self, models):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        with pytest.raises(ValueError, match="horizon"):
            pa.simulate(model, policy, 0, 0.0, seed=1)

    def test_invalid_start_state(self, models):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        with pytest.raises(ValueError, match="x0"):
            pa.simulate(model, policy, 99, 10.0, seed=1)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
    def test_horizon_must_be_positive_and_finite(self, models, horizon):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        for call in (lambda: pa.simulate(model, policy, 0, horizon, seed=1),
                     lambda: pa.mc_validate(model, policy, 1.0, 0, horizon, 4, seed=1)):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                call()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_the_philox_key_is_refused(self, models, seed):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            _rng_stream(seed, 0)
        with pytest.raises(ValueError, match="seed must be in"):
            pa.simulate(model, policy, 0, 10.0, seed=seed)

    def test_seeds_past_two_to_the_63_key_their_own_streams(self, models):
        # every seed in [0, 2**64) is its own Philox key word, the largest too
        draws = [_rng_stream(seed, 0).random() for seed in (2**63 + 1, 2**63 + 2, 2**64 - 1)]
        assert len(set(draws)) == 3
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        _, summary = pa.simulate(model, policy, 0, 10.0, seed=2**64 - 1)
        assert summary.seed == 2**64 - 1 and summary.jumps > 0

    def test_seeds_below_two_to_the_63_keep_their_streams(self):
        # the key words as a list of Python ints, as streams were keyed before
        for seed, replication in ((0, 0), (7, 3), (424242, 31), (2**63 - 1, 2**62)):
            listed = np.random.Generator(np.random.Philox(key=[seed, replication]))
            assert _rng_stream(seed, replication).random(8).tolist() == listed.random(8).tolist()

    @pytest.mark.parametrize("drawn", [0, 3, 1500], ids=["fresh", "partly-drawn", "past-a-block"])
    def test_the_re_keyed_thread_stream_is_the_keyed_stream(self, drawn):
        # re-keying the thread's one generator gives _rng_stream's stream,
        # whatever the stream before it drew, at the key words' ends
        for seed, replication in ((0, 0), (2**63, 0), (0, 2**63), (2**64 - 1, 2**64 - 1), (7, 2**64 - 1)):
            before = _thread_stream(11, 5)
            before.random(drawn)
            rng = _thread_stream(seed, replication)
            assert rng is before
            assert rng.random(2100).tolist() == _rng_stream(seed, replication).random(2100).tolist()

    @pytest.mark.parametrize("seed, replication, name", [(-1, 0, "seed"), (2**64, 0, "seed"),
                                                          (0, 2**64, "replication"), (0, -7, "replication")])
    def test_the_thread_stream_refuses_keys_outside_the_philox_key(self, seed, replication, name):
        for stream in (_rng_stream, _thread_stream):
            with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 2\*\*64\), got "):
                stream(seed, replication)

    def test_threads_simulating_at_once_draw_their_own_streams(self, models, workspaces):
        # each thread re-keys its own generator: replications run in six
        # threads at once, switching often, give the sequential summaries
        model = models["drift_boundary_64"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        tables = pa.prepare_simulation(model, policy, workspace=workspaces["drift_boundary_64"])

        def summaries(offset):
            return [pa.simulate(model, policy, 0, 400.0, 5, replication=offset + r, record=False, tables=tables)[1]
                    for r in range(4)]

        want = {k: summaries(4 * k) for k in range(6)}
        got = {}
        threads = [threading.Thread(target=lambda k=k: got.__setitem__(k, summaries(4 * k))) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        mine, theirs = _thread_stream(1, 0), []
        thread = threading.Thread(target=lambda: theirs.append(_thread_stream(1, 0)))
        thread.start()
        thread.join(timeout=60)
        assert theirs and theirs[0] is not mine

    def test_no_record_is_built_without_record(self, models):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        record, summary = pa.simulate(model, policy, 0, 50.0, seed=3, record=False)
        assert record is None
        full, same = pa.simulate(model, policy, 0, 50.0, seed=3)
        # no trajectory, no batches: every field but the standard error is the recorded run's
        assert summary.se is None and same.se > 0.0
        assert dataclasses.replace(same, se=None) == summary and full.jump_count == summary.jumps

    @pytest.mark.parametrize("action", [1, 2, -1], ids=["infeasible", "past-the-actions", "negative"])
    def test_infeasible_policy_is_refused_before_any_table(self, write_model, action):
        # an action outside the action grid is refused like an infeasible
        # one, not met as an IndexError while the tables are built
        doc = two_state_jump_doc()
        doc["actions"]["feasible"] = [[0], [0, 1]]
        model = pa.load_model(write_model(doc))
        bad = pa.FeedbackPolicy(interior=np.array([action, 0]), boundary=np.array([], dtype=np.int64))
        message = f"infeasible policy: action {action} infeasible at interior state 0"
        for call in (lambda: pa.prepare_simulation(model, bad),
                     lambda: pa.simulate(model, bad, 0, 10.0, seed=1),
                     lambda: pa.mc_validate(model, bad, 1.0, 0, 10.0, 4, seed=1)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_tables_of_another_policy_or_model_are_refused(self, models):
        model = models["drift_boundary_64"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        other = random_feasible(model, np.random.default_rng(2))
        assert other.key() != policy.key()
        tables = pa.prepare_simulation(model, policy)
        with pytest.raises(ValueError, match="prepared for another policy"):
            pa.simulate(model, other, 0, 10.0, seed=1, tables=tables)
        twin_model = pa.load_model(pa.bundled_model_path("drift_boundary_64"))
        with pytest.raises(ValueError, match="prepared for another model"):
            pa.simulate(twin_model, policy, 0, 10.0, seed=1, tables=tables)
        # a policy with the same actions is the tables' policy
        twin = pa.FeedbackPolicy(interior=policy.interior.copy(), boundary=policy.boundary.copy())
        got, want = (pa.simulate(model, p, 0, 10.0, seed=1, tables=tables) for p in (twin, policy))
        assert np.array_equal(got[0].jump_times, want[0].jump_times) and got[1] == want[1]


class TestMcValidate:
    def test_constant_cost_passes_exactly(self, write_model):
        doc = constant_cost_variant(two_state_jump_doc(), 2.2)
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        verdict = pa.mc_validate(model, policy, 2.2, 0, 100.0, 8, seed=31)
        assert verdict.passed
        assert verdict.pooled_mean == pytest.approx(2.2, rel=1e-12)

    def test_deterministic_renewal_passes(self, renewal):
        model, policy = renewal
        verdict = pa.mc_validate(model, policy, 0.7, 0, 400.0, 8, seed=5)
        assert verdict.passed

    def test_shifted_reference_fails(self, models, workspaces, solved):
        model = models["ctmdp_3state"]
        result, policy, _ = solved["ctmdp_3state"]
        honest = pa.mc_validate(model, policy, result.rho, 0, 3000.0, 12, seed=17,
                                workspace=workspaces["ctmdp_3state"])
        assert honest.passed
        off = pa.mc_validate(model, policy, result.rho + 10.0 * honest.pooled_se,
                             0, 3000.0, 12, seed=17, workspace=workspaces["ctmdp_3state"])
        assert not off.passed

    @pytest.mark.parametrize("replications", [0, 1])
    def test_fewer_than_two_replications_are_refused(self, renewal, replications):
        model, policy = renewal
        with pytest.raises(ValueError, match="replications must be at least 2"):
            pa.mc_validate(model, policy, 0.7, 0, 10.0, replications, seed=1)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho_is_refused(self, renewal, rho):
        model, policy = renewal
        with pytest.raises(ValueError, match="rho must be finite"):
            pa.mc_validate(model, policy, rho, 0, 10.0, 4, seed=1)

    def test_replications_are_independent_streams(self, renewal):
        model, policy = renewal
        verdict = pa.mc_validate(model, policy, 0.7, 0, 97.3, 6, seed=2)
        assert len(verdict.rep_means) == 6


# Per-replication means (float.hex), summed jumps and summed boundary hits of
# the PIA-optimal policy at seed 424242, 8 reps x horizon 2e3, on the refined
# workspace of the lowest feasible policy.  Any change to the trajectories the
# simulator draws shows up here.  Cutting the constant exit pieces to one
# interval moved eight means of ctmdp_3state and decay_flow_16 by 1-2 ulps
# (at most 4e-16 relative: the exact hazard and cost of one interval against
# the rounding of the meshed running sums); jumps and hits did not move.
GOLDEN = {
    "ctmdp_2state": (
        ["0x1.8ee673972a01cp+0", "0x1.8f7dddbf157e5p+0", "0x1.9027d1b9ff17fp+0",
         "0x1.8e0788397fa77p+0", "0x1.8d3439f51ddf3p+0", "0x1.9116384969175p+0",
         "0x1.95edc4683ea9cp+0", "0x1.8bff3950cc712p+0"],
        19644, 0),
    "ctmdp_3state": (
        ["0x1.dbf8d4371ce10p+0", "0x1.dd53dcf3b385dp+0", "0x1.dc2fa29de1383p+0",
         "0x1.dd4c3d6bf5066p+0", "0x1.dc1bdbf39cc5ep+0", "0x1.dc9335b5da351p+0",
         "0x1.dc5c029213fe3p+0", "0x1.dd4fe4dbe94d0p+0"],
        20290, 0),
    "renewal_cycle": (
        ["0x1.6666666666750p-1"] * 8,
        16000, 16000),
    "drift_boundary_64": (
        ["0x1.15b1d534d63ddp+0", "0x1.1776d551c2bb8p+0", "0x1.123e67ad8814cp+0",
         "0x1.1892b31825aa2p+0", "0x1.13ba50578fdcfp+0", "0x1.14f50db1c535ap+0",
         "0x1.1536ac83e6ae3p+0", "0x1.1666dc6648c80p+0"],
        27568, 13498),
    "decay_flow_16": (
        ["0x1.1fbfb53abb4f8p-1", "0x1.20217214838c6p-1", "0x1.1f6d6d2f7b107p-1",
         "0x1.20df08da7f232p-1", "0x1.209999584029ep-1", "0x1.20f502178e923p-1",
         "0x1.2022fe78bdddep-1", "0x1.20e7cb8bffeefp-1"],
        13533, 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_monte_carlo(models, workspaces, solved, name):
    model = models[name]
    result, policy, _ = solved[name]
    means, jumps, hits = GOLDEN[name]
    verdict = pa.mc_validate(model, policy, result.rho, 0, 2e3, len(means), seed=424242,
                             workspace=workspaces[name])
    assert [float(m).hex() for m in verdict.rep_means] == means
    tables = pa.prepare_simulation(model, policy, workspace=workspaces[name])
    summaries = [pa.simulate(model, policy, 0, 2e3, 424242, replication=r, record=False,
                             tables=tables)[1] for r in range(len(means))]
    assert [s.average for s in summaries] == verdict.rep_means.tolist()
    assert sum(s.jumps for s in summaries) == jumps
    assert sum(s.boundary_hits for s in summaries) == hits
