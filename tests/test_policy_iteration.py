import collections
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa

from oracles import model_arrays, uniformization_policy_value, uniformization_rvi
from reference_quadrature import one_stage_values
from test_operator_properties import random_model_docs
from toy_models import constant_cost_variant, dominated_toy_doc, random_feasible, renewal_doc, two_state_jump_doc


@pytest.fixture(scope="module")
def dominated():
    model = pa.model_from_dict(dominated_toy_doc(gap=0.8))
    ws = pa.refined_workspace(model, pa.FeedbackPolicy.lowest_feasible(model))
    return model, ws


class TestImprovePolicy:
    def test_singleton_actions_return_incumbent(self):
        model = pa.model_from_dict(renewal_doc())
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        res = pa.evaluate_policy(model, policy)
        improved, _ = pa.OperatorWorkspace(model).improve_and_certify(res.rho, res.h, policy)
        assert improved.key() == policy.key()

    def test_dominating_action_is_selected_everywhere(self, dominated):
        model, ws = dominated
        all_zero = pa.FeedbackPolicy(interior=np.zeros(2, dtype=np.int64),
                                     boundary=np.array([], dtype=np.int64))
        res = pa.evaluate_policy(model, all_zero, workspace=ws)
        improved, _ = ws.improve_and_certify(res.rho, res.h, all_zero)
        assert improved.interior.tolist() == [1, 1]

    def test_improvement_never_raises_rho(self, models, workspaces):
        rng = np.random.default_rng(101)
        tol = 1e-8
        for name, model in models.items():
            ws = workspaces[name]
            for _ in range(4):
                policy = random_feasible(model, rng)
                res = pa.evaluate_policy(model, policy, tol, workspace=ws)
                improved, _ = ws.improve_and_certify(res.rho, res.h, policy)
                res2 = pa.evaluate_policy(model, improved, tol, workspace=ws)
                assert res2.rho <= res.rho + 10 * tol, name

    def test_backward_march_never_worsens_one_stage_value(self, models, workspaces):
        rng = np.random.default_rng(202)
        for name, model in models.items():
            ws = workspaces[name]
            policy = random_feasible(model, rng)
            res = pa.evaluate_policy(model, policy, workspace=ws)
            improved, _ = ws.improve_and_certify(res.rho, res.h, policy)
            v_old = one_stage_values(ws, policy, res.rho, res.h)
            v_new = one_stage_values(ws, improved, res.rho, res.h)
            assert np.all(v_new <= v_old + 1e-7), name


class TestOneStageValue:
    def test_reproduces_bias_at_converged_evaluation(self, models, workspaces, solved):
        for name, model in models.items():
            result, policy, _ = solved[name]
            values = one_stage_values(workspaces[name], policy, result.rho, result.h)
            assert np.max(np.abs(values - result.h)) <= 1e-7, name

    def test_nonnegative_with_zero_bias_and_rate(self, models, workspaces):
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            values = one_stage_values(workspaces[name], policy, 0.0, np.zeros(model.n_states))
            assert np.all(values >= -1e-12), name

    def test_constant_cost_cancels_exactly(self, write_model):
        doc = constant_cost_variant(two_state_jump_doc(), 2.5)
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        values = one_stage_values(pa.OperatorWorkspace(model), policy, 2.5, np.zeros(2))
        assert np.max(np.abs(values)) <= 1e-10


class TestRunPia:
    def test_single_action_model_converges_immediately(self):
        model = pa.model_from_dict(renewal_doc())
        u0 = pa.FeedbackPolicy.lowest_feasible(model)
        result, policy, trace = pa.run_pia(model, u0)
        assert trace.status == "converged"
        assert trace.reason == "policy-identity"
        assert len(trace.records) == 1
        assert result.rho == pytest.approx(pa.evaluate_policy(model, u0).rho, abs=1e-12)

    def test_dominated_toy_matches_uniformization_oracle(self, dominated):
        model, ws = dominated
        u0 = pa.FeedbackPolicy(interior=np.zeros(2, dtype=np.int64),
                               boundary=np.array([], dtype=np.int64))
        result, policy, trace = pa.run_pia(model, u0, workspace=ws)
        assert policy.interior.tolist() == [1, 1]
        rho_star, policy_star = uniformization_rvi(*model_arrays(model))
        assert result.rho == pytest.approx(rho_star, abs=1e-6)
        assert policy.interior.tolist() == policy_star.tolist()

    def test_oracle_equivalence_on_trivial_flow_bundles(self, models, workspaces):
        for name in ("ctmdp_2state", "ctmdp_3state"):
            model = models[name]
            u0 = pa.FeedbackPolicy.lowest_feasible(model)
            result, policy, trace = pa.run_pia(model, u0, workspace=workspaces[name])
            rho_star, policy_star = uniformization_rvi(*model_arrays(model))
            assert result.rho == pytest.approx(rho_star, abs=1e-6), name
            assert policy.interior.tolist() == policy_star.tolist(), name
            # cross-check the fixed-policy value too
            lam, kern, f, _ = model_arrays(model)
            assert uniformization_policy_value(lam, kern, f, policy.interior) == pytest.approx(
                result.rho, abs=1e-6)

    def test_trace_rho_nonincreasing_on_bundles(self, models, workspaces):
        rng = np.random.default_rng(303)
        for name, model in models.items():
            for _ in range(3):
                u0 = random_feasible(model, rng)
                _, _, trace = pa.run_pia(model, u0, workspace=workspaces[name])
                rhos = trace.rhos
                assert np.all(np.diff(rhos) <= 1e-7), (name, rhos)
                assert trace.status == "converged"

    def test_infeasible_start_rejected(self, models):
        model = models["ctmdp_2state"]
        bad = pa.FeedbackPolicy(interior=np.array([9, 9]), boundary=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="infeasible"):
            pa.run_pia(model, bad)

    def test_wrong_length_start_rejected(self, models):
        model = models["drift_boundary_64"]
        short = pa.FeedbackPolicy(interior=np.zeros(10, dtype=np.int64),
                                  boundary=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="policy has 10 interior entries, model has 64"):
            pa.run_pia(model, short)

    def test_bias_delta_is_monitored(self, models, workspaces):
        model = models["decay_flow_16"]
        rng = np.random.default_rng(7)
        u0 = random_feasible(model, rng)
        _, _, trace = pa.run_pia(model, u0, workspace=workspaces["decay_flow_16"])
        deltas = [r.delta_h for r in trace.records[1:]]
        assert all(np.isfinite(d) for d in deltas)

    def test_changed_states_count_interior_and_boundary_entries(self, models):
        # each record counts the entries, boundary points included, where the
        # improved policy differs from the one evaluated
        model = models["drift_boundary_64"]
        ws = pa.OperatorWorkspace(model, 16)
        rng = np.random.default_rng(3)
        boundary_changes = 0
        for _ in range(6):
            policy = random_feasible(model, rng)
            _, _, trace = pa.run_pia(model, policy, workspace=ws)
            for record in trace.records:
                improved = ws._assembled[("pia-step", policy.key())][3]
                boundary = int(np.sum(improved.boundary != policy.boundary))
                assert record.changed_states == int(np.sum(improved.interior != policy.interior)) + boundary
                boundary_changes += boundary
                policy = improved
        assert boundary_changes


class TestOptimalityResidual:
    def test_converged_output_certifies(self, models, workspaces, solved):
        for name, model in models.items():
            result, policy, _ = solved[name]
            _, res = workspaces[name].improve_and_certify(result.rho, result.h, policy)
            assert res <= 1e-7, name

    def test_single_action_model_is_exactly_certified(self):
        model = pa.model_from_dict(renewal_doc())
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        result = pa.evaluate_policy(model, policy)
        _, res = pa.OperatorWorkspace(model).improve_and_certify(result.rho, result.h, policy)
        assert abs(res) <= 1e-8

    def test_suboptimal_policy_shows_the_dominance_gap(self, dominated):
        # frozen sweep at the cheaper action lowers the one-stage value by
        # gap * expected sojourn, so the residual must reach gap * max ell
        model, ws = dominated
        all_zero = pa.FeedbackPolicy(interior=np.zeros(2, dtype=np.int64),
                                     boundary=np.array([], dtype=np.int64))
        res = pa.evaluate_policy(model, all_zero, workspace=ws)
        _, ell, _ = ws.assemble(all_zero, 0.0)
        expected_gap = 0.8 * float(ell.max())
        _, residual = ws.improve_and_certify(res.rho, res.h, all_zero)
        assert residual >= 0.95 * expected_gap

    def test_fixed_point_consistency(self, models, workspaces):
        # if improvement keeps the policy, the optimality residual is small
        rng = np.random.default_rng(404)
        for name, model in models.items():
            ws = workspaces[name]
            policy = random_feasible(model, rng)
            for _ in range(25):
                res = pa.evaluate_policy(model, policy, workspace=ws)
                improved, _ = ws.improve_and_certify(res.rho, res.h, policy)
                if improved.key() == policy.key():
                    break
                policy = improved
            res = pa.evaluate_policy(model, policy, workspace=ws)
            assert ws.improve_and_certify(res.rho, res.h, policy)[1] <= 1e-7, name


class TestTraceBoundedness:
    def test_bias_norm_bounded_along_the_run(self, models, workspaces):
        rng = np.random.default_rng(505)
        for name, model in models.items():
            ws = workspaces[name]
            u0 = random_feasible(model, rng)
            res0 = pa.evaluate_policy(model, u0, workspace=ws)
            report = pa.audit_assumptions(model, u0, workspace=ws)
            c = model.constants
            m_u0 = max(res0.rho * c.K_lambda, c.M * (1.0 + c.b * c.K_lambda) / c.c)
            bound = report.a_estimate * m_u0 / (1.0 - report.kappa_estimate)
            _, _, trace = pa.run_pia(model, u0, workspace=ws)
            for rec in trace.records:
                assert rec.h_gnorm <= bound * 1.1 + 1e-9, (name, rec.n)


# random trivial-flow CTMDPs: each example solves from a random feasible start,
# once with the default horizon and once with t_max drawn from 0.2 to 1.2, where
# every line stops at t_max and its frozen tail carries the survival left there
PIA_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _solve_random_ctmdp(case):
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    u0 = random_feasible(model, np.random.default_rng(seed))
    result, _, trace = pa.run_pia(model, u0, workspace=pa.OperatorWorkspace(model, fill))
    return model, result, trace


@PIA_PROPERTY_SETTINGS
@given(case=random_model_docs(flow="trivial"), truncated=random_model_docs(flow="trivial", varied=True))
def test_pia_converges_with_rho_nonincreasing_on_random_ctmdps(case, truncated):
    for drawn in (case, truncated):
        _, _, trace = _solve_random_ctmdp(drawn)
        assert trace.status == "converged"
        assert np.all(np.diff(trace.rhos) <= 1e-10), trace.rhos


@PIA_PROPERTY_SETTINGS
@given(case=random_model_docs(flow="trivial"), truncated=random_model_docs(flow="trivial", varied=True))
def test_pia_meets_the_uniformization_oracle_on_random_ctmdps(case, truncated):
    for drawn in (case, truncated):
        model, result, _ = _solve_random_ctmdp(drawn)
        rho_star, _ = uniformization_rvi(*model_arrays(model))
        assert abs(result.rho - rho_star) <= 1e-6


# PIA's answer against every feasible stationary policy: a piece runs at its
# anchor's action, so one state's action enters the kernel row of every state
# upstream on its flow line, and the finite-MDP theorem does not cover the
# discrete problem directly

def _least_rho(model, ws) -> float:
    """The least rho of every feasible (interior, boundary) policy, each by the bordered solve on ``ws``."""
    n, grid = model.n_states, model.action_grid
    least = np.inf
    for actions in itertools.product(*grid.feasible, *grid.boundary_feasible):
        policy = pa.FeedbackPolicy(interior=np.array(actions[:n], dtype=np.int64),
                                   boundary=np.array(actions[n:], dtype=np.int64))
        least = min(least, pa.evaluate_policy(model, policy, workspace=ws).rho)
    return least


def _assert_pia_is_the_best_policy(model, result, trace, least) -> None:
    assert result.rho <= least + 1e-12 * max(1.0, abs(result.rho)), (result.rho, least)
    if trace.status == "converged":
        assert trace.records[-1].optimality_residual <= 1e-7, trace.records[-1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=random_model_docs(), varied=random_model_docs(varied=True))
def test_pia_beats_every_feasible_policy(case, varied):
    # every line of ``case`` hits the boundary; ``varied`` draws the grid,
    # the direction and a horizon, so some lines stop at t_max
    for doc, fill, seed in (case, varied):
        model = pa.model_from_dict(doc)
        ws = pa.OperatorWorkspace(model, fill)
        result, _, trace = pa.run_pia(model, random_feasible(model, np.random.default_rng(seed)),
                                      workspace=ws)
        _assert_pia_is_the_best_policy(model, result, trace, _least_rho(model, ws))


@pytest.mark.parametrize("name", ["ctmdp_2state", "ctmdp_3state", "renewal_cycle"])
def test_pia_beats_every_feasible_policy_of_the_small_bundled_models(models, workspaces, solved, name):
    result, _, trace = solved[name]
    _assert_pia_is_the_best_policy(models[name], result, trace, _least_rho(models[name], workspaces[name]))


# a sweep: several starts solved on one workspace, as the benchmark's start
# sweeps and a user's restarts run them, reusing each other's cached steps

def _pia_outcome(model, u0, ws):
    """What a run shows: its trace record for record, its policy, rho, h and nu, or what it raised."""
    try:
        result, policy, trace = pa.run_pia(model, u0, workspace=ws)
    except Exception as exc:  # a raising run must raise the same on a fresh workspace
        return type(exc), str(exc)
    # astuple keeps the float objects, so the first record's nan delta_h
    # compares equal by identity within the tuple
    return (trace.status, trace.reason, [dataclasses.astuple(r) for r in trace.records], policy.key(),
            result.rho, result.h.tolist(), result.nu.tolist())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=random_model_docs(varied=True), starts=st.integers(3, 5))
def test_a_sweep_on_one_workspace_runs_as_on_fresh_workspaces(case, starts):
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    rng = np.random.default_rng(seed)
    shared = pa.OperatorWorkspace(model, fill)
    for _ in range(starts):
        u0 = random_feasible(model, rng)
        assert _pia_outcome(model, u0, shared) == _pia_outcome(model, u0, pa.OperatorWorkspace(model, fill))


class TestStepCache:
    def test_a_later_run_reuses_the_step_and_its_arrays_are_read_only(self, models):
        model = models["drift_boundary_64"]
        ws = pa.OperatorWorkspace(model, 16)
        u0 = random_feasible(model, np.random.default_rng(11))
        first, policy, trace = pa.run_pia(model, u0, workspace=ws)
        assert len(trace.records) > 1
        again, _, _ = pa.run_pia(model, u0, workspace=ws)
        assert again is first
        steps = [v for k, v in ws._assembled.items() if k[0] == "pia-step"]
        assert len(steps) == len(trace.records)
        for _, h, _, improved, _ in steps:
            for array in (h, improved.interior, improved.boundary, first.h, first.nu):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
        with pytest.raises(ValueError, match="read-only"):
            policy.interior[0] = 0

    @pytest.mark.parametrize("where", ["evaluation", "pass", "measure"])
    def test_a_step_that_raises_is_not_kept(self, models, monkeypatch, where):
        model = models["ctmdp_3state"]
        ws = pa.OperatorWorkspace(model, 16)
        u0 = pa.FeedbackPolicy.lowest_feasible(model)

        def fail(*args, **kwargs):
            raise pa.EvaluationError("refused for the test")

        with monkeypatch.context() as patch:
            if where == "evaluation":
                patch.setattr(pa.policy_iteration, "_bias", fail)
            elif where == "pass":
                patch.setattr(ws, "improve_and_certify", fail)
            else:
                patch.setattr(pa.policy_iteration, "_measured", fail)
            with pytest.raises(pa.EvaluationError, match="refused for the test"):
                pa.run_pia(model, u0, workspace=ws)
        if where == "measure":
            # the steps stand; the result that raised is not kept
            assert not [k for k in ws._assembled if k[0] == "pia-result"]
        else:
            # at most the operators the evaluation assembled on the way
            assert set(ws._assembled) <= {(u0.key(), 0.0)}
        _, _, trace = pa.run_pia(model, u0, workspace=ws)
        assert trace.status == "converged"


def test_a_sweep_solves_once_per_distinct_step_and_final_policy(models, monkeypatch):
    # the loop's one solve is the (n+1)-square bordered system; only a final
    # policy's nu is an n-square stationarity solve, and only u0 is checked
    model = models["drift_boundary_64"]
    n = model.n_states
    ws = pa.OperatorWorkspace(model, 16)
    ws.assemble(pa.FeedbackPolicy.lowest_feasible(model))  # the tables, before the counting starts
    solves = collections.Counter()
    entries = []
    solve, check = np.linalg.solve, pa.policy_iteration.check_entry

    def counted_solve(a, b):
        solves[a.shape[0]] += 1
        return solve(a, b)

    def counted_check(*args):
        entries.append(args[1])
        return check(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    for module in (pa.policy_iteration, pa.evaluation):
        monkeypatch.setattr(module, "check_entry", counted_check)
    rng = np.random.default_rng(12)
    starts = [random_feasible(model, rng) for _ in range(6)]
    finals, records = set(), 0
    for u0 in starts + starts[:2]:  # the repeated starts run from the cache
        _, policy, trace = pa.run_pia(model, u0, workspace=ws)
        finals.add(policy.key())
        records += len(trace.records)
    steps = [k for k in ws._assembled if k[0] == "pia-step"]
    assert {k for k in ws._assembled if k[0] == "pia-result"} == {("pia-result", key) for key in finals}
    assert solves == {n + 1: len(steps), n: len(finals)}
    assert len(steps) < records
    runs = starts + starts[:2]
    assert len(entries) == len(runs) and all(seen is u0 for seen, u0 in zip(entries, runs))
