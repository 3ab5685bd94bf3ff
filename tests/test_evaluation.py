import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl import evaluation
from pdmp_avgctl.evaluation import ErgodicityError, KernelMassError, invariant_measure

from oracles import deflated_bias, series_bias
from reference_quadrature import doubled_mesh_residual
from test_operator_properties import random_model_docs
from toy_models import constant_cost_variant, random_feasible, swap_cycle_doc, two_state_jump_doc


class TestInvariantMeasure:
    def test_swap_kernel_is_uniform(self):
        nu = invariant_measure(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(nu, [0.5, 0.5], atol=1e-12)

    def test_two_state_mixing_kernel(self):
        nu = invariant_measure(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert np.allclose(nu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_direct_measure_matches_the_eigenvector_oracle(self):
        # oracle: the left eigenvector of G for the eigenvalue nearest 1
        rng = np.random.default_rng(2)
        kernel = rng.uniform(0.05, 1.0, size=(6, 6))
        kernel /= kernel.sum(axis=1, keepdims=True)
        vals, vecs = np.linalg.eig(kernel.T)
        left = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        assert np.allclose(invariant_measure(kernel), left / left.sum(), rtol=0.0, atol=1e-12)

    def test_reducible_kernel_raises(self):
        with pytest.raises(ErgodicityError, match="subdominant"):
            invariant_measure(np.eye(3))

    def test_two_block_reducible_kernel_raises_above_the_old_svd_limit(self):
        # two closed classes of 150 states each: a stationary row exists for
        # every mixture of the blocks, so no unique nu
        rng = np.random.default_rng(5)
        kernel = np.zeros((300, 300))
        for lo in (0, 150):
            block = rng.uniform(0.0, 1.0, size=(150, 150))
            kernel[lo:lo + 150, lo:lo + 150] = block / block.sum(axis=1, keepdims=True)
        with pytest.raises(ErgodicityError, match="more than one closed communicating class, so "
                                                  "eigenvalue 1 repeats; subdominant eigenvalue modulus: 1"):
            invariant_measure(kernel)

    def test_transient_states_leave_the_measure_unique(self):
        # 300 states: 0..149 feed a closed cycle 150..299; only the cycle carries mass
        n = 300
        kernel = np.zeros((n, n))
        kernel[np.arange(149), np.arange(1, 150)] = 0.5
        kernel[np.arange(149), 150] = 0.5
        kernel[149, 150] = 1.0
        kernel[np.arange(150, n), np.roll(np.arange(150, n), -1)] = 0.5
        kernel[np.arange(150, n), np.arange(150, n)] = 0.5
        nu = invariant_measure(kernel)
        assert np.max(np.abs(nu[:150])) <= 1e-12
        assert np.allclose(nu[150:], 1.0 / 150, atol=1e-10)

    def test_closed_class_found_from_a_transient_start(self):
        # the walk from a transient state down to the closed class, then back up
        from pdmp_avgctl.evaluation import _one_closed_class

        adj = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=bool)
        assert _one_closed_class(adj, 0)
        adj[1, 0] = True  # 0 <-> 1 now a class that still leaks into {2, 3}
        assert _one_closed_class(adj, 0)
        adj[0, 0], adj[0, 1], adj[1, 2] = True, False, False  # {0} closed as well as {2, 3}
        assert not _one_closed_class(adj, 1)
        assert not _one_closed_class(adj, 3)

    def test_slowly_mixing_600_state_kernel_is_solved_directly(self):
        # G = theta I + (1 - theta) 1 pi' has invariant row pi and subdominant
        # eigenvalue theta, so a power iteration would need thousands of steps
        n, theta = 600, 0.999
        pi = np.random.default_rng(7).uniform(0.5, 1.5, n)
        pi /= pi.sum()
        kernel = theta * np.eye(n) + (1.0 - theta) * np.outer(np.ones(n), pi)
        assert np.max(np.abs(invariant_measure(kernel) - pi)) <= 1e-12

    def test_failed_stationarity_step_names_its_size(self, monkeypatch):
        monkeypatch.setattr(evaluation, "STATIONARY_TOL", -1.0)
        with pytest.raises(ErgodicityError, match=r"one step nu <- nu G moves it by \S+ in l1, above -1e\+00"):
            invariant_measure(np.array([[0.5, 0.5], [0.25, 0.75]]))

    def test_substochastic_input_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            invariant_measure(np.array([[0.5, 0.3], [0.2, 0.8]]))


def _closed_class_count(adj: np.ndarray) -> int:
    """Closed communicating classes of the graph ``adj``, from its reflexive transitive closure."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        wider = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
        if np.array_equal(wider, reach):
            break
        reach = wider
    mutual = reach & reach.T
    # i's class is closed when everything i reaches reaches i back
    return len({tuple(mutual[i]) for i in range(adj.shape[0]) if not (reach[i] & ~mutual[i]).any()})


@st.composite
def sparse_kernels(draw):
    n = draw(st.integers(2, 12))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    mask = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n) < density
    mask |= np.eye(n, dtype=bool) & ~mask.any(axis=1, keepdims=True)  # an empty row stays put
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    kernel = np.where(mask, weights, 0.0)
    return kernel / kernel.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel=sparse_kernels())
def test_invariant_measure_exists_exactly_when_one_class_is_closed(kernel):
    if _closed_class_count(kernel > 0.0) > 1:
        with pytest.raises(ErgodicityError, match="more than one closed communicating class"):
            invariant_measure(kernel)
        return
    nu = invariant_measure(kernel)
    assert np.all(nu >= 0.0)
    assert nu.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(nu @ kernel - nu).sum() <= 1e-13


@st.composite
def supports(draw):
    """A random boolean support on n <= 12 states with no empty row, and one of its columns made full half the time."""
    n = draw(st.integers(1, 12))
    bits = (1 << n * n) - 1
    for _ in range(draw(st.integers(1, 3))):  # each random mask halves the density
        bits &= draw(st.integers(0, (1 << n * n) - 1))
    adj = np.array([bits >> k & 1 for k in range(n * n)], dtype=bool).reshape(n, n)
    if draw(st.booleans()):
        adj[:, draw(st.integers(0, n - 1))] = True
    adj[~adj.any(axis=1), draw(st.integers(0, n - 1))] = True
    return adj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adj=supports())
def test_the_one_step_doeblin_test_accepts_only_one_closed_class(adj):
    # whenever the shortcut accepts a kernel on this support, the walk finds
    # one closed class too, from every start
    kernel = adj / adj.sum(axis=1, keepdims=True)
    if evaluation._one_step_doeblin(kernel):
        assert all(evaluation._one_closed_class(adj, s) for s in range(adj.shape[0]))
        assert _closed_class_count(adj) == 1
    else:
        assert not adj.all(axis=0).any()


def test_a_kernel_with_a_positive_column_walks_no_graph(monkeypatch):
    reach = evaluation._reach
    calls = []

    def counted(adj, start):
        calls.append(start)
        return reach(adj, start)

    monkeypatch.setattr(evaluation, "_reach", counted)
    # a cycle that also jumps to state 2 from every state, so column 2 is positive
    n = 16
    kernel = np.zeros((n, n))
    kernel[np.arange(n), (np.arange(n) + 1) % n] = 0.5
    kernel[:, 2] += 0.5
    nu = invariant_measure(kernel)
    assert calls == [] and np.abs(nu @ kernel - nu).sum() <= 1e-13
    # the same cycle without the jump has no positive column, so its graph is walked
    kernel[:, 2] -= 0.5
    kernel[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    invariant_measure(kernel)
    assert calls


class TestEvaluatePolicy:
    def test_two_state_cycle_closed_form(self):
        # swap chain: time-weighted cycle average (f1/l1 + f2/l2)/(1/l1 + 1/l2)
        model = pa.model_from_dict(swap_cycle_doc(lam=(1.0, 2.0), f=(3.0, 5.0)))
        res = pa.evaluate_policy(model, pa.FeedbackPolicy.lowest_feasible(model))
        assert res.rho == pytest.approx(11.0 / 3.0, abs=1e-9)
        assert np.allclose(res.h, [-1.0 / 3.0, 1.0 / 3.0], atol=1e-9)
        assert np.allclose(res.nu, [0.5, 0.5], atol=1e-10)

    def test_constant_cost_forces_rho_c0_and_flat_bias(self, models):
        for name, model in models.items():
            doc = constant_cost_variant(
                __import__("json").loads(pa.bundled_model_path(name).read_text()), 1.3
            )
            const_model = pa.model_from_dict(doc)
            res = pa.evaluate_policy(const_model, pa.FeedbackPolicy.lowest_feasible(const_model))
            assert res.rho == pytest.approx(1.3, abs=1e-10), name
            assert np.max(np.abs(res.h)) <= 1e-10, name

    def test_shift_covariance(self, models, workspaces):
        import json

        name = "ctmdp_3state"
        base_doc = json.loads(pa.bundled_model_path(name).read_text())
        base = pa.model_from_dict(base_doc)
        policy = pa.FeedbackPolicy.lowest_feasible(base)
        res0 = pa.evaluate_policy(base, policy)
        beta = 0.9
        shifted_doc = json.loads(pa.bundled_model_path(name).read_text())
        shifted_doc["costs"]["running"] = [[v + beta for v in row]
                                           for row in shifted_doc["costs"]["running"]]
        shifted = pa.model_from_dict(shifted_doc)
        res1 = pa.evaluate_policy(shifted, policy)
        assert res1.rho - res0.rho == pytest.approx(beta, abs=1e-9)
        assert np.max(np.abs(res1.h - res0.h)) <= 1e-9

    def test_nu_h_is_zero(self, models, workspaces, solved):
        for name in models:
            result = solved[name][0]
            assert abs(float(result.nu @ result.h)) <= 1e-8, name

    def test_d_in_range_and_rho_nonnegative(self, models, solved):
        for name, model in models.items():
            result = solved[name][0]
            assert 0.0 < result.D <= model.constants.K_lambda + 1e-9, name
            assert result.rho >= 0.0, name

    def test_series_and_direct_agree(self, models, workspaces):
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            direct = pa.evaluate_policy(model, policy, workspace=workspaces[name])
            rho, h = series_bias(model, policy, workspaces[name])
            assert np.max(np.abs(direct.h - h)) <= 1e-6, name
            assert rho == pytest.approx(direct.rho, abs=1e-10)

    def test_uniqueness_across_methods_and_restarts(self, models, workspaces):
        # the solution should not depend on how the linear algebra is seeded
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        tol = 1e-8
        direct = pa.evaluate_policy(model, policy, tol, workspace=workspaces["ctmdp_2state"])
        rho, h = series_bias(model, policy, workspaces["ctmdp_2state"], tol)
        assert abs(rho - direct.rho) <= 10 * tol
        assert np.max(np.abs(h - direct.h)) <= 10 * tol * 100

    def test_gnorm_bound_with_audited_constants(self, models, workspaces, solved):
        for name, model in models.items():
            result, policy, _ = solved[name]
            report = pa.audit_assumptions(model, policy, workspace=workspaces[name])
            c = model.constants
            m_u = max(result.rho * c.K_lambda, c.M * (1.0 + c.b * c.K_lambda) / c.c)
            bound = report.a_estimate * m_u / (1.0 - report.kappa_estimate)
            assert np.max(np.abs(result.h) / model.lyapunov_g) <= bound * 1.1, name

    def test_infeasible_policy_rejected(self, models):
        model = models["ctmdp_2state"]
        bad = pa.FeedbackPolicy(interior=np.array([3, 3]), boundary=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="infeasible"):
            pa.evaluate_policy(model, bad)


def assert_matches_the_deflated_oracle(result, workspace, policy):
    """rho within 1e-13 relative, and the nu-normalised h within 1e-10, of :func:`deflated_bias`."""
    rho, h = deflated_bias(workspace, policy)
    assert abs(result.rho - rho) <= 1e-13 * abs(rho), (result.rho, rho)
    assert np.max(np.abs(result.h - h)) <= 1e-10


class TestBorderedSolve:
    def test_bundled_evaluations_match_the_deflated_oracle(self, models, workspaces, solved):
        for name, model in models.items():
            ws = workspaces[name]
            result, optimal, _ = solved[name]
            assert_matches_the_deflated_oracle(result, ws, optimal)
            for policy in (pa.FeedbackPolicy.lowest_feasible(model), optimal):
                assert_matches_the_deflated_oracle(pa.evaluate_policy(model, policy, workspace=ws), ws, policy)

    def test_pinned_and_returned_bias_differ_by_a_constant(self, models, workspaces, solved):
        # the loop's h is pinned to 0 at PIN_STATE; the returned one has nu(h) = 0
        for name, model in models.items():
            result, policy, _ = solved[name]
            kernel, ell, cost = workspaces[name].assemble(policy)
            rho, pinned, _ = evaluation._bias(kernel, ell, cost, 1e-8)
            assert pinned[evaluation.PIN_STATE] == pytest.approx(0.0, abs=1e-12)
            assert rho == result.rho
            assert np.max(np.abs(pinned - (result.h - result.h[evaluation.PIN_STATE]))) <= 1e-10, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=random_model_docs(varied=True))
def test_the_bordered_solve_matches_the_deflated_oracle_on_random_models(case):
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = pa.OperatorWorkspace(model, fill)
    u0 = random_feasible(model, np.random.default_rng(seed))
    try:
        result = pa.evaluate_policy(model, u0, workspace=ws)
    except (ErgodicityError, KernelMassError) as exc:
        # the oracle's nu refuses the kernel with the same check
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            deflated_bias(ws, u0)
        return
    assert_matches_the_deflated_oracle(result, ws, u0)
    final, policy, _ = pa.run_pia(model, u0, workspace=ws)
    assert_matches_the_deflated_oracle(final, ws, policy)


class TestResidual:
    def test_constant_cost_exact_solution(self, write_model):
        doc = constant_cost_variant(two_state_jump_doc(), 2.0)
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        res = pa.evaluate_policy(model, policy)
        assert doubled_mesh_residual(model, policy, res) <= 1e-10

    def test_perturbed_bias_is_detected(self, models, workspaces):
        model = models["ctmdp_2state"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        res = pa.evaluate_policy(model, policy, workspace=workspaces["ctmdp_2state"])
        h_bad = res.h.copy()
        h_bad[0] += 0.01
        bad = pa.EvaluationResult(rho=res.rho, h=h_bad, nu=res.nu, D=res.D,
                                  residual=res.residual, stats=res.stats)
        assert doubled_mesh_residual(model, policy, bad) >= 0.005

    def test_converged_solutions_survive_mesh_doubling(self, models, workspaces, solved):
        for name, model in models.items():
            result, policy, _ = solved[name]
            assert doubled_mesh_residual(model, policy, result) <= 1e-8, name

    def test_result_serializes(self, solved):
        import json

        payload = solved["ctmdp_2state"][0].to_dict()
        json.dumps(payload)
        assert set(payload) >= {"rho", "D", "residual", "nu", "h", "method", "iterations"}
