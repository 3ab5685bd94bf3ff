"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the assertions.
"""

import json
import time

import numpy as np
import pytest

import pdmp_avgctl as pa

from oracles import model_arrays, series_bias, uniformization_rvi
from toy_models import constant_cost_variant, random_feasible


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_01_kernel_mass_identity(models):
    """Rows of the embedded kernel sum to 1 within 1e-6 for feasible policies."""
    worst = 0.0
    for name, model in models.items():
        rng = np.random.default_rng(1001)
        policies = [pa.FeedbackPolicy.lowest_feasible(model)]
        policies += [random_feasible(model, rng) for _ in range(5)]
        start = time.perf_counter()
        ws = pa.OperatorWorkspace(model)  # default mesh; the identity is structural
        for policy in policies:
            kernel = ws.assemble(policy)[0]
            dev = float(np.max(np.abs(kernel.sum(axis=1) - 1.0)))
            worst = max(worst, dev)
            assert dev <= 1e-6, (name, dev)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{name}: kernel assembly took {elapsed:.2f}s"
    report("criterion 1 (kernel mass identity)", f"max |rowsum-1| = {worst:.3e}")


def test_criterion_02_pseudo_poisson_exactness(models, workspaces):
    """Direct solve residual <= 1e-8; series agrees <= 1e-6; nu(h) = 0 <= 1e-8."""
    worst_res, worst_gap, worst_nuh = 0.0, 0.0, 0.0
    for name, model in models.items():
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        direct = pa.evaluate_policy(model, policy, 1e-8, workspace=workspaces[name])
        _, series_h = series_bias(model, policy, workspaces[name], 1e-8)
        gap = float(np.max(np.abs(direct.h - series_h)))
        nuh = abs(float(direct.nu @ direct.h))
        assert direct.residual <= 1e-8, name
        assert gap <= 1e-6, (name, gap)
        assert nuh <= 1e-8, name
        worst_res = max(worst_res, direct.residual)
        worst_gap = max(worst_gap, gap)
        worst_nuh = max(worst_nuh, nuh)
    report("criterion 2 (pseudo-Poisson exactness)",
           f"residual {worst_res:.2e}, series gap {worst_gap:.2e}, nu(h) {worst_nuh:.2e}")


def test_criterion_03_constant_cost_identity(models):
    """f == c0, r == 0 forces rho = c0 (1e-10) and flat bias."""
    c0 = 1.3
    worst_rho, worst_h = 0.0, 0.0
    for name in models:
        doc = constant_cost_variant(json.loads(pa.bundled_model_path(name).read_text()), c0)
        model = pa.model_from_dict(doc)
        res = pa.evaluate_policy(model, pa.FeedbackPolicy.lowest_feasible(model))
        worst_rho = max(worst_rho, abs(res.rho - c0))
        worst_h = max(worst_h, float(np.max(np.abs(res.h))))
        assert abs(res.rho - c0) <= 1e-10, name
        assert np.max(np.abs(res.h)) <= 1e-10, name
    report("criterion 3 (constant-cost identity)",
           f"|rho-c0| <= {worst_rho:.2e}, sup|h| <= {worst_h:.2e}")


def test_criterion_04_monotone_pia(models, workspaces):
    """10 random starts per model: rho non-increasing (1e-7), policy-identity stop."""
    total_runs = 0
    for name, model in models.items():
        rng = np.random.default_rng(2024)
        for _ in range(10):
            u0 = random_feasible(model, rng)
            _, _, trace = pa.run_pia(model, u0, max_iter=200, workspace=workspaces[name])
            rhos = trace.rhos
            assert np.all(np.diff(rhos) <= 1e-7), (name, rhos)
            assert trace.status == "converged", name
            assert trace.reason == "policy-identity", name
            assert len(trace.records) <= 200
            total_runs += 1
    report("criterion 4 (monotone PIA)", f"{total_runs} runs, all policy-identity stops")


def test_criterion_05_ctmdp_oracle_equivalence(models, workspaces):
    """Trivial-flow solves match uniformization + RVI within 1e-6."""
    start = time.perf_counter()
    gaps = []
    for name in ("ctmdp_2state", "ctmdp_3state"):
        model = models[name]
        u0 = pa.FeedbackPolicy.lowest_feasible(model)
        result, policy, _ = pa.run_pia(model, u0, workspace=workspaces[name])
        rho_star, policy_star = uniformization_rvi(*model_arrays(model))
        assert abs(result.rho - rho_star) <= 1e-6, name
        assert policy.interior.tolist() == policy_star.tolist(), name
        gaps.append(abs(result.rho - rho_star))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"
    report("criterion 5 (CTMDP oracle equivalence)",
           f"max |rho - oracle| = {max(gaps):.2e}, {elapsed:.2f}s")


def test_criterion_06_optimality_certificate(models, workspaces, solved):
    """Converged (rho, h) has optimality residual <= 1e-7 everywhere."""
    worst = -np.inf
    for name, model in models.items():
        result, policy, _ = solved[name]
        _, res = workspaces[name].improve_and_certify(result.rho, result.h, policy)
        assert res <= 1e-7, (name, res)
        worst = max(worst, res)
    report("criterion 6 (optimality certificate)", f"max residual = {worst:.2e}")


def test_criterion_07_monte_carlo_agreement(models, workspaces, solved):
    """PIA-optimal policy simulated at horizon 1e4 x 32 reps within 3 SE."""
    details = []
    for name, model in models.items():
        result, policy, _ = solved[name]
        start = time.perf_counter()
        verdict = pa.mc_validate(model, policy, result.rho, 0, 1e4, 32, seed=424242,
                                 workspace=workspaces[name])
        elapsed = time.perf_counter() - start
        assert verdict.passed, (name, verdict.pooled_mean, verdict.rho, verdict.pooled_se)
        assert elapsed < 60.0, f"{name}: simulation took {elapsed:.1f}s"
        details.append(f"{name} {elapsed:.1f}s")
    report("criterion 7 (Monte Carlo agreement)", "; ".join(details))


def test_criterion_08_deterministic_renewal(models, workspaces, solved):
    """Boundary-cycle model: solver and simulation equal the boundary charge."""
    model = models["renewal_cycle"]
    r0 = float(model.boundary_cost[0, 0])
    result, policy, _ = solved["renewal_cycle"]
    assert abs(result.rho - r0) <= 1e-6
    horizon = 1e4
    _, summary = pa.simulate(model, policy, 0, horizon, seed=7,
                             tables=pa.prepare_simulation(model, policy,
                                                          workspace=workspaces["renewal_cycle"]))
    assert abs(summary.average - r0) <= r0 / horizon + 1e-12
    report("criterion 8 (deterministic renewal)",
           f"|rho-r0| = {abs(result.rho - r0):.2e}, |sim-r0| = {abs(summary.average - r0):.2e}")


def test_criterion_09_norm_and_bound_suite(models, workspaces):
    """D in (0, K_lambda]; calL <= K_lambda; costs under the growth envelope;
    g-norm of every iterate bounded by the audited constants (+10%)."""
    for name, model in models.items():
        ws = workspaces[name]
        c = model.constants
        u0 = pa.FeedbackPolicy.lowest_feasible(model)
        res0 = pa.evaluate_policy(model, u0, workspace=ws)
        report_u0 = pa.audit_assumptions(model, u0, workspace=ws)
        envelope = c.M * (1.0 + c.b * c.K_lambda) / c.c * model.lyapunov_g
        rng = np.random.default_rng(31415)
        for _ in range(3):
            policy = random_feasible(model, rng)
            _, ell, cost = ws.assemble(policy, 0.0)
            assert np.all(ell > 0.0) and np.all(ell <= c.K_lambda + 1e-9), name
            assert np.all(cost >= -1e-12) and np.all(cost <= envelope + 1e-9), name
            res = pa.evaluate_policy(model, policy, workspace=ws)
            assert 0.0 < res.D <= c.K_lambda + 1e-9, name
        m_u0 = max(res0.rho * c.K_lambda, c.M * (1.0 + c.b * c.K_lambda) / c.c)
        bound = report_u0.a_estimate * m_u0 / (1.0 - report_u0.kappa_estimate)
        _, _, trace = pa.run_pia(model, u0, workspace=ws)
        for rec in trace.records:
            assert rec.h_gnorm <= bound * 1.1, (name, rec.n, rec.h_gnorm, bound)
    report("criterion 9 (norm and bound suite)", "all bounds hold with audited constants")


def test_criterion_10_quadrature_convergence(models, workspaces):
    """Doubling the mesh fill moves rho by at most 1e-7."""
    worst = 0.0
    for name, model in models.items():
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        fill = workspaces[name].fill
        coarse = pa.evaluate_policy(model, policy, workspace=workspaces[name])
        fine_ws = pa.OperatorWorkspace(model, fill * 2)
        fine = pa.evaluate_policy(model, policy, workspace=fine_ws)
        shift = abs(fine.rho - coarse.rho)
        assert shift <= 1e-7, (name, shift)
        worst = max(worst, shift)
    report("criterion 10 (quadrature convergence)", f"max rho shift = {worst:.2e}")
