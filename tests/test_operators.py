import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl.numerics import phi0, phi01, phi1
from pdmp_avgctl.operators import (MIN_TAIL_INTERVALS, REFINE_TARGET, TIE_TOL, OperatorWorkspace, _passage_time,
                                   _reference_transit, kernel_matrix)

from conftest import BUNDLED
from reference_quadrature import (build_policy_path, cum_rate, op_G, op_H, op_L, op_calL, policy_paths,
                                  reference_assemble)
from toy_models import dominated_toy_doc, renewal_doc, swap_cycle_doc


def path_for(model, state_index=0, policy=None, fill=32):
    policy = policy if policy is not None else pa.FeedbackPolicy.lowest_feasible(model)
    return build_policy_path(model, policy, state_index, fill=fill)


@pytest.fixture(scope="module")
def trivial_rate2(tmp_path_factory):
    doc = swap_cycle_doc(lam=(2.0, 2.0))
    return pa.model_from_dict(doc)


@pytest.fixture(scope="module")
def drift_rate_linear():
    # unit drift on [0, 1), jump rate equal to the position
    doc = renewal_doc()
    n = len(doc["grid"]["points"])
    doc["rates"]["lambda"] = [[x] for x in doc["grid"]["points"]] + [[1.0]]
    return pa.model_from_dict(doc)


@pytest.fixture(scope="module")
def drift_rate_one():
    doc = renewal_doc()
    n = len(doc["grid"]["points"])
    doc["rates"]["lambda"] = [[1.0]] * (n + 1)
    doc["constants"]["K_lambda"] = 3.0
    return pa.model_from_dict(doc)


class TestCumRate:
    def test_zero_time(self, trivial_rate2):
        assert cum_rate(path_for(trivial_rate2), 0.0) == 0.0

    def test_constant_rate(self, trivial_rate2):
        path = path_for(trivial_rate2)
        assert cum_rate(path, 3.0) == pytest.approx(6.0, abs=1e-10)

    def test_linear_rate_along_drift(self, drift_rate_linear):
        path = path_for(drift_rate_linear, state_index=0)
        # integral of s over [0, 1]
        assert cum_rate(path, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_t(self, drift_rate_linear):
        path = path_for(drift_rate_linear, state_index=0)
        ts = np.linspace(0.0, path.end_time, 40)
        vals = [cum_rate(path, t) for t in ts]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_out_of_range_rejected(self, trivial_rate2):
        path = path_for(trivial_rate2)
        with pytest.raises(ValueError):
            cum_rate(path, path.end_time * 1.5)


class TestOpL:
    def test_zero_integrand(self, trivial_rate2):
        v = np.zeros((2, 1))
        assert op_L(0.0, v, path_for(trivial_rate2)) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_trivial_flow_closed_form(self, trivial_rate2, alpha):
        v = np.ones((2, 1))
        got = op_L(alpha, v, path_for(trivial_rate2))
        assert got == pytest.approx(1.0 / (alpha + 2.0), abs=1e-8)

    def test_no_rate_reduces_to_transit_time(self):
        model = pa.model_from_dict(renewal_doc())
        v = np.ones((model.n_states, 1))
        got = op_L(0.0, v, path_for(model, state_index=4))  # x = 0.25
        assert got == pytest.approx(0.75, abs=1e-10)

    def test_linearity(self, drift_rate_one):
        rng = np.random.default_rng(3)
        path = path_for(drift_rate_one, state_index=2)
        v1 = rng.uniform(0.0, 2.0, size=(drift_rate_one.n_states, 1))
        v2 = rng.uniform(0.0, 2.0, size=(drift_rate_one.n_states, 1))
        a, b = 1.7, -0.4
        combo = op_L(0.0, a * v1 + b * v2, path)
        parts = a * op_L(0.0, v1, path) + b * op_L(0.0, v2, path)
        assert combo == pytest.approx(parts, rel=1e-12)


class TestOpCalL:
    def test_trivial_flow(self, trivial_rate2):
        assert op_calL(0.0, path_for(trivial_rate2)) == pytest.approx(0.5, abs=1e-8)

    def test_zero_rate_is_transit_time(self):
        model = pa.model_from_dict(renewal_doc())
        assert op_calL(0.0, path_for(model, state_index=8)) == pytest.approx(0.5, abs=1e-12)

    def test_bounded_by_k_lambda(self, models, workspaces):
        for name, model in models.items():
            rng = np.random.default_rng(11)
            for _ in range(3):
                policy = pa.FeedbackPolicy.random_feasible(model, rng)
                for j in range(model.n_states):
                    path = build_policy_path(model, policy, j, workspace=workspaces[name])
                    for alpha in (0.0, -model.constants.c):
                        val = op_calL(alpha, path)
                        assert 0.0 < val <= model.constants.K_lambda + 1e-9, (name, j, alpha)

    def test_alpha_below_minus_c_rejected(self, trivial_rate2):
        with pytest.raises(ValueError):
            op_calL(-trivial_rate2.constants.c - 0.1, path_for(trivial_rate2))


class TestOpH:
    def test_trivial_flow_gives_zero(self, trivial_rate2):
        w = np.full((0, 1), 9.9)
        assert op_H(0.0, w, path_for(trivial_rate2)) == 0.0

    def test_zero_rate_boundary_weight(self):
        model = pa.model_from_dict(renewal_doc())
        w = np.full((1, 1), 3.0)
        assert op_H(0.0, w, path_for(model, state_index=4)) == pytest.approx(3.0, abs=1e-12)

    def test_unit_rate_discounts_by_survival(self, drift_rate_one):
        w = np.full((1, 1), 3.0)
        got = op_H(0.0, w, path_for(drift_rate_one, state_index=4))
        assert got == pytest.approx(3.0 * math.exp(-0.75), abs=1e-8)


class TestOpG:
    def test_mass_identity(self, models, workspaces):
        for name, model in models.items():
            ones = np.ones(model.n_states)
            rng = np.random.default_rng(5)
            policy = pa.FeedbackPolicy.random_feasible(model, rng)
            for j in range(model.n_states):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                assert op_G(0.0, ones, path) == pytest.approx(1.0, abs=1e-6), (name, j)

    def test_point_mass_kernel_returns_h_at_target(self, trivial_rate2):
        h = np.array([4.0, -2.5])
        got = op_G(0.0, h, path_for(trivial_rate2, state_index=0))
        assert got == pytest.approx(h[1], abs=1e-9)

    def test_zero_h(self, trivial_rate2):
        assert op_G(0.0, np.zeros(2), path_for(trivial_rate2)) == 0.0

    def test_monotone_in_h(self, models, workspaces):
        rng = np.random.default_rng(17)
        for name in ("ctmdp_3state", "drift_boundary_64"):
            model = models[name]
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            h1 = rng.uniform(-1.0, 1.0, model.n_states)
            h2 = h1 + rng.uniform(0.0, 1.0, model.n_states)
            for j in range(0, model.n_states, 7):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                assert op_G(0.0, h1, path) <= op_G(0.0, h2, path) + 1e-12

    def test_linearity_in_h(self, models, workspaces):
        rng = np.random.default_rng(23)
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        path = build_policy_path(model, policy, 3, workspace=workspaces["decay_flow_16"])
        h1 = rng.normal(size=model.n_states)
        h2 = rng.normal(size=model.n_states)
        combo = op_G(0.0, 0.3 * h1 + 1.9 * h2, path)
        parts = 0.3 * op_G(0.0, h1, path) + 1.9 * op_G(0.0, h2, path)
        assert combo == pytest.approx(parts, rel=1e-10)


class TestKernelMatrix:
    def test_swap_kernel_is_antidiagonal(self, trivial_rate2):
        km = kernel_matrix(trivial_rate2, pa.FeedbackPolicy.lowest_feasible(trivial_rate2))
        assert np.allclose(km.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)

    def test_rows_sum_to_one_at_alpha_zero(self, models, workspaces):
        rng = np.random.default_rng(29)
        for name, model in models.items():
            for _ in range(3):
                policy = pa.FeedbackPolicy.random_feasible(model, rng)
                km = kernel_matrix(model, policy, workspace=workspaces[name])
                assert np.max(np.abs(km.row_sums - 1.0)) <= 1e-6, name

    def test_discounting_shrinks_rows(self, models, workspaces):
        # the library serves alpha = 0 only; the reference quadrature discounts
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            kernel, _, _ = reference_assemble(workspaces[name], policy, alpha=model.constants.c)
            assert np.all(kernel.sum(axis=1) <= 1.0 + 1e-9), name

    def test_matches_op_g_on_unit_vectors(self, models, workspaces):
        rng = np.random.default_rng(41)
        for name, model in models.items():
            ws = workspaces[name]
            policy = pa.FeedbackPolicy.random_feasible(model, rng)
            km = kernel_matrix(model, policy, workspace=ws)
            paths = policy_paths(ws, policy)
            for z in sorted({*range(0, model.n_states, max(1, model.n_states // 8)), model.n_states - 1}):
                e = np.zeros(model.n_states)
                e[z] = 1.0
                want = np.array([op_G(0.0, e, path) for path in paths])
                assert np.max(np.abs(km.matrix[:, z] - want)) <= 1e-12, (name, z)

    def test_truncation_bound_is_the_largest_tail_weight(self, models, workspaces):
        doc = swap_cycle_doc(lam=(2.0, 2.0))
        doc["flow"] = {"kind": "trivial", "t_max": 1.0}
        truncated = pa.model_from_dict(doc)
        cases = [(truncated, OperatorWorkspace(truncated, 16))]
        cases += [(models[name], workspaces[name]) for name in BUNDLED]
        for model, ws in cases:
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            want = max(path.tail_weight(0.0) for path in policy_paths(ws, policy))
            got = kernel_matrix(model, policy, workspace=ws).truncation_bound
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), model.name
        # rate 2 up to the horizon t_max = 1
        policy = pa.FeedbackPolicy.lowest_feasible(truncated)
        assert kernel_matrix(truncated, policy).truncation_bound == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_assemble_serves_zero_discount_only(self, models, workspaces):
        model = models["decay_flow_16"]
        with pytest.raises(ValueError, match="alpha"):
            workspaces["decay_flow_16"].assemble(pa.FeedbackPolicy.lowest_feasible(model), 0.3)


class TestAssembleFromTables:
    def test_matches_the_per_path_quadrature_on_bundled(self, models, workspaces):
        rng = np.random.default_rng(43)
        for name, model in models.items():
            ws = workspaces[name]
            for _ in range(5):
                policy = pa.FeedbackPolicy.random_feasible(model, rng)
                kernel, ell, cost, survival = ws.assemble(policy)
                ref_kernel, ref_ell, ref_cost = reference_assemble(ws, policy)
                assert np.max(np.abs(kernel - ref_kernel)) <= 1e-12, name
                assert np.max(np.abs(ell - ref_ell)) <= 1e-12, name
                assert np.max(np.abs(cost - ref_cost)) <= 1e-12, name
                ends = np.array([path.cum_hazard[-1] for path in policy_paths(ws, policy)])
                assert np.max(np.abs(survival - np.exp(-ends))) <= 1e-12, name

    def test_assembling_builds_no_policy_paths(self, models):
        # policy paths live only in the test reference: neither the operators
        # nor the simulator has a path type or builder to fall back on
        from pdmp_avgctl import operators, simulation

        for module in (pa, operators, simulation):
            for name in ("PolicyPath", "_path_from_geometry", "build_policy_path", "sample_sojourn"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(OperatorWorkspace, "policy_paths")
        model = models["drift_boundary_64"]
        ws = OperatorWorkspace(model, 8)
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        kernel, ell, cost, survival = ws.assemble(policy)
        assert kernel.shape == (model.n_states, model.n_states)
        assert ell.shape == cost.shape == survival.shape == (model.n_states,)
        assert len(pa.prepare_simulation(model, policy, workspace=ws).lines) == model.n_states


class TestBoundChain:
    def test_flow_costs_bounded_by_growth_envelope(self, models, workspaces):
        rng = np.random.default_rng(31)
        for name, model in models.items():
            c = model.constants
            envelope = c.M * (1.0 + c.b * c.K_lambda) / c.c * model.lyapunov_g
            for _ in range(3):
                policy = pa.FeedbackPolicy.random_feasible(model, rng)
                _, _, cost, _ = workspaces[name].assemble(policy, 0.0)
                assert np.all(cost >= -1e-12), name
                assert np.all(cost <= envelope + 1e-9), name


class TestTabulatedFlowModels:
    def test_unit_velocity_table_matches_affine_twin(self):
        doc = renewal_doc()
        doc["flow"] = {"kind": "tabulated1d", "velocity": [1.0] * 16}
        m_tab = pa.model_from_dict(doc)
        m_aff = pa.model_from_dict(renewal_doc())
        policy = pa.FeedbackPolicy.lowest_feasible(m_tab)
        ev_tab = pa.evaluate_policy(m_tab, policy)
        ev_aff = pa.evaluate_policy(m_aff, policy)
        assert ev_tab.rho == pytest.approx(ev_aff.rho, abs=1e-12)
        assert np.max(np.abs(ev_tab.h - ev_aff.h)) <= 1e-12

    def test_varying_velocity_solves_and_validates(self):
        doc = renewal_doc()
        doc["flow"] = {"kind": "tabulated1d",
                       "velocity": [1.0 + 0.5 * x for x in doc["grid"]["points"]]}
        doc["rates"]["lambda"] = [[0.4]] * 17
        model = pa.model_from_dict(doc)
        assert pa.validate_model(model) == []
        result, policy, trace = pa.run_pia(model, pa.FeedbackPolicy.lowest_feasible(model))
        assert trace.status == "converged"
        assert pa.residual(model, policy, result) <= 1e-8
        verdict = pa.mc_validate(model, policy, result.rho, 0, 3000.0, 8, seed=11)
        assert verdict.passed


class TestPolicyPath:
    def test_node_actions_feasible(self, models, workspaces):
        rng = np.random.default_rng(37)
        for name, model in models.items():
            policy = pa.FeedbackPolicy.random_feasible(model, rng)
            mask = model.feasible_mask
            for j in range(model.n_states):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                anchors = workspaces[name].geometry[j].seg_anchor
                assert np.all(mask[anchors, path.interval_actions])

    def test_tail_bound_covers_the_neglected_integral(self, trivial_rate2):
        # truncate a constant-rate line early and compare the left-out mass
        # against the advertised bound
        doc = swap_cycle_doc(lam=(2.0, 2.0))
        doc["flow"] = {"kind": "trivial", "t_max": 1.0}
        model = pa.model_from_dict(doc)
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        path = build_policy_path(model, policy, 0, fill=64)
        v = np.ones((2, 1))
        exact_tail = 0.5 - op_L(0.0, v, path)  # full integral is 1/lambda
        bound = path.flow_integral_tail_bound(0.0, 1.0)
        assert 0.0 < exact_tail <= bound * (1.0 + 1e-9)

    def test_truncation_weight_negligible_on_bundled(self, models, workspaces):
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            for j in range(model.n_states):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                assert path.tail_weight(0.0) <= 1e-12, (name, j)


class TestRefinement:
    def test_stopping_short_of_the_target_warns(self, models):
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        with pytest.warns(RuntimeWarning, match=r"stopped at fill 16 \(max_fill 16\) with refine_diff "
                                                r"\S+ above the target 1e-15"):
            ws = pa.refined_workspace(model, policy, target=1e-15, max_fill=16)
        assert ws.fill == 16 and ws.refine_converged is False and ws.refine_diff > 1e-15

    def test_bundled_models_reach_the_target_without_warning(self, models):
        for name, model in models.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ws = pa.refined_workspace(model, pa.FeedbackPolicy.lowest_feasible(model))
            assert ws.refine_converged is True and ws.refine_diff <= REFINE_TARGET, name


class TestLineGeometry:
    @pytest.mark.parametrize("fill", [8, 16])
    def test_mesh_invariants_on_bundled(self, models, fill):
        for name, model in models.items():
            ws = OperatorWorkspace(model, fill)
            points = model.grid.points
            for geom in ws.geometry:
                where = (name, fill, geom.origin_index)
                k_total = geom.dt.size
                starts = [k0 for k0, _, _ in geom.seg_slices]
                ends = [k1 for _, k1, _ in geom.seg_slices]
                assert starts == [0] + ends[:-1] and ends[-1] == k_total, where
                for k0, k1, anchor in geom.seg_slices:
                    assert np.all(geom.seg_anchor[k0:k1] == anchor), where
                assert np.all(np.diff(geom.times) > 0.0), where

                # each segment ends exactly on the next grid passage, the last on t* or t_max
                x = float(points[geom.origin_index])
                anchors = [anchor for _, _, anchor in geom.seg_slices]
                for (_, k1, _), nxt in zip(geom.seg_slices, anchors[1:]):
                    assert geom.times[k1] == _passage_time(model.flow, x, float(points[nxt])), where
                assert geom.times[-1] == (geom.t_star if geom.hit else model.t_max), where
                if geom.truncated:
                    k0, k1, _ = geom.seg_slices[-1]
                    assert k1 - k0 >= max(MIN_TAIL_INTERVALS, fill), where

                expected = np.logical_and.reduce(model.feasible_mask[anchors], axis=0)
                assert np.array_equal(geom.line_feasible, expected), where

    @pytest.mark.parametrize("fill", [8, 16])
    def test_nodes_match_the_per_segment_linspace_reference(self, models, fill):
        # the per-segment loop the vectorized build replaced, kept as reference
        for name, model in models.items():
            ws = OperatorWorkspace(model, fill)
            lam_sup = model.lambda_sup
            ref_transit = _reference_transit(model)
            for geom in ws.geometry:
                for s, (k0, k1, _) in enumerate(geom.seg_slices):
                    t0, t1 = float(geom.times[k0]), float(geom.times[k1])
                    dur = t1 - t0
                    count = int(math.ceil(dur / (0.25 / lam_sup))) if lam_sup > 0.0 else 0
                    if geom.truncated and s == len(geom.seg_slices) - 1:
                        count = max(count, MIN_TAIL_INTERVALS, fill)
                    elif math.isfinite(ref_transit) and dur > 0:
                        count = max(count, int(math.ceil(dur / (ref_transit / fill))))
                    else:
                        count = max(count, fill)
                    count = max(count, 1)
                    assert k1 - k0 == count, (name, fill, geom.origin_index, s)
                    assert np.array_equal(geom.times[k0 : k1 + 1], np.linspace(t0, t1, count + 1)), \
                        (name, fill, geom.origin_index, s)


# -- per-segment one-stage tables ---------------------------------------------
# The per-interval march and frozen-action sweep that the tables replaced, kept
# as references: each re-integrates every segment of every line from the mesh.

def reference_improve(ws, rho, h, prev):
    model = ws.model
    n_a = model.n_actions
    qh_int = model.kernel_interior @ h
    b_act, b_val = ws.boundary_minima(h, prev)
    new_interior = np.empty(model.n_states, dtype=np.int64)
    for geom in ws.geometry:
        qh_nodes = (geom.wlo[:, None] * qh_int[geom.ilo, :]
                    + (1.0 - geom.wlo)[:, None] * qh_int[np.minimum(geom.ilo + 1, model.n_states - 1), :])
        if geom.hit:
            w_next = float(b_val[geom.boundary_index])
        else:
            lam_T = np.maximum(geom.lam_nodes[-1], 1e-12)
            station = (geom.f_nodes[-1] - rho + geom.lam_nodes[-1] * qh_nodes[-1]) / lam_T
            masked = np.where(model.feasible_mask[geom.seg_slices[-1][2]], station, np.inf)
            w_next = float(np.min(masked))
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
    return pa.FeedbackPolicy(interior=new_interior, boundary=b_act)


def reference_sweep_values(ws, rho, h):
    """Per line: the frozen-action one-stage values, or None when no action is feasible."""
    model = ws.model
    qh_int = model.kernel_interior @ h
    _, b_val = ws.boundary_minima(h)
    out = []
    for geom in ws.geometry:
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
        if geom.hit:
            vals = vals + np.exp(-lam_cum[-1]) * b_val[geom.boundary_index]
        out.append(np.where(geom.line_feasible, vals, np.inf))
    return out


def reference_optimality_residual(ws, rho, h):
    return max(float(h[j] - np.min(v)) for j, v in enumerate(reference_sweep_values(ws, rho, h))
               if v is not None)


def random_problem(model, rng):
    """A seeded random (rho, h, incumbent) of the scale PIA produces."""
    rho = float(rng.uniform(0.0, 3.0))
    h = rng.normal(scale=2.0, size=model.n_states)
    return rho, h, pa.FeedbackPolicy.random_feasible(model, rng)


class TestSegmentTables:
    def test_phi01_matches_phi0_and_phi1(self):
        z = np.array([0.0, 1e-9, 5e-5, 9.99e-5, 1e-4, 1e-3, 0.1, 0.5, 1.0, 3.0, 30.0, 800.0])
        p0, p1 = phi01(z)
        assert np.array_equal(p0, phi0(z))
        # phi1 divides a difference of order z by z: a few ulps of 1 over z
        assert np.all(np.abs(p1 - phi1(z)) <= 1e-15 * np.maximum(1.0, 1.0 / np.maximum(z, 1e-300)))

    def test_tables_are_built_on_first_use_only(self, models):
        ws = OperatorWorkspace(models["drift_boundary_64"], 8)
        assert ws._segments is None
        tables = ws.segment_tables()
        assert ws.segment_tables() is tables
        assert len(tables.line_start) == ws.model.n_states + 1
        assert tables.line_start[-1] == sum(len(g.seg_slices) for g in ws.geometry)

    def test_segment_recursion_matches_the_line_integrals(self, models, workspaces):
        # the backward recursion over a line's segments under one frozen
        # action is the whole-line quadrature of the reference sweep
        rng = np.random.default_rng(61)
        for name, model in models.items():
            ws = workspaces[name]
            tables = ws.segment_tables()
            rho, h, _ = random_problem(model, rng)
            values = tables.values(rho, model.kernel_interior @ h)
            _, b_val = ws.boundary_minima(h)
            for geom, ref in zip(ws.geometry, reference_sweep_values(ws, rho, h)):
                if ref is None:
                    continue
                j = geom.origin_index
                w = np.full(model.n_actions, b_val[geom.boundary_index] if geom.hit else 0.0)
                for s in range(tables.line_start[j + 1] - 1, tables.line_start[j] - 1, -1):
                    w = values[s] + tables.survival[s] * w
                ok = np.isfinite(ref)
                assert np.max(np.abs(w[ok] - ref[ok])) <= 1e-12 * max(1.0, np.max(np.abs(ref[ok]))), \
                    (name, j)

    def test_improve_and_residual_match_the_references(self, models, workspaces):
        rng = np.random.default_rng(67)
        for name, model in models.items():
            ws = workspaces[name]
            for _ in range(4):
                rho, h, prev = random_problem(model, rng)
                got = ws.improve(rho, h, prev)
                want = reference_improve(ws, rho, h, prev)
                assert got.key() == want.key(), name
                res = ws.optimality_residual(rho, h, prev)
                assert abs(res - reference_optimality_residual(ws, rho, h)) <= 1e-12, name

    def test_matches_the_references_along_pia_iterates(self, models, workspaces):
        # (rho, h) from real evaluations, with the incumbent as in run_pia
        rng = np.random.default_rng(71)
        for name, model in models.items():
            ws = workspaces[name]
            policy = pa.FeedbackPolicy.random_feasible(model, rng)
            for _ in range(6):
                res = pa.evaluate_policy(model, policy, workspace=ws)
                improved = ws.improve(res.rho, res.h, policy)
                assert improved.key() == reference_improve(ws, res.rho, res.h, policy).key(), name
                assert abs(ws.optimality_residual(res.rho, res.h, policy)
                           - reference_optimality_residual(ws, res.rho, res.h)) <= 1e-12, name
                if improved.key() == policy.key():
                    break
                policy = improved

    @pytest.mark.parametrize("incumbent", [[0, 0], [0, 1], [1, 0], [1, 1]])
    def test_exact_ties_keep_the_incumbent(self, incumbent):
        # gap 0: the two actions are identical, so every comparison is a tie
        model = pa.model_from_dict(dominated_toy_doc(gap=0.0))
        ws = OperatorWorkspace(model, 16)
        prev = pa.FeedbackPolicy(interior=np.array(incumbent), boundary=np.array([], dtype=np.int64))
        rho, h, _ = random_problem(model, np.random.default_rng(73))
        assert ws.improve(rho, h, prev).interior.tolist() == incumbent
        assert reference_improve(ws, rho, h, prev).interior.tolist() == incumbent

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(BUNDLED)), seed=st.integers(0, 2**32 - 1))
    def test_improvement_never_raises_the_one_stage_value(self, models, workspaces, name, seed):
        model, ws = models[name], workspaces[name]
        rho, h, prev = random_problem(model, np.random.default_rng(seed))
        improved = ws.improve(rho, h, prev)
        v_prev = ws.one_stage_values(prev, rho, h)
        v_new = ws.one_stage_values(improved, rho, h)
        assert np.all(v_new <= v_prev + 1e-9 * (1.0 + np.max(np.abs(h)))), name
