import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl import operators
from pdmp_avgctl.flow import flow_direction, hit_time, passage_time
from pdmp_avgctl.numerics import phi01
from pdmp_avgctl.operators import DEFAULT_FILL, MIN_TAIL_INTERVALS, REFINE_TARGET, OperatorWorkspace

from conftest import BUNDLED, traced
from reference_quadrature import (_reference_transit, _segment_tables, build_policy_path, composed_assemble,
                                  cum_rate, dense_assemble, doubled_mesh_residual, forced_line_geometry,
                                  interval_left, line_exit,
                                  line_geometry, line_pieces, looped_running_sums, marched_improve, op_G, op_H,
                                  numpy_optimality_residual, one_stage_values, op_L, op_calL, phi0, phi1,
                                  policy_paths, reference_assemble,
                                  reference_improve, reference_optimality_residual, reference_sweep_values,
                                  sparse_values, swept_residual)
from test_operator_properties import assert_pair_layout_matches_the_gathers
from toy_models import dominated_toy_doc, random_feasible, renewal_doc, swap_cycle_doc


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
                policy = random_feasible(model, rng)
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
            policy = random_feasible(model, rng)
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
        kernel = OperatorWorkspace(trivial_rate2).assemble(pa.FeedbackPolicy.lowest_feasible(trivial_rate2))[0]
        assert np.allclose(kernel, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)

    def test_rows_sum_to_one_at_alpha_zero(self, models, workspaces):
        rng = np.random.default_rng(29)
        for name, model in models.items():
            for _ in range(3):
                policy = random_feasible(model, rng)
                kernel = workspaces[name].assemble(policy)[0]
                assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-6, name

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
            policy = random_feasible(model, rng)
            kernel = ws.assemble(policy)[0]
            paths = policy_paths(ws, policy)
            for z in sorted({*range(0, model.n_states, max(1, model.n_states // 8)), model.n_states - 1}):
                e = np.zeros(model.n_states)
                e[z] = 1.0
                want = np.array([op_G(0.0, e, path) for path in paths])
                assert np.max(np.abs(kernel[:, z] - want)) <= 1e-12, (name, z)

    def test_a_line_that_stops_at_t_max_keeps_its_jump_mass(self, models, workspaces):
        # rate 2 up to the horizon t_max = 1 leaves survival e^-2 at t_max,
        # which the frozen tail past it carries: every row keeps its whole
        # jump mass, and the sojourn is 1 / 2 in closed form
        doc = swap_cycle_doc(lam=(2.0, 2.0))
        doc["flow"] = {"kind": "trivial", "t_max": 1.0}
        truncated = pa.model_from_dict(doc)
        policy = pa.FeedbackPolicy.lowest_feasible(truncated)
        for ws in (OperatorWorkspace(truncated), OperatorWorkspace(truncated, 16)):
            assert ws.truncated.all()
            assert math.exp(-2.0) == pytest.approx(policy_paths(ws, policy)[0].tail_weight(0.0), rel=1e-12)
            kernel, ell, _ = ws.assemble(policy)
            assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(ell - 0.5)) <= 1e-12
        for name in BUNDLED:
            kernel = workspaces[name].assemble(pa.FeedbackPolicy.lowest_feasible(models[name]))[0]
            assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12, name

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
                policy = random_feasible(model, rng)
                kernel, ell, cost = ws.assemble(policy)
                ref_kernel, ref_ell, ref_cost = reference_assemble(ws, policy)
                assert np.max(np.abs(kernel - ref_kernel)) <= 1e-12, name
                assert np.max(np.abs(ell - ref_ell)) <= 1e-12, name
                assert np.max(np.abs(cost - ref_cost)) <= 1e-12, name

    def test_band_gather_matches_the_dense_product(self, models, workspaces):
        # each piece's kernel row gathered from its band's kernel rows is the
        # dense (P, n * n_a) product with the whole interior kernel
        rng = np.random.default_rng(47)
        for name, model in models.items():
            ws = workspaces[name]
            policies = [pa.FeedbackPolicy.lowest_feasible(model)]
            policies += [random_feasible(model, rng) for _ in range(3)]
            for policy in policies:
                for got, want in zip(ws.assemble(policy), dense_assemble(ws, policy)):
                    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), name

    def test_assembling_builds_no_policy_paths(self, models):
        # policy paths live only in the test reference: neither the operators
        # nor the simulator has a path type or builder to fall back on
        from pdmp_avgctl import simulation

        for module in (pa, operators, simulation):
            for name in ("PolicyPath", "_path_from_geometry", "build_policy_path", "sample_sojourn"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(OperatorWorkspace, "policy_paths")
        model = models["drift_boundary_64"]
        ws = OperatorWorkspace(model, 8)
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        kernel, ell, cost = ws.assemble(policy)
        assert kernel.shape == (model.n_states, model.n_states)
        assert ell.shape == cost.shape == (model.n_states,)
        assert len(pa.prepare_simulation(model, policy, workspace=ws).lines) == model.n_states


class TestBoundChain:
    def test_flow_costs_bounded_by_growth_envelope(self, models, workspaces):
        rng = np.random.default_rng(31)
        for name, model in models.items():
            c = model.constants
            envelope = c.M * (1.0 + c.b * c.K_lambda) / c.c * model.lyapunov_g
            for _ in range(3):
                policy = random_feasible(model, rng)
                _, _, cost = workspaces[name].assemble(policy, 0.0)
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
        assert doubled_mesh_residual(model, policy, result) <= 1e-8
        verdict = pa.mc_validate(model, policy, result.rho, 0, 3000.0, 8, seed=11)
        assert verdict.passed


class TestPolicyPath:
    def test_node_actions_feasible(self, models, workspaces):
        rng = np.random.default_rng(37)
        for name, model in models.items():
            policy = random_feasible(model, rng)
            mask = model.feasible_mask
            for j in range(model.n_states):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                anchors = line_geometry(workspaces[name])[j].seg_anchor
                assert np.all(mask[anchors, path.interval_actions])

    def test_the_frozen_tail_closes_the_path_integrals(self):
        # truncate a constant-rate line early: past t_max the frozen state
        # jumps at the same rate, so at any discount a the integrals are
        # those of the untruncated line, 1 / (a + 2) and a jump mass 2 / (a + 2)
        doc = swap_cycle_doc(lam=(2.0, 2.0))
        doc["flow"] = {"kind": "trivial", "t_max": 1.0}
        model = pa.model_from_dict(doc)
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        path = build_policy_path(model, policy, 0, fill=64)
        assert path.truncated and path.tail_weight(0.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        for alpha in (0.0, 0.5, 3.0):
            assert op_L(alpha, np.ones((2, 1)), path) == pytest.approx(1.0 / (alpha + 2.0), rel=1e-12)
            assert op_calL(alpha, path) == pytest.approx(1.0 / (alpha + 2.0), rel=1e-12)
            assert op_G(alpha, np.array([0.0, 1.0]), path) == pytest.approx(2.0 / (alpha + 2.0), rel=1e-12)

    def test_truncation_weight_negligible_on_bundled(self, models, workspaces):
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            for j in range(model.n_states):
                path = build_policy_path(model, policy, j, workspace=workspaces[name])
                assert path.tail_weight(0.0) <= 1e-12, (name, j)


class TestRefinement:
    def test_stopping_short_of_the_target_warns(self, models, monkeypatch):
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        monkeypatch.setattr(operators, "MAX_FILL", 16)
        with pytest.warns(RuntimeWarning, match=r"stopped at fill 16 \(max_fill 16\) with refine_diff "
                                                r"\S+ above the target 1e-15"):
            ws = pa.refined_workspace(model, policy, target=1e-15)
        assert ws.fill == 16 and ws.refine_converged is False and ws.refine_diff > 1e-15

    @pytest.mark.parametrize("cap, fill", [(2000, 32), (500, 8)], ids=["after-doublings", "at-the-start"])
    def test_refinement_stops_before_a_mesh_past_the_node_cap(self, models, monkeypatch, cap, fill):
        # decay_flow_16 has 367, 713, 1400 and 2774 nodes at fills 8 to 64:
        # the doubling that would pass the cap is never built
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        monkeypatch.setattr(operators, "MAX_MESH_NODES", cap)
        with pytest.warns(RuntimeWarning, match=rf"stopped at fill {fill} \(fill {2 * fill} would pass "
                                                rf"MAX_MESH_NODES = {cap}\) with refine_diff \S+ above the target"):
            ws = pa.refined_workspace(model, policy)
        assert ws.fill == fill and ws.refine_converged is False
        assert ws.mesh.times.size <= cap

    def test_refinement_peak_stays_near_what_it_keeps(self, models):
        # decay_flow_16 refines to fill 512 (22,019 nodes); the builders drop
        # every node-sized intermediate after its last read, and only the
        # coarser fill's operators, not its workspace, stay while the finer
        # one is built: the peak is 2.33 times the bytes the returned
        # workspace keeps, and was 4.21 times with transient copies
        model = models["decay_flow_16"]
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        model.chain_geometry  # shared by every workspace of the model, built once
        ws, kept, peak = traced(lambda: pa.refined_workspace(model, policy))
        assert ws.fill == 512 and ws.mesh.times.size == 22019
        assert peak <= 2.75 * kept, (peak, kept)

    def test_bundled_models_reach_the_target_without_warning(self, models):
        for name, model in models.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ws = pa.refined_workspace(model, pa.FeedbackPolicy.lowest_feasible(model))
            assert ws.refine_converged is True and ws.refine_diff <= REFINE_TARGET, name


def flow_order(model) -> np.ndarray:
    """Grid indices in the order the flow passes them."""
    order = np.arange(model.n_states)
    return order[::-1] if flow_direction(model.flow) < 0 else order


class TestLineGeometry:
    @pytest.mark.parametrize("fill", [8, 16])
    def test_mesh_invariants_on_bundled(self, models, fill):
        for name, model in models.items():
            ws = OperatorWorkspace(model, fill)
            points, flow = model.grid.points, model.flow
            order = flow_order(model)
            xs = points[order].tolist()
            n, n_chain = model.n_states, ws.chain.n_chain
            assert np.array_equal(ws.chain.order, order), name
            assert n_chain == (0 if flow.kind == "trivial" else n - 1), name
            for piece in ws.geometry:
                assert piece.times[0] == 0.0 and np.all(np.diff(piece.times) > 0.0), name
            # inter-grid segment q runs from the q-th grid point in flow order
            # to the next and ends exactly on that transit time
            for q, piece in enumerate(ws.geometry[:n_chain]):
                assert piece.anchor == order[q], name
                assert piece.times[-1] == passage_time(flow, xs[q], xs[q + 1])

            # a position goes on to the next when the transit is finite and
            # the boundary does not cut it; every other one is a chain end,
            # with one exit piece after the segments, timed from its grid
            # point, that ends on t* or t_max
            transit = [passage_time(flow, a, b) for a, b in zip(xs[:n_chain], xs[1:])]
            ends = [q for q in range(n) if q >= n_chain
                    or not (math.isfinite(transit[q]) and hit_time(flow, xs[q]) > transit[q])]
            assert [e.position for e in ws.chain.exits] == ends, name
            for k, e in enumerate(ws.chain.exits):
                where = (name, fill, e.position)
                piece = ws.geometry[e.piece]
                t_star = hit_time(flow, xs[e.position])
                assert e.piece == n_chain + k and piece.anchor == order[e.position], where
                assert e.hit == (t_star <= model.t_max), where
                assert piece.times[-1] == (t_star if e.hit else model.t_max), where
                if e.hit:
                    assert piece.states[-1] == model.grid.boundary_points[e.boundary_index], where
                else:
                    assert e.boundary_index == -1, where
                # an exit piece whose end states are equal, or lie at or
                # beyond one end of the rate coordinates, is one interval
                lo, hi = model.rate_coords[[0, -1]]
                s0, s1 = piece.states[[0, -1]]
                assert e.constant == (s0 == s1 or max(s0, s1) <= lo or min(s0, s1) >= hi), where
                if e.constant:
                    assert piece.times.size == 2, where
                elif not e.hit:
                    assert piece.times.size - 1 >= max(MIN_TAIL_INTERVALS, fill), where
            # every exit of the trivial flows, decay_flow_16's below its grid
            assert sum(e.constant for e in ws.chain.exits) == {"ctmdp_2state": 2, "ctmdp_3state": 3,
                                                               "decay_flow_16": 1}.get(name, 0), name

            reference = line_geometry(ws)
            for j, pieces in enumerate(line_pieces(ws)):
                where = (name, fill, j)
                # consecutive segments from its own grid point to the first
                # chain end, then that end's exit piece
                pos = int(np.flatnonzero(order == j)[0])
                anchors = [ws.geometry[p].anchor for p in pieces]
                assert anchors == order[pos:pos + len(anchors)].tolist(), where
                assert ws.chain.exits[ws.chain.exit_of[j]].position == min(q for q in ends if q >= pos), where
                # it passes the grid points the per-line rule passes, and ends
                # as that line ends
                geom = reference[j]
                assert anchors == [a for _, _, a in geom.seg_slices], where
                assert (line_exit(ws, j).hit, line_exit(ws, j).boundary_index) == (geom.hit, geom.boundary_index)
            assert np.array_equal(ws.truncated, [not line_exit(ws, j).hit for j in range(n)]), name

    @pytest.mark.parametrize("fill", [8, 16])
    def test_nodes_match_the_per_segment_linspace_reference(self, models, fill):
        # each piece takes the count rule on its own duration (a constant
        # exit piece one interval), with nodes placed as np.linspace places
        # them; every line the per-line mesh builds gives each segment the
        # same count and node times
        for name, model in models.items():
            ws = OperatorWorkspace(model, fill)
            lam_sup = model.lambda_sup
            ref_transit = _reference_transit(model)
            n_chain = ws.chain.n_chain
            for p, piece in enumerate(ws.geometry):
                dur = float(piece.times[-1])
                count = int(math.ceil(dur / (0.25 / lam_sup))) if lam_sup > 0.0 else 0
                if p >= n_chain and ws.chain.exits[p - n_chain].constant:
                    count = 1
                elif p >= n_chain and not ws.chain.exits[p - n_chain].hit:
                    count = max(count, MIN_TAIL_INTERVALS, fill)
                elif math.isfinite(ref_transit) and dur > 0:
                    count = max(count, int(math.ceil(dur / (ref_transit / fill))))
                else:
                    count = max(count, fill)
                count = max(count, 1)
                assert piece.times.size == count + 1, (name, fill, p)
                assert np.array_equal(piece.times, np.linspace(0.0, dur, count + 1)), (name, fill, p)
            for j, (pieces, geom) in enumerate(zip(line_pieces(ws), line_geometry(ws))):
                for p, (k0, k1, _) in zip(pieces, geom.seg_slices):
                    times = ws.geometry[p].times
                    assert k1 - k0 == times.size - 1, (name, fill, j, p)
                    relative = geom.times[k0:k1 + 1] - geom.times[k0]
                    assert np.max(np.abs(relative - times)) <= 1e-12 * max(1.0, times[-1])

    @pytest.mark.parametrize("name", BUNDLED)
    def test_running_sums_match_the_per_piece_loop(self, models, workspaces, name):
        # bit for bit, on the engine's hazard increments and on random
        # values of mixed magnitude, one column and several; the pairs that
        # join two pieces are not intervals, and their values are never read
        model = models[name]
        rng = np.random.default_rng(7)
        for ws in (OperatorWorkspace(model, 8), workspaces[name]):
            mesh = ws.mesh
            left = interval_left(mesh)
            dt = mesh.times[left + 1] - mesh.times[left]
            hazard = 0.5 * (mesh.lam_nodes[left] + mesh.lam_nodes[left + 1]) * dt[:, None]
            size = left.size
            for z in (hazard, hazard[:, 0], rng.normal(size=size) * 10.0 ** rng.uniform(-8, 3, size),
                      rng.normal(size=(size, 3)) * 10.0 ** rng.uniform(-8, 3, (size, 3))):
                assert np.array_equal(mesh.running_sums(as_pairs(mesh, z)), looped_running_sums(mesh, z)), \
                    (name, ws.fill)

    def test_running_sums_allocate_only_their_result(self):
        # decay_flow_16's recipe on 256 grid points: the pieces near the
        # flow's fixed point are far longer than the rest, so padding every
        # piece to the longest would take over 8 times the interval count,
        # and the interval counts change from piece to piece, so the runs of
        # equal counts are short; the sums are taken in the result itself
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        n = 256
        points = [(i + 1) / n for i in range(n)]
        doc["grid"]["points"] = points
        doc["actions"]["feasible"] = [[0, 1]] * n
        doc["rates"]["lambda"] = [[0.8 + 0.3 * x, 1.2 + 0.2 * x] for x in points]
        doc["costs"]["running"] = [[0.4 + 1.5 * x, 0.7 + 1.2 * x] for x in points]
        doc["kernel"]["interior"] = [[[1.0 / n] * n] * 2] * n
        doc["lyapunov"]["g"] = [1.0] * n
        doc["constants"]["lambda_lower"] = [0.8 + 0.3 * x for x in points]
        model = pa.model_from_dict(doc)
        rng = np.random.default_rng(11)
        for fill in (8, 64):
            mesh = OperatorWorkspace(model, fill).mesh
            counts = np.diff(mesh.first)
            intervals = int(mesh.first[-1])
            assert counts.max() * counts.size > 8 * intervals, fill
            assert len(mesh._runs) > counts.size // 4, fill
            z = rng.normal(size=(intervals, 2)) * 10.0 ** rng.uniform(-8, 3, (intervals, 2))
            pairs = as_pairs(mesh, z)
            sums, _, peak = traced(lambda: mesh.running_sums(pairs))
            assert peak <= sums.nbytes + 16384, fill
            assert np.array_equal(sums, looped_running_sums(mesh, z)), fill

    def test_workspaces_of_one_model_share_one_chain_geometry(self):
        # the fill-independent geometry is built once per model object and
        # is read-only; each workspace's mesh is the one a new model object
        # builds with its own chain geometry
        for name in BUNDLED:
            path = pa.bundled_model_path(name)
            model, fresh = pa.load_model(path), pa.load_model(path)
            coarse, fine = OperatorWorkspace(model, 8), OperatorWorkspace(model, 32)
            chain = model.chain_geometry
            assert coarse.chain is chain and fine.chain is chain, name
            for field in dataclasses.fields(chain):
                value = getattr(chain, field.name)
                if isinstance(value, np.ndarray):
                    with pytest.raises(ValueError):
                        value[...] = 0
            for ws in (coarse, fine):
                other = OperatorWorkspace(fresh, ws.fill)
                assert other.chain is not chain and other.chain.exits == ws.chain.exits, name
                assert other.chain.steps == chain.steps, name
                for field in dataclasses.fields(ws.mesh):
                    assert np.array_equal(getattr(ws.mesh, field.name), getattr(other.mesh, field.name)), \
                        (name, ws.fill, field.name)

    def test_a_fixed_point_on_a_grid_point_ends_a_chain(self):
        # decay_flow_16 with a grid point added on the flow's fixed point 0:
        # the transit there is infinite, so the chain ends one grid point
        # before it and the fixed point is a chain end of its own, both with
        # exits that stop at t_max
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        doc["grid"]["points"] = [0.0] + doc["grid"]["points"]
        for table in (doc["rates"]["lambda"], doc["costs"]["running"], doc["actions"]["feasible"],
                      doc["lyapunov"]["g"], doc["constants"]["lambda_lower"], doc["kernel"]["interior"]):
            table.insert(0, table[0])
        doc["kernel"]["interior"] = [[[0.0] + row for row in rows] for rows in doc["kernel"]["interior"]]
        model = pa.model_from_dict(doc)
        ws = OperatorWorkspace(model, 8)
        n = model.n_states
        assert [(e.position, e.hit) for e in ws.chain.exits] == [(n - 2, False), (n - 1, False)]
        assert ws.chain.exit_of.tolist() == [1] + [0] * (n - 1)
        agrees_with_the_per_line_references(ws, np.random.default_rng(3))

    def test_a_boundary_between_grid_points_ends_a_chain(self):
        # drift_boundary_64 with a second boundary point at 0.45: the line
        # from the grid point before it hits it, so that grid point is a
        # chain end, and the grid points past it run on to the boundary at 1
        doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
        doc["grid"]["boundary_points"].append(0.45)
        for table in (doc["rates"]["lambda"], doc["kernel"]["boundary"], doc["costs"]["boundary"],
                      doc["lyapunov"]["r_bar"], doc["actions"]["boundary_feasible"]):
            table.append(table[-1])
        model = pa.model_from_dict(doc)
        ws = OperatorWorkspace(model, 8)
        last = int(np.searchsorted(model.grid.points, 0.45)) - 1
        assert [(e.position, e.hit, e.boundary_index) for e in ws.chain.exits] == \
            [(last, True, 1), (model.n_states - 1, True, 0)]
        assert ws.chain.exit_of.tolist() == [0] * (last + 1) + [1] * (model.n_states - last - 1)
        agrees_with_the_per_line_references(ws, np.random.default_rng(5))


def agrees_with_the_per_line_references(ws, rng):
    """The backward pass against the per-line compositions and the per-path quadrature, on the same mesh."""
    model = ws.model
    geometry = forced_line_geometry(ws)
    for _ in range(3):
        policy = random_feasible(model, rng)
        got = ws.assemble(policy)
        for want in (composed_assemble(ws, policy), reference_assemble(ws, policy, geometry=geometry)):
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))
        rho, h, prev = random_problem(model, rng)
        improved, residual = ws.improve_and_certify(rho, h, prev)
        assert improved.key() == marched_improve(ws, rho, h, prev).key()
        assert abs(residual - swept_residual(ws, rho, h)) <= 1e-12


def as_pairs(mesh, z: np.ndarray) -> np.ndarray:
    """The per-interval values ``z`` laid out on the mesh's node pairs, NaN on the pairs that join pieces."""
    out = np.full((mesh.times.size - 1,) + z.shape[1:], np.nan)
    out[interval_left(mesh)] = z
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_pair_layout_matches_the_gathers(models, workspaces, name):
    # at the audit's fill and at the refined fill, for the lowest feasible
    # policy and a random one
    model = models[name]
    rng = np.random.default_rng(67)
    policies = [pa.FeedbackPolicy.lowest_feasible(model), random_feasible(model, rng)]
    for ws in (OperatorWorkspace(model, DEFAULT_FILL), workspaces[name]):
        assert_pair_layout_matches_the_gathers(ws, policies)


# -- per-segment one-stage tables ---------------------------------------------

def random_problem(model, rng):
    """A seeded random (rho, h, incumbent) of the scale PIA produces."""
    rho = float(rng.uniform(0.0, 3.0))
    h = rng.normal(scale=2.0, size=model.n_states)
    return rho, h, random_feasible(model, rng)


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
        assert tables.sojourn.shape == (len(ws.geometry), ws.model.n_actions)
        # the backward pass runs each line's pieces: counted with unit values
        # and factors, and the piece indices themselves summed
        pieces = line_pieces(ws)
        ones = np.ones(len(ws.geometry))
        no_exit = np.zeros(len(ws.chain.exits))
        assert ws.backward(ones, ones, no_exit).tolist() == [len(line) for line in pieces]
        assert ws.backward(np.arange(ones.size, dtype=float), ones, no_exit).tolist() == \
            [sum(line) for line in pieces]

    def test_pieces_match_the_per_line_segment_tables(self, models, workspaces):
        # every (line, segment) entry of the per-line tables is its piece's
        # entry: integrals relative to the segment's start do not depend on
        # the line the segment is met on
        rng = np.random.default_rng(59)
        for name, model in models.items():
            ws = workspaces[name]
            tables, reference = ws.segment_tables(), _segment_tables(model, line_geometry(ws))
            rho, h, _ = random_problem(model, rng)
            qh = model.kernel_interior @ h
            got_values, want_values = tables.values(rho, qh), reference.values(rho, qh)
            for j, line in enumerate(line_pieces(ws)):
                segments = range(reference.line_start[j], reference.line_start[j + 1])
                assert len(segments) == len(line), (name, j)
                for s, p in zip(segments, line):
                    for got, want in ((tables.sojourn[p], reference.sojourn[s]), (tables.cost[p], reference.cost[s]),
                                      (tables.survival[p], reference.survival[s]),
                                      (got_values[p], want_values[s])):
                        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (name, j, s)

    def test_band_values_match_the_sparse_sums(self, models, workspaces):
        # slot k of a piece's band is grid point base + k at the slot's action,
        # clamped to the last grid point, where it carries no weight; the
        # band's one-stage values are the sums over its nonzero slots
        rng = np.random.default_rng(53)
        for name, model in models.items():
            tables = workspaces[name].segment_tables()
            n_a, width = model.n_actions, tables.weights.shape[0]
            slot_grid = tables.cols[:1] // n_a + np.arange(width)[:, None, None]
            assert np.all(tables.weights[slot_grid > model.n_states - 1] == 0.0), name
            assert np.array_equal(np.minimum(slot_grid, model.n_states - 1) * n_a + np.arange(n_a), tables.cols), name
            rho, h, _ = random_problem(model, rng)
            qh = model.kernel_interior @ h
            want = sparse_values(tables, rho, qh)
            assert np.max(np.abs(tables.values(rho, qh) - want)) <= 1e-15 * max(1.0, np.max(np.abs(want))), name

    def test_segment_recursion_matches_the_line_integrals(self, models, workspaces):
        # the backward recursion over a line's pieces under one frozen action
        # is the whole-line quadrature of the reference sweep
        rng = np.random.default_rng(61)
        for name, model in models.items():
            ws = workspaces[name]
            tables = ws.segment_tables()
            rho, h, _ = random_problem(model, rng)
            values = tables.values(rho, model.kernel_interior @ h)
            _, b_val, _ = ws._boundary_choice(h, None)
            for j, (line, ref) in enumerate(zip(line_pieces(ws), reference_sweep_values(ws, rho, h))):
                if ref is None:
                    continue
                ex = line_exit(ws, j)
                w = np.full(model.n_actions, b_val[ex.boundary_index] if ex.hit else 0.0)
                for p in reversed(line):
                    w = values[p] + tables.survival[p] * w
                ok = np.isfinite(ref)
                assert np.max(np.abs(w[ok] - ref[ok])) <= 1e-12 * max(1.0, np.max(np.abs(ref[ok]))), (name, j)

    def test_improve_and_residual_match_the_references(self, models, workspaces):
        rng = np.random.default_rng(67)
        for name, model in models.items():
            ws = workspaces[name]
            for _ in range(4):
                rho, h, prev = random_problem(model, rng)
                got, res = ws.improve_and_certify(rho, h, prev)
                assert got.key() == reference_improve(ws, rho, h, prev).key(), name
                assert abs(res - reference_optimality_residual(ws, rho, h)) <= 1e-12, name

    def test_matches_the_references_along_pia_iterates(self, models, workspaces):
        # (rho, h) from real evaluations, with the incumbent as in run_pia
        rng = np.random.default_rng(71)
        for name, model in models.items():
            ws = workspaces[name]
            policy = random_feasible(model, rng)
            for _ in range(6):
                res = pa.evaluate_policy(model, policy, workspace=ws)
                improved, residual = ws.improve_and_certify(res.rho, res.h, policy)
                assert improved.key() == reference_improve(ws, res.rho, res.h, policy).key(), name
                assert abs(residual - reference_optimality_residual(ws, res.rho, res.h)) <= 1e-12, name
                if improved.key() == policy.key():
                    break
                policy = improved

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(BUNDLED)), seed=st.integers(0, 2**32 - 1))
    def test_one_pass_certificate_is_the_numpy_pass(self, models, workspaces, name, seed):
        # same arithmetic in the same order, so equal to the bit, not within a tolerance
        model, ws = models[name], workspaces[name]
        rho, h, prev = random_problem(model, np.random.default_rng(seed))
        improved, residual = ws.improve_and_certify(rho, h, prev)
        assert residual == numpy_optimality_residual(ws, rho, h), name
        assert improved.key() == marched_improve(ws, rho, h, prev).key(), name

    @pytest.mark.parametrize("incumbent", [[0, 0], [0, 1], [1, 0], [1, 1]])
    def test_exact_ties_keep_the_incumbent(self, incumbent):
        # gap 0: the two actions are identical, so every comparison is a tie
        model = pa.model_from_dict(dominated_toy_doc(gap=0.0))
        ws = OperatorWorkspace(model, 16)
        prev = pa.FeedbackPolicy(interior=np.array(incumbent), boundary=np.array([], dtype=np.int64))
        rho, h, _ = random_problem(model, np.random.default_rng(73))
        assert ws.improve_and_certify(rho, h, prev)[0].interior.tolist() == incumbent
        assert reference_improve(ws, rho, h, prev).interior.tolist() == incumbent

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(BUNDLED)), seed=st.integers(0, 2**32 - 1))
    def test_improvement_never_raises_the_one_stage_value(self, models, workspaces, name, seed):
        model, ws = models[name], workspaces[name]
        rho, h, prev = random_problem(model, np.random.default_rng(seed))
        improved, _ = ws.improve_and_certify(rho, h, prev)
        v_prev = one_stage_values(ws, prev, rho, h)
        v_new = one_stage_values(ws, improved, rho, h)
        assert np.all(v_new <= v_prev + 1e-9 * (1.0 + np.max(np.abs(h)))), name


# every entry that takes a policy and a workspace refuses one built for another model
OTHER_MODEL_ENTRIES = {
    "evaluate_policy": lambda m, u, res, ws: pa.evaluate_policy(m, u, workspace=ws),
    "run_pia": lambda m, u, res, ws: pa.run_pia(m, u, workspace=ws),
    "refined_workspace": lambda m, u, res, ws: pa.refined_workspace(m, u, start=ws),
    "audit_assumptions": lambda m, u, res, ws: pa.audit_assumptions(m, u, workspace=ws),
    "prepare_simulation": lambda m, u, res, ws: pa.prepare_simulation(m, u, workspace=ws),
    "mc_validate": lambda m, u, res, ws: pa.mc_validate(m, u, res.rho, 0, 10.0, 2, 0, workspace=ws),
}


@pytest.fixture(scope="module")
def tripled_ctmdp():
    """ctmdp_2state with its running costs tripled, and a workspace of it."""
    doc = json.loads(pa.bundled_model_path("ctmdp_2state").read_text())
    doc["costs"]["running"] = [[3.0 * c for c in row] for row in doc["costs"]["running"]]
    model = pa.model_from_dict(doc)
    return model, OperatorWorkspace(model, 16)


@pytest.mark.parametrize("entry", sorted(OTHER_MODEL_ENTRIES))
def test_a_workspace_of_another_model_is_refused(models, tripled_ctmdp, entry):
    model = models["ctmdp_2state"]
    other, other_ws = tripled_ctmdp
    policy = pa.FeedbackPolicy.lowest_feasible(model)
    own = pa.evaluate_policy(model, policy, workspace=OperatorWorkspace(model, 16))
    # the other model's rho differs, so an answer from its workspace would be wrong
    assert pa.evaluate_policy(other, policy, workspace=other_ws).rho == pytest.approx(3.0 * own.rho)
    with pytest.raises(ValueError, match="workspace was built for another model"):
        OTHER_MODEL_ENTRIES[entry](model, policy, own, other_ws)


@pytest.fixture(scope="module")
def restricted_drift():
    """drift_boundary_64 with action 0 infeasible at grid state 3, and a workspace of it."""
    doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
    doc["actions"]["feasible"][3] = [1]
    model = pa.model_from_dict(doc)
    return model, OperatorWorkspace(model)


# the same entries take a policy, and refuse one that is not an admissible
# feedback policy of the model before any work, with its own workspace
@pytest.mark.parametrize("action", [0, 5], ids=["infeasible", "outside-the-action-grid"])
@pytest.mark.parametrize("entry", sorted(OTHER_MODEL_ENTRIES))
def test_an_infeasible_policy_is_refused(restricted_drift, entry, action):
    model, ws = restricted_drift
    lowest = pa.FeedbackPolicy.lowest_feasible(model)
    interior = lowest.interior.copy()
    interior[3] = action
    policy = pa.FeedbackPolicy(interior=interior, boundary=lowest.boundary)
    with pytest.raises(ValueError, match=f"^infeasible policy: action {action} infeasible at interior state 3$"):
        OTHER_MODEL_ENTRIES[entry](model, policy, types.SimpleNamespace(rho=1.0), ws)


# a float or boolean action array is refused by the same check, not read as
# other actions (0.7 as 0, True as 1) or met later as an IndexError
@pytest.mark.parametrize("interior", [[0.7, 0.7], [True, False]], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(OTHER_MODEL_ENTRIES))
def test_a_non_integer_policy_is_refused(models, entry, interior):
    model = models["ctmdp_2state"]
    interior = np.array(interior)
    policy = pa.FeedbackPolicy(interior=interior, boundary=np.array([], dtype=np.int64))
    message = (f"^infeasible policy: interior actions must be a flat array of integer action indices, "
               f"got {interior.dtype} of shape \\(2,\\)$")
    with pytest.raises(ValueError, match=message):
        OTHER_MODEL_ENTRIES[entry](model, policy, types.SimpleNamespace(rho=1.0), OperatorWorkspace(model, 16))
