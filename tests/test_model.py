import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl.model import DimensionError, ModelFormatError

from reference_quadrature import line_geometry, op_G, phi0, phi1, policy_paths
from toy_models import random_feasible, renewal_doc, swap_cycle_doc, two_state_jump_doc


class TestLoadModel:
    def test_minimal_two_state_instance(self, write_model):
        model = pa.load_model(write_model(two_state_jump_doc()))
        assert model.n_states == 2
        assert model.n_boundary == 0
        assert model.n_actions == 2
        assert model.source_hash

    def test_substochastic_kernel_row_rejected(self, write_model):
        doc = two_state_jump_doc()
        doc["kernel"]["interior"][0][0] = [0.28, 0.70]  # sums to 0.98
        with pytest.raises(ModelFormatError, match="stochasticity"):
            pa.load_model(write_model(doc))

    def test_bundled_drift_example(self):
        model = pa.load_model(pa.bundled_model_path("drift_boundary_64"))
        assert model.n_states == 64
        assert model.n_boundary == 1
        assert pa.validate_model(model) == []

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "pdmp-model/1",\n  "grid": }')
        with pytest.raises(ModelFormatError, match="line 2"):
            pa.load_model(path)

    def test_dimension_mismatch_names_table(self, write_model):
        doc = two_state_jump_doc()
        doc["rates"]["lambda"] = [[1.0, 2.0]]  # one row short
        with pytest.raises(DimensionError, match="rates.lambda"):
            pa.load_model(write_model(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            pa.load_model(tmp_path / "absent.json")

    def test_missing_section_named(self, write_model):
        doc = two_state_jump_doc()
        del doc["lyapunov"]
        with pytest.raises(ModelFormatError, match="lyapunov"):
            pa.load_model(write_model(doc))

    def test_bundled_models_all_load_and_validate(self):
        for name in pa.bundled_model_names():
            model = pa.load_model(pa.bundled_model_path(name))
            assert pa.validate_model(model) == [], name

    def test_feasible_lists_load_sorted_and_unique(self):
        doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
        doc["actions"]["feasible"][:3] = [[1, 0, 1], [1, 1], []]
        doc["actions"]["boundary_feasible"] = [[1, 0, 0]]
        model = pa.model_from_dict(doc)
        sets = model.action_grid.feasible + model.action_grid.boundary_feasible
        assert all(idx.dtype == np.int64 and idx.ndim == 1 for idx in sets)
        assert [idx.tolist() for idx in sets[:4]] == [[0, 1], [1], [], [0, 1]]
        assert sets[-1].tolist() == [0, 1]

    @pytest.mark.parametrize("feasible, error, message", [
        ([[0, 1], [0, 2]], ModelFormatError, r"^'actions\.feasible\[1\]' contains an action index outside 0\.\.1$"),
        ([[0, 1], [-1, 0]], ModelFormatError, r"^'actions\.feasible\[1\]' contains an action index outside 0\.\.1$"),
        ([[0, 1], [[0], [1]]], ModelFormatError, r"^'actions\.feasible\[1\]' must be a flat list of action indices$"),
        ([[0, 1]], DimensionError, r"^'actions\.feasible': expected 2 entries, got 1$"),
        ([[0, 1], [0, 0.5]], ModelFormatError, r"^'actions\.feasible\[1\]' must hold integer action indices$"),
        ([[0, 1], [True]], ModelFormatError, r"^'actions\.feasible\[1\]' must hold integer action indices$"),
        ([[0, 1], [1.0]], ModelFormatError, r"^'actions\.feasible\[1\]' must hold integer action indices$"),
    ])
    def test_bad_feasible_lists_are_refused(self, write_model, feasible, error, message):
        doc = two_state_jump_doc()
        doc["actions"]["feasible"] = feasible
        with pytest.raises(error, match=message):
            pa.load_model(write_model(doc))


# numpy.linalg and numpy.random are the subpackages the library calls by name
# (numpy may import either lazily); any other numpy or scipy module that the
# pipeline loads is a detour every process pays for
PIPELINE = """
import sys
import numpy, numpy.linalg, numpy.random
import pdmp_avgctl as pa
before = set(sys.modules)
model = pa.load_model(pa.bundled_model_path("drift_boundary_64"))
assert pa.validate_model(model) == []
u0 = pa.FeedbackPolicy.lowest_feasible(model)
pa.audit_assumptions(model, u0)
ws = pa.refined_workspace(model, u0)
result, policy, _ = pa.run_pia(model, u0, workspace=ws)
assert pa.mc_validate(model, policy, result.rho, 0, 100.0, 4, 1, workspace=ws).replications
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_the_pipeline_loads_no_further_numpy_or_scipy_module():
    src = str(Path(pa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", PIPELINE], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert [m for m in loaded if m == "numpy" or m.startswith(("numpy.", "scipy"))] == []


class TestModelTables:
    def test_masks_are_computed_once_and_read_only(self, models):
        for model in models.values():
            for mask in ("feasible_mask", "boundary_feasible_mask"):
                assert getattr(model, mask) is getattr(model, mask)
                with pytest.raises(ValueError):
                    getattr(model, mask)[...] = True

    def test_masks_match_the_feasible_sets(self, models):
        for model in models.values():
            for mask, sets in ((model.feasible_mask, model.action_grid.feasible),
                               (model.boundary_feasible_mask, model.action_grid.boundary_feasible)):
                assert mask.shape == (len(sets), model.n_actions)
                for row, idx in zip(mask, sets):
                    assert np.flatnonzero(row).tolist() == sorted(int(a) for a in idx)

    def test_lambda_sup_matches_a_fresh_recomputation(self, models):
        for model in models.values():
            sets = list(model.action_grid.feasible) + list(model.action_grid.boundary_feasible)
            fresh = max(float(model.jump_rate[i, int(a)]) for i, idx in enumerate(sets) for a in idx)
            assert model.lambda_sup == fresh


class TestValidateModel:
    def test_well_formed_toy_is_clean(self, write_model):
        model = pa.load_model(write_model(two_state_jump_doc()))
        assert pa.validate_model(model) == []

    def test_rate_below_floor_is_flagged(self, write_model):
        doc = two_state_jump_doc()
        doc["rates"]["lambda"][0][1] = 0.5  # below lambda_lower[0] = 1.0
        violations = pa.validate_model(pa.load_model(write_model(doc)))
        assert len(violations) == 1
        v = violations[0]
        assert v.invariant == "rates.floor"
        assert "state 0" in v.location and "action 1" in v.location

    def test_lyapunov_below_one_is_flagged(self, write_model):
        doc = two_state_jump_doc()
        doc["lyapunov"]["g"][0] = 0.5
        violations = pa.validate_model(pa.load_model(write_model(doc)))
        assert any(v.invariant == "lyapunov.g_ge_1" and "state 0" in v.message for v in violations)

    def test_unsorted_grid_is_flagged(self, write_model):
        doc = two_state_jump_doc()
        doc["grid"]["points"] = [1.0, 0.0]
        violations = pa.validate_model(pa.load_model(write_model(doc)))
        assert any(v.invariant == "grid.ordered" for v in violations)

    def test_empty_feasible_set_is_flagged(self, write_model):
        doc = two_state_jump_doc()
        doc["actions"]["feasible"][1] = []
        violations = pa.validate_model(pa.load_model(write_model(doc)))
        assert any(v.invariant == "actions.nonempty" for v in violations)

    def test_fine_rowsum_deviation_flagged_at_strict_tolerance(self, write_model):
        doc = two_state_jump_doc()
        doc["kernel"]["interior"][0][0] = [0.3, 0.7 + 1e-10]  # passes load, fails validate
        violations = pa.validate_model(pa.load_model(write_model(doc)))
        assert any(v.invariant == "kernel.rowsum" for v in violations)


def three_boundary_doc(seed: int) -> dict:
    """renewal_doc with three actions, boundary points at 0.35, 0.65 and 1.0
    (so the lines reach all three), random boundary data and feasible sets,
    and jump rates below the floor at several (state, action) pairs."""
    rng = np.random.default_rng(seed)
    doc = renewal_doc(n=16)
    n, n_b, n_a = 16, 3, 3
    doc["grid"]["boundary_points"] = [0.35, 0.65, 1.0]
    feasible = [sorted(rng.choice(n_a, size=rng.integers(1, n_a + 1), replace=False).tolist())
                for _ in range(n + n_b)]
    doc["actions"] = {"values": [0.0, 1.0, 2.0], "feasible": feasible[:n], "boundary_feasible": feasible[n:]}
    lower = rng.uniform(0.5, 1.0, n)
    lam = lower[:, None] + rng.uniform(-0.3, 0.5, (n, n_a))
    doc["rates"]["lambda"] = lam.tolist() + rng.uniform(0.5, 1.0, (n_b, n_a)).tolist()
    doc["constants"]["lambda_lower"] = lower.tolist()
    kern = rng.dirichlet(np.full(n, 0.7), size=(n + n_b, n_a))
    doc["kernel"] = {"interior": kern[:n].tolist(), "boundary": kern[n:].tolist()}
    doc["costs"] = {"running": rng.uniform(0.0, 2.0, (n, n_a)).tolist(),
                    "boundary": rng.uniform(0.0, 2.0, (n_b, n_a)).tolist()}
    doc["lyapunov"]["r_bar"] = rng.uniform(0.5, 2.0, n_b).tolist()
    return doc


def looped_floor_violations(model) -> list:
    """validate_model's rates.floor violations, state by state and action by action."""
    out = []
    lam, lower, pts = model.jump_rate[:model.n_states], model.constants.lambda_lower, model.grid.points
    for i in range(model.n_states):
        for a in model.action_grid.feasible[i]:
            if lam[i, a] < lower[i] - 1e-12:
                out.append(pa.Violation("rates.floor", f"(state {i}, action {a})", float(lower[i] - lam[i, a]),
                                        f"lambda({pts[i]}, a{a})={lam[i, a]} below lambda_lower={lower[i]}"))
    return out


def looped_boundary_items(model, reachable: list) -> dict:
    """The audit's boundary-weight and boundary-cost-ratio (slacks, locations), point by point."""
    c = model.constants
    g_b = model.boundary_g()
    qg_b = model.kernel_boundary @ model.lyapunov_g
    out = {}
    for name, vals_at in (("boundary-weight", lambda zi: model.lyapunov_rbar[zi] + qg_b[zi] - g_b[zi]),
                          ("boundary-cost-ratio", lambda zi: model.boundary_cost[zi]
                           - c.M / (c.c + c.delta) * model.lyapunov_rbar[zi])):
        slacks, locs = [], []
        for zi in reachable:
            vals = np.where(model.boundary_feasible_mask[zi], vals_at(zi), -np.inf)
            a_star = int(np.argmax(vals))
            slacks.append(float(-vals[a_star]))
            locs.append(f"z={model.grid.boundary_points[zi]}, a={a_star}")
        out[name] = (slacks, locs)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_floor_and_boundary_checks_match_the_loops(seed):
    # the array expressions flag, order and word the floor violations, and
    # take the boundary items' slacks and locations, as a loop over each
    # state and boundary point does, bit for bit
    model = pa.model_from_dict(three_boundary_doc(seed))
    want = looped_floor_violations(model)
    assert len(want) >= 2
    assert [v for v in pa.validate_model(model) if v.invariant == "rates.floor"] == want
    ws = pa.OperatorWorkspace(model)
    reachable = sorted({e.boundary_index for e in ws.chain.exits if e.hit})
    assert reachable == [0, 1, 2]
    report = audit_lowest(model, workspace=ws)
    for name, (slacks, locs) in looped_boundary_items(model, reachable).items():
        item = report.item(name)
        worst = int(np.argmin(slacks))
        assert (item.slack_by_state, item.worst_slack, item.worst_location) == (tuple(slacks), slacks[worst],
                                                                                locs[worst]), name


def audit_lowest(model, **kwargs):
    """The audit under the lowest feasible policy, the CLI's default."""
    return pa.audit_assumptions(model, pa.FeedbackPolicy.lowest_feasible(model), **kwargs)


class TestAuditAssumptions:
    def test_cu1_passes_with_b_equal_c(self, write_model):
        doc = two_state_jump_doc()
        doc["constants"]["b"] = doc["constants"]["c"]  # g == 1 makes the growth sup equal c
        model = pa.load_model(write_model(doc))
        report = audit_lowest(model)
        assert report.item("interior-growth").status == "pass"
        assert report.item("interior-growth").worst_slack >= -1e-9

    def test_cu3_fails_where_cost_exceeds_mg(self, write_model):
        doc = two_state_jump_doc()
        M = doc["constants"]["M"]
        doc["costs"]["running"][0][0] = M * doc["lyapunov"]["g"][0] + 1.0
        model = pa.load_model(write_model(doc))
        item = audit_lowest(model).item("cost-vs-weight")
        assert item.status == "fail"
        assert "x=0.0" in item.worst_location and "a=0" in item.worst_location

    def test_kappa_estimate_matches_spectral_gap(self, write_model):
        doc = swap_cycle_doc()
        doc["kernel"]["interior"] = [[[0.9, 0.1]], [[0.2, 0.8]]]  # |second eigenvalue| = 0.7
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        report = pa.audit_assumptions(model, policy)
        assert report.kappa_estimate == pytest.approx(0.7, abs=0.05)

    def test_two_closed_classes_leave_ergodicity_not_checkable(self, write_model):
        # action 0 keeps each state where it is: two closed classes, no unique nu
        doc = two_state_jump_doc()
        doc["kernel"]["interior"][0][0] = [1.0, 0.0]
        doc["kernel"]["interior"][1][0] = [0.0, 1.0]
        model = pa.load_model(write_model(doc))
        report = audit_lowest(model)
        item = report.item("geometric-ergodicity")
        assert item.status == "not_checkable"
        assert "more than one closed communicating class" in item.note
        assert report.a_estimate is None and report.kappa_estimate is None

    def test_a_kernel_that_never_contracts_leaves_ergodicity_not_checkable(self, write_model):
        # the swap chain is periodic: ||G^k - 1 nu||_g = 1 at every power
        model = pa.load_model(write_model(swap_cycle_doc()))
        report = audit_lowest(model)
        item = report.item("geometric-ergodicity")
        assert item.status == "not_checkable"
        assert "contracts" in item.note
        assert report.a_estimate is None and report.kappa_estimate is None

    def test_ergodic_constants_keep_still_under_a_roundoff_kernel_change(self):
        # a relative change of 2e-16 in the model's kernel tables moves the
        # audited (a, kappa) by roundoff only, not through which powers count
        for name in pa.bundled_model_names():
            doc = json.loads(pa.bundled_model_path(name).read_text())
            want = None
            for seed in (None, 1, 2, 3):
                if seed is not None:
                    rng = np.random.default_rng(seed)
                    for part in ("interior", "boundary"):
                        table = np.asarray(doc["kernel"][part], dtype=float)
                        doc["kernel"][part] = (table * (1.0 + 2e-16 * rng.uniform(-1.0, 1.0, table.shape))).tolist()
                model = pa.model_from_dict(doc)
                report = audit_lowest(model)
                got = (report.a_estimate, report.kappa_estimate)
                want = want or got
                assert abs(got[0] - want[0]) <= 1e-9 * want[0], (name, seed, got, want)
                assert abs(got[1] - want[1]) <= 1e-9 * want[1], (name, seed, got, want)

    def test_infinite_horizon_items_not_checkable(self, write_model):
        model = pa.load_model(write_model(two_state_jump_doc()))
        report = audit_lowest(model)
        assert report.item("growth-decay-limit").status == "not_checkable"
        assert report.item("weight-decay-limit").status == "not_checkable"

    def test_boundary_model_has_checkable_limits(self, models):
        report = audit_lowest(models["renewal_cycle"])
        assert report.item("growth-decay-limit").status == "pass"
        assert report.item("boundary-weight").status == "pass"
        assert report.item("boundary-cost-ratio").status == "pass"

    def test_discounted_finiteness_omission_is_documented(self, models):
        report = audit_lowest(models["ctmdp_2state"])
        assert report.item("discounted-finiteness").status == "omitted"

    def test_bundled_models_pass_audit(self, models, workspaces):
        for name, model in models.items():
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            report = pa.audit_assumptions(model, policy, workspace=workspaces[name])
            assert report.passed, f"{name}: {[i.name for i in report.items if i.status == 'fail']}"
            assert report.kappa_estimate is not None and report.kappa_estimate < 1.0

    def test_kernel_drift_slacks_match_the_per_path_quadrature(self, models):
        # slack k_g g + K_g - G g per line, G g integrated path by path
        for name in ("drift_boundary_64", "decay_flow_16", "ctmdp_3state"):
            model = models[name]
            ws = pa.OperatorWorkspace(model)
            c = model.constants
            policy = pa.FeedbackPolicy.lowest_feasible(model)
            item = pa.audit_assumptions(model, policy, workspace=ws).item("kernel-drift")
            want = [c.k_g * model.lyapunov_g[j] + c.K_g - op_G(0.0, model.lyapunov_g, path)
                    for j, path in enumerate(policy_paths(ws, policy))]
            assert np.max(np.abs(np.array(item.slack_by_state) - want)) <= 1e-12, name

    def test_line_integrals_match_the_per_line_meshes(self, models, workspaces):
        # the growth integral, the lower hazard and the discounted cost bound,
        # carried from per-piece sums by one backward pass, are the per-line sums on the per-line mesh
        from pdmp_avgctl.model import _line_integrals

        for name, model in models.items():
            ws = workspaces[name]
            c = model.constants
            lower = pa.Table1D(model.grid.points, c.lambda_lower)
            fsup = pa.Table1D(model.grid.points, np.where(model.feasible_mask, model.running_cost,
                                                           -np.inf).max(axis=1))
            discounted_cost, lower_hazard = _line_integrals(model, ws, 0.0, fsup(ws.mesh.states))
            got = (_line_integrals(model, ws, c.c)[0], lower_hazard, discounted_cost)
            for j, geom in enumerate(line_geometry(ws)):
                lam = lower(geom.states)
                step = 0.5 * (lam[:-1] + lam[1:]) * geom.dt
                hazard = np.concatenate(([0.0], np.cumsum(step)))
                z = step - c.c * geom.dt
                growth_cum = np.concatenate(([0.0], np.cumsum(z)))
                fv = fsup(geom.states)
                # the running cost linear on each interval against the exactly
                # integrated exponential weight
                exact = fv[:-1] * (phi0(step) - phi1(step)) + fv[1:] * phi1(step)
                want = (np.sum(np.exp(-growth_cum[:-1]) * geom.dt * phi0(z)), hazard[-1],
                        np.sum(np.exp(-hazard[:-1]) * geom.dt * exact))
                for g, w in zip(got, want):
                    assert abs(g[j] - w) <= 1e-12 * max(1.0, abs(w)), (name, j)

    @pytest.mark.parametrize("fill", [8, 16])
    def test_discounted_cost_bound_is_the_closed_form_on_a_pure_jump_model(self, models, fill):
        # ctmdp_2state never moves, so the bound on int e^{-lambda_lower t} f
        # over its window is f (1 - e^{-lambda_lower t_max}) / lambda_lower
        # per state, 3.5 and 1.46667
        from pdmp_avgctl.model import _line_integrals

        model = models["ctmdp_2state"]
        ws = pa.OperatorWorkspace(model, fill)
        lam = model.constants.lambda_lower
        fsup = np.where(model.feasible_mask, model.running_cost, -np.inf).max(axis=1)
        want = fsup * -np.expm1(-lam * model.t_max) / lam
        got, _ = _line_integrals(model, ws, 0.0, pa.Table1D(model.grid.points, fsup)(ws.mesh.states))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert np.allclose(want, [3.5, 1.46667], rtol=0, atol=5e-6)
        item = audit_lowest(model, workspace=ws).item("discounted-cost-integrable")
        assert item.worst_location == "max over states: 3.5"

    def test_report_serializes(self, models):
        report = audit_lowest(models["ctmdp_2state"])
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["schema"] == "pdmp-audit/1"
        assert payload["policy"] == "given policy"
        assert {it["name"] for it in payload["items"]} >= {"interior-growth", "cost-vs-weight", "kernel-drift", "growth-integral"}


class TestAuditSlackMonotonicity:
    """Loosening a constant can only loosen the corresponding check."""

    def _statuses(self, doc):
        model = pa.model_from_dict(copy.deepcopy(doc))
        report = audit_lowest(model)
        return {it.name: (it.status, it.worst_slack) for it in report.items}

    @pytest.mark.parametrize("constant,item", [("b", "interior-growth"), ("M", "cost-vs-weight"), ("K_g", "kernel-drift")])
    def test_increasing_constant_never_breaks_a_pass(self, constant, item):
        rng = np.random.default_rng(42)
        doc = two_state_jump_doc()
        for _ in range(10):
            base = copy.deepcopy(doc)
            base["constants"][constant] *= float(rng.uniform(0.2, 1.0))
            before = self._statuses(base)
            base["constants"][constant] *= float(rng.uniform(1.0, 3.0))
            after = self._statuses(base)
            if before[item][0] == "pass":
                assert after[item][0] == "pass"
            assert after[item][1] >= before[item][1] - 1e-12


class TestFeedbackPolicy:
    def test_lowest_feasible_respects_masks(self, write_model):
        doc = two_state_jump_doc()
        doc["actions"]["feasible"] = [[1], [0, 1]]
        model = pa.load_model(write_model(doc))
        policy = pa.FeedbackPolicy.lowest_feasible(model)
        assert policy.interior.tolist() == [1, 0]
        assert policy.feasibility_problems(model) == []

    def test_infeasible_policy_is_reported(self, models):
        model = models["ctmdp_2state"]
        bad = pa.FeedbackPolicy(interior=np.array([5, 0]), boundary=np.array([], dtype=np.int64))
        assert bad.feasibility_problems(model)

    def test_wrong_length_policy_is_reported(self, models):
        model = models["drift_boundary_64"]
        short = pa.FeedbackPolicy(interior=np.zeros(10, dtype=np.int64),
                                  boundary=np.zeros(3, dtype=np.int64))
        assert short.feasibility_problems(model) == [
            "policy has 10 interior entries, model has 64",
            "policy has 3 boundary entries, model has 1",
        ]

    def test_problems_follow_the_per_state_membership_rule(self, models):
        # the masked check gives the messages, in the order, of testing each
        # state's action for membership in its feasible set
        rng = np.random.default_rng(9)
        for model in models.values():
            grid = model.action_grid
            for _ in range(5):
                policy = pa.FeedbackPolicy(interior=rng.integers(-1, model.n_actions + 1, model.n_states),
                                           boundary=rng.integers(-1, model.n_actions + 1, model.n_boundary))
                want = [f"action {a} infeasible at interior state {i}"
                        for i, a in enumerate(policy.interior.tolist()) if a not in grid.feasible[i]]
                want += [f"action {a} infeasible at boundary point {i}"
                         for i, a in enumerate(policy.boundary.tolist()) if a not in grid.boundary_feasible[i]]
                assert policy.feasibility_problems(model) == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(pa.bundled_model_names())), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["feasible", "one entry", "random", "length", "float", "bool", "uint", "list"]))
    def test_the_one_test_accept_and_the_messages_agree(self, models, name, seed, kind):
        # the vectorised accept and the message-building path give one list:
        # [] exactly when every entry is feasible
        model, rng = models[name], np.random.default_rng(seed)
        policy = random_feasible(model, rng)
        interior, boundary = policy.interior.copy(), policy.boundary
        if kind == "one entry":
            interior[rng.integers(model.n_states)] = rng.integers(-2, model.n_actions + 2)
        elif kind == "random":
            interior = rng.integers(-1, model.n_actions + 1, model.n_states)
        elif kind == "length":
            interior = interior[:-1]
        elif kind in ("float", "bool", "uint"):
            interior = interior.astype({"float": float, "bool": bool, "uint": np.uint8}[kind])
        elif kind == "list":
            interior = interior.tolist()
        candidate = pa.FeedbackPolicy(interior=interior, boundary=boundary)
        got = candidate.feasibility_problems(model)
        assert got == candidate._problems(model)
        if kind in ("feasible", "uint", "list"):
            assert got == []
        elif kind in ("float", "bool"):
            assert got == [f"interior actions must be a flat array of integer action indices, "
                           f"got {interior.dtype} of shape ({model.n_states},)"]

    def test_random_feasible_policies(self, models):
        rng = np.random.default_rng(0)
        model = models["drift_boundary_64"]
        for _ in range(5):
            policy = random_feasible(model, rng)
            assert policy.feasibility_problems(model) == []
