import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl import cli, operators

from toy_models import dominated_toy_doc, renewal_doc, two_state_jump_doc


def run_cli(args) -> int:
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture
def bundled(tmp_path):
    # copy so artifacts land next to nothing important
    return pa.bundled_model_path("ctmdp_2state")


class TestExitCodes:
    def test_validate_ok(self, bundled, tmp_path):
        assert run_cli(["validate", "--model", bundled, "--out", tmp_path]) == 0

    def test_validate_flags_corrupted_kernel(self, write_model, tmp_path):
        doc = two_state_jump_doc()
        doc["kernel"]["interior"][1][0] = [0.6, 0.4 + 5e-10]
        path = write_model(doc, "corrupt")
        assert run_cli(["validate", "--model", path, "--out", tmp_path]) == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli(["validate", "--model", tmp_path / "none.json"]) == 2

    def test_unparsable_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["validate", "--model", bad]) == 2

    def test_zero_horizon_is_usage_error(self, bundled, tmp_path):
        code = run_cli(["simulate", "--model", bundled, "--horizon", "0",
                        "--seed", "1", "--out", tmp_path])
        assert code == 2

    def test_missing_seed_is_usage_error(self, bundled, tmp_path):
        assert run_cli(["simulate", "--model", bundled, "--out", tmp_path]) == 2

    def test_max_iter_exhaustion_is_nonconvergence(self, tmp_path):
        model = pa.bundled_model_path("decay_flow_16")
        code = run_cli(["solve", "--model", model, "--max-iter", "1", "--out", tmp_path])
        assert code == 3

    def test_strict_audit_failure(self, write_model, tmp_path):
        doc = two_state_jump_doc()
        doc["constants"]["b"] = 0.0  # interior-growth check fails (sup equals c > 0)
        path = write_model(doc, "auditfail")
        code = run_cli(["solve", "--model", path, "--strict-audit", "--out", tmp_path])
        assert code == 4

    def test_failed_verdict_exits_1(self, write_model, tmp_path, capsys):
        path = write_model(dominated_toy_doc(), "dom")
        code = run_cli(["simulate", "--model", path, "--rho", "100", "--horizon", "200",
                        "--reps", "4", "--seed", "1", "--out", tmp_path])
        assert code == 1
        assert capsys.readouterr().out.startswith("verdict=fail ")
        verdict = json.loads((tmp_path / "mc_summary.json").read_text())
        assert verdict["passed"] is False and verdict["rho"] == 100.0

    def test_simulation_abort_maps_to_exit_5(self, bundled, tmp_path, monkeypatch):
        from pdmp_avgctl.simulation import SimulationExplosionError

        def boom(*args, **kwargs):
            raise SimulationExplosionError("guard tripped", {"jumps": 1})

        monkeypatch.setattr(cli, "cmd_simulate", cli.cmd_simulate)  # keep reference
        monkeypatch.setattr("pdmp_avgctl.simulation.mc_validate", boom)
        code = run_cli(["simulate", "--model", bundled, "--rho", "1.0",
                        "--seed", "1", "--out", tmp_path])
        assert code == 5


class TestBadInput:
    @pytest.mark.parametrize("doc", [
        {"boundary": []},
        [[0, 0], []],
        "interior",
        {"interior": [[0], [0]]},
        {"interior": ["a", "b"]},
        {"interior": [1.5, 0]},
        {"interior": [10 ** 30, 0]},
    ], ids=["no-interior", "top-level-list", "top-level-string", "nested", "non-integer", "fractional",
            "overflow"])
    def test_malformed_policy_file_is_usage_error(self, bundled, tmp_path, capsys, doc):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(doc))
        code = run_cli(["solve", "--model", bundled, "--policy", policy, "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: policy file")

    def test_wrong_length_policy_is_refused(self, tmp_path, capsys):
        model = pa.bundled_model_path("drift_boundary_64")
        policy = tmp_path / "short.json"
        policy.write_text(json.dumps({"interior": [0] * 10, "boundary": [0]}))
        code = run_cli(["solve", "--model", model, "--policy", policy, "--out", tmp_path])
        assert code == 1
        assert "policy has 10 interior entries, model has 64" in capsys.readouterr().err

    def test_policy_for_another_model_is_refused(self, write_model, tmp_path, capsys):
        solved_for = write_model(dominated_toy_doc(gap=0.8), "a")
        other = write_model(dominated_toy_doc(gap=0.5), "b")
        assert run_cli(["solve", "--model", solved_for, "--out", tmp_path]) == 0
        code = run_cli(["simulate", "--model", other, "--policy", tmp_path / "policy.json",
                        "--rho", "1.0", "--seed", "1", "--out", tmp_path])
        assert code == 2
        assert "was written for a different model" in capsys.readouterr().err

    def test_stale_evaluation_rho_is_refused(self, write_model, tmp_path, capsys):
        assert run_cli(["solve", "--model", write_model(dominated_toy_doc(), "a"),
                        "--out", tmp_path]) == 0
        other = write_model(renewal_doc(), "renewal")
        assert run_cli(["simulate", "--model", other, "--seed", "1", "--out", tmp_path]) == 2
        assert "evaluation.json was written for a different model; pass --rho" in \
            capsys.readouterr().err
        assert not (tmp_path / "mc_summary.json").exists()
        assert not (tmp_path / "sim_summary.json").exists()

    @pytest.mark.parametrize("text", ["[1.0]", "{not json"], ids=["not-an-object", "unparsable"])
    def test_malformed_evaluation_file_is_refused(self, write_model, tmp_path, capsys, text):
        (tmp_path / "evaluation.json").write_text(text)
        path = write_model(renewal_doc(), "renewal")
        assert run_cli(["simulate", "--model", path, "--seed", "1", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith("pass --rho")

    def test_matching_evaluation_rho_is_used(self, write_model, tmp_path):
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        rho = json.loads((tmp_path / "evaluation.json").read_text())["rho"]
        code = run_cli(["simulate", "--model", path, "--policy", tmp_path / "policy.json",
                        "--horizon", "100", "--reps", "2", "--seed", "1", "--out", tmp_path])
        assert code == 0
        assert json.loads((tmp_path / "mc_summary.json").read_text())["rho"] == rho

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), "1.0"], ids=["nan", "inf", "string"])
    def test_evaluation_without_a_finite_rho_is_refused(self, write_model, tmp_path, capsys, rho):
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        (tmp_path / "evaluation.json").write_text(json.dumps(dict(evaluation, rho=rho)))
        code = run_cli(["simulate", "--model", path, "--policy", tmp_path / "policy.json",
                        "--horizon", "100", "--reps", "2", "--seed", "1", "--out", tmp_path])
        assert code == 2
        assert "holds no finite rho; pass --rho" in capsys.readouterr().err
        assert not (tmp_path / "mc_summary.json").exists()

    def test_evaluation_rho_of_another_policy_is_refused(self, write_model, tmp_path, capsys):
        # solve evaluates its optimal policy; simulate without --policy runs lowest_feasible
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "policy.json").read_text())["interior"] == [1, 1]
        args = ["simulate", "--model", path, "--horizon", "100", "--reps", "2", "--seed", "1",
                "--out", tmp_path]
        assert run_cli(args) == 2
        assert "evaluation.json was written for a different policy; pass --rho or --policy" in \
            capsys.readouterr().err
        assert not (tmp_path / "mc_summary.json").exists()
        assert run_cli(args + ["--policy", tmp_path / "policy.json"]) == 0
        assert (tmp_path / "mc_summary.json").exists()

    def test_trajectory_csv_with_rho_is_refused(self, write_model, tmp_path, capsys):
        # a verdict run records no trajectory, so --trajectory-csv is refused, not ignored
        path = write_model(renewal_doc(), "renewal")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", path, "--rho", "0.7", "--horizon", "50", "--reps", "2",
                        "--seed", "1", "--trajectory-csv", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --trajectory-csv ") and "rho from --rho makes" in err
        assert not out.exists() or not any(out.iterdir())

    def test_trajectory_csv_with_an_evaluation_rho_is_refused(self, write_model, tmp_path, capsys):
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        capsys.readouterr()
        code = run_cli(["simulate", "--model", path, "--policy", tmp_path / "policy.json", "--horizon", "100",
                        "--reps", "2", "--seed", "1", "--trajectory-csv", "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --trajectory-csv ") and "evaluation.json makes" in err and "--rho" in err
        assert not (tmp_path / "mc_summary.json").exists()
        assert not (tmp_path / "trajectory.csv").exists()

    def test_evaluate_records_its_policy_for_simulate(self, write_model, tmp_path):
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["evaluate", "--model", path, "--out", tmp_path]) == 0
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        assert evaluation["policy"] == {"interior": [0, 0], "boundary": []}
        assert run_cli(["simulate", "--model", path, "--horizon", "100", "--reps", "2",
                        "--seed", "1", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "mc_summary.json").read_text())["rho"] == evaluation["rho"]

    def test_evaluation_without_a_recorded_policy_is_refused(self, write_model, tmp_path, capsys):
        path = write_model(dominated_toy_doc(), "a")
        assert run_cli(["evaluate", "--model", path, "--out", tmp_path]) == 0
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        del evaluation["policy"]
        (tmp_path / "evaluation.json").write_text(json.dumps(evaluation))
        assert run_cli(["simulate", "--model", path, "--seed", "1", "--out", tmp_path]) == 2
        assert "was written for a different policy" in capsys.readouterr().err

    @pytest.mark.parametrize("args,flag", [
        (["evaluate", "--tol", "0"], "--tol"),
        (["solve", "--tol-rho=-1e-8"], "--tol-rho"),
        (["simulate", "--seed", "1", "--reps", "1"], "--reps"),
        (["solve", "--max-iter", "0"], "--max-iter"),
        (["simulate", "--seed", "1", "--horizon", "inf"], "--horizon"),
        (["simulate", "--seed", "1", "--horizon", "nan"], "--horizon"),
        (["simulate", "--seed", "18446744073709551616"], "--seed"),
        (["simulate", "--seed", "-1"], "--seed"),
        (["simulate", "--seed", "1", "--rho", "nan"], "--rho"),
        (["simulate", "--seed", "1", "--rho", "inf"], "--rho"),
    ])
    def test_bad_numeric_flag_is_explained(self, bundled, tmp_path, capsys, args, flag):
        code = run_cli(args + ["--model", bundled, "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("t_max", [-5, 0, math.inf, math.nan], ids=["negative", "zero", "inf", "nan"])
    def test_bad_t_max_is_refused(self, write_model, tmp_path, capsys, command, t_max):
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        doc["flow"]["t_max"] = t_max
        code = run_cli([command, "--model", write_model(doc), "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: 'flow.t_max' must be a finite number > 0, got {t_max!r}\n"

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("c", [1e-320, math.inf], ids=["overflowing", "infinite"])
    def test_a_default_t_max_that_is_not_finite_and_positive_is_refused(self, write_model, tmp_path, capsys,
                                                                        command, c):
        # decay_flow_16 omits flow.t_max, so it defaults to 50 / c: inf for a
        # c this small, 0 for an infinite one
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        assert "t_max" not in doc["flow"]
        doc["constants"]["c"] = c
        code = run_cli([command, "--model", write_model(doc), "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err == (f"error: the default flow.t_max = 50 / constants.c is {50.0 / c!r} for "
                                           f"constants.c = {c!r}; give flow.t_max, a finite number > 0\n")

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("path, value", [(("rates", "lambda", 0, 0), True), (("lyapunov", "g", 3), False)],
                             ids=["nested", "flat"])
    def test_a_boolean_inside_a_numeric_table_is_refused(self, write_model, tmp_path, capsys, command, path, value):
        # json reads true and false as Python bools, which a float table takes for 1 and 0
        doc = _mutated(json.loads(pa.bundled_model_path("decay_flow_16").read_text()), path, value)
        code = run_cli([command, "--model", write_model(doc), "--out", tmp_path])
        assert code == 2
        where = path[0] + "." + path[1] + "".join(f"[{i}]" for i in path[2:])
        assert capsys.readouterr().err == f"error: '{where}' must be a number, got {value!r}\n"

    @pytest.mark.parametrize("field", ["alpha0", "alpha1", "velocity"])
    def test_a_non_finite_flow_coefficient_is_refused(self, write_model, capsys, field):
        doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
        if field == "velocity":
            doc["flow"] = {"kind": "tabulated1d", "velocity": [1.0] * 63 + [math.inf]}
            want = "error: tabulated1d velocity must be finite\n"
        else:
            doc["flow"][field] = math.inf
            want = ("error: affine1d coefficients must be finite, got "
                    f"alpha0={doc['flow']['alpha0']!r}, alpha1={doc['flow']['alpha1']!r}\n")
        assert run_cli(["validate", "--model", write_model(doc)]) == 2
        assert capsys.readouterr().err == want

    def test_a_kernel_that_loses_mass_ends_the_solve(self, write_model, tmp_path, capsys):
        # renewal_cycle never jumps on its own; with the flow reversed no line
        # reaches the boundary, so no kernel row has mass: the audit cannot
        # certify ergodicity and the solve stops with exit 3, not a traceback
        doc = json.loads(pa.bundled_model_path("renewal_cycle").read_text())
        doc["flow"]["alpha0"] = -1.0
        model = write_model(doc)
        assert run_cli(["validate", "--model", model]) == 0
        capsys.readouterr()
        run_cli(["audit", "--model", model, "--out", tmp_path])
        item = next(it for it in json.loads((tmp_path / "audit.json").read_text())["items"]
                    if it["name"] == "geometric-ergodicity")
        assert (item["status"], item["note"]) == ("not_checkable", "not certified: kernel rows must sum to 1 "
                                                                   "within 1e-6 (max deviation 1.000e+00)")
        capsys.readouterr()
        assert run_cli(["solve", "--model", model, "--out", tmp_path]) == 3
        assert capsys.readouterr().err == "error: kernel rows must sum to 1 within 1e-6 (max deviation 1.000e+00)\n"

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("field", ["feasible", "boundary_feasible"])
    @pytest.mark.parametrize("index", [0.5, True], ids=["fractional", "bool"])
    def test_non_integer_action_index_is_refused(self, write_model, tmp_path, capsys, command, field, index):
        doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
        doc["actions"][field][0] = [index]
        code = run_cli([command, "--model", write_model(doc), "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err == f"error: 'actions.{field}[0]' must hold integer action indices\n"

    @pytest.mark.parametrize("path, value, message", [
        (("grid", "points", 1), "x", "table 'grid.points' is not numeric"),
        (("actions", "values", 1), "x", "table 'actions.values' is not numeric"),
        (("constants", "c"), "x", "'constants.c' must be a number, got 'x'"),
        (("constants", "b"), True, "'constants.b' must be a number, got True"),
        (("flow", "alpha0"), "x", "'flow.alpha0' must be a number, got 'x'"),
        (("flow", "alpha1"), None, "'flow.alpha1' must be a number, got None"),
        (("constants",), 3, "'constants' must be an object"),
    ])
    def test_malformed_model_field_is_refused(self, write_model, tmp_path, capsys, path, value, message):
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert run_cli(["validate", "--model", write_model(doc), "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key", ["points", "boundary_points"])
    def test_a_null_grid_coordinate_fails_validation(self, write_model, tmp_path, capsys, key):
        doc = json.loads(pa.bundled_model_path("drift_boundary_64").read_text())
        doc["grid"][key][0] = None
        assert run_cli(["validate", "--model", write_model(doc), "--out", tmp_path]) == 1
        assert f"violation [finite] at grid.{key}: grid.{key} contains non-finite entries" in capsys.readouterr().out

    @pytest.mark.parametrize("name, path", [
        ("ctmdp_2state", ("kernel", "interior", 0, 0, 0)),
        ("drift_boundary_64", ("kernel", "boundary", 0, 1, 3)),
        ("ctmdp_2state", ("actions", "values", 0)),
    ], ids=["kernel.interior", "kernel.boundary", "actions.values"])
    def test_a_null_kernel_entry_or_action_value_fails_validation(self, write_model, tmp_path, capsys, name, path):
        # a JSON null reads as NaN, which the kernel's row-sum and sign checks never flag
        doc = json.loads(pa.bundled_model_path(name).read_text())
        *parents, key = path
        node = doc
        for part in parents:
            node = node[part]
        node[key] = None
        table = ".".join(path[:2])
        model = write_model(doc)
        assert run_cli(["validate", "--model", model, "--out", tmp_path]) == 1
        assert f"violation [finite] at {table}: {table} contains non-finite entries" in capsys.readouterr().out
        assert run_cli(["solve", "--model", model, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == "error: model fails validation\n"

    @pytest.mark.parametrize("rate", [1e12, 1e300], ids=["above-the-cap", "non-finite"])
    def test_a_mesh_past_the_node_cap_is_refused(self, write_model, tmp_path, capsys, rate):
        # every rate at 1e12 asks decay_flow_16 for 1.1e13 nodes (80.7 TiB), and
        # at 1e300 for an infinite count; neither is allocated
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        doc["rates"]["lambda"] = [[rate] * len(row) for row in doc["rates"]["lambda"]]
        model = write_model(doc)
        assert run_cli(["validate", "--model", model, "--out", tmp_path]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"violation [mesh.size] at flow: the mesh at fill {operators.DEFAULT_FILL} would have ")
        assert f"nodes, more than MAX_MESH_NODES = {operators.MAX_MESH_NODES}: lambda_sup x duration is " in out
        assert out.count("\n") == 1
        assert run_cli(["solve", "--model", model, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == "error: model fails validation\n"
        with pytest.raises(ValueError, match="more than MAX_MESH_NODES"):
            pa.OperatorWorkspace(pa.load_model(model))

    def test_refinement_past_the_node_cap_solves_on_the_last_mesh_within_it(self, tmp_path, capsys,
                                                                            monkeypatch):
        # decay_flow_16 passes validation at fill 8 (367 nodes) under a cap of
        # 2000, and its refinement would double past it at fill 64 (2774)
        monkeypatch.setattr(operators, "MAX_MESH_NODES", 2000)
        model = pa.bundled_model_path("decay_flow_16")
        with pytest.warns(RuntimeWarning, match=r"stopped at fill 32 \(fill 64 would pass MAX_MESH_NODES = 2000\)"):
            code = run_cli(["solve", "--model", model, "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out.startswith("status=converged rho=")
        assert json.loads((tmp_path / "evaluation.json").read_text())["residual"] <= 1e-8

    def test_a_t_max_far_past_every_jump_solves_as_the_default(self, write_model, tmp_path):
        # decay_flow_16's one exit piece is constant, one interval at any t_max:
        # t_max = 1e300 leaves its mesh and rho as they are, with no count cast
        # from inf to int64 on the way
        doc = json.loads(pa.bundled_model_path("decay_flow_16").read_text())
        rhos = []
        for t_max in (None, 1e300):
            if t_max is not None:
                doc["flow"]["t_max"] = t_max
            out = tmp_path / str(t_max)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(["solve", "--model", write_model(doc), "--out", out]) == 0
            rhos.append(json.loads((out / "evaluation.json").read_text())["rho"])
        assert rhos[0] == rhos[1]

    @pytest.mark.parametrize("trace", [
        [{"n": 0, "rho": 1.0, "poisson_residual": 0.0, "optimality_residual": 0.0}],
        {"iterations": 5},
        {"iterations": [{"n": 0, "poisson_residual": 0.0, "optimality_residual": 0.0}]},
        {"iterations": [[0, 1.0, 0.0, 0.0]]},
        {},
    ], ids=["list", "iterations-not-a-list", "row-without-rho", "row-not-an-object", "no-iterations"])
    def test_malformed_trace_is_refused(self, tmp_path, capsys, trace):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        assert run_cli(["report", "--trace", path, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: trace {path} must be a JSON object with an \"iterations\" list")
        assert err.count("\n") == 1
        assert not (tmp_path / "rho_vs_n.csv").exists()


class TestSolveArtifacts:
    def test_single_action_model_one_row_trace(self, write_model, tmp_path):
        path = write_model(renewal_doc(), "renewal")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["status"] == "converged"
        assert len(trace["iterations"]) == 1
        csv_lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# model_sha256=")
        assert csv_lines[1].split(",")[:3] == ["n", "rho", "poisson_residual"]

    def test_dominated_toy_solves_to_better_action(self, write_model, tmp_path):
        path = write_model(dominated_toy_doc(), "dom")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        policy = json.loads((tmp_path / "policy.json").read_text())
        assert policy["interior"] == [1, 1]

    def test_solve_accepts_a_configured_initial_policy(self, write_model, tmp_path):
        path = write_model(dominated_toy_doc(), "dom")
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"interior": [1, 1], "boundary": []}))
        assert run_cli(["solve", "--model", path, "--policy", start, "--out", tmp_path]) == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["iterations"]) == 1  # started at the optimum

    def test_solve_builds_each_fill_once(self, tmp_path, monkeypatch):
        # the audit runs on the fill-8 workspace that refinement then starts from
        from pdmp_avgctl.operators import OperatorWorkspace

        fills = []
        build = OperatorWorkspace.__init__

        def counted(ws, model, fill=8):
            fills.append(fill)
            build(ws, model, fill)

        monkeypatch.setattr(OperatorWorkspace, "__init__", counted)
        path = pa.bundled_model_path("drift_boundary_64")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        assert fills == [8, 16, 32, 64, 128]

    def test_artifacts_embed_model_hash_and_version(self, bundled, tmp_path):
        run_cli(["solve", "--model", bundled, "--out", tmp_path])
        model = pa.load_model(bundled)
        for name in ("evaluation.json", "policy.json", "trace.json"):
            doc = json.loads((tmp_path / name).read_text())
            assert doc["model_sha256"] == model.source_hash
            assert doc["tool_version"] == pa.__version__

    def test_reruns_are_byte_identical(self, bundled, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli(["solve", "--model", bundled, "--out", out1])
        run_cli(["solve", "--model", bundled, "--out", out2])
        for name in ("evaluation.json", "policy.json", "trace.json", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestPipeline:
    def test_solve_then_simulate_verdict_passes(self, write_model, tmp_path):
        path = write_model(dominated_toy_doc(), "dom")
        assert run_cli(["solve", "--model", path, "--out", tmp_path]) == 0
        rho = json.loads((tmp_path / "evaluation.json").read_text())["rho"]
        code = run_cli(["simulate", "--model", path, "--policy", tmp_path / "policy.json",
                        "--rho", rho, "--horizon", "3000", "--reps", "8",
                        "--seed", "9", "--out", tmp_path])
        assert code == 0
        verdict = json.loads((tmp_path / "mc_summary.json").read_text())
        assert verdict["passed"] is True

    def test_simulate_samples_the_refined_mesh(self, tmp_path, monkeypatch):
        # the verdict and the plain run both read the mesh refined for the
        # simulated policy, on which evaluate prices it, not a fresh one at
        # DEFAULT_FILL: decay_flow_16 refines to a finer fill
        from pdmp_avgctl import simulation

        path = pa.bundled_model_path("decay_flow_16")
        model = pa.load_model(path)
        fill = pa.refined_workspace(model, pa.FeedbackPolicy.lowest_feasible(model)).fill
        assert fill > operators.DEFAULT_FILL
        seen = []

        def spy(call):
            def recorded(*args, workspace=None, **kwargs):
                seen.append((call.__name__, None if workspace is None else workspace.fill))
                return call(*args, workspace=workspace, **kwargs)
            return recorded

        monkeypatch.setattr(simulation, "mc_validate", spy(simulation.mc_validate))
        monkeypatch.setattr(simulation, "prepare_simulation", spy(simulation.prepare_simulation))
        args = ["simulate", "--model", path, "--horizon", "20", "--seed", "1", "--out", tmp_path]
        assert run_cli(args + ["--rho", "0.56", "--reps", "2"]) in (0, 1)
        assert run_cli(args) == 0
        assert seen == [("mc_validate", fill), ("prepare_simulation", fill), ("prepare_simulation", fill)]

    def test_plain_simulation_summary_and_trajectory(self, write_model, tmp_path):
        path = write_model(renewal_doc(), "renewal")
        code = run_cli(["simulate", "--model", path, "--horizon", "50", "--seed", "3",
                        "--trajectory-csv", "--out", tmp_path])
        assert code == 0
        summary = json.loads((tmp_path / "sim_summary.json").read_text())
        assert summary["average"] == pytest.approx(0.7, abs=1e-12)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[1].split(",") == ["t", "event_type", "state", "cost_so_far"]
        assert lines[-1].split(",")[1] == "end"

    def test_report_emits_plot_csvs(self, bundled, tmp_path):
        run_cli(["solve", "--model", bundled, "--out", tmp_path])
        assert run_cli(["report", "--trace", tmp_path / "trace.json", "--out", tmp_path]) == 0
        rho_rows = (tmp_path / "rho_vs_n.csv").read_text().splitlines()
        assert rho_rows[1] == "n,rho"
        assert len(rho_rows) >= 3

    def test_audit_command_writes_report(self, bundled, tmp_path):
        assert run_cli(["audit", "--model", bundled, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["passed"] is True

    def test_evaluate_command(self, bundled, tmp_path):
        assert run_cli(["evaluate", "--model", bundled, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "evaluation.json").read_text())
        assert doc["rho"] == pytest.approx(1.5625, abs=1e-9)


def _at(node, path: tuple):
    """The node at ``path`` inside ``node``."""
    for key in path:
        node = node[key]
    return node


def _paths(node, path=()):
    """Every path into ``node``, containers and leaves, its own first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


BUNDLED_DOCS = {name: json.loads(pa.bundled_model_path(name).read_text()) for name in pa.bundled_model_names()}
# per document and section, the paths into it; a section is drawn first, so the
# large kernel tables do not crowd out the scalars
DOC_PATHS = {name: {key: list(_paths(doc[key], (key,))) for key in doc} for name, doc in BUNDLED_DOCS.items()}
# per document and section, the paths to its non-empty lists
LIST_PATHS = {name: {key: [p for p in paths if isinstance(node := _at(BUNDLED_DOCS[name], p), list) and node]
                     for key, paths in sections.items()}
              for name, sections in DOC_PATHS.items()}
# 1e400 is written as Infinity, which reads back as inf, and nan as NaN; the
# integers are an action index past the grid, past int64 and past uint64,
# and a negative one
REPLACEMENTS = ("x", True, False, None, "list", "dict", 1e-320, -1.0, 1e400, math.nan, 1e300, -1e300,
                99, 2**63, 2**64, -7)


@st.composite
def mutations(draw):
    """(document name, path, mutation): one leaf replaced, one key deleted, a section made a scalar,
    or a list's last entry dropped or repeated."""
    name = draw(st.sampled_from(sorted(BUNDLED_DOCS)))
    section = draw(st.sampled_from(sorted(DOC_PATHS[name])))
    kind = draw(st.sampled_from(("replace", "delete", "scalar section", "reshape")))
    if kind == "reshape" and LIST_PATHS[name][section]:
        return name, draw(st.sampled_from(LIST_PATHS[name][section])), draw(st.sampled_from(("drop last",
                                                                                            "repeat last")))
    if kind == "scalar section":
        return name, (section,), draw(st.sampled_from((3, "x", True, None)))
    if kind == "delete":
        keyed = [p for p in DOC_PATHS[name][section] if isinstance(p[-1], str)]
        return name, draw(st.sampled_from(keyed)), "delete"
    return name, draw(st.sampled_from(DOC_PATHS[name][section])), draw(st.sampled_from(REPLACEMENTS))


def _mutated(doc: dict, path: tuple, mutation) -> dict:
    """``doc`` with ``mutation`` at ``path``; the nodes along the path are copies, so ``doc`` is left as it was."""
    top = node = dict(doc)
    for key in path[:-1]:
        node[key] = dict(node[key]) if isinstance(node[key], dict) else list(node[key])
        node = node[key]
    last = path[-1]
    if mutation == "delete":
        del node[last]
    elif mutation in ("list", "dict"):
        node[last] = [node[last]] if mutation == "list" else {"value": node[last]}
    elif mutation in ("drop last", "repeat last"):
        node[last] = node[last][:-1] if mutation == "drop last" else node[last] + node[last][-1:]
    else:
        node[last] = mutation
    return top


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutation=mutations())
def test_a_mutated_bundled_model_is_validated_or_refused(mutant_dir, mutation):
    # the loader, the validator and solve answer every mutation with a
    # documented exit code, and a refusal with one error line: never with a
    # traceback
    name, path, change = mutation
    model_path = mutant_dir / "mutant.json"
    model_path.write_text(json.dumps(_mutated(BUNDLED_DOCS[name], path, change)))
    for command, codes in (("validate", (0, 1, 2)), ("solve", (0, 1, 2, 3))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a refinement short of its target warns and goes on
            code = run_cli([command, "--model", model_path, "--out", mutant_dir])
        assert code in codes, (mutation, command, code)
        if code == 2 or (command, code) == ("solve", 1):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                (mutation, command, err.getvalue())
