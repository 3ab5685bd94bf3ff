"""The scripts under ``tools/``.

The benchmark's model generator (``perfbench/drift.py``) imports the
bundled-model recipes of ``tools/build_bundled_models.py`` by path and tunes
its constants with the script's ``sup_*`` functions, so the tuners are
checked here against the per-path reference quadrature, and every recipe
must write its bundled model byte for byte.  The scaling
benchmark ``tools/bench_scaling.py`` is run on one small grid, with the
benchmark's host-speed probe, and ``tools/bundled_artifacts.py`` on one
bundled model.  The library names that the benchmark's tracer
(``perfbench/tracing.py``) and generator reach are checked to resolve.
"""

import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import pdmp_avgctl as pa
from pdmp_avgctl.operators import OperatorWorkspace

from reference_quadrature import op_G, policy_paths

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PERFBENCH = TOOLS.parent / "perfbench"


def load_tool(name: str, directory: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recipes():
    return load_tool("build_bundled_models")


def reference_kernel_drift_gap(model, k_g: float) -> float:
    """max over constant-action sweeps and lines of (G g)(x) - k_g g(x), path by path."""
    ws = OperatorWorkspace(model, 32)
    worst = -np.inf
    for a in range(model.n_actions):
        interior = np.array([a if a in f else f[0] for f in model.action_grid.feasible], dtype=np.int64)
        bnd = np.array([a if a in f else f[0] for f in model.action_grid.boundary_feasible], dtype=np.int64)
        for j, path in enumerate(policy_paths(ws, pa.FeedbackPolicy(interior, bnd))):
            worst = max(worst, op_G(0.0, model.lyapunov_g, path) - k_g * model.lyapunov_g[j])
    return float(worst)


@pytest.mark.parametrize("name, g_scale", [("drift_boundary_64", 1.0), ("drift_boundary_64", 2.0),
                                           ("decay_flow_16", 1.0)])
def test_kernel_drift_gap_matches_the_reference_quadrature(recipes, name, g_scale):
    # g_scale 2 keeps g above 1 everywhere, so k_g * g and k_g differ on every line
    doc = json.loads(pa.bundled_model_path(name).read_text())
    doc["lyapunov"]["g"] = [g_scale * g for g in doc["lyapunov"]["g"]]
    model = pa.model_from_dict(doc)
    k_g = model.constants.k_g
    got = recipes.sup_kernel_drift_gap(model, k_g)
    assert abs(got - reference_kernel_drift_gap(model, k_g)) <= 1e-12


def test_bundled_constants_cover_the_tuned_gap(recipes):
    # finalize() sets K_g to 1.2 times the gap, rounded to 6 digits
    model = pa.load_model(pa.bundled_model_path("drift_boundary_64"))
    gap = recipes.sup_kernel_drift_gap(model, model.constants.k_g)
    assert model.constants.K_g == round(max(gap * 1.2, 0.1), 6)


@pytest.mark.parametrize("name", pa.bundled_model_names())
def test_recipes_regenerate_the_bundled_models(recipes, monkeypatch, tmp_path, capsys, name):
    # each recipe tunes its constants with the sup_* functions the benchmark
    # generator imports, so any change to what they compute shows in the bytes
    monkeypatch.setattr(recipes, "OUT", tmp_path)
    monkeypatch.chdir(tmp_path)
    getattr(recipes, name)()
    assert (tmp_path / f"{name}.json").read_bytes() == pa.bundled_model_path(name).read_bytes()
    assert f"wrote {name}.json" in capsys.readouterr().out


def test_scaling_row_on_a_small_grid(tmp_path, monkeypatch):
    bench = load_tool("bench_scaling")
    monkeypatch.setattr(bench, "BUDGET_S", 0.0)  # MIN_SAMPLES calls per column
    path = tmp_path / "drift_16.json"
    path.write_text(json.dumps(bench.drift_doc(16)))
    row = bench.measure(path)
    model = pa.load_model(path)
    ws = pa.refined_workspace(model, pa.FeedbackPolicy.lowest_feasible(model))
    assert (row["n"], row["refined_fill"]) == (16, ws.fill)
    assert row["mesh_nodes"] == ws.mesh.times.size
    mesh = ws.mesh
    arrays = (mesh.times, mesh.states, mesh.ilo, mesh.wlo, mesh.lam_nodes, mesh.f_nodes)
    assert row["mesh_mb"] == round(sum(a.nbytes for a in arrays) / 2**20, 3)
    assert row["rho"] == pa.evaluate_policy(model, pa.FeedbackPolicy.lowest_feasible(model), workspace=ws).rho
    # the tables are the piece tables; the chain geometry is the model's, shared by its workspaces
    tables = ws.segment_tables()
    table_bytes = sum(getattr(tables, f.name).nbytes for f in dataclasses.fields(tables))
    assert row["tables_mb"] == round(table_bytes / 2**20, 3)
    assert row["load_s"] > 0.0 and 0.0 < row["rss_after_load_mb"] <= row["peak_rss_mb"]
    # times keep 3 significant figures, so the sub-millisecond layers read non-zero
    for key in ("audit_s", "refine_s", "workspace_build_s", "tables_s", "assemble_s", "evaluate_s",
                "improve_certify_s", "pia_step_s", "prepare_s"):
        assert row[key] > 0.0 and row[f"ref_{key}"] > 0.0, key
        assert row[key] == float(f"{row[key]:.3g}") and row[f"ref_{key}"] == float(f"{row[f'ref_{key}']:.3g}"), key
    assert row["tables_mb"] > 0.0 and row["peak_rss_mb"] > 0.0
    # the refinement builds the mesh it returns; the simulation tables hold a node table or more
    assert row["refine_peak_mb"] >= row["mesh_mb"] and row["prepare_peak_mb"] > 0.0
    assert row["mc_us_per_jump"] > 0.0 and row["mc_fixed_us"] > 0.0
    assert row["ref_mc_us_per_jump"] > 0.0 and row["ref_mc_fixed_us"] > 0.0 and row["slowdown"] > 0.0
    assert set(bench.machine()) >= {"cores", "numpy", "python"}


def test_scaling_records_the_package_import_cost(monkeypatch):
    bench = load_tool("bench_scaling")
    monkeypatch.setattr(bench, "IMPORT_SAMPLES", 1)
    cost = bench.import_cost()
    assert cost["import_ms"] > 0.0 and cost["import_ms"] == float(f"{cost['import_ms']:.3g}")
    assert cost["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)


def test_scaling_columns_fill_their_budget(monkeypatch):
    bench = load_tool("bench_scaling")
    monkeypatch.setattr(bench, "BUDGET_S", 0.0)
    assert len(bench._timed(lambda: None)) == bench.MIN_SAMPLES
    monkeypatch.setattr(bench, "BUDGET_S", 0.02)
    assert len(bench._timed(lambda: None)) > bench.MIN_SAMPLES


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_bundled_artifacts_are_reproduced_byte_for_byte(tmp_path, capsys):
    # two runs into two directories write the same tree, the directory masked
    # in the console lines, so a diff of two checkouts' trees shows only what
    # the code changed
    tool = load_tool("bundled_artifacts")
    trees = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert tool.main([str(out), "ctmdp_2state"]) == 0
        trees.append(_tree(out / "ctmdp_2state"))
    first, second = trees
    assert first == second
    steps = ("audit", "evaluate", "solve", "simulate", "trajectory", "report")
    assert {name.split("/")[0] for name in first} == {"console.txt", *steps}
    assert {"solve/policy.json", "simulate/mc_summary.json", "trajectory/trajectory.csv",
            "report/rho_vs_n.csv"} <= set(first)
    console = first["console.txt"].decode()
    assert console.count("\nexit 0\n") == 1 + len(steps) and "OUT/ctmdp_2state/solve" in console
    assert str(tmp_path) not in console and "wrote " in capsys.readouterr().out


def test_the_library_keeps_what_the_benchmark_reaches():
    # the tracer skips a name it does not find, so a metric reads 0 rather
    # than the run failing: the names it wraps must resolve.  Its METHODS are
    # left out: they still name OperatorWorkspace.improve and
    # .optimality_residual, which improve_and_certify replaced, so their
    # metrics read 0 until the benchmark wraps the new name.
    tracing = load_tool("tracing", PERFBENCH)
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(getattr(pa, module), attr, None)), (module, attr)
    model = pa.load_model(pa.bundled_model_path("renewal_cycle"))
    policy = pa.FeedbackPolicy.lowest_feasible(model)
    ws = OperatorWorkspace(model)
    # assemble_counted passes alpha by position and reads the per-policy cache
    kernel = OperatorWorkspace.assemble(ws, policy, 0.0)[0]
    assert kernel.shape == (model.n_states, model.n_states)
    assert (policy.key(), 0.0) in ws._assembled
    # _after_refine sizes the mesh from the per-piece views' array fields
    assert ws.geometry and all(dataclasses.is_dataclass(piece) for piece in ws.geometry)
    assert sum(piece.times.size for piece in ws.geometry) == ws.mesh.times.size
    # the worker reads the PIA trace's rho sequence
    assert isinstance(inspect.getattr_static(pa.PiaTrace, "rhos"), property)
    # perfbench/drift.py tunes drift_N with the recipes, which read the audit's line integrals
    from pdmp_avgctl.model import _line_integrals

    assert callable(_line_integrals)
