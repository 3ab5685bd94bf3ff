#!/usr/bin/env python3
"""Regenerate the bundled example models.

Each recipe fixes the dynamics and costs first, then sets the growth/ergodicity
constants from the audited suprema with explicit margins, re-audits, and only
then writes JSON.  Run from the repository root:

    python tools/build_bundled_models.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pdmp_avgctl as pa
from pdmp_avgctl.flow import flow_derivative
from pdmp_avgctl.numerics import Table1D

OUT = Path(__file__).resolve().parents[1] / "src" / "pdmp_avgctl" / "models"


def gaussian_row(points: np.ndarray, center: float, width: float) -> list[float]:
    w = np.exp(-(((points - center) / width) ** 2))
    w = w / w.sum()
    return w.tolist()


def sup_cu1(model: pa.PdmpModel) -> float:
    g_tab = Table1D(model.grid.points, model.lyapunov_g)
    xg = flow_derivative(model.flow, g_tab, model.grid.points)
    qg = model.kernel_interior @ model.lyapunov_g
    lam = model.jump_rate[: model.n_states]
    expr = xg[:, None] + model.constants.c * model.lyapunov_g[:, None] \
        - lam * (model.lyapunov_g[:, None] - qg)
    return float(np.where(model.feasible_mask, expr, -np.inf).max())


def sup_growth(model: pa.PdmpModel) -> float:
    from pdmp_avgctl.model import _line_integrals
    from pdmp_avgctl.operators import OperatorWorkspace

    ws = OperatorWorkspace(model, 32)
    return float(_line_integrals(model, ws, model.constants.c)[0].max())


def sup_kernel_drift_gap(model: pa.PdmpModel, k_g: float) -> float:
    """max over constant-action sweeps of Gg - k_g * g (so K_g must exceed it)."""
    from pdmp_avgctl.operators import OperatorWorkspace

    ws = OperatorWorkspace(model, 32)
    worst = -np.inf
    for a in range(model.n_actions):
        interior = np.array([a if a in model.action_grid.feasible[i] else model.action_grid.feasible[i][0]
                             for i in range(model.n_states)], dtype=np.int64)
        bnd = np.array([a if a in model.action_grid.boundary_feasible[i] else model.action_grid.boundary_feasible[i][0]
                        for i in range(model.n_boundary)], dtype=np.int64)
        gg = ws.assemble(pa.FeedbackPolicy(interior, bnd))[0] @ model.lyapunov_g
        worst = max(worst, float(np.max(gg - k_g * model.lyapunov_g)))
    return float(worst)


def finalize(name: str, doc: dict, *, check_strict_optimum: bool = False) -> None:
    """Tune b, M, K_lambda, K_g from audited suprema, re-audit, write JSON."""
    model = pa.model_from_dict(doc, name=name)
    c = doc["constants"]
    c["b"] = round(max(sup_cu1(model) * 1.15, c["c"] + 0.05), 6)
    fmask = model.feasible_mask
    cu3_need = float((np.where(fmask, model.running_cost, -np.inf).max(axis=1) / model.lyapunov_g).max())
    cu3a_need = 0.0
    if model.n_boundary and model.lyapunov_rbar.size:
        with np.errstate(divide="ignore"):
            ratios = np.where(model.boundary_feasible_mask,
                              model.boundary_cost / np.where(model.lyapunov_rbar[:, None] > 0,
                                                             model.lyapunov_rbar[:, None], np.inf),
                              0.0)
        cu3a_need = float(ratios.max()) * (c["c"] + c["delta"])
    c["M"] = round(max(cu3_need, cu3a_need, 0.1) * 1.2, 6)
    c["K_lambda"] = round(sup_growth(model) * 1.3, 6)
    c["K_g"] = round(max(sup_kernel_drift_gap(model, c["k_g"]) * 1.2, 0.1), 6)

    model = pa.model_from_dict(doc, name=name)
    violations = pa.validate_model(model)
    assert not violations, f"{name}: {violations}"
    report = pa.audit_assumptions(model, pa.FeedbackPolicy.lowest_feasible(model))
    failures = [it for it in report.items if it.status == "fail"]
    assert not failures, f"{name}: audit failures {[f.name for f in failures]}"
    for it in report.items:
        # the rate floor holds with equality by construction (lambda_lower = min over actions)
        if it.name != "rate-floor" and it.status == "pass" and np.isfinite(it.worst_slack):
            assert it.worst_slack > 1e-6, f"{name}: {it.name} margin too thin ({it.worst_slack})"

    if check_strict_optimum:
        gap = strict_gap(model)
        assert gap > 1e-3, f"{name}: optimal policy gap {gap} too small for oracle tests"
        print(f"  strict optimality gap: {gap:.4f}")

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(Path.cwd())} "
          f"(n={model.n_states}, actions={model.n_actions}, boundary={model.n_boundary})")


def strict_gap(model: pa.PdmpModel) -> float:
    """Gap between the best and second-best stationary policy (small models)."""
    from itertools import product

    rhos = []
    feas = [list(f) for f in model.action_grid.feasible]
    for combo in product(*feas):
        pol = pa.FeedbackPolicy(np.array(combo, dtype=np.int64),
                                pa.FeedbackPolicy.lowest_feasible(model).boundary)
        rhos.append(pa.evaluate_policy(model, pol).rho)
    rhos = np.sort(np.array(rhos))
    return float(rhos[1] - rhos[0])


def ctmdp_2state() -> None:
    doc = {
        "schema": "pdmp-model/1",
        "name": "ctmdp_2state",
        "description": "Two-state pure-jump chain, two actions per state, trivial flow.",
        "grid": {"points": [0.0, 1.0], "boundary_points": []},
        "actions": {"values": [0.0, 1.0], "feasible": [[0, 1], [0, 1]], "boundary_feasible": []},
        "flow": {"kind": "trivial"},
        "rates": {"lambda": [[1.0, 2.0], [1.5, 2.5]]},
        "kernel": {
            "interior": [
                [[0.3, 0.7], [0.2, 0.8]],
                [[0.6, 0.4], [0.5, 0.5]],
            ],
            "boundary": [],
        },
        "costs": {"running": [[2.0, 3.5], [1.0, 2.2]], "boundary": []},
        "lyapunov": {"g": [1.0, 1.0], "r_bar": []},
        "constants": {"b": 1.0, "c": 0.5, "delta": 0.5, "M": 4.0,
                      "lambda_lower": [1.0, 1.5], "K_lambda": 2.5, "k_g": 0.5, "K_g": 1.0},
    }
    finalize("ctmdp_2state", doc, check_strict_optimum=True)


def ctmdp_3state() -> None:
    doc = {
        "schema": "pdmp-model/1",
        "name": "ctmdp_3state",
        "description": "Three-state pure-jump chain, three actions, mixing kernels.",
        "grid": {"points": [0.0, 0.5, 1.0], "boundary_points": []},
        "actions": {"values": [0.0, 0.5, 1.0],
                    "feasible": [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
                    "boundary_feasible": []},
        "flow": {"kind": "trivial"},
        "rates": {"lambda": [[1.0, 1.4, 2.0], [0.8, 1.3, 1.9], [1.1, 1.6, 2.2]]},
        "kernel": {
            "interior": [
                [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
                [[0.4, 0.4, 0.2], [0.25, 0.5, 0.25], [0.2, 0.2, 0.6]],
                [[0.3, 0.3, 0.4], [0.3, 0.5, 0.2], [0.5, 0.25, 0.25]],
            ],
            "boundary": [],
        },
        "costs": {"running": [[1.8, 2.6, 3.1], [2.4, 1.9, 2.8], [3.0, 2.5, 2.0]], "boundary": []},
        "lyapunov": {"g": [1.0, 1.2, 1.5], "r_bar": []},
        "constants": {"b": 1.0, "c": 0.4, "delta": 0.5, "M": 4.0,
                      "lambda_lower": [1.0, 0.8, 1.1], "K_lambda": 3.0, "k_g": 0.5, "K_g": 1.0},
    }
    finalize("ctmdp_3state", doc, check_strict_optimum=True)


def renewal_cycle() -> None:
    n = 16
    pts = [i / n for i in range(n)]
    doc = {
        "schema": "pdmp-model/1",
        "name": "renewal_cycle",
        "description": "Deterministic drift to the boundary, boundary cost, reset to 0; "
                       "closed-form average cost equal to the boundary charge.",
        "grid": {"points": pts, "boundary_points": [1.0]},
        "actions": {"values": [0.0], "feasible": [[0]] * n, "boundary_feasible": [[0]]},
        "flow": {"kind": "affine1d", "alpha0": 1.0, "alpha1": 0.0},
        "rates": {"lambda": [[0.0]] * (n + 1)},
        "kernel": {
            "interior": [[[1.0 if y == x else 0.0 for y in range(n)]] for x in range(n)],
            "boundary": [[[1.0 if y == 0 else 0.0 for y in range(n)]]],
        },
        "costs": {"running": [[0.0]] * n, "boundary": [[0.7]]},
        "lyapunov": {"g": [1.0 + x for x in pts], "r_bar": [0.9]},
        "constants": {"b": 3.0, "c": 1.0, "delta": 0.5, "M": 1.4,
                      "lambda_lower": [0.0] * n, "K_lambda": 2.0, "k_g": 0.5, "K_g": 1.0},
    }
    finalize("renewal_cycle", doc)


def drift_boundary_64() -> None:
    n = 64
    pts = np.array([i / n for i in range(n)])
    lam0 = 0.6 + 0.5 * pts
    lam1 = 1.6 - 0.4 * pts
    lam = np.column_stack([lam0, lam1])
    lam_b = [[1.1, 1.2]]
    f = np.column_stack([0.3 + 0.2 * pts, 0.8 + 0.4 * pts])
    kern_int = [
        [gaussian_row(pts, 0.10 + 0.10 * x, 0.20), gaussian_row(pts, 0.30 + 0.05 * x, 0.15)]
        for x in pts
    ]
    kern_bnd = [[gaussian_row(pts, 0.20, 0.20), gaussian_row(pts, 0.10, 0.15)]]
    doc = {
        "schema": "pdmp-model/1",
        "name": "drift_boundary_64",
        "description": "Unit drift to a costly boundary on a 64-point grid; two actions "
                       "trading running cost against jump rate and reset law.",
        "grid": {"points": pts.tolist(), "boundary_points": [1.0]},
        "actions": {"values": [0.0, 1.0], "feasible": [[0, 1]] * n, "boundary_feasible": [[0, 1]]},
        "flow": {"kind": "affine1d", "alpha0": 1.0, "alpha1": 0.0},
        "rates": {"lambda": np.vstack([lam, lam_b]).tolist()},
        "kernel": {"interior": kern_int, "boundary": kern_bnd},
        "costs": {"running": f.tolist(), "boundary": [[0.8, 0.9]]},
        "lyapunov": {"g": (1.0 + 2.0 * pts).tolist(), "r_bar": [1.2]},
        "constants": {"b": 4.0, "c": 0.5, "delta": 0.5, "M": 2.0,
                      "lambda_lower": lam.min(axis=1).tolist(), "K_lambda": 1.5,
                      "k_g": 0.6, "K_g": 1.2},
    }
    finalize("drift_boundary_64", doc)


def decay_flow_16() -> None:
    n = 16
    pts = np.array([(i + 1) / n for i in range(n)])
    lam = np.column_stack([0.8 + 0.3 * pts, 1.2 + 0.2 * pts])
    f = np.column_stack([0.4 + 1.5 * pts, 0.7 + 1.2 * pts])
    kern_int = [
        [gaussian_row(pts, 0.8 * x + 0.1, 0.15), gaussian_row(pts, 0.15, 0.12)]
        for x in pts
    ]
    doc = {
        "schema": "pdmp-model/1",
        "name": "decay_flow_16",
        "description": "Contracting flow toward the origin, no boundary; jumps relocate "
                       "the state, one action staying local, one resetting low.",
        "grid": {"points": pts.tolist(), "boundary_points": []},
        "actions": {"values": [0.0, 1.0], "feasible": [[0, 1]] * n, "boundary_feasible": []},
        "flow": {"kind": "affine1d", "alpha0": 0.0, "alpha1": -1.0},
        "rates": {"lambda": lam.tolist()},
        "kernel": {"interior": kern_int, "boundary": []},
        "costs": {"running": f.tolist(), "boundary": []},
        "lyapunov": {"g": [1.0] * n, "r_bar": []},
        "constants": {"b": 0.5, "c": 0.4, "delta": 0.5, "M": 3.0,
                      "lambda_lower": lam.min(axis=1).tolist(), "K_lambda": 3.0,
                      "k_g": 0.5, "K_g": 1.0},
    }
    finalize("decay_flow_16", doc)


if __name__ == "__main__":
    ctmdp_2state()
    ctmdp_3state()
    renewal_cycle()
    drift_boundary_64()
    decay_flow_16()
    print("all bundled models regenerated")
