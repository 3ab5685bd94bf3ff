"""The bundled ``drift_boundary_64`` recipe with the grid size as a parameter.

The dynamics, costs and kernels follow ``tools/build_bundled_models.py``
exactly; the growth constants are tuned in memory with that script's
``sup_cu1`` / ``sup_growth`` / ``sup_kernel_drift_gap`` (imported, not
copied), with the same margins its ``finalize`` applies.  Nothing is written
under ``src/``: :func:`write_drift_model` puts the JSON where it is told.

    python3 perfbench/drift.py 128 out.json
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def recipes():
    """``tools/build_bundled_models.py`` of this checkout, imported as a module."""
    path = ROOT / "tools" / "build_bundled_models.py"
    spec = importlib.util.spec_from_file_location("build_bundled_models", path)
    if spec is None or not path.is_file():
        raise ImportError(f"cannot import the bundled-model recipes from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drift_doc(n: int) -> dict:
    """Model document of the drift recipe on an ``n``-point grid, constants tuned."""
    bb = recipes()
    pa = bb.pa
    pts = np.array([i / n for i in range(n)])
    lam0 = 0.6 + 0.5 * pts
    lam1 = 1.6 - 0.4 * pts
    lam = np.column_stack([lam0, lam1])
    lam_b = [[1.1, 1.2]]
    f = np.column_stack([0.3 + 0.2 * pts, 0.8 + 0.4 * pts])
    kern_int = [
        [bb.gaussian_row(pts, 0.10 + 0.10 * x, 0.20), bb.gaussian_row(pts, 0.30 + 0.05 * x, 0.15)]
        for x in pts
    ]
    kern_bnd = [[bb.gaussian_row(pts, 0.20, 0.20), bb.gaussian_row(pts, 0.10, 0.15)]]
    name = f"drift_{n}"
    doc = {
        "schema": "pdmp-model/1",
        "name": name,
        "description": f"drift_boundary_64 recipe on a {n}-point grid (benchmark input).",
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

    # the margins of build_bundled_models.finalize, applied in memory
    model = pa.model_from_dict(doc, name=name)
    c = doc["constants"]
    c["b"] = round(max(bb.sup_cu1(model) * 1.15, c["c"] + 0.05), 6)
    cu3_need = float((np.where(model.feasible_mask, model.running_cost, -np.inf).max(axis=1)
                      / model.lyapunov_g).max())
    ratios = np.where(model.boundary_feasible_mask,
                      model.boundary_cost / model.lyapunov_rbar[:, None], 0.0)
    cu3a_need = float(ratios.max()) * (c["c"] + c["delta"])
    c["M"] = round(max(cu3_need, cu3a_need, 0.1) * 1.2, 6)
    c["K_lambda"] = round(bb.sup_growth(model) * 1.3, 6)
    c["K_g"] = round(max(bb.sup_kernel_drift_gap(model, c["k_g"]) * 1.2, 0.1), 6)
    return doc


def write_drift_model(n: int, path: Path) -> Path:
    """Write the tuned ``drift_<n>`` model to ``path`` (atomically) and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(drift_doc(n), indent=1) + "\n")
    tmp.replace(path)
    return path


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 perfbench/drift.py N OUT.json")
    print(write_drift_model(int(sys.argv[1]), Path(sys.argv[2])))
