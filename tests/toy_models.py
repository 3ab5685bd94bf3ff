"""Hand-built model documents used as test fixtures and oracle targets, and
a seeded random feasible policy."""

from __future__ import annotations

import copy

import numpy as np

import pdmp_avgctl as pa


def random_feasible(model, rng: np.random.Generator) -> pa.FeedbackPolicy:
    """A feasible policy drawn by ``rng``: one ``rng.choice`` of each interior
    state's feasible actions in grid order, then one per boundary point."""
    interior = np.array([int(rng.choice(idx)) for idx in model.action_grid.feasible], dtype=np.int64)
    boundary = np.array([int(rng.choice(idx)) for idx in model.action_grid.boundary_feasible], dtype=np.int64)
    return pa.FeedbackPolicy(interior=interior, boundary=boundary)


def two_state_jump_doc() -> dict:
    """Smallest well-formed instance: two states, two actions, trivial flow."""
    return {
        "schema": "pdmp-model/1",
        "grid": {"points": [0.0, 1.0], "boundary_points": []},
        "actions": {"values": [0.0, 1.0], "feasible": [[0, 1], [0, 1]], "boundary_feasible": []},
        "flow": {"kind": "trivial"},
        "rates": {"lambda": [[1.0, 2.0], [1.5, 2.5]]},
        "kernel": {
            "interior": [[[0.3, 0.7], [0.2, 0.8]], [[0.6, 0.4], [0.5, 0.5]]],
            "boundary": [],
        },
        "costs": {"running": [[2.0, 3.5], [1.0, 2.2]], "boundary": []},
        "lyapunov": {"g": [1.0, 1.0], "r_bar": []},
        "constants": {"b": 0.7, "c": 0.5, "delta": 0.5, "M": 4.2,
                      "lambda_lower": [1.0, 1.5], "K_lambda": 2.5, "k_g": 0.5, "K_g": 1.2},
    }


def swap_cycle_doc(lam=(1.0, 2.0), f=(3.0, 5.0)) -> dict:
    """Two states, one action, trivial flow, kernel that swaps the states.

    Closed-form cycle average: rho = (f1/l1 + f2/l2) / (1/l1 + 1/l2).
    """
    return {
        "schema": "pdmp-model/1",
        "grid": {"points": [0.0, 1.0], "boundary_points": []},
        "actions": {"values": [0.0], "feasible": [[0], [0]], "boundary_feasible": []},
        "flow": {"kind": "trivial"},
        "rates": {"lambda": [[lam[0]], [lam[1]]]},
        "kernel": {"interior": [[[0.0, 1.0]], [[1.0, 0.0]]], "boundary": []},
        "costs": {"running": [[f[0]], [f[1]]], "boundary": []},
        "lyapunov": {"g": [1.0, 1.0], "r_bar": []},
        "constants": {"b": 0.6, "c": 0.5, "delta": 0.5, "M": 6.0,
                      "lambda_lower": [lam[0], lam[1]], "K_lambda": 2.5, "k_g": 0.5, "K_g": 1.2},
    }


def dominated_toy_doc(gap: float = 0.8) -> dict:
    """Two actions with identical rates and kernels; action 1 costs less.

    Every argmin picks action 1, and a policy stuck on action 0 carries an
    optimality residual of at least gap * min expected sojourn.
    """
    doc = two_state_jump_doc()
    doc["rates"]["lambda"] = [[1.0, 1.0], [1.5, 1.5]]
    doc["kernel"]["interior"] = [[[0.3, 0.7], [0.3, 0.7]], [[0.6, 0.4], [0.6, 0.4]]]
    doc["costs"]["running"] = [[2.0, 2.0 - gap], [1.8, 1.8 - gap]]
    doc["constants"]["lambda_lower"] = [1.0, 1.5]
    return doc


def renewal_doc(r0: float = 0.7, n: int = 16) -> dict:
    pts = [i / n for i in range(n)]
    return {
        "schema": "pdmp-model/1",
        "grid": {"points": pts, "boundary_points": [1.0]},
        "actions": {"values": [0.0], "feasible": [[0]] * n, "boundary_feasible": [[0]]},
        "flow": {"kind": "affine1d", "alpha0": 1.0, "alpha1": 0.0},
        "rates": {"lambda": [[0.0]] * (n + 1)},
        "kernel": {
            "interior": [[[1.0 if y == x else 0.0 for y in range(n)]] for x in range(n)],
            "boundary": [[[1.0 if y == 0 else 0.0 for y in range(n)]]],
        },
        "costs": {"running": [[0.0]] * n, "boundary": [[r0]]},
        "lyapunov": {"g": [1.0 + x for x in pts], "r_bar": [0.9]},
        "constants": {"b": 3.0, "c": 1.0, "delta": 0.5, "M": 1.4,
                      "lambda_lower": [0.0] * n, "K_lambda": 2.3, "k_g": 0.5, "K_g": 1.1},
    }


def constant_cost_variant(doc: dict, c0: float) -> dict:
    """Same dynamics, running cost identically c0, boundary cost zero."""
    out = copy.deepcopy(doc)
    out["costs"]["running"] = [[c0 for _ in row] for row in out["costs"]["running"]]
    out["costs"]["boundary"] = [[0.0 for _ in row] for row in out["costs"]["boundary"]]
    return out
