"""Property tests of the assembled operators on random small models.

Each example perturbs one of the hand-built documents of ``toy_models``: grid
size, action count, feasible sets, flow kind and speed, jump rates, kernels
and costs are drawn at random, and the workspace is built at a small fill.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl.operators import OperatorWorkspace

from reference_quadrature import reference_assemble
from toy_models import constant_cost_variant, renewal_doc, two_state_jump_doc

FLOWS = ("trivial", "drift", "affine", "tabulated")
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _random_feasible_sets(rng, count: int, n_a: int) -> list[list[int]]:
    out = []
    for _ in range(count):
        keep = rng.random(n_a) < 0.6
        keep[rng.integers(n_a)] = True
        out.append(np.flatnonzero(keep).tolist())
    return out


@st.composite
def random_model_docs(draw, flow: str | None = None):
    """A model document: toy dynamics with random sizes, rates, kernels and costs.

    ``flow`` fixes the flow kind (one of ``FLOWS``); by default it is drawn.
    """
    if flow is None:
        flow = draw(st.sampled_from(FLOWS))
    n = draw(st.integers(2, 6))
    n_a = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if flow == "trivial":
        doc = two_state_jump_doc()
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        doc["grid"]["points"] = pts.tolist()
        n_b = 0
        # positive rates, so the survival left at the horizon is negligible
        lam = rng.uniform(0.5, 3.0, size=(n, n_a))
    else:
        doc = renewal_doc(n=n)
        n_b = 1
        lam = rng.uniform(0.0, 3.0, size=(n + n_b, n_a))
        if flow == "drift":
            doc["flow"] = {"kind": "affine1d", "alpha0": float(rng.uniform(0.5, 2.0)), "alpha1": 0.0}
        elif flow == "affine":
            doc["flow"] = {"kind": "affine1d", "alpha0": float(rng.uniform(0.5, 2.0)),
                           "alpha1": float(rng.uniform(-0.4, 0.4))}
        else:
            doc["flow"] = {"kind": "tabulated1d", "velocity": rng.uniform(0.5, 2.0, n).tolist()}
    kern = rng.dirichlet(np.full(n, 0.7), size=(n + n_b, n_a))
    doc["actions"] = {"values": list(range(n_a)), "feasible": _random_feasible_sets(rng, n, n_a),
                      "boundary_feasible": _random_feasible_sets(rng, n_b, n_a)}
    doc["rates"]["lambda"] = lam.tolist()
    doc["kernel"] = {"interior": kern[:n].tolist(), "boundary": kern[n:].tolist()}
    doc["costs"] = {"running": rng.uniform(0.0, 3.0, size=(n, n_a)).tolist(),
                    "boundary": rng.uniform(0.0, 2.0, size=(n_b, n_a)).tolist()}
    doc["lyapunov"] = {"g": [1.0] * n, "r_bar": [1.0] * n_b}
    doc["constants"]["lambda_lower"] = lam[:n].min(axis=1).tolist()
    fill = draw(st.sampled_from([4, 8, 16]))
    return doc, fill, int(rng.integers(2**32))


def _policies(model, seed: int, count: int = 3):
    rng = np.random.default_rng(seed)
    return [pa.FeedbackPolicy.lowest_feasible(model)] + [
        pa.FeedbackPolicy.random_feasible(model, rng) for _ in range(count - 1)]


@PROPERTY_SETTINGS
@given(case=random_model_docs())
def test_kernel_rows_sum_to_one(case):
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    for policy in _policies(model, seed):
        kernel = ws.assemble(policy)[0]
        assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12


@PROPERTY_SETTINGS
@given(case=random_model_docs())
def test_unit_running_cost_without_boundary_charge_is_the_sojourn(case):
    doc, fill, seed = case
    model = pa.model_from_dict(constant_cost_variant(doc, 1.0))
    ws = OperatorWorkspace(model, fill)
    for policy in _policies(model, seed):
        _, ell, cost, _ = ws.assemble(policy)
        assert np.max(np.abs(cost - ell)) <= 1e-12


@PROPERTY_SETTINGS
@given(case=random_model_docs())
def test_assemble_matches_the_per_path_quadrature(case):
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    for policy in _policies(model, seed):
        kernel, ell, cost, _ = ws.assemble(policy)
        for got, want in zip((kernel, ell, cost), reference_assemble(ws, policy)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
