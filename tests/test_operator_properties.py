"""Property tests of the assembled operators on random small models.

Each example perturbs one of the hand-built documents of ``toy_models``: grid
size, action count, feasible sets, flow kind and speed, jump rates, kernels
and costs are drawn at random, and the workspace is built at a small fill.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdmp_avgctl as pa
from pdmp_avgctl import operators
from pdmp_avgctl.evaluation import ERGODIC_PROBE_POWERS, ErgodicityError, estimate_ergodic_constants, invariant_measure
from pdmp_avgctl.model import _piece_integrals
from pdmp_avgctl.operators import OperatorWorkspace
from pdmp_avgctl.simulation import _Nodes

from reference_quadrature import (composed_assemble, dense_assemble, forced_line_geometry, gathered_piece_integrals,
                                  gathered_segment_tables, line_exit, line_geometry, line_pieces, marched_improve,
                                  meshed_workspace, numpy_optimality_residual, piece_counts,
                                  reference_assemble, reference_improve, reference_optimality_residual,
                                  shared_line_geometry, swept_residual)
from reference_simulation import gathered_node_tables
from toy_models import constant_cost_variant, random_feasible, renewal_doc, two_state_jump_doc

FLOWS = ("trivial", "drift", "affine", "tabulated")
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _random_feasible_sets(rng, count: int, n_a: int) -> list[list[int]]:
    out = []
    for _ in range(count):
        keep = rng.random(n_a) < 0.6
        keep[rng.integers(n_a)] = True
        out.append(np.flatnonzero(keep).tolist())
    return out


def _vary_layout(doc: dict, rng, flow: str) -> None:
    """Redraw where the flow lines run: grid gaps, direction and horizon.

    The grid keeps the uniform spacing of ``renewal_doc`` or takes random
    gaps; half the flows are mirrored to run toward smaller coordinates, to a
    boundary point below the grid; t_max is drawn as a fraction of the time
    to cross the grid (of a unit time for a trivial flow), so some lines stop
    before the boundary.
    """
    if flow == "trivial":
        doc["flow"]["t_max"] = float(rng.uniform(0.2, 1.2))
        return
    flow_doc = doc["flow"]
    points = np.asarray(doc["grid"]["points"])
    if rng.random() < 0.5:
        gaps = rng.uniform(0.5, 1.5, points.size)  # the last one to the boundary at 1
        points = np.concatenate(([0.0], np.cumsum(gaps[:-1]))) / gaps.sum()
    boundary = 1.0
    if flow_doc["kind"] == "affine1d":
        speed = flow_doc["alpha0"]
    else:
        speed = float(np.mean(flow_doc["velocity"]))
    if rng.random() < 0.5:
        # x -> top - x maps the grid onto itself reversed and the boundary below it
        top = float(points[-1])
        points, boundary = top - points[::-1], top - boundary
        if flow_doc["kind"] == "affine1d":
            flow_doc["alpha0"] = -(flow_doc["alpha0"] + flow_doc["alpha1"] * top)
        else:
            flow_doc["velocity"] = [-v for v in reversed(flow_doc["velocity"])]
    doc["grid"] = {"points": points.tolist(), "boundary_points": [boundary]}
    flow_doc["t_max"] = float(rng.uniform(0.2, 1.5)) / speed


@st.composite
def random_model_docs(draw, flow: str | None = None, varied: bool = False, clamped: bool = False):
    """A model document: toy dynamics with random sizes, rates, kernels and costs.

    ``flow`` fixes the flow kind (one of ``FLOWS``); by default it is drawn.
    A moving flow runs toward larger coordinates across the uniform grid of
    ``renewal_doc``, and every line hits the boundary; ``varied`` also draws
    the grid gaps, the direction and a horizon (see :func:`_vary_layout`).
    ``clamped`` drops a moving flow's boundary point, so every line runs on
    past the last grid point, where the model data are clamped, to t_max.
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
        if clamped:
            n_b = 0
            lam = lam[:n]
        if flow == "drift":
            doc["flow"] = {"kind": "affine1d", "alpha0": float(rng.uniform(0.5, 2.0)), "alpha1": 0.0}
        elif flow == "affine":
            doc["flow"] = {"kind": "affine1d", "alpha0": float(rng.uniform(0.5, 2.0)),
                           "alpha1": float(rng.uniform(-0.4, 0.4))}
        else:
            doc["flow"] = {"kind": "tabulated1d", "velocity": rng.uniform(0.5, 2.0, n).tolist()}
    if varied:
        _vary_layout(doc, rng, flow)
    if n_b == 0:
        doc["grid"]["boundary_points"] = []
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
        random_feasible(model, rng) for _ in range(count - 1)]


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
        _, ell, cost = ws.assemble(policy)
        assert np.max(np.abs(cost - ell)) <= 1e-12


@PROPERTY_SETTINGS
@given(case=random_model_docs())
def test_assemble_matches_the_per_path_quadrature(case):
    # the per-path quadrature runs over every interval of each line's pieces,
    # laid end to end: the same mesh the composed piece tables sum
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    geometry = shared_line_geometry(ws)
    for policy in _policies(model, seed):
        kernel, ell, cost = ws.assemble(policy)
        for got, want in zip((kernel, ell, cost), reference_assemble(ws, policy, geometry=geometry)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@PROPERTY_SETTINGS
@given(case=random_model_docs())
def test_certified_ergodic_constants_bound_every_power(case):
    # c_k = ||G^k - 1 nu||_g from plain matrix powers stays under a kappa^k
    # up to twice the powers the certificate reads, for the model's g and a
    # random positive g; a refusal means no power it reads contracts
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    rng = np.random.default_rng(seed)
    for policy in _policies(model, seed):
        kernel = ws.assemble(policy)[0]
        nu = invariant_measure(kernel)
        for g in (model.lyapunov_g, rng.uniform(0.1, 10.0, model.n_states)):
            norms = [np.max(np.abs(np.linalg.matrix_power(kernel, k) - nu) @ g / g)
                     for k in range(2 * ERGODIC_PROBE_POWERS + 1)]
            try:
                a, kappa = estimate_ergodic_constants(kernel, nu, g)
            except ErgodicityError:
                assert min(norms[1:ERGODIC_PROBE_POWERS + 1]) >= 1.0 - 1e-12
                continue
            assert a > 0.0 and 0.0 <= kappa < 1.0
            for k, c_k in enumerate(norms):
                assert c_k <= a * kappa**k * (1.0 + 1e-12) + 1e-12, (k, c_k, a, kappa)


def _within(got, want) -> bool:
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@PROPERTY_SETTINGS
@given(case=st.booleans().flatmap(lambda clamped: random_model_docs(flow="affine", varied=True, clamped=clamped)))
def test_affine_pieces_start_exactly_on_their_grid_points(case):
    # ystar + (x - ystar) * exp(0) need not round back to x, so a piece's
    # first node is placed on its grid point, not computed
    doc, fill, _ = case
    assert doc["flow"]["alpha1"] != 0.0
    model = pa.model_from_dict(doc)
    mesh = OperatorWorkspace(model, fill).mesh
    assert np.array_equal(mesh.states[mesh.node_start[:-1]], model.grid.points[model.chain_geometry.anchors])


@pytest.mark.parametrize("flow", FLOWS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_shared_pieces_match_the_per_line_reference(flow, data):
    # the per-line reference meshes each segment and exit piece again on
    # every line that passes it, timed from the line's start.  The shared
    # mesh passes the same grid points, ends each line as the reference
    # does, and gives each piece the count of the line that starts on it.
    # Where the count rule sits on an integer (a uniform grid), rounding of
    # the passage times can give one piece different counts on different
    # lines; the shared count is then one of them.  Operators, improvement
    # and certificate agree with the per-line quadrature on meshes of the
    # shared counts.
    clamped = data.draw(st.booleans())
    doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True, clamped=clamped))
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    seen = {}
    for j, (pieces, geom, counts) in enumerate(zip(line_pieces(ws), line_geometry(ws), piece_counts(ws))):
        ex = line_exit(ws, j)
        assert [ws.geometry[p].anchor for p in pieces] == [a for _, _, a in geom.seg_slices]
        assert (ex.hit, ex.boundary_index, not ex.hit) == (geom.hit, geom.boundary_index, geom.truncated)
        reference = [k1 - k0 for k0, k1, _ in geom.seg_slices]
        assert counts[0] == reference[0]
        for p, count in zip(pieces, reference):
            seen.setdefault(p, set()).add(count)
    for p, counts in seen.items():
        assert ws.geometry[p].times.size - 1 in counts
    geometry = forced_line_geometry(ws)
    rng = np.random.default_rng(seed)
    for policy in _policies(model, seed):
        for got, want in zip(ws.assemble(policy), reference_assemble(ws, policy, geometry=geometry)):
            assert _within(got, want)
        rho, h = float(rng.uniform(0.0, 3.0)), rng.normal(scale=2.0, size=model.n_states)
        improved, residual = ws.improve_and_certify(rho, h, policy)
        assert improved.key() == reference_improve(ws, rho, h, policy, geometry).key()
        assert _within(np.array([residual]), np.array([reference_optimality_residual(ws, rho, h, geometry)]))

    # a constant exit piece (every exit of a trivial flow, the exit past the
    # grid of a clamped one) is one interval with the same jump rate, running
    # cost and kernel row at both nodes for every action, and the operators
    # are those of the same exit meshed at the count rule's intervals
    meshed = meshed_workspace(model, fill)
    constant = [e.constant for e in ws.chain.exits]
    if flow == "trivial":
        assert all(constant)
    else:
        assert all(c == clamped for c in constant)
    for e in ws.chain.exits:
        piece, old = ws.geometry[e.piece], meshed.geometry[e.piece]
        if e.constant:
            assert piece.times.size == 2 and piece.times[-1] == old.times[-1]
            for values in (piece.lam_nodes, piece.f_nodes, node_kernel_rows(model, piece)):
                assert np.array_equal(values[0], values[1])
        else:
            assert np.array_equal(piece.times, old.times)
    for policy in _policies(model, seed):
        for got, want in zip(ws.assemble(policy), meshed.assemble(policy)):
            assert _within(got, want)


def node_kernel_rows(model, piece) -> np.ndarray:
    """(K+1, n_a, n) the kernel rows the engine reads at each node of ``piece``."""
    kernel = model.kernel_interior
    hi = np.minimum(piece.ilo + 1, model.n_states - 1)
    return piece.wlo[:, None, None] * kernel[piece.ilo] + (1.0 - piece.wlo)[:, None, None] * kernel[hi]


@pytest.mark.parametrize("flow", FLOWS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_backward_pass_matches_the_per_line_compositions(flow, data):
    # on the same pieces, one backward pass over the grid positions gives
    # what composing every line's own pieces gives: running survival
    # products for the operators, a march along each line for the
    # improvement, and a sweep of all lines from their ends for the
    # certificate; and each piece's gathered kernel row is the dense product.
    # A band slot clamped past the last grid point (some affine and tabulated
    # examples have them) carries no weight.
    doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True))
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    tables = ws.segment_tables()
    slot_grid = tables.cols[:1] // model.n_actions + np.arange(tables.weights.shape[0])[:, None, None]
    assert np.all(tables.weights[slot_grid > model.n_states - 1] == 0.0)
    rng = np.random.default_rng(seed)
    for policy in _policies(model, seed):
        for want in (composed_assemble(ws, policy), dense_assemble(ws, policy)):
            for got, w in zip(ws.assemble(policy), want):
                assert _within(got, w)
        rho, h = float(rng.uniform(0.0, 3.0)), rng.normal(scale=2.0, size=model.n_states)
        improved, residual = ws.improve_and_certify(rho, h, policy)
        assert improved.key() == marched_improve(ws, rho, h, policy).key()
        assert _within(np.array([residual]), np.array([swept_residual(ws, rho, h)]))
        # the certificate's own numpy pass does the same arithmetic in the same order
        assert residual == numpy_optimality_residual(ws, rho, h)


def assert_pair_layout_matches_the_gathers(ws, policies):
    """The piece tables and the audit's piece integrals of ``ws``'s mesh
    equal, bit for bit, those built on the interval layout by gathers through
    each interval's left node; and the policies' simulation node tables and
    line bounds, those built by gathers through each pair's left node and
    loops over the segments."""
    model, mesh = ws.model, ws.mesh
    tails = ws.chain.truncated_tail
    got, want = operators._segment_tables(model, mesh, tails), gathered_segment_tables(model, mesh, tails)
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    fsup = pa.Table1D(model.grid.points, np.where(model.feasible_mask, model.running_cost, -np.inf).max(axis=1))
    for rate, v_nodes in ((model.constants.c, None), (0.0, fsup(mesh.states))):
        for g, w in zip(_piece_integrals(model, ws, rate, v_nodes), gathered_piece_integrals(model, ws, rate, v_nodes)):
            assert np.array_equal(g, w), rate
    for policy in policies:
        tables = pa.prepare_simulation(model, policy, workspace=ws)
        reference, bounds = gathered_node_tables(ws, policy)
        for field in dataclasses.fields(_Nodes):
            assert np.array_equal(np.asarray(getattr(tables.nodes, field.name)),
                                  np.asarray(getattr(reference, field.name))), field.name
        assert [(line.b, line.e, line.x0, line.x1) for line in tables.lines] == bounds


@pytest.mark.parametrize("flow", ("affine", "tabulated"))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_layout_matches_the_gathers(flow, data):
    # the tables read every interval as a node pair of the mesh and sum each
    # piece over its own intervals only, leaving out the pair that joins it
    # to the next piece: with that pair in, a piece's sum is taken over one
    # more term, which moves the last bits of a pairwise sum
    clamped = data.draw(st.booleans())
    doc, fill, seed = data.draw(random_model_docs(flow=flow, varied=True, clamped=clamped))
    model = pa.model_from_dict(doc)
    assert_pair_layout_matches_the_gathers(OperatorWorkspace(model, fill), _policies(model, seed))


@PROPERTY_SETTINGS
@given(case=random_model_docs(varied=True))
def test_the_simulation_tables_join_the_segments_on_the_grid_points(case):
    # the simulator's tables index the mesh's own nodes: at every joint of two
    # segments both nodes hold one time, hazard and cost, and the grid point
    # as their state, so no search stops on the pair between them; a line's
    # bounds are real nodes, and with no segment (a trivial flow) its chain
    # stretch is empty
    doc, fill, seed = case
    model = pa.model_from_dict(doc)
    ws = OperatorWorkspace(model, fill)
    n_chain = ws.chain.n_chain
    joints = ws.mesh.node_start[1:n_chain]
    points = model.grid.points[ws.chain.order[1:n_chain]]
    for policy in _policies(model, seed):
        tables = pa.prepare_simulation(model, policy, workspace=ws)
        nodes = tables.nodes
        for name in ("times", "hazard", "cost_cum"):
            values = np.asarray(getattr(nodes, name))
            assert np.array_equal(values[joints - 1], values[joints]), name
        states = np.asarray(nodes.states)
        assert np.array_equal(states[joints - 1], points) and np.array_equal(states[joints], points)
        assert len(nodes.times) == ws.mesh.times.size
        for line in tables.lines:
            assert 0 <= line.b <= line.e < len(nodes.times)
            assert line.b == line.e or doc["flow"]["kind"] != "trivial"


@pytest.mark.parametrize("flow", FLOWS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_the_chain_geometry_is_the_one_record_of_the_lines(flow, data):
    # the model's chain geometry holds what no fill changes: each grid
    # state's flow position and whether its line stops at t_max, the exits
    # that hit the boundary, and the feasibility lists the improvement/
    # certificate pass reads, line_ok by a direct walk over the feasible sets
    # from the state's flow position to its chain end's; every workspace of
    # the model, at any fill, reads that one object
    doc, fill, _ = data.draw(random_model_docs(flow=flow, varied=True))
    model = pa.model_from_dict(doc)
    chain = model.chain_geometry
    order = chain.order.tolist()
    feasible = [set(f.tolist()) for f in model.action_grid.feasible]
    for j in range(model.n_states):
        ex = chain.exits[chain.exit_of[j]]
        assert order[chain.position[j]] == j
        assert chain.truncated[j] == (not ex.hit)
        walk = [feasible[order[q]] for q in range(chain.position[j], ex.position + 1)]
        assert chain.line_ok[j] == tuple(all(a in f for f in walk) for a in range(model.n_actions))
        assert chain.feasible[j] == tuple(sorted(feasible[j]))
        assert chain.mask[j] == tuple(a in feasible[j] for a in range(model.n_actions))
    assert chain.hits == tuple((k, e.boundary_index) for k, e in enumerate(chain.exits) if e.hit)
    assert chain.sweepable == any(map(any, chain.line_ok))
    assert not any(a.flags.writeable for a in (chain.position, chain.truncated))
    for ws in (OperatorWorkspace(model, fill), OperatorWorkspace(model, 2 * fill)):
        assert ws.chain is chain
