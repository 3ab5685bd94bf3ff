"""Problem instances: schema, loading, structural validation, assumption audit.

A model file is a single JSON document (schema ``pdmp-model/1``) with sections
{grid, actions, flow, rates, kernel, costs, lyapunov, constants}; all numeric
arrays are row-major.  Loading performs structural checks (parse, shapes,
coarse row stochasticity) and raises; ``validate_model`` reports semantic
invariant violations as data.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .flow import FlowSpec, flow_derivative, validate_flow
from .numerics import Table1D, phi01

SCHEMA_VERSION = "pdmp-model/1"
LOAD_ROWSUM_TOL = 1e-6
ROWSUM_TOL = 1e-12
AUDIT_SLACK_TOL = 1e-9


class ModelFormatError(ValueError):
    """Model file cannot be parsed or is structurally malformed."""


class DimensionError(ModelFormatError):
    """A table's shape disagrees with the grids."""


@dataclass(frozen=True)
class StateGrid:
    """Interior grid coordinates plus boundary coordinates."""

    points: np.ndarray
    boundary_points: np.ndarray

    @property
    def n_interior(self) -> int:
        return int(self.points.size)

    @property
    def n_boundary(self) -> int:
        return int(self.boundary_points.size)


@dataclass(frozen=True)
class ActionGrid:
    actions: np.ndarray
    feasible: tuple        # per interior state, array of feasible action indices
    boundary_feasible: tuple

    @property
    def n_actions(self) -> int:
        return int(self.actions.size)


@dataclass(frozen=True)
class Constants:
    b: float
    c: float
    delta: float
    M: float
    lambda_lower: np.ndarray
    K_lambda: float
    k_g: float
    K_g: float


def _index_mask(index_lists, n_actions: int) -> np.ndarray:
    mask = np.zeros((len(index_lists), n_actions), dtype=bool)
    for i, idx in enumerate(index_lists):
        mask[i, idx] = True
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class PdmpModel:
    """Immutable problem instance; tables are dimension-checked at load."""

    name: str
    grid: StateGrid
    action_grid: ActionGrid
    flow: FlowSpec
    jump_rate: np.ndarray        # (n_interior + n_boundary, n_actions)
    kernel_interior: np.ndarray  # (n_interior, n_actions, n_interior)
    kernel_boundary: np.ndarray  # (n_boundary, n_actions, n_interior)
    running_cost: np.ndarray     # (n_interior, n_actions)
    boundary_cost: np.ndarray    # (n_boundary, n_actions)
    lyapunov_g: np.ndarray       # (n_interior,)
    lyapunov_rbar: np.ndarray    # (n_boundary,)
    constants: Constants
    source_hash: str = ""
    # sorted coordinates carrying the jump-rate table (interior plus boundary)
    rate_coords: np.ndarray = field(default=None, repr=False)
    rate_table: np.ndarray = field(default=None, repr=False)

    @property
    def n_states(self) -> int:
        return self.grid.n_interior

    @property
    def n_boundary(self) -> int:
        return self.grid.n_boundary

    @property
    def n_actions(self) -> int:
        return self.action_grid.n_actions

    @property
    def t_max(self) -> float:
        return self.flow.t_max

    # fixed model data, computed once per instance: cached_property writes to
    # the instance __dict__, which a frozen dataclass does not guard
    @functools.cached_property
    def feasible_mask(self) -> np.ndarray:
        """(n_states, n_actions) read-only mask of the feasible sets A(x)."""
        return _index_mask(self.action_grid.feasible, self.n_actions)

    @functools.cached_property
    def boundary_feasible_mask(self) -> np.ndarray:
        """(n_boundary, n_actions) read-only mask of the boundary feasible sets."""
        return _index_mask(self.action_grid.boundary_feasible, self.n_actions)

    @functools.cached_property
    def lambda_sup(self) -> float:
        vals = [float(self.jump_rate[: self.n_states][self.feasible_mask].max(initial=0.0))]
        if self.n_boundary:
            vals.append(float(self.jump_rate[self.n_states :][self.boundary_feasible_mask].max(initial=0.0)))
        return max(vals)

    @functools.cached_property
    def chain_geometry(self):
        """Flow order, chain ends, exits and piece durations of the flow lines,
        which every operator workspace of this model shares at any fill
        (:class:`~pdmp_avgctl.operators._ChainGeometry`)."""
        from .operators import _chain_geometry

        return _chain_geometry(self)

    def g_table(self) -> Table1D:
        return Table1D(self.grid.points, self.lyapunov_g)

    def boundary_g(self) -> np.ndarray:
        """g at boundary points: the flow limit of the clamped interpolant."""
        return Table1D(self.grid.points, self.lyapunov_g)(self.grid.boundary_points)


def _admits(actions, mask: np.ndarray) -> bool:
    """Whether ``actions`` is an integer array of one index per row of ``mask`` that ``mask`` admits."""
    if not (isinstance(actions, np.ndarray) and actions.dtype.kind in "iu" and actions.shape == mask.shape[:1]):
        return False
    return not actions.size or bool(actions.min() >= 0 and actions.max() < mask.shape[1]
                                    and mask[np.arange(actions.size), actions].all())


@dataclass(frozen=True)
class FeedbackPolicy:
    """Measurable selector on the grid: one action index per state."""

    interior: np.ndarray
    boundary: np.ndarray

    def key(self) -> tuple:
        return (tuple(np.asarray(self.interior).tolist()), tuple(np.asarray(self.boundary).tolist()))

    def feasibility_problems(self, model: PdmpModel) -> list[str]:
        """Why the policy is not an admissible feedback policy of ``model``; [] when it is.

        An admissible policy is one integer array of one action index per
        interior state and one per boundary point, each index in its state's
        feasible set.  Such a policy passes one vectorised test per array
        (:func:`_admits`); only a policy that fails it has its messages
        built: a wrong length, else per array a non-integer dtype (a float
        or boolean array would be read as other actions, or not index at
        all) and then each infeasible entry, in state order.
        """
        if _admits(self.interior, model.feasible_mask) and _admits(self.boundary, model.boundary_feasible_mask):
            return []
        return self._problems(model)

    def _problems(self, model: PdmpModel) -> list[str]:
        """:meth:`feasibility_problems`' messages, built entry by entry."""
        problems = [
            f"policy has {len(actions)} {where} entries, model has {count}"
            for where, actions, count in (("interior", self.interior, model.n_states),
                                          ("boundary", self.boundary, model.n_boundary))
            if len(actions) != count
        ]
        if problems:
            return problems
        for name, where, actions, mask in (("interior", "interior state", self.interior, model.feasible_mask),
                                           ("boundary", "boundary point", self.boundary,
                                            model.boundary_feasible_mask)):
            actions = np.asarray(actions)
            if actions.dtype.kind not in "iu" or actions.ndim != 1:
                problems.append(f"{name} actions must be a flat array of integer action indices, "
                                f"got {actions.dtype} of shape {actions.shape}")
                continue
            actions = actions.astype(np.int64, copy=False)
            ok = (actions >= 0) & (actions < model.n_actions)  # an index outside the action grid is infeasible
            ok[ok] = mask[ok, actions[ok]]
            problems += [f"action {int(actions[i])} infeasible at {where} {i}" for i in np.flatnonzero(~ok)]
        return problems

    @classmethod
    def lowest_feasible(cls, model: PdmpModel) -> "FeedbackPolicy":
        interior = np.array([int(idx[0]) for idx in model.action_grid.feasible], dtype=np.int64)
        boundary = np.array([int(idx[0]) for idx in model.action_grid.boundary_feasible], dtype=np.int64)
        return cls(interior=interior, boundary=boundary)


@dataclass(frozen=True)
class Violation:
    invariant: str
    location: str
    magnitude: float
    message: str


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ModelFormatError(f"'{where}' must be an object")
    if key not in doc:
        raise ModelFormatError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return doc[key]


def _as_array(value, shape: tuple | None, name: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` (a flat one of any length when None), else ``ModelFormatError``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"table '{name}' is not numeric: {exc}") from None
    if shape is None:
        shape = (arr.size,)
    if arr.size == 0 and math.prod(shape) == 0:
        return arr.reshape(shape)
    if arr.shape != shape:
        raise DimensionError(f"table '{name}': expected shape {shape}, got {arr.shape}")
    return arr


def _number(value, name: str, *, positive: bool = False) -> float:
    """``value`` as a float, refused with ``ModelFormatError`` naming ``name`` unless it is a
    number (a boolean is not) in the float range, and, with ``positive``, finite and > 0."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if number is None or positive and not 0.0 < number < math.inf:
        wanted = "a finite number > 0" if positive else "a number"
        raise ModelFormatError(f"'{name}' must be {wanted}, got {value!r}")
    return number


def _index_lists(raw, count: int, n_actions: int, name: str) -> tuple:
    if not isinstance(raw, (list, tuple, np.ndarray)):
        raise ModelFormatError(f"'{name}' must be a list of per-state action lists")
    if len(raw) != count:
        raise DimensionError(f"'{name}': expected {count} entries, got {len(raw)}")
    out = []
    for i, entry in enumerate(raw):
        if isinstance(entry, np.ndarray):
            entry = entry.tolist()
        if not isinstance(entry, (list, tuple)) or any(isinstance(a, (list, tuple)) for a in entry):
            raise ModelFormatError(f"'{name}[{i}]' must be a flat list of action indices")
        # a bool is an int to Python, and 0.5 or true would be read as action 0 or 1
        if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) for a in entry):
            raise ModelFormatError(f"'{name}[{i}]' must hold integer action indices")
        actions = sorted(set(int(a) for a in entry))
        if actions and (actions[0] < 0 or actions[-1] >= n_actions):
            raise ModelFormatError(f"'{name}[{i}]' contains an action index outside 0..{n_actions - 1}")
        out.append(np.array(actions, dtype=np.int64))
    return tuple(out)


def model_from_dict(doc: dict, *, name: str = "model", source_hash: str = "") -> PdmpModel:
    """Build and dimension-check a model from a parsed JSON document."""
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema '{schema}' (expected '{SCHEMA_VERSION}')")

    grid_doc = _require(doc, "grid", "")
    points = _as_array(_require(grid_doc, "points", "grid"), None, "grid.points")
    boundary = _as_array(grid_doc.get("boundary_points", []), None, "grid.boundary_points")
    if points.size < 2:
        raise ModelFormatError("grid.points must be a flat list with at least 2 entries")
    n_i, n_b = points.size, boundary.size

    act_doc = _require(doc, "actions", "")
    actions = _as_array(_require(act_doc, "values", "actions"), None, "actions.values")
    n_a = actions.size
    if n_a < 1:
        raise ModelFormatError("actions.values must be non-empty")
    feasible = _index_lists(_require(act_doc, "feasible", "actions"), n_i, n_a, "actions.feasible")
    boundary_feasible = _index_lists(act_doc.get("boundary_feasible", [[] for _ in range(n_b)]),
                                     n_b, n_a, "actions.boundary_feasible")

    const_doc = _require(doc, "constants", "")
    scalars = {key: _number(_require(const_doc, key, "constants"), f"constants.{key}")
               for key in ("b", "c", "delta", "M", "K_lambda", "k_g", "K_g")}
    constants = Constants(
        lambda_lower=_as_array(_require(const_doc, "lambda_lower", "constants"), (n_i,), "constants.lambda_lower"),
        **scalars)

    flow_doc = _require(doc, "flow", "")
    kind = _require(flow_doc, "kind", "flow")
    all_coords = np.concatenate([points, boundary]) if n_b else points
    lo, hi = float(all_coords.min()), float(all_coords.max())
    t_max_raw = flow_doc.get("t_max")
    if t_max_raw is not None:
        t_max = _number(t_max_raw, "flow.t_max", positive=True)
    elif constants.c <= 0:
        raise ModelFormatError("flow.t_max must be given when constants.c <= 0")
    else:
        t_max = 50.0 / constants.c
        if not 0.0 < t_max < math.inf:  # a tiny c overflows it, an infinite one gives 0
            raise ModelFormatError(f"the default flow.t_max = 50 / constants.c is {t_max!r} for constants.c = "
                                   f"{constants.c!r}; give flow.t_max, a finite number > 0")
    velocity = None
    if kind == "tabulated1d":
        velocity = Table1D(points, _as_array(_require(flow_doc, "velocity", "flow"), (n_i,), "flow.velocity"))
    flow = FlowSpec(
        kind=kind,
        alpha0=_number(flow_doc.get("alpha0", 0.0), "flow.alpha0"),
        alpha1=_number(flow_doc.get("alpha1", 0.0), "flow.alpha1"),
        velocity=velocity,
        t_max=t_max,
        lo=lo,
        hi=hi,
        boundary=np.sort(boundary),
    )
    flow_problems = validate_flow(flow)
    if flow_problems:
        raise ModelFormatError("; ".join(flow_problems))

    rates_doc = _require(doc, "rates", "")
    jump_rate = _as_array(_require(rates_doc, "lambda", "rates"), (n_i + n_b, n_a), "rates.lambda")

    kern_doc = _require(doc, "kernel", "")
    kernel_interior = _as_array(_require(kern_doc, "interior", "kernel"), (n_i, n_a, n_i), "kernel.interior")
    kernel_boundary = _as_array(kern_doc.get("boundary", np.zeros((n_b, n_a, n_i)).tolist()),
                                (n_b, n_a, n_i), "kernel.boundary")
    for label, kern, rows in (("kernel.interior", kernel_interior, n_i), ("kernel.boundary", kernel_boundary, n_b)):
        sums = kern.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > LOAD_ROWSUM_TOL)
        if bad.size:
            x, a = bad[0]
            raise ModelFormatError(
                f"stochasticity: {label} row (state {x}, action {a}) sums to {sums[x, a]:.6f}, expected 1"
            )

    costs_doc = _require(doc, "costs", "")
    running_cost = _as_array(_require(costs_doc, "running", "costs"), (n_i, n_a), "costs.running")
    boundary_cost = _as_array(costs_doc.get("boundary", np.zeros((n_b, n_a)).tolist()),
                              (n_b, n_a), "costs.boundary")

    lyap_doc = _require(doc, "lyapunov", "")
    lyapunov_g = _as_array(_require(lyap_doc, "g", "lyapunov"), (n_i,), "lyapunov.g")
    lyapunov_rbar = _as_array(lyap_doc.get("r_bar", np.zeros(n_b).tolist()), (n_b,), "lyapunov.r_bar")

    order = np.argsort(all_coords)
    rate_coords = all_coords[order]
    rate_table = jump_rate[order]

    return PdmpModel(
        name=doc.get("name", name),
        grid=StateGrid(points=points, boundary_points=boundary),
        action_grid=ActionGrid(actions=actions, feasible=feasible, boundary_feasible=boundary_feasible),
        flow=flow,
        jump_rate=jump_rate,
        kernel_interior=kernel_interior,
        kernel_boundary=kernel_boundary,
        running_cost=running_cost,
        boundary_cost=boundary_cost,
        lyapunov_g=lyapunov_g,
        lyapunov_rbar=lyapunov_rbar,
        constants=constants,
        source_hash=source_hash,
        rate_coords=rate_coords,
        rate_table=rate_table,
    )


def load_model(path) -> PdmpModel:
    """Load and dimension-check a model file; raises on structural problems."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: top level must be a JSON object")
    model = model_from_dict(doc, name=path.stem, source_hash=digest)
    # a numeric table would read a JSON true or false as 1 or 0; the arrays
    # are walked for one only when the file holds such a literal
    if b"true" in raw or b"false" in raw:
        _refuse_booleans(doc, "")
    return model


def _refuse_booleans(node, where: str) -> None:
    """Refuse with ``ModelFormatError`` the first boolean inside an array of the document ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            _refuse_booleans(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, bool):
                raise ModelFormatError(f"'{where}[{i}]' must be a number, got {value!r}")
            if isinstance(value, (dict, list)):
                _refuse_booleans(value, f"{where}[{i}]")


def bundled_model_names() -> list[str]:
    base = resources.files("pdmp_avgctl") / "models"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def bundled_model_path(name: str) -> Path:
    path = Path(str(resources.files("pdmp_avgctl") / "models" / f"{name}.json"))
    if not path.exists():
        raise FileNotFoundError(f"no bundled model named '{name}' (have: {bundled_model_names()})")
    return path


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_model(model: PdmpModel) -> list[Violation]:
    """Semantic invariant check; empty list iff the model is well formed."""
    out: list[Violation] = []

    def flag(invariant, location, magnitude, message):
        out.append(Violation(invariant, location, float(magnitude), message))

    pts = model.grid.points
    for name, values in (("grid.points", pts), ("grid.boundary_points", model.grid.boundary_points),
                         ("actions.values", model.action_grid.actions),
                         ("kernel.interior", model.kernel_interior), ("kernel.boundary", model.kernel_boundary)):
        if not np.all(np.isfinite(values)):  # a JSON null reads as NaN
            flag("finite", name, math.nan, f"{name} contains non-finite entries")
    diffs = np.diff(pts)
    for i in np.nonzero(diffs <= 0)[0]:
        flag("grid.ordered", f"points[{i}..{i + 1}]", diffs[i],
             f"grid points must be strictly increasing; got {pts[i]} then {pts[i + 1]}")

    for i, idx in enumerate(model.action_grid.feasible):
        if idx.size == 0:
            flag("actions.nonempty", f"interior[{i}]", 0.0, f"feasible set empty at interior state {i}")
    for i, idx in enumerate(model.action_grid.boundary_feasible):
        if idx.size == 0:
            flag("actions.nonempty", f"boundary[{i}]", 0.0, f"feasible set empty at boundary point {i}")

    for label, kern in (("interior", model.kernel_interior), ("boundary", model.kernel_boundary)):
        if kern.size == 0:
            continue
        sums = kern.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > ROWSUM_TOL)
        for x, a in bad:
            flag("kernel.rowsum", f"{label}[{x}], action {a}", abs(sums[x, a] - 1.0),
                 f"kernel row sums to {sums[x, a]!r}")
        neg = np.argwhere(kern < -1e-15)
        for x, a, y in neg[:20]:
            flag("kernel.nonnegative", f"{label}[{x}], action {a}, target {y}", kern[x, a, y],
                 "kernel entries must be non-negative")

    tables = (
        ("rates.lambda", model.jump_rate),
        ("costs.running", model.running_cost),
        ("costs.boundary", model.boundary_cost),
        ("lyapunov.g", model.lyapunov_g),
        ("lyapunov.r_bar", model.lyapunov_rbar),
        ("constants.lambda_lower", model.constants.lambda_lower),
    )
    for name, table in tables:
        if table.size and not np.all(np.isfinite(table)):
            flag("finite", name, math.nan, f"{name} contains non-finite entries")
        if table.size and np.any(table < -1e-15):
            loc = np.unravel_index(int(np.argmin(table)), table.shape)
            flag("nonnegative", f"{name}{list(loc)}", float(table.min()), f"{name} must be non-negative")

    g = model.lyapunov_g
    if np.any(g < 1.0 - 1e-12):
        i = int(np.argmin(g))
        flag("lyapunov.g_ge_1", f"g[{i}]", float(g[i]), f"g >= 1 fails at state {i} (x={pts[i]})")

    lam_int = model.jump_rate[: model.n_states]
    lower = model.constants.lambda_lower
    for i, a in np.argwhere(model.feasible_mask & (lam_int < lower[:, None] - 1e-12)):
        flag("rates.floor", f"(state {i}, action {a})", lower[i] - lam_int[i, a],
             f"lambda({pts[i]}, a{a})={lam_int[i, a]} below lambda_lower={lower[i]}")

    c = model.constants
    for name, value, ok in (
        ("b", c.b, c.b >= 0), ("c", c.c, c.c > 0), ("delta", c.delta, c.delta > 0),
        ("M", c.M, c.M >= 0), ("K_lambda", c.K_lambda, c.K_lambda > 0),
        ("k_g", c.k_g, 0 < c.k_g < 1), ("K_g", c.K_g, c.K_g >= 0),
    ):
        if not ok:
            flag("constants.range", name, value, f"constant {name}={value} outside its admissible range")

    if not out:  # the mesh's geometry needs a well-formed model
        from .operators import DEFAULT_FILL, _mesh_nodes, _oversized_mesh

        chain = model.chain_geometry
        _, nodes = _mesh_nodes(model, chain, DEFAULT_FILL)
        refusal = _oversized_mesh(model, chain, DEFAULT_FILL, nodes)
        if refusal is not None:
            flag("mesh.size", "flow", nodes, refusal)
    return out


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditItem:
    name: str
    status: str  # "pass" | "fail" | "not_checkable" | "omitted"
    worst_slack: float
    worst_location: str
    note: str = ""
    slack_by_state: tuple = ()


@dataclass(frozen=True)
class AuditReport:
    items: tuple
    a_estimate: float | None = None
    kappa_estimate: float | None = None

    @property
    def passed(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def item(self, name: str) -> AuditItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema": "pdmp-audit/1",
            "passed": self.passed,
            "a_estimate": self.a_estimate,
            "kappa_estimate": self.kappa_estimate,
            "policy": "given policy",
            "items": [
                {
                    "name": it.name,
                    "status": it.status,
                    "worst_slack": it.worst_slack,
                    "worst_location": it.worst_location,
                    "note": it.note,
                    "slack_by_state": list(it.slack_by_state),
                }
                for it in self.items
            ],
        }


def _piece_integrals(model: PdmpModel, ws, rate: float, v_nodes=None):
    """Per piece of ``ws``: int e^{rate s - int lambda_lower} v ds from its start, and the exponent at its end.

    v is linear between the mesh nodes (``v_nodes``; 1 by default) and
    lambda_lower - rate is frozen to its trapezoidal slope on each interval,
    whose exponential weight is integrated exactly, as in the engine:
    e^{-rel} dt (v_l (phi0 - phi1) + v_r phi1), written
    v_l phi0 + (v_r - v_l) phi1 so that v = 1 gives phi0 to the bit.  A
    constant piece is exact on its one interval.  The intervals are the
    mesh's node pairs (see :class:`~pdmp_avgctl.operators._Mesh`).
    """
    mesh = ws.mesh
    lam_low = Table1D(model.grid.points, model.constants.lambda_lower)(mesh.states)
    dt = mesh.pair_dt
    z = (0.5 * (lam_low[:-1] + lam_low[1:]) - rate) * dt
    rel = mesh.running_sums(z)
    p0, p1 = phi01(z)
    v = np.ones(mesh.times.size) if v_nodes is None else v_nodes
    weight = np.exp(-rel[:-1]) * dt
    weight *= v[:-1] * p0 + (v[1:] - v[:-1]) * p1
    return mesh.piece_sums(weight), rel[mesh.node_start[1:] - 1]


def _line_integrals(model: PdmpModel, ws, rate: float, v_nodes=None) -> tuple[np.ndarray, np.ndarray]:
    """Per line: :func:`_piece_integrals` over the whole line, and int lambda_lower - rate t over it.

    One exponent pass and one backward pass: each piece's integral plus
    e^{rate t - int lambda_lower} across the piece times the integral of
    the rest of the line, as :meth:`OperatorWorkspace.assemble` carries
    survival, and the pieces' exponents summed alongside.  Unlike the
    operators, they are not closed past t_max: the audit checks the
    paper's assumptions on the model's flow, which goes on past t_max where
    the operators' frozen state stops, so a line that stops at t_max is
    integrated over its window only, and the audit's t -> infinity items
    stay "not_checkable" there.
    """
    inner, exponent = _piece_integrals(model, ws, rate, v_nodes)
    w = ws.backward(np.column_stack((inner, exponent)),
                    np.column_stack((np.exp(-exponent), np.ones(exponent.size))),
                    np.zeros((len(ws.chain.exits), 2)))
    return w[:, 0], w[:, 1]


def audit_assumptions(model: PdmpModel, policy: FeedbackPolicy, *, workspace=None) -> AuditReport:
    """Numerically audit the standing growth/ergodicity assumptions under ``policy``.

    State-by-state checks take the sup over feasible actions; the kernel
    drift and geometric ergodicity are checked on ``policy``'s kernel.  An
    item fails when its worst slack is below ``-AUDIT_SLACK_TOL``.  Items that
    would need the t -> infinity limit on a truncated horizon are reported as
    "not_checkable" with the observed window decay in the note.  The
    geometric-ergodicity constants (a, kappa) are certified from
    the g-weighted operator norms of the deflated kernel's powers (see
    :func:`~pdmp_avgctl.evaluation.estimate_ergodic_constants`), so they
    bound |G^k h - nu(h)| for every h.  A kernel with more than one closed
    class, or one that no power up to ``ERGODIC_PROBE_POWERS`` contracts,
    makes that item "not_checkable".  Refuses as
    :func:`~pdmp_avgctl.operators.check_entry` does.
    """
    from .operators import OperatorWorkspace, check_entry
    from .evaluation import ERGODIC_PROBE_POWERS, EvaluationError, estimate_ergodic_constants, invariant_measure

    check_entry(model, policy, workspace)
    c = model.constants
    pts = model.grid.points
    n = model.n_states
    fmask = model.feasible_mask
    items: list[AuditItem] = []
    ws = workspace if workspace is not None else OperatorWorkspace(model)

    def add(name, slacks, locations, note="", not_checkable=False):
        slacks = np.asarray(slacks, dtype=float)
        if slacks.size == 0:
            items.append(AuditItem(name, "pass", math.inf, "(vacuous)", note or "no states to check"))
            return
        worst = int(np.argmin(slacks))
        status = "not_checkable" if not_checkable else ("pass" if slacks[worst] >= -AUDIT_SLACK_TOL else "fail")
        items.append(AuditItem(name, status, float(slacks[worst]), locations[worst], note,
                               tuple(float(s) for s in slacks)))

    def sup_over_actions(vals, mask, where):
        """Per row, the largest of ``vals`` over the actions ``mask`` admits, and where it is."""
        vals = np.where(mask, vals, -np.inf)
        a_star = np.argmax(vals, axis=1)
        return vals[np.arange(a_star.size), a_star], [f"{w}, a={a}" for w, a in zip(where, a_star.tolist())]

    at_x = [f"x={x}" for x in pts]
    g_tab = model.g_table()
    xg = flow_derivative(model.flow, g_tab, pts)
    qg = model.kernel_interior @ model.lyapunov_g  # (n, n_a)
    lam = model.jump_rate[:n]
    g = model.lyapunov_g[:, None]
    sup, locs = sup_over_actions(xg[:, None] + c.c * g - lam * (g - qg), fmask, at_x)
    add("interior-growth", c.b - sup, locs, note="flow derivative of g by grid differences")
    sup, locs = sup_over_actions(model.running_cost, fmask, at_x)
    add("cost-vs-weight", c.M * model.lyapunov_g - sup, locs)

    # boundary items only where some line actually reaches the boundary
    reachable = sorted({e.boundary_index for e in ws.chain.exits if e.hit})
    if model.n_boundary and reachable:
        rbar = model.lyapunov_rbar[reachable, None]
        bmask = model.boundary_feasible_mask[reachable]
        at_z = [f"z={z}" for z in model.grid.boundary_points[reachable]]
        qg_b = (model.kernel_boundary @ model.lyapunov_g)[reachable]
        sup, locs = sup_over_actions(rbar + qg_b - model.boundary_g()[reachable, None], bmask, at_z)
        add("boundary-weight", -sup, locs)
        sup, locs = sup_over_actions(model.boundary_cost[reachable] - c.M / (c.c + c.delta) * rbar, bmask, at_z)
        add("boundary-cost-ratio", -sup, locs)
    else:
        items.append(AuditItem("boundary-weight", "pass", math.inf, "(vacuous)", "no reachable boundary"))
        items.append(AuditItem("boundary-cost-ratio", "pass", math.inf, "(vacuous)", "no reachable boundary"))

    # rate floor under every feasible action
    floor_slack = np.where(fmask, lam - c.lambda_lower[:, None], np.inf).min(axis=1)
    add("rate-floor", floor_slack, at_x)

    # expected-growth integral bounded by K_lambda
    growth, growth_exponent = _line_integrals(model, ws, c.c)
    truncated = ws.truncated
    decay = np.exp(-growth_exponent)[truncated]
    undecayed = bool(np.any(decay > 1e-9))
    add("growth-integral", c.K_lambda - growth, at_x,
        note="window-truncated on lines that never hit the boundary" if truncated.any() else "",
        not_checkable=undecayed)

    # the discounted-by-lambda_lower running cost, and the lower hazard, over each line
    fsup = np.where(fmask, model.running_cost, -np.inf).max(axis=1)
    discounted_cost, lower_hazard = _line_integrals(model, ws, 0.0, Table1D(pts, fsup)(ws.mesh.states))

    # large-time decay limits; only window decay is observable
    if truncated.any():
        items.append(AuditItem("growth-decay-limit", "not_checkable", math.inf, "(limit)",
                               f"window decay of exp(ct - int lambda_lower) at t_max: {decay.max():.3e}"))
        g_end = g_tab(ws.mesh.states[ws.mesh.node_start[[e.piece + 1 for e in ws.chain.exits]] - 1])[ws.chain.exit_of]
        g_end = float(np.max((g_end * np.exp(-lower_hazard))[truncated]))
        items.append(AuditItem("weight-decay-limit", "not_checkable", math.inf, "(limit)",
                               f"window decay of exp(-int lambda_lower) g at t_max: {g_end:.3e}"))
    else:
        items.append(AuditItem("growth-decay-limit", "pass", math.inf, "(vacuous)", "every line hits the boundary"))
        items.append(AuditItem("weight-decay-limit", "pass", math.inf, "(vacuous)", "every line hits the boundary"))

    # discounted-by-lambda_lower running cost integrable
    items.append(AuditItem("discounted-cost-integrable", "not_checkable" if undecayed else "pass",
                           math.inf, f"max over states: {max(discounted_cost):.6g}",
                           "finite on the truncation window"))

    # kernel drift: Gg <= k_g g + K_g along the policy's feedback paths
    add("kernel-drift", c.k_g * model.lyapunov_g + c.K_g - ws.assemble(policy)[0] @ model.lyapunov_g,
        [f"{x} (policy)" for x in at_x])

    items.append(AuditItem("discounted-finiteness", "omitted", math.inf, "(not audited)",
                           "finiteness of discounted infima has no constructive check; omitted by design"))

    a_est = kappa_est = None
    kernel = ws.assemble(policy, 0.0)[0]
    try:
        nu = invariant_measure(kernel)
        a_est, kappa_est = estimate_ergodic_constants(kernel, nu, model.lyapunov_g)
        items.append(AuditItem("geometric-ergodicity", "pass", math.inf, "(estimated)",
                               f"a={a_est:.6g}, kappa={kappa_est:.6g} from the g-norms of "
                               f"(G - 1 nu)^k, k <= {ERGODIC_PROBE_POWERS}"))
    except EvaluationError as exc:
        items.append(AuditItem("geometric-ergodicity", "not_checkable", math.inf, "(estimated)",
                               f"not certified: {exc}"))

    return AuditReport(items=tuple(items), a_estimate=a_est, kappa_estimate=kappa_est)
