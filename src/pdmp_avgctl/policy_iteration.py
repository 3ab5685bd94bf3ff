"""Policy iteration: evaluate, then improve and certify in one backward pass.

The improvement step solves the one-stage minimization by a backward dynamic
program over the grid points in flow order: the value to go from a grid
point does not depend on the flow line that reached it.  Evaluation,
improvement and the optimality certificate all read the workspace's
per-piece one-stage tables (sojourn weight, running-cost integral, survival
and Qh weights per piece and action), summed from the mesh once per
workspace: evaluation runs one backward pass for the policy's operators,
and improvement and certificate share one more, with the evaluation's rho
and Qh = Q h.  The value of the returned policy therefore reproduces the
pass's value, which is what makes the average cost non-increasing across
iterations up to solver tolerance.

One PIA step -- a policy's (rho, h) from one bordered solve, with h pinned
to 0 at :data:`~pdmp_avgctl.evaluation.PIN_STATE` (improvement does not see
a constant shift of h), its improved policy and its certificate -- depends
only on the workspace and the policy.  So :func:`run_pia` keeps each step in
the workspace's per-policy cache, with its arrays read-only, and a later run
on the same workspace that reaches the same policy (another start of a
sweep) reuses it.  No step derives the invariant measure nu: the returned
evaluation does, once per final policy and workspace, from that policy's
step, and is kept in the same cache.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import FeedbackPolicy
from .operators import OperatorWorkspace, check_entry, refined_workspace
from .evaluation import DEFAULT_TOL, EvaluationResult, _bias, _measured

DEFAULT_TOL_RHO = 1e-8
DEFAULT_MAX_ITER = 200


@dataclass(repr=False, eq=False)  # one per iteration; nothing compares or prints one
class IterationRecord:
    n: int
    rho: float
    poisson_residual: float
    changed_states: int
    optimality_residual: float
    delta_h: float
    h_gnorm: float


@dataclass
class PiaTrace:
    """Per-iteration record of the policy iteration run."""

    records: list = field(default_factory=list)
    status: str = "running"  # converged | max-iter | cycling
    reason: str = ""         # policy-identity | rho-tolerance (when converged)

    @property
    def rhos(self) -> np.ndarray:
        return np.array([r.rho for r in self.records])

    def to_rows(self) -> list[dict]:
        return [
            {
                "n": r.n,
                "rho": r.rho,
                "poisson_residual": r.poisson_residual,
                "changed_states": r.changed_states,
                "optimality_residual": r.optimality_residual,
                "delta_h": r.delta_h,
                "h_gnorm": r.h_gnorm,
            }
            for r in self.records
        ]

    def to_dict(self) -> dict:
        return {"schema": "pdmp-trace/1", "status": self.status, "reason": self.reason,
                "iterations": self.to_rows()}


def _step(model, ws: OperatorWorkspace, policy: FeedbackPolicy) -> tuple:
    """(rho, pinned h, defect, improved policy, optimality residual) of ``policy`` on ``ws``, arrays read-only.

    The policy is feasible: a start that :func:`check_entry` passed, or a
    policy improvement chose among feasible actions.
    """
    rho, h, residual = _bias(*ws.assemble(policy, 0.0), DEFAULT_TOL)
    improved, opt_res = ws.improve_and_certify(rho, h, policy)
    for array in (h, improved.interior, improved.boundary):
        array.flags.writeable = False
    return rho, h, residual, improved, opt_res


def _result(ws: OperatorWorkspace, policy: FeedbackPolicy, rho: float, h: np.ndarray) -> EvaluationResult:
    """The evaluation ``run_pia`` returns for ``policy``: its step's (rho, h) with nu derived, arrays read-only."""
    kernel, ell, cost = ws.assemble(policy, 0.0)
    result = _measured(ws, kernel, ell, cost, rho, h)
    for array in (result.h, result.nu):
        array.flags.writeable = False
    return result


def run_pia(model, u0: FeedbackPolicy, tol_rho: float = DEFAULT_TOL_RHO,
            max_iter: int = DEFAULT_MAX_ITER, *,
            workspace: OperatorWorkspace | None = None) -> tuple[EvaluationResult, FeedbackPolicy, PiaTrace]:
    """Alternate policy evaluation and improvement until the policy is a fixed point.

    Termination: the improved policy equals the current one (primary, finite
    policy space), or the rho decrement falls below ``tol_rho`` with an
    optimality residual below ``10 * tol_rho``, or ``max_iter`` is reached.
    Revisiting an earlier policy without improving rho reports "cycling" and
    the best iterate seen.

    Each step (rho, pinned h, improved policy, certificate) is kept in the
    workspace's per-policy cache under the policy's key, and taken from
    there when this or a later run on the same workspace reaches the policy
    again; its arrays are read-only.  The trace's ``delta_h`` and
    ``h_gnorm`` read the pinned h.  The returned evaluation derives nu from
    its policy's step and shifts h to nu(h) = 0; it is kept in the same
    cache, so a later run that ends on the same policy returns the same
    object.  A step or result that raises is not kept.  Refuses as
    :func:`check_entry` does, once, for ``u0``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_entry(model, u0, workspace)
    ws = workspace if workspace is not None else refined_workspace(model, u0)

    trace = PiaTrace()
    seen: dict = {}
    best: tuple | None = None  # (rho, step, policy, key)
    policy = u0
    prev_h = None
    prev_rho = math.inf

    def finish(step, final, key):
        return ws.cached(("pia-result", key), lambda: _result(ws, final, *step[:2])), final, trace

    key = u0.key()
    for n in range(max_iter):
        step = ws.cached(("pia-step", key), lambda: _step(model, ws, policy))
        rho, h, residual, improved, opt_res = step
        new_key = improved.key()
        changed = sum(map(operator.ne, key[0], new_key[0])) + sum(map(operator.ne, key[1], new_key[1]))
        delta_h = float(np.abs(h - prev_h).max()) if prev_h is not None else math.nan
        trace.records.append(IterationRecord(
            n=n,
            rho=rho,
            poisson_residual=residual,
            changed_states=changed,
            optimality_residual=opt_res,
            delta_h=delta_h,
            h_gnorm=float((np.abs(h) / model.lyapunov_g).max()),
        ))

        if best is None or rho < best[0]:
            best = (rho, step, policy, key)

        if changed == 0:
            trace.status = "converged"
            trace.reason = "policy-identity"
            return finish(step, policy, key)
        if prev_rho - rho < tol_rho and opt_res <= 10.0 * tol_rho:
            trace.status = "converged"
            trace.reason = "rho-tolerance"
            return finish(step, policy, key)

        if key in seen and rho >= seen[key] - tol_rho:
            trace.status = "cycling"
            return finish(*best[1:])
        seen[key] = rho

        prev_h = h
        prev_rho = rho
        policy, key = improved, new_key

    trace.status = "max-iter"
    return finish(*best[1:])
