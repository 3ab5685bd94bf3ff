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

One PIA step -- a policy's evaluation, its improved policy and its
certificate -- depends only on the workspace and the policy, so
:func:`run_pia` keeps each step in the workspace's per-policy cache, with
its arrays read-only, and a later run on the same workspace that reaches
the same policy (another start of a sweep) reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import FeedbackPolicy
from .operators import OperatorWorkspace, check_entry, refined_workspace
from .evaluation import EvaluationResult, evaluate_policy

DEFAULT_TOL_RHO = 1e-8
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
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
    """(evaluation, improved policy, optimality residual) of ``policy`` on ``ws``, arrays read-only."""
    evaluation = evaluate_policy(model, policy, workspace=ws)
    improved, opt_res = ws.improve_and_certify(evaluation.rho, evaluation.h, policy)
    for array in (evaluation.h, evaluation.nu, improved.interior, improved.boundary):
        array.flags.writeable = False
    return evaluation, improved, opt_res


def run_pia(model, u0: FeedbackPolicy, tol_rho: float = DEFAULT_TOL_RHO,
            max_iter: int = DEFAULT_MAX_ITER, *,
            workspace: OperatorWorkspace | None = None) -> tuple[EvaluationResult, FeedbackPolicy, PiaTrace]:
    """Alternate policy evaluation and improvement until the policy is a fixed point.

    Termination: the improved policy equals the current one (primary, finite
    policy space), or the rho decrement falls below ``tol_rho`` with an
    optimality residual below ``10 * tol_rho``, or ``max_iter`` is reached.
    Revisiting an earlier policy without improving rho reports "cycling" and
    the best iterate seen.

    Each step (evaluation, improved policy, certificate) is kept in the
    workspace's per-policy cache under the policy's key, and taken from
    there when this or a later run on the same workspace reaches the policy
    again; its arrays are read-only.  A step that raises
    is not kept.  Refuses as :func:`check_entry` does.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_entry(model, u0, workspace)
    ws = workspace if workspace is not None else refined_workspace(model, u0)

    trace = PiaTrace()
    seen: dict = {}
    best: tuple | None = None  # (rho, eval, policy)
    policy = u0
    prev_h = None
    prev_rho = math.inf
    evaluation = None

    for n in range(max_iter):
        key = policy.key()
        evaluation, improved, opt_res = ws.cached(("pia-step", key), lambda: _step(model, ws, policy))
        changed = int(np.sum(improved.interior != policy.interior)
                      + np.sum(improved.boundary != policy.boundary))
        delta_h = float(np.max(np.abs(evaluation.h - prev_h))) if prev_h is not None else math.nan
        trace.records.append(IterationRecord(
            n=n,
            rho=evaluation.rho,
            poisson_residual=evaluation.residual,
            changed_states=changed,
            optimality_residual=opt_res,
            delta_h=delta_h,
            h_gnorm=evaluation.gnorm_h(model.lyapunov_g),
        ))

        if best is None or evaluation.rho < best[0]:
            best = (evaluation.rho, evaluation, policy)

        if changed == 0:
            trace.status = "converged"
            trace.reason = "policy-identity"
            return evaluation, policy, trace
        if prev_rho - evaluation.rho < tol_rho and opt_res <= 10.0 * tol_rho:
            trace.status = "converged"
            trace.reason = "rho-tolerance"
            return evaluation, policy, trace

        if key in seen and evaluation.rho >= seen[key] - tol_rho:
            trace.status = "cycling"
            return best[1], best[2], trace
        seen[key] = evaluation.rho

        prev_h = evaluation.h
        prev_rho = evaluation.rho
        policy = improved

    trace.status = "max-iter"
    return best[1], best[2], trace
