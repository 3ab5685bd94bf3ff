"""Fixed-policy evaluation: average cost, bias, and invariant measure.

For a feedback policy u the embedded chain of post-jump locations has kernel
G, and the policy's (G, calL, Lf + Hr) come from
:meth:`OperatorWorkspace.assemble`, one backward pass over the workspace's
per-piece tables, the same sums improvement reads.  The average cost rho and
the bias h solve the pseudo-Poisson equation

    h = -rho*calL + Lf + Hr + G h,

which fixes h up to a constant.  With h pinned to 0 at ``PIN_STATE`` it is
one bordered linear system in (h, rho),

    [[I - G, calL], [e_s, 0]] (h, rho) = (Lf + Hr, 0),

nonsingular when the graph of G has one closed communicating class and
nu . calL > 0, for nu the invariant row of G.  The kernel's row mass and
class are checked first and the solution's defect after: that check and
solve (:func:`_bias`) are evaluation's one path, shared by
:func:`evaluate_policy` and policy iteration, which reads only rho and the
pinned h.  nu is derived only where it is read, by one direct solve of its
stationarity system checked by one step nu <- nu G: for a returned
:class:`EvaluationResult` (its nu, D = nu . calL, and h shifted to
nu(h) = 0; :func:`_measured`) and for the audit.  The paper's geometric
series sum_k G^k (Lf + Hr - rho calL), truncated by the ergodicity
constants of :func:`estimate_ergodic_constants`, and the deflated solve
(I - G + 1 nu) h = Lf + Hr - rho calL are kept only as the tests'
independent cross-checks.  Those constants (a, kappa) are certified, not
fitted: they come from the g-weighted operator norms of the powers of
G - 1 nu, so |G^k h - nu(h)| <= a ||h||_g kappa^k g holds for every h and
every k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorWorkspace, check_entry, refined_workspace

DEFAULT_TOL = 1e-8
STATIONARY_TOL = 1e-12
ERGODIC_PROBE_POWERS = 20
PIN_STATE = 0  # the grid state where the bordered solve pins h to 0


class EvaluationError(RuntimeError):
    """Policy evaluation could not produce a certified solution."""


class ErgodicityError(EvaluationError):
    """The embedded chain looks reducible / non-ergodic under this policy."""


class KernelMassError(EvaluationError, ValueError):
    """Kernel rows that do not sum to 1.

    An assembled kernel loses mass only on a line whose frozen tail past
    t_max never jumps (jump rate at or below
    :data:`~pdmp_avgctl.operators.RATE_FLOOR`); every other tail is closed
    in the operators.
    """


def invariant_measure(kernel: np.ndarray) -> np.ndarray:
    """Invariant probability row nu with nu G = nu, sum nu = 1, nu >= 0.

    The kernel is checked first (:func:`_checked_kernel`), then the
    stationarity system is solved (:func:`_stationary`).
    """
    return _stationary(_checked_kernel(kernel))


def _checked_kernel(kernel: np.ndarray) -> np.ndarray:
    """``kernel`` as a float array, once its rows sum to 1 and its graph has one closed class.

    Raises KernelMassError (a ValueError too) when a row does not sum to 1
    within 1e-6, and ErgodicityError when the transition graph ``kernel >
    0`` has more than one closed communicating class (checked in O(n^2);
    the message gives the subdominant eigenvalue modulus, 1).  After both
    checks nu is unique, and the bordered and stationarity systems are
    nonsingular.  The class is settled by one vectorised test when the
    kernel has a positive column (:func:`_one_step_doeblin`); only a kernel
    without one walks its graph (:func:`_one_closed_class`).
    """
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    if kernel.shape != (n, n):
        raise ValueError(f"kernel must be square, got {kernel.shape}")
    rowdev = np.abs(kernel.sum(axis=1) - 1.0).max()
    if rowdev > 1e-6:
        raise KernelMassError(f"kernel rows must sum to 1 within 1e-6 (max deviation {rowdev:.3e})")
    if not _one_step_doeblin(kernel) and not _one_closed_class(kernel > 0.0, 0):
        raise ErgodicityError(
            "invariant measure is not unique: the kernel has more than one closed "
            "communicating class, so eigenvalue 1 repeats; subdominant eigenvalue modulus: 1"
        )
    return kernel


def _stationary(kernel: np.ndarray) -> np.ndarray:
    """nu of a kernel that :func:`_checked_kernel` passed, by one direct solve.

    The stationarity system nu (G - I) = 0 with sum nu = 1 is solved
    directly; one step nu <- nu G, renormalised, must move nu by at most
    ``STATIONARY_TOL`` in l1.  Raises ErgodicityError when the solve fails,
    returns a non-finite or negative entry, or does not pass the
    stationarity step.
    """
    n = kernel.shape[0]
    system = kernel.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        nu = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"stationarity system could not be solved: {exc}") from exc
    if not np.all(np.isfinite(nu)):
        raise ErgodicityError("stationarity solve returned a non-finite entry")
    if np.min(nu) < -1e-9:
        raise ErgodicityError(f"stationarity solve returned a negative entry ({np.min(nu):.3e})")

    nxt = nu @ kernel
    nxt = nxt / nxt.sum()
    step = float(np.abs(nxt - nu).sum())
    if not step <= STATIONARY_TOL:
        raise ErgodicityError(
            f"solved nu is not stationary: one step nu <- nu G moves it by {step:.3e} "
            f"in l1, above {STATIONARY_TOL:.0e}"
        )
    nu = np.clip(nxt, 0.0, None)
    return nu / nu.sum()


def _one_step_doeblin(kernel: np.ndarray) -> bool:
    """Whether some column of ``kernel`` is positive in every row: Doeblin's condition in one step.

    Every state then jumps to that column's state, so the state lies in
    every closed class, and there is exactly one (Meyn & Tweedie, *Markov
    Chains and Stochastic Stability*, 2nd ed., 2009, ch. 16).
    """
    return bool(kernel.min(axis=0).max() > 0.0)


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    """States reachable from ``start`` along the edges of ``adj`` (start included)."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        new = adj[frontier].any(axis=0) & ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return seen


def _one_closed_class(adj: np.ndarray, start: int) -> bool:
    """Whether the chain with transition graph ``adj`` has exactly one closed class.

    Walks from ``start`` to a state whose communicating class is closed (each
    step moves to a state that cannot return, so the reachable set shrinks),
    then checks that every state reaches that class: a state that does not
    reaches another closed class.
    """
    adj_back = np.ascontiguousarray(adj.T)
    while True:
        forward = _reach(adj, start)
        back = _reach(adj_back, start)
        escapes = np.flatnonzero(forward & ~back)
        if escapes.size == 0:
            return bool(back.all())
        start = int(escapes[0])


def estimate_ergodic_constants(kernel: np.ndarray, nu: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Certified (a, kappa) of the geometric decay |G^k h - nu(h)| <= a ||h||_g kappa^k g.

    c_k = ||G^k - 1 nu||_g = max_i sum_j |(G^k - 1 nu)_ij| g_j / g_i is
    the g-weighted operator norm of (G - 1 nu)^k (of I - 1 nu at k = 0),
    taken for k = 0, 1, ... up to ``ERGODIC_PROBE_POWERS``; the loop stops
    after the first c_k below 1e-8, where roundoff is still far below c_k.
    The norm is submultiplicative, so every such K with c_K < 1 gives
    kappa = c_K^(1/K) and a = max_{r<K} c_r / kappa^r with c_k <= a kappa^k
    for every k >= 0: the bound holds for every h, with no fit.  The
    candidate with the smallest a / (1 - kappa) is returned.  c_K = 0 is a
    candidate only at K = 1 (kappa = 0 bounds no nonzero c_r at r > 0).
    Raises ErgodicityError when there is no candidate.
    """
    g = np.asarray(g, dtype=float)
    deflated = kernel - nu
    power = np.eye(g.size) - nu
    norms, best = [], None
    for k in range(ERGODIC_PROBE_POWERS + 1):
        c = float(np.max(np.abs(power) @ g / g))
        if k and c < 1.0 and (c > 0.0 or k == 1):
            kappa = c ** (1.0 / k)
            a = max(norms[r] / kappa**r for r in range(k))
            if best is None or a / (1.0 - kappa) < best[0] / (1.0 - best[1]):
                best = (a, kappa)
        norms.append(c)
        if c < 1e-8:
            break
        power = power @ deflated
    if best is None:
        raise ErgodicityError(
            f"no power of G - 1 nu up to {len(norms) - 1} contracts in the g-norm "
            f"(smallest ||G^k - 1 nu||_g: {min(norms):.3e})"
        )
    return best


@dataclass(frozen=True)
class EvaluationResult:
    """Solution of the fixed-policy average-cost equation on the grid.

    ``h`` is normalised to nu(h) = 0.  ``to_dict`` names the one solver, the
    bordered direct solve, as ``evaluation.json`` carries it: ``method``
    "direct", 0 ``iterations``.
    """

    rho: float
    h: np.ndarray
    nu: np.ndarray
    D: float
    residual: float
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "pdmp-result/1",
            "rho": self.rho,
            "D": self.D,
            "residual": self.residual,
            "nu": self.nu.tolist(),
            "h": self.h.tolist(),
            "method": "direct",
            "iterations": 0,
        }


def evaluate_policy(model, policy, tol: float = DEFAULT_TOL, *,
                    workspace: OperatorWorkspace | None = None) -> EvaluationResult:
    """Average cost, bias and invariant measure of a feedback policy.

    One bordered direct solve (:func:`_bias`) gives (rho, h); nu is then
    derived and h shifted to nu(h) = 0 (:func:`_measured`).  The returned
    residual is the sup-norm defect of the solved equation on the solver's
    own mesh.  Refuses as :func:`check_entry` does.
    """
    check_entry(model, policy, workspace)
    ws = workspace
    if ws is None:
        ws = refined_workspace(model, policy, target=min(tol / 2.0, 5e-9))
    kernel, ell, cost = ws.assemble(policy, 0.0)
    rho, h, _ = _bias(kernel, ell, cost, tol)
    return _measured(ws, kernel, ell, cost, rho, h)


def _defect(kernel: np.ndarray, ell: np.ndarray, cost: np.ndarray, rho: float, h: np.ndarray) -> float:
    """Sup-norm defect of h = -rho*calL + Lf + Hr + G h."""
    return float(np.abs(h + rho * ell - cost - kernel @ h).max())


def _bias(kernel: np.ndarray, ell: np.ndarray, cost: np.ndarray, tol: float) -> tuple[float, np.ndarray, float]:
    """(rho, h, defect) of one policy's operators: h pinned to 0 at ``PIN_STATE``.

    The kernel is checked (:func:`_checked_kernel`), then the bordered
    system [[I - G, calL], [e_s, 0]] (h, rho) = (Lf + Hr, 0) is solved once.
    Raises EvaluationError when the system is singular or the defect of its
    solution is above ``tol`` (or not finite).
    """
    kernel = _checked_kernel(kernel)
    n = kernel.shape[0]
    system = np.zeros((n + 1, n + 1))
    np.negative(kernel, out=system[:n, :n])
    diagonal = np.arange(n)
    system[diagonal, diagonal] += 1.0
    system[:n, n] = ell
    system[n, PIN_STATE] = 1.0
    rhs = np.zeros(n + 1)
    rhs[:n] = cost
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(
            "bordered system [[I - G, calL], [e_s, 0]] is singular; nu . calL looks like 0"
        ) from exc
    h, rho = solution[:n], float(solution[n])
    res = _defect(kernel, ell, cost, rho, h)
    if not res <= tol:
        raise EvaluationError(
            f"pseudo-Poisson defect {res:.3e} exceeds tol={tol:.3e} (method=direct)"
        )
    return rho, h, res


def _measured(ws: OperatorWorkspace, kernel: np.ndarray, ell: np.ndarray, cost: np.ndarray, rho: float,
              h: np.ndarray) -> EvaluationResult:
    """The result of a policy whose (rho, h) :func:`_bias` solved: nu, D = nu . calL and h with nu(h) = 0.

    nu is one stationarity solve (:func:`_stationary`; the kernel already
    passed its check), and the residual is the defect of the shifted h.
    """
    nu = _stationary(kernel)
    h = h - float(nu @ h)
    stats = {"fill": ws.fill, "refine_diff": ws.refine_diff, "nu_h": float(nu @ h)}
    return EvaluationResult(rho=rho, h=h, nu=nu, D=float(nu @ ell), residual=_defect(kernel, ell, cost, rho, h),
                            stats=stats)
