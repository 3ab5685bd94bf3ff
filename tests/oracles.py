"""Independent oracles: uniformization for trivial-flow models, the series bias.

A pure-jump controlled chain (no motion between jumps) is a continuous-time
MDP, so its optimal average cost is computable by uniformization plus relative
value iteration on plain arrays, with no part of the solver library involved.

:func:`series_bias` solves the pseudo-Poisson equation of any model the way
the paper writes it, as the geometric series sum_k G^k (Lf + Hr - rho calL),
and :func:`deflated_bias` by the deflated system (I - G + 1 nu) h =
Lf + Hr - rho calL with rho = nu . (Lf + Hr) / nu . calL, so the library's
bordered direct solve has two other methods to agree with.
"""

from __future__ import annotations

import numpy as np

from pdmp_avgctl.evaluation import estimate_ergodic_constants, invariant_measure


def series_bias(model, policy, workspace, tol: float = 1e-8):
    """(rho, h): average cost and bias of ``policy`` by the truncated geometric series.

    The operators are those ``workspace`` assembles.  The series is summed
    until the tail bound a m_u max(g) kappa^(k+1) / (1 - kappa), with (a,
    kappa) the certified ergodicity constants, is at most ``tol`` (or 100 000
    terms), then shifted to nu(h) = 0.  Raises ``AssertionError`` when kappa
    is not certified below 1 or the pseudo-Poisson defect exceeds ``tol``.
    """
    kernel, ell, cost = workspace.assemble(policy, 0.0)
    nu = invariant_measure(kernel)
    rho = float(nu @ cost) / float(nu @ ell)
    w = cost - rho * ell
    g = model.lyapunov_g
    a_est, kappa = estimate_ergodic_constants(kernel, nu, g)
    assert kappa < 1.0 - 1e-9, f"geometric series refused: estimated kappa={kappa} is not certified below 1"
    c = model.constants
    m_u = max(rho * c.K_lambda, c.M * (1.0 + c.b * c.K_lambda) / c.c)
    g_max = float(np.max(g))
    total = w.copy()
    term = w.copy()
    k = 0
    while True:
        k += 1
        term = kernel @ term
        total += term
        tail = a_est * m_u * g_max * kappa ** (k + 1) / (1.0 - kappa)
        if tail <= tol or k >= 100_000:
            break
    h = total - float(nu @ total) * np.ones_like(total)
    defect = float(np.max(np.abs(h + rho * ell - cost - kernel @ h)))
    assert defect <= tol, f"pseudo-Poisson defect {defect:.3e} of the series exceeds tol={tol:.3e}"
    return rho, h


def deflated_bias(workspace, policy):
    """(rho, h): average cost and bias of ``policy`` on ``workspace``'s operators by the deflated solve.

    nu comes first, from the library's checked stationarity solve; then
    rho = nu . (Lf + Hr) / nu . calL, and h solves (I - G + 1 nu) h =
    Lf + Hr - rho calL, shifted to nu(h) = 0.
    """
    kernel, ell, cost = workspace.assemble(policy, 0.0)
    nu = invariant_measure(kernel)
    rho = float(nu @ cost) / float(nu @ ell)
    n = kernel.shape[0]
    h = np.linalg.solve(np.eye(n) - kernel + np.outer(np.ones(n), nu), cost - rho * ell)
    return rho, h - float(nu @ h)


def _uniformized(lam: np.ndarray, kernel: np.ndarray):
    """Discrete-time chain with a common clock: P, per-step cost scale 1/C."""
    n, n_a = lam.shape
    C = float(lam.max()) * 1.05 + 1e-9
    P = np.zeros((n, n_a, n))
    for x in range(n):
        for a in range(n_a):
            P[x, a] = lam[x, a] / C * kernel[x, a]
            P[x, a, x] += 1.0 - lam[x, a] / C
    return P, C


def uniformization_rvi(lam: np.ndarray, kernel: np.ndarray, f: np.ndarray,
                       feasible: list, tol: float = 1e-13, max_iter: int = 500_000):
    """Optimal long-run average cost rate and the minimizing stationary policy."""
    P, C = _uniformized(lam, kernel)
    cost = f / C
    n, n_a = lam.shape
    infeasible = np.ones((n, n_a), dtype=bool)
    for x, idx in enumerate(feasible):
        infeasible[x, list(idx)] = False
    w = np.zeros(n)
    for _ in range(max_iter):
        q = cost + np.einsum("xay,y->xa", P, w)
        q[infeasible] = np.inf
        tw = q.min(axis=1)
        diff = tw - w
        span = diff.max() - diff.min()
        w = tw - tw[0]
        if span < tol:
            break
    else:
        raise RuntimeError("relative value iteration did not converge")
    rho_dt = 0.5 * (diff.max() + diff.min())
    policy = q.argmin(axis=1)
    return C * rho_dt, policy


def uniformization_policy_value(lam: np.ndarray, kernel: np.ndarray, f: np.ndarray,
                                policy: np.ndarray) -> float:
    """Average cost rate of a fixed stationary policy via the uniformized chain."""
    P, C = _uniformized(lam, kernel)
    n = lam.shape[0]
    rows = np.arange(n)
    P_u = P[rows, policy]
    f_u = f[rows, policy]
    system = P_u.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    return float(pi @ f_u)


def model_arrays(model):
    """Raw (lam, kernel, f, feasible) arrays of a trivial-flow model."""
    assert model.flow.kind == "trivial"
    return (
        model.jump_rate[: model.n_states].copy(),
        model.kernel_interior.copy(),
        model.running_cost.copy(),
        [list(idx) for idx in model.action_grid.feasible],
    )
