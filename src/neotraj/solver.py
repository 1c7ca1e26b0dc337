"""L-BFGS engine over (Q, tau) and the single-shot planner facade.

The engine is a standard two-loop recursion with a strong-Wolfe
bracket-and-zoom line search (cubic interpolation).  Every accepted step
strictly decreases the objective; on line-search failure the best iterate
so far is returned with converged=False, which the replanner treats as a
usable plan.  The flat variable layout is [Q column-major, then tau].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import minco, objective
from .errors import NonFiniteObjective
from .minco import BoundaryState, TrajParams, Trajectory
from .objective import CostWeights, ObjectiveSetup, PenaltyConfig, TimeTransform


@dataclass
class SolverConfig:
    history: int = 8
    max_iterations: int = 200
    g_tol: float = 1e-5
    f_tol: float = 1e-8
    c1: float = 1e-4
    c2: float = 0.9
    max_ls_steps: int = 40

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.history < 1:
            raise ValueError("history must be >= 1")


@dataclass
class PlanResult:
    trajectory: Trajectory
    waypoints: np.ndarray
    durations: np.ndarray
    cost: float
    iterations: int
    ls_evals: int
    wall_time: float
    converged: bool


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through (a, fa, da), (b, fb, db); None if degenerate."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc < 0.0:
        return None
    d2 = np.sqrt(disc) * np.sign(b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    return b - (b - a) * (db + d2 - d1) / denom


class _Objective:
    """Counts evaluations of f and normalizes its (value, gradient) output."""

    def __init__(self, f):
        self.f = f
        self.evals = 0

    def __call__(self, x):
        self.evals += 1
        val, grad = self.f(x)
        return float(val), np.asarray(grad, dtype=float)


def _wolfe_search(func, x, f0, g0, direction, cfg: SolverConfig, first_step: float = 1.0):
    """Strong-Wolfe line search.  Returns (alpha, f, g) or None on failure."""
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0.0:
        return None

    def phi(a):
        fa, ga = func(x + a * direction)
        return fa, ga, float(ga @ direction)

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi, budget):
        for _ in range(budget):
            a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            width = abs(hi - lo)
            if (
                a is None
                or not np.isfinite(a)
                or a <= min(lo, hi) + 0.1 * width
                or a >= max(lo, hi) - 0.1 * width
            ):
                a = 0.5 * (lo + hi)
            fa, ga, da = phi(a)
            if not np.isfinite(fa) or fa > f0 + cfg.c1 * a * dphi0 or fa >= f_lo:
                hi, f_hi, d_hi = a, fa, da
            else:
                if abs(da) <= -cfg.c2 * dphi0:
                    return a, fa, ga
                if da * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = a, fa, da
            if abs(hi - lo) < 1e-14:
                break
        if f_lo < f0:  # acceptable decrease even without curvature
            fa, ga, _ = phi(lo)
            return lo, fa, ga
        return None

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = first_step
    for it in range(cfg.max_ls_steps):
        fa, ga, da = phi(a)
        if not np.isfinite(fa):
            a = 0.5 * (a_prev + a)
            continue
        if fa > f0 + cfg.c1 * a * dphi0 or (it > 0 and fa >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, fa, da, cfg.max_ls_steps - it)
        if abs(da) <= -cfg.c2 * dphi0:
            return a, fa, ga
        if da >= 0.0:
            return zoom(a, fa, da, a_prev, f_prev, d_prev, cfg.max_ls_steps - it)
        a_prev, f_prev, d_prev = a, fa, da
        a = min(2.0 * a, 1e6)
    return None


def minimize(f, x0: np.ndarray, cfg: SolverConfig):
    """L-BFGS minimization of f(x) -> (value, gradient).

    Terminates on gradient inf-norm <= g_tol, relative cost decrease
    <= f_tol, or max iterations.  Returns (x, value, iterations, ls_evals,
    converged).
    """
    func = _Objective(f)
    x = np.asarray(x0, dtype=float).copy()
    fx, g = func(x)
    if not (np.isfinite(fx) and np.all(np.isfinite(g))):
        raise NonFiniteObjective("objective not finite at the initial point")

    if np.max(np.abs(g)) <= cfg.g_tol:
        return x, fx, 0, func.evals, True

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    converged = False
    k = 0
    while k < cfg.max_iterations:
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if s_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q
        if direction @ g >= 0.0:  # safeguard: fall back to steepest descent
            s_hist.clear(), y_hist.clear(), rho_hist.clear()
            direction = -g

        # without curvature history the unit step can be wildly out of scale
        first_step = 1.0 if s_hist else min(1.0, 1.0 / max(1.0, float(np.max(np.abs(g)))))
        result = _wolfe_search(func, x, fx, g, direction, cfg, first_step)
        if result is None:
            break
        alpha, f_new, g_new = result
        k += 1
        s = alpha * direction
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.history:
                s_hist.pop(0), y_hist.pop(0), rho_hist.pop(0)
        f_decrease = fx - f_new
        x = x + s
        fx, g = f_new, g_new
        if np.max(np.abs(g)) <= cfg.g_tol:
            converged = True
            break
        if f_decrease <= cfg.f_tol * max(1.0, abs(fx)):
            converged = True
            break
    return x, fx, k, func.evals, converged


DURATION_MARGIN = 1e-3


def clamp_durations(tbar: np.ndarray, tf: TimeTransform) -> np.ndarray:
    """Durations clipped DURATION_MARGIN inside the transform's bounds."""
    return np.clip(tbar, tf.t_min + DURATION_MARGIN, tf.t_max - DURATION_MARGIN)


def plan(
    init: BoundaryState,
    target: BoundaryState,
    guess: TrajParams,
    world,
    weights: CostWeights,
    penalty: PenaltyConfig,
    transform: TimeTransform,
    solver_cfg: SolverConfig,
    s_order: int,
) -> PlanResult:
    """Run one spatial-temporal optimization from an initial guess (world None: no obstacles)."""
    t_start = time.perf_counter()
    setup = ObjectiveSetup(init, target, world, weights, penalty, transform, s_order)
    d, m = guess.dims, guess.n_pieces
    tau0 = objective.time_to_tau(clamp_durations(guess.durations, transform), transform)
    x0 = np.concatenate([guess.waypoints.flatten(order="F"), tau0])
    nq = d * (m - 1)

    def unpack(x):
        return x[:nq].reshape((d, m - 1), order="F"), x[nq:]

    def f(x):
        q, tau = unpack(x)
        h, dq, dtau = objective.total_objective(q, tau, setup)
        return h, np.concatenate([dq.flatten(order="F"), dtau])

    x, cost, iters, evals, converged = minimize(f, x0, solver_cfg)
    q, tau = unpack(x)
    tbar = objective.tau_to_time(tau, transform)
    params = TrajParams(q, tbar)
    traj = minco.solve_coeffs(init, target, params, s_order)
    return PlanResult(
        trajectory=traj,
        waypoints=q,
        durations=tbar,
        cost=float(cost),
        iterations=iters,
        ls_evals=evals,
        wall_time=time.perf_counter() - t_start,
        converged=converged,
    )
