"""Unconstrained planning objective and its analytic gradients.

The objective is a weighted sum of four terms: control effort (closed-form
polynomial integral of the squared S-th derivative), total time, obstacle
clearance and dynamic feasibility.  The last two are time-integral
penalties: each piece is sampled kappa+1 times on a trapezoid rule, the
violation at each sample is pushed through a cubic hinge (C^2 smooth, as
the gradient propagation requires), and the weighted sum is scaled by
tbar_i/kappa.  Durations are optimized through an unconstrained proxy
variable tau via a scaled sigmoid, clipped where it saturates, which keeps
every tbar_i strictly inside (tbar_min, tbar_max).

Because the sample times are fixed fractions of each piece duration, the
basis rows separate as unit-basis times powers of the duration; the unit
parts are cached per (kappa, degree) so an evaluation only scales them.
Every term works on all pieces at once: (M, kappa+1, N+1) sample bases
against the trajectory's (M, N+1, D) coefficients, and returns dK/dC as
one (M, N+1, D) array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import minco
from .errors import OutOfRange
from .minco import BandedSystem, BoundaryState, TrajParams, Trajectory


@dataclass
class CostWeights:
    """Weights of the four objective terms (effort, time, obstacle, feasibility)."""

    effort: float = 1.0
    time: float = 1.0
    obstacle: float = 10000.0
    feasibility: float = 1.0

    def __post_init__(self):
        if min(self.effort, self.time, self.obstacle, self.feasibility) < 0:
            raise ValueError("weights must be four nonnegative numbers")


@dataclass
class PenaltyConfig:
    """Sampling density and limits for the time-integral penalties."""

    kappa: int = 16
    d_safe: float = 0.4
    v_max: float = 1.0
    a_max: float = 2.0

    def __post_init__(self):
        if self.kappa < 4:
            raise ValueError("kappa must be >= 4")
        if self.d_safe <= 0 or self.v_max <= 0 or self.a_max <= 0:
            raise ValueError("d_safe, v_max, a_max must be positive")


@dataclass
class TimeTransform:
    """Bounds of the sigmoid duration reparameterization."""

    t_min: float = 0.5
    t_max: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")

    @property
    def span(self) -> float:
        return self.t_max - self.t_min


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _duration_map(tau: np.ndarray, tf: TimeTransform):
    """Durations in (t_min, t_max) for tau and dtbar/dtau, from one sigmoid.

    A saturated sigmoid (|tau| beyond about 37) rounds the duration onto a
    bound, so the durations are clipped to the nearest floats strictly
    inside; every unsaturated value passes through unchanged.
    """
    sig = _sigmoid(tau)
    tbar = np.clip(
        tf.span * sig + tf.t_min, np.nextafter(tf.t_min, np.inf), np.nextafter(tf.t_max, -np.inf)
    )
    return tbar, tf.span * sig * (1.0 - sig)


def tau_to_time(tau: np.ndarray, tf: TimeTransform) -> np.ndarray:
    """Map unconstrained tau to durations in (t_min, t_max)."""
    return _duration_map(tau, tf)[0]


def time_to_tau(tbar: np.ndarray, tf: TimeTransform) -> np.ndarray:
    """Exact logit inverse of tau_to_time; durations must be strictly interior."""
    tbar = np.asarray(tbar, dtype=float)
    if np.any(tbar <= tf.t_min) or np.any(tbar >= tf.t_max):
        raise OutOfRange(f"durations {tbar} not inside ({tf.t_min}, {tf.t_max})")
    u = (tbar - tf.t_min) / tf.span
    return np.log(u / (1.0 - u))


@functools.lru_cache(maxsize=None)
def _unit_bases(kappa: int, n: int, order: int):
    """Unit sampling basis and duration exponents for fixed fractions j/kappa.

    Basis rows at s = frac*t factor as unit[k, j] * t**pw[j]; returns
    (unit (kappa+1, n), pw (n,)).
    """
    pw = np.maximum(np.arange(n) - order, 0).astype(float)
    unit = minco._basis_factors(n, order) * (np.arange(kappa + 1) / kappa)[:, None] ** pw
    unit.flags.writeable = pw.flags.writeable = False  # shared through the cache
    return unit, pw


def _sample_bases(kappa: int, n: int, order: int, tbar: np.ndarray) -> np.ndarray:
    """Order-th derivative basis at the kappa+1 samples of every piece, (M, kappa+1, n)."""
    unit, pw = _unit_bases(kappa, n, order)
    return unit * tbar[:, None, None] ** pw


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, one BLAS dot per piece through matmul.

    These are the very calls a per-piece loop makes, so no result bit changes.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def control_effort(traj: Trajectory, s_order: int):
    """Closed-form integral of the squared S-th derivative over all pieces.

    Returns (cost, dK_dC (M, N+1, D), dK_dt (M,)).
    """
    c, t = traj.coefficients, traj.durations
    n = c.shape[1]
    fac = minco._basis_factors(n, s_order)[s_order:]
    a_idx = np.arange(n - s_order)  # powers of the S-th derivative
    psum = a_idx[:, None] + a_idx[None, :] + 1
    u = fac[:, None] * c[:, s_order:]  # (M, deg, D)
    p = t[:, None, None] ** psum / psum
    dk_dc = np.zeros_like(c)
    dk_dc[:, s_order:] = 2.0 * fac[:, None] * (p @ u)
    end_deriv = ((t[:, None] ** a_idx)[:, None, :] @ u)[:, 0]
    # one einsum per piece: a batched einsum may iterate the terms in another
    # order, and the cost would no longer be bitwise that of a per-piece sum
    cost = sum(np.einsum("ad,ab,bd->", u[i], p[i], u[i]) for i in range(len(c)))
    return float(cost), dk_dc, _dot_last(end_deriv, end_deriv)


def time_cost(tbar: np.ndarray):
    """Total trajectory time and its gradient (all ones)."""
    tbar = np.asarray(tbar, dtype=float)
    return float(tbar.sum()), np.ones_like(tbar)


def _trapezoid_weights(kappa: int) -> np.ndarray:
    w = np.ones(kappa + 1)
    w[0] = w[-1] = 0.5
    return w


def _sampled_penalty(traj: Trajectory, kappa: int, pen, dpen_dc, dpen_ds):
    """Trapezoid integral of per-sample penalties pen (M, kappa+1) over every piece.

    dpen_dc (M, N+1, D) is the weighted sum of dpen/dC over each piece's
    samples, dpen_ds (M, kappa+1) each penalty's derivative along piece-local
    time; sample k sits at s = tbar_i * k/kappa.  Returns (cost, dK_dC, dK_dt).
    """
    w = _trapezoid_weights(kappa)
    scale = traj.durations / kappa
    w_pen = _dot_last(w, pen)
    dk_dt = (1.0 / kappa) * w_pen + scale * _dot_last(w, dpen_ds * (np.arange(kappa + 1) / kappa))
    return float(sum(scale * w_pen)), scale[:, None, None] * dpen_dc, dk_dt


def obstacle_cost(traj: Trajectory, world, cfg: PenaltyConfig):
    """Clearance penalty accumulated along trapezoid samples of each piece.

    Penalty at a sample is max(d_safe - dist, 0)^3 with dist taken from the
    world's bilinearly interpolated signed distance field, so inside an
    obstacle the penalty keeps growing with penetration depth and its
    gradient points out; out-of-bounds samples count as zero clearance.
    Returns (cost, dK_dC, dK_dt).
    """
    kappa = cfg.kappa
    c, t = traj.coefficients, traj.durations
    m, n, d = c.shape
    b0 = _sample_bases(kappa, n, 0, t)
    dist, dgrad = world.query_distance((b0 @ c).reshape(-1, d))
    gap = np.maximum(cfg.d_safe - dist, 0.0).reshape(m, kappa + 1)
    if not gap.any():
        return 0.0, np.zeros_like(c), np.zeros(m)
    w = _trapezoid_weights(kappa)
    dpen_dpos = (-3.0 * gap**2)[..., None] * dgrad.reshape(m, kappa + 1, d)
    vel = _sample_bases(kappa, n, 1, t) @ c
    dpen_dc = b0.transpose(0, 2, 1) @ (w[:, None] * dpen_dpos)
    return _sampled_penalty(traj, kappa, gap**3, dpen_dc, np.sum(dpen_dpos * vel, axis=2))


def feasibility_cost(traj: Trajectory, cfg: PenaltyConfig):
    """Velocity/acceleration limit penalty with the same sampling scheme.

    Penalty is max(|v|^2 - v_max^2, 0)^3 + max(|a|^2 - a_max^2, 0)^3.
    Returns (cost, dK_dC, dK_dt).
    """
    kappa = cfg.kappa
    c, t = traj.coefficients, traj.durations
    m, n, _ = c.shape
    b1 = _sample_bases(kappa, n, 1, t)
    b2 = _sample_bases(kappa, n, 2, t)
    vel, acc = b1 @ c, b2 @ c
    ev = np.maximum(np.sum(vel**2, axis=2) - cfg.v_max**2, 0.0)
    ea = np.maximum(np.sum(acc**2, axis=2) - cfg.a_max**2, 0.0)
    if not (ev.any() or ea.any()):
        return 0.0, np.zeros_like(c), np.zeros(m)
    w = _trapezoid_weights(kappa)[:, None]
    jrk = _sample_bases(kappa, n, 3, t) @ c
    b1t, b2t = b1.transpose(0, 2, 1), b2.transpose(0, 2, 1)
    dpen_dc = (b1t @ (w * (6.0 * ev**2)[..., None] * vel)
               + b2t @ (w * (6.0 * ea**2)[..., None] * acc))
    # sample-time dependence: d|v|^2/ds = 2 v.a, d|a|^2/ds = 2 a.jerk
    dpen_ds = 6.0 * ev**2 * np.sum(vel * acc, axis=2) + 6.0 * ea**2 * np.sum(acc * jrk, axis=2)
    return _sampled_penalty(traj, kappa, ev**3 + ea**3, dpen_dc, dpen_ds)


@dataclass
class ObjectiveSetup:
    """Everything fixed during one optimization run."""

    init: BoundaryState
    target: BoundaryState
    world: object | None
    weights: CostWeights
    penalty: PenaltyConfig
    transform: TimeTransform
    s_order: int


def total_objective(q: np.ndarray, tau: np.ndarray, setup: ObjectiveSetup):
    """Full objective H(Q, tau) with gradients.

    Maps tau to durations, solves the coefficient system, sums the weighted
    terms, propagates gradients back to (Q, tbar) and applies the tau chain
    rule.  Pure: identical inputs give identical outputs.

    Returns (H, dH_dQ, dH_dtau).
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    tau = np.asarray(tau, dtype=float).ravel()
    w = setup.weights
    tbar, dtbar_dtau = _duration_map(tau, setup.transform)
    params = TrajParams(q, tbar)
    system = BandedSystem(tbar, setup.s_order)
    traj = minco.solve_coeffs(setup.init, setup.target, params, setup.s_order, system)

    cost = 0.0
    dk_dc = np.zeros_like(traj.coefficients)
    dk_dt = np.zeros(traj.n_pieces)

    def accumulate(term_cost, term_dc, term_dt, weight):
        nonlocal cost
        cost += weight * term_cost
        dk_dc[...] += weight * term_dc
        dk_dt[...] += weight * term_dt

    if w.effort != 0.0:
        accumulate(*control_effort(traj, setup.s_order), w.effort)
    if w.time != 0.0:
        tc, tg = time_cost(tbar)
        cost += w.time * tc
        dk_dt += w.time * tg
    if w.obstacle != 0.0 and setup.world is not None:
        accumulate(*obstacle_cost(traj, setup.world, setup.penalty), w.obstacle)
    if w.feasibility != 0.0:
        accumulate(*feasibility_cost(traj, setup.penalty), w.feasibility)

    dh_dq, dh_dt = minco.propagate_gradients(traj, dk_dc, dk_dt, system)
    return cost, dh_dq, dh_dt * dtbar_dtau
