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

Each evaluation does each piece of work once, at three lifetimes:

  * per (kappa, N+1, S), in lru_caches: the unit sample bases of derivative
    orders 0..3 and their duration exponents (the sample times are fixed
    fractions of each piece, so a basis row is a unit row times powers of
    the duration), the trapezoid weights and fractions, and the effort
    term's factor and exponent tables; per (v_max, a_max) the feasibility
    limits; minco caches the constraint matrix's structure per (M, S) the
    same way;
  * per plan, in ObjectiveSetup: the boundary rows of the coefficient
    system's right-hand side and the duration map's clip bounds, and per
    piece count M one minco.Workspace, minco's storage for every solve: the
    band storages that the LU factors overwrite, the dA/dtbar rows and the
    right-hand side, whose boundary rows it writes once;
  * per evaluation: the durations, one BandedSystem (A's entries raised to
    their powers once, for A and A^T, and factored in the workspace), one
    solve_coeffs, which writes only the knot rows of the workspace's
    right-hand side, and one Samples: the (4, M, kappa+1, N+1) sample
    basis of all orders and pieces and its one product with the (M, N+1, D)
    coefficients, which the obstacle and the feasibility terms both read.

total_objective calls each stage once, through its module-level name
(BandedSystem, minco.solve_coeffs, control_effort, sample_trajectory,
obstacle_cost, feasibility_cost, minco.propagate_gradients), so a caller
can time every layer; the stages take the arrays that plan() built as they
are, without converting them again.  Every term works on all pieces at once
and returns dK/dC as one (M, N+1, D) array.  Every floating-point operation
keeps the operands, the order and the numpy/BLAS call shape of the per-term
code it replaced, so the results are bitwise those of that code
(tests/test_bitwise_objective.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


def _duration_bounds(tf: TimeTransform) -> tuple[float, float, float, float]:
    """(t_min, span, lo, hi): lo and hi are the nearest floats strictly inside the bounds."""
    lo, hi = math.nextafter(tf.t_min, math.inf), math.nextafter(tf.t_max, -math.inf)
    return tf.t_min, tf.span, lo, hi


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic of a float array: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _duration_map(tau: np.ndarray, bounds: tuple[float, float, float, float]):
    """Durations in (t_min, t_max) for the float array tau, and dtbar/dtau, from one sigmoid.

    A saturated sigmoid (|tau| beyond about 37) rounds the duration onto a
    bound, so the durations are clipped to the nearest floats strictly
    inside; every unsaturated value passes through unchanged.  `bounds` is
    _duration_bounds(tf).
    """
    t_min, span, lo, hi = bounds
    sig = _sigmoid(tau)
    scaled = span * sig
    return np.minimum(np.maximum(scaled + t_min, lo), hi), scaled * (1.0 - sig)


def tau_to_time(tau: np.ndarray, tf: TimeTransform) -> np.ndarray:
    """Map unconstrained tau to durations in (t_min, t_max)."""
    return _duration_map(np.asarray(tau, dtype=float), _duration_bounds(tf))[0]


def time_to_tau(tbar: np.ndarray, tf: TimeTransform) -> np.ndarray:
    """Exact logit inverse of tau_to_time; durations must be strictly interior."""
    tbar = np.asarray(tbar, dtype=float)
    if np.any(tbar <= tf.t_min) or np.any(tbar >= tf.t_max):
        raise OutOfRange(f"durations {tbar} not inside ({tf.t_min}, {tf.t_max})")
    u = (tbar - tf.t_min) / tf.span
    return np.log(u / (1.0 - u))


def _frozen(*arrays):
    """Mark cached tables read-only: every caller shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _unit_bases(kappa: int, n: int):
    """Unit sampling bases of derivative orders 0..3 at the fractions j/kappa.

    The order-k basis row at s = frac*t factors as unit[k, 0] * t**pw[k, 0];
    returns (unit (4, 1, kappa+1, n), pw (4, 1, 1, n)), shaped against the
    durations as an (M, 1, 1) column.
    """
    frac = (np.arange(kappa + 1) / kappa)[:, None]
    pws = [np.maximum(np.arange(n) - k, 0).astype(float) for k in range(4)]
    unit = np.stack([minco._basis_factors(n, k) * frac**pw for k, pw in enumerate(pws)])
    return _frozen(unit[:, None], np.stack(pws)[:, None, None, :])


@functools.lru_cache(maxsize=None)
def _trapezoid(kappa: int):
    """Trapezoid weights (kappa+1,), the same as a column, and the sample fractions j/kappa."""
    w = np.ones(kappa + 1)
    w[0] = w[-1] = 0.5
    return _frozen(w, w[:, None], np.arange(kappa + 1) / kappa)


@functools.lru_cache(maxsize=None)
def _effort_tables(n: int, s_order: int):
    """S-th derivative factors as a column, twice them, and the powers of its square's integral."""
    fac = minco._basis_factors(n, s_order)[s_order:, None]
    a_idx = np.arange(n - s_order)  # powers of the S-th derivative
    return _frozen(fac, 2.0 * fac, a_idx, a_idx[:, None] + a_idx[None, :] + 1)


class Samples(NamedTuple):
    """Derivatives 0..3 of every piece at its kappa+1 sample times.

    basis (4, M, kappa+1, N+1) times the coefficients gives values
    (4, M, kappa+1, D): position, velocity, acceleration and jerk.
    """

    basis: np.ndarray
    values: np.ndarray


def sample_trajectory(traj: Trajectory, kappa: int) -> Samples:
    """The sample bases of all orders and pieces, and their one product with C."""
    unit, pw = _unit_bases(kappa, traj.coefficients.shape[1])
    basis = unit * traj.durations[:, None, None] ** pw
    return Samples(basis, basis @ traj.coefficients)


def control_effort(traj: Trajectory, s_order: int):
    """Closed-form integral of the squared S-th derivative over all pieces.

    Returns (cost, dK_dC (M, N+1, D), dK_dt (M,)).
    """
    c, t = traj.coefficients, traj.durations
    fac, fac2, a_idx, psum = _effort_tables(c.shape[1], s_order)
    u = fac * c[:, s_order:]  # (M, deg, D)
    p = t[:, None, None] ** psum / psum
    dk_dc = np.zeros(c.shape)
    np.multiply(fac2, p @ u, out=dk_dc[:, s_order:])
    end_deriv = ((t[:, None] ** a_idx)[:, None, :] @ u)[:, 0]
    # one einsum per piece, summed from 0 in piece order: a batched einsum may
    # iterate the terms in another order, and the cost would change its bits
    cost = 0.0
    for i in range(c.shape[0]):
        cost += np.einsum("ad,ab,bd->", u[i], p[i], u[i])
    return float(cost), dk_dc, (end_deriv[:, None, :] @ end_deriv[:, :, None])[:, 0, 0]


def time_cost(tbar: np.ndarray):
    """Total time of the float array tbar, and its gradient: 1.0 for every piece."""
    return float(np.add.reduce(tbar)), 1.0


def _sum_in_order(values: np.ndarray) -> float:
    """Sum from 0 left to right, as Python's sum over the array's elements."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _sampled_penalty(traj: Trajectory, kappa: int, pen, dpen_dc, dpen_ds):
    """Trapezoid integral of per-sample penalties pen (M, kappa+1) over every piece.

    dpen_dc (M, N+1, D) is the weighted sum of dpen/dC over each piece's
    samples, dpen_ds (M, kappa+1) each penalty's derivative along piece-local
    time; sample k sits at s = tbar_i * k/kappa.  The weighted sums over the
    samples are one BLAS dot per piece.  Returns (cost, dK_dC, dK_dt).
    """
    w, _, frac = _trapezoid(kappa)
    scale = traj.durations / kappa
    w_pen = (w[None, :] @ pen[:, :, None])[:, 0, 0]
    dk_dt = (1.0 / kappa) * w_pen + scale * (w[None, :] @ (dpen_ds * frac)[:, :, None])[:, 0, 0]
    return _sum_in_order(scale * w_pen), scale[:, None, None] * dpen_dc, dk_dt


def obstacle_cost(traj: Trajectory, world, cfg: PenaltyConfig, samples: Samples):
    """Clearance penalty accumulated along trapezoid samples of each piece.

    Penalty at a sample is max(d_safe - dist, 0)^3 with dist taken from the
    world's bilinearly interpolated signed distance field, so inside an
    obstacle the penalty keeps growing with penetration depth and its
    gradient points out; out-of-bounds samples count as zero clearance.
    `samples` is sample_trajectory(traj, cfg.kappa).  Returns (cost, dK_dC, dK_dt).
    """
    kappa = cfg.kappa
    c = traj.coefficients
    m, _, d = c.shape
    dist, dgrad = world.query_distance(samples.values[0].reshape(-1, d))
    gap = np.maximum(cfg.d_safe - dist, 0.0).reshape(m, kappa + 1)
    if not np.count_nonzero(gap):
        return 0.0, np.zeros(c.shape), np.zeros(m)
    w = _trapezoid(kappa)[1]
    dpen_dpos = (-3.0 * gap**2)[..., None] * dgrad.reshape(m, kappa + 1, d)
    dpen_dc = samples.basis[0].transpose(0, 2, 1) @ (w * dpen_dpos)
    dpen_ds = np.add.reduce(dpen_dpos * samples.values[1], axis=2)
    return _sampled_penalty(traj, kappa, gap**3, dpen_dc, dpen_ds)


@functools.lru_cache(maxsize=None)
def _squared_limits(v_max: float, a_max: float) -> np.ndarray:
    """v_max^2 and a_max^2 as a (2, 1, 1) column against the velocity and acceleration samples."""
    return _frozen(np.array([v_max**2, a_max**2])[:, None, None])[0]


def feasibility_cost(traj: Trajectory, cfg: PenaltyConfig, samples: Samples):
    """Velocity/acceleration limit penalty with the same sampling scheme.

    Penalty is max(|v|^2 - v_max^2, 0)^3 + max(|a|^2 - a_max^2, 0)^3.
    `samples` is sample_trajectory(traj, cfg.kappa).  Returns (cost, dK_dC, dK_dt).
    """
    kappa = cfg.kappa
    c = traj.coefficients
    # velocity and acceleration stacked on axis 0 through every step
    va = samples.values[1:3]
    excess = np.maximum(np.add.reduce(va**2, axis=3) - _squared_limits(cfg.v_max, cfg.a_max), 0.0)
    if not np.count_nonzero(excess):
        return 0.0, np.zeros(c.shape), np.zeros(c.shape[0])
    w = _trapezoid(kappa)[1]
    grow = 6.0 * excess**2
    dpen_dc = samples.basis[1:3].transpose(0, 1, 3, 2) @ (w * grow[..., None] * va)
    # sample-time dependence: d|v|^2/ds = 2 v.a, d|a|^2/ds = 2 a.jerk
    dpen_ds = grow * np.add.reduce(va * samples.values[2:4], axis=3)
    pen = excess**3
    return _sampled_penalty(traj, kappa, pen[0] + pen[1], dpen_dc[0] + dpen_dc[1],
                            dpen_ds[0] + dpen_ds[1])


@dataclass
class ObjectiveSetup:
    """Everything fixed during one optimization run.

    Built once per plan: `ends`, the boundary rows of the coefficient
    system's right-hand side, `bounds`, the duration map's clip bounds, and
    `work`, one minco.Workspace per piece count M that an evaluation has
    used (filled on first use).  The workspaces make a setup serve one
    evaluation at a time.
    """

    init: BoundaryState
    target: BoundaryState
    world: object
    weights: CostWeights
    penalty: PenaltyConfig
    transform: TimeTransform
    s_order: int
    ends: np.ndarray = field(init=False, repr=False)
    bounds: tuple = field(init=False, repr=False)
    work: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.ends = minco.boundary_rows(self.init, self.target, self.s_order)
        self.bounds = _duration_bounds(self.transform)
        self.work = {}


def _add_term(cost: float, dk_dc, dk_dt, weight: float, term) -> float:
    """Add weight * the term's gradients into dk_dc and dk_dt; return cost + weight * its cost."""
    term_cost, term_dc, term_dt = term
    if weight != 1.0:  # a unit weight changes no bit
        term_dc, term_dt = weight * term_dc, weight * term_dt
    dk_dc += term_dc
    dk_dt += term_dt
    return cost + weight * term_cost


def total_objective(q: np.ndarray, tau: np.ndarray, setup: ObjectiveSetup):
    """Full objective H(Q, tau) with gradients.

    q is a (D, M-1) and tau an (M,) float array.  Maps tau to durations,
    solves the coefficient system, sums the weighted terms from 0 (effort,
    time, obstacle, feasibility), propagates gradients back to (Q, tbar) and
    applies the tau chain rule.  The obstacle and feasibility terms share
    one Samples.  Pure: identical inputs give identical outputs.

    Returns (H, dH_dQ, dH_dtau).
    """
    m = tau.shape[0]
    try:
        work = setup.work[m]
    except KeyError:
        work = setup.work[m] = minco.Workspace(m, setup.s_order, setup.ends)
    w, pen, s_order = setup.weights, setup.penalty, setup.s_order
    tbar, dtbar_dtau = _duration_map(tau, setup.bounds)
    system = BandedSystem(tbar, s_order, work)
    traj = minco.solve_coeffs(setup.init, setup.target, TrajParams(q, tbar), s_order, system)

    cost = 0.0
    dk_dc = np.zeros(traj.coefficients.shape)
    dk_dt = np.zeros(m)
    if w.effort != 0.0:
        cost = _add_term(cost, dk_dc, dk_dt, w.effort, control_effort(traj, s_order))
    if w.time != 0.0:
        total_time, d_time = time_cost(tbar)
        cost += w.time * total_time
        dk_dt += w.time * d_time
    if w.obstacle != 0.0 or w.feasibility != 0.0:
        samples = sample_trajectory(traj, pen.kappa)
        if w.obstacle != 0.0:
            cost = _add_term(cost, dk_dc, dk_dt, w.obstacle,
                             obstacle_cost(traj, setup.world, pen, samples))
        if w.feasibility != 0.0:
            cost = _add_term(cost, dk_dc, dk_dt, w.feasibility,
                             feasibility_cost(traj, pen, samples))

    dh_dq, dh_dt = minco.propagate_gradients(traj, dk_dc, dk_dt, system)
    return cost, dh_dq, dh_dt * dtbar_dtau
