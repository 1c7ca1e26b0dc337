"""Minimum-control-effort polynomial trajectories.

A trajectory is M pieces of degree N = 2S-1 polynomials in D dimensions
(defaults S=3, N=5, D=2: minimum jerk).  It is fully determined by the
intermediate waypoints Q (D x (M-1)) and the piece durations tbar (M,):
the coefficients follow from a linear boundary-intermediate value problem
with, per dimension,

  * S boundary conditions at each end (position/velocity/acceleration),
  * position interpolation q_i on both sides of each interior knot,
  * derivative continuity of orders 1..2S-2 across interior knots.

That system A(tbar) C = b(Q) is square (2S*M rows) and banded: with rows
ordered (start boundary, per knot [continuity 1..2S-2, position left,
position right], end boundary) the bandwidth is lower 3S-2, upper S+1
for M >= 2.  Its pattern, its constant entries and, for every entry that
depends on a duration, the unit coefficient and the power of tbar it
scales with are fixed by (M, S); they are built once per (M, S) as a
template, so assembling A(tbar) is one vectorised power-and-scatter into
band storage.  Banded LU factorizations of A and A^T, linear in M, serve
all D dimensions of the forward solve and of the adjoint solve
A^T G = dK/dC, and the same template gives dA/dtbar for the duration
gradient.  Because the
continuity orders extend to 2S-2, the unique solution is also the
minimizer of the integral of the squared S-th derivative among all
C^{S-1} splines through the same waypoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NonPositiveDuration, OutOfDomain, ShapeMismatch, SingularSystem


@functools.lru_cache(maxsize=None)
def _basis_factors(n_coeffs: int, order: int) -> np.ndarray:
    """Column scaling j!/(j-order)! of the order-th basis derivative (0 for j < order)."""
    fac = np.array([math.perm(j, order) for j in range(n_coeffs)], dtype=float)
    fac.flags.writeable = False  # shared by every caller through the cache
    return fac


def basis(t: float, order: int, n_coeffs: int) -> np.ndarray:
    """Row of the natural basis [1, t, ..., t^N] differentiated `order` times."""
    return basis_matrix(np.array([t]), order, n_coeffs)[0]


def basis_matrix(ts: np.ndarray, order: int, n_coeffs: int) -> np.ndarray:
    """Stacked basis rows for many sample times at once, shape (len(ts), n_coeffs)."""
    ts = np.asarray(ts, dtype=float).ravel()
    out = np.zeros((ts.size, n_coeffs))
    fac = _basis_factors(n_coeffs, order)
    # d^k/dt^k t^j = j!/(j-k)! t^(j-k)
    out[:, order:] = fac[order:] * ts[:, None] ** np.arange(n_coeffs - order)
    return out


@dataclass
class TrajParams:
    """Decision variables of the planner: waypoints and piece durations.

    waypoints: (D, M-1) interior waypoint positions, one column per knot.
    durations: (M,) strictly positive piece durations in seconds.
    """

    waypoints: np.ndarray
    durations: np.ndarray

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        self.durations = np.asarray(self.durations, dtype=float).ravel()
        if self.waypoints.shape[1] != self.durations.size - 1:
            raise ShapeMismatch(
                f"waypoints has {self.waypoints.shape[1]} columns, "
                f"expected {self.durations.size - 1} for {self.durations.size} pieces"
            )

    @property
    def n_pieces(self) -> int:
        return self.durations.size

    @property
    def dims(self) -> int:
        return self.waypoints.shape[0]


@dataclass
class BoundaryState:
    """Endpoint state: position, velocity and acceleration (D-vectors).

    Acceleration defaults to zero when unspecified.
    """

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray | None = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).ravel()
        self.velocity = np.asarray(self.velocity, dtype=float).ravel()
        if self.acceleration is None:
            self.acceleration = np.zeros_like(self.position)
        else:
            self.acceleration = np.asarray(self.acceleration, dtype=float).ravel()
        if not (
            np.all(np.isfinite(self.position))
            and np.all(np.isfinite(self.velocity))
            and np.all(np.isfinite(self.acceleration))
        ):
            raise ValueError("boundary state must be finite")

    def derivative(self, order: int) -> np.ndarray:
        return (self.position, self.velocity, self.acceleration)[order]


@dataclass
class Trajectory:
    """Executable piecewise polynomial: per-piece coefficients plus durations.

    coefficients: (M, N+1, D) array, or a list of M (N+1, D) arrays that is
    stacked into one; coefficients[i, j] holds the t^j coefficient of every
    dimension of piece i, in piece-local time.
    """

    coefficients: np.ndarray
    durations: np.ndarray
    start_times: np.ndarray = field(init=False)

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float).ravel()
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.start_times = np.concatenate(([0.0], np.cumsum(self.durations)))

    @property
    def n_pieces(self) -> int:
        return len(self.coefficients)

    @property
    def dims(self) -> int:
        return self.coefficients.shape[2]

    @property
    def total_time(self) -> float:
        return float(self.start_times[-1])

    def piece_index(self, t: float) -> int:
        """Index of the piece owning time t; t = total_time maps to the last piece."""
        if t < 0.0 or t > self.total_time + 1e-12:
            raise OutOfDomain(f"t={t} outside [0, {self.total_time}]")
        i = int(np.searchsorted(self.start_times, t, side="right")) - 1
        return min(max(i, 0), self.n_pieces - 1)

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Evaluate the `order`-th derivative at global time t."""
        i = self.piece_index(t)
        s = min(t - self.start_times[i], self.durations[i])
        n = self.coefficients.shape[1]
        return basis(s, order, n) @ self.coefficients[i]

    def eval_state(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, velocity and acceleration at global time t, as eval(t, 0..2).

        The piece is located once; each row is eval's own basis(s, k, n) @ c.
        """
        i = self.piece_index(t)
        s = min(t - self.start_times[i], self.durations[i])
        n = self.coefficients.shape[1]
        c = self.coefficients[i]
        return tuple(basis(s, order, n) @ c for order in range(3))

    def eval_piece(self, i: int, s: np.ndarray, order: int = 0) -> np.ndarray:
        """Evaluate piece i at local times s (vectorized), shape (len(s), D)."""
        n = self.coefficients.shape[1]
        return basis_matrix(s, order, n) @ self.coefficients[i]


class _Template(NamedTuple):
    """Fixed structure of A(tbar) for one (M, S).

    Nonzero e is A[rows[e], cols[e]] = coef[e] * tbar[piece[e]] ** pw[e]
    (pw = 0 for the constant entries); lower and upper are A's bandwidths.
    Row r depends on the duration of piece row_piece[r] (0 if on none).
    knots[i] is the row of the left position-interpolation constraint of
    interior knot i+1; the right one is the next row.
    """

    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    piece: np.ndarray
    pw: np.ndarray
    lower: int
    upper: int
    row_piece: np.ndarray
    knots: np.ndarray


@functools.lru_cache(maxsize=None)
def _template(m: int, s_order: int) -> _Template:
    n = 2 * s_order  # coefficients per piece
    entries = []

    def add(row, piece, order, at_end, sign=1.0):
        # basis derivative `order` at local time 0 (order! on column `order`) or
        # at tbar_piece (column j: j!/(j-order)! * tbar^(j-order))
        fac = _basis_factors(n, order)
        entries.extend((row, n * piece + j, sign * fac[j], piece, j - order)
                       for j in range(order, n if at_end else order + 1))

    # start boundary (rows 0..S-1) and end boundary (last S rows)
    for k in range(s_order):
        add(k, 0, k, False)
        add(n * m - s_order + k, m - 1, k, True)
    # interior knots: continuity orders 1..2S-2, then position left and right
    for i in range(1, m):
        r0 = s_order + n * (i - 1)
        for k in range(1, n - 1):
            add(r0 + k - 1, i - 1, k, True)
            add(r0 + k - 1, i, k, False, sign=-1.0)
        add(r0 + n - 2, i - 1, 0, True)
        add(r0 + n - 1, i, 0, False)

    rows, cols, coef, piece, pw = (np.array(v) for v in zip(*entries))
    row_piece = np.zeros(n * m, dtype=int)
    row_piece[rows[pw > 0]] = piece[pw > 0]
    return _Template(rows, cols, coef, piece, pw, int(max(rows - cols)), int(max(cols - rows)),
                     row_piece, s_order + n * np.arange(m - 1) + n - 2)


def band_matrix(durations: np.ndarray, s_order: int, transpose: bool = False):
    """A(tbar), or A^T, in LAPACK band storage: (ab, lower, upper) of that matrix.

    Entry (r, c) sits at ab[lower + upper + r - c, c]; the first `lower` rows
    are left for the fill-in of the LU factorization.
    """
    durations = np.asarray(durations, dtype=float).ravel()
    tp = _template(durations.size, s_order)
    rows, cols, lo, up = (tp.rows, tp.cols, tp.lower, tp.upper) if not transpose else (
        tp.cols, tp.rows, tp.upper, tp.lower)
    ab = np.zeros((2 * lo + up + 1, tp.row_piece.size), order="F")
    ab[lo + up + rows - cols, cols] = tp.coef * durations[tp.piece] ** tp.pw
    return ab, lo, up


# Banded LAPACK: linear in M, and single-threaded at these sizes.  The dense
# getrs/trtrs of the bundled OpenBLAS start threads even for an 18x18 system
# and stall for milliseconds per call when other processes hold the cores.
_GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


class BandedSystem:
    """Banded LU factorizations of the constraint matrix A(tbar) and of A^T.

    Built once per (durations, s_order) and shared by the forward and the
    adjoint solve of one objective evaluation.  A^T is factored in its own
    right, not solved through the factors of A, so that each solution is
    bitwise that of a banded solve of A or A^T.  A zero pivot or a non-finite
    solution (non-finite durations or right-hand side) raises SingularSystem.
    """

    def __init__(self, durations: np.ndarray, s_order: int):
        self.durations = np.asarray(durations, dtype=float).ravel()
        self.s_order = s_order
        self.template = _template(self.durations.size, s_order)
        self._factors = [self._factor(*band_matrix(self.durations, s_order, t)) for t in (0, 1)]

    @staticmethod
    def _factor(ab, lower, upper):
        lu, piv, info = _GBTRF(ab, lower, upper, overwrite_ab=True)
        if info != 0:
            raise SingularSystem(f"zero pivot in column {info} of the coefficient system")
        return lu, lower, upper, piv

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve A x = rhs, or A^T x = rhs with `transpose`."""
        lu, lower, upper, piv = self._factors[transpose]
        x, info = _GBTRS(lu, lower, upper, rhs, piv)
        if info != 0 or not np.isfinite(x).all():
            raise SingularSystem("coefficient system has no finite solution")
        return x


def _build_rhs(init: BoundaryState, target: BoundaryState, params: TrajParams, s_order: int):
    n = 2 * s_order
    b = np.zeros((n * params.n_pieces, init.position.size))
    b[:s_order] = [init.derivative(k) for k in range(s_order)]
    b[-s_order:] = [target.derivative(k) for k in range(s_order)]
    knots = _template(params.n_pieces, s_order).knots
    b[knots] = b[knots + 1] = params.waypoints.T
    return b


def solve_coeffs(
    init: BoundaryState,
    target: BoundaryState,
    params: TrajParams,
    s_order: int,
    system: BandedSystem | None = None,
) -> Trajectory:
    """Map (Q, tbar) to the unique minimum-effort coefficient matrices.

    Solves the boundary-intermediate value problem once per call; all D
    dimensions share the factorization (same A, stacked rhs).
    """
    if np.any(params.durations <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {params.durations}")
    if system is None:
        system = BandedSystem(params.durations, s_order)
    coeffs = system.solve(_build_rhs(init, target, params, s_order))
    return Trajectory(coeffs.reshape(params.n_pieces, 2 * s_order, -1), params.durations.copy())


def propagate_gradients(
    traj: Trajectory,
    dk_dc: np.ndarray | list[np.ndarray],
    dk_dt: np.ndarray,
    system: BandedSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull objective gradients from (C, tbar)-space back to (Q, tbar)-space.

    dk_dc is an (M, N+1, D) array or a list of M (N+1, D) arrays; system is
    the BandedSystem traj was solved with.  Solves the adjoint system
    A^T G = dK/dC; the waypoint gradient collects the G
    rows of the two position-interpolation constraints at each knot, and
    the duration gradient subtracts G^T (dA/dtbar_i) C, whose entries are
    the template's coef * pw * tbar_i^(pw-1).

    Returns (dH_dQ (D, M-1), dH_dtbar (M,)).
    """
    m, n, d = traj.coefficients.shape
    try:
        dk_dc = np.asarray(dk_dc, dtype=float)
    except ValueError as exc:  # ragged list of per-piece arrays
        raise ShapeMismatch("dk_dc must match the trajectory's coefficient shapes") from exc
    if n != 2 * system.s_order or dk_dc.shape != (m, n, d):
        raise ShapeMismatch("dk_dc must match the trajectory's coefficient shapes")
    dk_dt = np.asarray(dk_dt, dtype=float).ravel()
    if dk_dt.size != m:
        raise ShapeMismatch(f"dk_dt has {dk_dt.size} entries, expected {m}")

    g = system.solve(dk_dc.reshape(m * n, d), transpose=True)
    tp = system.template
    dh_dq = (g[tp.knots] + g[tp.knots + 1]).T

    # row r of dA/dtbar_i C is the next-order basis row at tbar_i times C_i;
    # the rows are reduced in ascending order, one dot product each
    drows = np.zeros((m * n, n))
    drows[tp.rows, tp.cols % n] = tp.coef * tp.pw * system.durations[tp.piece] ** (tp.pw - 1)
    dvec = drows[:, None, :] @ traj.coefficients[tp.row_piece]  # (2SM, 1, D)
    dh_dt = dk_dt.copy()
    np.subtract.at(dh_dt, tp.row_piece, (dvec @ g[:, :, None])[:, 0, 0])
    return dh_dq, dh_dt
