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
template, with each entry's flat index in the band storage of A and of
A^T.  Assembling the system for one tbar raises the entries to their powers
once and scatters them into both storages, which a Workspace keeps for the
repeated solves of one optimization run.  Banded LU factorizations of A
and A^T, linear in M, serve all D dimensions of the forward solve and of
the adjoint solve A^T G = dK/dC, and the same template gives dA/dtbar for
the duration gradient.  Because the continuity orders extend to 2S-2, the
unique solution is also the minimizer of the integral of the squared S-th
derivative among all C^{S-1} splines through the same waypoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
        w = np.asarray(self.waypoints, dtype=float)
        self.waypoints = w if w.ndim == 2 else np.atleast_2d(w)
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

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float).ravel()
        self.coefficients = np.asarray(self.coefficients, dtype=float)

    @functools.cached_property
    def start_times(self) -> np.ndarray:
        """Global start time of each piece, then the end time: (M+1,)."""
        return np.concatenate(([0.0], np.cumsum(self.durations)))

    @property
    def n_pieces(self) -> int:
        return len(self.coefficients)

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

        The piece is located and s^0..s^N raised once; each order's row is
        basis(s, k, n)'s, entry for entry, and each takes its own row @ c.
        """
        i = self.piece_index(t)
        s = min(t - self.start_times[i], self.durations[i])
        c = self.coefficients[i]
        n = c.shape[0]
        powers = np.array([s])[:, None] ** np.arange(n)
        rows = np.zeros((3, n))
        for k in range(3):
            rows[k, k:] = _basis_factors(n, k)[k:] * powers[0, :n - k]
        return rows[0] @ c, rows[1] @ c, rows[2] @ c

    def eval_piece(self, i: int, s: np.ndarray, order: int = 0) -> np.ndarray:
        """Evaluate piece i at local times s (vectorized), shape (len(s), D)."""
        n = self.coefficients.shape[1]
        return basis_matrix(s, order, n) @ self.coefficients[i]


class _Template(NamedTuple):
    """Fixed structure of A(tbar) for one (M, S).

    Nonzero e is A[rows[e], cols[e]] = coef[e] * tbar[piece[e]] ** pw[e]
    (pw = 0 for the constant entries); lower and upper are A's bandwidths.
    Row r depends on the duration of piece row_piece[r] (0 if on none).
    Between the S start and the S end rows, each interior knot owns a block
    of 2S rows that ends in its left and right position-interpolation
    constraints (see solve_coeffs).  band and band_t are the flat (column-
    major) index of every entry in the band storage of A and of A^T; d_flat,
    d_coef = coef * pw and d_pw = pw - 1 place and scale the entries of
    dA/dtbar in the (2SM, 2S) rows that propagate_gradients reduces.
    """

    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    piece: np.ndarray
    pw: np.ndarray
    lower: int
    upper: int
    row_piece: np.ndarray
    band: np.ndarray
    band_t: np.ndarray
    d_flat: np.ndarray
    d_coef: np.ndarray
    d_pw: np.ndarray


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
    lower, upper = int(max(rows - cols)), int(max(cols - rows))
    # (row, col) of A's entry (r, c) in band storage: (lower + upper + r - c, c)
    band = lower + upper + rows - cols + cols * (2 * lower + upper + 1)
    band_t = upper + lower + cols - rows + rows * (2 * upper + lower + 1)
    return _Template(rows, cols, coef, piece, pw, lower, upper, row_piece, band, band_t,
                     rows * n + cols % n, coef * pw, pw - 1)


def _band_storage(tp: _Template, transpose: bool):
    """A zeroed LAPACK band storage of A, or of A^T, and its flat (column-major) view;
    entry (r, c) sits at ab[lower + upper + r - c, c] (first `lower` rows: fill-in)."""
    lo, up = (tp.upper, tp.lower) if transpose else (tp.lower, tp.upper)
    ab = np.zeros((2 * lo + up + 1, tp.row_piece.size), order="F")
    return ab, ab.ravel(order="F")


def _build_rhs(ends: np.ndarray, m: int, s_order: int) -> np.ndarray:
    """A zero right-hand side for M pieces with the boundary rows `ends` at its ends."""
    b = np.zeros((2 * s_order * m, ends.shape[1]))
    b[:s_order] = ends[:s_order]
    b[-s_order:] = ends[s_order:]
    return b


class Workspace:
    """Arrays that every solve of one (M, S) system reuses within one run.

    ab and ab_t are zeroed LAPACK band storages of A and of A^T (Fortran
    order; the first rows hold the LU fill-in), band and band_t their flat
    views; drows holds the (2SM, 2S) rows of dA/dtbar (flat view
    drows_flat), whose entries outside the template's pattern stay zero;
    rhs, given the boundary rows `ends`, is the right-hand side with them
    written once.  Each BandedSystem built on a workspace rewrites the band
    storages (its LUs live there), solve_coeffs rewrites the knot rows of
    rhs and propagate_gradients the pattern of drows, so a workspace serves
    one evaluation at a time.
    """

    def __init__(self, m: int, s_order: int, ends: np.ndarray | None = None):
        self.template = tp = _template(m, s_order)
        self.ab, self.band = _band_storage(tp, False)
        self.ab_t, self.band_t = _band_storage(tp, True)
        self.drows = np.zeros((tp.row_piece.size, 2 * s_order))
        self.drows_flat = self.drows.reshape(-1)
        self.rhs = None if ends is None else _build_rhs(ends, m, s_order)


# Banded LAPACK: linear in M, and single-threaded at these sizes.  The dense
# getrs/trtrs of the bundled OpenBLAS start threads even for an 18x18 system
# and stall for milliseconds per call when other processes hold the cores.
_GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


class BandedSystem:
    """Banded LU factorizations of the constraint matrix A(tbar) and of A^T.

    Built once per (durations, s_order) and shared by the forward and the
    adjoint solve of one objective evaluation.  A^T is factored in its own
    right, not solved through the factors of A, so that each solution is
    bitwise that of a banded solve of A or A^T.  Given `work`, the factors
    live in its band storages and durations must be an (M,) float array;
    without, in a fresh Workspace.  A zero pivot or a non-finite solution
    (non-finite durations or right-hand side) raises SingularSystem.
    """

    def __init__(self, durations: np.ndarray, s_order: int, work: Workspace | None = None):
        if work is None:
            durations = np.asarray(durations, dtype=float).ravel()
            work = Workspace(durations.size, s_order)
        self.durations, self.s_order, self.work = durations, s_order, work
        self.template = tp = work.template
        entries = tp.coef * durations[tp.piece] ** tp.pw  # raised once, for A and A^T
        work.band[:] = 0.0
        work.band[tp.band] = entries
        lu, piv, info = _GBTRF(work.ab, tp.lower, tp.upper, overwrite_ab=True)
        if info != 0:
            raise SingularSystem(f"zero pivot in column {info} of the coefficient system")
        work.band_t[:] = 0.0
        work.band_t[tp.band_t] = entries
        lu_t, piv_t, info = _GBTRF(work.ab_t, tp.upper, tp.lower, overwrite_ab=True)
        if info != 0:
            raise SingularSystem(f"zero pivot in column {info} of the coefficient system")
        self._factors = ((lu, tp.lower, tp.upper, piv), (lu_t, tp.upper, tp.lower, piv_t))

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve A x = rhs, or A^T x = rhs with `transpose`."""
        lu, lower, upper, piv = self._factors[transpose]
        x, info = _GBTRS(lu, lower, upper, rhs, piv)  # copies rhs (overwrite_b is 0)
        if info != 0 or np.count_nonzero(np.isfinite(x)) != x.size:
            raise SingularSystem("coefficient system has no finite solution")
        return x


def boundary_rows(init: BoundaryState, target: BoundaryState, s_order: int) -> np.ndarray:
    """The right-hand side's boundary rows: derivatives 0..S-1 at the start, then at the end."""
    return np.array([state.derivative(k) for state in (init, target) for k in range(s_order)])


def solve_coeffs(
    init: BoundaryState,
    target: BoundaryState,
    params: TrajParams,
    s_order: int,
    system: BandedSystem | None = None,
    ends: np.ndarray | None = None,
) -> Trajectory:
    """Map (Q, tbar) to the unique minimum-effort coefficient matrices.

    Solves the boundary-intermediate value problem once per call; all D
    dimensions share the factorization (same A, stacked rhs).  `ends` is
    boundary_rows(init, target, s_order), or a whole right-hand side with
    those rows at its ends (Workspace.rhs), whose knot rows are overwritten:
    for a caller that solves many times between the same boundary states.
    """
    t = params.durations
    if np.count_nonzero(t <= 0.0):
        raise NonPositiveDuration(f"durations must be positive, got {t}")
    if system is None:
        system = BandedSystem(t, s_order)
    if ends is None:
        ends = boundary_rows(init, target, s_order)
    m, n = t.shape[0], 2 * s_order
    rows = n * m
    # a whole right-hand side as it is (for M = 1, the boundary rows are one)
    b = ends if ends.shape[0] == rows else _build_rhs(ends, m, s_order)
    # each interior knot's block of 2S rows ends in its left and right
    # position-interpolation rows, which both hold the knot's waypoint
    q = params.waypoints.T
    b[s_order + n - 2:rows - s_order:n] = q
    b[s_order + n - 1:rows - s_order:n] = q
    coeffs = system.solve(b)
    return Trajectory(coeffs.reshape(m, n, -1), t.copy())


def propagate_gradients(
    traj: Trajectory,
    dk_dc: np.ndarray | list[np.ndarray],
    dk_dt: np.ndarray,
    system: BandedSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull objective gradients from (C, tbar)-space back to (Q, tbar)-space.

    dk_dc is an (M, N+1, D) array or a list of M (N+1, D) arrays, dk_dt an
    (M,) array; system is the BandedSystem traj was solved with.  Solves the
    adjoint system A^T G = dK/dC; the waypoint gradient collects the G rows
    of the two position-interpolation constraints at each knot, and the
    duration gradient subtracts G^T (dA/dtbar_i) C, whose entries are the
    template's coef * pw * tbar_i^(pw-1).

    Returns (dH_dQ (D, M-1), dH_dtbar (M,)).
    """
    m, n, d = traj.coefficients.shape
    dk_dc = np.asarray(dk_dc, dtype=float)
    if n != 2 * system.s_order or dk_dc.shape != (m, n, d):
        raise ShapeMismatch("dk_dc must match the trajectory's coefficient shapes")
    if dk_dt.shape != (m,):
        raise ShapeMismatch(f"dk_dt has shape {dk_dt.shape}, expected ({m},)")

    g = system.solve(dk_dc.reshape(m * n, d), transpose=True)
    tp, s_order, rows = system.template, system.s_order, m * n
    dh_dq = (g[s_order + n - 2:rows - s_order:n] + g[s_order + n - 1:rows - s_order:n]).T

    # row r of dA/dtbar_i C is the next-order basis row at tbar_i times C_i;
    # the rows are reduced in ascending order, one dot product each
    work = system.work
    work.drows_flat[tp.d_flat] = tp.d_coef * system.durations[tp.piece] ** tp.d_pw
    dvec = work.drows[:, None, :] @ traj.coefficients[tp.row_piece]  # (2SM, 1, D)
    dh_dt = dk_dt.copy()
    np.subtract.at(dh_dt, tp.row_piece, (dvec @ g[:, :, None])[:, 0, 0])
    return dh_dq, dh_dt
