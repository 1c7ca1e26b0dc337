"""Coefficient solve, evaluation and gradient propagation.

Independent oracles: numpy polynomial evaluation (np.polyval on reversed
coefficients) for constraint residuals, a dense numpy solve for the
min-jerk quintic, quadrature via np.polyint for the optimality check,
central finite differences for propagate_gradients, and a row-by-row
reference assembly of A(tbar) from `basis` for the (M, S) template.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import RC, make_trajectory, random_instance
from neotraj.errors import NonPositiveDuration, OutOfDomain, ShapeMismatch, SingularSystem
from neotraj.minco import (
    BandedSystem,
    BoundaryState,
    TrajParams,
    Trajectory,
    _band_storage,
    _template,
    basis,
    propagate_gradients,
    solve_coeffs,
)


def system_of(durations):
    """The factorizations of A(durations) that propagate_gradients solves with."""
    return BandedSystem(durations, RC.s_order)


def poly_eval(coeffs_1d, t, order=0):
    """Oracle evaluation: numpy poly machinery, highest power first."""
    p = np.poly1d(coeffs_1d[::-1])
    for _ in range(order):
        p = np.polyder(p)
    return p(t)


def test_min_jerk_quintic_matches_dense_solve():
    # rest-to-rest 0 -> 1 over T=1; dense 6x6 oracle
    a = np.zeros((6, 6))
    for k in range(3):  # p, v, a at t=0 and t=1
        row = np.zeros(6)
        row[k] = math.factorial(k)
        a[k] = row
        a[3 + k] = [np.prod(range(j - k + 1, j + 1)) * 1.0 for j in range(6)]
    b = np.array([0, 0, 0, 1, 0, 0], dtype=float)
    dense = np.linalg.solve(a, b)

    traj = solve_coeffs(
        BoundaryState([0.0], [0.0]), BoundaryState([1.0], [0.0]), TrajParams(np.zeros((1, 0)), [1.0]),
        RC.s_order,
    )
    got = traj.coefficients[0].ravel()
    assert np.allclose(got, dense, atol=1e-10)
    assert np.allclose(got, [0, 0, 0, 10, -15, 6], atol=1e-9)


def test_zero_boundary_gives_zero_trajectory():
    z = BoundaryState([0.0, 0.0], [0.0, 0.0])
    params = TrajParams(np.zeros((2, 3)), [0.7, 1.3, 2.1, 0.9])
    traj = solve_coeffs(z, z, params, RC.s_order)
    for c in traj.coefficients:
        assert np.allclose(c, 0.0)
    for t in (0.0, 1.0, 3.7):
        assert np.allclose(traj.eval(t, 2), 0.0)


def test_two_piece_interpolation_and_mirror_symmetry():
    init = BoundaryState([0.0, 0.0], [0.0, 0.0])
    target = BoundaryState([2.0, 0.0], [0.0, 0.0])
    params = TrajParams(np.array([[1.0], [0.0]]), [1.0, 1.0])
    traj = solve_coeffs(init, target, params, RC.s_order)
    assert np.allclose(traj.eval(1.0), [1.0, 0.0], atol=1e-10)
    for t in (0.2, 0.55, 0.91):
        assert traj.eval(t)[0] == pytest.approx(2.0 - traj.eval(2.0 - t)[0], abs=1e-9)


def test_eval_examples_and_domain():
    traj = solve_coeffs(
        BoundaryState([0.0], [0.0]), BoundaryState([1.0], [0.0]), TrajParams(np.zeros((1, 0)), [1.0]),
        RC.s_order,
    )
    assert traj.eval(0.5, 0)[0] == pytest.approx(0.5, abs=1e-12)
    # d/dt (10t^3 - 15t^4 + 6t^5) at 0.5 = 30*.25 - 60*.125 + 30*.0625
    assert traj.eval(0.5, 1)[0] == pytest.approx(1.875, abs=1e-12)
    assert traj.eval(1.0, 0)[0] == pytest.approx(1.0, abs=1e-12)  # right endpoint owned
    with pytest.raises(OutOfDomain):
        traj.eval(-0.01)
    with pytest.raises(OutOfDomain):
        traj.eval(1.01)


def test_nonpositive_duration_rejected():
    z = BoundaryState([0.0], [0.0])
    with pytest.raises(NonPositiveDuration):
        solve_coeffs(z, z, TrajParams(np.zeros((1, 1)), [1.0, 0.0]), RC.s_order)


def test_constraint_residuals_on_random_instances(rng):
    # boundary, interpolation and continuity residuals < 1e-8, 100 instances
    for _ in range(100):
        m = int(rng.integers(1, 5))
        init, target, params = random_instance(rng, m=m)
        traj = solve_coeffs(init, target, params, RC.s_order)
        for d in range(2):
            c0 = traj.coefficients[0][:, d]
            cm = traj.coefficients[-1][:, d]
            for k in range(3):
                assert abs(poly_eval(c0, 0.0, k) - init.derivative(k)[d]) < 1e-8
                assert abs(poly_eval(cm, params.durations[-1], k) - target.derivative(k)[d]) < 1e-8
            for i in range(1, m):
                left = traj.coefficients[i - 1][:, d]
                right = traj.coefficients[i][:, d]
                ti = params.durations[i - 1]
                assert abs(poly_eval(left, ti) - params.waypoints[d, i - 1]) < 1e-8
                assert abs(poly_eval(right, 0.0) - params.waypoints[d, i - 1]) < 1e-8
                for k in range(1, 5):
                    assert abs(poly_eval(left, ti, k) - poly_eval(right, 0.0, k)) < 1e-8


def effort_by_quadrature(traj):
    """Oracle: exact integral of |p'''|^2 via numpy polynomial integration."""
    total = 0.0
    for i, c in enumerate(traj.coefficients):
        for d in range(c.shape[1]):
            p = np.poly1d(c[:, d][::-1])
            jerk = np.polyder(p, 3)
            integ = np.polyint(jerk * jerk)
            total += integ(traj.durations[i]) - integ(0.0)
    return total


def feasible_constraint_matrix(params, m, n=6, s=3):
    """Rows of the feasibility set: boundary, waypoints, continuity 0..S-1."""
    rows = []

    def basis_row(piece, t, order):
        row = np.zeros(n * m)
        for j in range(order, n):
            row[n * piece + j] = np.prod(range(j - order + 1, j + 1)) * t ** (j - order)
        return row

    for k in range(s):
        rows.append(basis_row(0, 0.0, k))
        rows.append(basis_row(m - 1, params.durations[-1], k))
    for i in range(1, m):
        ti = params.durations[i - 1]
        rows.append(basis_row(i - 1, ti, 0))
        rows.append(basis_row(i, 0.0, 0))
        for k in range(1, s):
            rows.append(basis_row(i - 1, ti, k) - basis_row(i, 0.0, k))
    return np.array(rows)


def test_optimality_against_nullspace_perturbations(rng):
    import scipy.linalg

    traj, init, target, params = make_trajectory(rng, m=3)
    base = effort_by_quadrature(traj)
    a_feas = feasible_constraint_matrix(params, m=3)
    null = scipy.linalg.null_space(a_feas)
    assert null.shape[1] > 0
    flat = np.vstack(traj.coefficients)  # (6m, 2)
    for _ in range(100):
        coeff = rng.normal(size=(null.shape[1], 2))
        delta = null @ coeff
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = flat + delta
        pieces = [perturbed[6 * i : 6 * (i + 1)] for i in range(3)]
        pert_traj = Trajectory(pieces, params.durations)
        assert effort_by_quadrature(pert_traj) >= base - 1e-9


def test_time_scaling_consistency():
    init = BoundaryState([0.0, 1.0], [0.0, 0.0])
    target = BoundaryState([5.0, -1.0], [0.0, 0.0])
    q = np.array([[1.5, 3.5], [0.5, -0.5]])
    tb = np.array([1.0, 1.4, 0.8])
    slow = solve_coeffs(init, target, TrajParams(q, 2 * tb), RC.s_order)
    fast = solve_coeffs(init, target, TrajParams(q, tb), RC.s_order)
    for t in np.linspace(0, tb.sum(), 17):
        assert np.allclose(slow.eval(2 * t), fast.eval(t), atol=1e-8)


def test_propagate_zero_cost_gradient_is_identity_on_time(rng):
    traj, init, target, params = make_trajectory(rng)
    v = rng.normal(size=3)
    zero = [np.zeros((6, 2)) for _ in range(3)]
    dq, dt = propagate_gradients(traj, zero, v, system_of(params.durations))
    assert np.allclose(dq, 0.0)
    assert np.allclose(dt, v)


def test_propagate_shape_checks(rng):
    traj, init, target, params = make_trajectory(rng)
    with pytest.raises(ShapeMismatch):
        propagate_gradients(traj, [np.zeros((5, 2))] * 3, np.zeros(3), system_of(params.durations))
    with pytest.raises(ShapeMismatch):
        propagate_gradients(traj, [np.zeros((6, 2))] * 3, np.zeros(4), system_of(params.durations))


def _fd_check_h(make_cost, init, target, q0, tb0, h=1e-6):
    """Central-difference oracle for H(Q, tbar) = K(C(Q, tbar), tbar)."""

    def h_of(q, tb):
        traj = solve_coeffs(init, target, TrajParams(q, tb), RC.s_order)
        return make_cost(traj, tb)[0]

    traj = solve_coeffs(init, target, TrajParams(q0, tb0), RC.s_order)
    _, dk_dc, dk_dt = make_cost(traj, tb0)
    dq, dt = propagate_gradients(traj, dk_dc, dk_dt, system_of(tb0))
    worst = 0.0
    for idx in np.ndindex(q0.shape):
        qp, qm = q0.copy(), q0.copy()
        qp[idx] += h
        qm[idx] -= h
        fd = (h_of(qp, tb0) - h_of(qm, tb0)) / (2 * h)
        worst = max(worst, abs(fd - dq[idx]) / max(1.0, abs(fd)))
    for i in range(tb0.size):
        tp, tm = tb0.copy(), tb0.copy()
        tp[i] += h
        tm[i] -= h
        fd = (h_of(q0, tp) - h_of(q0, tm)) / (2 * h)
        worst = max(worst, abs(fd - dt[i]) / max(1.0, abs(fd)))
    return worst


def test_propagate_matches_finite_differences(rng):
    def smooth_cost(traj, tb):
        # weighted coefficient energy plus cubic time term: smooth in (C, tbar)
        w = np.arange(1, traj.n_pieces + 1, dtype=float)
        cost = sum(float((traj.coefficients[i] ** 2).sum()) * w[i] for i in range(traj.n_pieces))
        cost += float((tb**3).sum())
        dk_dc = [2.0 * traj.coefficients[i] * w[i] for i in range(traj.n_pieces)]
        return cost, dk_dc, 3.0 * tb**2

    worst = 0.0
    for _ in range(100):
        init, target, params = random_instance(rng)
        worst = max(
            worst, _fd_check_h(smooth_cost, init, target, params.waypoints, params.durations)
        )
    assert worst < 1e-4


def test_waypoint_gradient_of_knot_position_cost(rng):
    # K = p(t_1)^2 depends on Q only through the interpolated waypoint
    init = BoundaryState([0.0], [0.3])
    target = BoundaryState([2.0], [-0.1])
    q = np.array([[0.7]])
    tb = np.array([1.1, 0.9])

    def knot_cost(traj, tbv):
        q1 = float(traj.eval(traj.start_times[1])[0])
        dk_dc = [np.zeros((6, 1)) for _ in range(2)]
        # p_1(tbar_1) = beta(tbar_1) . c_1
        from neotraj.minco import basis

        dk_dc[0][:, 0] = 2.0 * q1 * basis(tbv[0], 0, 6)
        dk_dt = np.array([2.0 * q1 * float(traj.eval(traj.start_times[1], 1)[0]), 0.0])
        return q1**2, dk_dc, dk_dt

    traj = solve_coeffs(init, target, TrajParams(q, tb), RC.s_order)
    _, dk_dc, dk_dt = knot_cost(traj, tb)
    dq, _ = propagate_gradients(traj, dk_dc, dk_dt, system_of(tb))
    assert dq[0, 0] == pytest.approx(2.0 * q[0, 0], rel=1e-9)
    assert _fd_check_h(knot_cost, init, target, q, tb) < 1e-5


def reference_system(durations, s=3):
    """Oracle A(tbar), assembled row by row from `basis` evaluations.

    Also returns, for every row that depends on a duration, its
    (piece, derivative order): d/dtbar of that row is the next-order basis.
    """
    m, n = durations.size, 2 * s
    a = np.zeros((n * m, n * m))
    deps = {}

    def put(row, piece, t, order, sign=1.0, dep=False):
        a[row, n * piece : n * (piece + 1)] += sign * basis(t, order, n)
        if dep:
            deps[row] = (piece, order)

    for k in range(s):
        put(k, 0, 0.0, k)
        put(n * m - s + k, m - 1, durations[-1], k, dep=True)
    for i in range(1, m):
        r0, ti = s + n * (i - 1), durations[i - 1]
        for k in range(1, n - 1):  # continuity orders 1..2S-2
            put(r0 + k - 1, i - 1, ti, k, dep=True)
            put(r0 + k - 1, i, 0.0, k, sign=-1.0)
        put(r0 + n - 2, i - 1, ti, 0, dep=True)  # position left
        put(r0 + n - 1, i, 0.0, 0)  # position right
    return a, deps


def reference_rhs(init, target, params, s=3):
    n, m = 2 * s, params.n_pieces
    b = np.zeros((n * m, params.dims))
    for k in range(s):
        b[k] = init.derivative(k)
        b[n * m - s + k] = target.derivative(k)
    for i in range(1, m):
        b[s + n * (i - 1) + n - 2] = b[s + n * (i - 1) + n - 1] = params.waypoints[:, i - 1]
    return b


def to_band(a, lower, upper):
    """LAPACK band storage of a dense matrix, as scipy.linalg.solve_banded takes it."""
    r, c = np.nonzero(a)
    assert np.all((r - c <= lower) & (c - r <= upper))  # the band holds every entry
    ab = np.zeros((lower + upper + 1, a.shape[1]))
    ab[upper + r - c, c] = a[r, c]
    return ab


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_template_matches_reference_assembly(rng, m):
    # the template, the shared solves and the vectorised duration gradient
    # reproduce the row-by-row reference bitwise: same entries, the same
    # banded LAPACK solves of A and A^T, the same per-row reduction order
    for _ in range(10):
        init, target, params = random_instance(rng, m=m)
        tb = params.durations
        a_ref, deps = reference_system(tb)
        tp = _template(m, RC.s_order)
        entries = tp.coef * tb[tp.piece] ** tp.pw
        ab, band = _band_storage(tp, False)
        band[tp.band] = entries  # BandedSystem's scatter, before the factorization
        lower, upper = tp.lower, tp.upper
        assert np.array_equal(ab[lower:], to_band(a_ref, lower, upper))

        c_ref = scipy.linalg.solve_banded(
            (lower, upper), to_band(a_ref, lower, upper), reference_rhs(init, target, params))
        traj = solve_coeffs(init, target, params, RC.s_order)
        assert np.array_equal(traj.coefficients.reshape(c_ref.shape), c_ref)

        dk_dc = rng.normal(size=(m, 6, 2))
        dk_dt = rng.normal(size=m)
        abt, band_t = _band_storage(tp, True)
        band_t[tp.band_t] = entries
        assert abt.shape == (2 * upper + lower + 1, 6 * m)
        assert np.array_equal(abt[upper:], to_band(a_ref.T, upper, lower))
        g = scipy.linalg.solve_banded(
            (upper, lower), to_band(a_ref.T, upper, lower), dk_dc.reshape(6 * m, 2))
        dt_ref = dk_dt.copy()
        for row, (piece, order) in sorted(deps.items()):
            dvec = basis(tb[piece], order + 1, 6) @ traj.coefficients[piece]
            dt_ref[piece] -= g[row] @ dvec
        dq_ref = np.array([g[3 + 6 * i + 4] + g[3 + 6 * i + 5] for i in range(m - 1)]).T
        for grads in (dk_dc, list(dk_dc)):  # stacked array or per-piece list
            dq, dt = propagate_gradients(traj, grads, dk_dt, system_of(params.durations))
            assert np.array_equal(dt, dt_ref)
            assert dq.shape == (2, m - 1) and np.array_equal(dq, dq_ref.reshape(2, m - 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_waypoints_raise_singular(bad):
    z = BoundaryState([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(SingularSystem):
        solve_coeffs(z, z, TrajParams(np.array([[bad], [0.0]]), [1.0, 1.0]), RC.s_order)


def test_degenerate_durations_raise_singular():
    # zero pivot: a zero-length piece makes its boundary rows coincide
    with pytest.raises(SingularSystem):
        BandedSystem(np.array([1.0, 0.0]), 3)
    # non-finite durations make the matrix, and so the solution, non-finite
    with pytest.raises(SingularSystem):
        BandedSystem(np.array([np.nan, 1.0]), 3).solve(np.ones((12, 2)))
