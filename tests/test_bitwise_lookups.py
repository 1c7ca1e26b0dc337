"""The fast distance lookups and the per-tick state query against the code as
first written, bitwise, on hypothesis-drawn edge cases and dense samples."""

import bisect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neotraj.minco import BoundaryState, TrajParams, solve_coeffs
from neotraj.replan import CommittedTrajectory
from neotraj.world import GridWorld, SceneSpec


# --- the fast lookups against the lookup as first written, bitwise ---------

def reference_query_distance(world, points):
    """query_distance as first written: mask copy, scatter, np.clip, 2-D gathers."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = points.shape[0]
    dist = np.zeros(k)
    grad = np.zeros((k, 2))
    inside = world.in_bounds(points)
    if not inside.any():
        return dist, grad
    p = points[inside]
    gx = (p[:, 0] - world.origin[0]) / world.resolution - 0.5
    gy = (p[:, 1] - world.origin[1]) / world.resolution - 0.5
    i0 = np.clip(np.floor(gx).astype(int), 0, world.nx - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, world.ny - 2)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    v00 = world.field[j0, i0]
    v10 = world.field[j0, i0 + 1]
    v01 = world.field[j0 + 1, i0]
    v11 = world.field[j0 + 1, i0 + 1]
    d = (
        v00 * (1 - fx) * (1 - fy)
        + v10 * fx * (1 - fy)
        + v01 * (1 - fx) * fy
        + v11 * fx * fy
    )
    ddx = ((v10 - v00) * (1 - fy) + (v11 - v01) * fy) / world.resolution
    ddy = ((v01 - v00) * (1 - fx) + (v11 - v10) * fx) / world.resolution
    dist[inside] = d
    grad[inside, 0] = ddx
    grad[inside, 1] = ddy
    return dist, grad


def reference_cell_index(world, point):
    ix = int(np.clip((point[0] - world.origin[0]) / world.resolution, 0, world.nx - 1))
    iy = int(np.clip((point[1] - world.origin[1]) / world.resolution, 0, world.ny - 1))
    return ix, iy


LOOKUP_WORLDS = {
    # bounds not a whole number of cells (the grid stops short of xmax, and
    # overshoots ymax), float origin
    "ragged": GridWorld(SceneSpec(bounds=(-1.0, -0.5, 2.33, 1.76),
                                  obstacles=[(0.4, 0.3, 0.5), (1.6, 1.0, 0.3)]), 0.1),
    # integer bounds give an integer origin array
    "integer": GridWorld(SceneSpec(bounds=(0, 0, 3, 2), obstacles=[(1.2, 0.9, 0.6)]), 0.25),
    "two_cells": GridWorld(SceneSpec(bounds=(0.0, 0.0, 0.2, 0.2)), 0.1),
}


def _axis_in(lo, hi, res):
    """Coordinates in [lo, hi]: cell borders and centers, bound edges, last half-cell."""
    n_half = int(np.floor((hi - lo) / (res / 2)))
    return st.one_of(
        st.integers(0, n_half).map(lambda k: lo + k * (res / 2)),
        st.sampled_from([lo, hi, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
                         hi - res / 2]),
        st.floats(hi - res / 2, hi),
        st.floats(lo, hi),
    )


def _axis_out(lo, hi, res):
    """Coordinates outside [lo, hi], or NaN."""
    return st.one_of(
        st.sampled_from([np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                         lo - res / 2, hi + res / 2, np.nan, np.inf, -np.inf]),
        st.floats(lo - 3.0, lo, exclude_max=True),
        st.floats(hi, hi + 3.0, exclude_min=True),
    )


@st.composite
def lookup_batch(draw, world, kind):
    """(K, 2) points that are all in bounds, all out of bounds, or mixed."""
    xmin, ymin, xmax, ymax = (float(b) for b in world.bounds)
    res = world.resolution
    xin, yin = _axis_in(xmin, xmax, res), _axis_in(ymin, ymax, res)
    xout, yout = _axis_out(xmin, xmax, res), _axis_out(ymin, ymax, res)
    inside = st.tuples(xin, yin)
    outside = st.one_of(st.tuples(xout, yin), st.tuples(xin, yout), st.tuples(xout, yout))
    if kind == "in":
        pts = draw(st.lists(inside, min_size=1, max_size=12))
    elif kind == "out":
        pts = draw(st.lists(outside, min_size=1, max_size=12))
    else:
        pts = draw(st.permutations(draw(st.lists(inside, min_size=1, max_size=8))
                                   + draw(st.lists(outside, min_size=1, max_size=8))))
    return np.array(pts, dtype=float)


# derandomized, so every run draws the same examples; generation speed is
# not what these tests check
LOOKUP_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                           suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(LOOKUP_WORLDS))
@pytest.mark.parametrize("kind", ["in", "mixed", "out"])
@LOOKUP_SETTINGS
@given(data=st.data())
def test_query_distance_equals_reference_bitwise(name, kind, data):
    world = LOOKUP_WORLDS[name]
    pts = data.draw(lookup_batch(world, kind))
    inside = world.in_bounds(pts)
    assert {"in": inside.all(), "out": not inside.any(),
            "mixed": inside.any() and not inside.all()}[kind]
    dist, grad = world.query_distance(pts)
    ref_dist, ref_grad = reference_query_distance(world, pts)
    assert dist.shape == ref_dist.shape and grad.shape == ref_grad.shape
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("name", sorted(LOOKUP_WORLDS))
@LOOKUP_SETTINGS
@given(data=st.data())
def test_scalar_lookups_equal_vector_path_bitwise(name, data):
    world = LOOKUP_WORLDS[name]
    for p in data.draw(lookup_batch(world, "mixed")):
        d = world.distance_at(p)
        assert type(d) is float
        assert d == world.query_distance(p[None])[0][0]
        assert d == reference_query_distance(world, p[None])[0][0]
        assert world.distance_at(tuple(p.tolist())) == d
        if np.all(np.isfinite(p)):
            ix, iy = world.cell_index(p)
            assert (ix, iy) == reference_cell_index(world, p)
            assert type(ix) is int and type(iy) is int


@pytest.mark.parametrize("name", sorted(LOOKUP_WORLDS) + ["scene4"])
def test_lookups_equal_reference_on_dense_sample(name, scene4_world, rng):
    # many random points per call, on top of the drawn edge cases above
    world = scene4_world if name == "scene4" else LOOKUP_WORLDS[name]
    xmin, ymin, xmax, ymax = (float(b) for b in world.bounds)
    res = world.resolution
    pts = np.column_stack([rng.uniform(xmin - res, xmax + res, 20000),
                           rng.uniform(ymin - res, ymax + res, 20000)])
    pts[::7] = np.round(pts[::7] / (res / 2)) * (res / 2)  # cell borders and centers
    pts[::101, rng.integers(2)] = np.nan
    inside = world.in_bounds(pts)
    assert 0 < inside.sum() < len(pts)
    for batch in (pts, pts[inside]):
        got, ref = world.query_distance(batch), reference_query_distance(world, batch)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    dist = reference_query_distance(world, pts)[0]
    for p, d in zip(pts[:3000], dist[:3000]):
        assert world.distance_at(p) == d


def test_raycast_depths_unchanged_by_scalar_cell_index(scene4_world, rng, monkeypatch):
    positions = [(rng.uniform(-1.5, 31.5), rng.uniform(-5.5, 5.5)) for _ in range(20)]
    headings = rng.uniform(-np.pi, np.pi, size=20)
    scans = [scene4_world.raycast_scan(p, h) for p, h in zip(positions, headings)]
    monkeypatch.setattr(GridWorld, "cell_index", reference_cell_index)
    for p, h, scan in zip(positions, headings, scans):
        assert np.array_equal(scan, scene4_world.raycast_scan(p, h))


# --- the per-tick state query against three eval calls, bitwise --------------

def reference_query(c, t):
    """CommittedTrajectory.query as first written: three eval calls."""
    k = bisect.bisect_right(c.activations, t) - 1
    if k < 0:
        z = np.zeros_like(c.hover)
        return c.hover.copy(), z, z.copy()
    traj = c.segments[k]
    s = min(max(t - c.activations[k], 0.0), traj.total_time)
    return traj.eval(s, 0), traj.eval(s, 1), traj.eval(s, 2)


def _committed_with_orders():
    """Three segments at S = 3, 2, 1 (6, 4 and 2 coefficients per piece)."""
    rng = np.random.default_rng(7)
    c = CommittedTrajectory([0.3, -0.2])
    t_act = 0.5
    for m, s_order in ((3, 3), (4, 2), (2, 1)):
        init = BoundaryState(rng.normal(size=2), rng.normal(size=2), rng.normal(size=2))
        target = BoundaryState(rng.normal(size=2) + 3.0, rng.normal(size=2), rng.normal(size=2))
        q = rng.normal(size=(2, m - 1)) + 1.5
        c.add(t_act, solve_coeffs(init, target, TrajParams(q, rng.uniform(0.3, 1.7, size=m)),
                                  s_order))
        t_act += 0.8 * c.segments[-1].total_time
    return c


COMMITTED = _committed_with_orders()


def _special_times(c):
    """Before the first activation, activations, piece borders, past the end."""
    times = [-1.0, 0.0, np.nextafter(c.activations[0], -np.inf)]
    for t_act, traj in zip(c.activations, c.segments):
        for border in t_act + traj.start_times:
            times += [np.nextafter(border, -np.inf), border, np.nextafter(border, np.inf)]
        times += [t_act + traj.total_time + 1.0]
    return times


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(t=st.one_of(st.sampled_from(_special_times(COMMITTED)), st.floats(-1.0, 12.0)))
def test_committed_query_equals_three_evals_bitwise(t):
    got = COMMITTED.query(t)
    ref = reference_query(COMMITTED, t)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and np.array_equal(g, r)


def test_committed_query_covers_every_segment_and_the_end():
    hits = {bisect.bisect_right(COMMITTED.activations, t) - 1 for t in _special_times(COMMITTED)}
    assert hits == {-1, 0, 1, 2}
    last = COMMITTED.segments[-1]
    p, v, a = COMMITTED.query(1e3)  # held at the end of the last segment
    assert np.array_equal(p, last.eval(last.total_time, 0))
    assert np.array_equal(a, last.eval(last.total_time, 2))
