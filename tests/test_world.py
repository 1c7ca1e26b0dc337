"""Scenes, rasterization, distance field, raycasts, collision queries."""

import json

import numpy as np
import pytest

from conftest import RC
from neotraj.errors import PackingFailure
from neotraj.world import (
    FIXED_PRESETS,
    RANDOM_PRESETS,
    DIST_CAP,
    GridWorld,
    SceneSpec,
    generate_scene,
    load_fixed_layout,
)

RAYS = (RC.n_rays, RC.fov_deg, RC.max_range)


def brute_force_field(occ, resolution):
    """Oracle: signed distance by exhaustive scan.

    A free cell gets the distance to the nearest occupied cell center, an
    occupied cell minus the distance to the nearest free cell center; a map
    without obstacles reads DIST_CAP everywhere.
    """
    ny, nx = occ.shape
    if not occ.any():
        return np.full((ny, nx), DIST_CAP)
    occ_ys, occ_xs = np.nonzero(occ)
    free_ys, free_xs = np.nonzero(~occ)
    out = np.zeros((ny, nx))
    for iy in range(ny):
        for ix in range(nx):
            if occ[iy, ix]:
                xs, ys, sign = free_xs, free_ys, -1.0
            else:
                xs, ys, sign = occ_xs, occ_ys, 1.0
            out[iy, ix] = sign * np.sqrt(((xs - ix) ** 2 + (ys - iy) ** 2).min()) * resolution
    return out


def test_distance_field_matches_brute_force(rng):
    spec = SceneSpec(
        bounds=(0.0, 0.0, 8.0, 6.0),
        obstacles=[(2.0, 2.0, 0.8), (5.5, 4.0, 1.2), (6.5, 1.0, 0.5)],
        start=(0.5, 0.5),
        goal=(7.5, 5.5),
    )
    world = GridWorld(spec, resolution=0.1)
    assert world.nx <= 100 and world.ny <= 100
    oracle = brute_force_field(world.occupancy, 0.1)
    assert np.allclose(world.field, oracle)


def test_single_cell_distance_axis_aligned():
    # one occupied cell; a query 3 cells away along an axis reads 3*resolution
    spec = SceneSpec(bounds=(0.0, 0.0, 2.0, 2.0), obstacles=[(1.05, 1.05, 0.05)])
    world = GridWorld(spec, resolution=0.1)
    assert world.occupancy.sum() == 1
    center = world.cell_center(*world.cell_index((1.05, 1.05)))
    q = center + np.array([0.3, 0.0])
    assert world.distance_at(q) == pytest.approx(0.3, abs=1e-9)


def test_inside_obstacle_distance_zero():
    # The field is signed; the name is kept from the unsigned contract.  The
    # 1 m square at (5, 0) occupies cell centers 4.55..5.45 x -0.45..0.45, so
    # each of the four cells around (5, 0) lies 5 cells (0.5 m), along an
    # axis, from the nearest free center (x = 4.45 or y = -0.55); a bilinear
    # blend of four equal values is that value.
    world = GridWorld(SceneSpec(obstacles=[(5.0, 0.0, 1.0)]), RC.resolution)
    assert world.distance_at((5.0, 0.0)) == -0.5
    assert world.collides((5.0, 0.0), 0.3)


def test_empty_map_distance_capped():
    world = GridWorld(SceneSpec(), RC.resolution)
    assert np.all(world.field == DIST_CAP)


def test_fully_occupied_map_distance_capped_below():
    spec = SceneSpec(bounds=(0.0, 0.0, 1.0, 1.0), obstacles=[(0.5, 0.5, 2.0)])
    world = GridWorld(spec, RC.resolution)
    assert world.occupancy.all()
    assert np.all(world.field == -DIST_CAP)


def test_preset_counts_and_widths():
    for preset, (count, (wmin, wmax)) in RANDOM_PRESETS.items():
        spec = generate_scene(preset=preset, seed=7)
        assert len(spec.obstacles) == count
        widths = [w for _, _, w in spec.obstacles]
        assert min(widths) >= wmin and max(widths) <= wmax
        centers = [(x, y) for x, y, _ in spec.obstacles]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = np.hypot(centers[i][0] - centers[j][0], centers[i][1] - centers[j][1])
                assert d >= 1.8 - 1e-12
        for x, y, w in spec.obstacles:
            assert 3.0 <= x - w / 2 and x + w / 2 <= 27.0
            assert -5.0 <= y - w / 2 and y + w / 2 <= 5.0


def test_scene_determinism_and_zero_count():
    a = generate_scene(preset=9, seed=42)
    b = generate_scene(preset=9, seed=42)
    assert a.obstacles == b.obstacles
    c = generate_scene(count=0, width_range=(0.5, 0.6), seed=1)
    assert c.obstacles == []


def test_scene_start_goal():
    spec = generate_scene(preset=4, seed=0)
    assert tuple(spec.start) == (0.0, 0.0)
    assert tuple(spec.goal) == (30.0, 0.0)


@pytest.mark.parametrize("widths", [(-1.0, -0.5), (0.0, 0.5), (1.0, 0.2), (0.5, 50.0)])
def test_bad_width_range_rejected(widths):
    # non-positive, reversed, or wider than the 10 m high obstacle region
    with pytest.raises(ValueError, match="width"):
        generate_scene(count=2, width_range=widths, seed=0)


def test_widest_width_range_accepted():
    assert generate_scene(count=1, width_range=(10.0, 10.0), seed=0).obstacles[0][2] == 10.0


def test_packing_failure():
    with pytest.raises(PackingFailure):
        generate_scene(count=500, width_range=(1.0, 1.0), seed=0)


def test_scene_json_roundtrip(tmp_path):
    spec = generate_scene(preset=5, seed=11)
    path = tmp_path / "scene.json"
    spec.save(path)
    loaded = SceneSpec.load(path)
    assert loaded.obstacles == spec.obstacles
    assert loaded.bounds == spec.bounds
    doc = json.loads(path.read_text())
    assert doc["format"] == "neotraj-scene-1"
    assert set(doc["obstacles"][0]) == {"cx", "cy", "width"}


@pytest.mark.parametrize("key, value", [
    ("bounds", [0, 0, 10, "10"]),
    ("bounds", [0, 0, 10]),
    ("start", ["a", 0]),
    ("goal", 5),
    ("goal", [True, 0]),
    ("obstacles", [{"cx": 3, "cy": None, "width": 1}]),
    ("obstacles", {"cx": 3, "cy": 0, "width": 1}),
    ("obstacles", [{"cx": float("nan"), "cy": 0, "width": 1}]),
    ("bounds", [0, 0, float("inf"), 10]),
    ("obstacles", [{"cx": 3, "cy": 0, "width": 0}]),
    ("obstacles", [{"cx": 3, "cy": 0, "width": -1}]),
])
def test_scene_from_dict_rejects_values_that_are_not_numbers(key, value):
    doc = {"bounds": [0, 0, 10, 10], "obstacles": [], "start": [1, 1], "goal": [5, 5],
           key: value}
    with pytest.raises(ValueError, match="numbers"):
        SceneSpec.from_dict(doc)


def test_fixed_layouts_load():
    for preset, name in FIXED_PRESETS.items():
        spec = generate_scene(preset=preset, seed=123)
        assert spec.name == name
        assert len(spec.obstacles) > 5


def test_raycast_empty_map():
    world = GridWorld(SceneSpec(), RC.resolution)
    scan = world.raycast_scan((0.0, 0.0), 0.0, *RAYS)
    assert scan.shape == (64,)
    assert np.all(scan == 5.0)


def test_raycast_wall_ahead():
    # wall of occupied cells 2.0 m directly ahead
    wall = [(2.25, y / 10.0, 0.5) for y in range(-30, 31, 5)]
    world = GridWorld(SceneSpec(obstacles=wall), RC.resolution)
    scan = world.raycast_scan((0.0, 0.0), 0.0, *RAYS)
    center = scan[31:33]
    assert np.all(center >= 2.0 - 0.1) and np.all(center <= 2.0 + 0.1)


def test_raycast_rotation_changes_scan():
    world = GridWorld(SceneSpec(obstacles=[(3.0, 0.0, 1.0)]), RC.resolution)
    a = world.raycast_scan((0.0, 0.0), 0.0, *RAYS)
    b = world.raycast_scan((0.0, 0.0), np.deg2rad(87.0) / 2, *RAYS)
    assert not np.array_equal(a, b)


def test_raycast_monotone_under_obstacle_insertion(rng):
    base = SceneSpec(obstacles=[(5.0, 1.0, 0.8)])
    more = SceneSpec(obstacles=[(5.0, 1.0, 0.8), (3.0, -0.5, 0.6), (7.0, 0.2, 0.5)])
    wa, wb = GridWorld(base, RC.resolution), GridWorld(more, RC.resolution)
    for _ in range(5):
        pos = (rng.uniform(-1, 1), rng.uniform(-2, 2))
        heading = rng.uniform(-np.pi, np.pi)
        a, b = (w.raycast_scan(pos, heading, *RAYS) for w in (wa, wb))
        assert np.all(b <= a + 1e-12)


def test_collides_cases():
    world = GridWorld(SceneSpec(obstacles=[(5.0, 0.0, 1.0)]), RC.resolution)
    assert not world.collides((5.0, 2.0), 0.3)  # ~1.5 m clear of the edge
    assert world.collides((5.0, 0.0), 0.3)
    # strict inequality at the boundary
    d = world.distance_at((5.0, 1.2))
    assert not world.collides((5.0, 1.2), d)


def test_query_distance_gradient_matches_fd(scene4_world, rng):
    for _ in range(40):
        p = np.array([rng.uniform(4.0, 26.0), rng.uniform(-4.0, 4.0)])
        # stay away from cell-center lines where bilinear kinks live
        g = (p - scene4_world.origin) / scene4_world.resolution - 0.5
        if np.any(np.abs(g - np.round(g)) < 0.05):
            continue
        d0, grad = scene4_world.query_distance(p[None, :])
        h = 1e-6
        for k in range(2):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            fd = (scene4_world.query_distance(pp[None, :])[0][0]
                  - scene4_world.query_distance(pm[None, :])[0][0]) / (2 * h)
            assert grad[0, k] == pytest.approx(fd, abs=1e-6)


def test_out_of_bounds_queries():
    world = GridWorld(SceneSpec(), RC.resolution)
    d, g = world.query_distance(np.array([[100.0, 0.0], [0.0, 0.0]]))
    assert d[0] == 0.0 and np.all(g[0] == 0.0)
    assert d[1] == DIST_CAP


def test_grid_under_two_cells_rejected():
    # the bilinear lookup clips to nx - 2: with one cell it read column -1 by
    # wraparound, with none it raised IndexError
    with pytest.raises(ValueError, match="at least 2 cells"):
        GridWorld(SceneSpec(bounds=(0.0, 0.0, 0.14, 3.0)), resolution=0.1)  # nx = 1
    with pytest.raises(ValueError, match="at least 2 cells"):
        GridWorld(SceneSpec(bounds=(0.0, 0.0, 0.04, 3.0)), resolution=0.1)  # nx = 0
    with pytest.raises(ValueError, match="at least 2 cells"):
        GridWorld(SceneSpec(bounds=(0.0, 0.0, 3.0, 0.1)), resolution=0.1)  # ny = 1
    assert GridWorld(SceneSpec(bounds=(0.0, 0.0, 0.2, 0.2)), resolution=0.1).nx == 2
