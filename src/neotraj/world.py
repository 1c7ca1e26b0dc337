"""2D environment: scenes, occupancy grid, distance field, raycasts.

Obstacles are axis-aligned squares (poles seen top-down).  A scene is
rasterized onto a fixed-resolution grid; the signed distance field holds,
at each free cell center, the exact Euclidean distance to the nearest
occupied cell center and, at each occupied cell center, minus the distance
to the nearest free cell center.  It is negative inside obstacles, so a
clearance penalty on it has a gradient that points out of every obstacle.
Random scenes follow the six preset obstacle-count/width classes; presets
1-3 are fixed layouts shipped as JSON.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import PackingFailure, is_integer, numbers

SCENE_FORMAT = "neotraj-scene-1"
DIST_CAP = 1e3

# obstacle count and width range per random-scene preset
RANDOM_PRESETS = {
    4: (14, (0.8, 1.0)),
    5: (15, (0.5, 1.0)),
    6: (16, (0.5, 0.8)),
    7: (18, (0.5, 0.8)),
    8: (20, (0.5, 0.8)),
    9: (24, (0.5, 0.6)),
}
FIXED_PRESETS = {1: "poles", 2: "forest", 3: "bricks"}

OBSTACLE_REGION = (3.0, -5.0, 27.0, 5.0)  # xmin, ymin, xmax, ymax
MIN_SPACING = 1.8
MAX_ATTEMPTS = 20000  # obstacle draws before generate_scene gives up
DEFAULT_BOUNDS = (-2.0, -6.0, 32.0, 6.0)
DEFAULT_START = (0.0, 0.0)
DEFAULT_GOAL = (30.0, 0.0)


@dataclass
class SceneSpec:
    """Scene description: bounds, obstacle squares, endpoints, seed."""

    bounds: tuple[float, float, float, float] = DEFAULT_BOUNDS
    obstacles: list[tuple[float, float, float]] = field(default_factory=list)  # (cx, cy, width)
    start: tuple[float, float] = DEFAULT_START
    goal: tuple[float, float] = DEFAULT_GOAL
    seed: int = 0
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "format": SCENE_FORMAT,
            "name": self.name,
            "bounds": list(self.bounds),
            "start": list(self.start),
            "goal": list(self.goal),
            "seed": self.seed,
            "obstacles": [{"cx": cx, "cy": cy, "width": w} for cx, cy, w in self.obstacles],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """The scene of a parsed scene document (`format` may be left out); a document of
        another type, without a key, with a value that is not finite numbers where numbers
        go, an obstacle width that is not positive, a seed that is not an integer, a name that
        is not a string, or with its start or goal out of bounds is a ValueError."""
        if not isinstance(d, dict) or d.get("format", SCENE_FORMAT) != SCENE_FORMAT:
            raise ValueError(f"not a {SCENE_FORMAT} document: {str(d)[:60]}")
        missing = [k for k in ("bounds", "obstacles", "start", "goal") if k not in d]
        if missing:
            raise ValueError(f"scene lacks {', '.join(missing)}")
        for key, n in (("bounds", 4), ("start", 2), ("goal", 2)):
            if not numbers(d[key], n):
                raise ValueError(f"scene {key} {str(d[key])[:60]} is not {n} numbers")
        if not isinstance(d["obstacles"], list) or not all(
                isinstance(o, dict) and {"cx", "cy", "width"} <= o.keys()
                and numbers([o["cx"], o["cy"], o["width"]]) and o["width"] > 0
                for o in d["obstacles"]):
            raise ValueError("every scene obstacle needs cx, cy and a positive width as numbers")
        seed, name = d.get("seed", 0), d.get("name", "")
        if not is_integer(seed):
            raise ValueError(f"scene seed {str(seed)[:60]} is not an integer")
        if not isinstance(name, str):
            raise ValueError(f"scene name {str(name)[:60]} is not a string")
        spec = cls(
            bounds=tuple(d["bounds"]),
            obstacles=[(o["cx"], o["cy"], o["width"]) for o in d["obstacles"]],
            start=tuple(d["start"]),
            goal=tuple(d["goal"]),
            seed=seed,
            name=name,
        )
        xmin, ymin, xmax, ymax = spec.bounds
        for key, (x, y) in (("start", spec.start), ("goal", spec.goal)):
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                raise ValueError(f"scene {key} {(x, y)} lies outside its bounds {spec.bounds}")
        return spec

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SceneSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def load_fixed_layout(name: str) -> SceneSpec:
    """Load one of the shipped layouts: poles, forest or bricks."""
    data = resources.files("neotraj.scenes").joinpath(f"{name}.json").read_text()
    return SceneSpec.from_dict(json.loads(data))


def generate_scene(
    preset: int | None = None,
    count: int | None = None,
    width_range: tuple[float, float] | None = None,
    seed: int = 0,
) -> SceneSpec:
    """Generate a scene, either by preset id (1-9) or by explicit settings.

    Presets 1-3 return the fixed layouts (seed ignored); presets 4-9
    rejection-sample obstacle centers inside the standard region until
    the pairwise spacing constraint holds.  Deterministic per seed.
    """
    if preset is not None:
        if preset in FIXED_PRESETS:
            spec = load_fixed_layout(FIXED_PRESETS[preset])
            spec.name = FIXED_PRESETS[preset]
            return spec
        if preset not in RANDOM_PRESETS:
            raise ValueError(f"unknown preset {preset}")
        count, width_range = RANDOM_PRESETS[preset]
        name = f"scene{preset}"
    else:
        if count is None or width_range is None:
            raise ValueError("need either preset or (count, width_range)")
        name = "custom"

    xmin, ymin, xmax, ymax = OBSTACLE_REGION
    widest = min(xmax - xmin, ymax - ymin)  # an obstacle must fit inside the region
    if not 0.0 < width_range[0] <= width_range[1] <= widest:
        raise ValueError(f"widths need 0 < min <= max <= {widest:g} m, got {tuple(width_range)}")
    rng = np.random.default_rng(seed)
    centers: list[tuple[float, float]] = []
    obstacles: list[tuple[float, float, float]] = []
    attempts = 0
    while len(obstacles) < count:
        if attempts >= MAX_ATTEMPTS:
            raise PackingFailure(
                f"placed {len(obstacles)}/{count} obstacles in {MAX_ATTEMPTS} attempts"
            )
        attempts += 1
        w = float(rng.uniform(width_range[0], width_range[1]))
        cx = float(rng.uniform(xmin + w / 2, xmax - w / 2))
        cy = float(rng.uniform(ymin + w / 2, ymax - w / 2))
        if all((cx - px) ** 2 + (cy - py) ** 2 >= MIN_SPACING**2 for px, py in centers):
            centers.append((cx, cy))
            obstacles.append((cx, cy, w))
    return SceneSpec(obstacles=obstacles, seed=seed, name=name)


class _Lookup(NamedTuple):
    """Constants of the vector lookup: the bounds, and columns against (2, K) points."""

    lo: np.ndarray  # (2, 1): xmin, ymin
    hi: np.ndarray  # (2, 1): xmax, ymax
    origin: np.ndarray  # (2, 1)
    cell_max: np.ndarray  # (2, 1): the last lower-corner cell along x and y
    corners: np.ndarray  # (4, 1): flat offsets of the corners 00, 10, 01, 11
    flat: np.ndarray  # the field, raveled


class GridWorld:
    """Immutable rasterized scene with an exact signed Euclidean distance field.

    `field[iy, ix]` is positive on free cells and negative inside
    obstacles (see the module docstring), capped at DIST_CAP; a map with
    no obstacle reads DIST_CAP everywhere, a fully occupied one -DIST_CAP.
    """

    def __init__(self, spec: SceneSpec, resolution: float):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.spec = spec
        self.resolution = float(resolution)
        xmin, ymin, xmax, ymax = spec.bounds
        self.origin = np.array([xmin, ymin])
        self.nx = int(round((xmax - xmin) / resolution))
        self.ny = int(round((ymax - ymin) / resolution))
        if self.nx < 2 or self.ny < 2:
            # the bilinear lookup needs two cell centers along each axis
            raise ValueError(
                f"bounds {tuple(spec.bounds)} at resolution {resolution} give a "
                f"{self.nx} x {self.ny} grid; need at least 2 cells along each axis"
            )
        xs = xmin + (np.arange(self.nx) + 0.5) * resolution
        ys = ymin + (np.arange(self.ny) + 0.5) * resolution
        gx, gy = np.meshgrid(xs, ys)  # occupancy[iy, ix]
        occ = np.zeros((self.ny, self.nx), dtype=bool)
        for cx, cy, w in spec.obstacles:
            occ |= (np.abs(gx - cx) <= w / 2) & (np.abs(gy - cy) <= w / 2)
        self.occupancy = occ
        if not occ.any():
            self.field = np.full((self.ny, self.nx), DIST_CAP)
        elif occ.all():  # no free cell to measure the depth to
            self.field = np.full((self.ny, self.nx), -DIST_CAP)
        else:
            signed = ndimage.distance_transform_edt(~occ) - ndimage.distance_transform_edt(occ)
            self.field = np.minimum(signed * resolution, DIST_CAP)

    @property
    def bounds(self):
        return self.spec.bounds

    def in_bounds(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        xmin, ymin, xmax, ymax = self.bounds
        return (
            (points[:, 0] >= xmin)
            & (points[:, 0] <= xmax)
            & (points[:, 1] >= ymin)
            & (points[:, 1] <= ymax)
        )

    def cell_index(self, point) -> tuple[int, int]:
        """(ix, iy) of the cell containing a point (clamped to the grid)."""
        ox, oy = self.origin.tolist()
        ix = int(min(max((float(point[0]) - ox) / self.resolution, 0), self.nx - 1))
        iy = int(min(max((float(point[1]) - oy) / self.resolution, 0), self.ny - 1))
        return ix, iy

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        return self.origin + (np.array([ix, iy]) + 0.5) * self.resolution

    @functools.cached_property
    def _lookup(self) -> _Lookup:
        xmin, ymin, xmax, ymax = self.bounds
        nx, ny = self.nx, self.ny
        return _Lookup(np.array([[xmin], [ymin]], dtype=float),
                       np.array([[xmax], [ymax]], dtype=float),
                       self.origin[:, None], np.array([[nx - 2], [ny - 2]]),
                       np.array([[0], [1], [nx], [nx + 1]]), self.field.ravel())

    def query_distance(self, points: np.ndarray):
        """Bilinear distance-field lookup with its exact gradient.

        points: (K, 2).  Out-of-bounds points return distance 0 (maximum
        penalty) with zero gradient.  Returns (dist (K,), grad (K, 2)).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            points = np.atleast_2d(points)
        rows = points.T.copy()  # x and y as contiguous rows
        lk = self._lookup
        if np.count_nonzero((rows >= lk.lo) & (rows <= lk.hi)) == rows.size:
            return self._bilinear(rows)  # every point in bounds: nothing to mask
        k = points.shape[0]
        dist = np.zeros(k)
        grad = np.zeros((k, 2))
        inside = self.in_bounds(points)
        if inside.any():
            dist[inside], grad[inside] = self._bilinear(rows[:, inside])
        return dist, grad

    def _bilinear(self, rows: np.ndarray):
        """Interpolated distance and its gradient (K, 2) at in-bounds points (rows x, y).

        Both axes go through each elementwise step together, and the four
        corner terms through each product; the arithmetic per coordinate is
        distance_at's, operation for operation.
        """
        lk = self._lookup
        # continuous cell-center coordinates, the lower corner cell, the fraction
        g = (rows - lk.origin) / self.resolution - 0.5
        ij = np.minimum(np.maximum(g, 0.0).astype(int), lk.cell_max)
        # w[1] = (fx, fy), w[0] = 1 - w[1]: w[:, 0] weighs the corners along x, w[:, 1] along y
        w = np.empty((2,) + rows.shape)
        np.minimum(np.maximum(g - ij, 0.0), 1.0, out=w[1])
        np.subtract(1, w[1], out=w[0])
        e, f = w
        # the corners 00, 10, 01, 11, gathered by flat index from the C-ordered field;
        # as v.reshape(2, 2, K), corner (i, j) sits at [j, i]
        v = lk.flat[ij[1] * self.nx + ij[0] + lk.corners]
        p = v.reshape(2, 2, -1) * w[:, 0] * w[:, 1, None]  # v_ij * wx_i * wy_j
        d = p[0, 0] + p[0, 1] + p[1, 0] + p[1, 1]
        # rows x, y: (v10 - v00) * ey + (v11 - v01) * fy and (v01 - v00) * ex + (v11 - v10) * fx
        v00, v11 = v[0], v[3]
        grad = np.empty((rows.shape[1], 2))
        np.divide((v[1:3] - v00) * e[::-1] + (v11 - v[2:0:-1]) * f[::-1], self.resolution,
                  out=grad.T)
        return d, grad

    def distance_at(self, point) -> float:
        """query_distance of one point, in Python floats: same arithmetic, same order."""
        x, y = float(point[0]), float(point[1])
        xmin, ymin, xmax, ymax = self.bounds
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            return 0.0
        ox, oy = self.origin.tolist()
        gx = (x - ox) / self.resolution - 0.5
        gy = (y - oy) / self.resolution - 0.5
        i0 = min(max(math.floor(gx), 0), self.nx - 2)
        j0 = min(max(math.floor(gy), 0), self.ny - 2)
        fx = min(max(gx - i0, 0.0), 1.0)
        fy = min(max(gy - j0, 0.0), 1.0)
        k00 = j0 * self.nx + i0
        k01 = k00 + self.nx
        item = self.field.item
        return (
            item(k00) * (1 - fx) * (1 - fy)
            + item(k00 + 1) * fx * (1 - fy)
            + item(k01) * (1 - fx) * fy
            + item(k01 + 1) * fx * fy
        )

    def collides(self, point, radius: float) -> bool:
        """True iff the interpolated clearance at `point` is strictly below radius."""
        return self.distance_at(point) < radius

    def raycast_scan(
        self, position, heading: float, n_rays: int, fov_deg: float, max_range: float
    ) -> np.ndarray:
        """Depths of n_rays rays spanning the FOV centered on `heading`.

        Grid traversal (DDA) per ray; depth clipped to max_range, and rays
        leaving the grid report max_range.
        """
        position = np.asarray(position, dtype=float)
        half = np.deg2rad(fov_deg) / 2.0
        angles = heading + np.linspace(-half, half, n_rays)
        depths = np.full(n_rays, max_range)
        for r, ang in enumerate(angles):
            depths[r] = self._cast_ray(position, np.cos(ang), np.sin(ang), max_range)
        return depths

    @functools.cached_property
    def _occupied_rows(self) -> list[list[bool]]:
        """occupancy as nested lists, for the per-cell reads of the ray walk."""
        return self.occupancy.tolist()

    def _cast_ray(self, pos, dx, dy, max_range) -> float:
        """Depth along one ray, walked in Python floats: the same IEEE operations
        in the same order as numpy scalars would do them."""
        res = self.resolution
        ix, iy = self.cell_index(pos)
        occupied = self._occupied_rows
        if occupied[iy][ix]:
            return 0.0
        px, py, dx, dy = float(pos[0]), float(pos[1]), float(dx), float(dy)
        ox, oy = self.origin.tolist()
        step_x = 1 if dx >= 0 else -1
        step_y = 1 if dy >= 0 else -1
        # parametric distance to the next vertical / horizontal cell border
        if dx != 0:
            t_max_x = (ox + (ix + (step_x > 0)) * res - px) / dx
            t_dx = res / abs(dx)
        else:
            t_max_x = t_dx = math.inf
        if dy != 0:
            t_max_y = (oy + (iy + (step_y > 0)) * res - py) / dy
            t_dy = res / abs(dy)
        else:
            t_max_y = t_dy = math.inf
        nx, ny = self.nx, self.ny
        t = 0.0
        while t <= max_range:
            if t_max_x < t_max_y:
                t = t_max_x
                t_max_x += t_dx
                ix += step_x
            else:
                t = t_max_y
                t_max_y += t_dy
                iy += step_y
            if not (0 <= ix < nx and 0 <= iy < ny):
                return max_range
            if occupied[iy][ix]:
                return min(t, max_range)
        return max_range
