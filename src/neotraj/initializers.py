"""Initial-guess strategies: baseline, geometric (A*), expert, neural.

All strategies emit TrajParams whose durations lie strictly inside the
time-transform bounds.  The expert optimizes three seeds (straight plus
left/right half-sine deformations) and keeps the cheapest result, which
captures solutions in distinct homotopy classes around obstacles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import neural as neural_mod
from .errors import NoPath
from .minco import BoundaryState, TrajParams
from .objective import CostWeights, PenaltyConfig, TimeTransform
from .solver import DURATION_MARGIN, PlanResult, SolverConfig, clamp_durations, plan
from .world import GridWorld

STRATEGY_KINDS = ("baseline", "geo", "expert", "neural")


@dataclass
class InitStrategy:
    """Tagged choice of initializer; the neural kind carries its model."""

    kind: str
    model: "neural_mod.MlpModel | None" = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "neural" and self.model is None:
            raise ValueError("neural strategy requires a loaded model")


def _timed(q, length: float, tf: TimeTransform, v_max: float, cruise_fraction: float) -> TrajParams:
    """Waypoints q (D, M-1) with durations for `length` meters at cruise speed.

    The first and last piece get 1.5x the time of the interior ones.
    """
    w = np.ones(q.shape[1] + 1)
    w[0] = 1.5
    w[-1] = 1.5
    total = length / (cruise_fraction * v_max)
    return TrajParams(q, clamp_durations(total * w / w.sum(), tf))


def baseline_init(
    init: BoundaryState,
    target: BoundaryState,
    m: int,
    tf: TimeTransform,
    v_max: float,
    cruise_fraction: float,
) -> TrajParams:
    """Straight-line guess: evenly spaced waypoints, 1.5/1/.../1/1.5 time split."""
    delta = target.position - init.position
    dist = float(np.linalg.norm(delta))
    d = init.position.size
    if dist < 1e-9:
        q = np.tile(init.position[:, None], (1, m - 1))
        tbar = np.full(m, tf.t_min + DURATION_MARGIN)
        return TrajParams(q.reshape(d, m - 1), tbar)
    fracs = np.arange(1, m) / m
    q = init.position[:, None] + delta[:, None] * fracs[None, :]
    return _timed(q, dist, tf, v_max, cruise_fraction)


_MOVES = [
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]


def astar_path(world: GridWorld, start, goal, inflate: float) -> np.ndarray:
    """8-connected A* over the grid, obstacles inflated by `inflate` meters.

    Octile move costs, Euclidean heuristic; ties broken by smaller heading
    change, then row-major cell order, so the result is deterministic.
    Returns the path as an (K, 2) array of cell-center world coordinates.
    """
    res = world.resolution
    blocked = world.field < inflate
    s = world.cell_index(start)
    g = world.cell_index(goal)
    if blocked[s[1], s[0]] or blocked[g[1], g[0]]:
        raise NoPath("start or goal cell blocked after inflation")

    def h(cell):
        return res * np.hypot(cell[0] - g[0], cell[1] - g[1])

    g_score = {s: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    # heap entries: (f, heading_change, row_major, counter, cell, arrival_move)
    counter = 0
    open_heap = [(h(s), 0, s[1] * world.nx + s[0], counter, s, (0, 0))]
    closed: set[tuple[int, int]] = set()
    while open_heap:
        _, _, _, _, cur, arrival = heapq.heappop(open_heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == g:
            cells = [cur]
            while cells[-1] in came:
                cells.append(came[cells[-1]])
            cells.reverse()
            return np.array([world.cell_center(ix, iy) for ix, iy in cells])
        for mv in _MOVES:
            nxt = (cur[0] + mv[0], cur[1] + mv[1])
            if not (0 <= nxt[0] < world.nx and 0 <= nxt[1] < world.ny):
                continue
            if blocked[nxt[1], nxt[0]] or nxt in closed:
                continue
            step = res * (np.sqrt(2.0) if mv[0] and mv[1] else 1.0)
            cand = g_score[cur] + step
            if cand < g_score.get(nxt, np.inf) - 1e-12:
                g_score[nxt] = cand
                came[nxt] = cur
                turn = 0 if mv == arrival else 1
                counter += 1
                heapq.heappush(
                    open_heap,
                    (cand + h(nxt), turn, nxt[1] * world.nx + nxt[0], counter, nxt, mv),
                )
    raise NoPath(f"no path from {tuple(start)} to {tuple(goal)}")


def _resample_polyline(path: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Points at given arclength fractions of a polyline, shape (len(fracs), 2)."""
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    total = arc[-1]
    if total < 1e-12:
        return np.tile(path[0], (fracs.size, 1))
    return np.column_stack(
        [np.interp(fracs * total, arc, path[:, k]) for k in range(path.shape[1])]
    )


def geo_init(
    world: GridWorld,
    init: BoundaryState,
    target: BoundaryState,
    m: int,
    tf: TimeTransform,
    v_max: float,
    cruise_fraction: float,
    inflate: float,
) -> TrajParams:
    """Waypoints from an A* path at arclength fractions k/M; baseline time split.

    Falls back to baseline_init when no path exists.
    """
    try:
        path = astar_path(world, init.position, target.position, inflate)
    except NoPath:
        return baseline_init(init, target, m, tf, v_max, cruise_fraction)
    # snap endpoints to the true states so the fractions span the real motion
    path = np.vstack([init.position, path, target.position])
    fracs = np.arange(1, m) / m
    q = _resample_polyline(path, fracs).T
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    total_len = float(seg.sum())
    if total_len < 1e-9:
        return baseline_init(init, target, m, tf, v_max, cruise_fraction)
    return _timed(q, total_len, tf, v_max, cruise_fraction)


def deformed_guesses(
    init: BoundaryState,
    target: BoundaryState,
    m: int,
    tf: TimeTransform,
    v_max: float,
    cruise_fraction: float,
    amplitude: float,
) -> list[TrajParams]:
    """The expert's three seeds: straight, then left/right half-sine bulges."""
    base = baseline_init(init, target, m, tf, v_max, cruise_fraction)
    delta = target.position - init.position
    dist = float(np.linalg.norm(delta))
    if dist < 1e-9:
        normal = np.array([0.0, 1.0])
    else:
        u = delta / dist
        normal = np.array([-u[1], u[0]])  # left of the travel direction
    bulge = amplitude * np.sin(np.pi * np.arange(1, m) / m)
    left = TrajParams(base.waypoints + normal[:, None] * bulge[None, :], base.durations.copy())
    right = TrajParams(base.waypoints - normal[:, None] * bulge[None, :], base.durations.copy())
    return [base, left, right]


def expert_plan(
    world: GridWorld,
    init: BoundaryState,
    target: BoundaryState,
    m: int,
    weights: CostWeights,
    penalty: PenaltyConfig,
    transform: TimeTransform,
    solver_cfg: SolverConfig,
    amplitude: float,
    cruise_fraction: float,
    s_order: int = 3,  # RunConfig().s_order; perfbench's PlanSet.decide passes ten arguments
) -> tuple[PlanResult, int, list[float]]:
    """Optimize all three seeds and keep the cheapest result.

    Returns (best PlanResult, chosen seed index, all three final costs);
    cost ties resolve to the lowest index.
    """
    guesses = deformed_guesses(
        init, target, m, transform, penalty.v_max, cruise_fraction, amplitude
    )
    results = [
        plan(init, target, guess, world, weights, penalty, transform, solver_cfg, s_order)
        for guess in guesses
    ]
    costs = [r.cost for r in results]
    # costs within 1e-3 count as tied; the lowest index (straight first) wins
    best = min(range(3), key=lambda i: (costs[i] > min(costs) + 1e-3, i))
    return results[best], best, costs


def neural_init(
    model: "neural_mod.MlpModel",
    observation: np.ndarray,
    position,
    heading: float,
    tf: TimeTransform,
) -> TrajParams:
    """Decode a network prediction into world-frame TrajParams.

    The model emits body-frame waypoints (normalized by its lookahead
    constant) and the time channel in tau-space; durations therefore land
    strictly inside the transform bounds by construction.
    """
    out = model.forward(np.asarray(observation, dtype=float))
    return neural_mod.decode_output(out, np.asarray(position, dtype=float), heading, tf, model.norm)
