"""Initial-guess strategies: baseline, geometric (A*), expert, neural.

Every strategy proposes a list of guesses (`InitStrategy.guesses`); the
replanner optimizes each one and keeps the cheapest (`cheapest`).  The
baseline, geo and neural kinds propose one guess; the expert proposes
three (straight plus left/right half-sine deformations), which captures
solutions in distinct homotopy classes around obstacles.  All guesses
carry durations strictly inside the time-transform bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import neural as neural_mod
from .config import RunConfig
from .errors import ModelShapeMismatch, NoPath
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
        if (self.kind == "neural") != (self.model is not None):
            raise ValueError("the neural strategy requires a loaded model; no other takes one")

    def guesses(self, world: GridWorld, init: BoundaryState, target: BoundaryState,
                observation, position, heading: float, rc: RunConfig) -> list[TrajParams]:
        """The initial guesses to plan from; cost ties go to the earlier one."""
        m, tf, v_max, cruise = rc.m_pieces, rc.transform, rc.penalty.v_max, rc.cruise_fraction
        if self.kind == "baseline":
            return [baseline_init(init, target, m, tf, v_max, cruise)]
        if self.kind == "geo":
            return [geo_init(world, init, target, m, tf, v_max, cruise, rc.penalty.d_safe)]
        if self.kind == "expert":
            return deformed_guesses(init, target, m, tf, v_max, cruise, rc.deform_amplitude)
        guess = neural_init(self.model, observation, position, heading, tf)
        if guess.n_pieces != m:
            raise ModelShapeMismatch(f"the model plans {guess.n_pieces} pieces, not m_pieces={m}")
        return [guess]


def cheapest(costs: list[float]) -> int:
    """Index of the cheapest cost; costs within 1e-3 count as tied, the lowest index wins."""
    return min(range(len(costs)), key=lambda i: (costs[i] > min(costs) + 1e-3, i))


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
    if dist < 1e-9:
        q = np.tile(init.position[:, None], (1, m - 1))
        return TrajParams(q, np.full(m, tf.t_min + DURATION_MARGIN))
    fracs = np.arange(1, m) / m
    q = init.position[:, None] + delta[:, None] * fracs[None, :]
    return _timed(q, dist, tf, v_max, cruise_fraction)


_MOVES = [
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]
_SQRT2 = np.sqrt(2.0)  # the diagonal move's length in cells


def astar_path(world: GridWorld, start, goal, inflate: float) -> np.ndarray:
    """8-connected A* over the grid, obstacles inflated by `inflate` meters.

    Octile move costs, Euclidean heuristic; ties broken by smaller heading
    change, then row-major cell order, so the result is deterministic.
    Returns the path as an (K, 2) array of cell-center world coordinates.
    """
    res, nx, ny = world.resolution, world.nx, world.ny
    blocked = (world.field < inflate).tobytes()  # one byte per cell, row-major: iy * nx + ix
    s = world.cell_index(start)
    g = world.cell_index(goal)
    if blocked[s[1] * nx + s[0]] or blocked[g[1] * nx + g[0]]:
        raise NoPath("start or goal cell blocked after inflation")
    # costs in Python floats, each the value its numpy expression gives
    steps = [(mv, float(res * (_SQRT2 if mv[0] and mv[1] else 1.0))) for mv in _MOVES]
    heuristic: dict[tuple[int, int], float] = {}

    def h(cell):
        value = heuristic.get(cell)
        if value is None:
            value = heuristic[cell] = float(res * np.hypot(cell[0] - g[0], cell[1] - g[1]))
        return value

    g_score = {s: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    # heap entries: (f, heading_change, row_major, cell, arrival_move).  Cells differ in
    # row_major and a cell is pushed again only with a g (so an f) lower by more than
    # 1e-12, so (f, heading_change, row_major) never ties: the rest is never compared.
    open_heap = [(h(s), 0, s[1] * nx + s[0], s, (0, 0))]
    closed: set[tuple[int, int]] = set()
    while open_heap:
        _, _, _, cur, arrival = heapq.heappop(open_heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == g:
            cells = [cur]
            while cells[-1] in came:
                cells.append(came[cells[-1]])
            cells.reverse()
            return np.array([world.cell_center(ix, iy) for ix, iy in cells])
        g_cur = g_score[cur]
        for mv, step in steps:
            x, y = cur[0] + mv[0], cur[1] + mv[1]
            if not (0 <= x < nx and 0 <= y < ny):
                continue
            row_major = y * nx + x
            nxt = (x, y)
            if blocked[row_major] or nxt in closed:
                continue
            cand = g_cur + step
            if cand < g_score.get(nxt, math.inf) - 1e-12:
                g_score[nxt] = cand
                came[nxt] = cur
                turn = 0 if mv == arrival else 1
                heapq.heappush(open_heap, (cand + h(nxt), turn, row_major, nxt, mv))
    raise NoPath(f"no path from {tuple(start)} to {tuple(goal)}")


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
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    total_len = float(seg.sum())
    if total_len < 1e-9:
        return baseline_init(init, target, m, tf, v_max, cruise_fraction)
    arc = np.concatenate(([0.0], np.cumsum(seg)))
    at = np.arange(1, m) / m * arc[-1]
    q = np.array([np.interp(at, arc, path[:, k]) for k in range(path.shape[1])])
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
    """Optimize all three seeds and keep the cheapest: `replan.decide` for the expert.

    Returns (best PlanResult, chosen seed index, all three costs); ties go to the lowest index.
    It keeps its own loop, since replan imports this module and perfbench hooks its `plan`.
    """
    guesses = deformed_guesses(
        init, target, m, transform, penalty.v_max, cruise_fraction, amplitude
    )
    results = [
        plan(init, target, guess, world, weights, penalty, transform, solver_cfg, s_order)
        for guess in guesses
    ]
    costs = [r.cost for r in results]
    best = cheapest(costs)
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
