"""Run configuration: one tree of dataclasses covering every tunable.

`RunConfig` holds the planner's main parameter table (M, S, v_max,
duration bounds, replan/foreseeing intervals, cost weights) in the
sections the layers read - `weights`, `penalty`, `transform`, `solver`,
`replan` - plus the fields no single layer owns.  Each value and its
check live once, in the dataclass that owns it.

On disk a config is one flat JSON object: every leaf field is a key of
its own (the section field names are unique), except the cost weights,
which are the list `weights`.  Unknown keys, values of the wrong type and
numbers that are not finite are rejected so typos fail loudly; every value
from outside, from a file or a flag, reaches a `RunConfig` through `from_dict`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, astuple, dataclass, field, fields

from .errors import is_integer, is_number, numbers
from .neural import NormConstants
from .objective import CostWeights, PenaltyConfig, TimeTransform
from .solver import SolverConfig

DIMS = 2  # the planner is planar; `dims` survives only as a fixed key of the flat document


@dataclass
class ReplanConfig:
    """Timing, tracking and termination parameters of the online loop."""

    replan_interval: float = 1.0
    foresee: float = 1.0
    latency: float = 0.0
    use_wall_time: bool = False
    lookahead: float = 6.0
    goal_tolerance: float = 0.5
    timeout: float = 90.0
    drone_radius: float = 0.3
    kp: float = 8.0
    kv: float = 5.0
    tick_rate: float = 60.0

    def __post_init__(self):
        if self.replan_interval <= 0 or self.foresee < 0 or self.latency < 0:
            raise ValueError("need replan_interval > 0, foresee >= 0 and latency >= 0")
        if self.tick_rate <= 0 or self.timeout <= 0 or self.lookahead <= 0:
            raise ValueError("need tick_rate > 0, timeout > 0 and lookahead > 0")


@dataclass
class RunConfig:
    weights: CostWeights = field(default_factory=CostWeights)
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    transform: TimeTransform = field(default_factory=TimeTransform)
    solver: SolverConfig = field(default_factory=SolverConfig)
    replan: ReplanConfig = field(default_factory=ReplanConfig)
    # trajectory parameterization
    m_pieces: int = 3
    s_order: int = 3
    # world
    resolution: float = 0.1
    # initializers
    cruise_fraction: float = 0.7
    deform_amplitude: float = 1.5
    # perception
    n_rays: int = 64
    fov_deg: float = 87.0
    max_range: float = 5.0

    def __post_init__(self):
        if self.m_pieces < 1:
            raise ValueError("m_pieces must be >= 1")
        if not 1 <= self.s_order <= 3:
            # boundary states carry position, velocity and acceleration only
            raise ValueError("s_order must be 1, 2 or 3")
        if self.cruise_fraction <= 0 or self.max_range <= 0:
            raise ValueError("need cruise_fraction > 0 and max_range > 0")

    @classmethod
    def from_run_config(cls, rc: "RunConfig") -> "RunConfig":
        """Identity: perfbench still builds its setup as EpisodeSetup.from_run_config(rc)."""
        return rc

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("a config must be one JSON object")
        unknown = set(d) - set(_LEAVES) - {"weights", "dims"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "dims" in d and not (is_integer(d["dims"]) and d["dims"] == DIMS):
            raise ValueError(f"dims must be {DIMS}: the planner is planar")
        top: dict = {}
        parts: dict = {section: {} for section in _SECTIONS}
        for key, (section, default) in _LEAVES.items():
            if key in d:
                if not _type_ok(d[key], default):
                    kind = {bool: "true or false", int: "an integer"}.get(
                        type(default), "a finite number"
                    )
                    raise ValueError(f"config key {key!r} must be {kind}, got {d[key]!r}")
                (parts[section] if section else top)[key] = d[key]
        if "weights" in d:
            if not numbers(d["weights"], 4):
                raise ValueError("weights must be four nonnegative numbers")
            top["weights"] = CostWeights(*d["weights"])
        sections = {name: make(**parts[name]) for name, make in _SECTIONS.items()}
        return cls(**top, **sections)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = {"dims": DIMS, "weights": list(astuple(self.weights))}
        for key, (section, _) in _LEAVES.items():
            d[key] = getattr(getattr(self, section) if section else self, key)
        return d

    def norm_constants(self) -> NormConstants:
        return NormConstants(
            d_look=self.replan.lookahead, v_max=self.penalty.v_max, max_range=self.max_range
        )


# Sections whose fields are flat keys of their own; the weights are one list.
_SECTIONS = {
    f.name: f.default_factory
    for f in fields(RunConfig)
    if f.default_factory is not MISSING and f.name != "weights"
}
# flat key -> (owning section, or None for a top-level field; default value)
_LEAVES = {
    f.name: (None, f.default) for f in fields(RunConfig) if f.default_factory is MISSING
}
_LEAVES.update(
    {sf.name: (name, sf.default) for name, make in _SECTIONS.items() for sf in fields(make)}
)


def _type_ok(value, default) -> bool:
    """bool takes only bool, int only an integer, float any finite number."""
    if type(default) is bool:
        return type(value) is bool
    return is_integer(value) if type(default) is int else is_number(value)
