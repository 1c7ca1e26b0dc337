"""Two-branch MLP warm-start predictor: encoding, training, file formats.

The network consumes a 76-float observation (64 normalized raycast depths
plus 12 inertial features, all in the drone's body frame) and emits the
plan's body-frame waypoints together with the time channel in tau-space,
so decoded durations always respect the duration bounds.  Branch widths
mirror the original design: depth 64->48->24, inertial 12->24->24, head
48->96->96->7, Leaky ReLU on every hidden layer, linear output.

Dataset files are JSONL, one record per line:
    {"obs": [76 floats], "target": [7 floats], "scene": id, "t": seconds}
Model files are a single JSON document with layer sizes, weights and the
normalization constants baked in, so inference needs no side channel.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyDataset, ModelShapeMismatch, ShapeMismatch
from .minco import BoundaryState, TrajParams
from .objective import TimeTransform, tau_to_time, time_to_tau

MODEL_FORMAT = "neotraj-model-1"
DATASET_FORMAT = "neotraj-dataset-1"

# Stored tau targets are clipped to this band.  Outside it the sigmoid is
# saturated (durations within 2% of their bounds), so larger magnitudes
# carry no duration information and only distort the MSE loss.
TAU_CLIP = 4.0


@dataclass
class NormConstants:
    """Scales that map raw observations/targets to network units.

    tau_scale divides the stored time channel so every target channel is
    O(1); decoding multiplies it back before the sigmoid duration map.
    """

    d_look: float
    v_max: float
    max_range: float
    tau_scale: float = 4.0


def rotation(heading: float) -> np.ndarray:
    c, s = np.cos(heading), np.sin(heading)
    return np.array([[c, -s], [s, c]])


def encode_observation(
    scan: np.ndarray,
    position: np.ndarray,
    velocity: np.ndarray,
    heading: float,
    init_state: BoundaryState,
    target_state: BoundaryState,
    norm: NormConstants,
) -> np.ndarray:
    """Build the 76-float network input from raw world-frame quantities."""
    rt = rotation(heading).T
    depth = np.clip(np.asarray(scan, dtype=float) / norm.max_range, 0.0, 1.0)
    parts = [
        depth,
        rt @ velocity / norm.v_max,
        np.array([np.cos(heading), np.sin(heading)]),
        rt @ (init_state.position - position) / norm.d_look,
        rt @ init_state.velocity / norm.v_max,
        rt @ (target_state.position - position) / norm.d_look,
        rt @ target_state.velocity / norm.v_max,
    ]
    return np.concatenate(parts)


def encode_target(
    waypoints: np.ndarray,
    durations: np.ndarray,
    position: np.ndarray,
    heading: float,
    tf: TimeTransform,
    norm: NormConstants,
) -> np.ndarray:
    """Body-frame normalized waypoints plus the durations in tau-space."""
    rt = rotation(heading).T
    qb = rt @ (waypoints - position[:, None]) / norm.d_look
    # durations lie strictly inside (t_min, t_max) but may be saturated; clip
    # into the interval matching the tau band before taking the logit
    lo = tf.t_min + tf.span / (1.0 + np.exp(TAU_CLIP))
    hi = tf.t_min + tf.span / (1.0 + np.exp(-TAU_CLIP))
    tau = time_to_tau(np.clip(durations, lo, hi), tf)
    return np.concatenate([qb.flatten(order="F"), tau / norm.tau_scale])


def decode_output(
    out: np.ndarray,
    position: np.ndarray,
    heading: float,
    tf: TimeTransform,
    norm: NormConstants,
) -> TrajParams:
    """Invert encode_target: world-frame TrajParams from a network output."""
    out = np.asarray(out, dtype=float).ravel()
    dims = position.size
    m, rem = divmod(out.size + dims, dims + 1)
    if rem != 0 or m < 1:
        raise ModelShapeMismatch(f"output size {out.size} does not fit D={dims}")
    nq = dims * (m - 1)
    # guard against off-distribution predictions: waypoints stay inside the
    # forward lookahead corridor and the time channel within the band seen
    # in training (plans run from the body origin toward a target ~1 unit
    # ahead, so anything far outside that corridor is extrapolation noise)
    qb = out[:nq].reshape((dims, m - 1), order="F").copy()
    qb[0] = np.clip(qb[0], -0.3, 1.3)
    qb[1:] = np.clip(qb[1:], -0.6, 0.6)
    tau = np.clip(out[nq:], -1.0, 1.0) * norm.tau_scale
    q = rotation(heading) @ (qb * norm.d_look) + position[:, None]
    return TrajParams(q, tau_to_time(tau, tf))


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0.0, z, slope * z)


def _leaky_grad(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0.0, 1.0, slope)


class MlpModel:
    """Two-branch perceptron with explicit forward/backward passes."""

    def __init__(
        self,
        norm: NormConstants,
        depth_sizes=(64, 48, 24),
        inertial_sizes=(12, 24, 24),
        head_sizes=(48, 96, 96, 7),
        slope: float = 0.01,
        seed: int = 0,
    ):
        if head_sizes[0] != depth_sizes[-1] + inertial_sizes[-1]:
            raise ModelShapeMismatch("head input must equal concatenated branch outputs")
        self.depth_sizes = list(depth_sizes)
        self.inertial_sizes = list(inertial_sizes)
        self.head_sizes = list(head_sizes)
        self.slope = slope
        self.norm = norm
        rng = np.random.default_rng(seed)
        self.layers = {
            name: [
                (
                    rng.normal(0.0, np.sqrt(2.0 / sizes[i]), size=(sizes[i + 1], sizes[i])),
                    np.zeros(sizes[i + 1]),
                )
                for i in range(len(sizes) - 1)
            ]
            for name, sizes in (
                ("depth", self.depth_sizes),
                ("inertial", self.inertial_sizes),
                ("head", self.head_sizes),
            )
        }

    @property
    def n_inputs(self) -> int:
        return self.depth_sizes[0] + self.inertial_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.head_sizes[-1]

    def param_list(self) -> list[np.ndarray]:
        """Flat canonical parameter order (shared references)."""
        return _flat(self.layers)

    def set_params(self, params: list[np.ndarray]) -> None:
        for dst, src in zip(self.param_list(), params):
            dst[...] = src

    def _forward(self, x: np.ndarray, caches: dict | None = None) -> np.ndarray:
        """Outputs for a (B, I) batch.

        With `caches` ({branch name: []}), each layer appends its
        (input, pre-activation) pair to its branch's list, for backward.
        """
        nd = self.depth_sizes[0]
        hd = self._branch("depth", x[:, :nd], caches)
        hi = self._branch("inertial", x[:, nd:], caches)
        return self._branch("head", np.concatenate([hd, hi], axis=1), caches)

    def _branch(self, name: str, h: np.ndarray, caches) -> np.ndarray:
        layers = self.layers[name]
        for k, (w, b) in enumerate(layers):
            z = h @ w.T + b
            if caches is not None:
                caches[name].append((h, z))
            # the head's last layer is the linear output
            h = z if name == "head" and k == len(layers) - 1 else _leaky(z, self.slope)
        return h

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """Predict; accepts a single observation (I,) or a batch (B, I)."""
        obs = np.asarray(obs, dtype=float)
        x = np.atleast_2d(obs)
        if x.shape[1] != self.n_inputs:
            raise ShapeMismatch(f"expected {self.n_inputs} inputs, got {x.shape[1]}")
        h = self._forward(x)
        return h[0] if obs.ndim == 1 else h

    def backward(self, obs: np.ndarray, targets: np.ndarray):
        """MSE loss (mean over batch and output dims) and its gradients.

        Returns (loss, grads) with grads in param_list order.
        """
        x = np.atleast_2d(np.asarray(obs, dtype=float))
        y = np.atleast_2d(np.asarray(targets, dtype=float))
        if x.shape[0] == 0:
            raise EmptyDataset("backward on an empty batch")
        caches = {name: [] for name in self.layers}
        diff = self._forward(x, caches) - y
        loss = float(np.mean(diff**2))
        delta = 2.0 * diff / diff.size

        grads = {name: [None] * len(self.layers[name]) for name in self.layers}

        def back_layers(name, delta):
            layers = self.layers[name]
            for k in range(len(layers) - 1, -1, -1):
                inp, z = caches[name][k]
                if not (name == "head" and k == len(layers) - 1):
                    delta = delta * _leaky_grad(z, self.slope)
                grads[name][k] = (delta.T @ inp, delta.sum(axis=0))
                delta = delta @ layers[k][0]
            return delta

        dh = back_layers("head", delta)
        back_layers("depth", dh[:, : self.depth_sizes[-1]])
        back_layers("inertial", dh[:, self.depth_sizes[-1] :])
        return loss, _flat(grads)

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "depth_sizes": self.depth_sizes,
            "inertial_sizes": self.inertial_sizes,
            "head_sizes": self.head_sizes,
            "slope": self.slope,
            "norm": asdict(self.norm),
            "params": {
                name: [[w.tolist(), b.tolist()] for w, b in self.layers[name]]
                for name in ("depth", "inertial", "head")
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpModel":
        model = cls(
            depth_sizes=d["depth_sizes"],
            inertial_sizes=d["inertial_sizes"],
            head_sizes=d["head_sizes"],
            slope=d["slope"],
            norm=NormConstants(**d["norm"]),
        )
        for name, built in model.layers.items():
            stored = d["params"][name]
            if len(stored) != len(built):
                raise ModelShapeMismatch(f"layer count mismatch in branch {name}")
            model.layers[name] = [
                (np.array(w, dtype=float), np.array(b, dtype=float)) for w, b in stored
            ]
            for (w, b), (ew, eb) in zip(model.layers[name], built):
                if w.shape != ew.shape or b.shape != eb.shape:
                    raise ModelShapeMismatch(f"bad weight shape in branch {name}")
        return model

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _flat(branches: dict) -> list:
    """Per-layer (weight, bias) pairs of each branch in the canonical flat order."""
    return [p for name in ("depth", "inertial", "head") for layer in branches[name] for p in layer]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 800
    seed: int = 0
    val_split: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("rates and sizes must be positive")


@dataclass
class AdamState:
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    step: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, cfg: TrainConfig
) -> list[np.ndarray]:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return params


def train(records: list[dict], cfg: TrainConfig, model: MlpModel):
    """Seeded mini-batch training of `model`; keeps the best-validation parameters.

    Returns (model, curve) where curve rows are
    {"epoch", "train_mse", "val_mse"}.
    """
    if not records:
        raise EmptyDataset("no training records")
    x = np.array([r["obs"] for r in records], dtype=float)
    y = np.array([r["target"] for r in records], dtype=float)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(records))
    n_val = int(round(cfg.val_split * len(records)))
    n_val = min(n_val, len(records) - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise EmptyDataset("no records left for training after the split")
    batch = min(cfg.batch_size, train_idx.size)

    params = model.param_list()
    state = AdamState.for_params(params)
    curve = []
    best_val = np.inf
    best_params = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        losses = []
        for k in range(0, order.size, batch):
            idx = order[k : k + batch]
            loss, grads = model.backward(x[idx], y[idx])
            adam_step(params, grads, state, cfg)
            losses.append(loss)
        train_mse = float(np.mean(losses))
        if val_idx.size:
            pred = model.forward(x[val_idx])
            val_mse = float(np.mean((pred - y[val_idx]) ** 2))
        else:
            val_mse = train_mse
        curve.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})
        if val_mse < best_val:
            best_val = val_mse
            best_params = [p.copy() for p in params]
    if best_params is not None:
        model.set_params(best_params)
    return model, curve


def save_dataset(records: list[dict], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True))
            fh.write("\n")


def load_dataset(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def collect_dataset(scenes, episodes: int, seed: int, setup):
    """Run expert episodes and harvest (observation, expert output) pairs.

    `scenes` is a list of preset ids (fresh world per episode, seeded from
    `seed` and the episode index) and/or SceneSpec instances (fixed).
    Records from failed episodes are dropped; the summary counts them.

    Returns (records, summary).
    """
    from . import replan  # runtime import: replan depends on this module
    from .initializers import InitStrategy
    from .world import GridWorld, generate_scene

    records: list[dict] = []
    succeeded = failed = 0
    for ep in range(episodes):
        scene = scenes[ep % len(scenes)]
        if isinstance(scene, int):
            spec = generate_scene(preset=scene, seed=replan.derive_seed(seed, ep))
            scene_id = f"scene{scene}-ep{ep}"
        else:
            spec = scene
            scene_id = spec.name or f"fixed-ep{ep}"
        world = GridWorld(spec, setup.resolution)
        episode_records: list[dict] = []

        def sink(obs, target, t):
            episode_records.append(
                {
                    "obs": [float(v) for v in obs],
                    "target": [float(v) for v in target],
                    "scene": scene_id,
                    "t": float(t),
                }
            )

        report = replan.run_episode(
            world, InitStrategy("expert"), setup, seed=replan.derive_seed(seed, ep), sample_sink=sink
        )
        if report.success:
            succeeded += 1
            records.extend(episode_records)
        else:
            failed += 1
    summary = {
        "format": DATASET_FORMAT,
        "episodes": episodes,
        "succeeded": succeeded,
        "failed": failed,
        "records": len(records),
    }
    return records, summary
