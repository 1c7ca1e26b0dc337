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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyDataset, ModelShapeMismatch, ShapeMismatch, is_integer, is_number, numbers
from .minco import BoundaryState, TrajParams
from .objective import TimeTransform, tau_to_time, time_to_tau

MODEL_FORMAT = "neotraj-model-1"
DATASET_FORMAT = "neotraj-dataset-1"

# the CLI's --lr and --epochs defaults
LEARNING_RATE = 1e-3
EPOCHS = 800
# Adam's moment decays and denominator guard, the mini-batch size and the
# share of records held out for validation
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
BATCH_SIZE = 64
VAL_SPLIT = 0.1


@dataclass
class NormConstants:
    """Scales that map raw observations/targets to network units.

    tau_scale divides the stored time channel so every target channel is
    O(1); decoding multiplies it back before the sigmoid duration map.
    Stored tau targets are clipped to the band decoding clips to, +-tau_scale:
    beyond 4.0 the sigmoid is saturated (durations within 2% of their bounds),
    so larger magnitudes carry no duration information and distort the loss.
    """

    d_look: float
    v_max: float
    max_range: float
    tau_scale: float = 4.0


# the depth branch's hidden widths (its input: one depth per ray) and the head's
# input and hidden widths (its input: both branches' outputs; output: plan_width)
DEPTH_HIDDEN = (48, 24)
HEAD_HIDDEN = (48, 96, 96)


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
    lo = tf.t_min + tf.span / (1.0 + np.exp(norm.tau_scale))
    hi = tf.t_min + tf.span / (1.0 + np.exp(-norm.tau_scale))
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


def plan_width(m_pieces: int) -> int:
    """Outputs of a network that plans m_pieces planar pieces: the 2(M-1)
    waypoint coordinates, then one tau per piece (decode_output's layout)."""
    return 2 * (m_pieces - 1) + m_pieces


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0.0, z, slope * z)


def _leaky_grad(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0.0, 1.0, slope)


class MlpModel:
    """Two-branch perceptron with explicit forward/backward passes."""

    def __init__(
        self,
        norm: NormConstants,
        depth_sizes,
        head_sizes,
        inertial_sizes=(12, 24, 24),
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
        """The model of a parsed model document; a document of another type, without a key,
        with sizes that are not positive integers, a slope or norm that is not numbers or
        params that are not [weights, bias] pairs of numbers is a ValueError, one whose
        weights do not fit its sizes a ModelShapeMismatch."""
        if not isinstance(d, dict) or d.get("format", MODEL_FORMAT) != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} document: {str(d)[:60]}")
        missing = [k for k in ("depth_sizes", "inertial_sizes", "head_sizes", "slope", "norm",
                               "params") if k not in d]
        if missing:
            raise ValueError(f"model lacks {', '.join(missing)}")
        norm = d["norm"]
        if not (isinstance(norm, dict) and {"d_look", "v_max", "max_range"} <= norm.keys()
                <= {"d_look", "v_max", "max_range", "tau_scale"}
                and numbers(list(norm.values()))):
            raise ValueError(f"model norm {str(norm)[:60]} is not d_look, v_max, max_range "
                             "and an optional tau_scale as numbers")
        for key in ("depth_sizes", "inertial_sizes", "head_sizes"):
            if not (isinstance(d[key], list) and d[key]
                    and all(is_integer(v) and v > 0 for v in d[key])):
                raise ValueError(f"model {key} {str(d[key])[:60]} is not positive integers")
        if not is_number(d["slope"]):
            raise ValueError(f"model slope {str(d['slope'])[:60]} is not a number")
        model = cls(
            depth_sizes=d["depth_sizes"],
            inertial_sizes=d["inertial_sizes"],
            head_sizes=d["head_sizes"],
            slope=d["slope"],
            norm=NormConstants(**norm),
        )
        params = d["params"]
        if not (isinstance(params, dict) and model.layers.keys() <= params.keys()):
            raise ValueError("model params need the branches depth, inertial and head")
        for name, built in model.layers.items():
            try:
                stored = [(np.array(w, dtype=float), np.array(b, dtype=float))
                          for w, b in params[name]]
                if not all(np.isfinite(a).all() for pair in stored for a in pair):
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"model params {name} are not [weights, bias] pairs of "
                                 "finite numbers") from None
            if len(stored) != len(built):
                raise ModelShapeMismatch(f"layer count mismatch in branch {name}")
            model.layers[name] = stored
            for (w, b), (ew, eb) in zip(stored, built):
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


def adam_step(params: list, grads: list, m: list, v: list, step: int, learning_rate: float) -> list:
    """Bias-corrected Adam update number `step` (from 1), in place on params, m and v."""
    for p, g, mk, vk in zip(params, grads, m, v):
        mk[...] = BETA1 * mk + (1.0 - BETA1) * g
        vk[...] = BETA2 * vk + (1.0 - BETA2) * g * g
        m_hat = mk / (1.0 - BETA1**step)
        v_hat = vk / (1.0 - BETA2**step)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return params


def train(records: list[dict], model: MlpModel, learning_rate: float, epochs: int, seed: int):
    """Seeded mini-batch Adam training of `model`; keeps the best-validation parameters.

    Returns (model, curve) where curve rows are
    {"epoch", "train_mse", "val_mse"}.
    """
    if not (is_number(learning_rate) and learning_rate > 0) or epochs < 1:
        raise ValueError("the learning rate and the epoch count must be positive")
    if not records:
        raise EmptyDataset("no training records")
    x = np.array([r["obs"] for r in records], dtype=float)
    y = np.array([r["target"] for r in records], dtype=float)
    if (x.shape[1], y.shape[1]) != (model.n_inputs, model.n_outputs):
        raise ModelShapeMismatch(f"records map {x.shape[1]} inputs to {y.shape[1]} targets; "
                                 f"the model maps {model.n_inputs} to {model.n_outputs}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(records))
    n_val = int(round(VAL_SPLIT * len(records)))
    n_val = min(n_val, len(records) - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    batch = min(BATCH_SIZE, train_idx.size)

    params = model.param_list()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    curve = []
    best_val = np.inf
    best_params = None
    for epoch in range(epochs):
        order = rng.permutation(train_idx)
        losses = []
        for k in range(0, order.size, batch):
            idx = order[k : k + batch]
            loss, grads = model.backward(x[idx], y[idx])
            step += 1
            adam_step(params, grads, m, v, step, learning_rate)
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
        for p, best in zip(params, best_params):
            p[...] = best
    return model, curve


def save_dataset(records: list[dict], path) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True))
            fh.write("\n")


def load_dataset(path) -> list[dict]:
    """The records of a dataset file; a record without obs or target as lists of numbers is
    a ValueError that names its line."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                record = json.loads(line)
                if not (isinstance(record, dict) and {"obs", "target"} <= record.keys()
                        and numbers(record["obs"]) and numbers(record["target"])):
                    raise ValueError(f"{path} line {number}: a record needs obs and target "
                                     "as lists of numbers")
                records.append(record)
    return records

