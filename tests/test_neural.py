"""Network forward/backward, Adam, training loop, encodings, file formats."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import MODEL_SIZES, RC
from neotraj.errors import EmptyDataset, ModelShapeMismatch, ShapeMismatch
from neotraj.minco import BoundaryState
from neotraj.neural import (
    EPOCHS,
    LEARNING_RATE,
    MlpModel,
    adam_step,
    decode_output,
    encode_observation,
    encode_target,
    load_dataset,
    save_dataset,
    train,
)
from neotraj.objective import TimeTransform

TF = TimeTransform()
NORM = RC.norm_constants()


def zero_model(**kw):
    model = MlpModel(NORM, **{**MODEL_SIZES, **kw})
    for name in model.layers:
        model.layers[name] = [(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers[name]]
    return model


def test_forward_zero_weights():
    model = zero_model()
    assert np.all(model.forward(np.ones(76)) == 0.0)


def test_forward_linear_output_scaling(rng):
    model = MlpModel(NORM, **MODEL_SIZES, seed=4)
    x = rng.normal(size=76)
    y1 = model.forward(x)
    w, b = model.layers["head"][-1]
    model.layers["head"][-1] = (2.0 * w, 2.0 * b)
    assert np.allclose(model.forward(x), 2.0 * y1)


def test_forward_deterministic(rng):
    x = rng.normal(size=(3, 76))
    a = MlpModel(NORM, **MODEL_SIZES, seed=9).forward(x)
    b = MlpModel(NORM, **MODEL_SIZES, seed=9).forward(x)
    assert np.array_equal(a, b)


def test_forward_shape_check():
    with pytest.raises(ShapeMismatch):
        MlpModel(NORM, **MODEL_SIZES).forward(np.zeros(75))


def test_default_architecture_sizes():
    model = MlpModel(NORM, **MODEL_SIZES)
    assert model.n_inputs == 76
    assert model.n_outputs == 7
    with pytest.raises(ModelShapeMismatch):
        MlpModel(NORM, depth_sizes=MODEL_SIZES["depth_sizes"], head_sizes=(40, 96, 7))


def test_backward_zero_at_perfect_fit(rng):
    model = MlpModel(NORM, **MODEL_SIZES, seed=1)
    x = rng.normal(size=(4, 76))
    y = model.forward(x)
    loss, grads = model.backward(x, y)
    assert loss == 0.0
    assert all(np.allclose(g, 0.0) for g in grads)


def test_backward_matches_fd_small_model(rng):
    model = MlpModel(NORM, depth_sizes=[2, 2], inertial_sizes=[1, 2], head_sizes=[4, 3, 1], seed=3)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 1))
    loss, grads = model.backward(x, y)
    params = model.param_list()
    h = 1e-6
    worst = 0.0
    for gi, p in enumerate(params):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = model.backward(x, y)
            p[idx] = orig - h
            lm, _ = model.backward(x, y)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            if abs(fd) > 1e-12:
                worst = max(worst, abs(fd - grads[gi][idx]) / max(1e-8, abs(fd)))
    assert worst < 1e-5


def test_single_linear_layer_gradient():
    # one sample through y = w x: dL/dw = 2 (w x - t) x
    model = zero_model(depth_sizes=[1, 1], inertial_sizes=[1, 1], head_sizes=[2, 1])
    model.layers["depth"][0] = (np.array([[1.0]]), np.zeros(1))  # pass-through-ish
    model.layers["head"][0] = (np.array([[0.7, 0.0]]), np.zeros(1))
    x = np.array([[2.0, 0.0]])
    t = np.array([[1.0]])
    # forward: depth branch leaky(1*2)=2, head 0.7*2 = 1.4
    loss, grads = model.backward(x, t)
    pred = 1.4
    expected_dw = 2.0 * (pred - 1.0) * 2.0  # d/dw of (w*inp - t)^2 with inp=2
    # param_list order: depth (w, b), inertial (w, b), head (w, b)
    head_gw = grads[4]
    assert head_gw[0, 0] == pytest.approx(expected_dw, rel=1e-12)


def test_adam_first_step_and_zero_grad():
    p = [np.array([1.0, -2.0])]
    m, v = [np.zeros(2)], [np.zeros(2)]
    adam_step(p, [np.array([5.0, -0.3])], m, v, 1, 1e-3)
    assert p[0][0] == pytest.approx(1.0 - 1e-3, rel=1e-6)
    assert p[0][1] == pytest.approx(-2.0 + 1e-3, rel=1e-6)
    before = p[0].copy()
    adam_step(p, [np.zeros(2)], m, v, 2, 1e-3)
    # m decays toward zero but v also decays; steps stay ~1e-3-scale bounded
    assert np.all(np.abs(p[0] - before) <= 1.1e-3)


def test_adam_reproducible(rng):
    def run():
        model = MlpModel(NORM, depth_sizes=[2, 2], inertial_sizes=[1, 2], head_sizes=[4, 2], seed=5)
        x = np.random.default_rng(0).normal(size=(8, 3))
        y = np.random.default_rng(1).normal(size=(8, 2))
        recs = [{"obs": a.tolist(), "target": b.tolist()} for a, b in zip(x, y)]
        m, curve = train(recs, model, LEARNING_RATE, 3, 5)
        return m.param_list(), curve

    p1, c1 = run()
    p2, c2 = run()
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
    assert c1 == c2


def test_train_overfit_small_dataset(rng):
    x = rng.normal(size=(64, 76))
    y = rng.normal(size=(64, 7)) * 0.5
    recs = [{"obs": a.tolist(), "target": b.tolist()} for a, b in zip(x, y)]
    model, curve = train(recs, MlpModel(NORM, **MODEL_SIZES, seed=0), LEARNING_RATE, 500, 0)
    assert curve[-1]["train_mse"] < 1e-3
    assert all(np.isfinite(c["train_mse"]) and np.isfinite(c["val_mse"]) for c in curve)


def test_train_constant_target(rng):
    # observation-shaped inputs (open-space depths, noisy inertial block)
    # with one constant target: the net must learn to ignore the noise
    n = 1200
    x = np.hstack([np.ones((n, 64)), rng.normal(scale=0.3, size=(n, 12))])
    y = np.tile(np.array([0.3, -0.2, 0.5, 0.1, 0.0, -0.4, 0.2]), (n, 1))
    recs = [{"obs": a.tolist(), "target": b.tolist()} for a, b in zip(x, y)]
    model, curve = train(recs, MlpModel(NORM, **MODEL_SIZES, seed=1), LEARNING_RATE, 100, 1)
    assert min(c["val_mse"] for c in curve) < 1e-4


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], MlpModel(NORM, **MODEL_SIZES), LEARNING_RATE, EPOCHS, 0)


@pytest.mark.parametrize("learning_rate, epochs", [(0.0, 1), (-1e-3, 1), (1e-3, 0)])
def test_train_rejects_bad_rate_or_epochs(learning_rate, epochs):
    recs = [{"obs": [0.0] * 76, "target": [0.0] * 7}] * 2
    with pytest.raises(ValueError, match="positive"):
        train(recs, MlpModel(NORM, **MODEL_SIZES), learning_rate, epochs, 0)


def test_train_rejects_records_the_model_does_not_fit():
    # a dataset collected with m_pieces 4 holds 10-wide targets; the default net emits 7
    recs = [{"obs": [0.0] * 76, "target": [0.0] * 10}] * 4
    with pytest.raises(ModelShapeMismatch, match="10 targets; the model maps 76 to 7"):
        train(recs, MlpModel(NORM, **MODEL_SIZES), LEARNING_RATE, 1, 0)


def test_model_json_roundtrip(tmp_path, rng):
    model = MlpModel(NORM, **MODEL_SIZES, seed=2)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = MlpModel.load(path)
    assert all(np.array_equal(a, b) for a, b in zip(model.param_list(), loaded.param_list()))
    assert loaded.norm == model.norm
    doc = json.loads(path.read_text())
    assert doc["format"] == "neotraj-model-1"
    x = rng.normal(size=76)
    assert np.array_equal(model.forward(x), loaded.forward(x))


@pytest.mark.parametrize("damage", ["missing_layer", "transposed_weight"])
def test_model_from_dict_rejects_bad_branch_shapes(damage):
    doc = MlpModel(NORM, **MODEL_SIZES, seed=0).to_dict()
    if damage == "missing_layer":
        doc["params"]["inertial"].pop()
    else:
        w, b = doc["params"]["depth"][0]
        doc["params"]["depth"][0] = [np.array(w).T.tolist(), b]
    with pytest.raises(ModelShapeMismatch):
        MlpModel.from_dict(doc)


@pytest.mark.parametrize("norm", [
    {},
    [5.0, 1.0, 5.0],
    {"d_look": 5.0, "v_max": 1.0},
    {"d_look": 5.0, "v_max": "1", "max_range": 5.0},
    {"d_look": 5.0, "v_max": 1.0, "max_range": 5.0, "scale": 2.0},
    {"d_look": 5.0, "v_max": float("nan"), "max_range": 5.0},
])
def test_model_from_dict_rejects_a_norm_that_is_not_numbers(norm):
    doc = {**MlpModel(NORM, **MODEL_SIZES, seed=0).to_dict(), "norm": norm}
    with pytest.raises(ValueError, match="norm"):
        MlpModel.from_dict(doc)


def test_committed_model_file_saves_back_byte_identical(tmp_path):
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "neo_model.json"
    out = tmp_path / "model.json"
    MlpModel.load(committed).save(out)
    assert out.read_bytes() == committed.read_bytes()


def test_backward_loss_is_the_forward_pass_mse(rng):
    model = MlpModel(NORM, **MODEL_SIZES, seed=4)
    x, y = rng.normal(size=(5, 76)), rng.normal(size=(5, 7))
    loss, _ = model.backward(x, y)
    assert loss == float(np.mean((model.forward(x) - y) ** 2))


def test_dataset_roundtrip(tmp_path, rng):
    recs = [
        {"obs": rng.normal(size=76).tolist(), "target": rng.normal(size=7).tolist(),
         "scene": "scene4-ep0", "t": float(k)}
        for k in range(5)
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(recs, path)
    assert load_dataset(path) == recs


def test_encode_decode_roundtrip(rng):
    # lossless inside the decode corridor (body x in [-0.3, 1.3], |y| <= 0.6)
    from neotraj.neural import rotation

    norm = NORM
    for _ in range(10):
        pos = rng.normal(size=2)
        heading = rng.uniform(-np.pi, np.pi)
        qb = np.vstack([rng.uniform(-0.2, 1.2, 2), rng.uniform(-0.5, 0.5, 2)]) * norm.d_look
        q = rotation(heading) @ qb + pos[:, None]
        tb = rng.uniform(0.7, 4.5, size=3)
        vec = encode_target(q, tb, pos, heading, TF, norm)
        back = decode_output(vec, pos, heading, TF, norm)
        assert np.allclose(back.waypoints, q, atol=1e-9)
        assert np.allclose(back.durations, tb, atol=1e-9)


def test_observation_layout():
    norm = NORM
    scan = np.full(64, 2.5)
    init = BoundaryState([1.0, 0.0], [0.5, 0.0])
    target = BoundaryState([7.0, 0.0], [1.0, 0.0])
    obs = encode_observation(scan, np.array([0.0, 0.0]), np.zeros(2), 0.0, init, target, norm)
    assert obs.shape == (76,)
    assert np.all(obs[:64] == 0.5)  # depths normalized by max range
    assert obs[66] == 1.0 and obs[67] == 0.0  # heading (cos, sin)
    assert np.all(np.isfinite(obs))
    assert obs[68] == pytest.approx(1.0 / 6.0)  # body init position / d_look


def test_decode_output_shape_check():
    with pytest.raises(ModelShapeMismatch):
        decode_output(np.zeros(6), np.zeros(2), 0.0, TF, NORM)
