import math

import numpy as np
import pytest

from fedsel.errors import ConfigurationError, DataError, ShapeError
from fedsel.nn import (
    Activation,
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    check_split,
    forward,
    init_parameters,
    manifest_size,
    train_epoch,
    weights_text,
)
from oracle import (
    OptimizerState,
    cross_entropy_loss,
    init_optimizer,
    loss_and_gradient,
    reference_epoch,
    sgd_momentum_step,
    unflatten,
)


def test_manifest_size():
    assert manifest_size(((2, 2),)) == 6
    assert manifest_size(((4, 8), (8, 5))) == 85


def test_model_spec_validation():
    with pytest.raises(ConfigurationError):
        ModelSpec(layer_sizes=(4,))
    with pytest.raises(ConfigurationError):
        ModelSpec(layer_sizes=(4, 0, 5))
    with pytest.raises(ConfigurationError):
        ModelSpec(layer_sizes=(4, 8, 5), seed=-1)
    spec = ModelSpec(layer_sizes=(4, 8, 5), activation="tanh")
    assert spec.activation is Activation.TANH
    assert spec.feature_dim == 4
    assert spec.class_count == 5
    assert spec.manifest == ((4, 8), (8, 5))


def test_parameter_vector_is_immutable():
    pv = ParameterVector(np.arange(6, dtype=float), ((2, 2),))
    with pytest.raises(ValueError):
        pv.values[0] = 99.0


def test_parameter_vector_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        ParameterVector(np.zeros(5), ((2, 2),))


def test_init_parameters_layout():
    """Weights sit inside the fan-in bound, biases are exactly zero."""
    spec = ModelSpec(layer_sizes=(16, 32, 5), seed=11)
    params = init_parameters(spec)
    assert len(params) == manifest_size(spec.manifest)
    for (rows, _), (w, b) in zip(spec.manifest, unflatten(params.values, params.manifest)):
        bound = math.sqrt(1.0 / rows)
        assert np.abs(w).max() <= bound
        assert (b == 0.0).all()
    again = init_parameters(spec)
    assert (params.values == again.values).all()
    other = init_parameters(ModelSpec(layer_sizes=(16, 32, 5), seed=12))
    assert not (params.values == other.values).all()


def test_forward_rows_are_probabilities():
    spec = ModelSpec(layer_sizes=(3, 7, 4), seed=2)
    params = init_parameters(spec)
    rng = np.random.default_rng(0)
    probs = forward(params.values[None], spec, rng.standard_normal((1, 9, 3)))[0]
    assert probs.shape == (9, 4)
    assert (probs > 0).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_survives_huge_logits():
    spec = ModelSpec(layer_sizes=(3, 7, 4), seed=2)
    params = init_parameters(spec)
    big = ParameterVector(params.values * 1e4, params.manifest)
    probs = forward(big.values[None], spec, np.random.default_rng(1).standard_normal((1, 5, 3)) * 100)
    assert np.isfinite(probs).all()


def test_zero_params_give_uniform_loss():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    zeros = ParameterVector(np.zeros(manifest_size(spec.manifest)), spec.manifest)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 5, 7)
    assert abs(cross_entropy_loss(zeros, spec, x, y) - math.log(5)) < 1e-14


def test_forward_shape_errors():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    params = init_parameters(spec)
    with pytest.raises(ShapeError):
        forward(params.values[None], spec, np.zeros((1, 3, 6)))
    with pytest.raises(ShapeError):
        forward(params.values[None], spec, np.zeros((2, 3, 4)))
    with pytest.raises(DataError):
        check_split(spec, np.zeros((3, 4)), np.array([0, 1, 9]))
    with pytest.raises(DataError):
        check_split(spec, np.zeros((3, 4)), np.array([0.5, 1.0, 2.0]))


def _fd_gradient(params, spec, x, y, h=1e-5):
    base = params.values
    out = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        out[i] = (
            cross_entropy_loss(ParameterVector(up, params.manifest), spec, x, y)
            - cross_entropy_loss(ParameterVector(dn, params.manifest), spec, x, y)
        ) / (2 * h)
    return out


def test_gradient_matches_finite_differences():
    """Central differences on small models for both activations. The error
    is measured relative to max(|analytic|, |numeric|) with a 1e-4 floor so
    near-zero coordinates are compared absolutely."""
    master = np.random.default_rng(20240817)
    for k in range(6):
        dim = int(master.integers(2, 7))
        hidden = int(master.integers(2, 9))
        classes = int(master.integers(2, 6))
        act = Activation.RELU if k % 2 == 0 else Activation.TANH
        spec = ModelSpec(
            layer_sizes=(dim, hidden, classes), activation=act, seed=int(master.integers(0, 2**32))
        )
        params = init_parameters(spec)
        params = ParameterVector(
            params.values + master.standard_normal(len(params)) * 0.3, params.manifest
        )
        x = master.standard_normal((12, dim))
        y = master.integers(0, classes, 12)
        _, grad = loss_and_gradient(params, spec, x, y)
        fd = _fd_gradient(params, spec, x, y)
        denom = np.maximum(1e-4, np.maximum(np.abs(grad.values), np.abs(fd)))
        assert (np.abs(grad.values - fd) / denom).max() < 1e-5


def test_gradient_of_loss_decreases_loss():
    spec = ModelSpec(layer_sizes=(5, 6, 3), seed=4)
    params = init_parameters(spec)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 5))
    y = rng.integers(0, 3, 30)
    loss, grad = loss_and_gradient(params, spec, x, y)
    stepped = ParameterVector(params.values - 0.1 * grad.values, params.manifest)
    assert cross_entropy_loss(stepped, spec, x, y) < loss


def test_sgd_momentum_hand_trace():
    params = ParameterVector(np.array([1.0, 2.0]), ((1, 1),))
    grad = ParameterVector(np.array([1.0, 0.5]), ((1, 1),))
    state = OptimizerState(
        velocity=ParameterVector(np.array([1.0, 0.0]), ((1, 1),)),
        learning_rate=0.0001,
        momentum=0.9,
        batch_size=16,
    )
    new_params, new_state = sgd_momentum_step(params, grad, state)
    assert (new_state.velocity.values == np.array([1.9, 0.5])).all()
    expected = np.array([1.0 - 0.0001 * 1.9, 2.0 - 0.0001 * 0.5])
    assert (new_params.values == expected).all()


def test_sgd_rejects_mismatched_manifest():
    params = ParameterVector(np.zeros(6), ((2, 2),))
    grad = ParameterVector(np.zeros(2), ((1, 1),))
    state = init_optimizer(params, OptimizerConfig())
    with pytest.raises(ShapeError):
        sgd_momentum_step(params, grad, state)


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(learning_rate=-1.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(batch_size=0)


def _epoch(params, spec, cfg, velocity, x, y, rng):
    """One epoch of ``train_epoch`` at R = 1 on copies; returns the new
    weights and velocity as flat arrays."""
    weights, velocity = params.values[None].copy(), velocity[None].copy()
    finite = train_epoch(weights, velocity, spec, cfg, x[None], y[None], [rng])
    assert finite.tolist() == [bool(np.isfinite(weights).all())]
    return weights[0], velocity[0]


def test_train_epoch_matches_manual_loop():
    """One epoch is exactly: shuffle once, then a momentum step per batch,
    with the final short batch included. Verified bitwise against a
    hand-rolled loop consuming an identically seeded generator."""
    spec = ModelSpec(layer_sizes=(6, 9, 4), seed=10)
    start = init_parameters(spec)
    cfg = OptimizerConfig()  # batch_size 16
    data_rng = np.random.default_rng(77)
    x = data_rng.standard_normal((40, 6))
    y = data_rng.integers(0, 4, 40)

    got_w, got_v = _epoch(start, spec, cfg, np.zeros(len(start)), x, y, np.random.default_rng(5))

    p, s, batches = reference_epoch(
        start, spec, init_optimizer(start, cfg), x, y, np.random.default_rng(5)
    )
    assert batches == 3
    assert (got_w == p.values).all()
    assert (got_v == s.velocity.values).all()


@pytest.mark.parametrize(
    "layer_sizes, activation, n, batch_size",
    [
        ((6, 9, 4), "relu", 40, 16),  # partial last batch
        ((6, 9, 4), "tanh", 40, 16),
        ((5, 8, 7, 3), "relu", 37, 8),  # two hidden layers
        ((5, 8, 7, 3), "tanh", 37, 8),
        ((4, 6, 3), "relu", 9, 1),  # batch_size 1
        ((4, 6, 5, 3), "tanh", 11, 32),  # batch_size larger than n
    ],
)
def test_train_epoch_is_bitwise_the_per_batch_reference(layer_sizes, activation, n, batch_size):
    """Several epochs in a row, from a nonzero velocity and at a learning
    rate that moves the weights: weights and velocity equal the reference
    bit for bit, they are updated in place, and the data is left as it was."""
    spec = ModelSpec(layer_sizes=layer_sizes, activation=activation, seed=4)
    data_rng = np.random.default_rng(n)
    x = data_rng.standard_normal((1, n, layer_sizes[0]))
    y = data_rng.integers(0, layer_sizes[-1], (1, n))
    x_before, y_before = x.copy(), y.copy()
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9, batch_size=batch_size)
    params = init_parameters(spec)
    weights, velocity = params.values[None].copy(), np.zeros((1, len(params)))
    ref_p, ref_s = params, init_optimizer(params, cfg)
    for epoch in range(3):
        held = weights
        assert train_epoch(weights, velocity, spec, cfg, x, y, [np.random.default_rng(epoch)])
        ref_p, ref_s, _ = reference_epoch(ref_p, spec, ref_s, x[0], y[0], np.random.default_rng(epoch))
        assert (weights[0] == ref_p.values).all()
        assert (velocity[0] == ref_s.velocity.values).all()
        assert held is weights
        assert (x == x_before).all() and (y == y_before).all()
    assert not (weights[0] == params.values).all()


def test_train_epoch_rejects_mismatched_manifests():
    spec = ModelSpec(layer_sizes=(6, 9, 4), seed=10)
    params = init_parameters(spec)
    other = init_parameters(ModelSpec(layer_sizes=(6, 8, 4), seed=10))
    x, y = np.zeros((1, 4, 6)), np.zeros((1, 4), dtype=int)
    cfg, rngs = OptimizerConfig(), [np.random.default_rng(0)]
    weights, velocity = params.values[None].copy(), np.zeros((1, len(params)))
    with pytest.raises(ShapeError):
        train_epoch(other.values[None].copy(), velocity, spec, cfg, x, y, rngs)
    with pytest.raises(ShapeError):
        train_epoch(weights, np.zeros((1, len(other))), spec, cfg, x, y, rngs)
    with pytest.raises(ShapeError):  # a read-only stack cannot be trained in place
        train_epoch(params.values[None], velocity, spec, cfg, x, y, rngs)
    with pytest.raises(ShapeError):
        train_epoch(weights, velocity, spec, cfg, np.zeros((2, 4, 6)), np.zeros((2, 4), dtype=int), rngs)
    with pytest.raises(ShapeError):
        train_epoch(weights, velocity, spec, cfg, x, y, rngs * 2)


def test_train_epoch_rejects_empty_data():
    spec = ModelSpec(layer_sizes=(6, 9, 4), seed=10)
    params = init_parameters(spec)
    with pytest.raises(DataError):
        train_epoch(params.values[None].copy(), np.zeros((1, len(params))), spec, OptimizerConfig(),
                    np.zeros((1, 0, 6)), np.zeros((1, 0), dtype=int), [np.random.default_rng(0)])


def test_weights_file_round_trip():
    """The weights text is the manifest line, then every value at 17
    significant digits, which parses back bit for bit."""
    spec = ModelSpec(layer_sizes=(16, 32, 5), seed=8)
    params = init_parameters(spec)
    manifest, *values, end = weights_text(params).split("\n")
    assert manifest == "manifest 16x32 32x5"
    assert end == ""
    assert np.array([float(v) for v in values]).tobytes() == params.values.tobytes()
