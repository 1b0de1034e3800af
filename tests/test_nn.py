import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsel import nn
from fedsel.errors import ConfigurationError, DataError, ShapeError
from fedsel.nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    check_split,
    init_parameters,
    manifest_size,
    weights_text,
)
from oracle import (
    OptimizerState,
    _log_softmax,
    cross_entropy_loss,
    fd_gradient,
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
    spec = ModelSpec(layer_sizes=(4, 8, 5))
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


def _log_probs(params, spec, x):
    """``nn._forward_pass``'s (n, classes) log-probabilities of one model
    on an (n, d) batch, as a stack of one row, the way ``score`` calls it."""
    buffers = nn._Buffers((1, len(x)), spec.layer_sizes[1:])
    layers = nn._stack_layers(params.values[None], spec.manifest)
    return nn._forward_pass(layers, x[None], buffers)[0]


def test_forward_rows_are_probabilities():
    spec = ModelSpec(layer_sizes=(3, 7, 4), seed=2)
    params = init_parameters(spec)
    rng = np.random.default_rng(0)
    probs = np.exp(_log_probs(params, spec, rng.standard_normal((9, 3))))
    assert probs.shape == (9, 4)
    assert (probs > 0).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_survives_huge_logits():
    spec = ModelSpec(layer_sizes=(3, 7, 4), seed=2)
    params = init_parameters(spec)
    big = ParameterVector(params.values * 1e4, params.manifest)
    x = np.random.default_rng(1).standard_normal((5, 3)) * 100
    log_probs = _log_probs(big, spec, x)
    assert np.isfinite(log_probs).all()
    assert (log_probs <= 0.0).all()


# logits where the max-finding differs, if anywhere: ties, zeros of either
# sign, infinities, NaN, values whose exp overflows or underflows, and
# subnormals
SPECIAL_LOGITS = (0.0, -0.0, 1.0, -1.0, 700.0, -745.0, 5e-324, -5e-324, 2e-308,
                  math.inf, -math.inf, math.nan)


@st.composite
def logit_arrays(draw):
    """A 2-D (n, C) or 3-D (R, n, C) float64 array, C from 1 to 12, whose
    rows each draw from one kind: small integers (ties), a zero max of
    mixed sign, special values, any finite float, or one constant."""
    classes = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(1,), (3,), (7,), (1, 1), (2, 3), (4, 2)]))
    kinds = [
        st.integers(-2, 2).map(float),
        st.sampled_from([0.0, -0.0, -1.0, -745.0, -math.inf]),
        st.sampled_from(SPECIAL_LOGITS),
        st.floats(-1e3, 1e3),
    ]
    row = st.one_of(*[st.lists(kind, min_size=classes, max_size=classes) for kind in kinds],
                    st.sampled_from(SPECIAL_LOGITS).map(lambda v: [v] * classes))
    rows = draw(st.lists(row, min_size=math.prod(lead), max_size=math.prod(lead)))
    return np.array(rows, dtype=np.float64).reshape(*lead, classes)


def _same_bits(a, b):
    """Equal shapes, NaN at the same places, and every other value with
    the same bits, the sign of a zero included."""
    nan = np.isnan(a)
    return (a.shape == b.shape and (nan == np.isnan(b)).all()
            and (a[~nan].view(np.uint64) == b[~nan].view(np.uint64)).all())


@settings(max_examples=300, deadline=None)
@given(logit_arrays())
@example(np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -0.0], [-0.0, -math.inf, -0.0]]))
@example(np.array([[math.nan, 1.0], [1.0, math.nan], [math.inf, math.inf], [-math.inf, -math.inf]]))
@example(np.array([[[700.0, 700.0, -745.0]], [[5e-324, -5e-324, 0.0]]]))
def test_log_softmax_is_bitwise_the_reduce_oracle(logits):
    """The package's log-softmax, which reads each row's max at its
    argmax, gives the bits of the oracle's, which reduces each row with
    ``max``, with NaN at the same places."""
    classes = logits.shape[-1]
    with np.errstate(all="ignore"):
        got = nn._log_softmax(logits.copy(), nn._Buffers(logits.shape[:-1], (classes,)))
        want = _log_softmax(logits.reshape(-1, classes)).reshape(logits.shape)
    assert _same_bits(got, want)


def test_zero_params_give_uniform_loss():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    zeros = ParameterVector(np.zeros(manifest_size(spec.manifest)), spec.manifest)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 5, 7)
    assert abs(cross_entropy_loss(zeros, spec, x, y) - math.log(5)) < 1e-14


def test_check_split_rejects_bad_labels():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    with pytest.raises(DataError):
        check_split(spec, np.zeros((3, 4)), np.array([0, 1, 9]))
    with pytest.raises(DataError):
        check_split(spec, np.zeros((3, 4)), np.array([0.5, 1.0, 2.0]))


def test_gradient_matches_finite_differences():
    """Central differences on small models. The error
    is measured relative to max(|analytic|, |numeric|) with a 1e-4 floor so
    near-zero coordinates are compared absolutely."""
    master = np.random.default_rng(20240817)
    for _ in range(6):
        dim = int(master.integers(2, 7))
        hidden = int(master.integers(2, 9))
        classes = int(master.integers(2, 6))
        spec = ModelSpec(layer_sizes=(dim, hidden, classes), seed=int(master.integers(0, 2**32)))
        params = init_parameters(spec)
        params = ParameterVector(
            params.values + master.standard_normal(len(params)) * 0.3, params.manifest
        )
        x = master.standard_normal((12, dim))
        y = master.integers(0, classes, 12)
        _, grad = loss_and_gradient(params, spec, x, y)
        fd = fd_gradient(params, spec, x, y)
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
    """One epoch of the epoch kernel at R = 1 on copies; returns the new
    weights and velocity as flat arrays."""
    weights, velocity = params.values[None].copy(), velocity[None].copy()
    assert nn._EpochKernel(weights, velocity, spec, cfg, x[None], y[None])([rng]) is None
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
    "layer_sizes, n, batch_size",
    [
        ((6, 9, 4), 40, 16),  # partial last batch
        ((5, 8, 7, 3), 37, 8),  # two hidden layers
        ((4, 6, 3), 9, 1),  # batch_size 1
        ((4, 6, 5, 3), 11, 32),  # batch_size larger than n
        ((6, 4), 23, 8),  # no hidden layer: no delta to propagate
    ],
)
def test_train_epoch_is_bitwise_the_per_batch_reference(layer_sizes, n, batch_size):
    """Several epochs in a row, from a nonzero velocity and at a learning
    rate that moves the weights: weights and velocity equal the reference
    bit for bit, they are updated in place, and the data is left as it was.
    One kernel trains every epoch, and a fresh kernel each epoch trains a
    second copy; both hold under gather caps that split the epoch into
    windows of one batch or a few, with a partial last window."""
    spec = ModelSpec(layer_sizes=layer_sizes, seed=4)
    data_rng = np.random.default_rng(n)
    x = data_rng.standard_normal((1, n, layer_sizes[0]))
    y = data_rng.integers(0, layer_sizes[-1], (1, n))
    x_before, y_before = x.copy(), y.copy()
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9, batch_size=batch_size)
    params = init_parameters(spec)
    for cap in (nn.GATHER_VALUES, 1, 30, 200):
        with mock.patch.object(nn, "GATHER_VALUES", cap):
            weights, velocity = params.values[None].copy(), np.zeros((1, len(params)))
            fresh_w, fresh_v = weights.copy(), velocity.copy()
            kernel = nn._EpochKernel(weights, velocity, spec, cfg, x, y)
            ref_p, ref_s = params, init_optimizer(params, cfg)
            for epoch in range(3):
                kernel([np.random.default_rng(epoch)])
                nn._EpochKernel(fresh_w, fresh_v, spec, cfg, x, y)([np.random.default_rng(epoch)])
                assert np.isfinite(weights).all(axis=1).all()
                ref_p, ref_s, _ = reference_epoch(ref_p, spec, ref_s, x[0], y[0],
                                                  np.random.default_rng(epoch))
                for w, v in ((weights, velocity), (fresh_w, fresh_v)):
                    assert (w[0] == ref_p.values).all()
                    assert (v[0] == ref_s.velocity.values).all()
                assert kernel.weights is weights and kernel.velocity is velocity
                assert (x == x_before).all() and (y == y_before).all()
        assert not (weights[0] == params.values).all()


def test_weights_file_round_trip():
    """The weights text is the manifest line, then every value at 17
    significant digits, which parses back bit for bit."""
    spec = ModelSpec(layer_sizes=(16, 32, 5), seed=8)
    params = init_parameters(spec)
    manifest, *values, end = weights_text(params).split("\n")
    assert manifest == "manifest 16x32 32x5"
    assert end == ""
    assert np.array([float(v) for v in values]).tobytes() == params.values.tobytes()
