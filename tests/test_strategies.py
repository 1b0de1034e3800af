from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel import nn, strategies
from fedsel.data import ClientDataset, CorpusSpec, PartitionSpec, Split, make_dataset
from fedsel.errors import ConfigurationError, DataError, ShapeError
from fedsel.nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    init_parameters,
    manifest_size,
    train_epoch,
)
from fedsel.strategies import (
    SelectionMetric,
    StrategyKind,
    confusion_matrix,
    evaluate,
    metrics_from_confusion,
    run_local,
    score,
    select_epoch,
    train_local,
)
from oracle import cross_entropy_loss, forward, loss_and_gradient, score_rows


def brute_force_metrics(y_true, y_pred, class_count):
    """Independent per-class loop, no shared code with the implementation."""
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    precisions, recalls, f1s = [], [], []
    for c in range(class_count):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return (
        correct / len(y_true),
        sum(precisions) / class_count,
        sum(recalls) / class_count,
        sum(f1s) / class_count,
    )


def test_confusion_matrix_layout():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    cm = confusion_matrix(y_true, y_pred, 2)
    assert (cm == np.array([[1, 1], [0, 2]])).all()


def test_two_class_hand_oracle():
    report = metrics_from_confusion(np.array([[3, 1], [1, 3]]))
    assert report.accuracy == 0.75
    assert report.macro_precision == 0.75
    assert report.macro_recall == 0.75
    assert report.macro_f1 == 0.75


def test_absent_class_counts_in_divisor():
    # 3 classes but class 2 never appears in labels or predictions
    cm = np.array([[4, 0, 0], [0, 4, 0], [0, 0, 0]])
    report = metrics_from_confusion(cm)
    assert report.accuracy == 1.0
    assert report.macro_precision == pytest.approx(2 / 3)
    assert report.macro_recall == pytest.approx(2 / 3)
    assert report.macro_f1 == pytest.approx(2 / 3)


def test_metrics_match_brute_force_on_random_sets():
    rng = np.random.default_rng(314)
    for _ in range(100):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, c, n)
        y_pred = rng.integers(0, c, n)
        report = metrics_from_confusion(confusion_matrix(y_true, y_pred, c))
        acc, prec, rec, f1 = brute_force_metrics(y_true.tolist(), y_pred.tolist(), c)
        assert abs(report.accuracy - acc) < 1e-12
        assert abs(report.macro_precision - prec) < 1e-12
        assert abs(report.macro_recall - rec) < 1e-12
        assert abs(report.macro_f1 - f1) < 1e-12


def test_confusion_rejects_degenerate_input():
    with pytest.raises(DataError):
        confusion_matrix(np.array([]), np.array([]), 3)
    with pytest.raises(DataError):
        confusion_matrix(np.array([0, 5]), np.array([0, 1]), 3)


def test_uniform_predictor_confidence():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    zeros = ParameterVector(np.zeros(manifest_size(spec.manifest)), spec.manifest)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    y = np.zeros(50, dtype=int)  # argmax of a uniform row is class 0
    (hit, miss) = score(np.stack([zeros.values] * 2), spec, [x, x], [y, np.full(50, 3)])
    assert hit.confidence == pytest.approx(0.2)
    assert miss.confidence == 0.0


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_score_is_one_pass_of_the_separate_scorers(activation):
    """Metrics, loss and confidence from one pass equal, bit for bit, what a
    probability pass plus a separate loss pass compute."""
    rng = np.random.default_rng(12)
    spec = ModelSpec(layer_sizes=(6, 10, 7, 4), activation=activation, seed=5)
    for _ in range(5):
        start = init_parameters(spec)
        params = ParameterVector(start.values + rng.standard_normal(len(start)), start.manifest)
        x = rng.standard_normal((33, 6)) * 3.0
        y = rng.integers(0, 4, 33)
        (got,) = score(params.values[None], spec, [x], [y])

        probs = forward(params, spec, x)
        preds = np.argmax(probs, axis=1)
        want = metrics_from_confusion(confusion_matrix(y, preds, 4))
        correct = preds == y
        assert got.report == want
        assert got.loss == cross_entropy_loss(params, spec, x, y)
        assert got.loss == loss_and_gradient(params, spec, x, y)[0]
        assert got.confidence == float(probs[correct, preds[correct]].mean())
        assert evaluate(params, spec, x, y).macro_f1 == got.report.macro_f1


def test_score_rejects_row_count_mismatch():
    """Every weight row needs its own features and labels: a short list of
    either fails naming the counts instead of scoring fewer rows."""
    spec = ModelSpec(layer_sizes=(4, 6, 3), seed=1)
    weights = np.tile(init_parameters(spec).values, (3, 1))
    x, y = np.zeros((3, 5, 4)), np.zeros((3, 5), dtype=int)
    assert len(score(weights, spec, x, y)) == 3
    with pytest.raises(ShapeError, match="3 weight rows, 3 feature and 2 label rows"):
        score(weights, spec, x, y[:2])
    with pytest.raises(ShapeError, match="3 weight rows, 2 feature and 3 label rows"):
        score(weights, spec, x[:2], y)


def test_score_checks_labels_by_the_split_rule():
    """Labels held as integral floats score as their integers, as
    ``check_split`` accepts them; a label out of range, negative or not
    integral is a DataError."""
    spec = ModelSpec(layer_sizes=(4, 6, 3), seed=1)
    rng = np.random.default_rng(4)
    weights = init_parameters(spec).values + rng.standard_normal((2, manifest_size(spec.manifest)))
    x, y = rng.standard_normal((2, 9, 4)), rng.integers(0, 3, (2, 9))
    assert repr(score(weights, spec, x, y.astype(np.float64))) == repr(score(weights, spec, x, y))
    assert repr(score(weights, spec, list(x), list(y * 1.0))) == repr(score(weights, spec, x, y))
    for bad, match in ((y + 3, "must lie in"), (y - 3, "must lie in"), (y + 0.5, "integers"),
                       (y.astype(str), "integers"), (y.astype(object), "integers")):
        with pytest.raises(DataError, match=match):
            score(weights, spec, x, bad)


def test_score_of_no_rows_is_empty():
    spec = ModelSpec(layer_sizes=(4, 6, 3), seed=1)
    assert score(np.empty((0, manifest_size(spec.manifest))), spec, [], []) == []
    assert score(np.empty((0, manifest_size(spec.manifest))), spec,
                 np.empty((0, 5, 4)), np.empty((0, 5), dtype=int)) == []


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_score_equals_the_per_row_oracle(data):
    """The batched scorer equals ``oracle.score_rows``, one row at a time on
    the 2-D forward pass, in every field of every row. Weights may be all
    zero, so every probability ties and only class 0 is predicted; the
    rows may share one split, as a campaign's test sets are scored; the
    stack is scored a few rows per pass under a drawn ``SCORE_VALUES``."""
    rows = data.draw(st.integers(1, 8), label="R")
    n = data.draw(st.one_of(st.just(1), st.integers(1, 300)), label="n")
    hidden = data.draw(st.lists(st.integers(1, 9), max_size=2), label="hidden")
    activation = data.draw(st.sampled_from(["relu", "tanh"]), label="activation")
    dim, classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = ModelSpec(layer_sizes=(dim, *hidden, classes), activation=activation)

    scale = data.draw(st.sampled_from([0.0, 0.5, 3.0]), label="weight scale")
    weights = rng.standard_normal((rows, manifest_size(spec.manifest))) * scale
    weights[rng.random(rows) < 0.25] = 0.0
    x, y = rng.standard_normal((rows, n, dim)) * 2.0, rng.integers(0, classes, (rows, n))
    if data.draw(st.booleans(), label="one shared split"):
        x, y = np.broadcast_to(x[0], x.shape), np.broadcast_to(y[0], y.shape)
    if data.draw(st.booleans(), label="float labels"):
        y = y.astype(np.float64)
    cap = data.draw(st.sampled_from([None, 1, 30, 200]), label="SCORE_VALUES")
    with mock.patch.object(strategies, "SCORE_VALUES", cap or strategies.SCORE_VALUES):
        got = score(weights, spec, x, y)
    assert [repr(s) for s in got] == [repr(s) for s in score_rows(weights, spec, x, y)]


def _scores_key(scores):
    """Every field of a Scores; repr of a float is exact."""
    return repr(scores)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_stacking_equals_separate_runs(data):
    """R models trained and scored as one stack equal R separate R = 1
    calls bit for bit: weights and velocity after two epochs, and every
    field of every row's scores. Rows differ in their incoming weights,
    velocity, data and rng; shapes cover partial and single-sample batches,
    batches larger than the data, zero to two hidden layers, relu and tanh.
    The stack runs under a drawn buffer cap, so its data is gathered a few
    batches at a time and it is scored a few rows per pass."""
    rows = data.draw(st.integers(1, 6), label="R")
    n = data.draw(st.integers(1, 40), label="n")
    batch_size = data.draw(st.integers(1, n + 3), label="batch_size")
    hidden = data.draw(st.lists(st.integers(1, 9), min_size=0, max_size=2), label="hidden")
    activation = data.draw(st.sampled_from(["relu", "tanh"]), label="activation")
    dim, classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    spec = ModelSpec(layer_sizes=(dim, *hidden, classes), activation=activation)
    size = manifest_size(spec.manifest)
    weights = init_parameters(spec).values + rng.standard_normal((rows, size))
    velocity = rng.standard_normal((rows, size)) * 0.1
    x, y = rng.standard_normal((rows, n, dim)) * 2.0, rng.integers(0, classes, (rows, n))
    opt = OptimizerConfig(learning_rate=0.05, momentum=0.9, batch_size=batch_size)
    seeds = rng.integers(0, 2**32, rows).tolist()
    cap = data.draw(st.sampled_from([None, 1, 30, 200]), label="buffer cap")
    gather_cap = mock.patch.object(nn, "GATHER_VALUES", cap or nn.GATHER_VALUES)
    score_cap = mock.patch.object(strategies, "SCORE_VALUES", cap or strategies.SCORE_VALUES)

    def streams(r, epoch):
        return [np.random.default_rng([s, epoch]) for s in seeds[r]]

    stacked_w, stacked_v = weights.copy(), velocity.copy()
    with gather_cap:
        for epoch in range(2):
            train_epoch(stacked_w, stacked_v, spec, opt, x, y, streams(slice(None), epoch))
    for r in range(rows):
        one = slice(r, r + 1)
        w, v = weights[one].copy(), velocity[one].copy()
        for epoch in range(2):
            train_epoch(w, v, spec, opt, x[one], y[one], streams(one, epoch))
        assert w.tobytes() == stacked_w[one].tobytes()
        assert v.tobytes() == stacked_v[one].tobytes()

    m = data.draw(st.integers(1, 20), label="val size")
    val_x, val_y = rng.standard_normal((rows, m, dim)) * 2.0, rng.integers(0, classes, (rows, m))
    with score_cap:
        stacked = score(stacked_w, spec, val_x, val_y)
    assert len(stacked) == rows
    for r in range(rows):
        one = slice(r, r + 1)
        (alone,) = score(stacked_w[one], spec, val_x[one], val_y[one])
        assert _scores_key(stacked[r]) == _scores_key(alone)


def test_select_epoch_rules():
    assert select_epoch([0.5, 0.9, 0.7], StrategyKind.FEWS) == 3
    assert select_epoch([0.60, 0.90, 0.80], StrategyKind.OEWS) == 2
    assert select_epoch([0.9, 0.5, 0.9], StrategyKind.OEWS) == 3  # tie -> latest
    assert select_epoch([0.4], StrategyKind.OEWS) == 1
    # lower-is-better (validation loss)
    assert select_epoch([0.5, 0.2, 0.2], StrategyKind.OEWS, higher_is_better=False) == 3
    with pytest.raises(ConfigurationError):
        select_epoch([], StrategyKind.OEWS)


def test_select_epoch_invariant_under_increasing_transform():
    rng = np.random.default_rng(8)
    for _ in range(200):
        trace = rng.random(int(rng.integers(1, 12))).tolist()
        base = select_epoch(trace, StrategyKind.OEWS)
        transformed = [3.0 * v + 1.0 for v in trace]
        assert select_epoch(transformed, StrategyKind.OEWS) == base
        assert select_epoch(np.exp(trace).tolist(), StrategyKind.OEWS) == base


def _client(seed=0, train_n=15, noise=2.5):
    cspec = CorpusSpec(per_class_train=train_n, per_class_val=20, per_class_test=5,
                       noise_scale=noise, seed=seed)
    clients, _ = make_dataset(cspec, PartitionSpec.default())
    return clients[0]


MODEL = ModelSpec(layer_sizes=(16, 32, 5), seed=3)


def test_run_local_shapes_and_ranges():
    client = _client()
    incoming = init_parameters(MODEL)
    result = run_local(incoming, MODEL, client, OptimizerConfig(), 4,
                       StrategyKind.OEWS, np.random.default_rng(1))
    assert len(result.trace) == 4
    assert all(0.0 <= v <= 1.0 for v in result.trace)
    assert 1 <= result.selected_epoch <= 4


def test_run_local_never_mutates_incoming():
    client = _client()
    incoming = init_parameters(MODEL)
    before = incoming.values.copy()
    run_local(incoming, MODEL, client, OptimizerConfig(learning_rate=0.05), 3,
              StrategyKind.FEWS, np.random.default_rng(2))
    assert (incoming.values == before).all()


def test_fews_and_oews_share_the_trajectory():
    """Same incoming weights and rng stream: both strategies see the same
    per-epoch trace; only the returned weights differ."""
    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    fews = run_local(incoming, MODEL, client, opt, 10, StrategyKind.FEWS,
                     np.random.default_rng(7))
    oews = run_local(incoming, MODEL, client, opt, 10, StrategyKind.OEWS,
                     np.random.default_rng(7))
    assert fews.trace == oews.trace
    assert fews.selected_epoch == 10
    assert oews.selected_epoch == select_epoch(oews.trace, StrategyKind.OEWS)
    best = oews.trace[oews.selected_epoch - 1]
    assert all(best >= v for v in oews.trace)


def test_single_epoch_makes_strategies_identical():
    client = _client(seed=6)
    incoming = init_parameters(MODEL)
    fews = run_local(incoming, MODEL, client, OptimizerConfig(), 1, StrategyKind.FEWS,
                     np.random.default_rng(3))
    oews = run_local(incoming, MODEL, client, OptimizerConfig(), 1, StrategyKind.OEWS,
                     np.random.default_rng(3))
    assert (fews.selected_params.values == oews.selected_params.values).all()
    assert fews.selected_epoch == oews.selected_epoch == 1


def test_final_epoch_pick_equals_fews_bitwise():
    """Whenever OEWS lands on the last epoch (monotone or tie-late trace),
    the uploaded weights are identical to FEWS's."""
    client = _client(seed=9)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    for rng_seed in range(12):
        fews = run_local(incoming, MODEL, client, opt, 6, StrategyKind.FEWS,
                         np.random.default_rng(rng_seed))
        oews = run_local(incoming, MODEL, client, opt, 6, StrategyKind.OEWS,
                         np.random.default_rng(rng_seed))
        if oews.selected_epoch == 6:
            assert (oews.selected_params.values == fews.selected_params.values).all()
        else:
            assert not (oews.selected_params.values == fews.selected_params.values).all()


def test_val_loss_selection_prefers_low_loss():
    client = _client(seed=11)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    result = run_local(incoming, MODEL, client, opt, 8, StrategyKind.OEWS,
                       np.random.default_rng(4), metric=SelectionMetric.VAL_LOSS)
    best = result.trace[result.selected_epoch - 1]
    assert all(best <= v for v in result.trace)
    assert result.selected_epoch == select_epoch(result.trace, StrategyKind.OEWS,
                                                 higher_is_better=False)


@pytest.mark.parametrize("metric", list(SelectionMetric))
def test_shipped_weights_are_the_reported_epochs(metric):
    """OEWS ships exactly the weights a run stopped at its reported epoch
    would end with."""
    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    oews = run_local(incoming, MODEL, client, opt, 8, StrategyKind.OEWS,
                     np.random.default_rng(7), metric)
    assert oews.selected_epoch == select_epoch(
        oews.trace, StrategyKind.OEWS, higher_is_better=metric.higher_is_better
    )
    upto = run_local(incoming, MODEL, client, opt, oews.selected_epoch, StrategyKind.FEWS,
                     np.random.default_rng(7), metric)
    assert (oews.selected_params.values == upto.selected_params.values).all()


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=5),
    metric=st.sampled_from(list(SelectionMetric)),
)
def test_shipped_weights_are_the_reported_epochs_snapshot(trace, metric):
    """Whatever the validation trace, one train_local call reports, for
    each strategy, the epoch the selection rule names and ships the weights
    training had at that epoch, rebuilt here by calling train_epoch
    directly; both picks share one trace."""
    import fedsel.strategies as strategies

    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    real = strategies.score
    values = iter(trace)

    def scripted(*args):
        v = next(values)
        (result,) = real(*args)
        report = replace(result.report, accuracy=v, macro_f1=v)
        return [replace(result, report=report, loss=v)]

    with mock.patch.object(strategies, "score", scripted):
        (picks,) = train_local([(incoming, client, np.random.default_rng(11))], MODEL, opt,
                               len(trace), metric)
    fews, oews = picks[StrategyKind.FEWS], picks[StrategyKind.OEWS]
    assert fews.trace is oews.trace
    assert oews.trace == tuple(trace)

    best = max(trace) if metric.higher_is_better else min(trace)
    assert fews.selected_epoch == len(trace)
    assert oews.selected_epoch == max(i + 1 for i, v in enumerate(trace) if v == best)

    weights, velocity = incoming.values[None].copy(), np.zeros((1, len(incoming)))
    rng = np.random.default_rng(11)
    snapshots = []
    for _ in trace:
        train_epoch(weights, velocity, MODEL, opt, client.train.x[None], client.train.y[None], [rng])
        snapshots.append(weights[0].copy())
    for result in (fews, oews):
        assert (result.selected_params.values == snapshots[result.selected_epoch - 1]).all()


def test_non_finite_validation_score_names_client_and_epoch(monkeypatch):
    """A NaN first validation loss is rejected, not skipped: before, the
    trace (nan, ...) reported epoch 1 but shipped a later epoch's weights."""
    import fedsel.strategies as strategies

    real = strategies.score
    calls = []

    def first_loss_nan(*args):
        result = real(*args)
        calls.append(None)
        return [replace(result[0], loss=float("nan"))] if len(calls) == 1 else result

    monkeypatch.setattr(strategies, "score", first_loss_nan)
    client = _client(seed=11)
    with pytest.raises(DataError, match=f"client {client.client_id} epoch 1: validation val_loss"):
        run_local(init_parameters(MODEL), MODEL, client, OptimizerConfig(learning_rate=0.02),
                  3, StrategyKind.OEWS, np.random.default_rng(4), SelectionMetric.VAL_LOSS)


def test_run_local_rejects_bad_input():
    client = _client()
    incoming = init_parameters(MODEL)
    with pytest.raises(ConfigurationError):
        run_local(incoming, MODEL, client, OptimizerConfig(), 0, StrategyKind.FEWS,
                  np.random.default_rng(0))
    empty = Split(np.zeros((0, 16)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    broken = ClientDataset(client_id=0, missing_class=1, train=empty,
                           val=client.val, test=client.test)
    with pytest.raises(DataError):
        run_local(incoming, MODEL, broken, OptimizerConfig(), 2, StrategyKind.FEWS,
                  np.random.default_rng(0))
