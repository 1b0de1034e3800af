from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsel import nn, strategies
from fedsel.data import CorpusSpec, PartitionSpec, Split, make_dataset
from fedsel.errors import ConfigurationError, DataError, ShapeError
from fedsel.nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    init_parameters,
    manifest_size,
)
from fedsel.strategies import (
    SelectionMetric,
    StrategyKind,
    improves,
    score,
    score_params,
    shipped,
)
from oracle import (
    OptimizerState,
    brute_force_metrics,
    confusion_matrix,
    cross_entropy_loss,
    folded_run,
    forward,
    loss_and_gradient,
    metrics_from_confusion,
    reference_epoch,
    rescored,
    score_rows,
    train_stacked_per_epoch,
)


def _report_of(y_true, y_pred, class_count):
    """The metrics ``score`` reports for the predictions ``y_pred``: a
    one-layer identity model fed one-hot inputs predicts each input's hot
    class."""
    spec = ModelSpec(layer_sizes=(class_count, class_count))
    identity = np.concatenate([np.eye(class_count).ravel(), np.zeros(class_count)])
    x = np.eye(class_count)[np.asarray(y_pred)]
    (scores,) = score(identity[None], spec, x[None], np.asarray(y_true)[None])
    return scores.report


def test_confusion_matrix_layout():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    (cm,) = strategies._confusions(y_true[None], y_pred[None], 2)
    assert (cm == np.array([[1, 1], [0, 2]])).all()


def test_two_class_hand_oracle():
    # confusion [[3, 1], [1, 3]]
    report = _report_of([0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 0], 2)
    assert report.accuracy == 0.75
    assert report.macro_precision == 0.75
    assert report.macro_recall == 0.75
    assert report.macro_f1 == 0.75


def test_absent_class_counts_in_divisor():
    # 3 classes but class 2 never appears in labels or predictions
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    report = _report_of(labels, labels, 3)
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
        report = _report_of(y_true, y_pred, c)
        acc, prec, rec, f1 = brute_force_metrics(y_true.tolist(), y_pred.tolist(), c)
        assert abs(report.accuracy - acc) < 1e-12
        assert abs(report.macro_precision - prec) < 1e-12
        assert abs(report.macro_recall - rec) < 1e-12
        assert abs(report.macro_f1 - f1) < 1e-12


def test_uniform_predictor_confidence():
    spec = ModelSpec(layer_sizes=(4, 8, 5), seed=0)
    zeros = ParameterVector(np.zeros(manifest_size(spec.manifest)), spec.manifest)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4))
    y = np.zeros(50, dtype=int)  # argmax of a uniform row is class 0
    (hit, miss) = score(np.stack([zeros.values] * 2), spec, [x, x], [y, np.full(50, 3)])
    assert hit.confidence == pytest.approx(0.2)
    assert miss.confidence == 0.0


def test_score_is_one_pass_of_the_separate_scorers():
    """Metrics, loss and confidence from one pass equal, bit for bit, what a
    probability pass plus a separate loss pass compute."""
    rng = np.random.default_rng(12)
    spec = ModelSpec(layer_sizes=(6, 10, 7, 4), seed=5)
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
        assert score_params([params], spec, Split(x, y, np.arange(33))) == [got]


def test_score_rejects_row_count_mismatch():
    """Every weight row needs its own features and labels: a short list of
    either fails naming the counts instead of scoring fewer rows, and
    splits of zero samples fail too. So do weights of another width and
    features of another count than the model's."""
    spec = ModelSpec(layer_sizes=(4, 6, 3), seed=1)
    weights = np.tile(init_parameters(spec).values, (3, 1))
    x, y = np.zeros((3, 5, 4)), np.zeros((3, 5), dtype=int)
    assert len(score(weights, spec, x, y)) == 3
    with pytest.raises(ShapeError, match="3 weight rows, 3 feature and 2 label rows"):
        score(weights, spec, x, y[:2])
    with pytest.raises(ShapeError, match="3 weight rows, 2 feature and 3 label rows"):
        score(weights, spec, x[:2], y)
    with pytest.raises(DataError, match="cannot score zero samples"):
        score(weights, spec, x[:, :0], y[:, :0])
    with pytest.raises(ShapeError, match=r"weights must be \(R, 51\), got \(3, 50\)"):
        score(weights[:, :-1], spec, x, y)
    with pytest.raises(ShapeError, match=r"every feature row must be \(5, 4\)"):
        score(weights, spec, np.zeros((3, 5, 6)), y)


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
    dim, classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = ModelSpec(layer_sizes=(dim, *hidden, classes))

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
    batches larger than the data, zero to two hidden layers.
    The stack runs under a drawn buffer cap, so its data is gathered a few
    batches at a time, with a partial last window, and it is scored a few
    rows per pass. One kernel trains both epochs of the stack, in place in
    the arrays it was built on; each row alone gets a fresh kernel every
    epoch; both equal the per-batch reference, whose momentum and learning
    rate, each drawn from 0 (the least value ``OptimizerConfig`` allows)
    and two values above it, are Python floats where the kernels hold 0-d
    arrays. With hidden layers, the start may have one dead hidden unit."""
    rows = data.draw(st.integers(1, 6), label="R")
    n = data.draw(st.integers(1, 40), label="n")
    batch_size = data.draw(st.integers(1, n + 3), label="batch_size")
    hidden = data.draw(st.lists(st.integers(1, 9), min_size=0, max_size=2), label="hidden")
    dim, classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    spec = ModelSpec(layer_sizes=(dim, *hidden, classes))
    size = manifest_size(spec.manifest)
    weights = init_parameters(spec).values + rng.standard_normal((rows, size))
    velocity = rng.standard_normal((rows, size)) * 0.1
    x, y = rng.standard_normal((rows, n, dim)) * 2.0, rng.integers(0, classes, (rows, n))
    momentum = data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="momentum")
    learning_rate = data.draw(st.sampled_from([0.0, 0.003, 0.05]), label="learning rate")
    opt = OptimizerConfig(learning_rate=learning_rate, momentum=momentum, batch_size=batch_size)
    seeds = rng.integers(0, 2**32, rows).tolist()
    cap = data.draw(st.sampled_from([None, 1, 30, 200]), label="buffer cap")
    if hidden and data.draw(st.booleans(), label="dead hidden unit"):
        # unit 0 of the first hidden layer: zero incoming weights, bias and
        # their velocity, so its gradients stay zero and its pre-activation
        # is exactly 0.0 on every sample, where the kernels' np.sign mask
        # meets the reference's bool mask on zeros
        for values in (weights, velocity):
            w, b = nn._stack_layers(values, spec.manifest)[0]
            w[..., 0], b[..., 0] = 0.0, 0.0
    gather_cap = mock.patch.object(nn, "GATHER_VALUES", cap or nn.GATHER_VALUES)
    score_cap = mock.patch.object(strategies, "SCORE_VALUES", cap or strategies.SCORE_VALUES)

    def streams(r, epoch):
        return [np.random.default_rng([s, epoch]) for s in seeds[r]]

    stacked_w, stacked_v = weights.copy(), velocity.copy()
    with gather_cap:
        kernel = nn._EpochKernel(stacked_w, stacked_v, spec, opt, x, y)
        for epoch in range(2):
            assert kernel(streams(slice(None), epoch)) is None
    assert kernel.weights is stacked_w and kernel.velocity is stacked_v
    for r in range(rows):
        one = slice(r, r + 1)
        w, v = weights[one].copy(), velocity[one].copy()
        params = ParameterVector(weights[r], spec.manifest)
        state = OptimizerState(
            ParameterVector(velocity[r], spec.manifest), learning_rate, momentum, batch_size
        )
        for epoch in range(2):
            nn._EpochKernel(w, v, spec, opt, x[one], y[one])(streams(one, epoch))
            params, state, _ = reference_epoch(params, spec, state, x[r], y[r],
                                               *streams(one, epoch))
        assert w.tobytes() == stacked_w[one].tobytes() == params.values.tobytes()
        assert v.tobytes() == stacked_v[one].tobytes() == state.velocity.values.tobytes()

    m = data.draw(st.integers(1, 20), label="val size")
    val_x, val_y = rng.standard_normal((rows, m, dim)) * 2.0, rng.integers(0, classes, (rows, m))
    with score_cap:
        stacked = score(stacked_w, spec, val_x, val_y)
    assert len(stacked) == rows
    for r in range(rows):
        one = slice(r, r + 1)
        (alone,) = score(stacked_w[one], spec, val_x[one], val_y[one])
        assert _scores_key(stacked[r]) == _scores_key(alone)


def _picked(trace, strategy, higher_is_better=True):
    """The epoch ``strategy`` ships from a client's run whose validation
    trace is ``trace``: ``improves`` folded with ties to the latest epoch,
    read through ``shipped``."""
    _, epoch = shipped(folded_run(trace, higher_is_better, ties_to_latest=True), strategy)
    return epoch


def test_shipped_epoch_rules():
    assert _picked([0.5, 0.9, 0.7], StrategyKind.FEWS) == 3
    assert _picked([0.60, 0.90, 0.80], StrategyKind.OEWS) == 2
    assert _picked([0.9, 0.5, 0.9], StrategyKind.OEWS) == 3  # tie -> latest
    assert _picked([0.4], StrategyKind.OEWS) == 1
    # lower-is-better (validation loss)
    assert _picked([0.5, 0.2, 0.2], StrategyKind.OEWS, higher_is_better=False) == 3


def test_oews_epoch_invariant_under_increasing_transform():
    rng = np.random.default_rng(8)
    for _ in range(200):
        trace = rng.random(int(rng.integers(1, 12))).tolist()
        base = _picked(trace, StrategyKind.OEWS)
        transformed = [3.0 * v + 1.0 for v in trace]
        assert _picked(transformed, StrategyKind.OEWS) == base
        assert _picked(np.exp(trace).tolist(), StrategyKind.OEWS) == base


# three validation levels, so that scripted traces tie often
LEVELS = (0.25, 0.5, 0.75)


def _best_epoch(trace, higher_is_better, ties_to_latest):
    """The plain-loop reference: the 1-based epochs whose value is the
    trace's best, then the latest or the earliest of them."""
    best = max(trace) if higher_is_better else min(trace)
    tied = [epoch for epoch, value in enumerate(trace, 1) if value == best]
    return tied[-1] if ties_to_latest else tied[0]


@settings(max_examples=300, deadline=None)
@given(
    trace=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=12),
    higher_is_better=st.booleans(),
    ties_to_latest=st.booleans(),
)
def test_improves_folded_over_a_trace_is_the_reference_best(
    trace, higher_is_better, ties_to_latest
):
    """The one best-epoch rule, kept over a trace, picks the reference's
    best epoch in either tie direction; the first epoch always wins. A
    client's run folds it with ties to the latest epoch, and ``shipped``
    reads that epoch for OEWS and the last one for FEWS."""
    best = pick = None
    for epoch, value in enumerate(trace, 1):
        if improves(value, best, higher_is_better, ties_to_latest):
            best, pick = value, epoch
        if epoch == 1:
            assert pick == 1
    assert pick == _best_epoch(trace, higher_is_better, ties_to_latest)
    assert _picked(trace, StrategyKind.OEWS, higher_is_better) == _best_epoch(
        trace, higher_is_better, ties_to_latest=True
    )
    assert _picked(trace, StrategyKind.FEWS, higher_is_better) == len(trace)


@pytest.mark.parametrize("higher_is_better", [True, False])
@pytest.mark.parametrize("ties_to_latest", [True, False])
def test_improves_never_moves_to_or_from_a_nan(higher_is_better, ties_to_latest):
    nan = float("nan")
    assert improves(nan, None, higher_is_better, ties_to_latest)
    assert not improves(nan, 0.5, higher_is_better, ties_to_latest)
    assert not improves(0.5, nan, higher_is_better, ties_to_latest)


def _client(seed=0, train_n=15, noise=2.5):
    cspec = CorpusSpec(per_class_train=train_n, per_class_val=20, per_class_test=5,
                       noise_scale=noise, seed=seed)
    clients, _ = make_dataset(cspec, PartitionSpec.default())
    return clients[0]


MODEL = ModelSpec(layer_sizes=(16, 32, 5), seed=3)


def _local_runs(rows, opt, epochs, metric=SelectionMetric.MACRO_F1):
    """Client local runs of rows (incoming weights, client, rng), each
    ``train_stacked`` in the setting ``run_federations`` gives it: patience
    equal to the epochs and ties going to the latest epoch."""
    return strategies.train_stacked(
        [(p, c.train, c.val, rng, f"client {c.client_id}") for p, c, rng in rows],
        MODEL, opt, epochs, epochs, metric, ties_to_latest=True,
    )


def test_local_run_trace_and_epoch_ranges():
    """One client's local run, as ``train_stacked`` of one row."""
    client = _client()
    incoming = init_parameters(MODEL)
    (run,) = _local_runs([(incoming, client, np.random.default_rng(1))], OptimizerConfig(), 4)
    _, epoch = shipped(run, StrategyKind.OEWS)
    assert len(run.trace) == 4
    assert all(0.0 <= v <= 1.0 for v in run.trace)
    assert 1 <= epoch <= 4


def test_local_run_never_mutates_incoming():
    client = _client()
    incoming = init_parameters(MODEL)
    before = incoming.values.copy()
    _local_runs([(incoming, client, np.random.default_rng(2))],
                OptimizerConfig(learning_rate=0.05), 3)
    assert (incoming.values == before).all()


def _twin_rows(incoming, client, rng_seed):
    """Two rows of equal incoming weights, client and rng stream."""
    return [(incoming, client, np.random.default_rng(rng_seed)) for _ in range(2)]


def test_fews_and_oews_share_the_trajectory():
    """Same incoming weights and rng stream: both strategies see the same
    per-epoch trace; only the returned weights differ."""
    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    first, second = _local_runs(_twin_rows(incoming, client, 7), opt, 10)
    assert first.trace == second.trace
    _, fews_epoch = shipped(first, StrategyKind.FEWS)
    _, oews_epoch = shipped(second, StrategyKind.OEWS)
    assert fews_epoch == 10
    assert oews_epoch == _best_epoch(second.trace, True, ties_to_latest=True)
    best = second.trace[oews_epoch - 1]
    assert all(best >= v for v in second.trace)


def test_single_epoch_makes_strategies_identical():
    client = _client(seed=6)
    incoming = init_parameters(MODEL)
    first, second = _local_runs(_twin_rows(incoming, client, 3), OptimizerConfig(), 1)
    fews, fews_epoch = shipped(first, StrategyKind.FEWS)
    oews, oews_epoch = shipped(second, StrategyKind.OEWS)
    assert (fews.values == oews.values).all()
    assert fews_epoch == oews_epoch == 1


def test_final_epoch_pick_equals_fews_bitwise():
    """Whenever OEWS lands on the last epoch (monotone or tie-late trace),
    the uploaded weights are identical to FEWS's."""
    client = _client(seed=9)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    rows = [(incoming, client, np.random.default_rng(rng_seed)) for rng_seed in range(12)]
    for run in _local_runs(rows, opt, 6):
        fews, _ = shipped(run, StrategyKind.FEWS)
        oews, oews_epoch = shipped(run, StrategyKind.OEWS)
        if oews_epoch == 6:
            assert (oews.values == fews.values).all()
        else:
            assert not (oews.values == fews.values).all()


def test_val_loss_selection_prefers_low_loss():
    client = _client(seed=11)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    (run,) = _local_runs([(incoming, client, np.random.default_rng(4))], opt, 8,
                         metric=SelectionMetric.VAL_LOSS)
    _, epoch = shipped(run, StrategyKind.OEWS)
    best = run.trace[epoch - 1]
    assert all(best <= v for v in run.trace)
    assert epoch == _best_epoch(run.trace, higher_is_better=False, ties_to_latest=True)


@pytest.mark.parametrize("metric", list(SelectionMetric))
def test_shipped_weights_are_the_reported_epochs(metric):
    """OEWS ships exactly the weights a run stopped at its reported epoch
    would end with."""
    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)
    (run,) = _local_runs([(incoming, client, np.random.default_rng(7))], opt, 8, metric)
    oews, oews_epoch = shipped(run, StrategyKind.OEWS)
    assert oews_epoch == _best_epoch(run.trace, metric.higher_is_better, ties_to_latest=True)
    (upto,) = _local_runs([(incoming, client, np.random.default_rng(7))], opt, oews_epoch, metric)
    fews, _ = shipped(upto, StrategyKind.FEWS)
    assert (oews.values == fews.values).all()


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=6),
    metric=st.sampled_from(list(SelectionMetric)),
)
# the best value at an interior epoch and again at a later one
@example(trace=[0.5, 0.75, 0.25, 0.75, 0.5], metric=SelectionMetric.MACRO_F1)
@example(trace=[0.5, 0.25, 0.75, 0.25, 0.5], metric=SelectionMetric.VAL_LOSS)
def test_shipped_weights_are_the_reported_epochs_snapshot(trace, metric):
    """Whatever the validation trace, one client run reports, for each
    strategy, the epoch the selection rule names and ships the weights
    training had at that epoch, rebuilt here by calling the epoch kernel
    directly; both picks are read from the one run and its one trace. OEWS
    ships the latest of tied best epochs, FEWS the last epoch."""
    client = _client(seed=5)
    incoming = init_parameters(MODEL)
    opt = OptimizerConfig(learning_rate=0.02, batch_size=8)

    def scripted(rng, epoch, result):
        v = trace[epoch - 1]
        report = replace(result.report, accuracy=v, macro_f1=v)
        return replace(result, report=report, loss=v)

    with rescored(scripted):
        (run,) = _local_runs([(incoming, client, np.random.default_rng(11))], opt,
                             len(trace), metric)
    assert run.trace == trace
    fews, oews = shipped(run, StrategyKind.FEWS), shipped(run, StrategyKind.OEWS)

    best = max(trace) if metric.higher_is_better else min(trace)
    assert fews[1] == len(trace)
    assert oews[1] == max(i + 1 for i, v in enumerate(trace) if v == best)

    weights, velocity = incoming.values[None].copy(), np.zeros((1, len(incoming)))
    rng = np.random.default_rng(11)
    snapshots = []
    kernel = nn._EpochKernel(weights, velocity, MODEL, opt, client.train.x[None],
                             client.train.y[None])
    for _ in trace:
        kernel([rng])
        snapshots.append(weights[0].copy())
    for params, epoch in (fews, oews):
        assert (params.values == snapshots[epoch - 1]).all()


def _outcome(run):
    """A ``train_stacked`` row as ``oracle.train_stacked_per_epoch`` returns
    it: its error string, or its trace, best epoch and the bytes of its
    best and last weights."""
    if isinstance(run, Exception):
        return str(run)
    return {"trace": tuple(run.trace), "best_epoch": run.best_epoch,
            "best": run.best_params.values.tobytes(), "last": run.last_params.values.tobytes()}


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_windowed_training_equals_the_per_epoch_loop(data):
    """``train_stacked``, which scores a window of epochs at once, against
    the loop that scored after every epoch (``oracle.train_stacked_per_epoch``,
    which tracks each row's best with plain comparisons): per row, the same
    trace, best epoch and best and last weight bytes, or the same error, and
    the same number of epochs trained by every row that did not fail. Both
    settings are drawn: a client's local run (patience equal to the epochs,
    ties to the latest, any selection metric) and a baseline (drawn
    patience, ties to the earliest, macro-F1). Rows have unequal split
    sizes, so several stacks train; the window cap is 1, 2 or 10^6 epochs;
    validation losses turn NaN at drawn (row, epoch) pairs; and the learning
    rate may overflow the weights, so a row can fail on its loss and then
    overflow later in the same window."""
    epochs = data.draw(st.integers(1, 8), label="epochs")
    local = data.draw(st.booleans(), label="a client's local run")
    if local:
        patience, ties_to_latest = epochs, True
        metric = data.draw(st.sampled_from(SelectionMetric), label="metric")
    else:
        patience, ties_to_latest = data.draw(st.integers(1, epochs), label="patience"), False
        metric = SelectionMetric.MACRO_F1
    count = data.draw(st.integers(1, 5), label="rows")
    sizes = data.draw(st.lists(st.sampled_from([(5, 3), (7, 3), (5, 4)]),
                               min_size=count, max_size=count), label="train/val sizes")
    rate = data.draw(st.sampled_from([0.05, 0.5, 1e150, 1e200]), label="learning rate")
    cap = data.draw(st.sampled_from([1, 2, 10**6]), label="window cap")
    cells = st.tuples(st.integers(0, count - 1), st.integers(1, epochs))
    nan_at = data.draw(st.sets(cells, max_size=3), label="NaN losses")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    spec = ModelSpec(layer_sizes=(3, 4, 3))
    opt = OptimizerConfig(learning_rate=rate, batch_size=2)

    def run(loop):
        gen = np.random.default_rng(seed)

        def split(n):
            scale = gen.choice([0.1, 1.0, 3.0])
            return Split(gen.standard_normal((n, 3)) * scale, gen.integers(0, 3, n), np.arange(n))

        rows = [
            (ParameterVector(init_parameters(spec).values + gen.standard_normal(31) * 0.1,
                             spec.manifest),
             split(train), split(val), np.random.default_rng([seed, i]), f"row {i}")
            for i, (train, val) in enumerate(sizes)
        ]
        row_of = {row[3]: i for i, row in enumerate(rows)}
        trained = [0] * count

        def change(rng, epoch, scores):
            return replace(scores, loss=float("nan")) if (row_of[rng], epoch) in nan_at else scores

        class Kernel(strategies._EpochKernel):
            def __call__(self, rngs):
                for rng in rngs:
                    trained[row_of[rng]] += 1
                super().__call__(rngs)

        with np.errstate(all="ignore"), \
                mock.patch.object(strategies, "_window_cap", lambda rows, size: cap), \
                mock.patch.object(strategies, "_EpochKernel", Kernel), rescored(change):
            results = loop(rows, spec, opt, epochs, patience, metric, ties_to_latest)
        return results, trained

    windowed, windowed_trained = run(strategies.train_stacked)
    per_epoch, per_epoch_trained = run(train_stacked_per_epoch)
    per_epoch = [str(r) if isinstance(r, Exception) else r for r in per_epoch]
    assert [_outcome(r) for r in windowed] == per_epoch
    for result, a, b in zip(windowed, windowed_trained, per_epoch_trained):
        assert isinstance(result, Exception) or a == b


def test_a_row_that_overflows_mid_window_trains_on_and_changes_no_other_row():
    """Two rows train as one stack in one 5-epoch window. One row's train
    split is scaled so that its weights overflow partway through; it still
    trains every epoch of the window, beside the other row, and fails at
    its first epoch of non-finite weights. The finite row's run (trace,
    best epoch and the bytes of its best and last weights) equals its run
    alone."""
    spec = ModelSpec(layer_sizes=(3, 4, 3))
    opt = OptimizerConfig(learning_rate=0.05, batch_size=2)
    gen = np.random.default_rng(0)

    def split(scale):
        return Split(gen.standard_normal((6, 3)) * scale, gen.integers(0, 3, 6), np.arange(6))

    start = init_parameters(spec)
    data = {"finite": (split(1.0), split(1.0)), "overflowing": (split(1e20), split(1.0))}

    def run(labels):
        rows = [(start, *data[label], np.random.default_rng(seed), label)
                for seed, label in enumerate(data) if label in labels]
        stacks = []  # the rows each epoch kernel call trained

        class Kernel(strategies._EpochKernel):
            def __call__(self, rngs):
                stacks.append(len(rngs))
                super().__call__(rngs)

        with np.errstate(all="ignore"), \
                mock.patch.object(strategies, "_window_cap", lambda rows, size: 10**6), \
                mock.patch.object(strategies, "_EpochKernel", Kernel):
            runs = strategies.train_stacked(rows, spec, opt, 5, 5, SelectionMetric.MACRO_F1, True)
        return {row[4]: _outcome(run) for row, run in zip(rows, runs)}, stacks

    # the overflowing row's first epoch with non-finite weights, trained alone
    weights, velocity = start.values[None].copy(), np.zeros((1, len(start)))
    rng, overflow = np.random.default_rng(1), None
    train_x, train_y = data["overflowing"][0].x[None], data["overflowing"][0].y[None]
    kernel = nn._EpochKernel(weights, velocity, spec, opt, train_x, train_y)
    with np.errstate(all="ignore"):
        for epoch in range(1, 6):
            kernel([rng])
            if overflow is None and not np.isfinite(weights).all():
                overflow = epoch
    assert overflow is not None and 1 < overflow < 5

    outcomes, stacks = run(("finite", "overflowing"))
    assert stacks == [2] * 5
    assert outcomes["overflowing"] == f"overflowing epoch {overflow}: weights are not finite"
    alone, _ = run(("finite",))
    assert outcomes["finite"] == alone["finite"]
    assert len(alone["finite"]["trace"]) == 5


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
    (error,) = _local_runs([(init_parameters(MODEL), client, np.random.default_rng(4))],
                           OptimizerConfig(learning_rate=0.02), 3, SelectionMetric.VAL_LOSS)
    assert isinstance(error, DataError)
    assert str(error) == f"client {client.client_id} epoch 1: validation loss is nan"


def test_train_stacked_rejects_bad_input():
    """Zero epochs fail a client run's call, as does a patience of zero
    epochs, which would give ``train_stacked`` an empty window; an empty
    split, or start weights of another model's manifest, fails its own
    row, which ``train_stacked`` returns as the exception, and the other
    rows train."""
    client = _client()
    incoming = init_parameters(MODEL)
    with pytest.raises(ConfigurationError, match="epochs must be >= 1, got 0"):
        _local_runs([(incoming, client, np.random.default_rng(0))], OptimizerConfig(), 0)
    with pytest.raises(ConfigurationError, match="patience must be >= 1, got 0"):
        strategies.train_stacked([], MODEL, OptimizerConfig(), 1, 0, SelectionMetric.MACRO_F1,
                                 False)
    empty = Split(np.zeros((0, 16)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    other = init_parameters(ModelSpec(layer_sizes=(16, 31, 5)))
    rows = [(incoming, replace(client, train=empty), np.random.default_rng(0)),
            (other, client, np.random.default_rng(0)), (incoming, client, np.random.default_rng(0))]
    empty_split, wrong_manifest, run = _local_runs(rows, OptimizerConfig(), 2)
    assert isinstance(empty_split, DataError)
    assert isinstance(wrong_manifest, ShapeError)
    assert str(wrong_manifest) == "params and model manifests must be identical"
    assert shipped(run, StrategyKind.FEWS)[1] == 2
