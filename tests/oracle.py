"""Reference math for the tests: one model at a time, on fresh vectors.

This is the single-model code the stacked kernel in ``fedsel.nn`` replaced:
2-D forward and backward passes, the loss and its gradient, and one
momentum step per mini-batch on immutable ``ParameterVector``s. Nothing in
the package uses it. The tests check its gradient against finite
differences and check the kernel against it bit for bit.

``score_rows`` is the scorer the batched ``fedsel.strategies.score``
replaced: one model at a time, a confusion matrix, the metrics read off it
and the loss and confidence of that row, on the 2-D forward pass here.

``train_stacked_per_epoch`` is the training loop the windowed
``fedsel.strategies.train_stacked`` replaced: it scores a stack after every
epoch and tracks each row's best epoch and patience with plain comparisons,
not ``strategies.improves``. ``rescored`` rewrites the scores of chosen (row, epoch) pairs however
a loop batches its ``score`` calls.

``folded_run`` is the record ``train_stacked`` keeps for a scripted
validation trace, ``strategies.improves`` folded over it, so that
``strategies.shipped`` can read its picks without training.

``halt_round`` is the halting rule read off a whole trace at once, and
``scripted_halt`` runs the package's round loop on such a trace, so the
tests can hold the loop to the rule. ``brute_force_metrics`` and
``fd_gradient`` are the plain-loop metrics and the central-difference
gradient the tests check the package's scoring and this module's gradient
against.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Sequence
from unittest import mock

import numpy as np

from fedsel import orchestrator, strategies
from fedsel.aggregation import HaltingCriterion
from fedsel.data import ClientDataset, EvalSets, Split
from fedsel.errors import ConfigurationError, DataError, ShapeError
from fedsel.nn import ModelSpec, OptimizerConfig, ParameterVector, check_split
from fedsel.strategies import (
    EarlyStopRun,
    MetricsReport,
    Scores,
    SelectionMetric,
    StrategyKind,
    improves,
)


def unflatten(values: np.ndarray, manifest) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight matrix, bias vector) views per layer of one flat vector."""
    views = []
    offset = 0
    for rows, cols in manifest:
        w = values[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        b = values[offset : offset + cols]
        offset += cols
        views.append((w, b))
    return views


def _layers(params: ParameterVector, spec: ModelSpec):
    if params.manifest != spec.manifest:
        raise ShapeError("parameter manifest does not match the model spec")
    return unflatten(params.values, params.manifest)


def _forward_pass(layers, batch):
    inputs = [batch]
    pre = []
    h = batch
    for w, b in layers[:-1]:
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        inputs.append(h)
    w, b = layers[-1]
    return inputs, pre, h @ w + b


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(params: ParameterVector, spec: ModelSpec, batch, *, log: bool = False):
    """(n, classes) probabilities, or log-probabilities, of one model."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != spec.feature_dim:
        raise ShapeError(f"batch of shape {batch.shape} does not fit the model")
    _, _, logits = _forward_pass(_layers(params, spec), batch)
    log_probs = _log_softmax(logits)
    return log_probs if log else np.exp(log_probs)


def cross_entropy_loss(params: ParameterVector, spec: ModelSpec, batch, labels) -> float:
    """Mean softmax cross-entropy, forward only."""
    batch, labels = check_split(spec, batch, labels)
    if batch.shape[0] == 0:
        raise DataError("batch is empty")
    log_probs = forward(params, spec, batch, log=True)
    return float(-log_probs[np.arange(batch.shape[0]), labels].mean())


def loss_and_gradient(
    params: ParameterVector, spec: ModelSpec, batch, labels
) -> tuple[float, ParameterVector]:
    """Mean cross-entropy over the batch and its gradient, same manifest as params."""
    batch, labels = check_split(spec, batch, labels)
    n = batch.shape[0]
    if n == 0:
        raise DataError("batch is empty")
    layers = _layers(params, spec)
    inputs, pre, logits = _forward_pass(layers, batch)
    log_probs = _log_softmax(logits)

    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grad = np.empty(len(params))
    grads = unflatten(grad, params.manifest)
    for i in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[i]
        np.matmul(inputs[i].T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
        if i > 0:
            upstream = delta @ layers[i][0].T
            delta = upstream * (pre[i - 1] > 0.0)
    loss = float(-log_probs[np.arange(n), labels].mean())
    return loss, ParameterVector(grad, params.manifest)


def fd_gradient(params: ParameterVector, spec: ModelSpec, x, y, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``cross_entropy_loss``, one
    coordinate at a time."""
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


def confusion_matrix(labels: np.ndarray, preds: np.ndarray, class_count: int) -> np.ndarray:
    """C x C counts of one row, indexed by true class, then prediction."""
    flat = np.bincount(labels * class_count + preds, minlength=class_count * class_count)
    return flat.reshape(class_count, class_count)


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    """Accuracy and macro averages over every class of one matrix; a class
    with no support or no predictions contributes zero."""
    c = confusion.shape[0]
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    total = float(confusion.sum())
    precision = np.divide(diag, col, out=np.zeros(c), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(c), where=row > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(c), where=pr_sum > 0)
    return MetricsReport(
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.sum() / c),
        macro_recall=float(recall.sum() / c),
        macro_f1=float(f1.sum() / c),
    )


def brute_force_metrics(y_true, y_pred, class_count):
    """(accuracy, macro precision, macro recall, macro F1) from an
    independent per-class loop, no shared code with the implementation."""
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


def score_rows(weights, spec: ModelSpec, x, y) -> list[Scores]:
    """Scores of each row of ``weights`` on its own split, one at a time."""
    out = []
    for values, batch, labels in zip(weights, x, y):
        batch, labels = check_split(spec, batch, labels)
        log_probs = forward(ParameterVector(values, spec.manifest), spec, batch, log=True)
        probs = np.exp(log_probs)
        preds = np.argmax(probs, axis=1)
        report = metrics_from_confusion(confusion_matrix(labels, preds, spec.class_count))
        loss = float(-log_probs[np.arange(labels.size), labels].mean())
        correct = preds == labels
        confidence = float(probs[correct, preds[correct]].mean()) if correct.any() else 0.0
        out.append(Scores(report=report, loss=loss, confidence=confidence))
    return out


@dataclass(frozen=True)
class OptimizerState:
    """Velocity buffer plus hyperparameters; velocity manifest matches the model."""

    velocity: ParameterVector
    learning_rate: float
    momentum: float
    batch_size: int


def init_optimizer(params: ParameterVector, config: OptimizerConfig) -> OptimizerState:
    return OptimizerState(
        velocity=ParameterVector(np.zeros(len(params)), params.manifest),
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        batch_size=config.batch_size,
    )


def sgd_momentum_step(
    params: ParameterVector, grad: ParameterVector, state: OptimizerState
) -> tuple[ParameterVector, OptimizerState]:
    """Classical momentum: v' = momentum*v + grad; params' = params - lr*v'."""
    if not (params.manifest == grad.manifest == state.velocity.manifest):
        raise ShapeError("params, grad, and velocity manifests must be identical")
    velocity = state.momentum * state.velocity.values + grad.values
    updated = params.values - state.learning_rate * velocity
    return (
        ParameterVector(updated, params.manifest),
        replace(state, velocity=ParameterVector(velocity, params.manifest)),
    )


def reference_epoch(params, spec, state, x, y, rng):
    """The epoch the kernel must match bit for bit: shuffle once, then
    ``loss_and_gradient`` and ``sgd_momentum_step`` on fresh vectors for
    every batch, the final short batch included. Returns (params, state,
    batch count)."""
    order = rng.permutation(len(x))
    batches = 0
    for lo in range(0, len(x), state.batch_size):
        idx = order[lo : lo + state.batch_size]
        _, g = loss_and_gradient(params, spec, x[idx], y[idx])
        params, state = sgd_momentum_step(params, g, state)
        batches += 1
    return params, state, batches


def halt_round(
    trace: Sequence[float], criterion: HaltingCriterion, rounds: int
) -> tuple[int, bool]:
    """Where a run of ``rounds`` rounds with the given per-round aggregated
    metric values stops.

    Returns the 1-based stopping round and whether the threshold was met
    there. A trace that never reaches the threshold stops at ``rounds`` (or
    at the end of a shorter trace)."""
    last = min(len(trace), rounds)
    if last == 0:
        raise ConfigurationError("halting needs at least one round value")
    for i in range(last):
        if trace[i] >= criterion.threshold:
            return i + 1, True
    return last, False


def folded_run(
    trace: Sequence[float], higher_is_better: bool, ties_to_latest: bool
) -> EarlyStopRun:
    """The record ``train_stacked`` keeps for a run whose validation trace
    is ``trace``: ``improves`` folded over it in the given direction. It
    holds no weights, so ``shipped`` reads only epochs from it."""
    run = EarlyStopRun()
    for epoch, value in enumerate(trace, 1):
        run.trace.append(value)
        if improves(value, run.best, higher_is_better, ties_to_latest):
            run.best, run.best_epoch = value, epoch
    return run


def scripted_halt(
    trace: Sequence[float], criterion: HaltingCriterion, rounds: int
) -> tuple[int, bool]:
    """Where ``run_federation`` stops an industrial run of ``rounds`` rounds
    whose aggregated metric reads ``trace[t - 1]`` in round t.

    The cohort is one client: its scoring pass returns the round's scripted
    value as every metric, and its local run ships the incoming weights, so
    with K = 1 the aggregate is that value exactly. A loop that scores past
    the end of the trace fails. Returns the number of rounds run and whether
    the last record is ``halted``."""
    split = Split(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    client = ClientDataset(client_id=0, missing_class=0, train=split, val=split, test=split)
    cfg = orchestrator.FederationConfig(
        model=ModelSpec(layer_sizes=(2, 2)), rounds=rounds, local_epochs=1,
        workflow=orchestrator.Workflow.INDUSTRIAL, halting=criterion,
    )
    values = iter(trace)

    def score_params(params, *_):
        report = MetricsReport(*[next(values)] * 4)
        return [Scores(report, 0.0, 0.0) for _ in params]

    def train_stacked(rows, *_, **__):
        return [EarlyStopRun([0.0], 0.0, 1, start, start) for start, *_ in rows]

    with mock.patch.object(orchestrator, "score_params", score_params), \
            mock.patch.object(orchestrator, "train_stacked", train_stacked):
        records, _ = orchestrator.run_federation(
            cfg, StrategyKind.FEWS, (0, [client], EvalSets(split, split))
        )
    return len(records), records[-1].halted


def train_stacked_per_epoch(rows, model, optimizer, epochs, patience, metric, ties_to_latest):
    """``strategies.train_stacked`` as it ran before windows: after each
    epoch, one ``strategies.score`` call over every live row, then each
    row's early-stopping state is updated with plain comparisons. A row
    whose weights turn non-finite fails at once and is not scored.

    Returns, per row, its exception or a dict of its ``trace`` (a tuple),
    ``best_epoch``, and the bytes of its best and last weights (``best``
    and ``last``)."""
    higher = metric is not SelectionMetric.VAL_LOSS
    results: list = [None] * len(rows)
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, (start, train, val, _, label) in enumerate(rows):
        try:
            if len(train) == 0 or len(val) == 0:
                raise DataError(f"{label} has an empty train or val split")
            if start.manifest != model.manifest:
                raise ShapeError("params and model manifests must be identical")
            check_split(model, train.x, train.y)
            check_split(model, val.x, val.y)
        except Exception as exc:
            results[i] = exc
            continue
        results[i] = {"trace": (), "best_epoch": 0, "best": None, "last": None}
        stacks.setdefault((len(train), len(val)), []).append(i)

    for members in stacks.values():
        live = np.array(members)
        weights = np.stack([rows[i][0].values for i in live])
        velocity = np.zeros_like(weights)
        best_value, stale = {}, {}
        for epoch in range(1, epochs + 1):
            strategies._EpochKernel(
                weights, velocity, model, optimizer,
                [rows[i][1].x for i in live], [rows[i][1].y for i in live],
            )([rows[i][3] for i in live])
            finite = np.isfinite(weights).all(axis=1)
            for i in live[~finite]:
                results[i] = DataError(f"{rows[i][4]} epoch {epoch}: weights are not finite")
            live, weights, velocity = live[finite], weights[finite], velocity[finite]
            if not len(live):
                break
            keep = np.ones(len(live), dtype=bool)
            val = [rows[i][2] for i in live]
            scored = strategies.score(weights, model, [v.x for v in val], [v.y for v in val])
            for j, scores in enumerate(scored):
                i = int(live[j])
                if not math.isfinite(scores.loss):
                    results[i] = DataError(
                        f"{rows[i][4]} epoch {epoch}: validation loss is {scores.loss}"
                    )
                    keep[j] = False
                    continue
                value = getattr(scores.report, metric.value) if higher else scores.loss
                result, best = results[i], best_value.get(i)
                result["trace"] += (value,)
                if best is None:
                    better = True
                elif higher:
                    better = value >= best if ties_to_latest else value > best
                else:
                    better = value <= best if ties_to_latest else value < best
                if better:
                    best_value[i], stale[i] = value, 0
                    result["best_epoch"], result["best"] = epoch, weights[j].tobytes()
                else:
                    stale[i] += 1
                keep[j] = stale[i] < patience
                result["last"] = weights[j].tobytes()
            live, weights, velocity = live[keep], weights[keep], velocity[keep]
            if not len(live):
                break
    return results


@contextmanager
def rescored(change: Callable[[np.random.Generator, int, Scores], Scores]):
    """Within the block, each ``strategies.score`` result for weights that
    an epoch of a ``strategies._EpochKernel`` (the epoch kernel both
    training loops build) left in a row becomes
    ``change(rng, epoch, scores)``: ``rng`` is the row's stream and
    ``epoch`` counts that stream's epochs. Rows are told apart by their
    streams and scored weights by their bytes, so a rewrite holds however
    the loop windows, stacks or batches its training and scoring. Scores of
    other weights pass as they are."""
    real_score = strategies.score
    epochs: dict[np.random.Generator, int] = {}  # epochs trained per stream
    trained: dict[bytes, tuple[np.random.Generator, int]] = {}

    class Kernel(strategies._EpochKernel):
        def __call__(self, rngs):
            super().__call__(rngs)
            for row, rng in zip(self.weights, rngs):
                epochs[rng] = epochs.get(rng, 0) + 1
                trained[row.tobytes()] = (rng, epochs[rng])

    def score(weights, *args):
        result = real_score(weights, *args)
        for k, row in enumerate(weights):
            if row.tobytes() in trained:
                result[k] = change(*trained[row.tobytes()], result[k])
        return result

    with mock.patch.object(strategies, "_EpochKernel", Kernel), \
            mock.patch.object(strategies, "score", score):
        yield
