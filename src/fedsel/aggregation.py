"""Server-side combination of client updates and threshold halting.

Plain averaging treats every client equally regardless of data volume;
weighted averaging is the conventional sample-count-proportional mean. Metric
reports aggregate by unweighted mean so the halting decision mirrors plain
weight averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError, ShapeError
from .nn import ParameterVector
from .strategies import METRIC_NAMES, MetricsReport


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    params: ParameterVector
    train_sample_count: int

    def __post_init__(self) -> None:
        if self.train_sample_count < 1:
            raise ConfigurationError(
                f"train_sample_count must be >= 1, got {self.train_sample_count}"
            )


class AggregationKind(str, Enum):
    PLAIN = "plain"
    WEIGHTED = "weighted"


def _check_updates(updates: Sequence[ClientUpdate]) -> None:
    if not updates:
        raise ProtocolError("cannot aggregate zero updates")
    manifest = updates[0].params.manifest
    for u in updates:
        if u.params.manifest != manifest:
            raise ShapeError(
                f"client {u.client_id} update has manifest {u.params.manifest}, "
                f"expected {manifest}"
            )
        if not np.isfinite(u.params.values).all():
            raise ProtocolError(f"client {u.client_id} update has non-finite weights")


def aggregate_plain(updates: Sequence[ClientUpdate]) -> ParameterVector:
    """Unweighted elementwise mean of the clients' selected weights,
    accumulated in client order."""
    _check_updates(updates)
    total = np.zeros(len(updates[0].params))
    for u in updates:
        total += u.params.values
    return ParameterVector(total / len(updates), updates[0].params.manifest)


def aggregate_weighted(updates: Sequence[ClientUpdate]) -> ParameterVector:
    """Elementwise mean weighted by each client's training sample count.
    Equal counts reproduce the plain average."""
    _check_updates(updates)
    count_sum = 0.0
    for u in updates:
        count_sum += float(u.train_sample_count)
    if count_sum <= 0:
        raise ProtocolError("training sample counts sum to zero")
    total = np.zeros(len(updates[0].params))
    for u in updates:
        total += float(u.train_sample_count) * u.params.values
    return ParameterVector(total / count_sum, updates[0].params.manifest)


def aggregate(
    updates: Sequence[ClientUpdate], kind: AggregationKind = AggregationKind.PLAIN
) -> ParameterVector:
    kind = AggregationKind(kind)
    if kind is AggregationKind.PLAIN:
        return aggregate_plain(updates)
    return aggregate_weighted(updates)


def aggregate_metrics(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Server-side view of per-client metric reports: each metric is the
    unweighted mean of the clients' values, summed in client order. The
    result is a cross-client summary, not a recomputation from pooled
    predictions."""
    if not reports:
        raise ProtocolError("cannot aggregate zero metric reports")
    return MetricsReport(**{
        name: float(sum(getattr(r, name) for r in reports) / len(reports))
        for name in METRIC_NAMES
    })


class HaltingMetric(str, Enum):
    MACRO_F1 = "macro_f1"
    ACCURACY = "accuracy"


@dataclass(frozen=True)
class HaltingCriterion:
    metric: HaltingMetric = HaltingMetric.MACRO_F1
    threshold: float = 0.95
    max_rounds: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", HaltingMetric(self.metric))
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")


def threshold_met(aggregated: MetricsReport, criterion: HaltingCriterion) -> bool:
    """True once the aggregated halting metric reaches the threshold
    (>=, not >)."""
    return aggregated.scalar(criterion.metric.value) >= criterion.threshold


def should_halt(
    aggregated: MetricsReport, criterion: HaltingCriterion, round_index: int
) -> bool:
    """Stop after this round? True when the threshold is met or the round cap
    is reached. ``round_index`` is 1-based."""
    if round_index < 1:
        raise ConfigurationError(f"round_index must be >= 1, got {round_index}")
    return threshold_met(aggregated, criterion) or round_index >= criterion.max_rounds


def halt_round(trace: Sequence[float], criterion: HaltingCriterion) -> tuple[int, bool]:
    """Where a run with the given per-round aggregated metric values stops.

    Returns the 1-based stopping round and whether the threshold was met
    there. A trace that never reaches the threshold stops at max_rounds (or
    at the end of a shorter trace)."""
    last = min(len(trace), criterion.max_rounds)
    if last == 0:
        raise ConfigurationError("halting needs at least one round value")
    for i in range(last):
        if trace[i] >= criterion.threshold:
            return i + 1, True
    return last, False
