"""Server-side combination of client updates and threshold halting.

Client weights combine by one weighted mean: plain averaging weights every
client equally regardless of data volume, and weighted averaging is the
conventional sample-count-proportional mean. Metric reports aggregate by
unweighted mean so the halting decision mirrors plain weight averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError, ShapeError
from .nn import ParameterVector
from .strategies import METRIC_NAMES, MetricsReport


@dataclass(frozen=True, eq=False)
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


def aggregate(
    updates: Sequence[ClientUpdate], kind: AggregationKind = AggregationKind.PLAIN
) -> ParameterVector:
    """FedAvg's server update: the elementwise mean of the clients' selected
    weights, each weighted by 1.0 (plain) or by its training sample count
    (weighted), accumulated in client order and divided by the weights'
    sum. Equal counts reproduce the plain average."""
    kind = AggregationKind(kind)
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
    plain = kind is AggregationKind.PLAIN
    weights = [1.0 if plain else float(u.train_sample_count) for u in updates]
    total = np.zeros(len(updates[0].params))
    for w, u in zip(weights, updates):
        total += w * u.params.values
    return ParameterVector(total / sum(weights), manifest)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", HaltingMetric(self.metric))
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in [0, 1], got {self.threshold}")


def threshold_met(aggregated: MetricsReport, criterion: HaltingCriterion) -> bool:
    """True once the aggregated halting metric reaches the threshold
    (>=, not >)."""
    return aggregated.scalar(criterion.metric.value) >= criterion.threshold

