import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.aggregation import (
    AggregationKind,
    ClientUpdate,
    HaltingCriterion,
    HaltingMetric,
    aggregate,
    aggregate_metrics,
    aggregate_plain,
    aggregate_weighted,
    halt_round,
    should_halt,
    threshold_met,
)
from fedsel.errors import ConfigurationError, ProtocolError, ShapeError
from fedsel.nn import ParameterVector
from fedsel.strategies import MetricsReport, metrics_from_confusion

PAIR = ((1, 1),)  # two-parameter manifest: one weight, one bias


def _update(values, client_id=0, count=10, manifest=PAIR):
    return ClientUpdate(
        client_id=client_id,
        params=ParameterVector(np.asarray(values, dtype=float), manifest),
        train_sample_count=count,
    )


def test_plain_two_point_mean():
    result = aggregate_plain([_update([1.0, 3.0]), _update([3.0, 5.0], client_id=1)])
    assert (result.values == np.array([2.0, 4.0])).all()


def test_plain_single_update_is_identity():
    u = _update([7.5, -2.25])
    assert (aggregate_plain([u]).values == u.params.values).all()


def test_plain_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    manifest = ((3, 4), (4, 2))
    size = 3 * 4 + 4 + 4 * 2 + 2
    for _ in range(50):
        k = int(rng.integers(1, 9))
        vectors = [rng.standard_normal(size) for _ in range(k)]
        updates = [_update(v, client_id=i, manifest=manifest) for i, v in enumerate(vectors)]
        oracle = np.zeros(size)
        for v in vectors:
            oracle = oracle + v
        oracle = oracle / k
        assert np.abs(aggregate_plain(updates).values - oracle).max() <= 1e-15


def test_plain_is_permutation_invariant_and_bounded():
    rng = np.random.default_rng(7)
    updates = [_update(rng.standard_normal(2), client_id=i) for i in range(5)]
    forward_ = aggregate_plain(updates).values
    backward = aggregate_plain(list(reversed(updates))).values
    assert np.abs(forward_ - backward).max() <= 1e-15
    stacked = np.stack([u.params.values for u in updates])
    assert (forward_ >= stacked.min(axis=0) - 1e-15).all()
    assert (forward_ <= stacked.max(axis=0) + 1e-15).all()


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    vectors=st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1, max_size=8),
    data=st.data(),
)
def test_plain_permutation_moves_the_mean_by_summation_rounding_only(vectors, data):
    """Reordering the clients moves each element by at most the rounding of
    k - 1 additions and one division: 2k ulps of the mean magnitude. A
    bound of 1 ulp of the result does not hold once values cancel: the means
    of (1.1, 108, 0, -141) and of its reverse differ by 2 ulps."""
    k = len(vectors)
    order = data.draw(st.permutations(range(k)))
    updates = [_update(v, client_id=i) for i, v in enumerate(vectors)]
    forward_ = aggregate_plain(updates).values
    permuted = aggregate_plain([updates[i] for i in order]).values
    magnitude = np.abs(np.array(vectors)).sum(axis=0) / k
    assert (np.abs(forward_ - permuted) <= 2 * k * np.spacing(magnitude)).all()


def _report(value: float) -> MetricsReport:
    return MetricsReport(
        accuracy=value, macro_precision=value, macro_recall=value, macro_f1=value,
    )


@settings(max_examples=300, deadline=None)
@given(
    trace=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]) | st.floats(0, 1),
                   min_size=1, max_size=8),
    max_rounds=st.integers(1, 8),
    data=st.data(),
)
def test_should_halt_agrees_with_halt_round(trace, max_rounds, data):
    """Asking should_halt round by round stops where halt_round says, and
    threshold_met there says whether the threshold was the reason."""
    threshold = data.draw(st.sampled_from(trace) | st.floats(0, 1))
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=threshold,
                            max_rounds=max_rounds)
    stop, met = len(trace), False
    for t, value in enumerate(trace, start=1):
        if should_halt(_report(value), crit, t):
            stop, met = t, threshold_met(_report(value), crit)
            break
    assert halt_round(trace, crit) == (stop, met)


def test_weighted_hand_oracle():
    updates = [
        _update([0.0, 0.0], client_id=0, count=1),
        _update([4.0, 4.0], client_id=1, count=3),
    ]
    assert (aggregate_weighted(updates).values == np.array([3.0, 3.0])).all()


def test_weighted_uniform_counts_equal_plain():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        updates = [_update(rng.standard_normal(2), client_id=i, count=17) for i in range(k)]
        plain = aggregate_plain(updates).values
        weighted = aggregate_weighted(updates).values
        assert np.abs(plain - weighted).max() <= 1e-15


def test_weighted_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        counts = [int(rng.integers(1, 500)) for _ in range(k)]
        vectors = [rng.standard_normal(6) for _ in range(k)]
        updates = [
            _update(v, client_id=i, count=c, manifest=((2, 2),))
            for i, (v, c) in enumerate(zip(vectors, counts))
        ]
        total = np.zeros(6)
        for v, c in zip(vectors, counts):
            total = total + c * v
        oracle = total / sum(counts)
        assert np.abs(aggregate_weighted(updates).values - oracle).max() <= 1e-15


def test_aggregate_dispatch():
    updates = [_update([2.0, 2.0], count=1), _update([4.0, 4.0], client_id=1, count=3)]
    assert (aggregate(updates, AggregationKind.PLAIN).values == np.array([3.0, 3.0])).all()
    assert (aggregate(updates, AggregationKind.WEIGHTED).values == np.array([3.5, 3.5])).all()


def test_aggregation_error_cases():
    with pytest.raises(ProtocolError):
        aggregate_plain([])
    mixed = [_update([1.0, 2.0]), _update(np.zeros(6), client_id=1, manifest=((2, 2),))]
    with pytest.raises(ShapeError):
        aggregate_plain(mixed)
    with pytest.raises(ConfigurationError):
        ClientUpdate(client_id=0, params=ParameterVector(np.zeros(2), PAIR), train_sample_count=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_update_is_rejected_naming_the_client(bad):
    updates = [_update([1.0, 2.0]), _update([3.0, bad], client_id=3)]
    for kind in AggregationKind:
        with pytest.raises(ProtocolError, match="client 3"):
            aggregate(updates, kind)


def test_aggregate_metrics_means_and_sums():
    a = metrics_from_confusion(np.array([[4, 1], [1, 4]]))  # accuracy 0.8
    b = metrics_from_confusion(np.array([[5, 0], [0, 5]]))  # accuracy 1.0
    agg = aggregate_metrics([a, b])
    assert agg.accuracy == pytest.approx(0.9)
    assert agg.macro_f1 == pytest.approx((a.macro_f1 + b.macro_f1) / 2)
    same = aggregate_metrics([a, a, a])
    assert same.accuracy == pytest.approx(a.accuracy, abs=1e-15)
    assert same.macro_f1 == pytest.approx(a.macro_f1, abs=1e-15)


def test_aggregate_metrics_rejects_mismatch():
    with pytest.raises(ProtocolError):
        aggregate_metrics([])


def test_halting_criterion_validation():
    with pytest.raises(ConfigurationError):
        HaltingCriterion(threshold=1.5)
    with pytest.raises(ConfigurationError):
        HaltingCriterion(max_rounds=0)
    crit = HaltingCriterion(metric="accuracy", threshold=0.9, max_rounds=3)
    assert crit.metric is HaltingMetric.ACCURACY


def test_should_halt_threshold_and_cap():
    high = metrics_from_confusion(np.array([[19, 1], [1, 19]]))  # accuracy 0.95
    low = metrics_from_confusion(np.array([[17, 3], [3, 17]]))  # accuracy 0.85
    crit = HaltingCriterion(metric=HaltingMetric.ACCURACY, threshold=0.90, max_rounds=5)
    assert should_halt(high, crit, 1)
    assert not should_halt(low, crit, 1)
    assert should_halt(low, crit, 5)  # round cap
    assert threshold_met(high, crit)
    assert not threshold_met(low, crit)
    with pytest.raises(ConfigurationError):
        should_halt(high, crit, 0)


def test_halting_is_monotone_in_the_metric():
    crit = HaltingCriterion(metric=HaltingMetric.ACCURACY, threshold=0.75, max_rounds=9)
    reached = metrics_from_confusion(np.array([[3, 1], [1, 3]]))  # 0.75 exactly
    better = metrics_from_confusion(np.array([[4, 0], [1, 3]]))
    assert should_halt(reached, crit, 2)
    assert should_halt(better, crit, 2)


def test_halt_round_scripted_traces():
    crit = HaltingCriterion(threshold=0.9, max_rounds=5)
    assert halt_round([0.5, 0.92, 0.99], crit) == (2, True)
    assert halt_round([0.95], crit) == (1, True)
    assert halt_round([0.1, 0.2, 0.3, 0.4, 0.5], crit) == (5, False)
    assert halt_round([0.1, 0.2], crit) == (2, False)
    # values past max_rounds are never consulted
    assert halt_round([0.1, 0.1, 0.1, 0.1, 0.1, 0.99], crit) == (5, False)
    with pytest.raises(ConfigurationError):
        halt_round([], crit)
