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
    threshold_met,
)
from fedsel.errors import ConfigurationError, ProtocolError, ShapeError
from fedsel.nn import ParameterVector
from fedsel.strategies import MetricsReport
from oracle import halt_round, scripted_halt

PAIR = ((1, 1),)  # two-parameter manifest: one weight, one bias


def _report(value: float) -> MetricsReport:
    return MetricsReport(
        accuracy=value, macro_precision=value, macro_recall=value, macro_f1=value,
    )


def _update(values, client_id=0, count=10, manifest=PAIR):
    return ClientUpdate(
        client_id=client_id,
        params=ParameterVector(np.asarray(values, dtype=float), manifest),
        train_sample_count=count,
    )


def test_plain_two_point_mean():
    result = aggregate([_update([1.0, 3.0]), _update([3.0, 5.0], client_id=1)])
    assert (result.values == np.array([2.0, 4.0])).all()


def test_plain_single_update_is_identity():
    u = _update([7.5, -2.25])
    assert (aggregate([u]).values == u.params.values).all()


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
        assert np.abs(aggregate(updates).values - oracle).max() <= 1e-15


def test_plain_is_permutation_invariant_and_bounded():
    rng = np.random.default_rng(7)
    updates = [_update(rng.standard_normal(2), client_id=i) for i in range(5)]
    forward_ = aggregate(updates).values
    backward = aggregate(list(reversed(updates))).values
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
    forward_ = aggregate(updates).values
    permuted = aggregate([updates[i] for i in order]).values
    magnitude = np.abs(np.array(vectors)).sum(axis=0) / k
    assert (np.abs(forward_ - permuted) <= 2 * k * np.spacing(magnitude)).all()


@settings(max_examples=300, deadline=None)
@given(
    trace=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]) | st.floats(0, 1),
                   min_size=1, max_size=8),
    data=st.data(),
)
def test_should_halt_agrees_with_halt_round(trace, data):
    """An industrial run_federation of up to ``rounds`` rounds, whose
    aggregated metric reads the trace, stops where halt_round says, and its
    last record's ``halted`` says whether the threshold was the reason."""
    rounds = data.draw(st.integers(1, len(trace)))
    threshold = data.draw(st.sampled_from(trace) | st.floats(0, 1))
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=threshold)
    assert scripted_halt(trace, crit, rounds) == halt_round(trace, crit, rounds)


def test_weighted_hand_oracle():
    updates = [
        _update([0.0, 0.0], client_id=0, count=1),
        _update([4.0, 4.0], client_id=1, count=3),
    ]
    assert (aggregate(updates, AggregationKind.WEIGHTED).values == np.array([3.0, 3.0])).all()


def test_weighted_uniform_counts_equal_plain():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        updates = [_update(rng.standard_normal(2), client_id=i, count=17) for i in range(k)]
        plain = aggregate(updates).values
        weighted = aggregate(updates, AggregationKind.WEIGHTED).values
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
        weighted = aggregate(updates, AggregationKind.WEIGHTED).values
        assert np.abs(weighted - oracle).max() <= 1e-15


def test_aggregate_dispatch():
    updates = [_update([2.0, 2.0], count=1), _update([4.0, 4.0], client_id=1, count=3)]
    assert (aggregate(updates, AggregationKind.PLAIN).values == np.array([3.0, 3.0])).all()
    assert (aggregate(updates, AggregationKind.WEIGHTED).values == np.array([3.5, 3.5])).all()


def test_aggregation_error_cases():
    with pytest.raises(ProtocolError):
        aggregate([])
    mixed = [_update([1.0, 2.0]), _update(np.zeros(6), client_id=1, manifest=((2, 2),))]
    with pytest.raises(ShapeError):
        aggregate(mixed)
    with pytest.raises(ConfigurationError):
        ClientUpdate(client_id=0, params=ParameterVector(np.zeros(2), PAIR), train_sample_count=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_update_is_rejected_naming_the_client(bad):
    updates = [_update([1.0, 2.0]), _update([3.0, bad], client_id=3)]
    for kind in AggregationKind:
        with pytest.raises(ProtocolError, match="client 3"):
            aggregate(updates, kind)


def test_aggregate_metrics_means_and_sums():
    a = MetricsReport(accuracy=0.8, macro_precision=0.75, macro_recall=0.85, macro_f1=0.7)
    b = _report(1.0)
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
    crit = HaltingCriterion(metric="accuracy", threshold=0.9)
    assert crit.metric is HaltingMetric.ACCURACY


def test_should_halt_threshold_and_cap():
    high = _report(0.95)
    low = _report(0.85)
    crit = HaltingCriterion(metric=HaltingMetric.ACCURACY, threshold=0.90)
    assert scripted_halt([0.95], crit, 5) == (1, True)
    assert scripted_halt([0.85, 0.95], crit, 5) == (2, True)
    assert scripted_halt([0.85] * 5, crit, 5) == (5, False)  # round cap
    assert threshold_met(high, crit)
    assert not threshold_met(low, crit)
    with pytest.raises(ConfigurationError):
        scripted_halt([0.95], crit, 0)


def test_halting_is_monotone_in_the_metric():
    crit = HaltingCriterion(metric=HaltingMetric.ACCURACY, threshold=0.75)
    reached = _report(0.75)  # the threshold exactly
    better = _report(0.875)
    assert threshold_met(reached, crit)
    assert threshold_met(better, crit)
    assert scripted_halt([0.5, 0.75], crit, 9) == (2, True)
    assert scripted_halt([0.5, 0.875], crit, 9) == (2, True)


def test_halt_round_scripted_traces():
    crit = HaltingCriterion(threshold=0.9)
    assert halt_round([0.5, 0.92, 0.99], crit, 5) == (2, True)
    assert halt_round([0.95], crit, 5) == (1, True)
    assert halt_round([0.1, 0.2, 0.3, 0.4, 0.5], crit, 5) == (5, False)
    assert halt_round([0.1, 0.2], crit, 5) == (2, False)
    # values past the round count are never consulted
    assert halt_round([0.1, 0.1, 0.1, 0.1, 0.1, 0.99], crit, 5) == (5, False)
    with pytest.raises(ConfigurationError):
        halt_round([], crit, 5)
