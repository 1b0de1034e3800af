import json
import math
import re
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsel.aggregation import ClientUpdate, HaltingCriterion, HaltingMetric, aggregate_metrics
from fedsel.config import load_config
from fedsel.data import (
    ClientDataset,
    CorpusSpec,
    EvalSets,
    PartitionSpec,
    Split,
    make_dataset,
    merge_for_centralized,
)
from fedsel.errors import ConfigurationError, DataError, ProtocolError
from fedsel import nn
from fedsel.nn import ModelSpec, OptimizerConfig, init_parameters, manifest_size
from fedsel.orchestrator import (
    BaselineConfig,
    CentralizedResult,
    FederationConfig,
    Workflow,
    atomic_write_text,
    baseline_stream,
    client_stream,
    round_metrics,
    run_baselines,
    run_centralized,
    run_federation,
    run_federations,
    write_metrics_logs,
)
from fedsel.reporting import rows_to_csv, run_comparison
from fedsel.strategies import (
    EarlyStopRun,
    MetricsReport,
    StrategyKind,
    score_params,
    shipped,
    train_stacked,
)
from oracle import rescored

MODEL = ModelSpec(layer_sizes=(16, 32, 5), seed=3)
SMALL = CorpusSpec(per_class_train=8, per_class_val=4, per_class_test=4, seed=21)
PARAMS = init_parameters(MODEL)
SPLIT = Split(np.zeros((2, 16)), np.zeros(2, dtype=int), np.arange(2))


@pytest.mark.parametrize("make", [
    lambda: init_parameters(MODEL),
    lambda: Split(SPLIT.x, SPLIT.y, SPLIT.ids),
    lambda: ClientDataset(0, 1, SPLIT, SPLIT, SPLIT),
    lambda: EvalSets(SPLIT, SPLIT),
    lambda: ClientUpdate(0, PARAMS, 2),
    lambda: CentralizedResult(PARAMS, 1, 1, (0.5,)),
    lambda: EarlyStopRun(trace=[0.5], best_params=PARAMS),
], ids=["ParameterVector", "Split", "ClientDataset", "EvalSets", "ClientUpdate",
        "CentralizedResult", "EarlyStopRun"])
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    """``==`` and ``hash`` of a dataclass that holds arrays return a value
    instead of raising on the arrays' elementwise ``==``: equality is
    identity, so equal fields do not make two objects equal."""
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
    assert len({a, a, b}) == 2


def small_dataset(noise=1.0, seed=21):
    cspec = replace(SMALL, noise_scale=noise, seed=seed)
    return make_dataset(cspec, PartitionSpec.default())


SEED = 13


def fast_cfg(**kwargs):
    base = dict(model=MODEL, rounds=2, local_epochs=2)
    base.update(kwargs)
    return FederationConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        fast_cfg(rounds=0)
    cfg = fast_cfg(workflow="academic", aggregation="weighted")
    assert cfg.workflow is Workflow.ACADEMIC


def test_client_streams_are_keyed_and_stable():
    a = client_stream(5, 1, 0).standard_normal(4)
    b = client_stream(5, 1, 0).standard_normal(4)
    assert (a == b).all()
    assert not (client_stream(5, 1, 1).standard_normal(4) == a).all()
    assert not (client_stream(5, 2, 0).standard_normal(4) == a).all()
    assert not (baseline_stream(5, 0).standard_normal(4) == a).all()


def test_academic_runs_fixed_horizon():
    clients, evals = small_dataset()
    records, params = run_federation(fast_cfg(rounds=3), "fews", (SEED, clients, evals))
    assert [r.round for r in records] == [1, 2, 3]
    for r in records:
        assert isinstance(r.metrics, MetricsReport)
        assert r.per_client_metrics == ()  # the academic flow scores no client
        assert len(r.selected_epochs) == 4
        assert not r.halted


def test_single_client_federation_is_local_training():
    cspec = replace(SMALL, seed=33)
    pools_clients, evals = make_dataset(cspec, PartitionSpec(client_count=1, missing_class={0: 2}))
    cfg = fast_cfg(rounds=1)
    records, params = run_federation(cfg, "fews", (SEED, pools_clients, evals))
    # plain mean of one client's update is that update, bitwise
    client = pools_clients[0]
    (run,) = train_stacked(
        [(init_parameters(MODEL), client.train, client.val, client_stream(SEED, 1, 0),
          f"client {client.client_id}")],
        MODEL, cfg.optimizer, cfg.local_epochs, cfg.local_epochs, cfg.selection_metric,
        ties_to_latest=True,
    )
    fews, _ = shipped(run, StrategyKind.FEWS)
    assert (params.values == fews.values).all()


def test_replay_determinism():
    """Same config, same data: identical records and final weights over
    three runs. tests/test_golden.py pins the bits themselves."""
    clients, evals = small_dataset()
    runs = [run_federation(fast_cfg(), "fews", (SEED, clients, evals)) for _ in range(3)]
    (rec_a, par_a), (rec_b, par_b), (rec_c, par_c) = runs
    assert (par_a.values == par_b.values).all()
    assert (par_a.values == par_c.values).all()
    for other in (rec_b, rec_c):
        for x, y in zip(rec_a, other):
            assert x.selected_epochs == y.selected_epochs
            assert x.metrics == y.metrics


def test_client_failure_becomes_protocol_error():
    clients, evals = small_dataset()
    empty = Split(np.zeros((0, 16)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    broken = list(clients)
    broken[2] = ClientDataset(
        client_id=2, missing_class=clients[2].missing_class,
        train=clients[2].train, val=empty, test=clients[2].test,
    )
    with pytest.raises(ProtocolError) as alone:
        run_federation(fast_cfg(), "fews", (SEED, broken, evals))
    # a failure in a client run that both federations share fails both alike
    outcomes = run_federations(fast_cfg(), ["fews", "oews"], [(13, broken, evals)])[0]
    for outcome in outcomes:
        assert isinstance(outcome, ProtocolError)
        assert str(outcome) == str(alone.value)


def test_lockstep_runs_cfg_under_the_given_strategies_and_cohort_seeds():
    """A lockstep call needs a strategy, a cohort and a client per cohort,
    and a master seed in range; each federation runs the cohort's seed and
    its own strategy, and one of them alone is ``run_federation``."""
    clients, evals = small_dataset()
    cfg = fast_cfg()
    for strategies, cohorts in (
        ([], [(13, clients, evals)]),
        (["fews"], []),
        (["fews"], [(13, clients, evals), (14, [], evals)]),
        (["fews"], [(-1, clients, evals)]),
    ):
        with pytest.raises(ConfigurationError):
            run_federations(cfg, strategies, cohorts)
    with pytest.raises(ConfigurationError):
        run_federation(cfg, "fews", (13, [], evals))
    ((records, params),) = run_federations(cfg, ["fews"], [(13, clients, evals)])[0]
    alone_records, alone_params = run_federation(cfg, "fews", (13, clients, evals))
    assert params.values.tobytes() == alone_params.values.tobytes()
    assert _records_key(records) == _records_key(alone_records)


def _records_key(records):
    """Every field of every record; repr of a float is exact, so equal keys
    mean bitwise-equal records."""
    return repr(records)


@contextmanager
def _scoring_stacks(module):
    """The row count of every ``score`` call made through ``module``'s
    ``score_params``, in call order."""
    import fedsel.strategies as strategies

    real_score_params, real_score = module.score_params, strategies.score
    stacks = []

    def score(weights, *args):
        stacks.append(len(weights))
        return real_score(weights, *args)

    def score_params(*args):
        with mock.patch.object(strategies, "score", score):
            return real_score_params(*args)

    with mock.patch.object(module, "score_params", score_params):
        yield stacks


def _assert_lockstep_matches_separate_runs(cfg, strategies, clients, evals, tmp_path):
    import fedsel.orchestrator as orchestrator

    trained = []
    real_train = orchestrator.train_stacked

    def train_stacked(rows, *args, **kwargs):
        trained.append(len(rows))
        return real_train(rows, *args, **kwargs)

    # client runs count stacked rows; scoring passes count rows per call
    with mock.patch.object(orchestrator, "train_stacked", train_stacked), \
            _scoring_stacks(orchestrator) as scored:
        together = run_federations(cfg, strategies, [(SEED, clients, evals)])[0]
    for i, (strategy, outcome) in enumerate(zip(strategies, together)):
        records, params = outcome
        alone_records, alone_params = run_federation(cfg, strategy, (SEED, clients, evals))
        assert params.values.tobytes() == alone_params.values.tobytes()
        assert _records_key(records) == _records_key(alone_records)
        logs = []
        for tag, recs in (("together", records), ("alone", alone_records)):
            jsonl, txt = write_metrics_logs(recs, "run", cfg.workflow, StrategyKind(strategy),
                                            tmp_path / f"{i}-{tag}")
            logs.append((jsonl.read_bytes(), txt.read_bytes()))
        assert logs[0] == logs[1]
    return together, sum(trained), scored


def _nan_loss(scores):
    return replace(scores, loss=float("nan"))


@contextmanager
def _spoiled_score(arm, epoch, spoil):
    """Within each ``train_stacked`` call the orchestrator makes, the rows
    whose (start weights, label, rng) ``arm`` picks get ``spoil`` applied
    to their validation scores at ``epoch``: the scores are keyed by (row,
    epoch), whatever window or stack they are scored in. A client-run call
    holds the rows of every seed of a campaign, and round-1 weights are
    equal across seeds, so an arm must pick the rows of one seed by their
    rng state or by weights from after round 1. Baseline calls pass
    through the same name; their rows start from the initial weights on
    baseline streams, which no arm here picks."""
    import fedsel.orchestrator as orchestrator

    real_train = orchestrator.train_stacked
    armed = set()

    def train_stacked(rows, *args, **kwargs):
        armed.update(rng for start, _, _, rng, label in rows if arm(start, label, rng))
        return real_train(rows, *args, **kwargs)

    def change(rng, at, scores):
        return spoil(scores) if rng in armed and at == epoch else scores

    with mock.patch.object(orchestrator, "train_stacked", train_stacked), rescored(change):
        yield


DIVERGING = dict(local_epochs=3, optimizer=OptimizerConfig(learning_rate=0.03, batch_size=8))


def test_lockstep_academic_equals_separate_runs(tmp_path):
    """FEWS and OEWS share round 1, then part: OEWS ships an earlier epoch in
    round 2. A second FEWS federation shares every FEWS run throughout."""
    clients, evals = small_dataset(noise=2.0, seed=55)
    together, trained, scored = _assert_lockstep_matches_separate_runs(
        fast_cfg(rounds=3, **DIVERGING), ["fews", "oews", "fews"], clients, evals, tmp_path
    )
    (fews, _), (oews, _) = together[:2]
    assert fews[1].selected_epochs != oews[1].selected_epochs
    assert fews[2].metrics.macro_f1 != oews[2].metrics.macro_f1
    # 4 clients: round 1 and 2 once, round 3 once per strategy
    assert trained == 4 + 4 + 8
    # one global-test call per round: round 1's shared weights, then two
    # distinct vectors in rounds 2 and 3
    assert scored == [1, 2, 2]


def test_last_record_reports_the_shipped_weights():
    """Run in lockstep, FEWS and OEWS part, and each federation's last
    record reports exactly its final weights on the global test set."""
    clients, evals = small_dataset(noise=2.0, seed=55)
    cfg = fast_cfg(rounds=3, **DIVERGING)
    outcomes = run_federations(cfg, ["fews", "oews"], [(SEED, clients, evals)])[0]
    assert outcomes[0][1].values.tobytes() != outcomes[1][1].values.tobytes()
    for records, params in outcomes:
        (shipped,) = score_params([params], MODEL, evals.global_test)
        assert records[-1].metrics == shipped.report


def test_lockstep_industrial_equals_separate_runs_that_halt_apart(tmp_path):
    """Threshold 0.85 on this corpus: the federations share rounds 1 and 2,
    FEWS halts in round 3 (0.875) and OEWS runs on alone to the cap."""
    clients, evals = small_dataset(noise=2.0, seed=55)
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.85)
    cfg = fast_cfg(rounds=4, workflow=Workflow.INDUSTRIAL, halting=crit, **DIVERGING)
    together, trained, scored = _assert_lockstep_matches_separate_runs(
        cfg, ["fews", "oews"], clients, evals, tmp_path
    )
    (fews, _), (oews, _) = together
    assert [r.halted for r in fews] == [False, False, True]
    assert [r.halted for r in oews] == [False, False, False, False]
    assert trained == 4 + 4 + 8 + 4
    # one call per client per round, over each distinct incoming weight vector
    assert scored == [1] * 4 + [1] * 4 + [2] * 4 + [1] * 4


def test_cohorts_equal_separate_calls_and_halt_apart(tmp_path):
    """Two seeds' industrial cohorts in one call, at threshold 0.8: the
    first cohort's federations share rounds 1 and 2 and halt in round 3,
    the second's part in round 1 and halt in round 2, so round 3 trains the
    first cohort alone. Each round is one ``train_stacked`` call over both
    cohorts, and every outcome equals a call with its cohort alone."""
    import fedsel.orchestrator as orchestrator

    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.8)
    cfg = fast_cfg(rounds=4, workflow=Workflow.INDUSTRIAL, halting=crit, **DIVERGING)
    strategies = [StrategyKind.FEWS, StrategyKind.OEWS]
    cohorts = [(13, *small_dataset(noise=2.0, seed=55)), (14, *small_dataset(noise=2.0, seed=56))]
    calls = []
    real = orchestrator.train_stacked

    def train_stacked(rows, *args, **kwargs):
        calls.append(len(rows))
        return real(rows, *args, **kwargs)

    with mock.patch.object(orchestrator, "train_stacked", train_stacked):
        together = run_federations(cfg, strategies, cohorts)
    assert calls == [4 + 4, 4 + 8, 8]
    assert [[len(records) for records, _ in outcomes] for outcomes in together] == [[3, 3], [2, 2]]
    for i, (cohort, outcomes) in enumerate(zip(cohorts, together)):
        alone = run_federations(cfg, strategies, [cohort])[0]
        for j, (strategy, (records, params), (alone_records, alone_params)) in enumerate(
            zip(strategies, outcomes, alone)
        ):
            assert params.values.tobytes() == alone_params.values.tobytes()
            assert _records_key(records) == _records_key(alone_records)
            logs = [
                tuple(p.read_bytes() for p in write_metrics_logs(
                    recs, "run", cfg.workflow, strategy, tmp_path / f"{i}-{j}-{tag}"))
                for tag, recs in (("together", records), ("alone", alone_records))
            ]
            assert logs[0] == logs[1]


@pytest.mark.parametrize("workflow", [Workflow.ACADEMIC, Workflow.INDUSTRIAL])
def test_a_failed_scoring_pass_fails_its_cohort_alone(workflow):
    """Two seeds' cohorts in one call. A label out of range in the first
    cohort's global test set (academic) or in its client 2's test split
    (industrial) fails that cohort's scoring pass, so both of its
    federations end with the DataError; the second cohort's outcomes are
    bitwise those of a call with it alone."""
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.8)
    cfg = fast_cfg(rounds=3, workflow=workflow, halting=crit, **DIVERGING)
    cohorts = [(13, *small_dataset(noise=2.0, seed=55)), (14, *small_dataset(noise=2.0, seed=56))]

    def spoiled(split):
        y = split.y.copy()
        y[0] = MODEL.class_count
        return replace(split, y=y)

    seed, clients, evals = cohorts[0]
    if workflow is Workflow.INDUSTRIAL:
        clients = [replace(c, test=spoiled(c.test)) if c.client_id == 2 else c for c in clients]
    else:
        evals = replace(evals, global_test=spoiled(evals.global_test))
    cohorts[0] = (seed, clients, evals)

    failed, kept = run_federations(cfg, ["fews", "oews"], cohorts)
    for outcome in failed:
        assert isinstance(outcome, DataError)
        assert "labels must lie in [0, 5), got range [0, 5]" in str(outcome)
    alone = run_federations(cfg, ["fews", "oews"], cohorts[1:])[0]
    assert len(kept[0][0]) > 1
    for (records, params), (alone_records, alone_params) in zip(kept, alone):
        assert params.values.tobytes() == alone_params.values.tobytes()
        assert _records_key(records) == _records_key(alone_records)


def test_a_failed_scoring_pass_keeps_a_run_s_own_earlier_error():
    """FEWS and OEWS part in round 2. In round 3, OEWS's client 1 run
    fails, and then the global scoring pass raises: OEWS ends with its own
    client error, FEWS with the scoring error."""
    import fedsel.orchestrator as orchestrator

    clients, evals = small_dataset(noise=2.0, seed=55)
    cfg = fast_cfg(rounds=3, **DIVERGING)
    parted = [
        run_federation(replace(cfg, rounds=2), s, (SEED, clients, evals))[1]
        for s in ("fews", "oews")
    ]
    assert parted[0].values.tobytes() != parted[1].values.tobytes()

    def oews_round_three(params, label, rng):
        return label == "client 1" and params.values.tobytes() == parted[1].values.tobytes()

    real, calls = orchestrator.score_params, []

    def score_params(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("round 3 scoring failed")
        return real(*args)

    with _spoiled_score(oews_round_three, 2, _nan_loss), \
            mock.patch.object(orchestrator, "score_params", score_params):
        fews, oews = run_federations(cfg, ["fews", "oews"], [(13, clients, evals)])[0]
    assert str(fews) == "round 3 scoring failed"
    assert isinstance(oews, ProtocolError)
    assert str(oews).startswith("client 1 failed in round 3: client 1 epoch 2")


def test_comparison_fails_only_the_federation_whose_own_run_fails():
    """Seed 1: OEWS ships an earlier epoch in round 1, so its round-2 client
    runs are its own. A NaN validation score in one of them (client 1,
    epoch 2) fails fl_oews alone; every other row is as in a clean run."""
    overrides = {
        "corpus.per_class_train": "8", "corpus.per_class_val": "4",
        "corpus.per_class_test": "4", "corpus.noise_scale": "2.5",
        "federation.rounds": "2", "federation.local_epochs": "3",
        "federation.learning_rate": "0.03", "federation.batch_size": "8",
        "baseline.max_epochs": "2", "baseline.patience": "2",
    }
    cfg, _ = load_config(overrides=overrides)
    seeds = [1, 3]
    clients, evals = make_dataset(replace(cfg.corpus, seed=1), cfg.partition)
    round_one = {
        s: run_federation(replace(cfg.federation, rounds=1), s, (1, clients, evals))[1]
        .values.tobytes()
        for s in ("fews", "oews")
    }
    assert round_one["fews"] != round_one["oews"]

    def oews_round_two(params, label, rng):
        return label == "client 1" and params.values.tobytes() == round_one["oews"]

    clean = run_comparison(cfg, seeds)
    with _spoiled_score(oews_round_two, 2, _nan_loss):
        rows = run_comparison(cfg, seeds)
    failed = [r for r in rows if r.status == "failed"]
    assert [(r.seed, r.variant) for r in failed] == [(1, "fl_oews"), (1, "fl_oews")]
    for r in failed:
        assert r.error == "client 1 failed in round 2: client 1 epoch 2: validation loss is nan"
    kept = [r for r in rows if r.status == "ok"]
    assert rows_to_csv(kept) == rows_to_csv(
        [r for r in clean if (r.seed, r.variant) != (1, "fl_oews")]
    )


def test_non_finite_score_names_client_round_and_epoch():
    """A validation loss forced to NaN in round 2, client 1, epoch 2 stops
    the run with an error naming all three, whether or not the loss is the
    selection metric."""
    clients, evals = small_dataset()
    round_two = client_stream(SEED, 2, 1).bit_generator.state

    def client_1_round_2(params, label, rng):
        return label == "client 1" and rng.bit_generator.state == round_two

    for metric in ("val_loss", "macro_f1"):
        cfg = fast_cfg(selection_metric=metric)
        with _spoiled_score(client_1_round_2, 2, _nan_loss):
            with pytest.raises(ProtocolError, match="client 1 failed in round 2: client 1 epoch 2: "
                                                    "validation loss is nan"):
                run_federation(cfg, "oews", (SEED, clients, evals))


def test_non_finite_baseline_loss_fails_that_baseline_alone():
    """The four local baselines train as one stack; a validation loss
    forced to NaN at client 2's epoch 2 fails that baseline with an error
    naming it and the epoch, and the other three match a clean call."""
    clients, _ = small_dataset()
    bcfg = BaselineConfig(max_epochs=3, patience=3)

    def rows():
        return [(f"client {c.client_id}", c.train, c.val, baseline_stream(SEED, c.client_id + 1))
                for c in clients]

    clean = run_baselines(bcfg, rows(), MODEL)
    spoiled_rows = rows()
    (target,) = [rng for label, _, _, rng in spoiled_rows if label == "client 2"]
    hits = []

    def change(rng, epoch, scores):
        if rng is target and epoch == 2:
            hits.append(epoch)
            return _nan_loss(scores)
        return scores

    with rescored(change):
        spoiled = run_baselines(bcfg, spoiled_rows, MODEL)
    assert hits == [2]
    assert isinstance(spoiled[2], DataError)
    assert str(spoiled[2]) == "client 2 epoch 2: validation loss is nan"
    for i in (0, 1, 3):
        assert spoiled[i].params.values.tobytes() == clean[i].params.values.tobytes()
        assert spoiled[i].trace == clean[i].trace


def test_comparison_fails_the_variant_whose_test_loss_is_not_finite():
    """A loss forced to NaN where seed 3's OEWS federation is scored on the
    global test set fails both of that variant's rows, naming the test set;
    every other row is as in a clean run."""
    import fedsel.reporting as reporting

    cfg, _ = load_config(overrides={
        "corpus.per_class_train": "8", "corpus.per_class_val": "4",
        "corpus.per_class_test": "4", "federation.rounds": "1", "federation.local_epochs": "2",
        "baseline.max_epochs": "2", "baseline.patience": "2",
    })
    seeds = [1, 3]
    real, calls = reporting.score_params, []

    def score_params(params, model, split):
        scores = real(params, model, split)
        calls.append(split)
        if len(calls) == 3:  # seed 3's global test set; fl_oews is the last variant
            scores[-1] = _nan_loss(scores[-1])
        return scores

    clean = run_comparison(cfg, seeds)
    with mock.patch.object(reporting, "score_params", score_params):
        rows = run_comparison(cfg, seeds)
    failed = [r for r in rows if r.status == "failed"]
    assert [(r.seed, r.variant, r.test_set) for r in failed] == [
        (3, "fl_oews", "global"), (3, "fl_oews", "external")
    ]
    for r in failed:
        assert r.error == "global test set: loss is nan"
    kept = [r for r in rows if r.status == "ok"]
    assert rows_to_csv(kept) == rows_to_csv(
        [r for r in clean if (r.seed, r.variant) != (3, "fl_oews")]
    )


def test_industrial_halts_at_first_qualifying_round():
    """Scout the per-round incoming-metric trajectory once, then check the
    loop stops exactly where a scripted scan of that trajectory says it
    should, for several thresholds."""
    clients, evals = small_dataset(noise=2.0, seed=55)

    def run_with(threshold):
        crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=threshold)
        cfg = fast_cfg(rounds=4, workflow=Workflow.INDUSTRIAL, halting=crit, local_epochs=3)
        return run_federation(cfg, "fews", (SEED, clients, evals))

    scout, _ = run_with(1.0)
    trace = [r.metrics.macro_f1 for r in scout]
    assert len(trace) == 4  # 1.0 unreachable on this corpus
    assert not scout[-1].halted

    candidates = {
        (trace[0] + trace[1]) / 2,
        (trace[1] + trace[2]) / 2,
        min(trace) / 2,
        1.0,
    }
    for threshold in candidates:
        expected = next((i + 1 for i, v in enumerate(trace) if v >= threshold), 4)
        records, _ = run_with(threshold)
        assert len(records) == expected
        assert [r.metrics.macro_f1 for r in records] == trace[:expected]
        assert records[-1].halted == (trace[expected - 1] >= threshold)
        for r in records[:-1]:
            assert not r.halted


def test_industrial_run_lasts_its_config_s_rounds():
    """An industrial federation that never meets its threshold runs
    exactly ``rounds`` rounds: the config's round count is its horizon."""
    clients, evals = small_dataset()
    cfg = FederationConfig(
        model=MODEL, rounds=8, local_epochs=1, workflow=Workflow.INDUSTRIAL,
        halting=HaltingCriterion(threshold=1.0),
    )
    records, _ = run_federation(cfg, "fews", (SEED, clients, evals))
    assert [r.round for r in records] == list(range(1, 9))
    assert not any(r.halted for r in records)


def test_industrial_record_shape():
    clients, evals = small_dataset()
    crit = HaltingCriterion(threshold=0.0)
    cfg = fast_cfg(workflow=Workflow.INDUSTRIAL, halting=crit)
    records, _ = run_federation(cfg, "fews", (SEED, clients, evals))
    assert len(records) == 1  # threshold 0 is met by any metric
    r = records[0]
    assert r.halted
    assert len(r.per_client_metrics) == 4
    # the round is judged by the unweighted mean of the client reports
    assert r.metrics == aggregate_metrics(r.per_client_metrics)


def test_baseline_config_validation():
    with pytest.raises(ConfigurationError):
        BaselineConfig(patience=200, max_epochs=100)
    with pytest.raises(ConfigurationError):
        BaselineConfig(max_epochs=0)


def centralized_inputs(noise=0.0, seed=60):
    cspec = replace(SMALL, noise_scale=noise, seed=seed, per_class_train=10, per_class_val=6)
    clients, _ = make_dataset(cspec, PartitionSpec.default())
    from fedsel.data import merge_for_centralized

    return merge_for_centralized(clients)


def test_centralized_early_stop_automaton():
    """On a noise-free corpus the val metric saturates; training must stop
    exactly `patience` epochs after the last strict improvement and return
    the snapshot from the best epoch."""
    train, val = centralized_inputs()
    bcfg = BaselineConfig(max_epochs=60, patience=7, optimizer=OptimizerConfig(learning_rate=0.01))
    result = run_centralized(bcfg, train, val, MODEL, baseline_stream(3, tag=0))
    assert result.epochs_run < 60
    assert result.epochs_run == result.best_epoch + 7
    assert result.trace[result.best_epoch - 1] == max(result.trace)
    # recorded val metric of the returned weights is the trace maximum
    (scores,) = score_params([result.params], MODEL, val)
    assert scores.report.macro_f1 == max(result.trace)


def _epochs_run(trace, patience):
    """The epoch a baseline stops at, as a plain loop: the first epoch
    after ``patience`` epochs in a row that do not beat the best value so
    far (an equal value counts against patience), or the last epoch."""
    best, stale = trace[0], 0
    for epoch, value in enumerate(trace[1:], 2):
        if value > best:
            best, stale = value, 0
        else:
            stale += 1
        if stale == patience:
            return epoch
    return len(trace)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_baselines_stop_on_scripted_plateaus(data):
    """Two stacked baselines whose val macro-F1 traces are scripted from
    three levels, so that plateaus and ties are common: each reports the
    earliest best epoch among those it trained, stops at the first epoch
    after ``patience`` non-improving epochs (ties counted) or at
    ``max_epochs``, and ships that best epoch's weights."""
    max_epochs = data.draw(st.integers(1, 8))
    patience = data.draw(st.integers(1, max_epochs))
    levels = st.sampled_from([0.25, 0.5, 0.75])
    traces = [
        data.draw(st.lists(levels, min_size=max_epochs, max_size=max_epochs)) for _ in range(2)
    ]
    train, val = centralized_inputs(noise=1.0)
    bcfg = BaselineConfig(max_epochs=max_epochs, patience=patience,
                          optimizer=OptimizerConfig(learning_rate=0.02, batch_size=8))
    rngs = [baseline_stream(5, tag) for tag in range(2)]
    script = dict(zip(rngs, traces))

    def scripted(rng, epoch, result):
        return replace(result, report=replace(result.report, macro_f1=script[rng][epoch - 1]))

    with rescored(scripted):
        results = run_baselines(
            bcfg, [(f"row {tag}", train, val, rng) for tag, rng in enumerate(rngs)], MODEL
        )
    for tag, (result, trace) in enumerate(zip(results, traces)):
        run = _epochs_run(trace, patience)
        trained = trace[:run]
        assert (result.epochs_run, result.trace) == (run, tuple(trained))
        assert result.best_epoch == trained.index(max(trained)) + 1
        weights = init_parameters(MODEL).values[None].copy()
        velocity, rng = np.zeros_like(weights), baseline_stream(5, tag)
        kernel = nn._EpochKernel(weights, velocity, MODEL, bcfg.optimizer, train.x[None],
                                 train.y[None])
        for _ in range(result.best_epoch):
            kernel([rng])
        assert result.params.values.tobytes() == weights[0].tobytes()


def test_centralized_patience_equal_to_cap_runs_everything():
    train, val = centralized_inputs()
    bcfg = BaselineConfig(max_epochs=10, patience=10)
    result = run_centralized(bcfg, train, val, MODEL, baseline_stream(3, tag=0))
    assert result.epochs_run == 10
    assert len(result.trace) == 10


def test_a_long_baseline_scores_once_per_window():
    """A 150-epoch run with patience 150, as the benchmark's
    ``centralized_long`` runs it, scores its epochs in windows of as many
    as ``nn.GATHER_VALUES`` values of snapshots hold: 92 epochs of this
    709-weight model, so 2 ``score`` calls where scoring after every epoch
    made 150."""
    import fedsel.strategies as strategies

    train, val = centralized_inputs()
    window = nn.GATHER_VALUES // manifest_size(MODEL.manifest)
    real, calls = strategies.score, []

    def score(weights, *args):
        calls.append(len(weights))
        return real(weights, *args)

    bcfg = BaselineConfig(max_epochs=150, patience=150)
    with mock.patch.object(strategies, "score", score):
        result = run_centralized(bcfg, train, val, MODEL, baseline_stream(3, tag=0))
    assert result.epochs_run == 150
    assert window == 92
    assert len(calls) == math.ceil(150 / window) == 2
    assert calls == [92, 58]


def test_centralized_improving_trace_returns_final_epoch():
    train, val = centralized_inputs(noise=1.0, seed=62)
    bcfg = BaselineConfig(max_epochs=4, patience=4, optimizer=OptimizerConfig(learning_rate=0.01))
    result = run_centralized(bcfg, train, val, MODEL, baseline_stream(9, tag=0))
    if all(b > a for a, b in zip(result.trace, result.trace[1:])):
        assert result.best_epoch == 4


def test_stacked_baselines_equal_separate_runs():
    """Four local baselines and the pooled model in one ``run_baselines``
    call: the locals share a stack and stop at different epochs, the pooled
    model trains alone. Every row equals a lone ``run_centralized`` call in
    every ``CentralizedResult`` field."""
    overrides = {
        "baseline.max_epochs": "12", "baseline.patience": "3",
        "baseline.learning_rate": "0.03", "corpus.noise_scale": "2.0", "corpus.seed": "2",
    }
    cfg, _ = load_config(overrides=overrides)
    clients, _ = make_dataset(cfg.corpus, cfg.partition)
    model = cfg.federation.model
    rows = [(f"client {c.client_id}", c.train, c.val, c.client_id + 1) for c in clients]
    rows.append(("centralized", *merge_for_centralized(clients), 0))
    stacked = run_baselines(
        cfg.baseline, [(label, train, val, baseline_stream(2, tag)) for label, train, val, tag in rows],
        model,
    )
    assert [r.epochs_run for r in stacked] == [5, 10, 5, 5, 6]
    for result, (_, train, val, tag) in zip(stacked, rows):
        alone = run_centralized(cfg.baseline, train, val, model, baseline_stream(2, tag))
        assert result.params.values.tobytes() == alone.params.values.tobytes()
        assert (result.best_epoch, result.epochs_run, result.trace) == (
            alone.best_epoch, alone.epochs_run, alone.trace
        )


def test_non_finite_weights_name_client_round_and_epoch():
    """A learning rate of 1e200 overflows every client's weights in round 1;
    the run fails with the first client and the first epoch whose weights
    are not finite, and lockstep federations fail alike. At 1e150 the
    weights stay finite through epoch 1 but the validation loss is NaN, and
    the run fails there."""
    clients, evals = small_dataset()
    for rate, reason in ((1e200, "weights are not finite"), (1e150, "validation loss is nan")):
        cfg = fast_cfg(optimizer=OptimizerConfig(learning_rate=rate))
        with pytest.raises(ProtocolError) as alone:
            run_federation(cfg, "fews", (SEED, clients, evals))
        outcomes = run_federations(cfg, ["fews", "oews"], [(SEED, clients, evals)])[0]
        assert re.fullmatch(
            rf"client 0 failed in round 1: client 0 epoch \d+: {reason}", str(alone.value)
        )
        assert [str(o) for o in outcomes] == [str(alone.value)] * 2


def test_metrics_logs_shape_and_determinism(tmp_path):
    clients, evals = small_dataset()
    cfg = fast_cfg()
    records, _ = run_federation(cfg, "oews", (SEED, clients, evals))

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    jsonl_a, txt_a = write_metrics_logs(records, "runx", cfg.workflow, StrategyKind.OEWS, out_a)
    jsonl_b, txt_b = write_metrics_logs(records, "runx", cfg.workflow, StrategyKind.OEWS, out_b)
    assert jsonl_a.read_bytes() == jsonl_b.read_bytes()
    assert txt_a.read_bytes() == txt_b.read_bytes()

    lines = jsonl_a.read_text().splitlines()
    assert len(lines) == len(records)
    entry = json.loads(lines[0])
    assert entry["run_id"] == "runx"
    assert entry["round"] == 1
    assert entry["workflow"] == "academic"
    assert entry["strategy"] == "oews"
    assert entry["halted"] is False
    assert len(entry["selected_epochs"]) == 4
    assert set(entry["metrics"]) == {"accuracy", "macro_precision", "macro_recall", "macro_f1"}
    assert entry["metrics"]["macro_f1"] == round(records[0].metrics.macro_f1, 6)
    assert len(txt_a.read_text().splitlines()) == len(records)


def test_round_metrics_rounds_the_record_report():
    """In both flows, round_metrics is the record's one report, each metric
    rounded to 6 decimals."""
    clients, evals = small_dataset()
    crit = HaltingCriterion(threshold=1.0)
    for cfg in (fast_cfg(), fast_cfg(workflow=Workflow.INDUSTRIAL, halting=crit)):
        records, _ = run_federation(cfg, "fews", (SEED, clients, evals))
        for r in records:
            m = r.metrics
            assert round_metrics(r) == {
                "accuracy": round(m.accuracy, 6),
                "macro_precision": round(m.macro_precision, 6),
                "macro_recall": round(m.macro_recall, 6),
                "macro_f1": round(m.macro_f1, 6),
            }


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "f.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files
