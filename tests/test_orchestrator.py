import json
import re
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fedsel.aggregation import HaltingCriterion, HaltingMetric, aggregate_metrics
from fedsel.config import load_config
from fedsel.data import (
    ClientDataset,
    CorpusSpec,
    PartitionSpec,
    Split,
    make_dataset,
    merge_for_centralized,
)
from fedsel.errors import ConfigurationError, DataError, ProtocolError
from fedsel.nn import ModelSpec, OptimizerConfig
from fedsel.orchestrator import (
    BaselineConfig,
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
from fedsel.strategies import MetricsReport, StrategyKind, evaluate

MODEL = ModelSpec(layer_sizes=(16, 32, 5), seed=3)
SMALL = CorpusSpec(per_class_train=8, per_class_val=4, per_class_test=4, seed=21)


def small_dataset(noise=1.0, seed=21):
    cspec = replace(SMALL, noise_scale=noise, seed=seed)
    return make_dataset(cspec, PartitionSpec.default())


def fast_cfg(**kwargs):
    base = dict(model=MODEL, rounds=2, local_epochs=2, master_seed=13)
    base.update(kwargs)
    return FederationConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        fast_cfg(rounds=0)
    with pytest.raises(ConfigurationError):
        fast_cfg(workflow=Workflow.INDUSTRIAL)  # no halting criterion
    cfg = fast_cfg(strategy="oews", workflow="academic", aggregation="weighted")
    assert cfg.strategy is StrategyKind.OEWS
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
    records, params = run_federation(fast_cfg(rounds=3), clients, evals)
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
    records, params = run_federation(cfg, pools_clients, evals)
    # plain mean of one client's update is that update, bitwise
    from fedsel.strategies import run_local
    from fedsel.nn import init_parameters

    expected = run_local(
        init_parameters(MODEL), MODEL, pools_clients[0], cfg.optimizer,
        cfg.local_epochs, cfg.strategy, client_stream(cfg.master_seed, 1, 0),
        cfg.selection_metric,
    )
    assert (params.values == expected.selected_params.values).all()


def test_replay_determinism():
    """Same config, same data: identical records and final weights over
    three runs. tests/test_golden.py pins the bits themselves."""
    clients, evals = small_dataset()
    runs = [run_federation(fast_cfg(), clients, evals) for _ in range(3)]
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
        run_federation(fast_cfg(), broken, evals)
    # a failure in a client run that both federations share fails both alike
    outcomes = run_federations([([fast_cfg(), fast_cfg(strategy="oews")], broken, evals)])[0]
    for outcome in outcomes:
        assert isinstance(outcome, ProtocolError)
        assert str(outcome) == str(alone.value)


def test_lockstep_needs_configs_that_differ_only_in_strategy():
    clients, evals = small_dataset()
    with pytest.raises(ConfigurationError):
        run_federations([([], clients, evals)])[0]
    with pytest.raises(ConfigurationError):
        run_federations([([fast_cfg(), fast_cfg(strategy="oews", rounds=3)], clients, evals)])[0]
    with pytest.raises(ConfigurationError):
        run_federations([([fast_cfg(), fast_cfg(master_seed=14)], clients, evals)])[0]
    with pytest.raises(ConfigurationError):
        run_federation(fast_cfg(), [], evals)


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


def _assert_lockstep_matches_separate_runs(cfgs, clients, evals, tmp_path):
    import fedsel.orchestrator as orchestrator

    trained = []
    real_train = orchestrator.train_local

    def train_local(rows, *args):
        trained.append(len(rows))
        return real_train(rows, *args)

    # client runs count stacked rows; scoring passes count rows per call
    with mock.patch.object(orchestrator, "train_local", train_local), \
            _scoring_stacks(orchestrator) as scored:
        together = run_federations([(cfgs, clients, evals)])[0]
    for i, (cfg, outcome) in enumerate(zip(cfgs, together)):
        records, params = outcome
        alone_records, alone_params = run_federation(cfg, clients, evals)
        assert params.values.tobytes() == alone_params.values.tobytes()
        assert _records_key(records) == _records_key(alone_records)
        logs = []
        for tag, recs in (("together", records), ("alone", alone_records)):
            jsonl, txt = write_metrics_logs(recs, "run", cfg.workflow, cfg.strategy,
                                            tmp_path / f"{i}-{tag}")
            logs.append((jsonl.read_bytes(), txt.read_bytes()))
        assert logs[0] == logs[1]
    return together, sum(trained), scored


def _nan_macro_f1(scores):
    return replace(scores, report=replace(scores.report, macro_f1=float("nan")))


@contextmanager
def _spoiled_score(arm, epoch, spoil):
    """Within each ``orchestrator.train_local`` call, the rows (incoming
    weights, client, rng) that ``arm`` picks get ``spoil`` applied to their
    validation scores at ``epoch``. Assumes one stack per call (equal client
    sizes), so a row's index in the call is its index in the stack up to the
    spoiled epoch. A call holds the rows of every seed of a campaign, and
    round-1 weights are equal across seeds, so an arm must pick the rows of
    one seed by their rng state or by weights from after round 1."""
    import fedsel.orchestrator as orchestrator
    import fedsel.strategies as strategies

    real_train, real_score = orchestrator.train_local, strategies.score
    armed = {"rows": [], "epoch": 0}

    def train_local(rows, *args):
        assert len({(len(c.train), len(c.val)) for _, c, _ in rows}) == 1
        armed.update(rows=[i for i, row in enumerate(rows) if arm(*row)], epoch=0)
        try:
            return real_train(rows, *args)
        finally:
            armed["rows"] = []

    def score(*args):
        result = real_score(*args)
        if armed["rows"]:
            armed["epoch"] += 1
            if armed["epoch"] == epoch:
                for i in armed["rows"]:
                    result[i] = spoil(result[i])
        return result

    with mock.patch.object(orchestrator, "train_local", train_local), \
            mock.patch.object(strategies, "score", score):
        yield


DIVERGING = dict(local_epochs=3, optimizer=OptimizerConfig(learning_rate=0.03, batch_size=8))


def test_lockstep_academic_equals_separate_runs(tmp_path):
    """FEWS and OEWS share round 1, then part: OEWS ships an earlier epoch in
    round 2. A second FEWS config shares every FEWS run throughout."""
    clients, evals = small_dataset(noise=2.0, seed=55)
    cfgs = [fast_cfg(strategy=s, rounds=3, **DIVERGING) for s in ("fews", "oews", "fews")]
    together, trained, scored = _assert_lockstep_matches_separate_runs(
        cfgs, clients, evals, tmp_path
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
    cfgs = [fast_cfg(strategy=s, rounds=3, **DIVERGING) for s in ("fews", "oews")]
    outcomes = run_federations([(cfgs, clients, evals)])[0]
    assert outcomes[0][1].values.tobytes() != outcomes[1][1].values.tobytes()
    for records, params in outcomes:
        shipped = evaluate(params, MODEL, evals.global_test.x, evals.global_test.y)
        assert records[-1].metrics == shipped


def test_lockstep_industrial_equals_separate_runs_that_halt_apart(tmp_path):
    """Threshold 0.85 on this corpus: the federations share rounds 1 and 2,
    FEWS halts in round 3 (0.875) and OEWS runs on alone to the cap."""
    clients, evals = small_dataset(noise=2.0, seed=55)
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.85, max_rounds=4)
    cfgs = [
        fast_cfg(strategy=s, workflow=Workflow.INDUSTRIAL, halting=crit, **DIVERGING)
        for s in ("fews", "oews")
    ]
    together, trained, scored = _assert_lockstep_matches_separate_runs(
        cfgs, clients, evals, tmp_path
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
    first cohort alone. Each round is one ``train_local`` call over both
    cohorts, and every outcome equals a call with its cohort alone."""
    import fedsel.orchestrator as orchestrator

    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.8, max_rounds=4)
    cohorts = []
    for data_seed, master_seed in ((55, 13), (56, 14)):
        clients, evals = small_dataset(noise=2.0, seed=data_seed)
        cfgs = [
            fast_cfg(strategy=s, workflow=Workflow.INDUSTRIAL, halting=crit,
                     master_seed=master_seed, **DIVERGING)
            for s in ("fews", "oews")
        ]
        cohorts.append((cfgs, clients, evals))
    calls = []
    real = orchestrator.train_local

    def train_local(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    with mock.patch.object(orchestrator, "train_local", train_local):
        together = run_federations(cohorts)
    assert calls == [4 + 4, 4 + 8, 8]
    assert [[len(records) for records, _ in outcomes] for outcomes in together] == [[3, 3], [2, 2]]
    for i, (cohort, outcomes) in enumerate(zip(cohorts, together)):
        alone = run_federations([cohort])[0]
        for j, (cfg, (records, params), (alone_records, alone_params)) in enumerate(
            zip(cohort[0], outcomes, alone)
        ):
            assert params.values.tobytes() == alone_params.values.tobytes()
            assert _records_key(records) == _records_key(alone_records)
            logs = [
                tuple(p.read_bytes() for p in write_metrics_logs(
                    recs, "run", cfg.workflow, cfg.strategy, tmp_path / f"{i}-{j}-{tag}"))
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
    crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=0.8, max_rounds=3)
    flow = dict(workflow=workflow, halting=crit if workflow is Workflow.INDUSTRIAL else None)
    cohorts = []
    for data_seed, master_seed in ((55, 13), (56, 14)):
        clients, evals = small_dataset(noise=2.0, seed=data_seed)
        cfgs = [fast_cfg(strategy=s, master_seed=master_seed, **flow, **DIVERGING)
                for s in ("fews", "oews")]
        cohorts.append((cfgs, clients, evals))

    def spoiled(split):
        y = split.y.copy()
        y[0] = MODEL.class_count
        return replace(split, y=y)

    cfgs, clients, evals = cohorts[0]
    if workflow is Workflow.INDUSTRIAL:
        clients = [replace(c, test=spoiled(c.test)) if c.client_id == 2 else c for c in clients]
    else:
        evals = replace(evals, global_test=spoiled(evals.global_test))
    cohorts[0] = (cfgs, clients, evals)

    failed, kept = run_federations(cohorts)
    for outcome in failed:
        assert isinstance(outcome, DataError)
        assert "labels must lie in [0, 5), got range [0, 5]" in str(outcome)
    alone = run_federations(cohorts[1:])[0]
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
    cfgs = [fast_cfg(strategy=s, rounds=3, **DIVERGING) for s in ("fews", "oews")]
    parted = [run_federation(replace(cfg, rounds=2), clients, evals)[1] for cfg in cfgs]
    assert parted[0].values.tobytes() != parted[1].values.tobytes()

    def oews_round_three(params, client, rng):
        return client.client_id == 1 and params.values.tobytes() == parted[1].values.tobytes()

    real, calls = orchestrator.score_params, []

    def score_params(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("round 3 scoring failed")
        return real(*args)

    with _spoiled_score(oews_round_three, 2, _nan_macro_f1), \
            mock.patch.object(orchestrator, "score_params", score_params):
        fews, oews = run_federations([(cfgs, clients, evals)])[0]
    assert str(fews) == "round 3 scoring failed"
    assert isinstance(oews, ProtocolError)
    assert str(oews).startswith("client 1 failed in round 3: client 1 epoch 2")


@pytest.mark.parametrize("change", [
    dict(rounds=3),
    dict(local_epochs=3),
    dict(optimizer=OptimizerConfig(learning_rate=0.03)),
    dict(model=ModelSpec(layer_sizes=(16, 8, 5), seed=3)),
    dict(selection_metric="val_loss"),
    dict(aggregation="weighted"),
    dict(workflow=Workflow.INDUSTRIAL, halting=HaltingCriterion(max_rounds=2)),
])
def test_cohorts_may_differ_only_in_strategy_and_master_seed(change):
    clients, evals = small_dataset()
    other = small_dataset(seed=22)
    with pytest.raises(ConfigurationError, match="differ only in strategy and master_seed"):
        run_federations([
            ([fast_cfg()], clients, evals),
            ([fast_cfg(strategy="oews", master_seed=14, **change)], *other),
        ])


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
        s: run_federation(replace(cfg.federation, strategy=s, rounds=1, master_seed=1),
                          clients, evals)[1].values.tobytes()
        for s in ("fews", "oews")
    }
    assert round_one["fews"] != round_one["oews"]

    def oews_round_two(params, client, rng):
        return client.client_id == 1 and params.values.tobytes() == round_one["oews"]

    clean = run_comparison(cfg, seeds)
    with _spoiled_score(oews_round_two, 2, _nan_macro_f1):
        rows = run_comparison(cfg, seeds)
    failed = [r for r in rows if r.status == "failed"]
    assert [(r.seed, r.variant) for r in failed] == [(1, "fl_oews"), (1, "fl_oews")]
    for r in failed:
        assert r.error == "client 1 failed in round 2: client 1 epoch 2: validation macro_f1 is nan"
    kept = [r for r in rows if r.status == "ok"]
    assert rows_to_csv(kept) == rows_to_csv(
        [r for r in clean if (r.seed, r.variant) != (1, "fl_oews")]
    )


def test_non_finite_score_names_client_round_and_epoch():
    """A validation loss forced to NaN in round 2, client 1, epoch 2 stops
    the run with an error naming all three."""
    clients, evals = small_dataset()
    cfg = fast_cfg(selection_metric="val_loss", strategy="oews")
    round_two = client_stream(cfg.master_seed, 2, 1).bit_generator.state

    def client_1_round_2(params, client, rng):
        return client.client_id == 1 and rng.bit_generator.state == round_two

    with _spoiled_score(client_1_round_2, 2, lambda s: replace(s, loss=float("nan"))):
        with pytest.raises(ProtocolError, match="client 1 failed in round 2: client 1 epoch 2"):
            run_federation(cfg, clients, evals)


def test_industrial_halts_at_first_qualifying_round():
    """Scout the per-round incoming-metric trajectory once, then check the
    loop stops exactly where a scripted scan of that trajectory says it
    should, for several thresholds."""
    clients, evals = small_dataset(noise=2.0, seed=55)

    def run_with(threshold):
        crit = HaltingCriterion(metric=HaltingMetric.MACRO_F1, threshold=threshold, max_rounds=4)
        cfg = fast_cfg(workflow=Workflow.INDUSTRIAL, halting=crit, local_epochs=3)
        return run_federation(cfg, clients, evals)

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


def test_industrial_record_shape():
    clients, evals = small_dataset()
    crit = HaltingCriterion(threshold=0.0, max_rounds=5)
    cfg = fast_cfg(workflow=Workflow.INDUSTRIAL, halting=crit)
    records, _ = run_federation(cfg, clients, evals)
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
    report = evaluate(result.params, MODEL, val.x, val.y)
    assert report.macro_f1 == max(result.trace)


def test_centralized_patience_equal_to_cap_runs_everything():
    train, val = centralized_inputs()
    bcfg = BaselineConfig(max_epochs=10, patience=10)
    result = run_centralized(bcfg, train, val, MODEL, baseline_stream(3, tag=0))
    assert result.epochs_run == 10
    assert len(result.trace) == 10


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
    """A learning rate of 1e150 overflows every client's weights in round 1;
    the run fails with the first client and the first epoch whose weights
    are not finite, and lockstep federations fail alike."""
    clients, evals = small_dataset()
    cfg = fast_cfg(optimizer=OptimizerConfig(learning_rate=1e150))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ProtocolError) as alone:
            run_federation(cfg, clients, evals)
        outcomes = run_federations([([cfg, replace(cfg, strategy="oews")], clients, evals)])[0]
    assert re.fullmatch(
        r"client 0 failed in round 1: client 0 epoch \d+: weights are not finite", str(alone.value)
    )
    assert [str(o) for o in outcomes] == [str(alone.value)] * 2


def test_metrics_logs_shape_and_determinism(tmp_path):
    clients, evals = small_dataset()
    cfg = fast_cfg(strategy="oews")
    records, _ = run_federation(cfg, clients, evals)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    jsonl_a, txt_a = write_metrics_logs(records, "runx", cfg.workflow, cfg.strategy, out_a)
    jsonl_b, txt_b = write_metrics_logs(records, "runx", cfg.workflow, cfg.strategy, out_b)
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
    crit = HaltingCriterion(threshold=1.0, max_rounds=2)
    for cfg in (fast_cfg(), fast_cfg(workflow=Workflow.INDUSTRIAL, halting=crit)):
        records, _ = run_federation(cfg, clients, evals)
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
