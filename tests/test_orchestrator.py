import json
from dataclasses import replace

import numpy as np
import pytest

from fedsel.aggregation import HaltingCriterion, HaltingMetric
from fedsel.data import ClientDataset, CorpusSpec, PartitionSpec, Split, make_dataset
from fedsel.errors import ConfigurationError, ProtocolError
from fedsel.nn import ModelSpec, OptimizerConfig
from fedsel.orchestrator import (
    BaselineConfig,
    FederationConfig,
    Workflow,
    atomic_write_text,
    baseline_stream,
    client_stream,
    round_metrics,
    run_centralized,
    run_federation,
    write_metrics_logs,
)
from fedsel.strategies import StrategyKind, evaluate

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
        assert r.global_metrics is not None
        assert r.aggregated_metrics is None
        assert len(r.per_client_metrics) == 4
        assert len(r.selected_epochs) == 4
        assert not r.halted


def test_single_client_federation_is_local_training():
    cspec = replace(SMALL, seed=33)
    pools_clients, evals = make_dataset(cspec, PartitionSpec(client_count=1, missing_class={0: 2}))
    cfg = fast_cfg(client_count=1, rounds=1)
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
            assert x.global_metrics.macro_f1 == y.global_metrics.macro_f1
            assert (x.global_metrics.confusion == y.global_metrics.confusion).all()


def test_client_count_mismatch_rejected():
    clients, evals = small_dataset()
    with pytest.raises(ConfigurationError):
        run_federation(fast_cfg(client_count=3), clients, evals)


def test_client_failure_becomes_protocol_error():
    clients, evals = small_dataset()
    empty = Split(np.zeros((0, 16)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    broken = list(clients)
    broken[2] = ClientDataset(
        client_id=2, missing_class=clients[2].missing_class,
        train=clients[2].train, val=empty, test=clients[2].test,
    )
    with pytest.raises(ProtocolError):
        run_federation(fast_cfg(), broken, evals)


def test_non_finite_score_names_client_round_and_epoch(monkeypatch):
    """A validation loss forced to NaN in round 2, client 1, epoch 2 stops
    the run with an error naming all three."""
    import fedsel.strategies as strategies

    real = strategies.score
    calls = []

    def nan_at_call_12(*args):
        # per round: 4 clients x 2 epochs of validation scoring, then the
        # global evaluation; call 12 (0-based) is round 2, client 1, epoch 2
        result = real(*args)
        calls.append(None)
        return replace(result, loss=float("nan")) if len(calls) == 13 else result

    monkeypatch.setattr(strategies, "score", nan_at_call_12)
    clients, evals = small_dataset()
    cfg = fast_cfg(selection_metric="val_loss", strategy="oews")
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
    trace = [r.aggregated_metrics.macro_f1 for r in scout]
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
        assert [r.aggregated_metrics.macro_f1 for r in records] == trace[:expected]
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
    assert r.global_metrics is None
    assert len(r.per_client_metrics) == 4
    # aggregated scalars are the unweighted client means
    mean_f1 = sum(m.macro_f1 for m in r.per_client_metrics) / 4
    assert r.aggregated_metrics.macro_f1 == pytest.approx(mean_f1, abs=1e-15)


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
    assert entry["metrics"]["macro_f1"] == round(records[0].global_metrics.macro_f1, 6)
    assert len(txt_a.read_text().splitlines()) == len(records)


def test_round_metrics_prefers_available_report():
    clients, evals = small_dataset()
    records, _ = run_federation(fast_cfg(), clients, evals)
    metrics = round_metrics(records[0])
    assert metrics["accuracy"] == round(records[0].global_metrics.accuracy, 6)


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "f.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files
