import math
from dataclasses import replace

import numpy as np
import pytest

from fedsel.config import load_config
from fedsel.errors import ConfigurationError
from fedsel.nn import OptimizerConfig
from fedsel.orchestrator import BaselineConfig
from fedsel.presets import preset_run_config
from fedsel.reporting import (
    METRIC_COLUMNS,
    ComparisonRow,
    csv_to_rows,
    rows_to_csv,
    run_comparison,
    summarize,
    summary_to_csv,
    summary_to_text,
    variant_order,
    write_comparison,
)


def tiny_cfg(**extra):
    overrides = {
        "corpus.per_class_train": "8",
        "corpus.per_class_val": "4",
        "corpus.per_class_test": "4",
        "federation.rounds": "2",
        "federation.local_epochs": "2",
        "baseline.max_epochs": "4",
        "baseline.patience": "4",
    }
    overrides.update(extra)
    cfg, _ = load_config(overrides=overrides)
    return cfg


@pytest.fixture(scope="module")
def campaign():
    return run_comparison(tiny_cfg(), seeds=[1, 2])


def test_campaign_row_inventory(campaign):
    # 4 locals + centralized + 2 federations, each on 2 test sets, 2 seeds
    assert len(campaign) == 7 * 2 * 2
    assert {r.seed for r in campaign} == {1, 2}
    assert {r.test_set for r in campaign} == {"global", "external"}
    assert variant_order(campaign) == [
        "local_client_0",
        "local_client_1",
        "local_client_2",
        "local_client_3",
        "centralized",
        "fl_fews",
        "fl_oews",
    ]
    for r in campaign:
        assert r.status == "ok"
        assert set(r.metrics) == set(METRIC_COLUMNS)
        for v in r.metrics.values():
            assert 0.0 <= v <= 1.0


def test_campaign_is_reproducible(campaign):
    again = run_comparison(tiny_cfg(), seeds=[1, 2])
    assert len(again) == len(campaign)
    for a, b in zip(campaign, again):
        assert a == b


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigurationError):
        run_comparison(tiny_cfg(), seeds=[])


def test_repeated_seed_rejected():
    """A repeated seed would run twice and count twice in the summary."""
    with pytest.raises(ConfigurationError, match="seed 1 is repeated"):
        run_comparison(preset_run_config("elevated_noise"), [1, 1])
    with pytest.raises(ConfigurationError, match="seed 2 is repeated"):
        run_comparison(tiny_cfg(), [2, 3, 2])


def test_lockstep_seeds_equal_single_seed_campaigns():
    """Seeds in lockstep, given out of order, give the same bytes as one
    campaign per seed: the local baselines of the three seeds stop after 4
    to 9 of their 10 epochs, and FEWS and OEWS end apart in every seed."""
    cfg = tiny_cfg(**{
        "corpus.noise_scale": "2.5", "federation.local_epochs": "3",
        "federation.learning_rate": "0.03", "federation.batch_size": "8",
        "baseline.max_epochs": "10", "baseline.patience": "2", "baseline.learning_rate": "0.05",
    })
    seeds = [3, 1, 2]
    together = run_comparison(cfg, seeds)
    assert rows_to_csv(together) == rows_to_csv(
        [row for seed in seeds for row in run_comparison(cfg, [seed])]
    )
    fl = {(r.seed, r.variant): r.metrics for r in together if r.test_set == "global"}
    assert all(fl[s, "fl_fews"] != fl[s, "fl_oews"] for s in seeds)


def test_summarize_handles_failed_rows():
    rows = [
        ComparisonRow(1, "centralized", "global", "failed", None, "boom"),
        ComparisonRow(1, "centralized", "external", "failed", None, "boom"),
        ComparisonRow(1, "fl_fews", "global", "ok", {m: 0.5 for m in METRIC_COLUMNS}),
        ComparisonRow(1, "fl_fews", "external", "ok", {m: 0.5 for m in METRIC_COLUMNS}),
    ]
    summaries = summarize(rows)
    failed = [s for s in summaries if s.variant == "centralized"]
    assert all(s.ok == 0 and s.failed == 1 for s in failed)
    assert all(math.isnan(s.means["macro_f1"]) for s in failed)
    ok = [s for s in summaries if s.variant == "fl_fews"]
    assert all(s.ok == 1 and s.failed == 0 for s in ok)


def test_run_comparison_survives_variant_exception(monkeypatch):
    import fedsel.reporting as reporting

    real = reporting.run_baselines

    def flaky(*args, **kwargs):
        results = real(*args, **kwargs)
        results[0] = RuntimeError("synthetic failure")  # the first baseline row fails alone
        return results

    monkeypatch.setattr(reporting, "run_baselines", flaky)
    rows = run_comparison(tiny_cfg(), seeds=[3])
    bad = [r for r in rows if r.status == "failed"]
    assert len(bad) == 2  # one variant, both test sets
    assert all(r.variant == "local_client_0" for r in bad)
    assert all("synthetic failure" in r.error for r in bad)
    assert sum(r.status == "ok" for r in rows) == len(rows) - 2


def test_each_seed_and_test_set_is_scored_in_one_call(monkeypatch):
    """A seed's final weights go through one ``score_params`` call, and so
    one ``score`` call, per test set. Variants whose weights are bitwise
    equal share a row of the stack and get equal rows; a seed with no
    weights to score makes its calls on an empty stack."""
    import fedsel.reporting as reporting
    import fedsel.strategies as strategies

    real_score_params, real_score = reporting.score_params, strategies.score
    real_baselines = reporting.run_baselines
    stacks = []

    def counted(weights, *args):
        stacks.append(np.array(weights))
        return real_score(weights, *args)

    def score_params(*args):
        with monkeypatch.context() as m:
            m.setattr(strategies, "score", counted)
            return real_score_params(*args)

    def twins(*args, **kwargs):
        results = real_baselines(*args, **kwargs)
        results[1] = results[0]  # seed 1's client 1 ships client 0's weights
        return results

    monkeypatch.setattr(reporting, "score_params", score_params)
    monkeypatch.setattr(reporting, "run_baselines", twins)
    rows = run_comparison(tiny_cfg(), seeds=[1, 2])
    assert len(stacks) == 4  # 2 seeds x 2 test sets
    for stack in stacks:
        assert len({w.tobytes() for w in stack}) == len(stack)
    assert len(stacks[0]) == len(stacks[1]) < 7
    assert all(r.status == "ok" for r in rows)
    by_key = {(r.seed, r.variant, r.test_set): r.metrics for r in rows}
    for test_set in ("global", "external"):
        assert by_key[1, "local_client_1", test_set] == by_key[1, "local_client_0", test_set]

    def fails(*args, **kwargs):
        raise RuntimeError("nothing trained")

    stacks.clear()
    monkeypatch.setattr(reporting, "run_baselines", fails)
    monkeypatch.setattr(reporting, "run_federations", fails)
    rows = run_comparison(tiny_cfg(), seeds=[3])
    assert [len(stack) for stack in stacks] == [0, 0]
    assert len(rows) == 14 and all(r.error == "nothing trained" for r in rows)


def test_diverged_baselines_fail_naming_client_and_epoch():
    """At a learning rate of 1e6 every baseline's weights overflow. Each
    such row fails alone, naming its client (or the pooled model) and the
    first epoch whose weights are not finite, instead of shipping NaN
    weights as an ``ok`` row with a NaN confidence; the federations, at
    the preset's own rate, are untouched."""
    full = preset_run_config("default")
    cfg = replace(
        full,
        baseline=BaselineConfig(max_epochs=3, patience=3,
                                optimizer=OptimizerConfig(learning_rate=1e6)),
        federation=replace(full.federation, rounds=1, local_epochs=1),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_comparison(cfg, seeds=[1])
    errors = {r.variant: r.error for r in rows if r.status == "failed"}
    assert errors == {
        "local_client_0": "client 0 epoch 2: weights are not finite",
        "local_client_1": "client 1 epoch 2: weights are not finite",
        "local_client_2": "client 2 epoch 2: weights are not finite",
        "local_client_3": "client 3 epoch 2: weights are not finite",
        "centralized": "centralized epoch 1: weights are not finite",
    }
    ok = [r for r in rows if r.status == "ok"]
    assert {r.variant for r in ok} == {"fl_fews", "fl_oews"}
    assert all(math.isfinite(v) for r in ok for v in r.metrics.values())


def test_row_csv_round_trip(campaign):
    text = rows_to_csv(campaign)
    back = csv_to_rows(text)
    assert len(back) == len(campaign)
    for a, b in zip(campaign, back):
        assert (a.seed, a.variant, a.test_set, a.status) == (b.seed, b.variant, b.test_set, b.status)
        for m in METRIC_COLUMNS:
            # values survive at the emitted 6-decimal precision
            assert b.metrics[m] == float(f"{a.metrics[m]:.6f}")


def test_csv_header_validated():
    with pytest.raises(ConfigurationError):
        csv_to_rows("wrong,header\n1,2\n")


def test_summarize_math_by_hand():
    def row(seed, value):
        return ComparisonRow(seed, "fl_fews", "global", "ok", {m: value for m in METRIC_COLUMNS})

    rows = [row(1, 0.4), row(2, 0.5), row(3, 0.9)]
    (summary,) = summarize(rows)
    mean = (0.4 + 0.5 + 0.9) / 3
    sd = math.sqrt(((0.4 - mean) ** 2 + (0.5 - mean) ** 2 + (0.9 - mean) ** 2) / 2)
    assert summary.means["accuracy"] == pytest.approx(mean, abs=1e-15)
    assert summary.sds["accuracy"] == pytest.approx(sd, abs=1e-15)
    assert summary.ok == 3 and summary.failed == 0


def test_single_seed_sd_is_zero():
    rows = [ComparisonRow(1, "fl_fews", "global", "ok", {m: 0.7 for m in METRIC_COLUMNS})]
    (summary,) = summarize(rows)
    assert summary.sds["macro_f1"] == 0.0


def test_summary_outputs_render(campaign):
    summaries = summarize(campaign)
    csv_text = summary_to_csv(summaries)
    header = csv_text.splitlines()[0].split(",")
    assert header[:2] == ["variant", "test_set"]
    assert "macro_f1_mean" in header and "macro_f1_sd" in header
    assert len(csv_text.splitlines()) == 1 + len(summaries)

    text = summary_to_text(summaries)
    assert "global test set" in text
    assert "external test set" in text
    assert "fl_oews" in text
    assert "±" in text


def test_write_comparison_files(tmp_path, campaign):
    paths = write_comparison(campaign, "abc123", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "abc123.compare.csv",
        "abc123.summary.csv",
        "abc123.summary.txt",
    ]
    back = csv_to_rows(paths["rows"].read_text())
    assert len(back) == len(campaign)
