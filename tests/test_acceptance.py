"""End-to-end acceptance checks.

Ten criteria, one test each. Every test prints a single ``A# PASS/FAIL``
line with the measured numbers (run ``pytest -s`` to see them on green
runs), then asserts, so a red run still names the criterion and the margin
it missed by.

The directional criteria (A5, A6, A7) run real multi-seed campaigns through
the same code path as ``fedsel compare``; they take a few dozen seconds
combined. Everything else is sub-second property checking against
independent oracles written with plain Python loops.
"""

import json
import math
import time

import numpy as np
import pytest

from fedsel.aggregation import AggregationKind, ClientUpdate, HaltingCriterion, aggregate
from fedsel.cli import main
from fedsel.data import CorpusSpec, PartitionSpec, make_dataset
from fedsel.nn import (
    ModelSpec,
    OptimizerConfig,
    ParameterVector,
    init_parameters,
    manifest_size,
)
from fedsel.orchestrator import client_stream
from fedsel.presets import preset_run_config
from fedsel.reporting import run_comparison
from fedsel.strategies import SelectionMetric, StrategyKind, score, shipped, train_stacked
from oracle import (
    brute_force_metrics,
    fd_gradient,
    folded_run,
    forward,
    loss_and_gradient,
    scripted_halt,
)

SEEDS = list(range(1, 11))


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------- campaigns


@pytest.fixture(scope="module")
def default_campaign():
    t0 = time.perf_counter()
    rows = run_comparison(preset_run_config("default"), SEEDS)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noise_campaign():
    return run_comparison(preset_run_config("elevated_noise"), SEEDS)


@pytest.fixture(scope="module")
def shift_campaign():
    return run_comparison(preset_run_config("hard_shift"), SEEDS)


def metric_by_seed(rows, variant, test_set, metric):
    return {
        r.seed: r.metrics[metric]
        for r in rows
        if r.variant == variant and r.test_set == test_set and r.status == "ok"
    }


# ------------------------------------------------------------------- A1


def test_a1_gradients_match_finite_differences():
    """20 random small models, every coordinate, central differences with
    h=1e-5, relative error < 1e-5 (denominator floored at 1e-4), under 10 s."""
    start = time.perf_counter()
    master = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        while True:
            dim = int(master.integers(2, 8))
            depth = int(master.integers(1, 3))
            hidden = tuple(int(master.integers(2, 9)) for _ in range(depth))
            classes = int(master.integers(2, 6))
            spec = ModelSpec(
                layer_sizes=(dim, *hidden, classes),
                seed=int(master.integers(0, 2**32)),
            )
            if manifest_size(spec.manifest) <= 200:
                break
        params = init_parameters(spec)
        params = ParameterVector(
            params.values + master.standard_normal(len(params)) * 0.3, params.manifest
        )
        n = int(master.integers(3, 13))
        x = master.standard_normal((n, dim))
        y = master.integers(0, classes, n)
        _, grad = loss_and_gradient(params, spec, x, y)
        fd = fd_gradient(params, spec, x, y)
        denom = np.maximum(1e-4, np.maximum(np.abs(grad.values), np.abs(fd)))
        worst = max(worst, float((np.abs(grad.values - fd) / denom).max()))
    elapsed = time.perf_counter() - start
    verdict(
        "A1",
        worst < 1e-5 and elapsed < 10.0,
        f"20 models, worst relative gradient error {worst:.2e} (< 1e-5), {elapsed:.2f}s (< 10s)",
    )


# ------------------------------------------------------------------- A2


def test_a2_aggregation_matches_brute_force():
    """Plain and weighted averaging vs per-coordinate Python-loop means on
    100 random update sets, K in 1..8; uniform counts collapse weighted to
    plain. Tolerance 1e-15 elementwise."""
    rng = np.random.default_rng(20250822)
    manifest = ((3, 4), (4, 2))
    size = manifest_size(manifest)
    worst_plain = worst_weighted = worst_uniform = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        vecs = [rng.standard_normal(size) for _ in range(k)]
        counts = [int(rng.integers(1, 50)) for _ in range(k)]
        updates = [
            ClientUpdate(i, ParameterVector(v, manifest), n)
            for i, (v, n) in enumerate(zip(vecs, counts))
        ]
        uniform = [ClientUpdate(i, ParameterVector(v, manifest), 7) for i, v in enumerate(vecs)]

        plain = aggregate(updates, AggregationKind.PLAIN).values
        weighted = aggregate(updates, AggregationKind.WEIGHTED).values
        uniform_w = aggregate(uniform, AggregationKind.WEIGHTED).values
        total = sum(counts)
        for i in range(size):
            mean = sum(v[i] for v in vecs) / k
            wmean = sum(v[i] * n for v, n in zip(vecs, counts)) / total
            worst_plain = max(worst_plain, abs(plain[i] - mean))
            worst_weighted = max(worst_weighted, abs(weighted[i] - wmean))
            worst_uniform = max(worst_uniform, abs(uniform_w[i] - plain[i]))
    ok = worst_plain <= 1e-15 and worst_weighted <= 1e-15 and worst_uniform <= 1e-15
    verdict(
        "A2",
        ok,
        "100 update sets: |plain-oracle| "
        f"{worst_plain:.1e}, |weighted-oracle| {worst_weighted:.1e}, "
        f"|uniform-plain| {worst_uniform:.1e} (all <= 1e-15)",
    )


# ------------------------------------------------------------------- A3


def test_a3_selection_properties():
    """Selected epoch is the latest argmax on 1000 random traces, is
    invariant under strictly increasing transforms, and OEWS coincides with
    FEWS bitwise when E=1 and when the validation trace never decreases.
    The traces go through the rule a client run keeps (``improves`` folded
    with ties to the latest epoch) and ``shipped``; the bitwise halves read
    ``shipped`` of real client runs."""

    def picked(trace, strategy, higher_is_better=True):
        return shipped(folded_run(trace, higher_is_better, ties_to_latest=True), strategy)[1]

    rng = np.random.default_rng(77)
    checked = transform_ok = 0
    for _ in range(1000):
        length = int(rng.integers(1, 21))
        trace = rng.uniform(0.0, 1.0, length)
        if rng.uniform() < 0.4:
            trace = np.round(trace, 1)  # force ties
        trace = [float(v) for v in trace]
        latest_argmax = max(range(length), key=lambda i: (trace[i], i)) + 1
        assert picked(trace, StrategyKind.OEWS) == latest_argmax
        assert picked(trace, StrategyKind.FEWS) == length
        latest_argmin = max(range(length), key=lambda i: (-trace[i], i)) + 1
        assert picked(trace, StrategyKind.OEWS, higher_is_better=False) == latest_argmin
        for transform in (lambda v: 3.0 * v + 7.0, math.exp, math.atan):
            if picked([transform(v) for v in trace], StrategyKind.OEWS) == latest_argmax:
                transform_ok += 1
        checked += 1

    # bitwise agreement on real local runs
    corpus = CorpusSpec(per_class_train=8, per_class_val=6, per_class_test=4,
                        noise_scale=0.0, seed=5)
    clients, _ = make_dataset(corpus, PartitionSpec.default())
    model = ModelSpec(layer_sizes=(16, 32, 5), seed=3)
    opt = OptimizerConfig(learning_rate=0.01)

    def both(client, epochs, stream_seed):
        """A client run's trace and the weights FEWS and OEWS ship from it."""
        rows = [(init_parameters(model), client.train, client.val,
                 client_stream(stream_seed, 1, client.client_id), f"client {client.client_id}")]
        (run,) = train_stacked(rows, model, opt, epochs, epochs, SelectionMetric.MACRO_F1,
                               ties_to_latest=True)
        fews, _ = shipped(run, StrategyKind.FEWS)
        oews, _ = shipped(run, StrategyKind.OEWS)
        return run.trace, fews, oews

    single_ok = nondec_found = nondec_ok = 0
    for client in clients:
        _, f1, o1 = both(client, 1, 11)
        single_ok += int((f1.values == o1.values).all())
        trace, f6, o6 = both(client, 6, 12)
        if all(b >= a for a, b in zip(trace, trace[1:])):
            nondec_found += 1
            nondec_ok += int((f6.values == o6.values).all())

    ok = (
        checked == 1000
        and transform_ok == 3000
        and single_ok == 4
        and nondec_found > 0
        and nondec_ok == nondec_found
    )
    verdict(
        "A3",
        ok,
        f"1000 traces latest-argmax exact, {transform_ok}/3000 transform-invariant, "
        f"E=1 bitwise 4/4, nondecreasing-trace bitwise {nondec_ok}/{nondec_found}",
    )


# ------------------------------------------------------------------- A4


def test_a4_halting_exactness():
    """run_federation stops at exactly the first round whose aggregated
    metric reaches the threshold, or at its round count when no round does,
    and its last record's ``halted`` says which, on 50 random traces."""
    rng = np.random.default_rng(404)
    never_met = 0
    for i in range(50):
        length = int(rng.integers(1, 9))
        trace = [float(v) for v in rng.uniform(0.0, 0.9, length)]
        if i % 5 == 0:
            threshold = min(1.0, max(trace) + 0.05)  # unreachable
        else:
            threshold = float(rng.uniform(0.0, 1.0))
        criterion = HaltingCriterion(threshold=threshold)
        expected_round = next(
            (idx + 1 for idx, v in enumerate(trace) if v >= threshold), length
        )
        expected_met = any(v >= threshold for v in trace[:expected_round])
        got = scripted_halt(trace, criterion, length)
        assert got == (expected_round, expected_met), (trace, threshold)
        never_met += int(not expected_met)
    verdict(
        "A4",
        never_met >= 10,
        f"50 scripted traces halt exactly on time, {never_met} hit the round cap",
    )


# ------------------------------------------------------------------- A5


def test_a5_federation_beats_isolated_clients(default_campaign):
    """Stock preset, 10 seeds: federated global macro-F1 clears the mean of
    the four isolated client models by at least 0.15 in at least 9 seeds."""
    rows, elapsed = default_campaign
    fed = metric_by_seed(rows, "fl_fews", "global", "macro_f1")
    margins = []
    for seed in SEEDS:
        locals_mean = sum(
            metric_by_seed(rows, f"local_client_{k}", "global", "macro_f1")[seed]
            for k in range(4)
        ) / 4
        margins.append(fed[seed] - locals_mean)
    wins = sum(m >= 0.15 for m in margins)
    ok = wins >= 9 and elapsed < 300.0
    verdict(
        "A5",
        ok,
        f"{wins}/10 seeds with margin >= 0.15 (min margin {min(margins):.3f}), "
        f"campaign {elapsed:.1f}s (< 300s)",
    )


# ------------------------------------------------------------------- A6


def test_a6_best_epoch_selection_helps_under_noise(noise_campaign):
    """Elevated-noise preset, 10 seeds: mean global-test accuracy of OEWS is
    within 0.005 of FEWS or better, and OEWS strictly wins most seeds."""
    fews = metric_by_seed(noise_campaign, "fl_fews", "global", "accuracy")
    oews = metric_by_seed(noise_campaign, "fl_oews", "global", "accuracy")
    mean_gap = sum(oews[s] for s in SEEDS) / 10 - sum(fews[s] for s in SEEDS) / 10
    strict_wins = sum(oews[s] > fews[s] for s in SEEDS)
    ok = mean_gap >= -0.005 and strict_wins > 5
    verdict(
        "A6",
        ok,
        f"mean accuracy gap {mean_gap:+.4f} (>= -0.005), strict wins {strict_wins}/10 (> 5)",
    )


# ------------------------------------------------------------------- A7


def test_a7_federation_generalizes_under_shift(shift_campaign):
    """Hard-shift preset, 10 seeds: OEWS beats the merged centralized model
    on external macro-F1 in at least 7 seeds, and its mean correct-prediction
    confidence is at least as high."""
    oews_f1 = metric_by_seed(shift_campaign, "fl_oews", "external", "macro_f1")
    cent_f1 = metric_by_seed(shift_campaign, "centralized", "external", "macro_f1")
    oews_conf = metric_by_seed(shift_campaign, "fl_oews", "external", "confidence")
    cent_conf = metric_by_seed(shift_campaign, "centralized", "external", "confidence")
    f1_wins = sum(oews_f1[s] >= cent_f1[s] for s in SEEDS)
    mean_oews_conf = sum(oews_conf[s] for s in SEEDS) / 10
    mean_cent_conf = sum(cent_conf[s] for s in SEEDS) / 10
    ok = f1_wins >= 7 and mean_oews_conf >= mean_cent_conf
    verdict(
        "A7",
        ok,
        f"external F1 wins {f1_wins}/10 (>= 7), mean confidence "
        f"{mean_oews_conf:.3f} vs centralized {mean_cent_conf:.3f}",
    )


# ------------------------------------------------------------------- A8


def test_a8_evaluate_matches_brute_force():
    """score() vs an independent loop implementation on 1000 random
    model/data draws, degenerate label sets included, within 1e-12."""
    rng = np.random.default_rng(808)
    worst = 0.0
    degenerate = 0
    for i in range(1000):
        dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 6))
        spec = ModelSpec(
            layer_sizes=(dim, int(rng.integers(2, 7)), classes),
            seed=int(rng.integers(0, 2**32)),
        )
        if i % 7 == 0:
            params = ParameterVector(
                np.zeros(manifest_size(spec.manifest)), spec.manifest
            )  # constant predictor
        else:
            params = init_parameters(spec)
        n = int(rng.integers(1, 40))
        x = rng.standard_normal((n, dim))
        if i % 5 == 0:
            y = np.full(n, int(rng.integers(0, classes)))  # single-class labels
        else:
            y = rng.integers(0, classes, n)
        report = score(params.values[None], spec, x[None], y[None])[0].report
        pred = forward(params, spec, x).argmax(axis=1)
        if len(set(y.tolist()) | set(pred.tolist())) < classes:
            degenerate += 1
        acc, prec, rec, f1 = brute_force_metrics(y.tolist(), pred.tolist(), classes)
        worst = max(
            worst,
            abs(report.accuracy - acc),
            abs(report.macro_precision - prec),
            abs(report.macro_recall - rec),
            abs(report.macro_f1 - f1),
        )
    ok = worst < 1e-12 and degenerate >= 100
    verdict(
        "A8",
        ok,
        f"1000 evaluations, worst deviation {worst:.1e} (< 1e-12), "
        f"{degenerate} degenerate cases included",
    )


# ------------------------------------------------------------------- A9


def test_a9_repeat_runs_are_byte_identical(tmp_path, capsys):
    """Two cmd_run executions of the same config produce byte-identical
    metrics logs and weights files."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "corpus.per_class_train = 10\n"
        "corpus.per_class_val = 5\n"
        "corpus.per_class_test = 5\n"
        "federation.rounds = 3\n"
        "federation.local_epochs = 3\n"
        "federation.strategy = oews\n"
    )
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir())
    suffixes = sorted(n.split(".", 1)[1] for n in names)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    entry = json.loads(
        next(outs[0].glob("*.metrics.jsonl")).read_text().splitlines()[0]
    )
    no_timestamps = not any("time" in k or "date" in k for k in entry)
    ok = identical and suffixes == ["metrics.jsonl", "metrics.txt", "weights.txt"] and no_timestamps
    verdict(
        "A9",
        ok,
        f"{len(names)} output files byte-identical across two runs ({', '.join(suffixes)})",
    )


# ------------------------------------------------------------------- A10


def test_a10_partition_invariants():
    """50 random partitions: missing classes truly absent from train/val,
    sample ids disjoint everywhere, global test is the ordered concatenation
    of client tests and covers every class."""
    rng = np.random.default_rng(1010)
    for case in range(50):
        classes = int(rng.integers(3, 7))
        client_count = int(rng.integers(1, 7))
        missing = {k: int(rng.integers(0, classes)) for k in range(client_count)}
        partition = PartitionSpec(client_count=client_count, missing_class=missing)
        corpus = CorpusSpec(
            class_count=classes,
            feature_dim=int(rng.integers(4, 9)),
            per_class_train=6,
            per_class_val=3,
            per_class_test=3,
            seed=case,
        )
        clients, evals = make_dataset(corpus, partition)

        assert len(clients) == client_count
        seen_ids: set[int] = set()
        test_chunks = []
        for client in clients:
            assert client.missing_class == missing[client.client_id]
            for split, per_class in ((client.train, 6), (client.val, 3)):
                labels = split.y.tolist()
                assert client.missing_class not in labels
                for c in range(classes):
                    expected = 0 if c == client.missing_class else per_class
                    assert labels.count(c) == expected
            assert sorted(set(client.test.y.tolist())) == list(range(classes))
            for split in (client.train, client.val, client.test):
                ids = split.ids.tolist()
                assert not (seen_ids & set(ids))
                seen_ids.update(ids)
            test_chunks.append(client.test)

        external_ids = set(evals.external_test.ids.tolist())
        assert not (seen_ids & external_ids)

        concat_ids = np.concatenate([c.ids for c in test_chunks])
        assert (evals.global_test.ids == concat_ids).all()
        assert sorted(set(evals.global_test.y.tolist())) == list(range(classes))
    verdict(
        "A10",
        True,
        "50 random partitions satisfy exclusion, disjointness, and composition",
    )
