"""The benchmark's workloads.

Each workload builds its inputs from the run's seed through the package's
documented configuration keys (``config.load_config`` overrides and
``presets.preset_run_config``), splits one unit of work into parts that call
the public library API (the runner times each part right after a run of the
reference kernel), and checks the unit's output, the list of the parts'
results, against computations made here, apart from the program, or against
properties the method must have.
"""

from __future__ import annotations

import functools
import hashlib
import statistics

import numpy as np

from fedsel import config, data, orchestrator, presets, reporting

TOLERANCE = 1e-12


def _overrides(values: dict) -> dict[str, str]:
    """Config-key overrides as the raw strings ``load_config`` parses;
    floats go through repr so they round-trip exactly."""
    return {k: repr(v) if isinstance(v, float) else str(v) for k, v in values.items()}


def _predict(values: np.ndarray, layer_sizes: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """Class predictions of a ReLU MLP stored layer by layer as a
    row-major (fan_in, fan_out) weight block followed by a fan_out bias."""
    h = x
    offset = 0
    last = len(layer_sizes) - 2
    for i, (rows, cols) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        w = values[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        b = values[offset : offset + cols]
        offset += cols
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
    if offset != values.size:
        raise ValueError(f"weights hold {values.size} values, layers need {offset}")
    return h.argmax(axis=1)


def _macro_f1(confusion: np.ndarray) -> float:
    """Mean per-class F1 over every class; a class never predicted or never
    present scores 0."""
    classes = confusion.shape[0]
    total = 0.0
    for k in range(classes):
        tp = float(confusion[k, k])
        predicted = float(confusion[:, k].sum())
        actual = float(confusion[k, :].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / classes


def _own_macro_f1(params, layer_sizes: tuple[int, ...], split) -> float:
    classes = layer_sizes[-1]
    preds = _predict(np.asarray(params.values), layer_sizes, np.asarray(split.x))
    y = np.asarray(split.y)
    confusion = np.bincount(y * classes + preds, minlength=classes * classes)
    return _macro_f1(confusion.reshape(classes, classes))


def _weights_digest(params, *extra) -> str:
    h = hashlib.sha256(np.asarray(params.values, dtype=np.float64).tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


class CampaignPresets:
    """Each preset's corpus, partition, model and optimizers at K = 4, with
    every variant of ``reporting.run_comparison``, over two seeds per preset.
    The schedule is cut from the presets' 5 rounds x 15 local epochs and
    100-epoch baselines so that a run holds about a dozen units; baseline
    patience equals the epoch budget so a unit's work does not depend on the
    seed. Each preset is one part of the unit."""

    name = "campaign_presets"
    PRESETS = ("default", "elevated_noise", "hard_shift")
    SCHEDULE = {
        "federation.rounds": 2,
        "federation.local_epochs": 3,
        "baseline.max_epochs": 3,
        "baseline.patience": 3,
    }
    SEEDS_PER_PRESET = 2

    def setup(self, seed: int):
        seeds = [self.SEEDS_PER_PRESET * seed + i + 1 for i in range(self.SEEDS_PER_PRESET)]
        configs = []
        for name in self.PRESETS:
            full = presets.preset_run_config(name)
            corpus, fed, base = full.corpus, full.federation, full.baseline
            values = {
                "corpus.class_count": corpus.class_count,
                "corpus.feature_dim": corpus.feature_dim,
                "corpus.per_class_train": corpus.per_class_train,
                "corpus.per_class_val": corpus.per_class_val,
                "corpus.per_class_test": corpus.per_class_test,
                "corpus.class_separation": corpus.class_separation,
                "corpus.noise_scale": corpus.noise_scale,
                "corpus.shift_magnitude": corpus.shift_magnitude,
                "partition.client_count": full.partition.client_count,
                "partition.missing_class": ", ".join(
                    f"{k}:{v}" for k, v in sorted(full.partition.missing_class.items())
                ),
                "federation.hidden_layers": ",".join(str(s) for s in fed.model.layer_sizes[1:-1]),
                "federation.model_seed": fed.model.seed,
                "federation.learning_rate": fed.optimizer.learning_rate,
                "federation.momentum": fed.optimizer.momentum,
                "federation.batch_size": fed.optimizer.batch_size,
                "baseline.learning_rate": base.optimizer.learning_rate,
                "baseline.momentum": base.optimizer.momentum,
                "baseline.batch_size": base.optimizer.batch_size,
                **self.SCHEDULE,
            }
            cfg, _ = config.load_config(overrides=_overrides(values), seed_override=seeds[0])
            configs.append((name, cfg, full.partition.client_count))
        return configs, seeds

    def parts(self, inputs):
        configs, seeds = inputs
        return [functools.partial(self._compare, name, cfg, seeds) for name, cfg, _ in configs]

    @staticmethod
    def _compare(name, cfg, seeds):
        return name, reporting.run_comparison(cfg, seeds)

    def digest(self, output) -> str:
        text = "".join(f"# {name}\n{reporting.rows_to_csv(rows)}" for name, rows in output)
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, inputs, output) -> list[str]:
        configs, seeds = inputs
        failed = []
        for (name, _, clients), (_, rows) in zip(configs, output):
            if any(r.status != "ok" for r in rows):
                failed.append(f"{name}: no_failed_rows")
                continue
            variants = [f"local_client_{k}" for k in range(clients)]
            variants += ["centralized", "fl_fews", "fl_oews"]
            for seed in seeds:
                got = sorted((r.variant, r.test_set) for r in rows if r.seed == seed)
                want = sorted((v, t) for v in variants for t in ("global", "external"))
                if got != want:
                    failed.append(f"{name} seed {seed}: every_variant_on_both_test_sets")
                    continue
                if name != "default":
                    continue
                f1 = {
                    r.variant: r.metrics["macro_f1"]
                    for r in rows
                    if r.seed == seed and r.test_set == "global"
                }
                isolated = statistics.fmean(f1[v] for v in variants[:clients])
                if not (f1["fl_fews"] > isolated and f1["fl_oews"] > isolated):
                    failed.append(f"default seed {seed}: federation_beats_isolated_clients")
        return failed


class CentralizedLong:
    """One model on the four default clients' pooled data (1280 training and
    320 validation samples), noise 2.5 so validation macro-F1 stays below 1,
    150 epochs (50% more than the presets' baseline budget) with patience
    150 so it never stops early. The unit is one part, timed against one run
    of the reference kernel just before it."""

    name = "centralized_long"
    EPOCHS = 150
    CONFIG = {
        "corpus.noise_scale": 2.5,
        "baseline.max_epochs": EPOCHS,
        "baseline.patience": EPOCHS,
        "baseline.learning_rate": 0.001,
    }

    def setup(self, seed: int):
        values = {**self.CONFIG, "corpus.seed": seed}
        cfg, _ = config.load_config(overrides=_overrides(values), seed_override=seed)
        clients, _ = data.make_dataset(cfg.corpus, cfg.partition)
        train, val = data.merge_for_centralized(clients)
        return cfg.baseline, train, val, cfg.federation.model, seed

    def parts(self, inputs):
        baseline, train, val, model, seed = inputs

        def train_once():
            rng = orchestrator.baseline_stream(seed)
            return orchestrator.run_centralized(baseline, train, val, model, rng)

        return [train_once]

    def digest(self, output) -> str:
        (result,) = output
        return _weights_digest(result.params, result.best_epoch, result.trace)

    def check(self, inputs, output) -> list[str]:
        _, _, val, model, _ = inputs
        (output,) = output
        trace = list(output.trace)
        failed = []
        if output.epochs_run != self.EPOCHS or len(trace) != self.EPOCHS:
            failed.append("epochs_run_equals_budget")
            return failed
        if output.best_epoch != trace.index(max(trace)) + 1:
            failed.append("best_epoch_is_first_maximum")
            return failed
        own = _own_macro_f1(output.params, model.layer_sizes, val)
        if abs(own - trace[output.best_epoch - 1]) > TOLERANCE:
            failed.append("returned_weights_score_best_epoch")
        if not own < 1.0:
            failed.append("val_macro_f1_below_one")
        return failed


WORKLOADS = {w.name: w for w in (CampaignPresets(), CentralizedLong())}
