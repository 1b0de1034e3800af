"""Named experiment presets.

Each preset bundles a corpus recipe, optimizer settings, and a round/epoch
schedule that together reproduce one of the three headline comparisons at
desk scale. The values were fixed by calibration sweeps (see the repository
README for the numbers they produce):

* ``default``: well-separated clusters, stock hyperparameters. Federated
  training recovers the classes every client is missing; isolated local
  models stay capped by theirs.
* ``elevated_noise``: overlapping clusters, tiny train splits, and a fast
  learning rate so each client's validation curve peaks mid-training. Picking
  the best epoch (OEWS) then beats shipping the last one (FEWS).
* ``hard_shift``: easy clusters with a large external mean displacement.
  A merged centralized model early-stops at its validation plateau and ships
  a barely-fit snapshot; the federation trains its full schedule and keeps
  larger margins, which survive the shift and score as higher confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import CorpusSpec
from .errors import ConfigurationError
from .nn import ModelSpec, OptimizerConfig


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    corpus: CorpusSpec
    optimizer: OptimizerConfig
    local_epochs: int = 15
    rounds: int = 5
    hidden_layers: tuple[int, ...] = (32,)

    def model(self, seed: int = 3) -> ModelSpec:
        sizes = (self.corpus.feature_dim, *self.hidden_layers, self.corpus.class_count)
        return ModelSpec(layer_sizes=sizes, seed=seed)


DEFAULT = ExperimentPreset(
    name="default",
    corpus=CorpusSpec(),
    optimizer=OptimizerConfig(),
)

ELEVATED_NOISE = ExperimentPreset(
    name="elevated_noise",
    corpus=CorpusSpec(
        per_class_train=15,
        per_class_val=60,
        per_class_test=40,
        noise_scale=2.5,
    ),
    optimizer=OptimizerConfig(learning_rate=0.02, batch_size=8),
)

HARD_SHIFT = ExperimentPreset(
    name="hard_shift",
    corpus=CorpusSpec(noise_scale=0.5, shift_magnitude=4.0),
    optimizer=OptimizerConfig(),
)

PRESETS = {p.name: p for p in (DEFAULT, ELEVATED_NOISE, HARD_SHIFT)}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def preset_run_config(preset: ExperimentPreset | str, out_dir: str = "out"):
    """A full RunConfig for a named preset, ready for run_comparison.

    The isolated baselines train with the preset's optimizer so every variant
    in a campaign uses the same recipe; only the training topology differs.
    """
    from .config import RunConfig  # local import: config imports this module's deps
    from .data import PartitionSpec
    from .orchestrator import BaselineConfig, FederationConfig

    if isinstance(preset, str):
        preset = get_preset(preset)
    federation = FederationConfig(
        model=preset.model(),
        rounds=preset.rounds,
        local_epochs=preset.local_epochs,
        optimizer=preset.optimizer,
    )
    return RunConfig(
        corpus=preset.corpus,
        partition=PartitionSpec.default(),
        federation=federation,
        baseline=BaselineConfig(optimizer=preset.optimizer),
        baseline_enabled=True,
        out_dir=out_dir,
    )
