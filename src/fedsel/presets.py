"""Named experiment presets.

Each preset is a set of config keys, written as in a config file, that
together reproduce one of the three headline comparisons at desk scale; a
key a preset leaves out keeps its default. The values were fixed by
calibration sweeps (see the repository README for the numbers they produce):

* ``default``: well-separated clusters, stock hyperparameters. Federated
  training recovers the classes every client is missing; isolated local
  models stay capped by theirs.
* ``elevated_noise``: overlapping clusters, tiny train splits, and a fast
  learning rate so each client's validation curve peaks mid-training. Picking
  the best epoch (OEWS) then beats shipping the last one (FEWS).
* ``hard_shift``: easy clusters with a large external mean displacement.
  A merged centralized model early-stops at its validation plateau and ships
  a barely-fit snapshot, while the federation keeps larger margins, which
  survive the shift and score as higher confidence.

Two tie rules stand behind these claims, both of ``strategies.improves``.
OEWS ships the latest of equal best validation scores, so on a plateau
that lasts to the last local epoch it ships what FEWS ships. The
early-stopping baselines keep the earliest, and an epoch that only ties
the best counts toward patience. So ``hard_shift``'s centralized model
stops ``patience`` epochs after the first epoch of its plateau and ships
that epoch, and the comparison rests on that rule.
"""

from __future__ import annotations

from .config import RunConfig, load_config
from .errors import ConfigurationError

PRESETS: dict[str, dict[str, str]] = {
    "default": {},
    "elevated_noise": {
        "corpus.per_class_train": "15",
        "corpus.per_class_val": "60",
        "corpus.per_class_test": "40",
        "corpus.noise_scale": "2.5",
        "federation.learning_rate": "0.02",
        "federation.batch_size": "8",
        "baseline.learning_rate": "0.02",
        "baseline.batch_size": "8",
    },
    "hard_shift": {
        "corpus.noise_scale": "0.5",
        "corpus.shift_magnitude": "4.0",
    },
}


def preset_run_config(name: str) -> RunConfig:
    """A full RunConfig for a named preset, ready for run_comparison.

    The isolated baselines train with the preset's optimizer so every variant
    in a campaign uses the same recipe; only the training topology differs.
    The master seed is pinned to 0, so FEDSEL_SEED cannot change a preset.
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    overrides = {**PRESETS[name], "baseline.enabled": "true"}
    return load_config(overrides=overrides, seed_override=0)[0]
