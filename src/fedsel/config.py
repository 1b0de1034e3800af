"""Flat key = value run configuration.

One file drives a whole run: corpus shape, partition, federation settings,
baseline settings, output location. Lines are ``section.key = value``; blank
lines and ``#`` comments are ignored. Unknown keys, duplicate keys,
untypeable values and non-finite numbers are rejected with the offending key
named, so a typo fails fast instead of silently falling back to a default.

Seed precedence: an explicit --seed flag beats the FEDSEL_SEED environment
variable, which beats ``federation.master_seed`` in the file, which beats the
default of 0. FEDSEL_SEED is read only where the master seed is: of the
commands, by ``fedsel run`` alone.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .aggregation import AggregationKind, HaltingCriterion, HaltingMetric
from .data import CorpusSpec, PartitionSpec
from .errors import ConfigurationError
from .nn import MAX_SEED, ModelSpec, OptimizerConfig
from .orchestrator import BaselineConfig, FederationConfig, Workflow
from .strategies import SelectionMetric, StrategyKind

SEED_ENV_VAR = "FEDSEL_SEED"

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"config key {key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"config key {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigurationError(f"config key {key}: expected a finite number, got {raw!r}")
    return value


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ConfigurationError(
            f"config key {key}: expected true/false, got {raw!r}"
        ) from None


def _parse_str(key: str, raw: str) -> str:
    return raw


def _enum_parser(enum_cls):
    def parse(key: str, raw: str):
        try:
            return enum_cls(raw)
        except ValueError:
            options = ", ".join(m.value for m in enum_cls)
            raise ConfigurationError(
                f"config key {key}: expected one of {options}, got {raw!r}"
            ) from None

    return parse


def _parse_int_tuple(key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigurationError(
            f"config key {key}: expected comma-separated integers, got {raw!r}"
        ) from None


def _parse_client_class_map(key: str, raw: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigurationError(
                f"config key {key}: expected entries like 0:1, got {part!r}"
            )
        try:
            client, cls = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ConfigurationError(
                f"config key {key}: expected integer pairs, got {part!r}"
            ) from None
        if client in mapping:
            raise ConfigurationError(f"config key {key}: client {client} listed twice")
        mapping[client] = cls
    if not mapping:
        raise ConfigurationError(f"config key {key}: no entries")
    return mapping


# key -> (parser, default). None defaults are resolved during assembly.
KEY_TABLE: dict[str, tuple] = {
    "corpus.class_count": (_parse_int, 5),
    "corpus.feature_dim": (_parse_int, 16),
    "corpus.per_class_train": (_parse_int, 80),
    "corpus.per_class_val": (_parse_int, 20),
    "corpus.per_class_test": (_parse_int, 20),
    "corpus.class_separation": (_parse_float, 6.0),
    "corpus.noise_scale": (_parse_float, 1.0),
    "corpus.shift_magnitude": (_parse_float, 0.0),
    "corpus.seed": (_parse_int, 0),
    "partition.client_count": (_parse_int, 4),
    "partition.missing_class": (_parse_client_class_map, None),
    "federation.rounds": (_parse_int, 5),
    "federation.local_epochs": (_parse_int, 15),
    "federation.strategy": (_enum_parser(StrategyKind), StrategyKind.FEWS),
    "federation.selection_metric": (_enum_parser(SelectionMetric), SelectionMetric.MACRO_F1),
    "federation.aggregation": (_enum_parser(AggregationKind), AggregationKind.PLAIN),
    "federation.workflow": (_enum_parser(Workflow), Workflow.ACADEMIC),
    "federation.halting_metric": (_enum_parser(HaltingMetric), HaltingMetric.MACRO_F1),
    "federation.halting_threshold": (_parse_float, 0.95),
    "federation.learning_rate": (_parse_float, 0.0001),
    "federation.momentum": (_parse_float, 0.9),
    "federation.batch_size": (_parse_int, 16),
    "federation.master_seed": (_parse_int, 0),
    "federation.hidden_layers": (_parse_int_tuple, (32,)),
    "federation.model_seed": (_parse_int, 3),
    "baseline.enabled": (_parse_bool, False),
    "baseline.max_epochs": (_parse_int, 100),
    "baseline.patience": (_parse_int, 30),
    "baseline.learning_rate": (_parse_float, 0.0001),
    "baseline.momentum": (_parse_float, 0.9),
    "baseline.batch_size": (_parse_int, 16),
    "output.dir": (_parse_str, "out"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings, with unknown/duplicate/malformed keys
    rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{source}:{lineno}: malformed line {stripped!r} (expected key = value)"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_TABLE:
            raise ConfigurationError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigurationError(f"{source}:{lineno}: duplicate config key {key!r}")
        raw[key] = value
    return raw


@dataclass(frozen=True)
class RunConfig:
    """A run's settings; ``fedsel run`` applies the federation recipe under
    ``strategy`` from ``master_seed``."""

    corpus: CorpusSpec
    partition: PartitionSpec
    federation: FederationConfig
    strategy: StrategyKind
    master_seed: int
    baseline: BaselineConfig
    baseline_enabled: bool
    out_dir: str


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if hasattr(value, "value"):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, dict):
        return ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
    return str(value)


def load_config(
    path: str | Path | None = None,
    overrides: dict[str, str] | None = None,
    seed_override: int | None = None,
    unhashed: frozenset[str] = frozenset(),
) -> tuple[RunConfig, str]:
    """Assemble a validated run configuration and its run id, the first 12
    hex digits of a SHA-256 over the canonical resolved key values.

    ``overrides`` holds raw flag values keyed like file entries; they replace
    file values before typing. ``seed_override`` (the --seed flag) beats the
    FEDSEL_SEED environment variable, which beats the file. ``unhashed``
    names keys whose values cannot reach the caller's outputs: they are still
    validated, but left out of the run id, so runs that differ only there
    share one name. FEDSEL_SEED is read only when ``unhashed`` does not name
    ``federation.master_seed``, so only ``fedsel run`` rejects a bad value.
    """
    raw: dict[str, str] = {}
    if path is not None:
        source = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {source}: {exc}") from exc
        raw = parse_config_text(text, source)
    for key, value in (overrides or {}).items():
        if key not in KEY_TABLE:
            raise ConfigurationError(f"unknown config key {key!r}")
        raw[key] = value

    values = {}
    for key, (parser, default) in KEY_TABLE.items():
        values[key] = parser(key, raw[key]) if key in raw else default

    seed_source = "federation.master_seed"  # what a range error names
    if seed_override is not None:
        values["federation.master_seed"] = seed_override
    elif SEED_ENV_VAR in os.environ and "federation.master_seed" not in unhashed:
        seed_source = SEED_ENV_VAR
        try:
            values["federation.master_seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR}: expected an integer, got {os.environ[SEED_ENV_VAR]!r}"
            ) from None
    if not 0 <= values["federation.master_seed"] <= MAX_SEED:
        raise ConfigurationError(f"{seed_source} must fit in 64 unsigned bits")

    def build(cls, section: str):
        """``cls`` from the ``<section>.<field>`` key of each of its fields."""
        return cls(**{f.name: values[f"{section}.{f.name}"] for f in fields(cls)})

    corpus = build(CorpusSpec, "corpus")
    if values["partition.missing_class"] is None:
        partition = PartitionSpec.default(values["partition.client_count"], corpus.class_count)
    else:
        partition = PartitionSpec(
            client_count=values["partition.client_count"],
            missing_class=values["partition.missing_class"],
        )
    # hash the resolved map so writing the default rotation out explicitly
    # yields the same run_id as omitting it
    values["partition.missing_class"] = dict(partition.missing_class)
    model = ModelSpec(
        layer_sizes=(corpus.feature_dim, *values["federation.hidden_layers"], corpus.class_count),
        seed=values["federation.model_seed"],
    )
    halting = HaltingCriterion(
        values["federation.halting_metric"], values["federation.halting_threshold"]
    )
    federation = FederationConfig(
        model=model,
        rounds=values["federation.rounds"],
        local_epochs=values["federation.local_epochs"],
        selection_metric=values["federation.selection_metric"],
        aggregation=values["federation.aggregation"],
        workflow=values["federation.workflow"],
        halting=halting,
        optimizer=build(OptimizerConfig, "federation"),
    )
    baseline = BaselineConfig(
        max_epochs=values["baseline.max_epochs"],
        patience=values["baseline.patience"],
        optimizer=build(OptimizerConfig, "baseline"),
    )

    # output.dir is plumbing, not experiment content: the same run written
    # somewhere else must keep its run_id
    canonical_text = "\n".join(
        f"{key} = {_canonical(values[key])}"
        for key in sorted(KEY_TABLE.keys() - unhashed - {"output.dir"})
    )
    run_id = hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:12]
    cfg = RunConfig(
        corpus=corpus,
        partition=partition,
        federation=federation,
        strategy=values["federation.strategy"],
        master_seed=values["federation.master_seed"],
        baseline=baseline,
        baseline_enabled=values["baseline.enabled"],
        out_dir=values["output.dir"],
    )
    return cfg, run_id
