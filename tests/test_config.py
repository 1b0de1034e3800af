import math
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from fedsel.aggregation import AggregationKind, HaltingCriterion
from fedsel.cli import _UNREAD
from fedsel.config import KEY_TABLE, SEED_ENV_VAR, _canonical, load_config, parse_config_text
from fedsel.data import CorpusSpec, PartitionSpec
from fedsel.errors import ConfigurationError
from fedsel.nn import OptimizerConfig
from fedsel.orchestrator import BaselineConfig, FederationConfig, Workflow
from fedsel.presets import PRESETS, preset_run_config
from fedsel.strategies import SelectionMetric, StrategyKind
from test_golden import INDUSTRIAL, SHORT

DEFAULT_RUN_ID = "32607ac04582"

FLOAT_KEYS = [
    "corpus.noise_scale",
    "corpus.class_separation",
    "corpus.shift_magnitude",
    "federation.learning_rate",
    "baseline.learning_rate",
]


def test_defaults_without_any_file(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cfg, run_id = load_config()
    assert cfg.corpus.class_count == 5
    assert cfg.corpus.per_class_train == 80
    assert cfg.partition.client_count == 4
    assert cfg.partition.missing_class == {0: 1, 1: 4, 2: 3, 3: 2}
    assert cfg.federation.rounds == 5
    assert cfg.federation.local_epochs == 15
    assert cfg.strategy is StrategyKind.FEWS
    assert cfg.federation.workflow is Workflow.ACADEMIC
    assert cfg.federation.model.layer_sizes == (16, 32, 5)
    # federation.rounds is the round count of both workflows
    industrial = load_config(overrides={"federation.workflow": "industrial"})[0]
    assert industrial.federation.rounds == 5
    assert cfg.baseline.max_epochs == 100
    assert cfg.baseline.patience == 30
    assert not cfg.baseline_enabled
    assert cfg.out_dir == "out"
    assert run_id == DEFAULT_RUN_ID


def test_file_values_applied(tmp_path):
    text = """
# experiment settings
corpus.class_count = 3
corpus.feature_dim = 8
partition.client_count = 2
partition.missing_class = 0:1, 1:2

federation.strategy = oews
federation.selection_metric = val_loss
federation.aggregation = weighted
federation.workflow = industrial
federation.halting_threshold = 0.8
federation.rounds = 9
federation.hidden_layers = 12,7
output.dir = results
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg, run_id = load_config(path)
    assert cfg.corpus.class_count == 3
    assert cfg.partition.missing_class == {0: 1, 1: 2}
    assert cfg.strategy is StrategyKind.OEWS
    assert cfg.federation.selection_metric is SelectionMetric.VAL_LOSS
    assert cfg.federation.aggregation is AggregationKind.WEIGHTED
    assert cfg.federation.workflow is Workflow.INDUSTRIAL
    assert cfg.federation.halting.threshold == 0.8
    assert cfg.federation.rounds == 9
    assert cfg.federation.model.layer_sizes == (8, 12, 7, 3)
    assert cfg.out_dir == "results"
    # the strategy is part of the hashed content
    path.write_text(text.replace("= oews", "= fews"))
    assert load_config(path)[1] != run_id


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match="corpus.classcount"):
        parse_config_text("corpus.classcount = 5")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text("corpus.seed = 1\ncorpus.seed = 2")


def test_malformed_line_rejected_with_location():
    with pytest.raises(ConfigurationError, match="run.cfg:2"):
        parse_config_text("corpus.seed = 1\njust some words", source="run.cfg")


def test_bad_value_names_key():
    with pytest.raises(ConfigurationError, match="corpus.noise_scale"):
        load_config(overrides={"corpus.noise_scale": "loud"})
    with pytest.raises(ConfigurationError, match="federation.strategy"):
        load_config(overrides={"federation.strategy": "freshest"})
    with pytest.raises(ConfigurationError, match="baseline.enabled"):
        load_config(overrides={"baseline.enabled": "maybe"})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"federation.rounds": "0"}, "rounds must be >= 1, got 0"),
        (
            {"federation.workflow": "industrial", "federation.rounds": "0"},
            "rounds must be >= 1, got 0",
        ),
        ({"federation.max_rounds": "3"}, "unknown config key 'federation.max_rounds'"),
    ],
    ids=["academic_rounds", "industrial_rounds", "max_rounds_is_unknown"],
)
def test_a_round_count_below_one_is_rejected_whichever_workflow_reads_it(overrides, message):
    """federation.rounds is the one round count: both workflows reject 0,
    and the old industrial key, federation.max_rounds, is unknown."""
    with pytest.raises(ConfigurationError) as info:
        load_config(overrides=overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "infinity"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_by_name(key, raw):
    with pytest.raises(ConfigurationError, match=f"{key}: expected a finite number"):
        load_config(overrides={key: raw})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "spec, field",
    [
        (CorpusSpec, "noise_scale"),
        (CorpusSpec, "class_separation"),
        (CorpusSpec, "shift_magnitude"),
        (OptimizerConfig, "learning_rate"),
    ],
)
def test_non_finite_spec_value_rejected_by_name(spec, field, value):
    """Built in code rather than from config keys, a spec rejects a
    non-finite number as well, naming the field, instead of letting a run
    fail later at a client."""
    with pytest.raises(ConfigurationError, match=field):
        spec(**{field: value})


def test_missing_class_map_parse_errors():
    with pytest.raises(ConfigurationError, match="partition.missing_class"):
        load_config(overrides={"partition.missing_class": "0-1"})
    with pytest.raises(ConfigurationError, match="listed twice"):
        load_config(overrides={"partition.missing_class": "0:1,0:2"})


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("federation.rounds = 3\n")
    cfg, _ = load_config(path, overrides={"federation.rounds": "7"})
    assert cfg.federation.rounds == 7


def test_seed_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("federation.master_seed = 11\n")

    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cfg, _ = load_config(path)
    assert cfg.master_seed == 11

    monkeypatch.setenv(SEED_ENV_VAR, "22")
    cfg, _ = load_config(path)
    assert cfg.master_seed == 22

    cfg, _ = load_config(path, seed_override=33)
    assert cfg.master_seed == 33


def test_bad_env_seed_rejected(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "eleven")
    with pytest.raises(ConfigurationError):
        load_config()


def test_out_of_range_seed_names_where_it_came_from(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(f"federation.master_seed = {2**64}\n")
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    for kwargs in ({"path": path}, {"seed_override": -1}):
        with pytest.raises(ConfigurationError, match="^federation.master_seed must fit in 64"):
            load_config(**kwargs)
    monkeypatch.setenv(SEED_ENV_VAR, "-3")
    with pytest.raises(ConfigurationError, match=f"^{SEED_ENV_VAR} must fit in 64 unsigned bits"):
        load_config(path)


def test_run_id_tracks_content_not_formatting(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("federation.rounds = 3\ncorpus.seed = 5\n")
    b.write_text("# reordered, extra spacing\ncorpus.seed=5\n\nfederation.rounds   =3\n")
    _, ma = load_config(a)
    _, mb = load_config(b)
    assert ma == mb

    c = tmp_path / "c.cfg"
    c.write_text("federation.rounds = 4\ncorpus.seed = 5\n")
    _, mc = load_config(c)
    assert mc != ma


def test_run_id_ignores_output_dir(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    cfg_a, a = load_config(overrides={"output.dir": "here"})
    cfg_b, b = load_config(overrides={"output.dir": "there"})
    assert a == b == DEFAULT_RUN_ID
    assert cfg_a.out_dir != cfg_b.out_dir


def test_run_id_stable_across_processes(tmp_path):
    """The id is a content hash, not anything session-dependent."""
    path = tmp_path / "run.cfg"
    path.write_text("corpus.seed = 5\n")
    ids = {load_config(path)[1] for _ in range(3)}
    assert len(ids) == 1


def test_run_ids_pinned_across_versions(monkeypatch):
    """run_ids name the files a run writes, so a change to the canonical
    form of any key must not move them. generate and compare hash only the
    keys they read."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert load_config()[1] == DEFAULT_RUN_ID
    assert load_config(overrides=INDUSTRIAL)[1] == "b74a88788033"
    assert load_config(overrides=SHORT)[1] == "41b15e6807b4"
    assert load_config(unhashed=_UNREAD["generate"])[1] == "22dd91ca8541"
    assert load_config(unhashed=_UNREAD["compare"])[1] == "d856e4717445"


def test_every_key_has_parser_and_canonical_default(monkeypatch):
    for key, (parser, default) in KEY_TABLE.items():
        assert callable(parser), key
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    # a key whose None default is resolved is hashed as resolved, so writing
    # the resolved value out keeps the run_id, and another value moves it
    rotation = {"partition.missing_class": "0:1, 1:4, 2:3, 3:2"}
    assert load_config(overrides=rotation)[1] == DEFAULT_RUN_ID
    rotation = {"partition.missing_class": "0:2, 1:4, 2:3, 3:1"}
    assert load_config(overrides=rotation)[1] != DEFAULT_RUN_ID


def test_readme_key_table_is_the_key_table():
    """The README's "All keys and defaults" table lists every key of
    KEY_TABLE, in order, with its default as the run_id hashes it; the
    missing-class map's resolved default is written as the rotation."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("All keys and defaults:\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[3:]]
    listed = [(key.strip().strip("`"), default.strip().strip("`")) for key, default in rows]
    expected = [
        (key, "rotation" if default is None else _canonical(default))
        for key, (_, default) in KEY_TABLE.items()
    ]
    assert listed == expected


def test_key_table_defaults_are_the_dataclass_defaults():
    """A key named <section>.<field> after a field of a config dataclass
    defaults to that field's default, so building a dataclass from the
    defaults and building it bare agree. PartitionSpec's empty map and the
    key's None both stand for the rotation."""
    owners = [
        (CorpusSpec, "corpus."),
        (PartitionSpec, "partition."),
        (FederationConfig, "federation."),
        (HaltingCriterion, "federation.halting_"),
        (BaselineConfig, "baseline."),
        (OptimizerConfig, "federation."),
        (OptimizerConfig, "baseline."),
    ]
    named = {
        prefix + f.name: f.default_factory() if f.default is MISSING else f.default
        for cls, prefix in owners
        for f in fields(cls)
        if prefix + f.name in KEY_TABLE
    }
    assert named.pop("partition.missing_class") == {}
    assert KEY_TABLE["partition.missing_class"][1] is None
    assert len(named) == 25
    assert {key: KEY_TABLE[key][1] for key in named} == named
    # the keys that name no field: run arguments, the model's layout and
    # seed, and where output goes
    assert KEY_TABLE.keys() - named.keys() - {"partition.missing_class"} == {
        "federation.strategy",
        "federation.master_seed",
        "federation.hidden_layers",
        "federation.model_seed",
        "baseline.enabled",
        "output.dir",
    }


def test_nonexistent_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_is_its_keys_in_a_config_file(name, tmp_path, monkeypatch):
    """A config file holding a preset's keys and baseline.enabled = true
    gives the same run configuration, so ``fedsel compare --config`` runs
    the preset's campaign; the baselines keep the preset's recipe."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    path = tmp_path / f"{name}.cfg"
    lines = [f"{key} = {value}" for key, value in PRESETS[name].items()]
    path.write_text("\n".join([*lines, "baseline.enabled = true"]) + "\n")
    cfg = preset_run_config(name)
    assert cfg == load_config(path)[0]
    assert cfg.baseline.optimizer == cfg.federation.optimizer
    assert cfg.baseline_enabled
    # a preset pins its master seed, so the environment cannot change it
    monkeypatch.setenv(SEED_ENV_VAR, "22")
    assert preset_run_config(name) == cfg


def test_unknown_preset_lists_the_available_ones():
    with pytest.raises(ConfigurationError, match="available: default, elevated_noise, hard_shift"):
        preset_run_config("loud")
