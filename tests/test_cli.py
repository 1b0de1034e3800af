import json

import pytest

from fedsel.cli import _COMMANDS, _UNREAD, _parse_seeds, main
from fedsel.config import KEY_TABLE, SEED_ENV_VAR, load_config
from fedsel.errors import ConfigurationError
from test_config import FLOAT_KEYS

TINY = """
corpus.per_class_train = 8
corpus.per_class_val = 4
corpus.per_class_test = 4
federation.rounds = 2
federation.local_epochs = 2
baseline.max_epochs = 4
baseline.patience = 4
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parse_seeds_forms():
    assert _parse_seeds("3,5,9") == [3, 5, 9]
    assert _parse_seeds("1-4") == [1, 2, 3, 4]
    assert _parse_seeds("1..3") == [1, 2, 3]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1-2,9") == [1, 2, 9]
    for bad in ("x", "", "4-1", "1..", ","):
        with pytest.raises(ConfigurationError):
            _parse_seeds(bad)
    for text, seed in (("-5", -5), ("3,-1", -1), (f"{2**64 - 2}-{2**64}", 2**64)):
        with pytest.raises(ConfigurationError) as info:
            _parse_seeds(text)
        assert str(info.value) == f"--seeds: seed {seed} is outside 0..{2**64 - 1}"


def test_generate_writes_dataset_and_summary(tiny_config, tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["generate", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 2
    assert files[0].endswith(".dataset.csv")
    assert files[1].endswith(".partition.txt")
    stdout = capsys.readouterr().out
    assert "client" in stdout
    assert "dataset:" in stdout


def test_run_academic_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "runout"
    code = main(["run", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    suffixes = [n.split(".", 1)[1] for n in names]
    assert suffixes == ["metrics.jsonl", "metrics.txt", "weights.txt"]
    jsonl = next(out.glob("*.metrics.jsonl"))
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2  # rounds = 2
    entry = json.loads(lines[-1])
    assert entry["round"] == 2
    assert entry["workflow"] == "academic"
    stdout = capsys.readouterr().out
    assert "2 round(s)" in stdout


def test_run_industrial_halts_and_reports(tiny_config, tmp_path, capsys):
    out = tmp_path / "ind"
    cfg = tiny_config.parent / "ind.cfg"
    cfg.write_text(TINY + "federation.workflow = industrial\nfederation.halting_threshold = 0.0\n")
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    jsonl = next(out.glob("*.metrics.jsonl"))
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["halted"] is True
    assert "threshold met at round 1" in capsys.readouterr().out


def test_rounds_flag_sets_the_industrial_round_count_a_file_sets(tiny_config, tmp_path, capsys):
    """federation.rounds is the round count of both workflows, and --rounds
    beats it: an industrial run whose file sets 4 rounds, and whose
    threshold it never meets, runs the 2 rounds the flag asks for."""
    out = tmp_path / "ind"
    cfg = tiny_config.parent / "ind.cfg"
    cfg.write_text(TINY.replace("federation.rounds = 2", "federation.rounds = 4")
                   + "federation.workflow = industrial\nfederation.halting_threshold = 1.0\n")
    code = main(["run", "--config", str(cfg), "--rounds", "2", "--out", str(out)])
    assert code == 0
    jsonl = next(out.glob("*.metrics.jsonl"))
    assert len(jsonl.read_text().splitlines()) == 2
    assert "2 round(s)" in capsys.readouterr().out


def test_run_with_baseline(tiny_config, tmp_path, capsys):
    out = tmp_path / "base"
    cfg = tiny_config.parent / "base.cfg"
    cfg.write_text(TINY + "baseline.enabled = true\n")
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    log = next(out.glob("*.baseline.txt"))
    lines = log.read_text().splitlines()
    assert lines[-1].startswith("best_epoch ")
    assert all(l.startswith("epoch ") for l in lines[:-1])
    assert next(out.glob("*.baseline.weights.txt")).exists()
    assert "baseline: stopped after" in capsys.readouterr().out


def test_seed_flag_and_env_agree(tiny_config, tmp_path, monkeypatch, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(tiny_config), "--seed", "9", "--out", str(out_a)]) == 0
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert main(["run", "--config", str(tiny_config), "--out", str(out_b)]) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b  # same run_id both ways
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("raw, message", [
    ("eleven", f"{SEED_ENV_VAR}: expected an integer, got 'eleven'"),
    ("-4", f"{SEED_ENV_VAR} must fit in 64 unsigned bits"),
])
def test_only_run_reads_the_env_seed(tiny_config, tmp_path, monkeypatch, capsys, raw, message):
    """generate, compare and report do not read the master seed, so a
    FEDSEL_SEED that run would reject changes none of their files; run
    exits 2 and names the variable."""
    def outputs(out):
        for argv in (["generate"], ["compare", "--seeds", "1"], ["report"]):
            assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    plain = outputs(tmp_path / "plain")
    monkeypatch.setenv(SEED_ENV_VAR, raw)
    assert outputs(tmp_path / "env") == plain
    capsys.readouterr()
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeat_runs_are_byte_identical(tiny_config, tmp_path, capsys):
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_strategy_flag_changes_logs(tiny_config, tmp_path, capsys):
    out = tmp_path / "strat"
    assert main(["run", "--config", str(tiny_config), "--strategy", "oews", "--out", str(out)]) == 0
    capsys.readouterr()
    jsonl = next(out.glob("*.metrics.jsonl"))
    assert json.loads(jsonl.read_text().splitlines()[0])["strategy"] == "oews"


def test_compare_and_report_flow(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(tiny_config), "--seeds", "1,2", "--out", str(out)]
    )
    assert code == 0
    produced = sorted(p.name for p in out.iterdir())
    assert [n.split(".", 1)[1] for n in produced] == [
        "compare.csv",
        "summary.csv",
        "summary.txt",
    ]
    stdout = capsys.readouterr().out
    assert "global test set" in stdout
    assert "fl_oews" in stdout

    # report re-renders from the emitted CSV
    code = main(["report", "--config", str(tiny_config), "--out", str(out)])
    assert code == 0
    assert "sources:" in capsys.readouterr().out


@pytest.mark.parametrize("damage, message", [
    ("short_row", "5 cells, expected 10"),
    ("bad_metric", "could not convert string to float: 'n/a'"),
    ("non_finite_metric", "macro_precision cell 'nan' is not a finite number"),
    ("not_utf8", "'utf-8' codec can't decode byte 0xff"),
    ("unknown_variant", "unknown variant 'fl_fedprox'"),
    ("unknown_test_set", "unknown test set 'internal'"),
    ("repeated_row", "two rows for seed 1 local_client_1 on the global test set"),
])
def test_report_over_a_damaged_compare_csv_exits_2(tiny_config, tmp_path, capsys, damage, message):
    out = tmp_path / "cmp"
    main(["compare", "--config", str(tiny_config), "--seeds", "1", "--out", str(out)])
    path = next(out.glob("*.compare.csv"))
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    assert cells[3] == "ok"
    if damage == "short_row":
        cells = cells[:5]
    elif damage == "bad_metric":
        cells[4] = "n/a"
    elif damage == "non_finite_metric":
        cells[5] = "nan"
    elif damage == "unknown_variant":
        cells[1] = "fl_fedprox"
    elif damage == "unknown_test_set":
        cells[2] = "internal"
    lines[3] = ",".join(cells)
    if damage == "repeated_row":
        lines.append(lines[3])
    data = ("\n".join(lines) + "\n").encode()
    if damage == "not_utf8":
        data += b"\xff\n"  # a line that is not UTF-8
    path.write_bytes(data)
    capsys.readouterr()
    code = main(["report", "--config", str(tiny_config), "--out", str(out)])
    assert code == 2
    where = "" if damage in ("not_utf8", "repeated_row") else "comparison CSV line 4: "
    assert f"{path.name}: {where}{message}" in capsys.readouterr().err


def test_report_over_two_runs_of_the_same_seeds_exits_2(tiny_config, tmp_path, capsys):
    """Two compare runs of seeds 1-2 that differ only in their round count
    write two CSVs into one directory. Summarizing both would count each
    seed twice, from two experiments, so report refuses, naming both."""
    out = tmp_path / "cmp"
    for rounds in ("1", "2"):
        args = ["compare", "--config", str(tiny_config), "--seeds", "1-2", "--rounds", rounds]
        assert main([*args, "--epochs", "1", "--out", str(out)]) == 0
    first, second = sorted(out.glob("*.compare.csv"))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "sources:" not in captured.out
    assert (
        f"{first} and {second}: two rows for seed 1 local_client_0 on the global test set"
        in captured.err
    )


def test_report_names_its_summary_after_the_one_csv_it_reads(tiny_config, tmp_path, capsys):
    """Without --config, a report over one compare CSV writes the summary
    that compare wrote beside it, under that CSV's run id, not the default
    config's."""
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_config), "--seeds", "1", "--out", str(out)]) == 0
    (source,) = out.glob("*.compare.csv")
    run_id = source.name.removesuffix(".compare.csv")
    written = {p.name: p.read_bytes() for p in out.glob("*.summary.*")}
    assert sorted(written) == [f"{run_id}.summary.csv", f"{run_id}.summary.txt"]
    for name in written:
        (out / name).unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("*.summary.*")} == written


def test_report_with_a_config_reads_only_that_config_s_run(tiny_config, tmp_path, capsys):
    """With --config, report summarizes that config's compare CSV or nothing:
    another run's CSV in the same directory is neither read nor rewritten."""
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_config), "--seeds", "1", "--out", str(out)]) == 0
    other = tiny_config.parent / "other.cfg"
    other.write_text(TINY + "corpus.noise_scale = 2.0\n")
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    assert main(["report", "--config", str(other), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "sources:" not in captured.out
    assert ".compare.csv for this config; run compare with it first" in captured.err
    assert str(out) in captured.err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


def test_report_flags_name_one_run_as_a_config_does(tmp_path, capsys):
    """--rounds and --epochs are keys of the run_id, so without --config
    they name one run too: beside another run of the same seed, report
    --rounds 1 --epochs 1 summarizes only the comparison those flags hash
    to, byte for byte as compare did, while --out alone refuses both."""
    out = tmp_path / "cmp"
    for rounds in ("1", "2"):
        args = ["compare", "--seeds", "1", "--rounds", rounds, "--epochs", "1", "--out", str(out)]
        assert main(args) == 0
    _, run_id = load_config(overrides={"federation.rounds": "1", "federation.local_epochs": "1"},
                            unhashed=_UNREAD["report"])
    written = {p.name: p.read_bytes() for p in out.glob(f"{run_id}.summary.*")}
    assert len(written) == 2
    for name in written:
        (out / name).unlink()
    capsys.readouterr()
    assert main(["report", "--rounds", "1", "--epochs", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"sources: {out / run_id}.compare.csv\n")
    assert {p.name: p.read_bytes() for p in out.glob(f"{run_id}.summary.*")} == written
    assert main(["report", "--out", str(out)]) == 2
    assert "two rows for seed 1 local_client_0" in capsys.readouterr().err


def test_report_without_compare_output_fails(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "run compare first" in capsys.readouterr().err


def test_a_run_whose_weights_overflow_exits_1_with_one_clean_line(tiny_config, tmp_path, capsys):
    """At a learning rate of 1e200 every client's weights overflow in the
    first epoch. Under the suite's warnings-as-errors filter, numpy's
    overflow warnings would escape as exceptions; instead the run fails by
    the client, the round and the epoch, and stderr holds that line only."""
    cfg = tiny_config.parent / "overflow.cfg"
    cfg.write_text(TINY + "federation.learning_rate = 1e200\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: client 0 failed in round 1: client 0 epoch 1: weights are not finite\n"
    )


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_run_with_a_non_finite_float_exits_2(tiny_config, tmp_path, capsys, key, raw):
    """A non-finite number fails before any training, naming its key."""
    cfg = tiny_config.parent / "bad.cfg"
    cfg.write_text(TINY + f"{key} = {raw}\n")
    out = tmp_path / "never"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config key {key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seeds_flag_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    for seeds, message in (
        ("4-1", "--seeds range '4-1' is reversed"),
        ("-5", f"--seeds: seed -5 is outside 0..{2**64 - 1}"),
    ):
        argv = ["compare", "--config", str(tiny_config), f"--seeds={seeds}", "--out", str(out)]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_repeated_seed_exits_2(tiny_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(tiny_config), "--seeds", "1-3,2", "--out", str(out)])
    assert code == 2
    assert "seed 2 is repeated" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("corpus.classcount = 5\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "corpus.classcount" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"corpus.noise_scale = 2\xff\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff" in err


# The keys each command reads, stated apart from cli._UNREAD: a dataset
# depends only on the corpus and the partition; compare (and report, which
# reads what compare wrote) runs both strategies and the baselines on the
# corpus and master seeds that --seeds names.
COMPARE_UNREAD = {
    "corpus.seed", "federation.strategy", "federation.master_seed", "baseline.enabled",
}
READS = {
    "generate": lambda key: key.startswith(("corpus.", "partition.")),
    "run": lambda key: True,
    "compare": lambda key: key not in COMPARE_UNREAD,
    "report": lambda key: key not in COMPARE_UNREAD,
}

# a valid value other than the default, for every key but output.dir
OTHER_VALUE = {
    "corpus.class_count": "4",
    "corpus.feature_dim": "8",
    "corpus.per_class_train": "40",
    "corpus.per_class_val": "10",
    "corpus.per_class_test": "10",
    "corpus.class_separation": "3.0",
    "corpus.noise_scale": "2.0",
    "corpus.shift_magnitude": "1.0",
    "corpus.seed": "5",
    "partition.client_count": "3",
    "partition.missing_class": "0:2, 1:4, 2:3, 3:1",
    "federation.rounds": "3",
    "federation.local_epochs": "4",
    "federation.strategy": "oews",
    "federation.selection_metric": "val_loss",
    "federation.aggregation": "weighted",
    "federation.workflow": "industrial",
    "federation.halting_metric": "accuracy",
    "federation.halting_threshold": "0.8",
    "federation.learning_rate": "0.01",
    "federation.momentum": "0.5",
    "federation.batch_size": "8",
    "federation.master_seed": "4",
    "federation.hidden_layers": "24,12",
    "federation.model_seed": "9",
    "baseline.enabled": "true",
    "baseline.max_epochs": "50",
    "baseline.patience": "10",
    "baseline.learning_rate": "0.01",
    "baseline.momentum": "0.5",
    "baseline.batch_size": "8",
}


@pytest.mark.parametrize("key", sorted(KEY_TABLE.keys() - {"output.dir"}))
@pytest.mark.parametrize("command", sorted(READS))
def test_a_command_s_run_id_moves_with_exactly_the_keys_it_reads(command, key):
    """A key the command does not read leaves its run_id alone, so one
    output keeps one name; a key it reads moves it, so two different
    outputs never share a name."""
    unhashed = _UNREAD[command]
    before = load_config(unhashed=unhashed)[1]
    after = load_config(overrides={key: OTHER_VALUE[key]}, unhashed=unhashed)[1]
    assert (after != before) == READS[command](key)


def test_compare_runs_that_differ_only_in_keys_it_does_not_read_write_one_csv(
    tiny_config, tmp_path, monkeypatch, capsys
):
    """Six compare runs whose configs differ only in keys compare does not
    read write one CSV under one name, and report can summarize it."""
    out = tmp_path / "cmp"
    cfg = tmp_path / "run.cfg"

    def compare(line: str = "") -> bytes:
        cfg.write_text(TINY + line + "\n")
        argv = ["compare", "--config", str(cfg), "--seeds", "1", "--rounds", "1", "--epochs", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        return next(out.glob("*.compare.csv")).read_bytes()

    first = compare()
    for line in ("federation.strategy = oews", "corpus.seed = 5", "baseline.enabled = true",
                 "federation.master_seed = 4"):
        assert compare(line) == first
    monkeypatch.setenv(SEED_ENV_VAR, "9")
    assert compare() == first
    assert len(list(out.glob("*.compare.csv"))) == 1
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0


# the flags each command takes: those whose keys it reads
FLAGS = {
    "generate": {"--config", "--out"},
    "run": {"--config", "--seed", "--out", "--strategy", "--workflow", "--rounds", "--epochs"},
    "compare": {"--config", "--out", "--workflow", "--rounds", "--epochs", "--seeds"},
    "report": {"--config", "--out", "--workflow", "--rounds", "--epochs"},
}
FLAG_VALUES = {
    "--config": "run.cfg", "--seed": "3", "--out": "o", "--strategy": "oews",
    "--workflow": "industrial", "--rounds": "2", "--epochs": "1", "--seeds": "1",
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(FLAGS))
def test_a_command_takes_only_the_flags_of_the_keys_it_reads(command, flag, monkeypatch, capsys):
    """main parses the flags; the command itself does not run here."""
    monkeypatch.setitem(_COMMANDS, command, lambda args: 0)
    argv = [command, flag, FLAG_VALUES[flag]]
    if flag in FLAGS[command]:
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
