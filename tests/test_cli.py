import json

import pytest

from fedsel.cli import _parse_seeds, main
from fedsel.config import SEED_ENV_VAR
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
    else:
        cells[4] = "n/a"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["report", "--config", str(tiny_config), "--out", str(out)])
    assert code == 2
    assert f"{path.name}: comparison CSV line 4: {message}" in capsys.readouterr().err


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


def test_report_without_compare_output_fails(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "run compare first" in capsys.readouterr().err


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
    code = main(
        ["compare", "--config", str(tiny_config), "--seeds", "4-1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--seeds" in capsys.readouterr().err


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
