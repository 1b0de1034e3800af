"""Command-line front end: generate datasets, run training, compare variants,
re-render reports. A command offers flags for, and hashes into its run_id,
only the config keys that can reach its outputs (``_UNREAD``).

Exit codes: 0 when everything requested completed, 1 when a run failed
partway, 2 for configuration problems (unknown key, bad value, unreadable
file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import KEY_TABLE, RunConfig, load_config
from .data import dataset_csv_text, make_dataset, merge_for_centralized, partition_summary
from .errors import ConfigurationError, FedselError
from .nn import MAX_SEED, weights_text
from .orchestrator import (
    Workflow,
    atomic_write_text,
    baseline_stream,
    run_centralized,
    run_federation,
    round_metrics,
    write_metrics_logs,
)
from .reporting import csv_to_rows, run_comparison, write_comparison, write_summary

# command -> the config keys that cannot reach its outputs: load_config leaves
# them out of the run_id, and the command has no flag that sets one. compare
# runs both strategies and the baselines on the seeds --seeds names.
_UNREAD = {
    "generate": frozenset(
        k for k in KEY_TABLE if not k.startswith(("corpus.", "partition.", "output."))
    ),
    "run": frozenset(),
    "compare": frozenset(
        {"corpus.seed", "federation.strategy", "federation.master_seed", "baseline.enabled"}
    ),
}
_UNREAD["report"] = _UNREAD["compare"]  # so report --config finds what compare wrote

# flag -> (the config key it sets, argparse options); argparse stores each
# flag's value under its key
_FLAGS = {
    "seed": ("federation.master_seed", {"type": int, "help": "master seed (beats FEDSEL_SEED)"}),
    "out": ("output.dir", {"help": "output directory (beats output.dir)"}),
    "strategy": ("federation.strategy", {"choices": ["fews", "oews"]}),
    "workflow": ("federation.workflow", {"choices": ["academic", "industrial"]}),
    "rounds": ("federation.rounds", {"type": int, "help": "communication rounds"}),
    "epochs": ("federation.local_epochs", {"type": int, "help": "local epochs per round"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsel",
        description="Deterministic federated-learning simulator comparing "
        "client-side weight-selection strategies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, unread in _UNREAD.items():
        # no abbreviations: compare --seed must not pass for --seeds
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__, allow_abbrev=False)
        p.add_argument("--config", help="path to a key = value config file")
        for flag, (key, options) in _FLAGS.items():
            if key not in unread:
                p.add_argument(f"--{flag}", dest=key, **options)
        if command == "compare":
            p.add_argument(
                "--seeds",
                default="1-10",
                help="comma-separated seeds and inclusive ranges, a-b or a..b, "
                "like 3,5,9 or 1-10 or 1..4,9 (default 1-10)",
            )
    return parser


def _load(args: argparse.Namespace) -> tuple[RunConfig, str]:
    given = {key: v for key, v in vars(args).items() if key in KEY_TABLE and v is not None}
    seed = given.pop("federation.master_seed", None)  # --seed beats FEDSEL_SEED; overrides do not
    overrides = {key: str(v) for key, v in given.items()}
    return load_config(args.config, overrides, seed, unhashed=_UNREAD[args.command])


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        sep = ".." if ".." in part else "-" if "-" in part[1:] else None
        ends = part.split(sep, 1) if sep else [part, part]
        try:
            lo, hi = int(ends[0]), int(ends[1])
        except ValueError:
            raise ConfigurationError(f"--seeds: cannot parse {part!r}") from None
        if hi < lo:
            raise ConfigurationError(f"--seeds range {part!r} is reversed")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ConfigurationError("--seeds named no seeds")
    bad = next((seed for seed in seeds if not 0 <= seed <= MAX_SEED), None)
    if bad is not None:
        raise ConfigurationError(f"--seeds: seed {bad} is outside 0..{MAX_SEED}")
    return seeds


def cmd_generate(args: argparse.Namespace) -> int:
    """write dataset CSV and partition summary"""
    cfg, run_id = _load(args)
    clients, evals = make_dataset(cfg.corpus, cfg.partition)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset_path = out / f"{run_id}.dataset.csv"
    atomic_write_text(dataset_path, dataset_csv_text(clients, evals))
    summary = partition_summary(clients, cfg.corpus.class_count)
    atomic_write_text(out / f"{run_id}.partition.txt", summary + "\n")
    print(summary)
    print(f"\ndataset: {dataset_path}")
    print(f"partition summary: {out / (run_id + '.partition.txt')}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """run the federation (and baseline if enabled)"""
    cfg, run_id = _load(args)
    clients, evals = make_dataset(cfg.corpus, cfg.partition)
    cohort = (cfg.master_seed, clients, evals)
    records, params = run_federation(cfg.federation, cfg.strategy, cohort)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path, txt_path = write_metrics_logs(
        records, run_id, cfg.federation.workflow, cfg.strategy, out
    )
    weights_path = out / f"{run_id}.weights.txt"
    atomic_write_text(weights_path, weights_text(params))

    last = records[-1]
    metrics = round_metrics(last)
    cells = " ".join(f"{k}={v:.6f}" for k, v in metrics.items())
    print(f"run {run_id}: {len(records)} round(s), final {cells}")
    if cfg.federation.workflow is Workflow.INDUSTRIAL:
        verdict = "threshold met" if last.halted else "round cap reached"
        print(f"halting: {verdict} at round {last.round}")
    print(f"metrics: {jsonl_path}")
    print(f"         {txt_path}")
    print(f"weights: {weights_path}")

    if cfg.baseline_enabled:
        train, val = merge_for_centralized(clients)
        result = run_centralized(
            cfg.baseline, train, val, cfg.federation.model,
            baseline_stream(cfg.master_seed, tag=0),
        )
        lines = [
            f"epoch {i} val_macro_f1 {v:.6f}" for i, v in enumerate(result.trace, start=1)
        ]
        lines.append(f"best_epoch {result.best_epoch} epochs_run {result.epochs_run}")
        baseline_log = out / f"{run_id}.baseline.txt"
        atomic_write_text(baseline_log, "\n".join(lines) + "\n")
        baseline_weights = out / f"{run_id}.baseline.weights.txt"
        atomic_write_text(baseline_weights, weights_text(result.params))
        print(f"baseline: stopped after {result.epochs_run} epochs, best {result.best_epoch}")
        print(f"          {baseline_log}")
        print(f"          {baseline_weights}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """multi-seed strategy/baseline comparison"""
    cfg, run_id = _load(args)
    seeds = _parse_seeds(args.seeds)
    rows = run_comparison(cfg, seeds)
    text, paths = write_comparison(rows, run_id, cfg.out_dir)
    print(text)
    for name in ("rows", "summary_csv", "summary_txt"):
        print(f"{name}: {paths[name]}")
    failures = [r for r in rows if r.status == "failed"]
    if failures:
        seen = set()
        for r in failures:
            key = (r.seed, r.variant)
            if key not in seen:
                seen.add(key)
                print(f"failed: seed {r.seed} {r.variant}: {r.error}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """re-render summary tables from compare output"""
    cfg, run_id = _load(args)
    out = Path(cfg.out_dir)
    # a config, or a flag for a key in the run_id, names one run: summarize
    # its comparison or nothing
    if args.config is not None or any(
        v is not None for key, v in vars(args).items() if key in KEY_TABLE and key != "output.dir"
    ):
        candidates = [out / f"{run_id}.compare.csv"]
        if not candidates[0].is_file():
            raise ConfigurationError(
                f"no {candidates[0]} for this config; run compare with it first"
            )
    else:
        candidates = sorted(out.glob("*.compare.csv")) if out.is_dir() else []
    if not candidates:
        raise ConfigurationError(f"no .compare.csv files under {out}; run compare first")
    rows = []
    source = {}  # (seed, variant, test set) -> the file whose row it is
    for path in candidates:
        try:
            found = csv_to_rows(path.read_text(encoding="utf-8"))
        except (ConfigurationError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        for r in found:
            key = (r.seed, r.variant, r.test_set)
            if key in source:
                files = path if source[key] == path else f"{source[key]} and {path}"
                raise ConfigurationError(
                    f"{files}: two rows for seed {r.seed} {r.variant} on the {r.test_set} test set"
                )
            source[key] = path
        rows.extend(found)
    stem = candidates[0].name.removesuffix(".compare.csv") if len(candidates) == 1 else "report"
    text, _ = write_summary(rows, stem, out)
    print(text)
    print(f"sources: {', '.join(str(p) for p in candidates)}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "compare": cmd_compare,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FedselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
