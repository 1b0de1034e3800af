"""Command-line front end: generate datasets, run training, compare variants,
re-render reports.

Exit codes: 0 when everything requested completed, 1 when a run failed
partway, 2 for configuration problems (unknown key, bad value, unreadable
file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .data import dataset_csv_text, make_dataset, merge_for_centralized, partition_summary
from .errors import ConfigurationError, FedselError
from .nn import weights_text
from .orchestrator import (
    Workflow,
    atomic_write_text,
    baseline_stream,
    run_centralized,
    run_federation,
    round_metrics,
    write_metrics_logs,
)
from .reporting import (
    csv_to_rows,
    run_comparison,
    summarize,
    summary_to_csv,
    summary_to_text,
    write_comparison,
)

_FLAG_KEYS = {
    "out": "output.dir",
    "strategy": "federation.strategy",
    "workflow": "federation.workflow",
    "rounds": "federation.rounds",
    "epochs": "federation.local_epochs",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsel",
        description="Deterministic federated-learning simulator comparing "
        "client-side weight-selection strategies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="master seed (beats FEDSEL_SEED and the file)")
        p.add_argument("--out", help="output directory (beats output.dir)")
        p.add_argument("--strategy", choices=["fews", "oews"])
        p.add_argument("--workflow", choices=["academic", "industrial"])
        p.add_argument("--rounds", type=int, help="communication rounds")
        p.add_argument("--epochs", type=int, help="local epochs per round")

    add_common(sub.add_parser("generate", help="write dataset CSV and partition summary"))
    add_common(sub.add_parser("run", help="run the federation (and baseline if enabled)"))
    compare = sub.add_parser("compare", help="multi-seed strategy/baseline comparison")
    add_common(compare)
    compare.add_argument(
        "--seeds",
        default="1-10",
        help="seed list like 3,5,9 or 1-10 (default 1-10)",
    )
    add_common(sub.add_parser("report", help="re-render summary tables from compare output"))
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    out = {}
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            out[key] = str(value)
    return out


def _load(args: argparse.Namespace) -> tuple[RunConfig, str]:
    return load_config(args.config, overrides=_overrides(args), seed_override=args.seed)


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        sep = ".." if ".." in part else "-" if "-" in part[1:] else None
        try:
            if sep:
                lo, hi = part.split(sep, 1)
                lo_i, hi_i = int(lo), int(hi)
                if hi_i < lo_i:
                    raise ConfigurationError(f"--seeds range {part!r} is reversed")
                seeds.extend(range(lo_i, hi_i + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise ConfigurationError(f"--seeds: cannot parse {part!r}") from None
    if not seeds:
        raise ConfigurationError("--seeds named no seeds")
    return seeds


def cmd_generate(args: argparse.Namespace) -> int:
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
    cfg, run_id = _load(args)
    clients, evals = make_dataset(cfg.corpus, cfg.partition)
    records, params = run_federation(cfg.federation, clients, evals)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path, txt_path = write_metrics_logs(
        records, run_id, cfg.federation.workflow, cfg.federation.strategy, out
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
            baseline_stream(cfg.federation.master_seed, tag=0),
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
    cfg, run_id = _load(args)
    seeds = _parse_seeds(args.seeds)
    rows = run_comparison(cfg, seeds)
    paths = write_comparison(rows, run_id, cfg.out_dir)
    print(summary_to_text(summarize(rows)))
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
    cfg, run_id = _load(args)
    out = Path(cfg.out_dir)
    candidates = sorted(out.glob("*.compare.csv")) if out.is_dir() else []
    preferred = out / f"{run_id}.compare.csv"
    if args.config is not None and preferred.exists():
        candidates = [preferred]
    if not candidates:
        raise ConfigurationError(f"no .compare.csv files under {out}; run compare first")
    rows = []
    for path in candidates:
        try:
            rows.extend(csv_to_rows(path.read_text(encoding="utf-8")))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    summaries = summarize(rows)
    text = summary_to_text(summaries)
    stem = candidates[0].name.removesuffix(".compare.csv") if len(candidates) == 1 else "report"
    atomic_write_text(out / f"{stem}.summary.csv", summary_to_csv(summaries))
    atomic_write_text(out / f"{stem}.summary.txt", text)
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
    except FedselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
