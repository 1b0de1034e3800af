"""Multi-seed comparison campaigns and their CSV/text tables.

A campaign runs, per seed: both federation strategies, one isolated model per
client, and the merged centralized baseline, all on the same generated
datasets, then scores everything on the global and external test sets. The
summary lists mean and sample standard deviation across seeds.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .config import RunConfig
from .data import ClientDataset, EvalSets, make_dataset, merge_for_centralized
from .errors import ConfigurationError
from .nn import ParameterVector
from .orchestrator import (
    CentralizedResult,
    atomic_write_text,
    baseline_stream,
    run_baselines,
    run_federations,
)
from .strategies import METRIC_NAMES, StrategyKind, score_params

METRIC_COLUMNS = (*METRIC_NAMES, "confidence")
TEST_SETS = ("global", "external")


@dataclass(frozen=True)
class ComparisonRow:
    seed: int
    variant: str
    test_set: str
    status: str  # "ok" or "failed"
    metrics: dict[str, float] | None
    error: str = ""


def variant_order(rows: list[ComparisonRow]) -> list[str]:
    locals_ = sorted({r.variant for r in rows if r.variant.startswith("local_client_")})
    tail = [v for v in ("centralized", "fl_fews", "fl_oews") if any(r.variant == v for r in rows)]
    return locals_ + tail


def run_comparison(cfg: RunConfig, seeds: list[int]) -> list[ComparisonRow]:
    """One ComparisonRow per (seed, variant, test set), seed by seed in the
    order given. A variant that raises is recorded as failed for both test
    sets and the campaign proceeds.

    The seeds run in lockstep. Every seed's local-client and pooled
    baselines train in one ``run_baselines`` call, so the equal-size local
    clients of all seeds share a stack. Every seed's two federations run in
    one ``run_federations`` call, a cohort per seed, so each round's client
    runs of all seeds share a stack too. A failure stays inside its seed.
    A seed's final weights are scored by one ``score_params`` call per
    test set."""
    if not seeds:
        raise ConfigurationError("comparison needs at least one seed")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigurationError(f"comparison seeds must be distinct; seed {repeated} is repeated")
    datasets = [make_dataset(replace(cfg.corpus, seed=seed), cfg.partition) for seed in seeds]
    baselines = _baselines(cfg, seeds, datasets)
    cohorts = [
        ([replace(cfg.federation, strategy=strategy, master_seed=seed)
          for strategy in (StrategyKind.FEWS, StrategyKind.OEWS)], clients, evals)
        for seed, (clients, evals) in zip(seeds, datasets)
    ]
    try:
        federations = run_federations(cohorts)
    except Exception as exc:
        federations = [[exc] * len(fed_cfgs) for fed_cfgs, _, _ in cohorts]

    rows: list[ComparisonRow] = []
    for seed, (clients, evals), results, (fed_cfgs, _, _), outcomes in zip(
        seeds, datasets, baselines, cohorts, federations
    ):
        variants = [f"local_client_{c.client_id}" for c in clients] + ["centralized"]
        variants += [f"fl_{fed_cfg.strategy.value}" for fed_cfg in fed_cfgs]
        trained = [r if isinstance(r, Exception) else r.params for r in results]
        trained += [o if isinstance(o, Exception) else o[1] for o in outcomes]
        rows += _score_seed(seed, zip(variants, trained), cfg.federation.model, evals)
    return rows


def _baselines(
    cfg: RunConfig, seeds: list[int], datasets: list[tuple[list[ClientDataset], EvalSets]]
) -> list[list[CentralizedResult | Exception]]:
    """Per seed, the results of its local-client baselines and then of its
    pooled baseline, every seed's trained in one ``run_baselines`` call. A
    seed whose clients cannot be pooled fails all of its baselines with
    that error. The pooled copies live only as long as the call."""
    per_seed = []
    for seed, (clients, _) in zip(seeds, datasets):
        rows = [
            (f"client {c.client_id}", c.train, c.val, baseline_stream(seed, tag=c.client_id + 1))
            for c in clients
        ]
        try:
            pooled = merge_for_centralized(clients)
            rows.append(("centralized", *pooled, baseline_stream(seed, tag=0)))
        except Exception as exc:
            rows = [exc] * (len(clients) + 1)
        per_seed.append(rows)
    trainable = [row for rows in per_seed for row in rows if not isinstance(row, Exception)]
    try:
        results = iter(run_baselines(cfg.baseline, trainable, cfg.federation.model))
    except Exception as exc:
        results = iter([exc] * len(trainable))
    return [
        [row if isinstance(row, Exception) else next(results) for row in rows]
        for rows in per_seed
    ]


def _score_seed(
    seed: int, trained: Iterable[tuple[str, ParameterVector | Exception]], model, evals: EvalSets
) -> list[ComparisonRow]:
    """A seed's rows from its (variant, final weights or exception) pairs:
    the weights scored on both test sets, or the error on both. The
    trained weights go through one ``score_params`` call per test set; if
    one raises, every variant it scores fails with its error."""
    trained = list(trained)
    params = [p for _, p in trained if not isinstance(p, Exception)]
    try:
        # per trained variant, its scores on each of TEST_SETS
        scored = zip(*[score_params(params, model, split)
                       for split in (evals.global_test, evals.external_test)])
    except Exception as exc:
        trained = [(variant, exc) for variant, _ in trained]
    rows = []
    for variant, outcome in trained:
        if isinstance(outcome, Exception):
            rows += [ComparisonRow(seed, variant, name, "failed", None, str(outcome))
                     for name in TEST_SETS]
            continue
        for name, s in zip(TEST_SETS, next(scored)):
            metrics = {**{m: s.report.scalar(m) for m in METRIC_NAMES}, "confidence": s.confidence}
            rows.append(ComparisonRow(seed, variant, name, "ok", metrics))
    return rows


@dataclass(frozen=True)
class SummaryRow:
    variant: str
    test_set: str
    means: dict[str, float]
    sds: dict[str, float]
    ok: int
    failed: int


def _sample_sd(values: list[float], mean: float) -> float:
    if len(values) < 2:
        return 0.0
    return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def summarize(rows: list[ComparisonRow]) -> list[SummaryRow]:
    out = []
    for variant in variant_order(rows):
        for test_set in TEST_SETS:
            group = [r for r in rows if r.variant == variant and r.test_set == test_set]
            if not group:
                continue
            ok = [r for r in group if r.status == "ok"]
            means, sds = {}, {}
            for metric in METRIC_COLUMNS:
                values = [r.metrics[metric] for r in ok]
                means[metric] = sum(values) / len(values) if values else float("nan")
                sds[metric] = _sample_sd(values, means[metric]) if values else float("nan")
            out.append(
                SummaryRow(variant, test_set, means, sds, len(ok), len(group) - len(ok))
            )
    return out


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "variant", "test_set", "status", *METRIC_COLUMNS, "error"])
    for r in rows:
        cells = [str(r.seed), r.variant, r.test_set, r.status]
        if r.metrics is None:
            cells += [""] * len(METRIC_COLUMNS)
        else:
            cells += [f"{r.metrics[m]:.6f}" for m in METRIC_COLUMNS]
        cells.append(r.error)
        writer.writerow(cells)
    return buf.getvalue()


def csv_to_rows(text: str) -> list[ComparisonRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expected = ["seed", "variant", "test_set", "status", *METRIC_COLUMNS, "error"]
    if header != expected:
        raise ConfigurationError(f"unexpected comparison CSV header: {header}")
    rows = []
    for cells in reader:
        where = f"comparison CSV line {reader.line_num}"
        if len(cells) != len(expected):
            raise ConfigurationError(f"{where}: {len(cells)} cells, expected {len(expected)}")
        seed, variant, test_set, status = cells[:4]
        if status not in ("ok", "failed"):
            raise ConfigurationError(f"{where}: status {status!r} is neither ok nor failed")
        try:
            seed_number = int(seed)
            metrics = None
            if status == "ok":
                metrics = {m: float(v) for m, v in zip(METRIC_COLUMNS, cells[4:-1])}
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        rows.append(ComparisonRow(seed_number, variant, test_set, status, metrics, cells[-1]))
    return rows


def summary_to_csv(summaries: list[SummaryRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["variant", "test_set"]
    for metric in METRIC_COLUMNS:
        header += [f"{metric}_mean", f"{metric}_sd"]
    header += ["runs_ok", "runs_failed"]
    writer.writerow(header)
    for s in summaries:
        cells = [s.variant, s.test_set]
        for metric in METRIC_COLUMNS:
            cells += [f"{s.means[metric]:.6f}", f"{s.sds[metric]:.6f}"]
        cells += [str(s.ok), str(s.failed)]
        writer.writerow(cells)
    return buf.getvalue()


def summary_to_text(summaries: list[SummaryRow]) -> str:
    lines = []
    width = max([len(s.variant) for s in summaries], default=10) + 2
    for test_set in TEST_SETS:
        block = [s for s in summaries if s.test_set == test_set]
        if not block:
            continue
        lines.append(f"{test_set} test set")
        head = "variant".ljust(width) + "".join(m.rjust(22) for m in METRIC_COLUMNS)
        lines.append(head)
        lines.append("-" * len(head))
        for s in block:
            cells = "".join(
                f"{s.means[m]:.6f} ± {s.sds[m]:.6f}".rjust(22) for m in METRIC_COLUMNS
            )
            row = s.variant.ljust(width) + cells
            if s.failed:
                row += f"   ({s.failed} failed)"
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def write_comparison(
    rows: list[ComparisonRow], run_id: str, out_dir: Path | str
) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = summarize(rows)
    paths = {
        "rows": out_dir / f"{run_id}.compare.csv",
        "summary_csv": out_dir / f"{run_id}.summary.csv",
        "summary_txt": out_dir / f"{run_id}.summary.txt",
    }
    atomic_write_text(paths["rows"], rows_to_csv(rows))
    atomic_write_text(paths["summary_csv"], summary_to_csv(summaries))
    atomic_write_text(paths["summary_txt"], summary_to_text(summaries))
    return paths
