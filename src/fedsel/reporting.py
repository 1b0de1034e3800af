"""Multi-seed comparison campaigns and their CSV/text tables.

A campaign runs, per seed: both federation strategies, one isolated model per
client, and the merged centralized baseline, all on the same generated
datasets, then scores everything on the global and external test sets. The
summary lists mean and sample standard deviation across seeds.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .config import RunConfig
from .data import EvalSets, make_dataset, merge_for_centralized
from .errors import ConfigurationError, DataError
from .nn import ParameterVector
from .orchestrator import (
    atomic_write_text,
    baseline_stream,
    run_baselines,
    run_federations,
)
from .strategies import METRIC_NAMES, StrategyKind, score_params

METRIC_COLUMNS = (*METRIC_NAMES, "confidence")
TEST_SETS = ("global", "external")
POOLED_VARIANTS = ("centralized", "fl_fews", "fl_oews")

# The most seeds that run in lockstep: a campaign of more seeds runs them in
# contiguous chunks of this many, one lockstep per chunk. A lockstep holds
# all its seeds' datasets at once, and past about 20 seeds it grows slower
# as well as larger. Picked from a sweep of 5 to 40 seeds per chunk on 30-
# and 60-seed campaigns of each preset (the README's Presets section): 10
# was within noise of the fastest size on each, at about 46 MiB peak RSS.
LOCKSTEP_SEEDS = 10


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
    tail = [v for v in POOLED_VARIANTS if any(r.variant == v for r in rows)]
    return locals_ + tail


def run_comparison(cfg: RunConfig, seeds: list[int]) -> list[ComparisonRow]:
    """One ComparisonRow per (seed, variant, test set), seed by seed in the
    order given. A variant that raises is recorded as failed for both test
    sets and the campaign proceeds.

    The seeds run in contiguous chunks of at most ``LOCKSTEP_SEEDS``, in
    order, each chunk in lockstep (``_run_lockstep``), and their rows are
    concatenated. A seed's rows depend only on the seed, so the chunk size
    moves no byte; it bounds how many seeds' datasets and stacks are held
    at once."""
    if not seeds:
        raise ConfigurationError("comparison needs at least one seed")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigurationError(f"comparison seeds must be distinct; seed {repeated} is repeated")
    rows: list[ComparisonRow] = []
    for lo in range(0, len(seeds), LOCKSTEP_SEEDS):
        rows += _run_lockstep(cfg, seeds[lo : lo + LOCKSTEP_SEEDS])
    return rows


def _run_lockstep(cfg: RunConfig, seeds: list[int]) -> list[ComparisonRow]:
    """``run_comparison``'s rows of distinct ``seeds``, run in lockstep.
    Every seed's local-client and pooled baselines train in one
    ``run_baselines`` call, so the equal-size local clients of all seeds
    share a stack; its results come back in row order, K local rows and
    then the pooled row per seed. Every seed's two federations run in one
    ``run_federations`` call, a cohort per seed, so each round's client
    runs of all seeds share a stack too. A failure stays inside its seed.
    A seed's final weights are scored by one ``score_params`` call per
    test set."""
    datasets = [make_dataset(replace(cfg.corpus, seed=seed), cfg.partition) for seed in seeds]
    baselines = []
    for seed, (clients, _) in zip(seeds, datasets):
        baselines += [
            (f"client {c.client_id}", c.train, c.val, baseline_stream(seed, tag=c.client_id + 1))
            for c in clients
        ]
        baselines.append(("centralized", *merge_for_centralized(clients), baseline_stream(seed)))
    try:
        results = iter(run_baselines(cfg.baseline, baselines, cfg.federation.model))
    except Exception as exc:
        results = iter([exc] * len(baselines))
    del baselines  # the pooled copies live only as long as the call
    strategies = [StrategyKind.FEWS, StrategyKind.OEWS]
    cohorts = [(seed, clients, evals) for seed, (clients, evals) in zip(seeds, datasets)]
    try:
        federations = run_federations(cfg.federation, strategies, cohorts)
    except Exception as exc:
        federations = [[exc] * len(strategies) for _ in cohorts]

    rows: list[ComparisonRow] = []
    for seed, (clients, evals), outcomes in zip(seeds, datasets, federations):
        variants = [f"local_client_{c.client_id}" for c in clients] + ["centralized"]
        trained = [next(results) for _ in variants]
        trained = [r if isinstance(r, Exception) else r.params for r in trained]
        variants += [f"fl_{strategy.value}" for strategy in strategies]
        trained += [o if isinstance(o, Exception) else o[1] for o in outcomes]
        rows += _score_seed(seed, zip(variants, trained), cfg.federation.model, evals)
    return rows


def _score_seed(
    seed: int, trained: Iterable[tuple[str, ParameterVector | Exception]], model, evals: EvalSets
) -> list[ComparisonRow]:
    """A seed's rows from its (variant, final weights or exception) pairs:
    the weights scored on both test sets, or the error on both. The
    trained weights go through one ``score_params`` call per test set; if
    one raises, every variant it scores fails with its error, and a test-set
    loss that is not finite fails its variant, naming the test set."""
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
        scores = () if isinstance(outcome, Exception) else next(scored)
        bad = [(name, s.loss) for name, s in zip(TEST_SETS, scores) if not math.isfinite(s.loss)]
        if bad:
            outcome = DataError("{} test set: loss is {}".format(*bad[0]))
        if isinstance(outcome, Exception):
            rows += [ComparisonRow(seed, variant, name, "failed", None, str(outcome))
                     for name in TEST_SETS]
            continue
        for name, s in zip(TEST_SETS, scores):
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
        if variant not in POOLED_VARIANTS and not re.fullmatch("local_client_[0-9]+", variant):
            raise ConfigurationError(f"{where}: unknown variant {variant!r}")
        if test_set not in TEST_SETS:
            raise ConfigurationError(f"{where}: unknown test set {test_set!r}")
        if status not in ("ok", "failed"):
            raise ConfigurationError(f"{where}: status {status!r} is neither ok nor failed")
        try:
            seed_number = int(seed)
            metrics = None
            if status == "ok":
                metrics = {m: float(v) for m, v in zip(METRIC_COLUMNS, cells[4:-1])}
                for m, raw in zip(METRIC_COLUMNS, cells[4:-1]):
                    if not math.isfinite(metrics[m]):
                        raise ValueError(f"{m} cell {raw!r} is not a finite number")
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


def write_summary(
    rows: list[ComparisonRow], stem: str, out_dir: Path
) -> tuple[str, dict[str, Path]]:
    """Write the summary of ``rows`` to ``<stem>.summary.csv`` and
    ``<stem>.summary.txt`` in ``out_dir``. Returns the text table and the
    two paths, keyed ``summary_csv`` and ``summary_txt``."""
    summaries = summarize(rows)
    text = summary_to_text(summaries)
    paths = {
        "summary_csv": out_dir / f"{stem}.summary.csv",
        "summary_txt": out_dir / f"{stem}.summary.txt",
    }
    atomic_write_text(paths["summary_csv"], summary_to_csv(summaries))
    atomic_write_text(paths["summary_txt"], text)
    return text, paths


def write_comparison(
    rows: list[ComparisonRow], run_id: str, out_dir: Path | str
) -> tuple[str, dict[str, Path]]:
    """Write ``<run_id>.compare.csv`` and its ``write_summary`` files in
    ``out_dir``. Returns the summary's text table and the three paths,
    keyed ``rows``, ``summary_csv`` and ``summary_txt``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / f"{run_id}.compare.csv"
    atomic_write_text(rows_path, rows_to_csv(rows))
    text, paths = write_summary(rows, run_id, out_dir)
    return text, {"rows": rows_path, **paths}
