"""Federation round loop, centralized baseline, and run logging.

Two round-loop flavors:

* academic: fixed horizon; after every aggregation the server scores the new
  global weights on the pooled global test set.
* industrial: every client scores the incoming global weights on its local
  test split before training; the server averages those reports and stops at
  the first round whose aggregate reaches the halting threshold.

Per-client RNG streams are child streams of the master seed keyed by
(round, client_id), so no client's result depends on which other clients
train beside it, and one client run yields the epochs both strategies ship.
So federations that differ only in strategy run in lockstep, one by one
through one round function over a per-round memo keyed by starting weights,
which holds each client run's picks: they share client runs and scoring
passes while their global weights agree. Cohorts of such federations, one
per campaign seed, also run in lockstep, each over its own memo: each
round, the distinct client runs of every cohort train first, as one stack.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .aggregation import (
    AggregationKind,
    ClientUpdate,
    HaltingCriterion,
    aggregate,
    aggregate_metrics,
    should_halt,
    threshold_met,
)
from .data import ClientDataset, EvalSets, Split
from .errors import ConfigurationError, ProtocolError, ShapeError
from .nn import MAX_SEED, ModelSpec, OptimizerConfig, ParameterVector, init_parameters
from .strategies import (
    METRIC_NAMES,
    MetricsReport,
    Scores,
    SelectionMetric,
    StrategyKind,
    evaluate,
    train_local,
    train_stacked,
)


class Workflow(str, Enum):
    ACADEMIC = "academic"
    INDUSTRIAL = "industrial"


def client_stream(master_seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """Independent generator for one client in one round."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(1, round_index, client_id))
    return np.random.default_rng(seq)


def baseline_stream(master_seed: int, tag: int = 0) -> np.random.Generator:
    """Independent generator for a non-federated training run; distinct tags
    give distinct streams (e.g. one per local-client baseline)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(2, tag))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class FederationConfig:
    model: ModelSpec
    rounds: int = 5
    local_epochs: int = 15
    strategy: StrategyKind = StrategyKind.FEWS
    selection_metric: SelectionMetric = SelectionMetric.MACRO_F1
    aggregation: AggregationKind = AggregationKind.PLAIN
    workflow: Workflow = Workflow.ACADEMIC
    halting: HaltingCriterion | None = None
    optimizer: OptimizerConfig = OptimizerConfig()
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("rounds", 1), ("local_epochs", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ConfigurationError("master_seed must fit in 64 unsigned bits")
        object.__setattr__(self, "strategy", StrategyKind(self.strategy))
        object.__setattr__(self, "selection_metric", SelectionMetric(self.selection_metric))
        object.__setattr__(self, "aggregation", AggregationKind(self.aggregation))
        object.__setattr__(self, "workflow", Workflow(self.workflow))
        if self.workflow is Workflow.INDUSTRIAL and self.halting is None:
            raise ConfigurationError("industrial workflow requires a halting criterion")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_metrics: MetricsReport | None
    per_client_metrics: tuple[MetricsReport, ...]
    aggregated_metrics: MetricsReport | None
    selected_epochs: tuple[int, ...]
    halted: bool


FederationOutcome = tuple[list[RoundRecord], ParameterVector]


@dataclass
class _Lockstep:
    """One federation's state as the lockstep round loop advances it."""

    cfg: FederationConfig
    params: ParameterVector
    records: list[RoundRecord] = field(default_factory=list)
    error: Exception | None = None
    halted: bool = False


def _memo(memo: dict, key: tuple, compute):
    """``memo[key]``, computed on first use. A scoring failure is raised, not
    stored, so every caller that reaches it recomputes it and fails alike."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _round(
    run: _Lockstep,
    t: int,
    clients: list[ClientDataset],
    evals: EvalSets,
    memo: dict,
) -> None:
    """Round ``t`` of one federation. Every computation that starts from
    weights goes through ``memo``, so the federations of a round that reach
    it with equal weights share it. The client runs are already there, as
    picks or as the error that failed them (``_train_missing``)."""
    cfg, incoming = run.cfg, run.params
    weights = incoming.values.tobytes()

    industrial = cfg.workflow is Workflow.INDUSTRIAL
    if industrial:
        incoming_reports = tuple(
            _memo(memo, ("test", c.client_id, weights),
                  lambda c=c: evaluate(incoming, cfg.model, c.test.x, c.test.y))
            for c in clients
        )
    results = []
    for c in clients:
        picks = memo[("train", c.client_id, weights)]
        if isinstance(picks, Exception):
            raise picks
        results.append(picks[cfg.strategy])
    updates = [
        ClientUpdate(c.client_id, r.selected_params, r.train_sample_count)
        for c, r in zip(clients, results)
    ]
    run.params = aggregate(updates, cfg.aggregation)
    selected = tuple(r.selected_epoch for r in results)
    if industrial:
        agg = aggregate_metrics(incoming_reports)
        run.halted = should_halt(agg, cfg.halting, t)
        run.records.append(RoundRecord(
            round=t, global_metrics=None, per_client_metrics=incoming_reports,
            aggregated_metrics=agg, selected_epochs=selected,
            halted=threshold_met(agg, cfg.halting),
        ))
        return
    global_report = _memo(
        memo, ("global", run.params.values.tobytes()),
        lambda: evaluate(run.params, cfg.model, evals.global_test.x, evals.global_test.y),
    )
    # local val reports at each client's selected epoch, for diagnostics
    per_client = tuple(r.per_epoch_val[r.selected_epoch - 1] for r in results)
    run.records.append(RoundRecord(
        round=t, global_metrics=global_report, per_client_metrics=per_client,
        aggregated_metrics=None, selected_epochs=selected, halted=False,
    ))


# One seed's federations: configs that differ only in strategy, and the
# clients and evaluation sets they all train and score on.
Cohort = tuple[list[FederationConfig], list[ClientDataset], EvalSets]


def _check_cohorts(cohorts: list[Cohort]) -> FederationConfig:
    """Reject cohorts that cannot share a round's stack; returns the first
    config, whose model, optimizer and schedule every config shares."""
    if not cohorts or not all(cfgs for cfgs, _, _ in cohorts):
        raise ConfigurationError("run_federations needs at least one config per cohort")
    first = cohorts[0][0][0]
    for cfgs, clients, _ in cohorts:
        lead = cfgs[0]
        for cfg in cfgs[1:]:
            # a cohort's memo keys hold weights and client ids only
            if replace(cfg, strategy=lead.strategy) != lead:
                raise ConfigurationError("lockstep federations may differ only in strategy")
        if replace(lead, strategy=first.strategy, master_seed=first.master_seed) != first:
            raise ConfigurationError(
                "lockstep cohorts may differ only in strategy and master_seed"
            )
        if not clients:
            raise ConfigurationError("a federation needs at least one client")
        dim = clients[0].train.x.shape[1]
        if dim != first.model.feature_dim:
            raise ShapeError(f"model expects {first.model.feature_dim} features, data has {dim}")
    return first


def run_federations(cohorts: list[Cohort]) -> list[list[FederationOutcome | Exception]]:
    """Run the federations of every cohort in lockstep.

    A cohort is one seed's federations, which differ only in strategy;
    cohorts differ from each other only in strategy and master seed. Each
    round runs every live federation in config order through one round
    function and its cohort's memo, which lives for that round. Client runs
    and scoring passes are keyed by the weights they start from, so a
    cohort's federations whose global weights are bitwise equal train each
    client once and score each weight vector once; the memo keeps each
    client run's picks, as ``train_local`` returns them, and no weights of
    the epochs no strategy picked. Memos are never shared: every cohort
    starts from the same initial weights, but trains on its own data and
    streams. Each round, the missing client runs of every cohort train as
    one ``train_local`` call. In the industrial flow each federation halts
    on its own. Every result is bitwise what a federation run alone
    produces.

    Returns, per cohort and per config, its round records and final
    weights, or the exception that ended it. A failed client run is
    memoized as its error, which each federation of its cohort that
    reaches it raises; a failed scoring pass is recomputed by each
    federation that reaches it. Either way a failure ends only the
    federations that reach it.
    """
    first = _check_cohorts(cohorts)
    horizon = first.halting.max_rounds if first.workflow is Workflow.INDUSTRIAL else first.rounds
    init = init_parameters(first.model)
    runs = [[_Lockstep(cfg, init) for cfg in cfgs] for cfgs, _, _ in cohorts]
    for t in range(1, horizon + 1):
        live = [[run for run in cohort if run.error is None and not run.halted] for cohort in runs]
        memos: list[dict] = [{} for _ in cohorts]
        _train_missing(first, t, cohorts, live, memos)
        for (_, clients, evals), cohort, memo in zip(cohorts, live, memos):
            for run in cohort:
                try:
                    _round(run, t, clients, evals, memo)
                except Exception as exc:
                    run.error = exc
    return [
        [r.error if r.error is not None else (r.records, r.params) for r in cohort]
        for cohort in runs
    ]


def _train_missing(
    cfg: FederationConfig,
    t: int,
    cohorts: list[Cohort],
    live: list[list[_Lockstep]],
    memos: list[dict],
) -> None:
    """Train every distinct client run of round ``t`` that the live
    federations of each cohort will ask ``_round`` for, in one
    ``train_local`` call, so runs of equal size share one stack whatever
    their cohort. Each run draws from its own federation's client stream.
    Memoize, in its cohort's memo, each run's picks, or, for a run that
    failed, a ProtocolError naming its client and the round."""
    rows = {}
    for i, ((_, clients, _), cohort) in enumerate(zip(cohorts, live)):
        for run in cohort:
            weights = run.params.values.tobytes()
            for c in clients:
                key = ("train", c.client_id, weights)
                if (i, key) not in rows:
                    stream = client_stream(run.cfg.master_seed, t, c.client_id)
                    rows[i, key] = (run.params, c, stream)
    if not rows:
        return
    outcomes = train_local(
        list(rows.values()), cfg.model, cfg.optimizer, cfg.local_epochs, cfg.selection_metric
    )
    for ((i, key), (_, c, _)), outcome in zip(rows.items(), outcomes):
        if isinstance(outcome, Exception):
            error = ProtocolError(f"client {c.client_id} failed in round {t}: {outcome}")
            error.__cause__ = outcome
            outcome = error
        memos[i][key] = outcome


def run_federation(
    cfg: FederationConfig, clients: list[ClientDataset], evals: EvalSets
) -> FederationOutcome:
    """Execute the round loop; returns one record per executed round plus the
    final aggregated weights."""
    outcome = run_federations([([cfg], clients, evals)])[0][0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class BaselineConfig:
    max_epochs: int = 100
    patience: int = 30
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigurationError(
                f"patience must be in 1..max_epochs, got {self.patience}"
            )


@dataclass(frozen=True)
class CentralizedResult:
    params: ParameterVector
    best_epoch: int
    epochs_run: int
    trace: tuple[float, ...]


@dataclass
class _EarlyStop:
    """One baseline's best epoch so far and its patience counter."""

    params: ParameterVector
    best_score: float = -np.inf
    best_epoch: int = 0
    stale: int = 0
    trace: list[float] = field(default_factory=list)


def run_baselines(
    bcfg: BaselineConfig,
    rows: list[tuple[str, Split, Split, np.random.Generator]],
    model: ModelSpec,
) -> list[CentralizedResult | Exception]:
    """Non-federated baselines, one model per row (label, train, val, rng),
    each from the model's initial weights: train up to max_epochs, stop
    after `patience` consecutive epochs without a strict val macro-F1
    improvement, return the best epoch's snapshot.

    Rows of equal split sizes train as one stack; each keeps its own
    patience and leaves the stack when it stops. Returns, per row, its
    result or the exception that failed it alone; non-finite weights are a
    DataError naming the row's label and the epoch."""
    init = init_parameters(model)
    runs = [_EarlyStop(init) for _ in rows]

    def visit(i: int, epoch: int, weights: np.ndarray, scores: Scores) -> bool:
        run, report = runs[i], scores.report
        run.trace.append(report.macro_f1)
        if report.macro_f1 > run.best_score:
            run.best_score = report.macro_f1
            run.params = ParameterVector(weights, model.manifest)
            run.best_epoch = epoch
            run.stale = 0
            return True
        run.stale += 1
        return run.stale < bcfg.patience

    errors = train_stacked(
        [(init, train, val, rng, label) for label, train, val, rng in rows],
        model, bcfg.optimizer, bcfg.max_epochs, visit,
    )
    return [
        error if error is not None else CentralizedResult(
            params=run.params,
            best_epoch=run.best_epoch,
            epochs_run=len(run.trace),
            trace=tuple(run.trace),
        )
        for run, error in zip(runs, errors)
    ]


def run_centralized(
    bcfg: BaselineConfig,
    train: Split,
    val: Split,
    model: ModelSpec,
    rng: np.random.Generator,
) -> CentralizedResult:
    """One baseline on pooled data: ``run_baselines`` of one row labelled
    ``centralized``, raising its failure."""
    (result,) = run_baselines(bcfg, [("centralized", train, val, rng)], model)
    if isinstance(result, Exception):
        raise result
    return result


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    half-written file. Line ends are written as given, on every platform."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def round_metrics(record: RoundRecord) -> dict[str, float]:
    """The scalar metrics a round is judged by: global-test metrics in the
    academic flow, aggregated client metrics in the industrial flow."""
    report = record.global_metrics if record.global_metrics is not None else record.aggregated_metrics
    if report is None:
        raise ProtocolError(f"round {record.round} carries no metrics")
    return {name: round(report.scalar(name), 6) for name in METRIC_NAMES}


def write_metrics_logs(
    records: list[RoundRecord],
    run_id: str,
    workflow: Workflow,
    strategy: StrategyKind,
    out_dir: Path | str,
) -> tuple[Path, Path]:
    """Persist one structured JSON line and one human-readable text line per
    round. Returns (jsonl path, txt path). Output contains no timestamps, so
    identical runs produce identical bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = out_dir / f"{run_id}.metrics.jsonl"
    txt_path = out_dir / f"{run_id}.metrics.txt"

    json_lines = []
    txt_lines = []
    for r in records:
        metrics = round_metrics(r)
        json_lines.append(
            json.dumps(
                {
                    "run_id": run_id,
                    "round": r.round,
                    "workflow": workflow.value,
                    "strategy": strategy.value,
                    "metrics": metrics,
                    "selected_epochs": list(r.selected_epochs),
                    "halted": r.halted,
                },
                sort_keys=True,
            )
        )
        cells = " ".join(f"{name}={metrics[name]:.6f}" for name in METRIC_NAMES)
        epochs = ",".join(str(e) for e in r.selected_epochs)
        txt_lines.append(
            f"round {r.round} [{workflow.value}/{strategy.value}] {cells} "
            f"selected_epochs={epochs} halted={'yes' if r.halted else 'no'}"
        )
    atomic_write_text(jsonl_path, "\n".join(json_lines) + "\n")
    atomic_write_text(txt_path, "\n".join(txt_lines) + "\n")
    return jsonl_path, txt_path
