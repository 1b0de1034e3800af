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
So federations that differ only in strategy, a cohort, run in lockstep:
each round, every distinct client run is trained once, keyed by client id
and incoming weights, and the cohort's federations advance together, each
scoring pass one ``score_params`` call over all of them. Cohorts, one per
campaign seed, also run in lockstep: each round, the distinct client runs
of every cohort train first, as one stack.
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
    score_params,
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
    """One round as its outputs report it. ``metrics`` is the report the
    round is judged by: the new global weights on the global test set in
    the academic flow; in the industrial flow, ``aggregate_metrics`` of
    ``per_client_metrics``, the clients' test reports on the incoming
    weights, and ``halted`` says it met the threshold. The academic flow
    scores no client: its ``per_client_metrics`` is ()."""

    round: int
    metrics: MetricsReport
    per_client_metrics: tuple[MetricsReport, ...]
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


def _round(
    cfg: FederationConfig,
    t: int,
    runs: list[_Lockstep],
    clients: list[ClientDataset],
    evals: EvalSets,
    picks: dict,
) -> None:
    """Round ``t`` of a cohort's live federations, which ``cfg`` describes
    up to strategy. A run finds its client runs' picks, or the error that
    failed them, in ``picks`` (``_train_missing``); a failed client run or
    aggregation ends that run. Each scoring pass is one ``score_params``
    call over every run: per client test split (industrial) or on the
    global test set (academic). A pass that raises fails the round."""
    industrial = cfg.workflow is Workflow.INDUSTRIAL
    if industrial:
        incoming = [score_params([run.params for run in runs], cfg.model, c.test) for c in clients]
    advanced = []
    for i, run in enumerate(runs):
        weights = run.params.values.tobytes()
        try:
            results = []
            for c in clients:
                outcome = picks[c.client_id, weights]
                if isinstance(outcome, Exception):
                    raise outcome
                results.append(outcome[run.cfg.strategy])
            updates = [
                ClientUpdate(c.client_id, r.selected_params, len(c.train))
                for c, r in zip(clients, results)
            ]
            run.params = aggregate(updates, cfg.aggregation)
            selected = tuple(r.selected_epoch for r in results)
            if industrial:
                reports = tuple(scores[i].report for scores in incoming)
                agg = aggregate_metrics(reports)
                run.halted = should_halt(agg, cfg.halting, t)
                run.records.append(RoundRecord(
                    round=t, metrics=agg, per_client_metrics=reports,
                    selected_epochs=selected, halted=threshold_met(agg, cfg.halting),
                ))
            else:
                advanced.append((run, selected))
        except Exception as exc:
            run.error = exc
    if industrial:
        return
    scored = score_params([run.params for run, _ in advanced], cfg.model, evals.global_test)
    for (run, selected), scores in zip(advanced, scored):
        run.records.append(RoundRecord(
            round=t, metrics=scores.report, per_client_metrics=(),
            selected_epochs=selected, halted=False,
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
            # a cohort's client runs are keyed by weights and client ids only
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
    round, the client runs of every cohort train as one ``train_local``
    call; a cohort's runs are keyed by client id and incoming weights, so
    its federations whose global weights are bitwise equal train each
    client once. Then each cohort's live federations advance together
    through one ``_round`` call, which scores them all in one
    ``score_params`` pass per split. Cohorts share no client run: they
    start from the same weights, but train on their own data and streams.
    In the industrial flow each federation halts on its own. Every result
    is bitwise what a federation run alone produces.

    Returns, per cohort and per config, its round records and final
    weights, or the exception that ended it. A failed client run or
    aggregation ends the federations that reach it; a failed scoring pass
    ends every federation of its cohort that has no earlier error. No
    failure reaches another cohort.
    """
    first = _check_cohorts(cohorts)
    horizon = first.halting.max_rounds if first.workflow is Workflow.INDUSTRIAL else first.rounds
    init = init_parameters(first.model)
    runs = [[_Lockstep(cfg, init) for cfg in cfgs] for cfgs, _, _ in cohorts]
    for t in range(1, horizon + 1):
        live = [[run for run in cohort if run.error is None and not run.halted] for cohort in runs]
        picks = _train_missing(first, t, cohorts, live)
        for (_, clients, evals), cohort, cohort_picks in zip(cohorts, live, picks):
            if not cohort:
                continue
            try:
                _round(first, t, cohort, clients, evals, cohort_picks)
            except Exception as exc:
                for run in cohort:
                    run.error = run.error or exc
    return [
        [r.error if r.error is not None else (r.records, r.params) for r in cohort]
        for cohort in runs
    ]


def _train_missing(
    cfg: FederationConfig,
    t: int,
    cohorts: list[Cohort],
    live: list[list[_Lockstep]],
) -> list[dict]:
    """Train every distinct client run of round ``t`` that the live
    federations of each cohort start, in one ``train_local`` call, so runs
    of equal size share one stack whatever their cohort. Each run draws
    from its own federation's client stream. Returns, per cohort, each
    run's picks keyed by (client id, incoming weights), or, for a run that
    failed, a ProtocolError naming its client and the round."""
    rows = {}
    for i, ((_, clients, _), cohort) in enumerate(zip(cohorts, live)):
        for run in cohort:
            weights = run.params.values.tobytes()
            for c in clients:
                if (i, c.client_id, weights) not in rows:
                    stream = client_stream(run.cfg.master_seed, t, c.client_id)
                    rows[i, c.client_id, weights] = (run.params, c, stream)
    picks: list[dict] = [{} for _ in cohorts]
    if not rows:
        return picks
    outcomes = train_local(
        list(rows.values()), cfg.model, cfg.optimizer, cfg.local_epochs, cfg.selection_metric
    )
    for (i, client_id, weights), outcome in zip(rows, outcomes):
        if isinstance(outcome, Exception):
            error = ProtocolError(f"client {client_id} failed in round {t}: {outcome}")
            error.__cause__ = outcome
            outcome = error
        picks[i][client_id, weights] = outcome
    return picks


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
    """``record.metrics``, the report the round is judged by, as the
    scalars every log and table prints: one per metric name, rounded to 6
    decimals."""
    return {name: round(record.metrics.scalar(name), 6) for name in METRIC_NAMES}


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
