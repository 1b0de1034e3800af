"""Federation round loop, centralized baseline, and run logging.

Both round-loop flavors run up to ``FederationConfig.rounds`` rounds:

* academic: every round; after every aggregation the server scores the new
  global weights on the pooled global test set.
* industrial: every client scores the incoming global weights on its local
  test split before training; the server averages those reports and stops at
  the first round whose aggregate meets ``threshold_met``.

Per-client RNG streams are child streams of the master seed keyed by
(round, client_id), so no client's result depends on which other clients
train beside it, and one client run yields the epochs both strategies ship.
So one seed's federations of one recipe under several strategies, a
cohort, run in lockstep: each round, the federations whose weights are
bitwise equal form a branch, each branch trains each client once, and the
cohort's federations advance together, each scoring pass one
``score_params`` call over all of them. Cohorts, one per campaign seed,
also run in lockstep: each round, the client runs of every branch of every
cohort train first, as one ``strategies.train_stacked`` call whose
outcomes come back in row order.

Every training run is one of ``train_stacked``'s two settings, both set
here: a client's local run (``run_federations``) trains
``local_epochs`` epochs with patience equal to them and ties going to the
latest epoch, and ``strategies.shipped`` reads what each strategy uploads
from it; a baseline (``run_baselines``) trains up to ``max_epochs`` epochs
with the baseline's patience and ties going to the earliest epoch.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .aggregation import (
    AggregationKind,
    ClientUpdate,
    HaltingCriterion,
    aggregate,
    aggregate_metrics,
    threshold_met,
)
from .data import ClientDataset, EvalSets, Split
from .errors import ConfigurationError, ProtocolError, ShapeError
from .nn import MAX_SEED, ModelSpec, OptimizerConfig, ParameterVector, init_parameters
from .strategies import (
    METRIC_NAMES,
    MetricsReport,
    SelectionMetric,
    StrategyKind,
    score_params,
    shipped,
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
    """The recipe alone: each run names its strategy and master seed."""

    model: ModelSpec
    rounds: int = 5
    local_epochs: int = 15
    selection_metric: SelectionMetric = SelectionMetric.MACRO_F1
    aggregation: AggregationKind = AggregationKind.PLAIN
    workflow: Workflow = Workflow.ACADEMIC
    halting: HaltingCriterion = HaltingCriterion()
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self) -> None:
        for name, low in (("rounds", 1), ("local_epochs", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        object.__setattr__(self, "selection_metric", SelectionMetric(self.selection_metric))
        object.__setattr__(self, "aggregation", AggregationKind(self.aggregation))
        object.__setattr__(self, "workflow", Workflow(self.workflow))


@dataclass(frozen=True)
class RoundRecord:
    """One round as its outputs report it. ``metrics`` is the report the
    round is judged by: the new global weights on the global test set in
    the academic flow; in the industrial flow, ``aggregate_metrics`` of
    ``per_client_metrics``, the clients' test reports on the incoming
    weights, and ``halted`` says it met the threshold. The academic flow
    scores no client: its ``per_client_metrics`` is ().

    A halted round still trains and aggregates, so an industrial run's
    final weights are one aggregation past the incoming weights whose
    record met the threshold."""

    round: int
    metrics: MetricsReport
    per_client_metrics: tuple[MetricsReport, ...]
    selected_epochs: tuple[int, ...]
    halted: bool


FederationOutcome = tuple[list[RoundRecord], ParameterVector]


@dataclass
class _Lockstep:
    """One federation's state as the lockstep round loop advances it."""

    strategy: StrategyKind
    params: ParameterVector
    records: list[RoundRecord] = field(default_factory=list)
    error: Exception | None = None


def _round(
    cfg: FederationConfig,
    t: int,
    runs: list[tuple[_Lockstep, list]],
    clients: list[ClientDataset],
    evals: EvalSets,
) -> None:
    """Round ``t`` of a cohort's live federations, each running ``cfg``
    with its own strategy. Each comes paired with its branch's client
    outcomes, in client order: a client's local run, from which
    ``shipped`` reads the weights and epoch the federation's strategy
    uploads, or the error that failed the run. A failed client run ends
    the federation with a ProtocolError naming the client and the round, a
    failed aggregation with its own error. Each scoring pass is one ``score_params`` call over every
    federation: per client test split (industrial) or on the global test
    set (academic). A pass that raises fails the round."""
    industrial = cfg.workflow is Workflow.INDUSTRIAL
    if industrial:
        incoming = [score_params([run.params for run, _ in runs], cfg.model, c.test)
                    for c in clients]
    advanced = []
    for i, (run, outcomes) in enumerate(runs):
        try:
            updates, selected = [], []
            for c, outcome in zip(clients, outcomes):
                if isinstance(outcome, Exception):
                    raise ProtocolError(
                        f"client {c.client_id} failed in round {t}: {outcome}"
                    ) from outcome
                params, epoch = shipped(outcome, run.strategy)
                updates.append(ClientUpdate(c.client_id, params, len(c.train)))
                selected.append(epoch)
            run.params = aggregate(updates, cfg.aggregation)
            selected = tuple(selected)
            if industrial:
                reports = tuple(scores[i].report for scores in incoming)
                agg = aggregate_metrics(reports)
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


# One seed's federations: its master seed, and the clients and evaluation
# sets its federations all train and score on.
Cohort = tuple[int, list[ClientDataset], EvalSets]


def run_federations(
    cfg: FederationConfig, strategies: list[StrategyKind], cohorts: list[Cohort]
) -> list[list[FederationOutcome | Exception]]:
    """Run ``cfg`` once per strategy on every cohort, all in lockstep.

    A cohort is one seed's master seed, clients and evaluation sets. Each
    federation runs ``cfg`` with its own strategy, from ``strategies``, and
    its cohort's master seed. Each round, a cohort's live federations whose
    global weights are bitwise equal form one branch, which trains each
    client once. The client runs of every branch of every cohort train as
    one ``train_stacked`` call in the client setting (patience equal to
    ``cfg.local_epochs``, ties going to the latest epoch), its rows in
    cohort, then branch, then client order, and each branch reads its
    outcomes back by position. Then each cohort's live federations advance
    together through one ``_round`` call, which scores them all in one
    ``score_params`` pass per split.
    Cohorts share no client run: they start from the same weights, but
    train on their own data and streams.
    Each runs ``cfg.rounds`` rounds, or, in the industrial flow, stops on
    its own after its first ``halted`` record. Every result is bitwise what
    a federation run alone produces.

    Returns, per cohort and per strategy, its round records and final
    weights, or the exception that ended it. A failed client run or
    aggregation ends the federations that reach it; a failed scoring pass
    ends every federation of its cohort that has no earlier error. No
    failure reaches another cohort.
    """
    if not strategies or not cohorts:
        raise ConfigurationError("run_federations needs at least one strategy and one cohort")
    for seed, clients, _ in cohorts:
        if not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(f"master seed must fit in 64 unsigned bits, got {seed}")
        if not clients:
            raise ConfigurationError("a federation needs at least one client")
        dim = clients[0].train.x.shape[1]
        if dim != cfg.model.feature_dim:
            raise ShapeError(f"model expects {cfg.model.feature_dim} features, data has {dim}")
    init = init_parameters(cfg.model)
    runs = [[_Lockstep(StrategyKind(s), init) for s in strategies] for _ in cohorts]
    for t in range(1, cfg.rounds + 1):
        # each cohort's live federations in branches of bitwise-equal weights
        branches = []
        for cohort in runs:
            keys, groups = [], []
            for run in cohort:
                if run.error is None and not (run.records and run.records[-1].halted):
                    weights = run.params.values.tobytes()
                    if weights not in keys:
                        keys.append(weights)
                        groups.append([])
                    groups[keys.index(weights)].append(run)
            branches.append(groups)
        rows = [
            (branch[0].params, c.train, c.val, client_stream(seed, t, c.client_id),
             f"client {c.client_id}")
            for (seed, clients, _), groups in zip(cohorts, branches)
            for branch in groups
            for c in clients
        ]
        if not rows:
            break  # every federation has ended
        outcomes = iter(train_stacked(
            rows, cfg.model, cfg.optimizer, cfg.local_epochs, cfg.local_epochs,
            cfg.selection_metric, ties_to_latest=True,
        ))
        for (_, clients, evals), groups in zip(cohorts, branches):
            paired = []
            for branch in groups:
                results = [next(outcomes) for _ in clients]
                paired += [(run, results) for run in branch]
            if not paired:
                continue
            try:
                _round(cfg, t, paired, clients, evals)
            except Exception as exc:
                for run, _ in paired:
                    run.error = run.error or exc
    return [
        [r.error if r.error is not None else (r.records, r.params) for r in cohort]
        for cohort in runs
    ]


def run_federation(
    cfg: FederationConfig, strategy: StrategyKind, cohort: Cohort
) -> FederationOutcome:
    """``run_federations`` of one strategy and one cohort, raising its
    failure: one record per executed round plus the final weights."""
    outcome = run_federations(cfg, [strategy], [cohort])[0][0]
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


@dataclass(frozen=True, eq=False)
class CentralizedResult:
    params: ParameterVector
    best_epoch: int
    epochs_run: int
    trace: tuple[float, ...]


def run_baselines(
    bcfg: BaselineConfig,
    rows: list[tuple[str, Split, Split, np.random.Generator]],
    model: ModelSpec,
) -> list[CentralizedResult | Exception]:
    """Non-federated baselines, one model per row (label, train, val, rng),
    each from the model's initial weights: ``strategies.train_stacked`` on
    val macro-F1 with up to max_epochs epochs, patience ``bcfg.patience``
    and ties going to the earliest epoch, returning the best epoch's
    snapshot.

    An epoch that only equals the best does not replace it and counts
    toward patience, so a run that reaches a plateau stops `patience`
    epochs after the plateau's first epoch and ships that epoch. A client's
    local run (``run_federations``) is the same run with patience equal to
    its epochs and ties going to the latest epoch.

    Rows of equal split sizes train as one stack; each keeps its own
    patience and leaves the stack when it stops. Returns, per row, its
    result or the exception that failed it alone; non-finite weights are a
    DataError naming the row's label and the epoch."""
    init = init_parameters(model)
    runs = train_stacked(
        [(init, train, val, rng, label) for label, train, val, rng in rows],
        model, bcfg.optimizer, bcfg.max_epochs, bcfg.patience, SelectionMetric.MACRO_F1,
        ties_to_latest=False,
    )
    return [
        run if isinstance(run, Exception) else CentralizedResult(
            params=run.best_params,
            best_epoch=run.best_epoch,
            epochs_run=len(run.trace),
            trace=tuple(run.trace),
        )
        for run in runs
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
