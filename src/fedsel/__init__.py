"""Deterministic federated-learning simulator for comparing client-side
weight-selection strategies on synthetic non-IID data."""

from .aggregation import (
    AggregationKind,
    ClientUpdate,
    HaltingCriterion,
    HaltingMetric,
    aggregate,
    aggregate_metrics,
    aggregate_plain,
    aggregate_weighted,
    halt_round,
    should_halt,
    threshold_met,
)
from .data import (
    ClientDataset,
    CorpusPools,
    CorpusSpec,
    EvalSets,
    PartitionSpec,
    Split,
    default_missing_class,
    dump_dataset_csv,
    generate_corpus,
    load_dataset_csv,
    make_dataset,
    merge_for_centralized,
    partition,
    partition_summary,
)
from .errors import (
    ConfigurationError,
    DataError,
    FedselError,
    ProtocolError,
    ShapeError,
)
from .nn import (
    Activation,
    ModelSpec,
    OptimizerConfig,
    OptimizerState,
    ParameterVector,
    cross_entropy_loss,
    forward,
    init_optimizer,
    init_parameters,
    load_weights,
    loss_and_gradient,
    save_weights,
    sgd_momentum_step,
    train_epoch,
)
from .orchestrator import (
    BaselineConfig,
    CentralizedResult,
    FederationConfig,
    RoundRecord,
    Workflow,
    baseline_stream,
    client_stream,
    run_centralized,
    run_federation,
    write_metrics_logs,
)
from .strategies import (
    LocalRunResult,
    MetricsReport,
    Scores,
    SelectionMetric,
    StrategyKind,
    confusion_matrix,
    evaluate,
    mean_correct_confidence,
    metrics_from_confusion,
    run_local,
    score,
    select_epoch,
)

__version__ = "0.1.0"
