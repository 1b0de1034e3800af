"""Isolated clients vs the federation.

Each client is missing one class, so a model trained only on its own data
can never recover that class. Averaging weights across clients does.

Run:  python3 demos/02_local_vs_federated.py
"""

from fedsel.data import CorpusSpec, PartitionSpec, make_dataset
from fedsel.nn import ModelSpec
from fedsel.orchestrator import (
    BaselineConfig,
    FederationConfig,
    baseline_stream,
    run_centralized,
    run_federation,
)
from fedsel.strategies import score_params

corpus = CorpusSpec(seed=1)
clients, evals = make_dataset(corpus, PartitionSpec.default())
model = ModelSpec(layer_sizes=(16, 32, 5), seed=3)

print("training 4 isolated client models (early stopping on local val)...")
local_scores = []
for client in clients:
    result = run_centralized(
        BaselineConfig(),
        client.train,
        client.val,
        model,
        baseline_stream(1, tag=client.client_id + 1),
    )
    report = score_params([result.params], model, evals.global_test)[0].report
    local_scores.append(report.macro_f1)
    print(
        f"  client {client.client_id} (missing class {client.missing_class}): "
        f"global macro-F1 {report.macro_f1:.4f} after {result.epochs_run} epochs"
    )

print("\nrunning the federation (15 local epochs x 5 rounds, plain averaging)...")
cfg = FederationConfig(model=model)
records, params = run_federation(cfg, "fews", (1, clients, evals))
for record in records:
    print(f"  round {record.round}: global macro-F1 {record.metrics.macro_f1:.4f}")

fed = score_params([params], model, evals.global_test)[0].report
mean_local = sum(local_scores) / len(local_scores)
print(f"\nmean isolated client macro-F1: {mean_local:.4f}")
print(f"federated global macro-F1:     {fed.macro_f1:.4f}")
print(f"margin:                        {fed.macro_f1 - mean_local:+.4f}")
