"""Threshold halting: stop paying for rounds once the metric is good enough.

In the industrial workflow clients score each incoming global model on their
own test data before training. The server averages those scores and stops
the federation the first round the average clears the threshold.

Run:  python3 demos/04_industrial_halting.py
"""

from fedsel.aggregation import HaltingCriterion
from fedsel.data import CorpusSpec, PartitionSpec, make_dataset
from fedsel.nn import ModelSpec
from fedsel.orchestrator import FederationConfig, Workflow, run_federation

clients, evals = make_dataset(CorpusSpec(seed=2, noise_scale=1.5), PartitionSpec.default())

criterion = HaltingCriterion(threshold=0.9)
cfg = FederationConfig(
    model=ModelSpec(layer_sizes=(16, 32, 5), seed=3),
    workflow=Workflow.INDUSTRIAL,
    halting=criterion,
    rounds=10,
)

records, params = run_federation(cfg, "fews", (2, clients, evals))

print(f"halting threshold: aggregated macro-F1 >= {criterion.threshold}, cap {cfg.rounds} rounds\n")
for r in records:
    scores = " ".join(f"{m.macro_f1:.3f}" for m in r.per_client_metrics)
    print(
        f"round {r.round}: client scores [{scores}] -> "
        f"aggregated {r.metrics.macro_f1:.4f}"
        + ("  HALT" if r.halted else "")
    )

last = records[-1]
if last.halted:
    print(f"\nstopped after {last.round} round(s): threshold met")
else:
    print(f"\nran all {last.round} rounds without meeting the threshold")
