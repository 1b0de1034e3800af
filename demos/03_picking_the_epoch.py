"""What the two weight-selection strategies actually ship.

On noisy data a client's validation score often peaks before the last local
epoch. FEWS uploads the final epoch regardless; OEWS uploads the best one.
This script shows one client's validation trace and both choices, then runs
the full federation both ways.

Run:  python3 demos/03_picking_the_epoch.py
"""

from dataclasses import replace

from fedsel.data import make_dataset
from fedsel.nn import init_parameters
from fedsel.orchestrator import client_stream, run_federation
from fedsel.presets import preset_run_config
from fedsel.strategies import StrategyKind, shipped, train_stacked

preset = preset_run_config("elevated_noise")
seed = 7
clients, evals = make_dataset(replace(preset.corpus, seed=seed), preset.partition)
fed = preset.federation
model = fed.model

# one client, one round, by hand: a client's local run is train_stacked with
# patience equal to its epochs and ties going to the latest epoch; shipped
# reads the epoch each strategy uploads from that one run
client = clients[0]
(run,) = train_stacked(
    [(init_parameters(model), client.train, client.val, client_stream(seed, 1, 0), "client 0")],
    model, fed.optimizer, fed.local_epochs, fed.local_epochs, fed.selection_metric,
    ties_to_latest=True,
)
_, fews_epoch = shipped(run, StrategyKind.FEWS)
_, oews_epoch = shipped(run, StrategyKind.OEWS)
print("client 0, round 1, per-epoch validation macro-F1:")
for epoch, value in enumerate(run.trace, start=1):
    marker = ""
    if epoch == oews_epoch:
        marker = "  <- OEWS ships this"
    elif epoch == fews_epoch:
        marker = "  <- FEWS ships this"
    print(f"  epoch {epoch:2d}: {value:.4f}{marker}")

# same schedule end to end, both strategies
print("\nfull federation, both strategies:")
for strategy in (StrategyKind.FEWS, StrategyKind.OEWS):
    records, _ = run_federation(fed, strategy, (seed, clients, evals))
    final = records[-1].metrics
    epochs = ",".join(str(e) for e in records[-1].selected_epochs)
    print(
        f"  {strategy.value}: global accuracy {final.accuracy:.4f}, "
        f"macro-F1 {final.macro_f1:.4f} (last-round selected epochs: {epochs})"
    )
