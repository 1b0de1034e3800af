"""Golden SHA-256 digests of the outputs a run is judged by.

Each case runs a short schedule and hashes the final aggregated weights
(their float64 bytes), the metrics JSONL that ``write_metrics_logs`` writes,
and the comparison CSV that ``rows_to_csv`` renders. The expected digests
were recorded from the client-thread-pool code with its per-batch epoch
loop, so any refactor of the round loop, the training kernel or the scoring
pass must reproduce that code's bits exactly. A change that means to move a
digest has to say why.

The logs are written under a fixed run id, so the digests pin the content
of a run and not the hash of its configuration.

The ``early_stopping_baselines`` case, whose local baselines stop at
different epochs, was recorded from the per-model epoch kernel that trained
one baseline at a time, before baselines trained as one stack.

The ``campaign_elevated_noise`` case, a three-seed comparison, was recorded
while ``run_comparison`` still ran its seeds one after another, before the
seeds of a campaign trained in lockstep.

The ``shared_missing_class`` case pins how ``make_dataset`` deals a
partition other than the default rotation, in which two clients lack the
same class; it was recorded while pools were drawn and partitioned in two
separate steps. The ``noiseless_shifted_corpus`` case deals six clients
five classes, so missing classes repeat, with no noise and a displaced
external set; it was recorded while each pool was drawn by its own
``standard_normal`` call.

The benchmark's two workloads are pinned too: one unit of each at seed 7,
digested and checked as ``bench/run.py`` does, from ``bench/workloads.py``
imported as it stands.
"""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from fedsel.config import load_config
from fedsel.data import CorpusSpec, PartitionSpec, dataset_csv_text, make_dataset
from fedsel.orchestrator import baseline_stream, run_baselines, run_federation, write_metrics_logs
from fedsel.presets import preset_run_config
from fedsel.reporting import rows_to_csv, run_comparison
from fedsel.strategies import StrategyKind

SHORT = {
    "federation.rounds": "2",
    "federation.local_epochs": "3",
    "baseline.max_epochs": "3",
    "baseline.patience": "3",
}

INDUSTRIAL = {
    "corpus.per_class_train": "40",
    "corpus.noise_scale": "2.0",
    "federation.workflow": "industrial",
    "federation.strategy": "oews",
    "federation.selection_metric": "val_loss",
    "federation.aggregation": "weighted",
    "federation.hidden_layers": "24,12",
    "federation.learning_rate": "0.03",
    "federation.local_epochs": "4",
    "federation.halting_threshold": "0.8",
    "federation.rounds": "4",
    "federation.master_seed": "5",
}

EARLY_STOPPING = {
    "federation.rounds": "2",
    "federation.local_epochs": "3",
    "baseline.max_epochs": "12",
    "baseline.patience": "3",
    "baseline.learning_rate": "0.03",
    "corpus.noise_scale": "2.0",
}

# elevated_noise on a short schedule: in every seed FEWS and OEWS share
# round 1 and part in round 2, and the local baselines of the three seeds
# stop at different epochs (6, 8, 4, 6 / 5, 4, 5, 7 / 8, 8, 5, 4 of 8)
CAMPAIGN_SEEDS = [1, 2, 3]
CAMPAIGN = {"rounds": 3, "local_epochs": 2, "max_epochs": 8, "patience": 2}

WORKLOAD_SEED = 7
WORKLOAD_DIGESTS = {
    "campaign_presets": "7e7cbd788458b3512e0e6f18bb88ae3ee36c73e1a87b51cab130aeef9c80b960",
    "centralized_long": "1f194546fb3ef0b87ff8ee7aa029f3681bf6dc9d2278f94ddfa8f8ba4872cef1",
}

GOLDEN = {
    "campaign_elevated_noise": {
        "compare_csv": "1a9a587e3ef56a28f73a3e52539c3519ae26487d85fbd1718cf34b05d5342425",
    },
    "early_stopping_baselines": {
        "baseline_weights": "5592e65209ecdd34a3284b247af9d2757d2202d9aa0a0a031eac5971fbdf0892",
        "compare_csv": "79858dfc8e44a719f757cc16333c7bda380899f7c550fea06d46f690b89c35f8",
    },
    "default": {
        "weights": "3de46eb8a862090b0f7508a04f8135c716b33f1618a4e9e6703f4edc35f33726",
        "metrics_jsonl": "4acd3a8fa94ae8c7317380cd2face0e3dc5712544eaee709ed9669d3e194c4ac",
        "compare_csv": "1c11c82a55a185e9a93cac45df2a53a1efdf503af2338b504ce4d063589d02d0",
    },
    "industrial": {
        "weights": "970e20b4f749282d93a8f55a517846056f9c2d71a8b9c8755873827445710aac",
        "metrics_jsonl": "9414c8e6842d413f813c2f17b85a2a049161d3154d71e0d76aa8c743181d8e56",
    },
    "preset_default": {
        "weights": "1359d128df590393fd2086ad9d2883881dfff9421adc1567dd76f69dcb684af8",
        "metrics_jsonl": "e66c76ee222649254e155d9e7e3e3e4442370352a5565e23df6bb901e2d6c7a0",
        "compare_csv": "3b41f5e8aadd4c53b427e75668ee66d73960e7fe6d068030193cddfa9b55bb09",
    },
    "preset_elevated_noise": {
        "weights": "633ffb62fb3b614b947c14e835db6f7f86e2c4481187e3d94daed56f9ce2d456",
        "metrics_jsonl": "d470751551e074fecc2d5d115d579238337f429c07e1ae762e23aed8407b4ba2",
        "compare_csv": "0d10548ec24e208eebc0bd0bba8dbb288c1079a56b67fe53d9203a35c434dff9",
    },
    "preset_hard_shift": {
        "weights": "6afa68dd959eaedc238a85268514ba414695f39f92bd38022373c991bbe252e4",
        "metrics_jsonl": "406870e11487f39f27df052001f6ee0918c4b3041b759cc09dd8ec263636fffb",
        "compare_csv": "1835509533193caf30e0461bf5990559bf264883ff1a1b14661c4d693c25a38d",
    },
    "shared_missing_class": {
        "dataset_csv": "214b22d83706c83425d933b89ee61e639d714428678ba43fa71cf24f9d980ec8",
    },
    "noiseless_shifted_corpus": {
        "dataset_csv": "75c841d833740fa1d8567d08dc04248cfba7360303b37c8fc161c0450941e6ae",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _federation_digests(cfg, out_dir) -> dict[str, str]:
    clients, evals = make_dataset(cfg.corpus, cfg.partition)
    cohort = (cfg.master_seed, clients, evals)
    records, params = run_federation(cfg.federation, cfg.strategy, cohort)
    jsonl, _ = write_metrics_logs(records, "golden", cfg.federation.workflow, cfg.strategy, out_dir)
    return {
        "weights": _sha256(params.values.tobytes()),
        "metrics_jsonl": _sha256(jsonl.read_bytes()),
    }


def _default(out_dir) -> dict[str, str]:
    cfg, _ = load_config(overrides=SHORT)
    digests = _federation_digests(cfg, out_dir)
    digests["compare_csv"] = _sha256(rows_to_csv(run_comparison(cfg, [0])).encode())
    return digests


def _industrial(out_dir) -> dict[str, str]:
    cfg, _ = load_config(overrides=INDUSTRIAL)
    return _federation_digests(cfg, out_dir)


def _preset(name: str, seed: int = 1):
    """One campaign seed of a preset on the short schedule: the OEWS
    federation's weights and logs, and the whole comparison's CSV."""

    def run(out_dir) -> dict[str, str]:
        full = preset_run_config(name)
        cfg = replace(
            full,
            corpus=replace(full.corpus, seed=seed),
            federation=replace(
                full.federation,
                rounds=int(SHORT["federation.rounds"]),
                local_epochs=int(SHORT["federation.local_epochs"]),
            ),
            strategy=StrategyKind.OEWS,
            master_seed=seed,
            baseline=replace(
                full.baseline,
                max_epochs=int(SHORT["baseline.max_epochs"]),
                patience=int(SHORT["baseline.patience"]),
            ),
        )
        digests = _federation_digests(cfg, out_dir)
        digests["compare_csv"] = _sha256(rows_to_csv(run_comparison(cfg, [seed])).encode())
        return digests

    return run


def _early_stopping(out_dir) -> dict[str, str]:
    """Seed 2's four local baselines, which stop after 5, 10, 5 and 5 of
    their 12 epochs: each one's weights, best epoch, epoch count and trace,
    and the seed's comparison CSV."""
    cfg, _ = load_config(overrides=EARLY_STOPPING)
    seed = 2
    clients, _ = make_dataset(replace(cfg.corpus, seed=seed), cfg.partition)
    results = run_baselines(
        cfg.baseline,
        [(f"client {c.client_id}", c.train, c.val, baseline_stream(seed, tag=c.client_id + 1))
         for c in clients],
        cfg.federation.model,
    )
    assert [r.epochs_run for r in results] == [5, 10, 5, 5]
    h = hashlib.sha256()
    for r in results:
        h.update(r.params.values.tobytes())
        h.update(repr((r.best_epoch, r.epochs_run, r.trace)).encode())
    return {
        "baseline_weights": h.hexdigest(),
        "compare_csv": _sha256(rows_to_csv(run_comparison(cfg, [seed])).encode()),
    }


def _campaign(out_dir) -> dict[str, str]:
    """A three-seed ``elevated_noise`` comparison CSV."""
    full = preset_run_config("elevated_noise")
    cfg = replace(
        full,
        federation=replace(
            full.federation, rounds=CAMPAIGN["rounds"], local_epochs=CAMPAIGN["local_epochs"]
        ),
        baseline=replace(
            full.baseline, max_epochs=CAMPAIGN["max_epochs"], patience=CAMPAIGN["patience"]
        ),
    )
    return {"compare_csv": _sha256(rows_to_csv(run_comparison(cfg, CAMPAIGN_SEEDS)).encode())}


def _shared_missing_class(out_dir) -> dict[str, str]:
    """Four classes dealt to three clients: clients 0 and 1 both lack class
    1 and client 2 lacks class 3, so class 1's train and val pools go to
    client 2 alone and class 3's to clients 0 and 1."""
    clients, evals = make_dataset(
        CorpusSpec(class_count=4, seed=11),
        PartitionSpec(client_count=3, missing_class={0: 1, 1: 1, 2: 3}),
    )
    return {"dataset_csv": _sha256(dataset_csv_text(clients, evals).encode())}


def _noiseless_shifted_corpus(out_dir) -> dict[str, str]:
    """Six clients on five classes by the default rotation, so classes 1
    and 4 are each missing twice; noise 0 puts every sample on its mean,
    and the external means are displaced by 4."""
    clients, evals = make_dataset(
        CorpusSpec(feature_dim=6, per_class_train=7, per_class_val=3, per_class_test=2,
                   noise_scale=0.0, shift_magnitude=4.0, seed=23),
        PartitionSpec.default(6, 5),
    )
    return {"dataset_csv": _sha256(dataset_csv_text(clients, evals).encode())}


CASES = {
    "campaign_elevated_noise": _campaign,
    "early_stopping_baselines": _early_stopping,
    "default": _default,
    "industrial": _industrial,
    "preset_default": _preset("default"),
    "preset_elevated_noise": _preset("elevated_noise"),
    "preset_hard_shift": _preset("hard_shift"),
    "shared_missing_class": _shared_missing_class,
    "noiseless_shifted_corpus": _noiseless_shifted_corpus,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert CASES[case](tmp_path) == GOLDEN[case]


def _bench_workloads() -> dict:
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workloads_match_golden_digests(name):
    workload = _bench_workloads()[name]
    inputs = workload.setup(WORKLOAD_SEED)
    output = [part() for part in workload.parts(inputs)]
    assert workload.check(inputs, output) == []
    assert workload.digest(output) == WORKLOAD_DIGESTS[name]
