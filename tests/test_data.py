import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from fedsel.data import (
    CorpusSpec,
    PartitionSpec,
    Split,
    class_directions,
    dataset_csv_text,
    default_missing_class,
    make_dataset,
    merge_for_centralized,
    partition_summary,
    shift_direction,
)
from fedsel.errors import ConfigurationError

SMALL = CorpusSpec(per_class_train=12, per_class_val=6, per_class_test=5, seed=42)


def test_corpus_spec_validation():
    with pytest.raises(ConfigurationError):
        CorpusSpec(class_count=1)
    with pytest.raises(ConfigurationError):
        CorpusSpec(per_class_train=0)
    with pytest.raises(ConfigurationError):
        CorpusSpec(class_separation=0.0)
    with pytest.raises(ConfigurationError):
        CorpusSpec(shift_magnitude=-0.5)
    for seed in (2**64, -1):
        with pytest.raises(ConfigurationError, match="seed must fit in 64 unsigned bits"):
            CorpusSpec(seed=seed)
    assert CorpusSpec(seed=2**64 - 1).seed == 2**64 - 1


def test_default_missing_class_pattern():
    # 4 clients, 5 classes: 0 -> 1, 1 -> 4, 2 -> 3, 3 -> 2; class 0 never missing
    assert [default_missing_class(k, 5) for k in range(4)] == [1, 4, 3, 2]
    pspec = PartitionSpec.default()
    assert pspec.missing_class == {0: 1, 1: 4, 2: 3, 3: 2}
    assert len(set(pspec.missing_class.values())) == 4


def test_partition_spec_rejects_gaps():
    with pytest.raises(ConfigurationError):
        PartitionSpec(client_count=3, missing_class={0: 1, 2: 2})
    # an empty map would have to guess the class count
    with pytest.raises(ConfigurationError, match=r"PartitionSpec\.default\(client_count, class_count\)"):
        PartitionSpec()
    with pytest.raises(ConfigurationError):
        PartitionSpec(client_count=2, missing_class={})


def test_class_directions_orthonormal():
    u = class_directions(5, 16)
    assert u.shape == (5, 16)
    assert np.abs(u @ u.T - np.eye(5)).max() < 1e-12
    # under-dimensioned fallback still yields unit rows
    v = class_directions(7, 3)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
    # layout depends only on the shape, never the corpus seed
    assert (class_directions(5, 16) == u).all()


def test_generate_corpus_is_deterministic():
    a, _ = make_dataset(SMALL, PartitionSpec.default())
    b, _ = make_dataset(SMALL, PartitionSpec.default())
    for client_a, client_b in zip(a, b):
        assert (client_a.train.x == client_b.train.x).all()
    c, _ = make_dataset(replace(SMALL, seed=43), PartitionSpec.default())
    assert not (a[0].train.x == c[0].train.x).all()


def test_partition_respects_missing_class():
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    assert len(clients) == 4
    for c in clients:
        assert c.missing_class not in set(c.train.y)
        assert c.missing_class not in set(c.val.y)
        assert set(c.test.y) == set(range(5))
        assert len(c.train) == 12 * 4
        assert len(c.val) == 6 * 4
        assert len(c.test) == 5 * 5


def test_partition_samples_are_disjoint():
    clients, _ = make_dataset(SMALL, PartitionSpec.default())
    seen: set[int] = set()
    for c in clients:
        for split in (c.train, c.val, c.test):
            ids = set(split.ids.tolist())
            assert not ids & seen
            seen |= ids


def test_global_test_is_concatenation_of_client_tests():
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    stacked = np.concatenate([c.test.x for c in clients])
    assert (evals.global_test.x == stacked).all()
    assert len(evals.global_test) == sum(len(c.test) for c in clients)
    assert set(evals.external_test.y) == set(range(5))


def test_partition_rejects_out_of_range_class():
    bad = PartitionSpec(client_count=2, missing_class={0: 9, 1: 1})
    with pytest.raises(ConfigurationError, match="client 0 maps to class 9, outside 0..4"):
        make_dataset(SMALL, bad)


def test_shift_moves_external_means():
    shifted = CorpusSpec(per_class_train=12, per_class_val=6, per_class_test=200,
                         noise_scale=0.0, shift_magnitude=3.0, seed=42)
    _, evals = make_dataset(shifted, PartitionSpec.default())
    u = class_directions(5, 16)
    direction = shift_direction(16)
    for c in range(5):
        mask = evals.external_test.y == c
        mean = evals.external_test.x[mask].mean(axis=0)
        expected = 6.0 * u[c] + 3.0 * direction
        assert np.abs(mean - expected).max() < 1e-12  # noise-free: exact placement
    # global test stays unshifted
    mask = evals.global_test.y == 0
    assert np.abs(evals.global_test.x[mask].mean(axis=0) - 6.0 * u[0]).max() < 1e-12


def test_nearest_centroid_separates_default_geometry():
    """Sanity anchor: at the default separation/noise the classes are nearly
    linearly separable, so a centroid rule alone is almost perfect."""
    clients, evals = make_dataset(CorpusSpec(seed=1), PartitionSpec.default())
    means = 6.0 * class_directions(5, 16)
    d = ((evals.global_test.x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    acc = (np.argmin(d, axis=1) == evals.global_test.y).mean()
    assert acc >= 0.99


def test_merge_for_centralized_orders_by_client():
    clients, _ = make_dataset(SMALL, PartitionSpec.default())
    train, val = merge_for_centralized(clients)
    assert len(train) == sum(len(c.train) for c in clients)
    assert len(val) == sum(len(c.val) for c in clients)
    assert (train.x[: len(clients[0].train)] == clients[0].train.x).all()
    assert set(train.y) == set(range(5))  # every class appears somewhere
    with pytest.raises(ConfigurationError):
        merge_for_centralized([])


def test_split_freezes_its_own_view_of_the_callers_arrays():
    x, y, ids = np.ones((3, 2)), np.arange(3), np.arange(10, 13)
    split = Split(x, y, ids)
    for mine, theirs in ((x, split.x), (y, split.y), (ids, split.ids)):
        assert mine.flags.writeable and not theirs.flags.writeable
        assert np.shares_memory(mine, theirs)  # a view, not a copy
    x[0, 0] = 5.0
    assert split.x[0, 0] == 5.0


def _check_dataset_csv(text, clients, evals):
    """Parse the CSV text in the test's own way and check every row against
    the splits it came from: split, client and class, and every feature
    value bit for bit."""
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    dim = evals.external_test.x.shape[1]
    assert rows[0] == ["split", "client", "class"] + [f"f{i}" for i in range(dim)]
    expected = [
        (name, c.client_id, getattr(c, name)) for c in clients for name in ("train", "val", "test")
    ] + [("external", -1, evals.external_test)]
    at = 1
    for name, client, split in expected:
        block = rows[at : at + len(split)]
        at += len(split)
        assert [(r[0], int(r[1]), int(r[2])) for r in block] == [
            (name, client, int(y)) for y in split.y
        ]
        values = np.array([[float(v) for v in r[3:]] for r in block])
        assert values.tobytes() == split.x.tobytes()
    assert at == len(rows)


def test_dataset_csv_round_trip():
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    _check_dataset_csv(dataset_csv_text(clients, evals), clients, evals)


def test_dataset_csv_round_trip_when_a_test_split_lacks_the_top_class():
    """Client 1 lacks class 4 in train/val; with class 4 also cut from its
    test split, every remaining row is still written as it is."""
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    victim = clients[1]
    assert victim.missing_class == 4
    keep = victim.test.y != 4
    clients[1] = replace(
        victim, test=Split(victim.test.x[keep], victim.test.y[keep], victim.test.ids[keep])
    )
    _check_dataset_csv(dataset_csv_text(clients, evals), clients, evals)


def test_partition_summary_shows_zero_for_missing():
    clients, _ = make_dataset(SMALL, PartitionSpec.default())
    text = partition_summary(clients, 5)
    lines = [ln for ln in text.splitlines() if ln.startswith("0") and "train" in ln]
    assert len(lines) == 1
    counts = lines[0].split()[2:]
    assert counts[1] == "0"  # client 0 misses class 1 in train
