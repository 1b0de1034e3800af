from dataclasses import replace

import numpy as np
import pytest

from fedsel.data import (
    ClientDataset,
    CorpusSpec,
    PartitionSpec,
    Split,
    class_directions,
    default_missing_class,
    dump_dataset_csv,
    generate_corpus,
    load_dataset_csv,
    make_dataset,
    merge_for_centralized,
    partition,
    partition_summary,
    shift_direction,
)
from fedsel.errors import ConfigurationError, DataError

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
    a = generate_corpus(SMALL, client_count=4)
    b = generate_corpus(SMALL, client_count=4)
    for pool_a, pool_b in zip(a.train, b.train):
        assert (pool_a.x == pool_b.x).all()
    c = generate_corpus(CorpusSpec(per_class_train=12, per_class_val=6, per_class_test=5, seed=43), client_count=4)
    assert not (a.train[0].x == c.train[0].x).all()


def test_pool_sizes_cover_clients():
    pools = generate_corpus(SMALL, client_count=4)
    assert all(len(p) == 12 * 4 for p in pools.train)
    assert all(len(p) == 6 * 4 for p in pools.val)
    assert all(len(p) == 5 * 4 for p in pools.test)
    assert all(len(p) == 5 for p in pools.external)


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


def test_partition_exhausts_pool():
    pools = generate_corpus(SMALL, client_count=2)
    with pytest.raises(ConfigurationError):
        partition(pools, PartitionSpec.default())  # 4 clients, pools sized for 2


def test_partition_rejects_out_of_range_class():
    pools = generate_corpus(SMALL, client_count=2)
    bad = PartitionSpec(client_count=2, missing_class={0: 9, 1: 1})
    with pytest.raises(ConfigurationError):
        partition(pools, bad)


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


def test_dataset_csv_round_trip(tmp_path):
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    path = tmp_path / "data.csv"
    dump_dataset_csv(clients, evals, path)
    loaded_clients, loaded_evals = load_dataset_csv(path)
    assert len(loaded_clients) == len(clients)
    for orig, back in zip(clients, loaded_clients):
        assert back.client_id == orig.client_id
        assert back.missing_class == orig.missing_class
        for name in ("train", "val", "test"):
            assert (getattr(back, name).x == getattr(orig, name).x).all()
            assert (getattr(back, name).y == getattr(orig, name).y).all()
    assert (loaded_evals.external_test.x == evals.external_test.x).all()
    assert (loaded_evals.global_test.x == evals.global_test.x).all()


def test_dataset_csv_round_trip_when_a_test_split_lacks_the_top_class(tmp_path):
    """Client 1 lacks class 4 in train/val; with class 4 also cut from its
    test split, the class count must still come from the whole file."""
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    victim = clients[1]
    assert victim.missing_class == 4
    keep = victim.test.y != 4
    clients[1] = replace(
        victim, test=Split(victim.test.x[keep], victim.test.y[keep], victim.test.ids[keep])
    )
    path = tmp_path / "data.csv"
    dump_dataset_csv(clients, evals, path)
    loaded_clients, loaded_evals = load_dataset_csv(path)
    assert [c.missing_class for c in loaded_clients] == [1, 4, 3, 2]
    for orig, back in zip(clients, loaded_clients):
        for name in ("train", "val", "test"):
            assert (getattr(back, name).x == getattr(orig, name).x).all()
            assert (getattr(back, name).y == getattr(orig, name).y).all()
    assert len(loaded_evals.global_test) == sum(len(c.test) for c in clients)


def test_load_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        load_dataset_csv(path)


def test_load_dataset_csv_names_the_line_of_a_malformed_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("split,client,class,f0\ntrain,0,0,1.0\ntrain,a,0,1.0\n")
    with pytest.raises(DataError, match=r"bad\.csv: line 3: invalid literal for int\(\)"):
        load_dataset_csv(path)


def test_load_dataset_csv_names_the_line_of_an_unknown_split(tmp_path):
    """A row with an unknown split is rejected, not dropped."""
    path = tmp_path / "bad.csv"
    path.write_text("split,client,class,f0\ntrain,0,0,1.0\ntrian,0,0,1.0\n")
    with pytest.raises(DataError, match=r"bad\.csv: line 3: split 'trian' of client 0"):
        load_dataset_csv(path)


def test_load_dataset_csv_names_the_line_of_a_negative_class(tmp_path):
    """A negative label is rejected as it is read, naming the file and the
    line, rather than loading and failing later at training time."""
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    path = tmp_path / "data.csv"
    dump_dataset_csv(clients, evals, path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("train,0,0,")
    lines[2] = "train,0,-1," + lines[2][len("train,0,0,"):]
    path.write_text("".join(lines))
    with pytest.raises(DataError, match=r"data\.csv: line 3: class -1 is negative"):
        load_dataset_csv(path)


@pytest.mark.parametrize("label, class_count", [(100000, 100001), (1, 5)])
def test_load_dataset_csv_counts_the_classes_a_client_has(tmp_path, label, class_count):
    """Client 0 lacks class 1. One of its labels typed as 100000 makes the
    class count 100001, and typed as 1 leaves it lacking none; either way
    the error says how many classes the client has instead of listing the
    absent ones."""
    clients, evals = make_dataset(SMALL, PartitionSpec.default())
    path = tmp_path / "data.csv"
    dump_dataset_csv(clients, evals, path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("train,0,0,")
    lines[2] = f"train,0,{label}," + lines[2][len("train,0,0,"):]
    path.write_text("".join(lines))
    with pytest.raises(DataError) as exc:
        load_dataset_csv(path)
    message = str(exc.value)
    assert message == (
        f"{path}: client 0 should lack exactly one of {class_count} classes, has 5"
    )


def test_partition_summary_shows_zero_for_missing():
    clients, _ = make_dataset(SMALL, PartitionSpec.default())
    text = partition_summary(clients, 5)
    lines = [ln for ln in text.splitlines() if ln.startswith("0") and "train" in ln]
    assert len(lines) == 1
    counts = lines[0].split()[2:]
    assert counts[1] == "0"  # client 0 misses class 1 in train
