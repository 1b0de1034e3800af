"""Synthetic multi-class corpus generation and label-skew client partitioning.

Classes are isotropic Gaussian clusters placed on deterministic orthonormal
directions. Each client's train/val splits omit exactly one class; every
test split covers all classes. The external test set is freshly sampled with
all class means displaced along one fixed direction, standing in for a new
environment.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

# Fixed construction constants: class geometry is a function of (class_count,
# feature_dim) only, so the corpus seed varies samples, never the layout.
_DIRECTION_SEED = 0x0D1AEC7105
_SHIFT_SEED = 0x051F7D12


@dataclass(frozen=True)
class CorpusSpec:
    class_count: int = 5
    feature_dim: int = 16
    per_class_train: int = 80
    per_class_val: int = 20
    per_class_test: int = 20
    class_separation: float = 6.0
    noise_scale: float = 1.0
    shift_magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 2:
            raise ConfigurationError(f"class_count must be >= 2, got {self.class_count}")
        if self.feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("per_class_train", "per_class_val", "per_class_test"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("class_separation", "noise_scale", "shift_magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.class_separation <= 0:
            raise ConfigurationError("class_separation must be > 0")
        if self.noise_scale < 0:
            raise ConfigurationError("noise_scale must be >= 0")
        if self.shift_magnitude < 0:
            raise ConfigurationError("shift_magnitude must be >= 0")
        if not 0 <= self.seed <= 2**64 - 1:
            raise ConfigurationError("seed must fit in 64 unsigned bits")


def default_missing_class(client: int, class_count: int) -> int:
    """Rotation used by the default partition: client 0 lacks class 1, client 1
    lacks the last class, and so on backwards. Class 0 is never missing."""
    return (class_count - 1 - client) % (class_count - 1) + 1


@dataclass(frozen=True)
class PartitionSpec:
    client_count: int = 4
    missing_class: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.client_count < 1:
            raise ConfigurationError(f"client_count must be >= 1, got {self.client_count}")
        missing = dict(self.missing_class)
        if not missing:
            raise ConfigurationError(
                "missing_class is empty; the default rotation depends on the class "
                "count, so use PartitionSpec.default(client_count, class_count)"
            )
        if set(missing) != set(range(self.client_count)):
            raise ConfigurationError(
                f"missing_class must map every client in 0..{self.client_count - 1}"
            )
        object.__setattr__(self, "missing_class", missing)

    @staticmethod
    def default(client_count: int = 4, class_count: int = 5) -> "PartitionSpec":
        missing = {k: default_missing_class(k, class_count) for k in range(client_count)}
        return PartitionSpec(client_count=client_count, missing_class=missing)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Split:
    """Feature matrix, label array, and generation-order sample ids."""

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        x = _freeze(np.asarray(self.x, dtype=np.float64))
        y = _freeze(np.asarray(self.y, dtype=np.int64))
        ids = _freeze(np.asarray(self.ids, dtype=np.int64))
        if x.shape[0] != y.shape[0] or x.shape[0] != ids.shape[0]:
            raise DataError("x, y, and ids must have matching lengths")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ClientDataset:
    client_id: int
    missing_class: int
    train: Split
    val: Split
    test: Split


@dataclass(frozen=True)
class EvalSets:
    global_test: Split
    external_test: Split


@dataclass(frozen=True)
class CorpusPools:
    """Per-class sample pools drawn from ``spec``, sized for the client count
    ``generate_corpus`` was given."""

    spec: CorpusSpec
    train: tuple[Split, ...]
    val: tuple[Split, ...]
    test: tuple[Split, ...]
    external: tuple[Split, ...]


def class_directions(class_count: int, feature_dim: int) -> np.ndarray:
    """Deterministic unit direction per class; orthonormal when the feature
    dimension allows it."""
    rng = np.random.default_rng(np.random.SeedSequence(_DIRECTION_SEED))
    if feature_dim >= class_count:
        gauss = rng.standard_normal((feature_dim, class_count))
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(r))
        return q.T.copy()
    gauss = rng.standard_normal((class_count, feature_dim))
    return gauss / np.linalg.norm(gauss, axis=1, keepdims=True)


def shift_direction(feature_dim: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(_SHIFT_SEED))
    vec = rng.standard_normal(feature_dim)
    return vec / np.linalg.norm(vec)


def generate_corpus(spec: CorpusSpec, client_count: int = 4) -> CorpusPools:
    """Draws per-class pools large enough for ``client_count`` clients.

    Class c is sampled from N(class_separation * u_c, noise_scale^2 * I). The
    external pool uses the same class layout with every mean displaced by
    shift_magnitude along one fixed direction. Fully determined by spec.seed.
    """
    if client_count < 1:
        raise ConfigurationError(f"client_count must be >= 1, got {client_count}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    means = spec.class_separation * class_directions(spec.class_count, spec.feature_dim)
    shifted = means + spec.shift_magnitude * shift_direction(spec.feature_dim)

    next_id = 0

    def draw(mean: np.ndarray, count: int, label: int) -> Split:
        nonlocal next_id
        x = mean + spec.noise_scale * rng.standard_normal((count, spec.feature_dim))
        ids = np.arange(next_id, next_id + count)
        next_id += count
        return Split(x, np.full(count, label), ids)

    sizes = {
        "train": spec.per_class_train * client_count,
        "val": spec.per_class_val * client_count,
        "test": spec.per_class_test * client_count,
    }
    pools = {
        name: tuple(draw(means[c], size, c) for c in range(spec.class_count))
        for name, size in sizes.items()
    }
    external = tuple(
        draw(shifted[c], spec.per_class_test, c) for c in range(spec.class_count)
    )
    return CorpusPools(
        spec=spec,
        train=pools["train"],
        val=pools["val"],
        test=pools["test"],
        external=external,
    )


class _PoolCursor:
    """Hands out disjoint consecutive slices of one per-class pool."""

    def __init__(self, name: str, pools: tuple[Split, ...]):
        self.name = name
        self.pools = pools
        self.offsets = [0] * len(pools)

    def take(self, label: int, count: int) -> Split:
        pool = self.pools[label]
        start = self.offsets[label]
        if start + count > len(pool):
            raise ConfigurationError(
                f"{self.name} pool for class {label} exhausted: "
                f"need {count} more, {len(pool) - start} left"
            )
        self.offsets[label] = start + count
        sl = slice(start, start + count)
        return Split(pool.x[sl], pool.y[sl], pool.ids[sl])


def _concat(splits: list[Split]) -> Split:
    return Split(
        np.concatenate([s.x for s in splits]),
        np.concatenate([s.y for s in splits]),
        np.concatenate([s.ids for s in splits]),
    )


def partition(
    pools: CorpusPools, pspec: PartitionSpec
) -> tuple[list[ClientDataset], EvalSets]:
    """Deals disjoint slices to each client; client k's train/val omit its
    missing class while its test covers everything. The global test set is the
    concatenation of client tests in client order."""
    cspec = pools.spec
    for client, missing in pspec.missing_class.items():
        if not 0 <= missing < cspec.class_count:
            raise ConfigurationError(
                f"client {client} maps to class {missing}, outside 0..{cspec.class_count - 1}"
            )
    cursors = {name: _PoolCursor(name, getattr(pools, name)) for name in ("train", "val", "test")}

    clients = []
    for k in range(pspec.client_count):
        missing = pspec.missing_class[k]
        present = [c for c in range(cspec.class_count) if c != missing]
        train = _concat([cursors["train"].take(c, cspec.per_class_train) for c in present])
        val = _concat([cursors["val"].take(c, cspec.per_class_val) for c in present])
        test = _concat(
            [cursors["test"].take(c, cspec.per_class_test) for c in range(cspec.class_count)]
        )
        clients.append(
            ClientDataset(client_id=k, missing_class=missing, train=train, val=val, test=test)
        )

    global_test = _concat([c.test for c in clients])
    external_test = _concat(list(pools.external))
    return clients, EvalSets(global_test=global_test, external_test=external_test)


def merge_for_centralized(clients: list[ClientDataset]) -> tuple[Split, Split]:
    """Concatenates all clients' train splits and all val splits, in client
    order then sample order."""
    if not clients:
        raise ConfigurationError("merge_for_centralized needs at least one client")
    return _concat([c.train for c in clients]), _concat([c.val for c in clients])


def make_dataset(
    cspec: CorpusSpec, pspec: PartitionSpec
) -> tuple[list[ClientDataset], EvalSets]:
    """Generate and partition in one step."""
    pools = generate_corpus(cspec, client_count=pspec.client_count)
    return partition(pools, pspec)


def dataset_csv_text(clients: list[ClientDataset], evals: EvalSets) -> str:
    """The dataset as CSV text, one row per sample: split,client,class,
    f0..f{D-1}, with the csv module's CRLF line ends. Client -1 marks the
    external test set; the global test set is the clients' tests combined
    and is not duplicated. Values survive a round-trip at 17 significant
    digits."""
    dim = clients[0].train.x.shape[1] if clients else evals.external_test.x.shape[1]
    header = ["split", "client", "class"] + [f"f{i}" for i in range(dim)]

    def rows(split: Split, name: str, client: int):
        for x, y in zip(split.x, split.y):
            yield [name, str(client), str(int(y))] + [f"{v:.17g}" for v in x]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for c in clients:
        for name in ("train", "val", "test"):
            writer.writerows(rows(getattr(c, name), name, c.client_id))
    writer.writerows(rows(evals.external_test, "external", -1))
    return buf.getvalue()


def partition_summary(clients: list[ClientDataset], class_count: int) -> str:
    """Per-client per-class sample counts for train/val/test, as aligned text."""
    width = 7
    head = "client  set    " + "".join(f"class{c:<2}".rjust(width) for c in range(class_count))
    lines = [head, "-" * len(head)]
    for c in clients:
        for name in ("train", "val", "test"):
            split = getattr(c, name)
            counts = np.bincount(split.y, minlength=class_count)
            cells = "".join(str(int(n)).rjust(width) for n in counts)
            lines.append(f"{c.client_id:<7} {name:<6}{cells}")
    return "\n".join(lines)
