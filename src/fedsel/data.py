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
from .nn import MAX_SEED

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
        if not 0 <= self.seed <= MAX_SEED:
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


def _frozen(arr, dtype) -> np.ndarray:
    """A read-only view of ``arr``, which stays as writable as it was."""
    view = np.asarray(arr, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Split:
    """Feature matrix, label array, and generation-order sample ids."""

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        x = _frozen(self.x, np.float64)
        y = _frozen(self.y, np.int64)
        ids = _frozen(self.ids, np.int64)
        if x.shape[0] != y.shape[0] or x.shape[0] != ids.shape[0]:
            raise DataError("x, y, and ids must have matching lengths")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class ClientDataset:
    client_id: int
    missing_class: int
    train: Split
    val: Split
    test: Split


@dataclass(frozen=True, eq=False)
class EvalSets:
    global_test: Split
    external_test: Split


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


def _concat(splits: list[Split]) -> Split:
    return Split(
        np.concatenate([s.x for s in splits]),
        np.concatenate([s.y for s in splits]),
        np.concatenate([s.ids for s in splits]),
    )


def merge_for_centralized(clients: list[ClientDataset]) -> tuple[Split, Split]:
    """Concatenates all clients' train splits and all val splits, in client
    order then sample order."""
    if not clients:
        raise ConfigurationError("merge_for_centralized needs at least one client")
    return _concat([c.train for c in clients]), _concat([c.val for c in clients])


def make_dataset(
    cspec: CorpusSpec, pspec: PartitionSpec
) -> tuple[list[ClientDataset], EvalSets]:
    """Draws per-class sample pools and deals disjoint slices of them to the
    clients. Fully determined by the two specs.

    Class c is sampled from N(class_separation * u_c, noise_scale^2 * I).
    The train, val and test pools, in that order and each class in turn,
    hold one slice per client; then come the external pools, which use the
    same class layout with every mean displaced by shift_magnitude along one
    fixed direction. Client k's train/val omit its missing class, and for
    each class c it takes the slice after those of the earlier clients that
    hold c; its test takes the k-th slice of every class. The global test
    set is the concatenation of client tests in client order.
    """
    for client, missing in pspec.missing_class.items():
        if not 0 <= missing < cspec.class_count:
            raise ConfigurationError(
                f"client {client} maps to class {missing}, outside 0..{cspec.class_count - 1}"
            )
    rng = np.random.default_rng(np.random.SeedSequence(cspec.seed))
    means = cspec.class_separation * class_directions(cspec.class_count, cspec.feature_dim)
    shifted = means + cspec.shift_magnitude * shift_direction(cspec.feature_dim)
    classes = range(cspec.class_count)
    sizes = (cspec.per_class_train, cspec.per_class_val, cspec.per_class_test)
    # each pool's (mean, label, rows) in drawing order; the corpus is one table
    layout = [(means[c], c, size * pspec.client_count) for size in sizes for c in classes]
    layout += [(shifted[c], c, cspec.per_class_test) for c in classes]
    starts = np.cumsum([0] + [rows for _, _, rows in layout]).tolist()
    x = rng.standard_normal((starts[-1], cspec.feature_dim))
    x *= cspec.noise_scale
    for (mean, _, _), lo, hi in zip(layout, starts, starts[1:]):
        x[lo:hi] += mean
    y = np.repeat([label for _, label, _ in layout], np.diff(starts))
    ids = np.arange(starts[-1])

    def deal(split: int, slots: list[tuple[int, int]]) -> Split:
        """Slot k of class c's pool of ``split`` for each (c, k), in order."""
        size = sizes[split]
        los = [starts[split * cspec.class_count + c] + k * size for c, k in slots]
        return Split(*(np.concatenate([a[lo:lo + size] for lo in los]) for a in (x, y, ids)))

    clients = []
    holders = [0] * cspec.class_count  # earlier clients that hold each class
    for k in range(pspec.client_count):
        missing = pspec.missing_class[k]
        held = [(c, holders[c]) for c in classes if c != missing]
        test = deal(2, [(c, k) for c in classes])
        clients.append(ClientDataset(
            client_id=k, missing_class=missing, train=deal(0, held), val=deal(1, held), test=test
        ))
        for c, _ in held:
            holders[c] += 1

    global_test = deal(2, [(c, k) for k in range(pspec.client_count) for c in classes])
    external = starts[len(sizes) * cspec.class_count]  # copied: the table is not kept alive
    return clients, EvalSets(global_test, Split(*(a[external:].copy() for a in (x, y, ids))))


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
