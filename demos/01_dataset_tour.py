"""Walk through the synthetic corpus: clusters, label skew, and the shifted
external test set.

Run from the repository root:  python3 demos/01_dataset_tour.py
"""

import numpy as np

from fedsel.data import (
    CorpusSpec,
    PartitionSpec,
    class_directions,
    make_dataset,
    partition_summary,
)

spec = CorpusSpec(seed=7, shift_magnitude=3.0)
partition = PartitionSpec.default()
clients, evals = make_dataset(spec, partition)

# Each class lives in its own Gaussian cluster. The cluster centers sit on
# orthonormal directions scaled by class_separation, so classes are easy to
# tell apart unless noise_scale drowns the geometry.
dirs = class_directions(spec.class_count, spec.feature_dim)
print("pairwise center dot products (should be ~0 off the diagonal):")
# adding 0.0 turns a rounded -0.0 into 0.0, which prints the same on every CPU
print(np.round(dirs @ dirs.T, 3) + 0.0)
print()

# The label skew: every client is missing one class in train/val but sees
# every class in its test split.
print(partition_summary(clients, spec.class_count))
print()

for client in clients:
    train_classes = sorted(set(client.train.y.tolist()))
    test_classes = sorted(set(client.test.y.tolist()))
    print(
        f"client {client.client_id}: missing class {client.missing_class}, "
        f"trains on {train_classes}, tested on {test_classes}"
    )
print()

# The global test set is just every client's test split glued together.
total = sum(len(c.test.y) for c in clients)
print(f"global test set: {len(evals.global_test.y)} samples ({total} from clients)")

# The external test set draws from the same classes but with every cluster
# center displaced by shift_magnitude along one fixed direction. Same labels,
# moved distribution.
ext = evals.external_test
print(f"external test set: {len(ext.y)} samples, shift magnitude {spec.shift_magnitude}")
global_mean = evals.global_test.x.mean(axis=0)
external_mean = ext.x.mean(axis=0)
print(f"mean displacement between the two sets: {np.linalg.norm(external_mean - global_mean):.2f}")
