"""Labeled feature matrices and synthetic Gaussian pools."""

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSize, NonFiniteValue


@dataclass
class LabeledFeatures:
    """An n x d feature matrix with one opaque string label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DimensionMismatch(f"features must be 2-D, got {self.features.ndim}-D")
        self.labels = np.asarray(self.labels, dtype=np.str_)
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionMismatch(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} rows"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def check_finite(features: np.ndarray, first_row: int = 0, linenos: array | None = None) -> None:
    """Raise NonFiniteValue naming the first row holding a NaN or infinity:
    counted from first_row, or by its line; for a (B, m, d) stack, by its
    index within its block."""
    # min and max are NaN or infinite exactly when some value is, and
    # unlike np.isfinite they allocate no array the size of the input.
    if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
        row = int(np.argmin(np.isfinite(features).all(axis=-1))) % features.shape[-2]
        raise NonFiniteValue(first_row + row, None if linenos is None else linenos[row])


def class_index_map(labels: np.ndarray) -> dict[str, np.ndarray]:
    """Row indices per class, keyed by label in sorted order; indices keep
    the original row order."""
    classes, inverse = np.unique(np.asarray(labels, dtype=np.str_), return_inverse=True)
    # A stable sort by class keeps each class's rows in row order.
    rows = np.argsort(inverse, kind="stable")
    ends = np.cumsum(np.bincount(inverse, minlength=classes.size))
    return dict(zip(classes.tolist(), np.split(rows, ends[:-1])))


def make_gaussian_pool(
    n_classes: int,
    per_class: int,
    dim: int,
    separation: float = 4.0,
    sigma: float = 1.0,
    seed: int = 0,
) -> LabeledFeatures:
    """Isotropic Gaussian classes with every pair of class means exactly
    `separation` apart.

    Class c is centered at (separation / sqrt(2)) * e_c, so dim must be
    at least n_classes.
    """
    if n_classes < 1 or per_class < 1:
        raise InvalidSize("need at least one class and one sample per class")
    if dim < n_classes:
        raise InvalidSize(f"dim={dim} cannot host {n_classes} equidistant class means")
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    width = len(str(n_classes - 1))
    features = np.empty((n_classes * per_class, dim))
    labels = []
    for c in range(n_classes):
        mu = np.zeros(dim)
        mu[c] = scale
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = mu + sigma * rng.standard_normal((per_class, dim))
        labels.extend([f"c{c:0{width}d}"] * per_class)
    return LabeledFeatures(features=features, labels=np.asarray(labels))


def stratified_split(
    data: LabeledFeatures, test_fraction: float, seed: int = 0
) -> tuple[LabeledFeatures, LabeledFeatures]:
    """Per-class random split into (train, test); every class keeps at
    least one training row."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidSize(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for _, idx in class_index_map(data.labels).items():
        perm = idx[rng.permutation(idx.size)]
        n_test = min(int(round(idx.size * test_fraction)), idx.size - 1)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return (
        LabeledFeatures(data.features[train], data.labels[train]),
        LabeledFeatures(data.features[test], data.labels[test]),
    )
