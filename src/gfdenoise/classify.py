"""Nearest-class-mean and 1-nearest-neighbor classifiers."""

from dataclasses import dataclass

import numpy as np

from .data import LabeledFeatures, class_index_map
from .errors import DimensionMismatch, EmptyClass, InvalidRange

METRICS = ("euclidean", "cosine")
CLASSIFIER_KINDS = ("ncm", "nn1")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "ncm"
    metric: str = "cosine"

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvalidRange(
                f"classifier.kind must be {' or '.join(CLASSIFIER_KINDS)}, got {self.kind!r}"
            )
        if self.metric not in METRICS:
            raise InvalidRange(f"metric must be {' or '.join(METRICS)}, got {self.metric!r}")


@dataclass
class NcmModel:
    """One centroid per class; class_ids are sorted labels."""

    centroids: np.ndarray  # (c, d)
    class_ids: np.ndarray  # (c,)
    metric: str = "euclidean"


def _unit_rows(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=-1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return A / safe[..., None]


def pairwise_distances(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    """Distance matrix between the rows of A and the rows of B, or between
    the matrices of two stacks (last two axes) pair by pair.

    Cosine distance is 1 - cosine similarity; zero-norm rows are treated
    as orthogonal to everything.
    """
    if A.shape[-1] != B.shape[-1]:
        raise DimensionMismatch(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    if metric == "euclidean":
        sq = (
            np.sum(A * A, axis=-1)[..., :, None]
            + np.sum(B * B, axis=-1)[..., None, :]
            - 2.0 * (A @ B.swapaxes(-1, -2))
        )
        return np.sqrt(np.clip(sq, 0.0, None))
    if metric == "cosine":
        return 1.0 - _unit_rows(A) @ _unit_rows(B).swapaxes(-1, -2)
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def predict(support: np.ndarray, class_rows, query: np.ndarray, cfg: ClassifierConfig):
    """Class position of each query row, (..., q): of its nearest class mean
    (NCM) or support row (1-NN), the lowest on ties. support is (..., n, d),
    query (..., q, d); class_rows[c] selects class c's rows (slice or index array)."""
    if not class_rows:
        raise EmptyClass("cannot predict from an empty training set")
    if cfg.kind == "ncm":
        # np.add.reduce, not np.mean: its per-call overhead shows in the few-shot engine.
        blocks = [support[..., rows, :] for rows in class_rows]
        means = np.stack([np.add.reduce(b, axis=-2) / b.shape[-2] for b in blocks], -2)
        return np.argmin(pairwise_distances(query, means, cfg.metric), axis=-1)
    owner = np.empty(support.shape[-2], dtype=np.intp)
    for c, rows in enumerate(class_rows):
        owner[rows] = c
    return owner[np.argmin(pairwise_distances(query, support, cfg.metric), axis=-1)]


def ncm_fit(train: LabeledFeatures, metric: str = "euclidean") -> NcmModel:
    """Compute the per-class arithmetic-mean centroids."""
    if train.n == 0:
        raise EmptyClass("cannot fit on an empty training set")
    index = class_index_map(train.labels)
    class_ids = np.asarray(list(index), dtype=np.str_)
    centroids = np.stack([train.features[idx].mean(axis=0) for idx in index.values()])
    return NcmModel(centroids=centroids, class_ids=class_ids, metric=metric)


def ncm_predict(model: NcmModel, query: np.ndarray) -> np.ndarray:
    """Label each query row by its nearest centroid (ties: lowest class
    index)."""
    query = np.asarray(query, dtype=np.float64)
    dist = pairwise_distances(query, model.centroids, model.metric)
    return model.class_ids[np.argmin(dist, axis=1)]


def nn1_predict(
    train: LabeledFeatures, query: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Label each query row by its single nearest training row (ties:
    lowest training index)."""
    if train.n == 0:
        raise EmptyClass("cannot predict from an empty training set")
    query = np.asarray(query, dtype=np.float64)
    dist = pairwise_distances(query, train.features, metric)
    return train.labels[np.argmin(dist, axis=1)]
