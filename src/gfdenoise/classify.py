"""Nearest-class-mean and 1-nearest-neighbor classifiers."""

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledFeatures, class_index_map
from .errors import DimensionMismatch, EmptyClass, InvalidRange

METRICS = ("euclidean", "cosine")
CLASSIFIER_KINDS = ("ncm", "nn1")
# predict's 1-NN takes its argmin over blocks of as many query rows as fit
# in this many bytes of distances (at least one row), so a large query set
# never holds its whole distance matrix: 163 rows against 3,200 support
# rows. Every block reuses one buffer; euclidean also reuses a scratch of a
# quarter of a block's rows (rounded up) for the norms' sum, so 800 x 128
# queries against 3,200 rows peak at 1.25 times this in traced memory
# beside the norms (2.0 with a whole second block, 3.0 with a fresh array
# per operation). A few-shot chunk (episodes.EPISODE_CHUNK_BYTES) of
# default shape fits in one block.
DISTANCE_BLOCK_BYTES = 4 * 2**20


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
    return next(_distance_blocks(A, B, metric, None))


def _distance_blocks(A: np.ndarray, B: np.ndarray, metric: str, block_bytes: int | None):
    """pairwise_distances(A, B, metric) of each block of A's rows whose
    distances fit in block_bytes (at least one row; None: all rows), each
    written over the last. The squared norms (euclidean) or unit rows
    (cosine) of A and B are computed once, and each block takes the
    formula's operations in its order, in place in one buffer; euclidean
    adds a + b into a scratch of a quarter of its rows at a time."""
    if A.shape[-1] != B.shape[-1]:
        raise DimensionMismatch(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    if metric == "euclidean":
        a, b = (np.sum(X * X, axis=-1, keepdims=True) for X in (A, B))
    elif metric == "cosine":
        a, b = _unit_rows(A), _unit_rows(B)
    else:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    (q, n), stack = (A.shape[-2], B.shape[-2]), np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    step = max(1, q if block_bytes is None else block_bytes // max(8 * n * math.prod(stack), 1))
    out = np.empty(stack + (min(step, q), n), np.result_type(A, B, 1.0))
    sub = -(-step // 4)  # euclidean: a + b is added a quarter of a block at a time
    work = np.empty(stack + (min(sub, q), n), out.dtype) if metric == "euclidean" else None
    for i in range(0, max(q, 1), step):
        rows = (..., slice(i, i + step), slice(None))
        D = out[..., : q - i, :]  # all of out but in a short last block
        if work is None:
            np.subtract(1.0, np.matmul(a[rows], b.swapaxes(-1, -2), out=D), out=D)
        else:
            np.matmul(A[rows], B.swapaxes(-1, -2), out=D)
            D *= 2.0
            for j in range(0, D.shape[-2], sub):
                Dj = D[..., j:j + sub, :]
                ab = work[..., : Dj.shape[-2], :]
                np.add(a[rows][..., j:j + sub, :], b.swapaxes(-1, -2), out=ab)
                np.subtract(ab, Dj, out=Dj)
            np.sqrt(np.clip(D, 0.0, None, out=D), out=D)
        yield D


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
    blocks = _distance_blocks(query, support, cfg.metric, DISTANCE_BLOCK_BYTES)
    nearest = np.concatenate([np.argmin(D, axis=-1) for D in blocks], axis=-1)
    owner = np.empty(support.shape[-2], dtype=np.intp)
    for c, rows in enumerate(class_rows):
        owner[rows] = c
    return owner[nearest]


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
