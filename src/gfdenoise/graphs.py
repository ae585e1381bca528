"""Similarity graphs over feature vectors of a single class."""

import numpy as np

from .errors import InvalidK, InvalidSize, ZeroVector

# Weight given back to a vertex whose every kept edge was clamped away.
RESTORED_EDGE_WEIGHT = 1e-6


def cosine_similarity(F: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities with a structurally zero diagonal.

    Raises ZeroVector if any feature row has zero norm.
    """
    F = np.asarray(F, dtype=np.float64)
    norms = np.linalg.norm(F, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    unit = F / norms[:, None]
    S = unit @ unit.T
    S = 0.5 * (S + S.T)
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 0.0)
    return S


def knn_sparsify(S: np.ndarray, k: int) -> np.ndarray:
    """Keep S[i, j] when it is among the k largest off-diagonal entries of
    row i or of column j (union rule, so the result stays symmetric).

    Ties are broken toward lower column index. Kept entries may be
    negative; clamp_negative_edges prepares such a matrix for Laplacian
    construction. Off-diagonal entries must be finite.
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if not 1 <= k < n:
        raise InvalidK(f"need 1 <= k < n, got k={k} n={n}")
    if k == n - 1:  # every off-diagonal entry is among its row's k largest
        W = S.copy()
        np.fill_diagonal(W, 0.0)
        return W
    # Row i keeps every entry above its k-th largest off-diagonal value t_i
    # and, of the entries equal to t_i, the lowest-column ones up to k.
    ranked = S.copy()
    np.fill_diagonal(ranked, -np.inf)
    ranked.partition(n - k, axis=1)
    threshold = ranked[:, n - k, None].copy()
    del ranked
    keep = S >= threshold
    np.fill_diagonal(keep, False)
    surplus = np.flatnonzero(keep.sum(axis=1) > k)
    if surplus.size:
        rows = keep[surplus]
        tied = rows & (S[surplus] == threshold[surplus])
        room = k - rows.sum(axis=1) + tied.sum(axis=1)
        keep[surplus] = rows & (~tied | (np.cumsum(tied, axis=1) <= room[:, None]))
    keep |= keep.T
    return np.where(keep, S, 0.0)


def complete_graph(m: int) -> np.ndarray:
    """Unit-weight adjacency of the complete graph on m vertices."""
    if m < 2:
        raise InvalidSize(f"complete graph needs m >= 2, got {m}")
    W = np.ones((m, m))
    np.fill_diagonal(W, 0.0)
    return W


def clamp_negative_edges(W: np.ndarray, eps: float = RESTORED_EDGE_WEIGHT) -> np.ndarray:
    """Clamp negative weights to 0; if that isolates a vertex, restore its
    single largest original edge with weight eps so degrees stay positive.
    """
    W = np.asarray(W, dtype=np.float64)
    clamped = np.clip(W, 0.0, None)
    isolated = np.flatnonzero(clamped.sum(axis=1) == 0.0)
    for i in isolated:
        candidates = np.flatnonzero(W[i] != 0.0)
        if candidates.size == 0:
            continue  # no edge at all in the pattern; Laplacian will reject
        j = candidates[np.argmax(W[i, candidates])]
        clamped[i, j] = eps
        clamped[j, i] = eps
    return clamped


def class_graph(F: np.ndarray, kind: str, knn_k: int) -> np.ndarray:
    """Adjacency of one class graph: cosine kNN ("knn") or unit-weight
    complete ("complete")."""
    m = F.shape[0]
    if kind == "complete":
        return complete_graph(m)
    if kind == "knn":
        return clamp_negative_edges(knn_sparsify(cosine_similarity(F), knn_k))
    raise ValueError(f"unknown graph kind {kind!r}")
