"""Similarity graphs over feature vectors of a single class.

The functions that take arrays act on the last two axes, so a (B, m, d)
stack of class blocks gives a (B, m, m) stack of graphs, each equal to
what its block gives alone.

knn_graph_csr builds the same kNN graph as class_graph for one large
class, a block of rows at a time and straight into a CsrGraph, so no
m x m array is held. Each block's similarities are the row-block product
unit[I] @ unit.T, while cosine_similarity's unit @ unit.T is one product
that numpy serves with a symmetric rank-k update (SYRK). The two can
differ in the last bits. With numpy's OpenBLAS on a 2-vCPU x86-64 VM, at
m = 600..2,000 and d = 8..256, they were often bit-equal; they differed
by up to 5.6e-16 for blocks of 3 to 327 rows and by up to 1.6e-15 for
blocks of 1 or 2 rows. So only a similarity within a few ulp of _top_k's
threshold can be kept by one path and not the other; ties are kept by both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidK, InvalidSize, ZeroVector

# Weight given back to a vertex whose every kept edge was clamped away.
RESTORED_EDGE_WEIGHT = 1e-6
# Similarities in one row that differ by at most this much are a tie, kept
# or restored whole, so a graph does not depend on row order. A row's copies
# and positive multiples differed by up to 6 ulp of 1 (d = 2..2,048), and
# the two builders' products by up to 7 (above): neither comes near 32.
TIE_TOL = 32 * np.finfo(np.float64).eps
# knn_graph_csr computes as many rows of similarities at a time as fit in
# this many bytes (at least one row): 327 rows of a 1,600-row class, 26 rows
# of a 20,000-row class. _top_k ranks a quarter of a block's rows at a time
# (rounded up), so a block's working set is about 1.3 times this: the
# similarities, and _top_k's ranking copy and kept mask of a quarter block;
# the similarities and the ranking copy are reused by every block.
GRAPH_BLOCK_BYTES = 4 * 2**20


def set_diagonal(A: np.ndarray, value) -> None:
    """Set the diagonal of each matrix in the stack A (last two axes), in place."""
    i = np.arange(A.shape[-1])
    A[..., i, i] = value


def _unit_rows(F: np.ndarray) -> np.ndarray:
    """F's rows scaled to unit norm; raises ZeroVector naming the first
    zero row by its index within its block."""
    F = np.asarray(F, dtype=np.float64)
    norms = np.linalg.norm(F, axis=-1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0] % F.shape[-2]))
    return F / norms[..., None]


def cosine_similarity(F: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities with a structurally zero diagonal.

    Raises ZeroVector if any feature row has zero norm, naming the first
    such row by its index within its block.
    """
    unit = _unit_rows(F)
    S = unit @ unit.swapaxes(-1, -2)
    S = 0.5 * (S + S.swapaxes(-1, -2))
    np.clip(S, -1.0, 1.0, out=S)
    set_diagonal(S, 0.0)
    return S


def _top_k(S: np.ndarray, k: int, first: int, ranked: np.ndarray) -> np.ndarray:
    """Mask of the k largest entries of each row of S (..., r, n) and their
    ties, where row i is vertex first + i and its own column never counts;
    ranked, of S's shape, is overwritten as scratch.

    Row i keeps every entry at or above t_i - TIE_TOL, t_i its k-th largest
    value: the one selection rule of both kNN graph builders.
    """
    n = S.shape[-1]
    rows = np.arange(S.shape[-2])
    own = (..., rows, first + rows)
    ranked[...] = S
    ranked[own] = -np.inf
    ranked.partition(n - k, axis=-1)
    keep = S >= ranked[..., n - k, None] - TIE_TOL
    keep[own] = False
    return keep


def _check_k(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise InvalidK(f"need 1 <= k < n, got k={k} n={n}")


def knn_sparsify(S: np.ndarray, k: int) -> np.ndarray:
    """Keep S[i, j] when it is among the k largest off-diagonal entries of
    row i or of column j (union rule, so the result stays symmetric).

    An entry tied within TIE_TOL with the k-th largest of its row is kept
    too, so the graph does not depend on the order of the rows. Kept
    entries may be negative; clamp_negative_edges prepares such a matrix
    for Laplacian construction. Off-diagonal entries must be finite.
    """
    S = np.asarray(S, dtype=np.float64)
    _check_k(k, S.shape[-1])
    keep = _top_k(S, k, 0, np.empty_like(S))
    keep |= keep.swapaxes(-1, -2)
    return np.where(keep, S, 0.0)


def complete_graph(m: int) -> np.ndarray:
    """Unit-weight adjacency of the complete graph on m vertices."""
    if m < 2:
        raise InvalidSize(f"complete graph needs m >= 2, got {m}")
    W = np.ones((m, m))
    np.fill_diagonal(W, 0.0)
    return W


def clamp_negative_edges(W: np.ndarray) -> np.ndarray:
    """Clamp negative weights to 0; if that isolates a vertex, restore its
    largest original edge and that edge's ties (TIE_TOL) at
    RESTORED_EDGE_WEIGHT so degrees stay positive.
    """
    W = np.asarray(W, dtype=np.float64)
    clamped = np.clip(W, 0.0, None)
    # Rows are (block index..., vertex); each restores from W, in any order.
    for *block, i in np.argwhere(clamped.sum(axis=-1) == 0.0).tolist():
        row = W[(*block, i)]
        j = np.flatnonzero(row != 0.0)
        if j.size == 0:
            continue  # no edge at all in the pattern; Laplacian will reject
        j = j[row[j] >= row[j].max() - TIE_TOL]
        clamped[(*block, i, j)] = RESTORED_EDGE_WEIGHT
        clamped[(*block, j, i)] = RESTORED_EDGE_WEIGHT
    return clamped


@dataclass(frozen=True)
class CsrGraph:
    """A sparse adjacency in compressed sparse row form: row i's neighbors
    are indices[indptr[i]:indptr[i + 1]], ascending, and their weights the
    same slice of data."""

    indptr: np.ndarray   # (rows + 1,)
    indices: np.ndarray  # (nnz,)
    data: np.ndarray     # (nnz,) float64
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "CsrGraph":
        """The nonzero entries of the 2-D array A."""
        A = np.asarray(A, dtype=np.float64)
        rows, cols = np.nonzero(A)
        indptr = np.searchsorted(rows, np.arange(A.shape[0] + 1))
        return cls(indptr=indptr, indices=cols, data=A[rows, cols], shape=A.shape)

    def toarray(self) -> np.ndarray:
        """The dense adjacency."""
        A = np.zeros(self.shape)
        A[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return A


def knn_graph_csr(F: np.ndarray, k: int) -> CsrGraph:
    """clamp_negative_edges(knn_sparsify(cosine_similarity(F), k)) for one
    m x d class, as an exactly symmetric CsrGraph with no explicit zeros,
    built without any m x m array.

    Rows are taken GRAPH_BLOCK_BYTES at a time: each block's similarities
    are clipped to [-1, 1] and each row keeps its k largest by knn_sparsify's
    rule. A pair kept by either of its rows is an edge (union rule), weighted
    by the similarity its lower-indexed vertex's row computed when that row
    kept it, else by the other row's (see the module docstring). Negative
    weights are then clamped, and edges restored with their ties, on the
    sparse graph as clamp_negative_edges does on a dense one.
    """
    unit = _unit_rows(F)
    m = unit.shape[0]
    _check_k(k, m)
    step = max(1, GRAPH_BLOCK_BYTES // (8 * m))
    sub = -(-step // 4)  # _top_k ranks a quarter of a block's rows at a time
    block, ranked = np.empty((min(step, m), m)), np.empty((min(sub, m), m))  # reused
    rows, cols, vals = [], [], []
    for first in range(0, m, step):
        S = np.matmul(unit[first:first + step], unit.T, out=block[:m - first])
        np.clip(S, -1.0, 1.0, out=S)
        for j in range(0, len(S), sub):
            T = S[j:j + sub]
            kept = np.flatnonzero(_top_k(T, k, first + j, ranked[:len(T)]))
            rows.append(kept // m + first + j)
            cols.append(kept % m)
            vals.append(T.ravel()[kept])
    del S, T, block, ranked
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    # Kept entries come in row order, so each pair's first is its
    # lower-indexed row's when that row kept it.
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    first = np.unique(lo * m + hi, return_index=True)[1]
    first = first[vals[first] != 0.0]  # a zero similarity is no edge
    lo, hi, vals = lo[first], hi[first], vals[first]
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(rows * m + cols)
    rows, cols, vals = rows[order], cols[order], np.concatenate([vals, vals])[order]
    ptr = np.searchsorted(rows, np.arange(m + 1))
    clamped = np.clip(vals, 0.0, None)
    for i in np.flatnonzero(np.bincount(rows, weights=clamped, minlength=m) == 0.0):
        if ptr[i] == ptr[i + 1]:
            continue  # no edge at all in the pattern; Laplacian will reject
        row = vals[ptr[i]:ptr[i + 1]]
        at = ptr[i] + np.flatnonzero(row >= row.max() - TIE_TOL)
        back = [ptr[j] + np.searchsorted(cols[ptr[j]:ptr[j + 1]], i) for j in cols[at]]
        clamped[np.append(at, back)] = RESTORED_EDGE_WEIGHT
    edge = clamped != 0.0
    ptr = np.searchsorted(rows[edge], np.arange(m + 1))
    return CsrGraph(indptr=ptr, indices=cols[edge], data=clamped[edge], shape=(m, m))


def class_graph(F: np.ndarray, kind: str, knn_k: int) -> np.ndarray:
    """Adjacency of one dense class graph: cosine kNN ("knn") or
    unit-weight complete ("complete"). denoise builds it for the classes
    and stacks that do not take the sparse path of knn_graph_csr.

    For a (B, m, d) stack, "knn" gives one (m, m) graph per block, and
    "complete" the single (m, m) graph that every block shares.
    """
    m = F.shape[-2]
    if kind == "complete":
        return complete_graph(m)
    if kind == "knn":
        return clamp_negative_edges(knn_sparsify(cosine_similarity(F), knn_k))
    raise ValueError(f"unknown graph kind {kind!r}")
