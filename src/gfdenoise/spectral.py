"""Normalized graph Laplacian, its eigenbasis, and spectral filtering.

Eigenvalues of the normalized Laplacian play the role of frequencies:
a signal on the vertices is transformed into the eigenbasis, reweighted
per frequency by a gain vector, and transformed back. The Laplacian, the
dense eigendecomposition and the filter act on the last two axes, so a
stack of graphs is handled in one call, each as it would be alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InvalidRange, IsolatedVertex
from .graphs import set_diagonal

# Eigenvalues of a normalized Laplacian are >= 0 up to round-off from the
# D^{-1/2} scaling; anything above this floor is clamped to 0.
PSD_FLOOR = -1e-9


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenvectors (columns) and ascending eigenvalues of a
    symmetric n x n matrix, or of each matrix of a stack: all n eigenpairs,
    or only the lowest k."""

    eigenvectors: np.ndarray  # (..., n, n) or (n, k)
    eigenvalues: np.ndarray   # (..., n) or (k,), ascending

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[-2]


def _check_adjacency(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-2] != W.shape[-1]:
        raise DimensionMismatch(f"adjacency must be square, got shape {W.shape}")
    if not np.allclose(W, W.swapaxes(-1, -2), atol=1e-12, rtol=0.0):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diagonal(W, axis1=-2, axis2=-1) != 0.0):
        raise ValueError("adjacency must have a zero diagonal")
    if W.size and W.min() < 0.0:
        raise ValueError("adjacency weights must be nonnegative")
    return W


def degree_vector(W: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix."""
    return _check_adjacency(W).sum(axis=-1)


def normalized_laplacian(W: np.ndarray) -> np.ndarray:
    """Degree-normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Raises IsolatedVertex if any vertex has zero degree, naming the first
    one by its index within its graph; such a vertex must be dropped or
    reconnected by the caller first.
    """
    W = _check_adjacency(W)
    deg = W.sum(axis=-1)
    zero = np.flatnonzero(deg == 0.0)
    if zero.size:
        raise IsolatedVertex(int(zero[0] % W.shape[-1]))
    dinv = 1.0 / np.sqrt(deg)
    L = -(W * (dinv[..., :, None] * dinv[..., None, :]))
    set_diagonal(L, 1.0)
    return L


def eigendecompose(L: np.ndarray) -> SpectralBasis:
    """Full symmetric eigendecomposition with deterministic conventions.

    Eigenvalues come back ascending; tiny negatives above the PSD floor
    are clamped to 0. Each eigenvector's entry of largest magnitude is
    made nonnegative (ties broken by lowest index) so repeated runs and
    serialized bases agree; filtering itself is sign-invariant.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim < 2 or L.shape[-2] != L.shape[-1]:
        raise DimensionMismatch(f"matrix must be square, got shape {L.shape}")
    try:
        lam, U = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _conventional_basis(lam.copy(), U)


def _conventional_basis(lam: np.ndarray, U: np.ndarray) -> SpectralBasis:
    """Clamp eigenvalues above the PSD floor to 0 and make each
    eigenvector's entry of largest magnitude nonnegative, in place."""
    lam[(lam < 0.0) & (lam > PSD_FLOOR)] = 0.0
    anchor = np.argmax(np.abs(U), axis=-2)[..., None, :]
    flip = np.take_along_axis(U, anchor, axis=-2) < 0.0
    np.negative(U, out=U, where=flip)
    return SpectralBasis(eigenvectors=U, eigenvalues=lam)


def lowest_eigenpairs(W: np.ndarray, k: int) -> SpectralBasis | None:
    """The k lowest eigenpairs of W's normalized Laplacian, or None when
    W's graph has more than one connected component or Lanczos fails.

    Implicitly restarted Lanczos (ARPACK) finds the k largest eigenvalues
    mu of the sparse normalized adjacency D^{-1/2} W D^{-1/2}; the
    Laplacian's are lambda = 1 - mu. W is checked like normalized_laplacian
    checks it, with the same errors, and the basis follows eigendecompose's
    conventions. A disconnected graph repeats eigenvalue 0, and
    single-vector Lanczos cannot return every vector of a repeated
    eigenvalue, so such a graph is left to eigendecompose, as is a graph
    on which ARPACK does not converge.
    """
    # Imported here: scipy.sparse.linalg costs a quarter second at start-up.
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackError, eigsh

    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatch(f"adjacency must be square, got shape {W.shape}")
    n = W.shape[0]
    if not 1 <= k < n:
        raise InvalidRange(f"need 1 <= k < n, got k={k} n={n}")
    A = sparse.csr_array(W)
    if not abs(A - A.T).max() <= 1e-12:  # written so that NaN fails too
        raise ValueError("adjacency must be symmetric")
    if np.any(A.diagonal() != 0.0):
        raise ValueError("adjacency must have a zero diagonal")
    if A.nnz and A.data.min() < 0.0:
        raise ValueError("adjacency weights must be nonnegative")
    deg = A.sum(axis=1)
    zero = np.flatnonzero(deg == 0.0)
    if zero.size:
        raise IsolatedVertex(int(zero[0]))
    if connected_components(A, directed=False, return_labels=False) > 1:
        return None
    dinv = sparse.diags_array(1.0 / np.sqrt(deg))
    # A fixed start vector keeps the result deterministic; a pseudo-random
    # one is not orthogonal to eigenvectors that a graph symmetry makes odd.
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    try:
        mu, U = eigsh(dinv @ A @ dinv, k=k, which="LA", v0=v0, tol=0)
    except ArpackError:  # includes ArpackNoConvergence
        return None
    return _conventional_basis(1.0 - mu[::-1], U[:, ::-1])


def gft(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Project a vertex signal onto the eigenbasis (U^T x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != basis.n:
        raise DimensionMismatch(f"signal length {x.shape[0]} != basis size {basis.n}")
    return basis.eigenvectors.T @ x


def igft(basis: SpectralBasis, xhat: np.ndarray) -> np.ndarray:
    """Reconstruct a vertex signal from its spectrum (U xhat)."""
    xhat = np.asarray(xhat, dtype=np.float64)
    if xhat.shape[0] != basis.eigenvalues.size:
        raise DimensionMismatch(
            f"spectrum length {xhat.shape[0]} != basis size {basis.eigenvalues.size}"
        )
    return basis.eigenvectors @ xhat


def apply_filter(basis: SpectralBasis, gains: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Apply the diagonal spectral filter U diag(gains) U^T to F, one gain
    per eigenpair of the basis.

    F may be a length-n signal or an n x d matrix; columns are filtered
    independently. A (..., n, d) stack of matrices is filtered matrix by
    matrix, by a stacked basis of the same leading shape or by one shared
    basis.
    """
    gains = np.asarray(gains, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    pairs = basis.eigenvalues.shape[-1]
    if gains.shape[-1] != pairs:
        raise DimensionMismatch(f"gain length {gains.shape[-1]} != basis size {pairs}")
    rows = F.shape[0] if F.ndim == 1 else F.shape[-2]
    if rows != basis.n:
        raise DimensionMismatch(f"signal rows {rows} != basis size {basis.n}")
    spectrum = basis.eigenvectors.swapaxes(-1, -2) @ F
    spectrum = spectrum * gains if F.ndim == 1 else spectrum * gains[..., None]
    return basis.eigenvectors @ spectrum


def step_response(k1: int, k2: int, mid_gain: float, n: int) -> np.ndarray:
    """Three-level low-pass gains over ascending frequency index.

    Gain 1 on the k1 lowest frequencies, mid_gain up to index k2, 0 above
    (1-based indices; the boundary index k1 itself keeps gain 1).
    """
    if not 1 <= k1 <= k2 <= n:
        raise InvalidRange(f"need 1 <= k1 <= k2 <= n, got k1={k1} k2={k2} n={n}")
    if not 0.0 <= mid_gain <= 1.0:
        raise InvalidRange(f"mid_gain must be in [0, 1], got {mid_gain}")
    idx = np.arange(1, n + 1)
    return np.where(idx <= k1, 1.0, np.where(idx <= k2, float(mid_gain), 0.0))


def ideal_lowpass_response(k: int, n: int) -> np.ndarray:
    """Gain 1 on the k lowest frequencies, 0 elsewhere."""
    if not 1 <= k <= n:
        raise InvalidRange(f"need 1 <= k <= n, got k={k} n={n}")
    return (np.arange(n) < k).astype(np.float64)
