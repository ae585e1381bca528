"""Normalized graph Laplacian, its eigenbasis, and spectral filtering.

Eigenvalues of the normalized Laplacian play the role of frequencies:
a signal on the vertices is transformed into the eigenbasis, reweighted
per frequency by a gain vector, and transformed back. The Laplacian, the
dense eigendecomposition and the filter act on the last two axes, so a
stack of graphs is handled in one call, each as it would be alone.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InvalidRange, IsolatedVertex
from .graphs import CsrGraph, set_diagonal

# Eigenvalues of a normalized Laplacian are >= 0 up to round-off from the
# D^{-1/2} scaling; anything above this floor is clamped to 0.
PSD_FLOOR = -1e-9
# lowest_eigenpairs gives up, returning None, after this many Lanczos restarts.
LANCZOS_MAX_RESTARTS = 300
# Start vectors of lowest_eigenpairs' Lanczos basis: the largest multiplicity
# of a wanted eigenvalue that it is sure to find.
LANCZOS_BLOCK = 2
# lowest_eigenpairs' filtered solve: the plain Lanczos steps that estimate
# the spectral density, how many eigenvalues beyond the k wanted it puts
# above the filter's cut, and the Chebyshev filter's degree.
DENSITY_STEPS = 40
CUT_MARGIN = 60
FILTER_DEGREE = 8


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


def lowest_eigenpairs(W: CsrGraph, k: int) -> SpectralBasis | None:
    """The k lowest eigenpairs of the normalized Laplacian of the sparse
    adjacency W, or None when W's graph has more than one connected
    component or Lanczos does not converge. A stored 0.0 is no edge.

    The solve finds the k largest eigenvalues mu of the sparse normalized
    adjacency M = D^{-1/2} W D^{-1/2}; the Laplacian's are lambda = 1 - mu.
    W is checked like normalized_laplacian checks a dense adjacency, with
    the same errors, and the basis follows eigendecompose's conventions. A
    disconnected graph repeats eigenvalue 0 as often as it has components,
    more often than Lanczos can be sure to find it, so the caller solves
    such a graph, and one on which Lanczos does not converge, by
    eigendecompose of W.toarray()'s Laplacian.

    A connected graph is solved through a Chebyshev filter that deflates
    M's known top eigenpair, mu = 1 on z = D^{1/2} 1 / |D^{1/2} 1|, cuts
    at a spectral density estimate and certifies the pairs it finds (see
    _filtered_lanczos). When it declines, thick-restart block Lanczos from
    two start vectors (_thick_restart_lanczos) solves M itself.
    """
    n = W.shape[0]
    if W.shape[1] != n:
        raise DimensionMismatch(f"adjacency must be square, got shape {W.shape}")
    if not 1 <= k < n:
        raise InvalidRange(f"need 1 <= k < n, got k={k} n={n}")
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    cols, vals = W.indices, np.asarray(W.data, dtype=np.float64)
    edge = vals != 0.0
    rows, cols, vals = rows[edge], cols[edge], vals[edge]
    key = rows * n + cols
    if np.any(np.diff(key) <= 0):
        raise ValueError("adjacency column indices must ascend within each row")
    at = np.minimum(np.searchsorted(key, cols * n + rows), key.size - 1)
    mirror = np.where(key[at] == cols * n + rows, vals[at], 0.0)
    if not np.max(np.abs(vals - mirror), initial=0.0) <= 1e-12:  # so that NaN fails too
        raise ValueError("adjacency must be symmetric")
    if np.any(rows == cols):
        raise ValueError("adjacency must have a zero diagonal")
    if vals.size and vals.min() < 0.0:
        raise ValueError("adjacency weights must be nonnegative")
    deg = np.bincount(rows, weights=vals, minlength=n)
    zero = np.flatnonzero(deg == 0.0)
    if zero.size:
        raise IsolatedVertex(int(zero[0]))
    starts = np.searchsorted(rows, np.arange(n))  # every row has an edge
    if not _connected(starts, cols):
        return None
    dinv = 1.0 / np.sqrt(deg)
    scaled = vals * dinv[rows] * dinv[cols]

    def matvec(X):
        # Two rows travel as one complex row, so that each neighbor is
        # gathered and each row summed once for both.
        if len(X) == 2:
            y = np.add.reduceat(scaled * (X[0] + 1j * X[1])[cols], starts)
            return np.array([y.real, y.imag])
        return np.add.reduceat(scaled * X[0][cols], starts)[None]

    z = np.sqrt(deg)
    z /= np.linalg.norm(z)
    found = _filtered_lanczos(matvec, z, k) or _thick_restart_lanczos(matvec, n, k)
    if found is None:
        return None
    mu, U = found
    return _conventional_basis(1.0 - mu, U)


def _filtered_lanczos(matvec, z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The k largest eigenpairs of the normalized adjacency M = matvec of a
    connected graph, as _thick_restart_lanczos returns them, given its
    eigenvector z for eigenvalue 1. None, and the caller solves M itself,
    at k = 1, on a graph of fewer than k + CUT_MARGIN + DENSITY_STEPS
    vertices, without a density estimate, when the filtered run does not
    converge or gives up early, or when the pairs are not certified.

    The other k - 1 are the largest of p(M) on the complement of z, where p
    is the degree-FILTER_DEGREE Chebyshev polynomial of [-1, c], scaled to
    1 at the estimated second eigenvalue so that p(M), like M, has about
    unit spectral radius, as _thick_restart_lanczos's convergence test
    takes it to; _spectral_cut puts the cut c below about k + CUT_MARGIN
    eigenvalues (Zhou and Saad 2007). The eigenvalues are M's Rayleigh
    quotients on the Ritz vectors found. |p| is at most p(c) on [-1, c]
    and p increases above c, so when the k-th eigenvalue lies above c, no
    eigenvalue left out has a larger p than a wanted one: the pairs are
    M's k largest. That is the certificate. When the k-th eigenvalue lies
    at or below c, the (k - 1)-th of p(M) is at most p(c), and so is its
    Ritz value: the filtered run gives up at its first restart, after one
    basis of filtered steps, rather than spend LANCZOS_MAX_RESTARTS
    restarts on pairs that cannot be certified.
    """
    n = z.size
    if k < 2 or n < k + CUT_MARGIN + DENSITY_STEPS:
        return None
    cut = _spectral_cut(matvec, z, k + CUT_MARGIN)
    if cut is None:
        return None
    c, top = cut
    center, half = (c - 1.0) / 2.0, (c + 1.0) / 2.0
    # T_d(x) = cosh(d arccosh x) for x >= 1, and top lies above c.
    scale = np.cosh(FILTER_DEGREE * np.arccosh((top - center) / half))

    def filtered(X):
        # p(M) of X projected off z, by the Chebyshev three-term recurrence.
        # M keeps the complement of z, but p is large at 1, so the result
        # is projected off z again to drop the round-off that p enlarged.
        X = X - np.outer(X @ z, z)
        prev, Y = X, (matvec(X) - center * X) / half
        for _ in range(FILTER_DEGREE - 1):
            prev, Y = Y, (2.0 / half) * (matvec(Y) - center * Y) - prev
        return (Y - np.outer(Y @ z, z)) / scale

    found = _thick_restart_lanczos(filtered, n, k - 1, floor=1.0 / scale)
    if found is None:
        return None
    U = found[1]
    MU = np.concatenate([matvec(U.T[j:j + 2]) for j in range(0, k - 1, 2)])
    mu, S = np.linalg.eigh(MU @ U)
    if not mu[0] > c:
        return None
    return np.concatenate([[1.0], mu[::-1]]), np.column_stack([z, U @ S[:, ::-1]])


def _spectral_cut(matvec, z: np.ndarray, count: int) -> tuple[float, float] | None:
    """(c, top): a point c above which about `count` of the eigenvalues of
    the normalized adjacency M = matvec lie, leaving out eigenvalue 1 of its
    eigenvector z, and the largest of those eigenvalues, estimated; None on
    a Lanczos breakdown or when no such c lies in (-1, top).

    Stochastic Lanczos quadrature (Lin, Saad and Yang 2016): DENSITY_STEPS
    plain Lanczos steps on M projected off z, from the LANCZOS_BLOCK start
    vectors centered and projected off z, give Gauss nodes and weights
    whose weights above x, averaged and times n - 1, estimate how many
    eigenvalues lie above x. Uncentered, the start vectors (entries in
    [1, 2)) lean toward smooth eigenvectors and put the cut too high.
    """
    n = z.size
    Q = np.array([_start_vector(n, seed) for seed in range(LANCZOS_BLOCK)])
    Q -= Q.mean(axis=1, keepdims=True)
    Q -= np.outer(Q @ z, z)
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    prev, beta = np.zeros_like(Q), np.zeros(len(Q))
    T = np.zeros((len(Q), DENSITY_STEPS, DENSITY_STEPS))
    for j in range(DENSITY_STEPS):
        X = matvec(Q)
        X -= np.outer(X @ z, z)
        T[:, j, j] = alpha = np.sum(X * Q, axis=1)
        X -= alpha[:, None] * Q + beta[:, None] * prev
        beta = np.linalg.norm(X, axis=1)
        if not np.all(beta > np.sqrt(np.finfo(np.float64).eps)):
            return None
        if j + 1 < DENSITY_STEPS:
            T[:, j, j + 1] = T[:, j + 1, j] = beta
        prev, Q = Q, X / beta[:, None]
    nodes, S = np.linalg.eigh(T)
    order = np.argsort(nodes, axis=None)[::-1]
    above = np.cumsum((S[:, 0, :] ** 2).ravel()[order]) * (n - 1) / len(Q)
    at = np.searchsorted(above, count)
    if at == above.size:
        return None
    c, top = nodes.ravel()[order[[at, 0]]]
    return (c, top) if -1.0 < c < top else None


def _connected(starts: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the symmetric graph whose row i holds the neighbors
    cols[starts[i]:starts[i + 1]] (none empty) is connected.

    Every vertex takes the least label among its own and its neighbors',
    then each label is replaced by its own label until none changes
    (pointer jumping); at the fixed point each component carries its least
    vertex index.
    """
    labels = np.arange(starts.size)
    while True:
        new = np.minimum(labels, np.minimum.reduceat(labels[cols], starts))
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if not new.any() or np.array_equal(new, labels):
            return not new.any()
        labels = new


def _start_vector(n: int, seed: int) -> np.ndarray:
    """A fixed unit vector of n pseudo-random entries in [1, 2): the
    splitmix64 hash of seed * n + 1 + i, so that no numpy.random Generator
    (about 6 MB to import) is needed.

    Its entries are distinct, so no graph symmetry leaves it invariant: an
    invariant start vector is orthogonal to every eigenvector that the
    symmetry makes odd, and Lanczos would never find those.
    """
    z = np.arange(n, dtype=np.uint64) + np.uint64(seed * n + 1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    v = 1.0 + (z ^ (z >> np.uint64(31))) / 2.0 ** 64
    return v / np.linalg.norm(v)


def _thick_restart_lanczos(
    matvec, n: int, k: int, floor: float = -np.inf
) -> tuple[np.ndarray, np.ndarray] | None:
    """The k largest eigenvalues of the symmetric n x n operator matvec
    (which maps each row of an array), descending, and orthonormal
    eigenvectors as columns; None if LANCZOS_MAX_RESTARTS restarts do not
    converge, or at the first restart whose k-th Ritz value is at most
    floor. Ritz values bound the largest eigenvalues from below, so a run
    whose k-th eigenvalue is at most floor always ends there, and one whose
    k-th eigenvalue is only a little above it may too.

    A band Lanczos basis V of ncv = max(2k + 1, 20 b) rows (ARPACK's
    default ncv for b = 1) grows from b = LANCZOS_BLOCK start vectors: the
    image of row j, projected twice off rows 0..j + b - 1, becomes row
    j + b, and the projection's coefficients fill row and column j of
    T = V M V^T. A Ritz pair has converged when its residual is at most
    machine epsilon, which is epsilon times the spectral radius of a
    normalized adjacency. A restart keeps the k + (ncv - k) // 2 largest
    Ritz vectors and the remainders of the last b images (Wu and Simon
    2000).

    A single start vector spans only one vector of each eigenspace, so it
    cannot find both copies of an eigenvalue that a graph symmetry
    doubles, as the rotations of a ring do; b start vectors find up to b.
    """
    ncv = min(n, max(2 * k + 1, 20 * LANCZOS_BLOCK))
    keep = k + (ncv - k) // 2
    b = min(LANCZOS_BLOCK, ncv - keep)
    eps = np.finfo(np.float64).eps
    V = np.empty((ncv, n))
    T = np.zeros((ncv, ncv))
    R = np.empty((b, n))  # the remainders of the last b rows' images
    seeds = itertools.count()

    def set_row(at, v):
        # v projected off V[:at], at unit norm. Where v lies in their span,
        # they span an invariant subspace, and the run goes on from the
        # next start vector, as ARPACK's does.
        w, _, before = _project_out(V[:at], v)
        while _in_span(norm := np.linalg.norm(w), before):
            w, _, before = _project_out(V[:at], _start_vector(n, next(seeds)))
        V[at] = w / norm

    for j in range(b):
        set_row(j, _start_vector(n, next(seeds)))
    start = 0
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for j in range(start, ncv, b):
            # The images of rows j..j + b - 1 are projected off the basis
            # together, each then off the rows made from those before it.
            size = min(j + b, ncv)
            X = matvec(V[j:j + b])
            H = X @ V[:size].T
            first = X - H @ V[:size]
            again = first @ V[:size].T
            X = first - again @ V[:size]
            H += again
            for r, x in enumerate(X):
                top = min(j + r + b, ncv)
                h = H[r]
                if top > size:  # rows made from this block's earlier images
                    x, more, _ = _project_out(V[size:top], x)
                    h = np.concatenate([h, more])
                norm = np.linalg.norm(x)
                spanned = False
                if _in_span(norm, np.linalg.norm(first[r])):
                    # What is left may still hold round-off in the basis's
                    # span: project it off the whole basis again and judge
                    # from that, as ARPACK refines.
                    x, again, before = _project_out(V[:top], x)
                    h = h + again
                    norm = np.linalg.norm(x)
                    spanned = _in_span(norm, before)
                T[j + r, :top] = T[:top, j + r] = h
                if top == ncv:
                    R[j + r + b - ncv] = x
                elif spanned:
                    set_row(top, _start_vector(n, next(seeds)))
                else:
                    V[top] = x / norm
        theta, S = np.linalg.eigh(T)
        residual = np.linalg.norm(R.T @ S[-b:, -k:], axis=0)
        if np.all(residual <= eps):
            return theta[:-k - 1:-1], V.T @ S[:, :-k - 1:-1]
        if theta[-k] <= floor:
            return None
        V[:keep] = S[:, -keep:].T @ V
        T[:] = 0.0
        T[:keep, :keep] = np.diag(theta[-keep:])
        for j, w in enumerate(R, start=keep):
            set_row(j, w)
        start = keep
    return None


def _project_out(V: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """w projected twice off the orthonormal rows of V; the coefficients
    V w of that projection; and the norm of w after the first."""
    h = V @ w
    w = w - h @ V
    before = np.linalg.norm(w)
    again = V @ w
    return w - again @ V, h + again, before


def _in_span(norm: float, before: float) -> bool:
    """Whether a vector, projected twice off an orthonormal basis to this
    norm, lay in its span up to round-off, as ARPACK judges it: when the
    second projection took away much of what the first left (`before`)."""
    return not norm > 0.717 * before


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
