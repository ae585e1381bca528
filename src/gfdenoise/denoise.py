"""Per-class low-pass filtering of labeled feature vectors.

Each class is filtered through a similarity graph over its own samples only:
the step low-pass filter is applied in the graph's eigenbasis (in closed
form on the complete graph), and the filtered rows replace the originals.

A class that takes the Lanczos path (see LANCZOS_MIN_ROWS) gets its kNN
graph from graphs.knn_graph_csr, built a block of rows at a time into a
sparse CsrGraph, so no m x m array is held. If Lanczos declines that graph,
the same graph is solved by a full eigendecomposition: a class has one graph.

Since a class never needs another class's rows, a file can be filtered a
batch of whole classes at a time; batch_ends plans those batches.
"""

import copy
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledFeatures, check_finite, class_index_map
from .errors import (
    ClassTooSmall,
    GfdError,
    InvalidK,
    InvalidRange,
    IsolatedVertex,
    NonFiniteValue,
    ZeroVector,
)
from .graphs import class_graph, knn_graph_csr
from .spectral import (
    apply_filter,
    eigendecompose,
    lowest_eigenpairs,
    normalized_laplacian,
    step_response,
)

GRAPH_KINDS = ("knn", "complete")

# A kNN class of m >= LANCZOS_MIN_ROWS rows whose filter passes
# k2 <= m / LANCZOS_ROWS_PER_PAIR frequencies is solved for only its k2
# lowest eigenpairs by spectral.lowest_eigenpairs instead of a dense eigh,
# and holds no m x m array. Measured with the Chebyshev-filtered solve on
# Gaussian classes (d = 128, mean 0.3, knn_k = 10, k1 = k2/2) on a 2-vCPU
# VM with 2 BLAS threads, best of 7, the whole denoise_class took, Lanczos
# against dense:
#   k2 = m/16: 23 / 24 ms at m = 384, 26 / 37 at 448, 29 / 50 at 512,
#              42 / 75 at 640, 64 / 111 at 800;
#   k2 = m/8:  27 / 21 ms at m = 384, 36 / 28 at 448, 34 / 44 at 512,
#              52 / 62 at 640, 74 / 105 at 800;
# traced peaks: 2.7/4.5 MiB at m = 384, 3.8/8.0 at 512, 6.1/19.6 at 800.
# So the filter moved the crossover at k2 = m/16 down to about 400 rows,
# and made k2 = m/8 faster from 512 rows up to 800. Both bounds stay as
# they were set for the unfiltered solve: k2 = m/8 was not measured above
# 800 rows, and no benchmark or CI class has 400-511 rows or
# m/16 < k2 <= m/8, so a lower bound would only move untested classes.
LANCZOS_MIN_ROWS = 512
LANCZOS_ROWS_PER_PAIR = 16

# A batch planned by batch_ends holds at least this many bytes of features,
# so that its classes are filtered back to back: filtering each class as
# soon as it was read was 21% slower on 200 classes of 50 rows, since each
# eigh call then had to wake the idle second OpenBLAS thread.
DENOISE_BATCH_BYTES = 1 << 20


class SmallClassWarning(UserWarning):
    """A class with fewer than 2 samples was passed through unfiltered."""


@dataclass(frozen=True)
class DenoiseConfig:
    """Graph construction and filter settings for one denoising run.

    knn_k:      neighbors kept per row when graph_kind == "knn"
    k1, k2:     step filter breakpoints (1-based frequency indices)
    mid_gain:   gain on frequencies k1 < i <= k2
    graph_kind: "knn" (cosine kNN graph) or "complete" (unit weights)
    """

    knn_k: int = 10
    k1: int = 1
    k2: int = 4
    mid_gain: float = 0.6
    graph_kind: str = "knn"

    def __post_init__(self):
        if self.knn_k < 1:
            raise InvalidK(f"knn_k must be >= 1, got {self.knn_k}")
        if not 1 <= self.k1 <= self.k2:
            raise InvalidRange(f"need 1 <= k1 <= k2, got k1={self.k1} k2={self.k2}")
        if not 0.0 <= self.mid_gain <= 1.0:
            raise InvalidRange(f"mid_gain must be in [0, 1], got {self.mid_gain}")
        if self.graph_kind not in GRAPH_KINDS:
            raise InvalidRange(
                f"graph_kind must be {' or '.join(GRAPH_KINDS)}, got {self.graph_kind!r}"
            )

    def for_class_size(self, m: int) -> "DenoiseConfig":
        """Effective config for a class of m samples: knn_k is clipped to
        m - 1 and the filter breakpoints to m."""
        return replace(
            self,
            knn_k=min(self.knn_k, max(m - 1, 1)),
            k1=min(self.k1, m),
            k2=min(self.k2, m),
        )


def denoise_class(F_c: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Filter one class's m x d feature block through its own graph, or
    each block of a (B, m, d) stack through its own graph.

    Row order is preserved. When the effective filter passes every frequency
    (k1 clipped to m), the input is returned unchanged without building a
    graph. Nor is one built for the complete graph: K_m's normalized Laplacian
    is 0 on the constant vector and m/(m-1) on the rest (Chung 1997), so with g
    the mean of the step gains 2..m, a row becomes the class mean plus g times
    its deviation from it. Large kNN graphs with few passed frequencies (see
    LANCZOS_MIN_ROWS) are built sparse and solved for only the eigenpairs the
    filter passes, or fully when Lanczos declines them; every other kNN graph
    is built dense and gets a full eigendecomposition. A row holding a NaN or
    infinity raises NonFiniteValue on every path, naming the row (within its
    block for a stack). A stack gives what its blocks give one at a time and
    raises exactly when some block would; the caller that knows the blocks
    locates the error.
    """
    F_c = np.asarray(F_c, dtype=np.float64)
    m = F_c.shape[-2]
    if m < 2:
        raise ClassTooSmall(f"need >= 2 samples, got {m}")
    check_finite(F_c)
    eff = cfg.for_class_size(m)
    if eff.k1 == m:
        return F_c.copy()
    if eff.graph_kind == "complete":
        mean = F_c.mean(axis=-2, keepdims=True)
        gain = ((eff.k1 - 1) + (eff.k2 - eff.k1) * eff.mid_gain) / (m - 1)
        return mean + gain * (F_c - mean)
    if F_c.ndim == 2 and m >= LANCZOS_MIN_ROWS and LANCZOS_ROWS_PER_PAIR * eff.k2 <= m:
        W = knn_graph_csr(F_c, eff.knn_k)
        basis = lowest_eigenpairs(W, eff.k2) or eigendecompose(normalized_laplacian(W.toarray()))
    else:
        basis = eigendecompose(normalized_laplacian(class_graph(F_c, eff.graph_kind, eff.knn_k)))
    gains = step_response(eff.k1, eff.k2, eff.mid_gain, basis.eigenvalues.shape[-1])
    return apply_filter(basis, gains, F_c)


def denoise_or_pass(F: np.ndarray, cfg: DenoiseConfig, name: str) -> np.ndarray:
    """denoise_class, except that classes of fewer than 2 rows are passed
    through unfiltered with one SmallClassWarning naming them, so 1-shot
    support sets remain usable. A row holding a NaN or infinity raises
    NonFiniteValue, as denoise_class does, also in such a class."""
    if F.shape[-2] < 2:
        check_finite(F)
        warnings.warn(
            f"{name} has fewer than 2 samples; passed through unfiltered",
            SmallClassWarning,
            stacklevel=3,
        )
        return F.copy()
    return denoise_class(F, cfg)


def denoise_dataset(
    data: LabeledFeatures,
    cfg: DenoiseConfig,
    out: np.ndarray | None = None,
    row_name: Callable[[int], str] = "row {}".format,
) -> LabeledFeatures:
    """Apply denoise_class independently to every class of a dataset.

    Labels and row order are unchanged. Classes with a single sample are
    passed through unfiltered (see denoise_or_pass) instead of failing.

    Each class's filtered rows are written into `out`, an n x d float64
    array that the result wraps: a fresh array by default, so `data` is
    left as it was. `out=data.features` filters the dataset in place and
    holds no second copy of it; every class is read before its rows are
    overwritten, since denoise_or_pass returns a new array. A class whose
    rows are contiguous is read through a slice view, any other through a
    gather.

    When a class fails, a copy of its typed error is raised whose message
    names the class and, for an error at one of its rows (ZeroVector,
    IsolatedVertex, NonFiniteValue), that row as row_name(its index in data)
    names it; the copy's `index` (`row` for NonFiniteValue) is that index and
    its `label` the class's. `out` is then left partly written: the classes
    before it in label order are written, the rest are not.
    """
    if out is None:
        out = np.empty_like(data.features)
    for label, idx in class_index_map(data.labels).items():
        rows = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx
        try:
            out[rows] = denoise_or_pass(data.features[rows], cfg, f"class {label!r}")
        except GfdError as exc:
            located = copy.copy(exc)
            located.label = label
            if isinstance(exc, (ZeroVector, IsolatedVertex, NonFiniteValue)):
                field = "row" if isinstance(exc, NonFiniteValue) else "index"
                row = int(idx[getattr(exc, field)])
                setattr(located, field, row)
                located.args = (f"class {label!r}, {row_name(row)}: {exc.reason}",)
            else:
                located.args = (f"class {label!r}: {exc}",)
            raise located from exc
    return LabeledFeatures(features=out, labels=data.labels.copy())


def batch_ends(labels: np.ndarray, d: int) -> list[int]:
    """Cut rows with these labels into batches of whole classes: the end
    (exclusive row index) of each batch, the last being the row count.

    A batch ends only after a row that closes every class seen so far,
    where the latest last row of those classes is the row itself, and
    holds at least DENOISE_BATCH_BYTES of d-wide float64 features unless
    it is the last. Classes stored in contiguous runs give many batches;
    interleaved classes give one."""
    n = len(labels)
    if n == 0:
        return []
    _, inverse = np.unique(np.asarray(labels, dtype=np.str_), return_inverse=True)
    last = np.zeros(inverse.max() + 1, dtype=np.intp)
    np.maximum.at(last, inverse, np.arange(n))
    closes = np.flatnonzero(np.maximum.accumulate(last[inverse]) == np.arange(n)) + 1
    min_rows = -(-DENOISE_BATCH_BYTES // max(8 * d, 1))
    ends = []
    for end in closes.tolist():
        if end - (ends[-1] if ends else 0) >= min_rows:
            ends.append(end)
    if not ends or ends[-1] < n:
        ends.append(n)
    return ends
