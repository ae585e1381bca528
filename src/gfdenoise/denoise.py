"""Per-class low-pass filtering of labeled feature vectors.

For each class, a similarity graph is built over that class's samples
only, the step low-pass filter is applied in the graph's eigenbasis, and
the filtered rows replace the originals. Classes never share a graph.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledFeatures, class_index_map
from .errors import ClassTooSmall, GfdError, InvalidK, InvalidRange
from .graphs import class_graph
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
# lowest eigenpairs by sparse Lanczos instead of a dense eigh. Measured on
# Gaussian classes (d = 128, knn_k = 10) on a 2-vCPU VM with 2 BLAS
# threads, Lanczos was 1.5-2.5x faster than dense eigh at k2 = m/16 for
# m = 384..2400, about even at k2 = m/10, and 3-6x slower at k2 = m/4.
# The complete graph repeats one eigenvalue m - 1 times, which
# single-vector Lanczos cannot resolve, so it always takes the dense path.
LANCZOS_MIN_ROWS = 512
LANCZOS_ROWS_PER_PAIR = 16


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
            raise InvalidRange(f"graph_kind must be one of {GRAPH_KINDS}")

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

    Row order is preserved. When the effective filter passes every
    frequency (k1 clipped to m), the input is returned unchanged without
    building a graph. Large connected kNN graphs with few passed frequencies
    (see LANCZOS_MIN_ROWS) are solved for only the eigenpairs the filter
    passes; every other graph, and every stack, gets a full dense
    eigendecomposition. A stack gives, and raises, what its blocks give
    one at a time: when it fails, the error is the first failing block's.
    """
    F_c = np.asarray(F_c, dtype=np.float64)
    m = F_c.shape[-2]
    if m < 2:
        raise ClassTooSmall(f"need >= 2 samples, got {m}")
    eff = cfg.for_class_size(m)
    if eff.k1 == m:
        return F_c.copy()
    try:
        return _filter(F_c, eff)
    except GfdError:
        if F_c.ndim == 2:
            raise
        for block in F_c:
            _filter(block, eff)
        raise


def _filter(F_c: np.ndarray, eff: DenoiseConfig) -> np.ndarray:
    """denoise_class's filter for a config already clipped to the class size."""
    m = F_c.shape[-2]
    W = class_graph(F_c, eff.graph_kind, eff.knn_k)
    basis = None
    if (
        F_c.ndim == 2 and eff.graph_kind == "knn"
        and m >= LANCZOS_MIN_ROWS and LANCZOS_ROWS_PER_PAIR * eff.k2 <= m
    ):
        basis = lowest_eigenpairs(W, eff.k2)
    if basis is None:
        basis = eigendecompose(normalized_laplacian(W))
    gains = step_response(eff.k1, eff.k2, eff.mid_gain, basis.eigenvalues.shape[-1])
    return apply_filter(basis, gains, F_c)


def denoise_or_pass(F: np.ndarray, cfg: DenoiseConfig, name: str) -> np.ndarray:
    """denoise_class, except that classes of fewer than 2 rows are passed
    through unfiltered with one SmallClassWarning naming them, so 1-shot
    support sets remain usable."""
    if F.shape[-2] < 2:
        warnings.warn(
            f"{name} has fewer than 2 samples; passed through unfiltered",
            SmallClassWarning,
            stacklevel=3,
        )
        return F.copy()
    return denoise_class(F, cfg)


def denoise_dataset(data: LabeledFeatures, cfg: DenoiseConfig) -> LabeledFeatures:
    """Apply denoise_class independently to every class of a dataset.

    Labels and row order are unchanged. Classes with a single sample are
    passed through unfiltered (see denoise_or_pass) instead of failing.
    """
    out = data.features.copy()
    for label, idx in class_index_map(data.labels).items():
        out[idx] = denoise_or_pass(data.features[idx], cfg, f"class {label!r}")
    return LabeledFeatures(features=out, labels=data.labels.copy())
