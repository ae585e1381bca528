"""Statistical verification of centroid behavior under low-pass filtering.

For i.i.d. isotropic Gaussian class features, the ideal rank-k low-pass
filter has closed-form effects on the class centroid that can be checked
against Monte Carlo simulation. `analytic_centroid_factors` returns the
closed-form scaling factors derived with the complete graph's constant
eigenvector taken as 1/sqrt(m-1) per entry; the simulation filters through
denoise_class, whose complete-graph filter keeps the centroid exactly (its
constant eigenvector is unit-norm, entries 1/sqrt(m)), so the two are
reported side by side rather than asserted equal.

A simulation of one class size draws every trial from one random stream
seeded by its seed: trial t is the stream's t-th m x d block, whatever
the chunks the trials are simulated in.
"""

from dataclasses import dataclass

import numpy as np

from .denoise import DenoiseConfig, denoise_class
from .episodes import EPISODE_CHUNK_BYTES
from .errors import InvalidRange, InvalidSize
# Unused here, but perfbench/layertrace.py traces these names in this module.
from .graphs import class_graph  # noqa: F401
from .spectral import apply_filter, eigendecompose, normalized_laplacian  # noqa: F401


@dataclass(frozen=True)
class GaussianClassSpec:
    """One class of m samples drawn i.i.d. from N(mu, sigma^2 I_d)."""

    mu: np.ndarray
    sigma: float
    m: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        if self.d < 1:
            raise InvalidSize(f"need d >= 1 feature dimensions, got {self.d}")
        if self.mu.shape != (self.d,):
            raise InvalidSize(f"mu must have shape ({self.d},), got {self.mu.shape}")
        if self.sigma <= 0.0:
            raise InvalidSize(f"sigma must be positive, got {self.sigma}")
        if self.m < 2:
            raise InvalidSize(f"need m >= 2 samples, got {self.m}")


@dataclass(frozen=True)
class CentroidStats:
    """Empirical moments aggregated over Monte Carlo trials.

    mean_est is the per-coordinate average of the class centroid across
    trials. cov_trace_est is the trace of the empirical covariance of the
    individual feature rows pooled over all trials; for the filtered arm
    this tracks how tightly the filter concentrates samples around the
    class mean (for a complete graph with k=1 the filtered rows collapse
    onto the centroid, so it equals the centroid covariance trace).
    """

    mean_est: np.ndarray
    cov_trace_est: float
    trials: int


def sample_gaussian_class(spec: GaussianClassSpec, seed) -> np.ndarray:
    """Draw the m x d feature block; deterministic given the seed. It is
    trial 0 of monte_carlo_centroid_stats(spec, ..., seed=seed)."""
    return _draw_trials(spec, np.random.default_rng(seed), 1)[0]


def _draw_trials(spec: GaussianClassSpec, rng, count: int) -> np.ndarray:
    """The (count, m, d) feature blocks of the next count trials of rng's
    stream: block t holds the stream's next m * d normals after those of
    block t - 1, so drawing a run of trials at once or in pieces gives the
    same blocks."""
    block = np.empty((count, spec.m, spec.d))
    rng.standard_normal(out=block)
    # In place, and equal to mu + sigma * z: IEEE products and sums commute.
    block *= spec.sigma
    block += spec.mu
    return block


def analytic_centroid_factors(m: int) -> tuple[float, float]:
    """Closed-form (mean_factor, cov_factor) for the k=1 low-pass on a
    complete graph of m vertices, derived with the constant eigenvector
    normalized to entries 1/sqrt(m-1): mean factor 1/(1 - 1/m), covariance
    factor 1/(m (1 - 1/m)^2).

    With the unit-norm eigenvector (entries 1/sqrt(m)) the measured mean
    factor is exactly 1; verify-theory reports both without reconciling
    them. As m grows the factors tend to (1, 0).
    """
    if m < 2:
        raise InvalidSize(f"need m >= 2, got {m}")
    shrink = 1.0 - 1.0 / m
    return 1.0 / shrink, 1.0 / (m * shrink**2)


def monte_carlo_centroid_stats(
    spec: GaussianClassSpec,
    graph_kind: str = "complete",
    k: int = 1,
    trials: int = 10_000,
    seed: int = 0,
    knn_k: int | None = None,
) -> tuple[CentroidStats, CentroidStats]:
    """Simulate the class many times and aggregate raw vs filtered moments.

    Per trial: draw the features, apply the ideal rank-k low-pass by
    denoise_class, and accumulate both the raw and the filtered rows.
    All trials draw from one stream, np.random.default_rng(seed): trial t
    is its t-th consecutive m x d block, so trial 0 is
    sample_gaussian_class(spec, seed). Returns (raw, filtered) stats;
    callers should use >= 100 trials for meaningful estimates.

    Trials are simulated a chunk at a time (see EPISODE_CHUNK_BYTES, which
    counts a chunk's feature rows and, for a kNN graph, its m x m graphs;
    a chunk holds at least one trial): the chunk's blocks are drawn into
    one stack, which is filtered by one denoise_class call and reduced to
    per-trial sums. A chunk's blocks are the stream's next blocks, and the
    sums are added to the totals one trial after another, so the stats do
    not depend on the chunk size and are bit-identical to a loop over
    single trials.
    """
    if not 1 <= k <= spec.m:
        raise InvalidRange(f"need 1 <= k <= m, got k={k} m={spec.m}")
    if trials < 2:
        raise InvalidSize(f"need at least 2 trials, got {trials}")
    if knn_k is None:
        knn_k = spec.m - 1
    m, d = spec.m, spec.d
    cfg = DenoiseConfig(knn_k, k, k, 0.0, graph_kind)
    trial_bytes = 8 * m * (d + m if graph_kind == "knn" else d)
    chunk = max(1, EPISODE_CHUNK_BYTES // trial_bytes)

    rng = np.random.default_rng(seed)
    # totals[0] holds the sums and totals[1] the sums of squares, each of
    # the raw arm then the filtered arm: (2, 2, 1, d).
    totals = np.zeros((2, 2, 1, d))
    for start in range(0, trials, chunk):
        F = _draw_trials(spec, rng, min(chunk, trials - start))
        arms = np.stack([F, denoise_class(F, cfg)])
        parts = np.stack([arms.sum(axis=2), (arms**2).sum(axis=2)])
        # A reduction over the trial axis may sum pairwise; cumsum adds the
        # trials to the totals one after another, as a per-trial loop does.
        totals = np.cumsum(np.concatenate([totals, parts], axis=2), axis=2)[:, :, -1:]

    sums, sumsq = totals[:, :, 0]
    count = trials * m
    means = sums / count
    traces = (sumsq - count * means**2).sum(axis=1) / (count - 1)
    raw = CentroidStats(mean_est=means[0], cov_trace_est=float(traces[0]), trials=trials)
    filtered = CentroidStats(mean_est=means[1], cov_trace_est=float(traces[1]), trials=trials)
    return raw, filtered
