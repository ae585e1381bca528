"""Centroid statistics: closed-form weights vs Monte Carlo estimates."""

import numpy as np
import pytest
from reference import draw_gaussian_class, per_trial_centroid_stats

from gfdenoise import centroids
from gfdenoise.centroids import (
    CentroidStats,
    GaussianClassSpec,
    analytic_centroid_factors,
    monte_carlo_centroid_stats,
    sample_gaussian_class,
)
from gfdenoise.denoise import denoise_class
from gfdenoise.episodes import EPISODE_CHUNK_BYTES
from gfdenoise.errors import InvalidRange, InvalidSize
from gfdenoise.graphs import clamp_negative_edges, complete_graph, cosine_similarity, knn_sparsify
from gfdenoise.spectral import apply_filter, eigendecompose, normalized_laplacian, step_response


def complete_basis(m):
    return eigendecompose(normalized_laplacian(complete_graph(m)))


def spec_of(m, d, mu=0.0, sigma=1.0):
    return GaussianClassSpec(mu=np.full(d, float(mu)), sigma=sigma, m=m, d=d)


def lowpass_centroid(F, k):
    """Centroid of F after the ideal rank-k low-pass on the complete graph."""
    m = F.shape[0]
    return apply_filter(complete_basis(m), step_response(k, k, 0.0, m), F).mean(axis=0)


class TestSampling:
    def test_tiny_sigma_collapses_to_mu(self):
        spec = GaussianClassSpec(mu=np.array([2.0, -1.0]), sigma=1e-12, m=5, d=2)
        F = sample_gaussian_class(spec, seed=0)
        np.testing.assert_allclose(F, np.tile(spec.mu, (5, 1)), atol=1e-10)

    def test_deterministic_per_seed(self):
        spec = spec_of(10, 4)
        assert np.array_equal(
            sample_gaussian_class(spec, seed=7), sample_gaussian_class(spec, seed=7)
        )
        assert not np.array_equal(
            sample_gaussian_class(spec, seed=7), sample_gaussian_class(spec, seed=8)
        )

    def test_sample_mean_near_mu(self):
        spec = spec_of(10000, 4, mu=1.5)
        F = sample_gaussian_class(spec, seed=1)
        assert np.all(np.abs(F.mean(axis=0) - 1.5) <= 4.0 / np.sqrt(10000))

    def test_spec_validation(self):
        with pytest.raises(InvalidSize):
            GaussianClassSpec(mu=np.zeros(3), sigma=0.0, m=5, d=3)
        with pytest.raises(InvalidSize):
            GaussianClassSpec(mu=np.zeros(3), sigma=1.0, m=1, d=3)
        with pytest.raises(InvalidSize):
            GaussianClassSpec(mu=np.zeros(2), sigma=1.0, m=5, d=3)
        with pytest.raises(InvalidSize):
            GaussianClassSpec(mu=np.zeros(0), sigma=1.0, m=5, d=0)


class TestCentroids:
    def test_full_filter_preserves_centroid(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((6, 3))
        np.testing.assert_allclose(lowpass_centroid(F, k=6), F.mean(axis=0), atol=1e-10)

    def test_rank1_on_complete_graph_is_exact_centroid(self):
        # The constant unit eigenvector makes the rank-1 filtered centroid
        # equal the raw centroid.
        rng = np.random.default_rng(3)
        F = rng.standard_normal((8, 5))
        np.testing.assert_allclose(lowpass_centroid(F, k=1), F.mean(axis=0), atol=1e-12)

    def test_zero_features(self):
        np.testing.assert_allclose(lowpass_centroid(np.zeros((4, 2)), k=2), np.zeros(2))


class TestLowpassWeights:
    """The rank-k low-pass projector U_k U_k^T and the squared column sums
    (1^T u_j)^2 that weight the filtered centroid; the verify-theory report
    rests on the complete graph's unit constant eigenvector."""

    def test_full_basis_mean_weight_is_parseval_one(self):
        # sum_j (1^T u_j)^2 = |U^T 1|^2 = |1|^2 = m for an orthonormal basis.
        rng = np.random.default_rng(4)
        W = clamp_negative_edges(knn_sparsify(cosine_similarity(rng.standard_normal((9, 4))), 3))
        bases = [complete_basis(m) for m in (2, 5, 17)] + [eigendecompose(normalized_laplacian(W))]
        for basis in bases:
            weight = np.sum(basis.eigenvectors.sum(axis=0) ** 2) / basis.n
            assert weight == pytest.approx(1.0, abs=1e-10)

    def test_complete_graph_rank1_weight_is_one(self):
        # (1^T u_1)^2 = m for the unit constant eigenvector.
        assert complete_basis(6).eigenvectors[:, 0].sum() ** 2 / 6 == pytest.approx(1.0, abs=1e-12)

    def test_cov_weights_rank1_complete(self):
        # P = (1/m) * all-ones, so every column sums to 1.
        u1 = complete_basis(7).eigenvectors[:, :1]
        np.testing.assert_allclose(u1 @ u1.T, np.full((7, 7), 1.0 / 7), atol=1e-12)

    def test_projector_idempotence(self):
        basis = complete_basis(9)
        for k in (1, 4, 9):
            Uk = basis.eigenvectors[:, :k]
            P = Uk @ Uk.T
            np.testing.assert_allclose(P @ P, P, atol=1e-9)


class TestAnalyticFactors:
    def test_m2(self):
        assert analytic_centroid_factors(2) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_m5(self):
        mean_factor, cov_factor = analytic_centroid_factors(5)
        assert mean_factor == pytest.approx(1.25)
        assert cov_factor == pytest.approx(0.3125)

    def test_limits(self):
        mean_factor, cov_factor = analytic_centroid_factors(10**6)
        assert mean_factor == pytest.approx(1.0, abs=1e-5)
        assert cov_factor == pytest.approx(0.0, abs=1e-5)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            analytic_centroid_factors(1)


class TestMonteCarlo:
    def test_full_filter_equals_raw_stats(self):
        raw, filt = monte_carlo_centroid_stats(
            spec_of(6, 4, mu=1.0), "complete", k=6, trials=200, seed=0
        )
        np.testing.assert_allclose(filt.mean_est, raw.mean_est, atol=1e-10)
        assert filt.cov_trace_est == pytest.approx(raw.cov_trace_est, abs=1e-10)

    def test_tiny_sigma_degenerates(self):
        raw, filt = monte_carlo_centroid_stats(
            spec_of(5, 3, mu=2.0, sigma=1e-9), "complete", k=1, trials=200, seed=1
        )
        np.testing.assert_allclose(raw.mean_est, np.full(3, 2.0), atol=1e-6)
        np.testing.assert_allclose(filt.mean_est, np.full(3, 2.0), atol=1e-6)
        assert raw.cov_trace_est <= 1e-12 and filt.cov_trace_est <= 1e-12

    def test_rank1_complete_ratio_near_1_over_m(self):
        m = 50
        raw, filt = monte_carlo_centroid_stats(
            spec_of(m, 8), "complete", k=1, trials=2000, seed=2
        )
        assert np.all(np.abs(filt.mean_est) <= 4.0 / np.sqrt(m * 2000))
        assert filt.cov_trace_est / raw.cov_trace_est == pytest.approx(1.0 / m, rel=0.20)

    def test_covariance_ratio_holds_at_large_mu(self):
        """Deviations from mu are squared, not the values, so a mean of 1e7
        sigmas leaves the covariance ratio as a mean of 0 gives it; summed
        squares of the values gave 0.155 here instead of 0.197."""
        ratios = []
        for mu in (0.0, 1e7):
            raw, filt = monte_carlo_centroid_stats(
                spec_of(5, 8, mu=mu), "complete", k=1, trials=2000, seed=1
            )
            ratios.append(filt.cov_trace_est / raw.cov_trace_est)
        assert abs(ratios[1] - ratios[0]) <= 1e-6

    def test_seed_reproducibility(self):
        a = monte_carlo_centroid_stats(spec_of(5, 3), "complete", 1, trials=150, seed=3)
        b = monte_carlo_centroid_stats(spec_of(5, 3), "complete", 1, trials=150, seed=3)
        assert np.array_equal(a[0].mean_est, b[0].mean_est)
        assert a[1].cov_trace_est == b[1].cov_trace_est

    def test_knn_graph_kind_runs(self):
        raw, filt = monte_carlo_centroid_stats(
            spec_of(6, 4, mu=1.0), "knn", k=2, trials=120, seed=4
        )
        assert isinstance(raw, CentroidStats) and isinstance(filt, CentroidStats)
        assert filt.cov_trace_est < raw.cov_trace_est

    def test_mean_preserved_with_shrinking_error(self):
        errors = []
        for m in (5, 20, 100):
            raw, filt = monte_carlo_centroid_stats(
                spec_of(m, 4, mu=1.0), "complete", k=1, trials=1000, seed=5
            )
            errors.append(np.abs(filt.mean_est - 1.0).max())
            assert np.all(np.abs(filt.mean_est - 1.0) <= 4.0 / np.sqrt(m * 1000))
        assert errors[2] < errors[0]

    def test_ratio_decreases_in_m(self):
        ratios = []
        for m in (5, 20, 100):
            raw, filt = monte_carlo_centroid_stats(
                spec_of(m, 4), "complete", k=1, trials=500, seed=6
            )
            ratios.append(filt.cov_trace_est / raw.cov_trace_est)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_invalid_arguments(self):
        with pytest.raises(InvalidRange):
            monte_carlo_centroid_stats(spec_of(5, 3), "complete", k=6, trials=100)
        with pytest.raises(InvalidSize):
            monte_carlo_centroid_stats(spec_of(5, 3), "complete", k=1, trials=1)


# The grid of the differential tests: graph kind, m, d and k in {1, m}.
ENGINE_GRID = [
    (graph, m, d, k)
    for graph in ("complete", "knn")
    for m in (2, 3, 5, 20)
    for d in (1, 2, 8)
    for k in sorted({1, m})
]
# Trial counts of the grid, relative to a chunk of SMALL_CHUNK trials: more
# than 8, so that a pairwise sum over a chunk's trials would differ from
# adding them one after another.
SMALL_CHUNK = 9
TRIAL_COUNTS = {
    "two": 2,
    "below_chunk": SMALL_CHUNK - 1,
    "three_chunks_and_one": 3 * SMALL_CHUNK + 1,
}


def trial_bytes(graph, m, d):
    """What a trial counts against the chunk budget: its feature rows and,
    for a kNN graph, its m x m graph."""
    return 8 * m * (d + (m if graph == "knn" else 0))


def default_chunk(graph, m, d):
    return max(1, EPISODE_CHUNK_BYTES // trial_bytes(graph, m, d))


def check_against_per_trial_loop(graph, m, d, k, trials, knn_k=None):
    spec = spec_of(m, d, mu=1.0, sigma=1.5)
    seed = 17 * m + d
    got = monte_carlo_centroid_stats(spec, graph, k, trials, seed=seed, knn_k=knn_k)
    expected = per_trial_centroid_stats(spec, graph, k, trials, seed=seed, knn_k=knn_k)
    for stats, want in zip(got, expected):
        assert stats.mean_est.tobytes() == want.mean_est.tobytes()
        assert stats.cov_trace_est == want.cov_trace_est
        assert stats.trials == trials


class TestChunkedEngine:
    """monte_carlo_centroid_stats against the per-trial loop it replaced."""

    @pytest.mark.parametrize("budget", ["default", "small_chunks", "one_trial"])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS.values(), ids=TRIAL_COUNTS)
    @pytest.mark.parametrize("graph,m,d,k", ENGINE_GRID)
    def test_bit_equal_to_per_trial_loop(self, monkeypatch, graph, m, d, k, trials, budget):
        """At the default budget every count fits one chunk; small_chunks
        cuts them into chunks of SMALL_CHUNK trials, one_trial into single
        trials. kNN keeps about half of each row, so the partition, ties
        (d = 1) and clamped edges are exercised."""
        chunk_bytes = {"small_chunks": SMALL_CHUNK * trial_bytes(graph, m, d), "one_trial": 1}
        if budget in chunk_bytes:
            monkeypatch.setattr(centroids, "EPISODE_CHUNK_BYTES", chunk_bytes[budget])
        check_against_per_trial_loop(graph, m, d, k, trials, knn_k=max(1, m // 2))

    @pytest.mark.parametrize("at", ["below_chunk", "three_chunks_and_one"])
    @pytest.mark.parametrize(
        "graph,m,d", [("complete", 5, 8), ("complete", 20, 8), ("complete", 100, 8), ("knn", 20, 8)]
    )
    def test_default_chunks(self, graph, m, d, at):
        """Whole chunks of the default budget, on the benchmark's shapes."""
        chunk = default_chunk(graph, m, d)
        trials = chunk - 1 if at == "below_chunk" else 3 * chunk + 1
        check_against_per_trial_loop(graph, m, d, 1, trials)

    @pytest.mark.parametrize("pieces", [[6], [1, 2, 3], [1] * 6])
    def test_a_chunk_is_its_trials_drawn_block_by_block(self, pieces):
        """Drawing trials at once, in pieces or one at a time from one stream
        gives the same blocks, each the stream's next m * d normals."""
        spec = spec_of(5, 3, mu=-2.0, sigma=0.5)
        whole = centroids._draw_trials(spec, np.random.default_rng(8), 6)
        assert whole.shape == (6, 5, 3)
        rng = np.random.default_rng(8)
        pieced = np.concatenate([centroids._draw_trials(spec, rng, n) for n in pieces])
        assert pieced.tobytes() == whole.tobytes()
        rng = np.random.default_rng(8)
        for rows in whole:
            assert rows.tobytes() == draw_gaussian_class(spec, rng).tobytes()

    @pytest.mark.parametrize("seed", [0, 8, 2**40])
    def test_trial_0_is_sample_gaussian_class(self, seed):
        spec = spec_of(5, 3, mu=-2.0, sigma=0.5)
        first = centroids._draw_trials(spec, np.random.default_rng(seed), 4)[0]
        assert first.tobytes() == sample_gaussian_class(spec, seed).tobytes()
        assert first.tobytes() == draw_gaussian_class(spec, seed).tobytes()

    @pytest.mark.parametrize("graph,m,d", [("complete", 5, 8), ("knn", 100, 8), ("knn", 200, 1)])
    def test_chunks_fit_the_budget(self, monkeypatch, graph, m, d):
        """Each denoise_class call gets as many trials as fit in the budget
        (rows, and m x m graphs for kNN), and at least one."""
        stacks = []

        def recording_filter(F, cfg):
            stacks.append(F.shape[0])
            return denoise_class(F, cfg)

        monkeypatch.setattr(centroids, "denoise_class", recording_filter)
        chunk = default_chunk(graph, m, d)
        monte_carlo_centroid_stats(spec_of(m, d), graph, 1, 2 * chunk + 1, seed=0)
        assert stacks == [chunk, chunk, 1]
        assert chunk == 1 or chunk * trial_bytes(graph, m, d) <= EPISODE_CHUNK_BYTES
