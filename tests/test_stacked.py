"""Stacked graph, spectral and classifier functions against per-slice calls.

Each function that acts on the last two axes must give, for a stack, what
its slices give one at a time, bit for bit; when a slice is invalid, the
stack raises the first invalid slice's error, with the same message and
row index.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import outcome

from gfdenoise.classify import pairwise_distances
from gfdenoise.denoise import DenoiseConfig, denoise_class
from gfdenoise.errors import GfdError
from gfdenoise.graphs import (
    clamp_negative_edges,
    class_graph,
    complete_graph,
    cosine_similarity,
    knn_sparsify,
)
from gfdenoise.spectral import apply_filter, eigendecompose, normalized_laplacian, step_response


def assert_same(stacked, sliced):
    if isinstance(sliced, tuple):
        assert stacked == sliced
        return
    assert not isinstance(stacked, tuple), stacked
    assert stacked.shape == sliced.shape
    assert np.array_equal(stacked, sliced)
    assert np.array_equal(np.signbit(stacked), np.signbit(sliced))


def check_slices(f, X, *args):
    """f on the stack X against f on each slice of X, stacked."""
    assert_same(
        outcome(lambda: f(X, *args)),
        outcome(lambda: np.stack([f(x, *args) for x in X])),
    )


@st.composite
def tied_stacks(draw):
    """(B, n, n) stacks of symmetric matrices over a few values, so rows are
    full of ties, some blocks have only negative or zero off-diagonal
    entries (edges to restore), and some have none at all (isolated
    vertices)."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(2, 9))
    values = draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
                           min_size=1, max_size=4, unique=True))
    V = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(values, size=(b, n, n))
    S = np.where(np.arange(n)[:, None] < np.arange(n), V, np.swapaxes(V, -1, -2))
    S[:, np.arange(n), np.arange(n)] = 0.0
    return S


@st.composite
def feature_stacks(draw):
    """(B, m, d) stacks of small-integer features: repeated, antipodal,
    orthogonal and zero rows all occur."""
    b = draw(st.integers(1, 6))
    m = draw(st.integers(2, 8))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(-1, 2, size=(b, m, d)).astype(np.float64)


class TestGraphLayers:
    @settings(max_examples=150, deadline=None)
    @given(feature_stacks())
    def test_cosine_similarity(self, F):
        check_slices(cosine_similarity, F)

    @settings(max_examples=150, deadline=None)
    @given(tied_stacks())
    def test_knn_sparsify_every_k(self, S):
        # k < n - 1 takes the partition threshold, tie and union path;
        # k = n - 1 keeps the complete graph.
        for k in range(0, S.shape[-1] + 1):
            check_slices(knn_sparsify, S, k)

    @settings(max_examples=150, deadline=None)
    @given(tied_stacks(), st.integers(1, 8))
    def test_clamp_negative_edges(self, S, k):
        W = knn_sparsify(S, min(k, S.shape[-1] - 1))
        check_slices(clamp_negative_edges, W)

    def test_clamp_restores_edges_per_block(self):
        W = np.stack([
            np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.3], [0.2, 0.3, 0.0]]),
            np.array([[0.0, -0.2, -0.7], [-0.2, 0.0, 0.4], [-0.7, 0.4, 0.0]]),
            -0.5 * (np.ones((3, 3)) - np.eye(3)),
        ])
        out = clamp_negative_edges(W)
        assert np.count_nonzero(out == 1e-6) == 2 + 4
        check_slices(clamp_negative_edges, W)

    def test_complete_graph_is_shared_by_a_stack(self):
        F = np.random.default_rng(0).standard_normal((4, 6, 3))
        assert np.array_equal(class_graph(F, "complete", 2), complete_graph(6))


class TestSpectralLayers:
    @settings(max_examples=150, deadline=None)
    @given(tied_stacks(), st.integers(1, 8))
    def test_normalized_laplacian(self, S, k):
        # Blocks whose kept edges are all exactly zero raise IsolatedVertex.
        W = clamp_negative_edges(knn_sparsify(S, min(k, S.shape[-1] - 1)))
        check_slices(normalized_laplacian, W)

    def test_isolated_vertex_names_its_row_in_its_block(self):
        W = np.stack([complete_graph(4)] * 3)
        W[2, 1, :] = W[2, :, 1] = 0.0
        W[1, 3, :] = W[1, :, 3] = 0.0
        with pytest.raises(GfdError, match="vertex 3 has zero degree"):
            normalized_laplacian(W)
        check_slices(normalized_laplacian, W)

    @settings(max_examples=100, deadline=None)
    @given(feature_stacks(), st.integers(1, 8), st.sampled_from(["knn", "complete"]))
    def test_eigendecompose_and_apply_filter(self, F, k, graph):
        F = F + 0.5  # no zero rows
        W = class_graph(F, graph, min(k, F.shape[-2] - 1))
        if W.ndim == 2:
            W = np.broadcast_to(W, (F.shape[0],) + W.shape)
        L = outcome(lambda: normalized_laplacian(W))
        if isinstance(L, tuple):
            return
        stacked = eigendecompose(L)
        sliced = [eigendecompose(x) for x in L]
        assert_same(stacked.eigenvalues, np.stack([b.eigenvalues for b in sliced]))
        assert_same(stacked.eigenvectors, np.stack([b.eigenvectors for b in sliced]))
        assert stacked.n == F.shape[-2]
        m = F.shape[-2]
        gains = step_response(1, min(3, m), 0.6, m)
        assert_same(
            apply_filter(stacked, gains, F),
            np.stack([apply_filter(b, gains, x) for b, x in zip(sliced, F)]),
        )
        # One basis shared by every block of the stack.
        assert_same(
            apply_filter(sliced[0], gains, F),
            np.stack([apply_filter(sliced[0], gains, x) for x in F]),
        )


class TestPairwiseDistances:
    @settings(max_examples=100, deadline=None)
    @given(feature_stacks(), feature_stacks(), st.sampled_from(["cosine", "euclidean"]))
    def test_matches_per_slice(self, A, B, metric):
        b, d = min(A.shape[0], B.shape[0]), min(A.shape[-1], B.shape[-1])
        A, B = A[:b, :, :d], B[:b, :, :d]
        assert_same(
            pairwise_distances(A, B, metric),
            np.stack([pairwise_distances(x, y, metric) for x, y in zip(A, B)]),
        )


class TestDenoiseClassStack:
    @settings(max_examples=150, deadline=None)
    @given(feature_stacks(), st.integers(1, 8), st.integers(1, 3), st.integers(1, 8),
           st.sampled_from(["knn", "complete"]))
    def test_matches_per_block_with_errors(self, F, knn_k, k1, k2, graph):
        # Zero rows raise ZeroVector and all-orthogonal blocks raise
        # IsolatedVertex; the stack must raise what its first failing block
        # raises alone.
        cfg = DenoiseConfig(knn_k=knn_k, k1=k1, k2=max(k1, k2), graph_kind=graph)
        check_slices(denoise_class, F, cfg)

    def test_first_failing_block_wins_across_error_types(self):
        # Block 0 has an isolated vertex (rows orthogonal to every other),
        # block 1 a zero row: one block at a time raises IsolatedVertex first.
        F = np.stack([
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),
        ])
        cfg = DenoiseConfig(knn_k=1, k1=1, k2=2)
        stacked = outcome(lambda: denoise_class(F, cfg))
        assert stacked[0].__name__ == "IsolatedVertex"
        check_slices(denoise_class, F, cfg)

    def test_zero_row_index_is_within_its_block(self):
        F = np.ones((3, 4, 2))
        F[2, 3] = 0.0
        with pytest.raises(GfdError, match="feature row 3 has zero norm"):
            denoise_class(F, DenoiseConfig(knn_k=2, k1=1, k2=2))
