"""Similarity matrix, kNN sparsification, and weight-clamping tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdenoise import graphs
from gfdenoise.errors import InvalidK, InvalidSize, ZeroVector
from gfdenoise.graphs import (
    clamp_negative_edges,
    complete_graph,
    cosine_similarity,
    knn_graph_csr,
    knn_sparsify,
)


def brute_force_knn_mask(S: np.ndarray, k: int) -> np.ndarray:
    """Union of row-wise and column-wise kNN masks, built with explicit
    loops: row i keeps each column whose entry is at or above its k-th
    largest off-diagonal entry less TIE_TOL."""
    n = S.shape[0]
    row_keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        kth = sorted((S[i, j] for j in range(n) if j != i), reverse=True)[k - 1]
        for j in range(n):
            row_keep[i, j] = j != i and S[i, j] >= kth - graphs.TIE_TOL
    return row_keep | row_keep.T


def threshold_knn(S: np.ndarray, k: int) -> np.ndarray:
    """Reference kNN by a full sort of each row: row i keeps every
    off-diagonal entry at or above its k-th largest less TIE_TOL, ties
    included whatever their columns."""
    n = S.shape[0]
    ranked = S.copy()
    np.fill_diagonal(ranked, -np.inf)
    keep = ranked >= np.sort(ranked, axis=1)[:, n - k, None] - graphs.TIE_TOL
    keep |= keep.T
    W = np.where(keep, S, 0.0)
    np.fill_diagonal(W, 0.0)
    return W


@st.composite
def tied_symmetric_matrices(draw):
    """Symmetric matrices over a few values, so rows are full of ties."""
    n = draw(st.integers(2, 60))
    values = draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
                           min_size=1, max_size=4, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    V = np.random.default_rng(seed).choice(values, size=(n, n))
    S = np.where(np.arange(n)[:, None] < np.arange(n), V, V.T)  # keeps -0.0
    np.fill_diagonal(S, draw(st.sampled_from([0.0, 1.0])))
    return S


class TestCosineSimilarity:
    def test_identical_vectors(self):
        S = cosine_similarity(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert S[0, 1] == pytest.approx(1.0)
        assert S[0, 0] == 0.0 and S[1, 1] == 0.0

    def test_orthogonal_vectors(self):
        S = cosine_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert S[0, 1] == pytest.approx(0.0)

    def test_antipodal_vectors(self):
        S = cosine_similarity(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert S[0, 1] == pytest.approx(-1.0)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVector) as exc:
            cosine_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert exc.value.index == 1

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        S = cosine_similarity(rng.standard_normal((40, 6)))
        assert S.min() >= -1.0 and S.max() <= 1.0
        np.testing.assert_allclose(S, S.T)


class TestKnnSparsify:
    def test_full_k_keeps_everything(self):
        rng = np.random.default_rng(0)
        S = cosine_similarity(rng.standard_normal((8, 4)))
        np.testing.assert_allclose(knn_sparsify(S, 7), S)

    def test_hand_built_top1(self):
        S = np.array(
            [
                [0.0, 0.9, 0.2, 0.1],
                [0.9, 0.0, 0.3, 0.4],
                [0.2, 0.3, 0.0, 0.8],
                [0.1, 0.4, 0.8, 0.0],
            ]
        )
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 0.9
        expected[2, 3] = expected[3, 2] = 0.8
        np.testing.assert_allclose(knn_sparsify(S, 1), expected)

    def test_union_rule_keeps_incoming_best_edges(self):
        # Vertex 1 is the best neighbor of 0 and 3; both edges survive k=1
        # even though vertex 1's own best edge goes to 3.
        S = np.array(
            [
                [0.0, 0.9, 0.2, 0.1],
                [0.9, 0.0, 0.3, 0.95],
                [0.2, 0.3, 0.0, 0.8],
                [0.1, 0.95, 0.8, 0.0],
            ]
        )
        W = knn_sparsify(S, 1)
        assert W[0, 1] == 0.9 and W[1, 0] == 0.9
        assert W[1, 3] == 0.95 and W[3, 1] == 0.95
        assert W[2, 3] == 0.8 and W[3, 2] == 0.8
        assert W[0, 2] == 0.0 and W[0, 3] == 0.0 and W[1, 2] == 0.0

    def test_negative_entries_can_survive(self):
        S = -0.5 * (np.ones((3, 3)) - np.eye(3))
        W = knn_sparsify(S, 1)
        assert W.min() < 0.0

    def test_invalid_k(self):
        S = np.zeros((4, 4))
        with pytest.raises(InvalidK):
            knn_sparsify(S, 0)
        with pytest.raises(InvalidK):
            knn_sparsify(S, 4)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 51))
            S = cosine_similarity(rng.standard_normal((n, 5)))
            k = int(rng.integers(1, n))
            mask = brute_force_knn_mask(S, k)
            np.testing.assert_allclose(knn_sparsify(S, k), np.where(mask, S, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(tied_symmetric_matrices())
    def test_matches_threshold_oracle_with_ties(self, S):
        for k in range(1, S.shape[0]):
            W = knn_sparsify(S, k)
            ref = threshold_knn(S, k)
            assert np.array_equal(W, ref), k
            assert np.array_equal(np.signbit(W), np.signbit(ref)), k

    def test_every_vertex_keeps_an_edge(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            S = cosine_similarity(rng.standard_normal((n, 4)))
            W = knn_sparsify(S, 1)
            assert np.all((W != 0.0).sum(axis=1) >= 1)


class TestCompleteGraph:
    def test_two_vertices(self):
        np.testing.assert_allclose(complete_graph(2), [[0.0, 1.0], [1.0, 0.0]])

    def test_five_vertices(self):
        W = complete_graph(5)
        np.testing.assert_allclose(W.sum(axis=1), np.full(5, 4.0))
        np.testing.assert_allclose(np.diagonal(W), np.zeros(5))

    def test_single_vertex_rejected(self):
        with pytest.raises(InvalidSize):
            complete_graph(1)


class TestClampNegativeEdges:
    def test_negatives_clamped_to_zero(self):
        W = np.array([[0.0, -0.2, 0.5], [-0.2, 0.0, 0.3], [0.5, 0.3, 0.0]])
        out = clamp_negative_edges(W)
        assert out.min() >= 0.0
        assert out[0, 1] == 0.0 and out[0, 2] == 0.5

    def test_isolated_vertex_gets_epsilon_edge(self):
        # Vertex 0's only edges are negative; its largest one is restored.
        W = np.array([[0.0, -0.2, -0.7], [-0.2, 0.0, 0.4], [-0.7, 0.4, 0.0]])
        out = clamp_negative_edges(W)
        assert out[0, 1] == pytest.approx(1e-6)
        assert out[1, 0] == pytest.approx(1e-6)
        assert out[0, 2] == 0.0
        assert out.sum(axis=1).min() > 0.0

    def test_all_negative_graph_stays_connected(self):
        S = -0.5 * (np.ones((4, 4)) - np.eye(4))
        out = clamp_negative_edges(knn_sparsify(S, 1))
        assert out.sum(axis=1).min() > 0.0
        np.testing.assert_allclose(out, out.T)

    def test_positive_graph_untouched(self):
        W = complete_graph(4) * 0.7
        np.testing.assert_allclose(clamp_negative_edges(W), W)


# Similarities within this distance of a row's threshold, its k-th largest
# less TIE_TOL, may be kept by one graph builder and not the other (see the
# gfdenoise.graphs docstring).
ULP_SLACK = 16 * np.finfo(np.float64).eps


def unstable_vertices(S: np.ndarray, k: int) -> np.ndarray:
    """Vertices whose row of the dense kNN graph could change if S moved by
    ULP_SLACK: a row with a similarity within ULP_SLACK of its threshold,
    the other end of each such similarity, and any vertex with a similarity
    near 0, where clamping could go either way. Ties are kept whole, so a
    tie at the k-th largest is stable."""
    ranked = S.copy()
    np.fill_diagonal(ranked, -np.inf)
    t = -np.partition(-ranked, k - 1, axis=1)[:, k - 1, None] - graphs.TIE_TOL
    unsure = np.abs(S - t) <= ULP_SLACK
    np.fill_diagonal(unsure, False)
    unsure |= unsure.T
    zero = np.abs(S) <= ULP_SLACK
    np.fill_diagonal(zero, False)
    return unsure.any(axis=1) | zero.any(axis=1)


@st.composite
def classes(draw, max_rows: int = 2000):
    """(F, exact): feature rows, and whether every cosine similarity of them
    is computed exactly in any summation order.

    Rows are Gaussian; or copies of a few Gaussian directions, so that many
    similarities tie; or, exactly, rows of four entries +-1 (norm 2), whose
    similarities are multiples of 1/4 and tie all the more. Rows other than
    Gaussian ones are scaled by powers of two, which leaves their unit
    vectors bit for bit the same.
    """
    m = draw(st.integers(2, max_rows))
    d = draw(st.sampled_from([4, 8, 64, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "directions", "exact"]))
    if kind == "gaussian":
        return rng.standard_normal((m, d)) + draw(st.sampled_from([0.0, 0.5])), False
    pool = rng.standard_normal((draw(st.integers(1, 6)), d))
    if kind == "exact":
        pool = np.zeros((draw(st.integers(1, 20)), d))
        for row in pool:
            row[rng.choice(d, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    F = pool[rng.integers(0, len(pool), m)] * 2.0 ** rng.integers(-3, 4, m)[:, None]
    return F, kind == "exact"


class TestKnnGraphCsr:
    @settings(max_examples=60, deadline=None)
    @given(classes(), st.data())
    def test_matches_dense_graph_away_from_thresholds(self, F_exact, data):
        F, exact = F_exact
        m = F.shape[0]
        k = data.draw(st.integers(1, m - 1), label="k")
        block_rows = data.draw(st.integers(1, m), label="block_rows")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * m * block_rows)
            W = knn_graph_csr(F, k)
        rows = np.repeat(np.arange(m), np.diff(W.indptr))
        assert np.all(np.diff(W.indices)[np.diff(rows) == 0] > 0), "ascending within each row"
        assert np.all(W.indices != rows) and np.all(W.data > 0.0)
        Wd = W.toarray()
        assert np.array_equal(Wd, Wd.T)
        S = cosine_similarity(F)
        dense = clamp_negative_edges(knn_sparsify(S, k))
        if exact:  # the tie rule, and everything else, must match bit for bit
            assert np.array_equal(Wd, dense)
            return
        sure = ~unstable_vertices(S, k)
        pairs = np.ix_(sure, sure)
        assert np.array_equal(Wd[pairs] != 0.0, dense[pairs] != 0.0)
        np.testing.assert_allclose(Wd[pairs], dense[pairs], rtol=0.0, atol=ULP_SLACK)

    def test_gaussian_class_is_compared_almost_everywhere(self, monkeypatch):
        monkeypatch.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * 600 * 70)
        F = np.random.default_rng(40).standard_normal((600, 64)) + 0.3
        S = cosine_similarity(F)
        sure = ~unstable_vertices(S, 10)
        assert np.count_nonzero(sure) >= 594
        pairs = np.ix_(sure, sure)
        W = knn_graph_csr(F, 10).toarray()
        dense = clamp_negative_edges(knn_sparsify(S, 10))
        assert np.array_equal(W[pairs] != 0.0, dense[pairs] != 0.0)

    def test_restores_the_strongest_edges_of_an_isolated_vertex(self, monkeypatch):
        # Row 0 points away from rows 1-4, so both its kept edges are
        # negative. Rows 1 and 2 are equal and nearest to it; row 0 gets
        # back its edges to both, the whole tie.
        monkeypatch.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * 5 * 2)
        F = np.array([[-1.0, 0.0], [1.0, 0.5], [1.0, 0.5], [1.0, 0.1], [1.0, 0.2]])
        W = knn_graph_csr(F, 2).toarray()
        assert W[0, 1] == W[1, 0] == W[0, 2] == W[2, 0] == graphs.RESTORED_EDGE_WEIGHT
        assert W[0, 3] == W[0, 4] == 0.0
        expected = clamp_negative_edges(knn_sparsify(cosine_similarity(F), 2))
        assert np.array_equal(W != 0.0, expected != 0.0)
        np.testing.assert_allclose(W, expected, rtol=0.0, atol=ULP_SLACK)

    @pytest.mark.parametrize("block_rows, sub_rows", [
        (7, [2, 2, 2, 1] * 8 + [2, 1]),
        (10, [3, 3, 3, 1] * 5 + [3, 3, 3]),
        (59, [15, 15, 15, 14]),
    ])
    def test_top_k_ranks_a_quarter_of_a_block_at_a_time(self, monkeypatch, block_rows,
                                                        sub_rows):
        """_top_k sees a quarter of each block's rows at a time, rounded up,
        so blocks of 7, 10 or 59 rows, and the last block of 3 rows left by
        blocks of 7, end in a shorter sub-block. Rows of four entries +-1
        have exact similarities full of ties, and the graph is still the
        dense one bit for bit."""
        rng = np.random.default_rng(41)
        pool = np.zeros((12, 16))
        for row in pool:
            row[rng.choice(16, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
        F = pool[rng.integers(0, 12, 59)] * 2.0 ** rng.integers(-3, 4, 59)[:, None]
        seen, top_k = [], graphs._top_k

        def spy(S, *args):
            seen.append(S.shape[0])
            return top_k(S, *args)

        monkeypatch.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * 59 * block_rows)
        monkeypatch.setattr(graphs, "_top_k", spy)
        W = knn_graph_csr(F, 5).toarray()
        assert seen == sub_rows
        assert np.array_equal(W, clamp_negative_edges(knn_sparsify(cosine_similarity(F), 5)))

    def test_same_errors_as_dense_graph(self):
        F = np.ones((5, 3))
        F[3] = 0.0
        with pytest.raises(ZeroVector) as dense:
            cosine_similarity(F)
        with pytest.raises(ZeroVector) as streamed:
            knn_graph_csr(F, 2)
        assert str(streamed.value) == str(dense.value)
        for k in (0, 5):
            with pytest.raises(InvalidK):
                knn_graph_csr(np.ones((5, 3)), k)
