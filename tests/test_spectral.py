"""Laplacian, eigenbasis, GFT, and filter-response tests."""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfdenoise import spectral
from gfdenoise.denoise import LANCZOS_ROWS_PER_PAIR
from gfdenoise.errors import (
    DimensionMismatch,
    InvalidRange,
    IsolatedVertex,
)
from gfdenoise.graphs import (
    CsrGraph,
    clamp_negative_edges,
    complete_graph,
    cosine_similarity,
    knn_graph_csr,
    knn_sparsify,
)
from gfdenoise.spectral import (
    SpectralBasis,
    apply_filter,
    eigendecompose,
    gft,
    igft,
    lowest_eigenpairs,
    normalized_laplacian,
    step_response,
)

PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
PATH3_LAPLACIAN = np.array(
    [
        [1.0, -1.0 / np.sqrt(2.0), 0.0],
        [-1.0 / np.sqrt(2.0), 1.0, -1.0 / np.sqrt(2.0)],
        [0.0, -1.0 / np.sqrt(2.0), 1.0],
    ]
)


def random_knn_graph(rng, n: int) -> np.ndarray:
    """Random cosine kNN adjacency, ready for Laplacian construction."""
    F = rng.standard_normal((n, rng.integers(2, 16)))
    k = int(rng.integers(1, n))
    return clamp_negative_edges(knn_sparsify(cosine_similarity(F), k))


class TestNormalizedLaplacian:
    def test_path_graph_hand_value(self):
        np.testing.assert_allclose(normalized_laplacian(PATH3), PATH3_LAPLACIAN)

    def test_complete_graph_constant_kernel(self):
        # Smallest eigenvalue 0 with the constant vector in its kernel.
        for m in (2, 5, 9):
            L = normalized_laplacian(complete_graph(m))
            ones = np.ones(m) / np.sqrt(m)
            np.testing.assert_allclose(L @ ones, np.zeros(m), atol=1e-12)
            lam = np.linalg.eigvalsh(L)
            assert lam[0] == pytest.approx(0.0, abs=1e-12)

    def test_isolated_vertex_rejected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(IsolatedVertex) as exc:
            normalized_laplacian(W)
        assert exc.value.index == 2

    def test_asymmetric_rejected(self):
        W = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            normalized_laplacian(W)

    def test_negative_weight_rejected(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            normalized_laplacian(W)


class TestEigendecompose:
    def test_path_graph_spectrum(self):
        # Characteristic polynomial of the 3-path Laplacian factors as
        # (1-lam)((1-lam)^2 - 1), giving 0, 1, 2.
        basis = eigendecompose(PATH3_LAPLACIAN)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_identity_matrix(self):
        basis = eigendecompose(np.eye(4))
        np.testing.assert_allclose(basis.eigenvalues, np.ones(4))
        np.testing.assert_allclose(
            basis.eigenvectors.T @ basis.eigenvectors, np.eye(4), atol=1e-12
        )

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((10, 10))
        L = A @ A.T
        basis = eigendecompose(L)
        recon = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
        err = np.linalg.norm(recon - L) / max(1.0, np.linalg.norm(L))
        assert err <= 1e-8

    def test_ascending_order(self):
        rng = np.random.default_rng(3)
        sym = rng.standard_normal((20, 20))
        sym = 0.5 * (sym + sym.T)
        basis = eigendecompose(sym)
        assert np.all(np.diff(basis.eigenvalues) >= 0.0)

    def test_sign_convention_is_deterministic(self):
        basis = eigendecompose(PATH3_LAPLACIAN)
        cols = np.arange(3)
        anchor = np.argmax(np.abs(basis.eigenvectors), axis=0)
        assert np.all(basis.eigenvectors[anchor, cols] >= 0.0)


def invalid_adjacencies():
    """One matrix per check that normalized_laplacian makes."""
    W = random_knn_graph(np.random.default_rng(9), 12)
    asym = W.copy()
    asym[0, np.flatnonzero(W[0])[0]] += 1e-9
    loop = W.copy()
    loop[3, 3] = 0.5
    negative = W.copy()
    j = np.flatnonzero(W[1])[0]
    negative[1, j] = negative[j, 1] = -0.25
    isolated = W.copy()
    isolated[4, :] = isolated[:, 4] = 0.0
    nan = W.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    return [
        pytest.param(W[:, :-1], DimensionMismatch, id="not-square"),
        pytest.param(asym, ValueError, id="asymmetric"),
        pytest.param(loop, ValueError, id="self-loop"),
        pytest.param(negative, ValueError, id="negative"),
        pytest.param(isolated, IsolatedVertex, id="isolated"),
        pytest.param(nan, ValueError, id="nan"),
    ]


class TestLowestEigenpairs:
    def test_matches_lowest_dense_eigenpairs(self):
        rng = np.random.default_rng(12)
        W = clamp_negative_edges(knn_sparsify(cosine_similarity(rng.standard_normal((80, 6))), 6))
        dense = eigendecompose(normalized_laplacian(W))
        basis = lowest_eigenpairs(CsrGraph.from_dense(W), 7)
        assert basis.n == 80 and basis.eigenvectors.shape == (80, 7)
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues[:7], atol=1e-10)
        # Same sign convention, so simple eigenvectors agree as vectors.
        np.testing.assert_allclose(basis.eigenvectors, dense.eigenvectors[:, :7], atol=1e-8)

    def test_disconnected_graph_is_declined(self):
        W = np.zeros((6, 6))
        W[0, 1] = W[1, 0] = W[1, 2] = W[2, 1] = 1.0
        W[3, 4] = W[4, 3] = W[4, 5] = W[5, 4] = 1.0
        assert lowest_eigenpairs(CsrGraph.from_dense(W), 2) is None

    def test_invalid_k(self):
        with pytest.raises(InvalidRange):
            lowest_eigenpairs(CsrGraph.from_dense(PATH3), 3)
        with pytest.raises(InvalidRange):
            lowest_eigenpairs(CsrGraph.from_dense(PATH3), 0)

    @pytest.mark.parametrize("W,error", invalid_adjacencies())
    def test_same_errors_as_dense_path(self, W, error):
        with pytest.raises(error) as dense:
            normalized_laplacian(W)
        with pytest.raises(error) as partial:
            lowest_eigenpairs(CsrGraph.from_dense(W), 2)
        assert type(partial.value) is type(dense.value)
        assert str(partial.value) == str(dense.value)

    def test_explicit_zero_is_not_an_edge(self):
        # Paths 0-1 and 2-3, bridged only by a stored 0.0 between 1 and 2.
        W = CsrGraph(
            indptr=np.array([0, 1, 3, 5, 6]),
            indices=np.array([1, 0, 2, 1, 3, 2]),
            data=np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]),
            shape=(4, 4),
        )
        assert lowest_eigenpairs(W, 1) is None
        assert W.data.tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0], "the caller's data is unchanged"

    def test_unsorted_csr_indices_are_rejected(self):
        W = CsrGraph.from_dense(PATH3)
        swapped = CsrGraph(W.indptr, np.array([1, 2, 0, 1]), W.data, W.shape)
        with pytest.raises(ValueError, match="ascend"):
            lowest_eigenpairs(swapped, 1)

    def test_partial_basis_filters_with_one_gain_per_pair(self):
        rng = np.random.default_rng(13)
        W = random_knn_graph(rng, 30)
        basis = lowest_eigenpairs(CsrGraph.from_dense(W), 3)
        F = rng.standard_normal((30, 2))
        with pytest.raises(DimensionMismatch):
            apply_filter(basis, np.ones(30), F)
        np.testing.assert_allclose(
            apply_filter(basis, np.ones(3), F),
            basis.eigenvectors @ (basis.eigenvectors.T @ F),
        )


def ring(m: int) -> np.ndarray:
    W = np.zeros((m, m))
    i = np.arange(m)
    W[i, (i + 1) % m] = W[(i + 1) % m, i] = 1.0
    return W


def path(m: int) -> np.ndarray:
    W = np.zeros((m, m))
    i = np.arange(m - 1)
    W[i, i + 1] = W[i + 1, i] = 1.0
    return W


@st.composite
def connected_graphs(draw):
    """A connected graph on m = 30..400 vertices, as a CsrGraph: a cosine
    kNN graph of Gaussian rows, or a ring or a path, whose symmetries
    repeat eigenvalues (the ring's rotations double all but one or two)
    or make half the eigenvectors odd (the reflections)."""
    m = draw(st.integers(30, 400), label="m")
    kind = draw(st.sampled_from(["knn", "ring", "path"]), label="kind")
    if kind == "ring":
        return CsrGraph.from_dense(ring(m))
    if kind == "path":
        return CsrGraph.from_dense(path(m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    F = rng.standard_normal((m, draw(st.integers(2, 64), label="d"))) + draw(
        st.sampled_from([0.0, 0.5]), label="mean"
    )
    W = knn_graph_csr(F, draw(st.integers(3, 15), label="knn_k"))
    assume(component_count(W.toarray()) == 1)
    return W


def component_count(W: np.ndarray) -> int:
    """Connected components of a dense adjacency, by depth-first search."""
    seen = np.zeros(len(W), dtype=bool)
    count = 0
    for root in range(len(W)):
        if seen[root]:
            continue
        count += 1
        stack = [root]
        seen[root] = True
        while stack:
            for j in np.flatnonzero(W[stack.pop()] != 0.0):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    return count


class TestLanczosAgainstDense:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(), st.data())
    def test_matches_the_dense_eigenpairs(self, W, data):
        m = W.shape[0]
        k = data.draw(st.integers(1, m // 4), label="k")
        dense = eigendecompose(normalized_laplacian(W.toarray()))
        basis = lowest_eigenpairs(W, k)
        assert basis is not None
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues[:k], rtol=0.0, atol=1e-10)
        # The filter is defined where its cuts fall between distinct eigenvalues.
        k1 = data.draw(st.integers(1, k), label="k1")
        gaps = np.diff(dense.eigenvalues)[[k1 - 1, k - 1]]
        if np.all(gaps > 1e-4):
            F = np.random.default_rng(k).standard_normal((m, 3))
            expected = apply_filter(dense, step_response(k1, k, 0.6, m), F)
            got = apply_filter(basis, step_response(k1, k, 0.6, k), F)
            assert np.max(np.abs(got - expected)) <= 1e-9

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_many_fold_eigenvalues_give_true_eigenpairs(self, d):
        """The d-cube's eigenvalues repeat up to C(d, d/2)-fold, more often
        than two start vectors are sure to find: at d = 9, k = 10 misses a
        copy of the 9-fold eigenvalue 2/9. Whatever comes back is still an
        orthonormal set of eigenpairs, and for k <= 2 the lowest ones."""
        i = np.arange(2**d)
        W = np.zeros((i.size, i.size))
        for bit in range(d):
            W[i, i ^ (1 << bit)] = 1.0
        L = normalized_laplacian(W)
        for k in range(1, d + 3):
            basis = lowest_eigenpairs(CsrGraph.from_dense(W), k)
            if basis is None:
                continue
            U, lam = basis.eigenvectors, basis.eigenvalues
            np.testing.assert_allclose(U.T @ U, np.eye(k), rtol=0.0, atol=1e-10)
            assert np.max(np.abs(L @ U - U * lam)) <= 1e-9
            if k <= 2:
                np.testing.assert_allclose(lam, [0.0, 2.0 / d][:k], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("graph", [ring, path])
    def test_invariant_basis_restarts_from_a_fresh_start_vector(self, monkeypatch, graph):
        """On 41 vertices, the ring's and the path's Krylov spaces from two
        start vectors become invariant before the basis fills, at every
        k = 1..11: a third start vector is drawn, and the eigenpairs are
        still the lowest. The filtered solve is switched off, so that
        this tests the unfiltered one, which it falls back to."""
        W = graph(41)
        dense = eigendecompose(normalized_laplacian(W))
        drawn, start_vector = [], spectral._start_vector

        def spy(n, seed):
            drawn.append(seed)
            return start_vector(n, seed)

        monkeypatch.setattr(spectral, "_filtered_lanczos", lambda *args: None)
        monkeypatch.setattr(spectral, "_start_vector", spy)
        for k in range(1, 12):
            drawn.clear()
            basis = lowest_eigenpairs(CsrGraph.from_dense(W), k)
            assert basis is not None and len(drawn) >= 3, (k, drawn)
            lam, U = basis.eigenvalues, basis.eigenvectors
            np.testing.assert_allclose(lam, dense.eigenvalues[:k], rtol=0.0, atol=1e-10)
            # Each eigenspace returned whole has the dense solve's projector.
            for value in lam:
                ours, theirs = np.abs(lam - value) < 1e-8, np.abs(dense.eigenvalues - value) < 1e-8
                if ours.sum() == theirs.sum():
                    P = U[:, ours] @ U[:, ours].T
                    Q = dense.eigenvectors[:, theirs] @ dense.eigenvectors[:, theirs].T
                    assert np.max(np.abs(P - Q)) <= 1e-10, (k, value)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(100, 400),
        st.lists(st.tuples(st.sampled_from(["ring", "path", "knn"]), st.integers(2, 120)),
                 min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_disconnected_graphs_are_declined(self, chain, others, seed):
        """A long path, the most rounds of label propagation when its
        vertices are shuffled, and 1 to 4 more components."""
        rng = np.random.default_rng(seed)
        blocks = [path(chain)]
        for kind, m in others:
            if kind == "knn":
                S = cosine_similarity(rng.standard_normal((m, 4)))
                blocks.append(clamp_negative_edges(knn_sparsify(S, min(5, m - 1))))
            else:
                blocks.append(ring(m) if kind == "ring" else path(m))
        m = sum(len(block) for block in blocks)
        W = np.zeros((m, m))
        at = 0
        for block in blocks:
            W[at:at + len(block), at:at + len(block)] = block
            at += len(block)
        order = rng.permutation(m)
        W = W[np.ix_(order, order)]
        k = int(rng.integers(1, m // 4 + 1))
        assert lowest_eigenpairs(CsrGraph.from_dense(W), k) is None


@st.composite
def large_knn_graphs(draw):
    """A cosine kNN graph of m = 600..3,000 rows around a common mean:
    Gaussian rows, or rows of two scales (a fifth of them spread 5 times
    wider), with or without copies of some rows, scaled, which tie."""
    m = draw(st.integers(600, 3000), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    F = rng.standard_normal((m, draw(st.sampled_from([8, 32, 128]), label="d")))
    if draw(st.booleans(), label="two scales"):
        F[: m // 5] *= 5.0
    F += draw(st.sampled_from([0.3, 1.0]), label="mean")
    copies = draw(st.integers(0, m // 4), label="copies")
    F[rng.choice(m, copies, replace=False)] = F[rng.integers(0, m, copies)] * rng.choice(
        [0.5, 1.0, 2.0], (copies, 1))
    return knn_graph_csr(F, draw(st.integers(5, 15), label="knn_k"))


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """The 2-norm of the difference of the projectors onto the column
    spans of U and V, orthonormal and of equal width: the sine of their
    largest principal angle."""
    return float(np.linalg.norm(V - U @ (U.T @ V), 2))


@contextlib.contextmanager
def filtered_solves():
    """Whether each _filtered_lanczos call returned pairs, in call order."""
    solves, filtered = [], spectral._filtered_lanczos

    def spy(*args):
        found = filtered(*args)
        solves.append(found is not None)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_filtered_lanczos", spy)
        yield solves


def assert_matches_dense(basis: SpectralBasis, dense: SpectralBasis, k: int) -> None:
    """The k lowest eigenvalues agree to 1e-10, and so do the projectors
    onto their eigenvectors where the gap at k exceeds 1e-4."""
    np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues[:k], rtol=0.0, atol=1e-10)
    if dense.eigenvalues[k] - dense.eigenvalues[k - 1] > 1e-4:
        assert subspace_distance(dense.eigenvectors[:, :k], basis.eigenvectors) <= 1e-10


class TestFilteredLanczos:
    @settings(max_examples=6, deadline=None)
    @given(large_knn_graphs(), st.data())
    def test_matches_the_dense_eigenpairs(self, W, data):
        """At every k that denoise_class solves by Lanczos, whether the
        filtered solve answers or declines to the unfiltered one."""
        m = W.shape[0]
        dense = eigendecompose(normalized_laplacian(W.toarray()))
        assume(np.count_nonzero(dense.eigenvalues < 1e-9) == 1)
        k = data.draw(st.integers(2, m // LANCZOS_ROWS_PER_PAIR), label="k")
        assert_matches_dense(lowest_eigenpairs(W, k), dense, k)

    @pytest.mark.parametrize(
        "m, d, k", [(560, 16, 35), (800, 32, 50), (1600, 128, 55), (1600, 128, 2)]
    )
    def test_certifies_fixed_gaussian_classes(self, m, d, k):
        """On fixed Gaussian classes, the CI's 560 x 16 at k = 35, 800 x 32
        at k = m/16, and classes of standard-large's size at k = 55 and
        k = 2, the density
        estimate's cut lies below the k-th eigenvalue: the filtered solve
        answers, without the fallback, and agrees with the dense one."""
        W = knn_graph_csr(np.random.default_rng(m + d).standard_normal((m, d)) + 0.3, 10)
        dense = eigendecompose(normalized_laplacian(W.toarray()))
        with filtered_solves() as solves:
            basis = lowest_eigenpairs(W, k)
        assert solves == [True]
        assert_matches_dense(basis, dense, k)

    @pytest.mark.parametrize("k, j", [(20, 19), (12, 6), (40, 2)])
    def test_cut_above_the_kth_eigenvalue_takes_the_unfiltered_solve(self, monkeypatch, k, j):
        """A density estimate that puts the cut between the j-th and the
        (j+1)-th largest eigenvalue of the adjacency, j < k, leaves the
        k-th without a certificate. The filtered run gives up at its first
        restart, after one basis of steps, and the unfiltered solve finds
        the k pairs."""
        rng = np.random.default_rng(35)
        W = knn_graph_csr(rng.standard_normal((800, 32)) + 0.3, 10)
        dense = eigendecompose(normalized_laplacian(W.toarray()))
        mu = 1.0 - dense.eigenvalues
        assert mu[j - 1] - mu[j] > 1e-3, "test needs a gap to cut in"
        cut, solve = spectral._spectral_cut, spectral._thick_restart_lanczos
        solved = []

        def high_cut(matvec, z, count):
            c, top = cut(matvec, z, count)
            assert c < mu[k - 1], "the estimate itself cuts below the k-th"
            return (mu[j - 1] + mu[j]) / 2.0, top

        def spy(matvec, n, pairs, **floor):
            steps = []

            def counted(X):
                steps.append(len(X))
                return matvec(X)

            found = solve(counted, n, pairs, **floor)
            solved.append((pairs, found is not None, len(steps)))
            return found

        monkeypatch.setattr(spectral, "_spectral_cut", high_cut)
        monkeypatch.setattr(spectral, "_thick_restart_lanczos", spy)
        basis = lowest_eigenpairs(W, k)
        basis_rows = max(2 * (k - 1) + 1, 20 * spectral.LANCZOS_BLOCK)
        first_pass = -(-basis_rows // spectral.LANCZOS_BLOCK)
        assert [s[:2] for s in solved] == [(k - 1, False), (k, True)]
        assert solved[0][2] == first_pass
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues[:k], rtol=0.0, atol=1e-10)
        assert subspace_distance(dense.eigenvectors[:, :k], basis.eigenvectors) <= 1e-10

    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "unfiltered"])
    @pytest.mark.parametrize("graph", [ring, path])
    def test_ring_and_path_through_both_solves(self, monkeypatch, graph, filtered):
        """The ring's rotations double all its eigenvalues but 1 and -1;
        the path's are distinct. Both solves find the lowest, and every
        eigenspace that they return whole, of the 200-vertex graph, whose
        lowest eigenvalues are more than 1e-4 apart."""
        W = graph(200)
        dense = eigendecompose(normalized_laplacian(W))
        distinct = np.unique(np.round(dense.eigenvalues, 8))
        assert np.diff(distinct[:10]).min() > 1e-4
        if not filtered:
            monkeypatch.setattr(spectral, "_filtered_lanczos", lambda *args: None)
        with filtered_solves() as solves:
            for k in range(2, 13):
                basis = lowest_eigenpairs(CsrGraph.from_dense(W), k)
                lam, U = basis.eigenvalues, basis.eigenvectors
                np.testing.assert_allclose(lam, dense.eigenvalues[:k], rtol=0.0, atol=1e-10)
                for value in lam:
                    ours = np.abs(lam - value) < 1e-8
                    theirs = np.abs(dense.eigenvalues - value) < 1e-8
                    if ours.sum() == theirs.sum():
                        assert subspace_distance(dense.eigenvectors[:, theirs], U[:, ours]) <= 1e-10
        assert solves == [filtered] * 11


class TestGftRoundTrip:
    @pytest.fixture()
    def basis(self):
        return eigendecompose(normalized_laplacian(PATH3))

    def test_eigenvector_maps_to_canonical(self, basis):
        spectrum = gft(basis, basis.eigenvectors[:, 0])
        np.testing.assert_allclose(spectrum, [1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip(self, basis):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(igft(basis, gft(basis, x)), x, atol=1e-10)
        np.testing.assert_allclose(gft(basis, igft(basis, x)), x, atol=1e-10)

    def test_zero_maps_to_zero(self, basis):
        np.testing.assert_allclose(gft(basis, np.zeros(3)), np.zeros(3))
        np.testing.assert_allclose(igft(basis, np.zeros(3)), np.zeros(3))

    def test_igft_of_canonical_is_eigenvector(self, basis):
        np.testing.assert_allclose(
            igft(basis, np.array([1.0, 0.0, 0.0])), basis.eigenvectors[:, 0]
        )

    def test_dimension_mismatch(self, basis):
        with pytest.raises(DimensionMismatch):
            gft(basis, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            igft(basis, np.zeros(2))


class TestApplyFilter:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(1)
        basis = eigendecompose(normalized_laplacian(random_knn_graph(rng, 30)))
        F = rng.standard_normal((30, 7))
        np.testing.assert_allclose(apply_filter(basis, np.ones(30), F), F, atol=1e-10)

    def test_all_zeros_annihilates(self):
        basis = eigendecompose(normalized_laplacian(PATH3))
        F = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(apply_filter(basis, np.zeros(3), F), np.zeros((3, 2)))

    def test_complete_graph_lowpass_is_row_mean(self):
        # Rank-1 projector onto the constant eigenvector averages rows.
        rng = np.random.default_rng(2)
        m = 12
        basis = eigendecompose(normalized_laplacian(complete_graph(m)))
        F = rng.standard_normal((m, 5))
        out = apply_filter(basis, step_response(1, 1, 0.0, m), F)
        np.testing.assert_allclose(out, np.tile(F.mean(axis=0), (m, 1)), atol=1e-8)

    def test_accepts_1d_signal(self):
        basis = eigendecompose(normalized_laplacian(PATH3))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(apply_filter(basis, np.ones(3), x), x, atol=1e-12)

    def test_dimension_mismatch(self):
        basis = eigendecompose(normalized_laplacian(PATH3))
        with pytest.raises(DimensionMismatch):
            apply_filter(basis, np.ones(4), np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            apply_filter(basis, np.ones(3), np.zeros((4, 2)))


class TestResponses:
    def test_fewshot_shape(self):
        np.testing.assert_allclose(
            step_response(1, 4, 0.6, 5), [1.0, 0.6, 0.6, 0.6, 0.0]
        )

    def test_pass_all_degenerate(self):
        np.testing.assert_allclose(step_response(5, 5, 0.6, 5), np.ones(5))

    def test_large_graph_shape(self):
        gains = step_response(20, 55, 0.6, 5000)
        np.testing.assert_allclose(gains[:20], 1.0)
        np.testing.assert_allclose(gains[20:55], 0.6)
        np.testing.assert_allclose(gains[55:], 0.0)
        assert gains.shape == (5000,)

    def test_step_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            step_response(3, 2, 0.6, 5)
        with pytest.raises(InvalidRange):
            step_response(0, 2, 0.6, 5)
        with pytest.raises(InvalidRange):
            step_response(1, 6, 0.6, 5)
        with pytest.raises(InvalidRange):
            step_response(1, 2, 1.5, 5)

    def test_lowpass_shapes(self):
        # step_response(k, k, 0.0, n) is the ideal rank-k low-pass.
        for k in range(1, 8):
            expected = (np.arange(7) < k).astype(np.float64)
            assert step_response(k, k, 0.0, 7).tobytes() == expected.tobytes()
        with pytest.raises(InvalidRange):
            step_response(0, 0, 0.0, 5)
        with pytest.raises(InvalidRange):
            step_response(6, 6, 0.0, 5)


class TestSpectralProperties:
    """Bulk invariants over random graphs."""

    def test_spectrum_in_zero_two(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(4, 60))
            basis = eigendecompose(normalized_laplacian(random_knn_graph(rng, n)))
            assert basis.eigenvalues[0] >= -1e-9
            assert basis.eigenvalues[-1] <= 2.0 + 1e-9

    def test_reconstruction_at_larger_scale(self):
        rng = np.random.default_rng(14)
        L = normalized_laplacian(random_knn_graph(rng, 1000))
        basis = eigendecompose(L)
        recon = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
        assert np.linalg.norm(recon - L) / max(1.0, np.linalg.norm(L)) <= 1e-8

    def test_lowpass_projector_idempotent(self):
        rng = np.random.default_rng(12)
        n = 25
        basis = eigendecompose(normalized_laplacian(random_knn_graph(rng, n)))
        F = rng.standard_normal((n, 4))
        gains = step_response(7, 7, 0.0, n)
        once = apply_filter(basis, gains, F)
        twice = apply_filter(basis, gains, once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_filtering_never_raises_quadratic_form(self):
        # tr(Ff^T L Ff) <= tr(F^T L F) whenever gains lie in [0, 1].
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            W = random_knn_graph(rng, n)
            L = normalized_laplacian(W)
            basis = eigendecompose(L)
            F = rng.standard_normal((n, 3))
            k1 = int(rng.integers(1, n + 1))
            k2 = int(rng.integers(k1, n + 1))
            gains = step_response(k1, k2, 0.6, n)
            Ff = apply_filter(basis, gains, F)
            assert np.trace(Ff.T @ L @ Ff) <= np.trace(F.T @ L @ F) + 1e-9
