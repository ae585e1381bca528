"""Per-class denoising pipeline tests."""

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfdenoise.denoise
import gfdenoise.spectral
from gfdenoise import graphs
from gfdenoise.data import LabeledFeatures
from gfdenoise.denoise import (
    LANCZOS_MIN_ROWS,
    LANCZOS_ROWS_PER_PAIR,
    DenoiseConfig,
    SmallClassWarning,
    batch_ends,
    denoise_class,
    denoise_dataset,
)
from gfdenoise.errors import (
    ClassTooSmall,
    InvalidK,
    InvalidRange,
    IsolatedVertex,
    NonFiniteValue,
    ZeroVector,
)
from gfdenoise.graphs import class_graph, complete_graph
from gfdenoise.spectral import apply_filter, eigendecompose, normalized_laplacian, step_response


def gaussian_class(rng, m, d, mu=0.0):
    return mu + rng.standard_normal((m, d))


class TestDenoiseConfig:
    def test_validation(self):
        with pytest.raises(InvalidRange):
            DenoiseConfig(k1=3, k2=2)
        with pytest.raises(InvalidRange):
            DenoiseConfig(k1=0)
        with pytest.raises(InvalidRange):
            DenoiseConfig(mid_gain=1.2)
        with pytest.raises(InvalidK):
            DenoiseConfig(knn_k=0)
        with pytest.raises(InvalidRange):
            DenoiseConfig(graph_kind="ring")

    def test_clipping_to_class_size(self):
        cfg = DenoiseConfig(knn_k=10, k1=1, k2=4)
        eff = cfg.for_class_size(3)
        assert eff.knn_k == 2 and eff.k1 == 1 and eff.k2 == 3

    def test_clipping_noop_for_large_class(self):
        cfg = DenoiseConfig(knn_k=10, k1=20, k2=55)
        assert cfg.for_class_size(500) == cfg


class TestDenoiseClass:
    def test_identity_filter_is_exact(self):
        rng = np.random.default_rng(0)
        F = gaussian_class(rng, 8, 5)
        out = denoise_class(F, DenoiseConfig(k1=8, k2=8, graph_kind="knn", knn_k=3))
        np.testing.assert_allclose(out, F, atol=1e-10)

    def test_complete_graph_rank1_projects_to_mean(self):
        rng = np.random.default_rng(1)
        F = gaussian_class(rng, 9, 4, mu=2.0)
        out = denoise_class(F, DenoiseConfig(k1=1, k2=1, graph_kind="complete"))
        np.testing.assert_allclose(out, np.tile(F.mean(axis=0), (9, 1)), atol=1e-8)

    def test_knn_filter_reduces_variance(self):
        # Low-pass with a kNN graph shrinks the total sample variance of
        # every Gaussian cloud; per-dimension reduction holds for nearly
        # all (trial, dimension) pairs but is not pointwise guaranteed
        # because the weighted graph's lowest mode is not the constant
        # vector.
        rng = np.random.default_rng(2)
        cfg = DenoiseConfig(knn_k=4, k1=1, k2=4, mid_gain=0.6)
        dim_wins = 0
        for _ in range(100):
            F = gaussian_class(rng, 5, 6)
            out = denoise_class(F, cfg)
            assert out.var(axis=0).sum() < F.var(axis=0).sum()
            dim_wins += np.sum(out.var(axis=0) < F.var(axis=0))
        assert dim_wins >= 0.97 * 100 * 6

    def test_complete_graph_filter_reduces_every_dimension(self):
        # With unit weights the centering projector commutes with the
        # filter, so each dimension's sample variance can only shrink.
        rng = np.random.default_rng(21)
        cfg = DenoiseConfig(k1=1, k2=4, mid_gain=0.6, graph_kind="complete")
        for _ in range(100):
            F = gaussian_class(rng, 5, 6)
            out = denoise_class(F, cfg)
            assert np.all(out.var(axis=0) < F.var(axis=0))

    def test_too_small_class(self):
        with pytest.raises(ClassTooSmall):
            denoise_class(np.ones((1, 3)), DenoiseConfig())

    @pytest.mark.parametrize("shape, row, cfg", [
        ((6, 3), 3, DenoiseConfig(knn_k=2, k1=1, k2=3)),
        ((6, 3), 3, DenoiseConfig(k1=1, k2=3, graph_kind="complete")),
        ((6, 3), 3, DenoiseConfig(k1=6, k2=6)),  # passes every frequency
        ((600, 8), 517, DenoiseConfig(knn_k=10, k1=5, k2=20)),  # Lanczos size
        ((4, 5, 3), 2, DenoiseConfig(knn_k=2, k1=1, k2=3)),  # a stack
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named_before_any_graph(self, monkeypatch, shape, row, cfg, bad):
        """A NaN or infinity raises NonFiniteValue naming its row (within
        its block for a stack), on every path, before a graph is built."""
        F = gaussian_class(np.random.default_rng(15), int(np.prod(shape[:-1])), shape[-1], 0.3)
        F = F.reshape(shape)
        F[(..., row, 1) if len(shape) == 2 else (2, row, 1)] = bad
        forbid_graphs_and_solvers(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=f"^feature row {row}: non-finite feature value$"):
                denoise_class(F, cfg)

    def test_row_order_preserved(self):
        rng = np.random.default_rng(3)
        F = gaussian_class(rng, 6, 4)
        cfg = DenoiseConfig(knn_k=2, k1=1, k2=3, mid_gain=0.6)
        out = np.empty_like(F)
        perm = rng.permutation(6)
        out[perm] = denoise_class(F[perm], cfg)
        np.testing.assert_allclose(out, denoise_class(F, cfg), atol=1e-9)


def dense_reference(F, cfg):
    """denoise_class through a full dense eigendecomposition, with the step
    gains assigned by eigenvalue index."""
    m = F.shape[-2]
    eff = cfg.for_class_size(m)
    basis = eigendecompose(normalized_laplacian(class_graph(F, eff.graph_kind, eff.knn_k)))
    return apply_filter(basis, step_response(eff.k1, eff.k2, eff.mid_gain, m), F), basis


def grouped_complete_reference(F, cfg):
    """The complete graph's filter through a full dense eigendecomposition,
    with gain 1 on the constant vector (index 1) and, on the (m - 1)-fold
    eigenvalue m / (m - 1), the mean of the step gains 2..m."""
    m = F.shape[-2]
    eff = cfg.for_class_size(m)
    gains = step_response(eff.k1, eff.k2, eff.mid_gain, m)
    gains[1:] = gains[1:].mean()
    return apply_filter(eigendecompose(normalized_laplacian(complete_graph(m))), gains, F)


@pytest.fixture()
def solver_calls(monkeypatch):
    """Record which eigensolver denoise_class used."""
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            result = fn(*args)
            calls.append((name, result is not None))
            return result
        monkeypatch.setattr(gfdenoise.denoise, name, wrapped)

    spy("eigendecompose", gfdenoise.denoise.eigendecompose)
    spy("lowest_eigenpairs", gfdenoise.denoise.lowest_eigenpairs)
    return calls


class TestSolverPaths:
    CFG = DenoiseConfig(knn_k=10, k1=10, k2=40, mid_gain=0.6)

    def test_large_connected_class_matches_dense(self, solver_calls):
        F = gaussian_class(np.random.default_rng(30), 800, 32, mu=0.3)
        expected, basis = dense_reference(F, self.CFG)
        gaps = np.diff(basis.eigenvalues)[[self.CFG.k1 - 1, self.CFG.k2 - 1]]
        assert np.all(gaps > 1e-4), "test needs cuts between distinct eigenvalues"
        solver_calls.clear()
        out = denoise_class(F, self.CFG)
        assert solver_calls == [("lowest_eigenpairs", True)]
        assert np.max(np.abs(out - expected)) <= 1e-9

    @pytest.mark.parametrize("declined", ["disconnected", "unconverged"])
    def test_declined_class_is_solved_on_its_own_graph(self, solver_calls, monkeypatch, declined):
        """A class that Lanczos declines is solved densely on the CsrGraph
        that Lanczos was given; no second graph is built."""
        if declined == "disconnected":
            # Two tight clusters along orthogonal directions: every row's 10
            # nearest neighbors lie in its own cluster, so no edge crosses.
            rng = np.random.default_rng(31)
            F = 0.05 * rng.standard_normal((800, 16))
            F[:400, 0] += 1.0
            F[400:, 1] += 1.0
        else:
            # With no density estimate the filtered solve declines, and one
            # pass of the unfiltered Lanczos with no restart leaves some of
            # 40 pairs unconverged.
            monkeypatch.setattr(gfdenoise.spectral, "_spectral_cut", lambda *args: None)
            monkeypatch.setattr(gfdenoise.spectral, "LANCZOS_MAX_RESTARTS", 0)
            F = gaussian_class(np.random.default_rng(33), 800, 8, mu=0.3)
        eff = self.CFG.for_class_size(len(F))
        basis = eigendecompose(normalized_laplacian(graphs.knn_graph_csr(F, eff.knn_k).toarray()))
        expected = apply_filter(basis, step_response(eff.k1, eff.k2, eff.mid_gain, len(F)), F)
        components = np.count_nonzero(basis.eigenvalues < 1e-9)
        assert components == (2 if declined == "disconnected" else 1)

        def second_graph(*args):
            raise AssertionError("a class on the Lanczos route builds one graph")

        monkeypatch.setattr(gfdenoise.denoise, "class_graph", second_graph)
        out = denoise_class(F, self.CFG)
        assert solver_calls == [("lowest_eigenpairs", False), ("eigendecompose", True)]
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "m,cfg",
        [
            (511, CFG),  # below the row threshold
            (800, DenoiseConfig(knn_k=10, k1=10, k2=51)),  # k2 above m / 16
            (600, DenoiseConfig(k1=1, k2=4, graph_kind="complete")),
        ],
    )
    def test_other_classes_take_dense_path(self, solver_calls, m, cfg):
        """Every other kNN class is solved dense; the complete graph is
        filtered in closed form and calls no solver."""
        F = gaussian_class(np.random.default_rng(32), m, 8, mu=0.3)
        out = denoise_class(F, cfg)
        if cfg.graph_kind == "complete":
            assert solver_calls == []
            assert np.max(np.abs(out - grouped_complete_reference(F, cfg))) <= 1e-12
        else:
            assert solver_calls == [("eigendecompose", True)]
            assert np.array_equal(out, dense_reference(F, cfg)[0])

    @settings(max_examples=6, deadline=None)
    @given(st.integers(LANCZOS_MIN_ROWS, 1200), st.integers(0, 2**32 - 1), st.data())
    def test_streamed_graph_filters_like_the_dense_path(self, m, seed, data):
        rng = np.random.default_rng(seed)
        F = gaussian_class(rng, m, data.draw(st.sampled_from([16, 64, 128])), mu=0.3)
        copies = data.draw(st.integers(0, m // 4), label="duplicated rows")
        F[rng.choice(m, copies, replace=False)] = F[rng.integers(0, m, copies)]
        k2 = data.draw(st.integers(2, m // LANCZOS_ROWS_PER_PAIR), label="k2")
        k1 = data.draw(st.integers(1, k2 - 1), label="k1")
        cfg = DenoiseConfig(knn_k=data.draw(st.integers(3, 15)), k1=k1, k2=k2, mid_gain=0.6)
        expected, basis = dense_reference(F, cfg)
        assume(np.all(np.diff(basis.eigenvalues)[[k1 - 1, k2 - 1]] > 1e-4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * m * data.draw(st.integers(1, m // 3)))
            # Copied rows tie, and both graphs keep a tie whole.
            W = graphs.knn_graph_csr(F, cfg.knn_k).toarray()
            assert np.array_equal(W != 0.0, class_graph(F, "knn", cfg.knn_k) != 0.0)
            out = denoise_class(F, cfg)
        assert np.max(np.abs(out - expected)) <= 1e-9

    def test_streamed_class_holds_no_m_by_m_array(self, solver_calls):
        m = 2000
        F = gaussian_class(np.random.default_rng(34), m, 128, mu=0.3)
        tracemalloc.start()
        try:
            denoise_class(F, DenoiseConfig(knn_k=10, k1=20, k2=55))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver_calls == [("lowest_eigenpairs", True)]
        # Measured 7.6 MiB; 10.9 MiB when _top_k ranked a whole graph
        # block at a time (m x m would be 30.5 MiB).
        assert peak < 8 * 2**20


def forbid_graphs_and_solvers(mp):
    """Make every graph builder and solver denoise_class reaches fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form builds no graph and calls no solver")

    for name in ("class_graph", "knn_graph_csr", "eigendecompose", "lowest_eigenpairs",
                 "normalized_laplacian", "apply_filter"):
        mp.setattr(gfdenoise.denoise, name, forbidden)


@st.composite
def complete_graph_cases(draw, cuts=None):
    """A class (m x d) or a stack of classes (B x m x d) with m from 2 to
    200, and a complete-graph config. cuts(m) gives the (k1, k2) pairs to
    draw from; by default any k1 <= k2, up to past m."""
    m = draw(st.integers(2, 200), label="m")
    d = draw(st.integers(1, 16), label="d")
    blocks = draw(st.sampled_from([(), (1,), (3,)]), label="stack")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    F = draw(st.floats(-3.0, 3.0), label="mu") + rng.standard_normal(blocks + (m, d))
    if cuts is None:
        k2 = draw(st.integers(1, m + 2), label="k2")
        k1 = draw(st.integers(1, k2), label="k1")
    else:
        k1, k2 = draw(st.sampled_from(cuts(m)), label="k1, k2")
    mid_gain = draw(st.floats(0.0, 1.0), label="mid_gain")
    return F, DenoiseConfig(k1=k1, k2=k2, mid_gain=mid_gain, graph_kind="complete"), rng


class TestCompleteGraphClosedForm:
    """The complete graph's closed form, mean + g (F - mean), against the
    dense filter through complete_graph and eigendecompose."""

    @settings(max_examples=80, deadline=None)
    @given(complete_graph_cases())
    def test_equals_grouped_dense_filter(self, case):
        F, cfg, _ = case
        with pytest.MonkeyPatch.context() as mp:
            forbid_graphs_and_solvers(mp)
            out = denoise_class(F, cfg)
        assert np.max(np.abs(out - grouped_complete_reference(F, cfg))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(complete_graph_cases(cuts=lambda m: [(1, 1), (1, m)]))
    def test_equals_index_gains_without_a_cut_inside_the_eigenspace(self, case):
        """With k1 = k2 = 1 or k1 = 1, k2 = m, every step gain 2..m is
        equal, so assigning them by index is basis-invariant too."""
        F, cfg, _ = case
        assert np.max(np.abs(denoise_class(F, cfg) - dense_reference(F, cfg)[0])) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(complete_graph_cases())
    def test_row_permutation_equivariant(self, case):
        F, cfg, rng = case
        perm = rng.permutation(F.shape[-2])
        out = denoise_class(F, cfg)
        assert np.max(np.abs(denoise_class(F[..., perm, :], cfg) - out[..., perm, :])) <= 1e-12


# Cuts between eigenvalues closer than this are not compared: there the
# filtered output depends on the eigenbasis, and beyond it on rounding.
# Rounding moved outputs by at most 2e-11 at gaps of 4e-5.
SETTLED_GAP = 1e-4


def settled(W, cfg):
    """Whether the graph W, or each graph of a stack, is connected and has
    gaps above SETTLED_GAP at both of cfg's cuts, so that the filter is a
    function of the graph, to 1e-10."""
    lam = eigendecompose(normalized_laplacian(W)).eigenvalues
    m = lam.shape[-1]
    eff = cfg.for_class_size(m)
    gaps = [0] + [k - 1 for k in (eff.k1, eff.k2) if k < m]
    return np.all(np.diff(lam)[..., gaps] > SETTLED_GAP, axis=-1)


def copied_rows(rng, m, d, copies):
    """m Gaussian rows and `copies` more, each a copy or a positive multiple
    of one of them (a row may be repeated up to 5 times), in random order."""
    base = rng.standard_normal((m, d)) + rng.choice([0.0, 0.3])
    picks = rng.choice(np.repeat(np.arange(m), 4), copies, replace=False)
    scale = rng.choice([0.5, 1.0, 2.0, 0.3, 1.7, 3.1], copies)[:, None]
    F = np.vstack([base, base[picks] * scale])
    return F[rng.permutation(len(F))]


@st.composite
def copied_classes(draw, max_rows=40):
    """(F, rng): a class of copied_rows, some rows appearing 2-5 times."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    m = draw(st.integers(4, max_rows), label="distinct rows")
    d = draw(st.sampled_from([4, 16, 64]), label="d")
    return copied_rows(rng, m, d, draw(st.integers(1, 2 * m), label="copies")), rng


def knn_configs(m):
    """Configs with knn_k 2-10 and cuts up to 5 for a class of m rows."""
    return st.builds(
        lambda knn_k, k1, extra: DenoiseConfig(knn_k=knn_k, k1=k1, k2=k1 + extra),
        st.integers(2, min(10, m - 1)), st.integers(1, 3), st.integers(0, 2),
    )


def permute_graph(W, perm):
    """W's vertices permuted by perm: vertex i of the result is perm[i]."""
    return W[np.ix_(perm, perm)]


def restore_case(rng, copies):
    """A class whose row 0 points away from the rest, so every edge it keeps
    is negative and clamped, and whose nearest row appears copies + 1
    times; in random order, with the index of row 0 and of the tie."""
    base = rng.standard_normal((15, 8))
    base[:, 0] = 3.0 + np.abs(base[:, 0])
    away = -np.eye(8)[0] + 0.1 * rng.standard_normal(8)
    nearest = np.argmax(base @ away / np.linalg.norm(base, axis=1))
    scale = rng.choice([0.5, 1.0, 2.0, 1.7], copies)[:, None]
    F = np.vstack([away, base, base[[nearest] * copies] * scale])
    perm = rng.permutation(len(F))
    where = np.argsort(perm)
    return F[perm], where[0], where[[1 + nearest] + list(range(16, 16 + copies))]


class TestRowOrder:
    """Rows that repeat, as copies or positive multiples, tie in cosine
    similarity. The kNN graph keeps or restores a tie whole, so permuting a
    class's rows permutes its graph, in either builder, and its filtered
    rows, to 1e-10 wherever the filter is a function of the graph."""

    @settings(max_examples=150, deadline=None)
    @given(copied_classes(), st.data())
    def test_class_graph(self, case, data):
        F, rng = case
        cfg = data.draw(knn_configs(len(F)), label="cfg")
        perm = rng.permutation(len(F))
        W = class_graph(F, "knn", cfg.knn_k)
        assert np.array_equal(class_graph(F[perm], "knn", cfg.knn_k) != 0.0,
                              permute_graph(W, perm) != 0.0)
        assume(settled(W, cfg))
        out = denoise_class(F, cfg)
        assert np.max(np.abs(denoise_class(F[perm], cfg) - out[perm])) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(4, 9), st.integers(2, 5),
           st.integers(2, 4))
    def test_stack_permuted_within_blocks(self, seed, b, m, copies, knn_k):
        rng = np.random.default_rng(seed)
        F = np.stack([copied_rows(rng, m, 16, copies) for _ in range(b)])
        cfg = DenoiseConfig(knn_k=knn_k)
        perm = np.stack([rng.permutation(m + copies) for _ in range(b)])
        Fp = np.take_along_axis(F, perm[..., None], axis=1)
        W, Wp = class_graph(F, "knn", knn_k), class_graph(Fp, "knn", knn_k)
        for block, p in enumerate(perm):
            assert np.array_equal(Wp[block] != 0.0, permute_graph(W[block], p) != 0.0)
        ok = settled(W, cfg)
        assume(ok.any())
        moved = denoise_class(Fp, cfg) - np.take_along_axis(denoise_class(F, cfg), perm[..., None], 1)
        assert np.max(np.abs(moved[ok])) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(copied_classes(max_rows=150), st.data())
    def test_streamed_graph_and_lanczos(self, case, data):
        """knn_graph_csr, at any block size for either row order, and the
        Lanczos path it feeds, here taken by small classes too."""
        F, rng = case
        m = len(F)
        assume(m >= 2 * LANCZOS_ROWS_PER_PAIR)
        k2 = data.draw(st.integers(2, m // LANCZOS_ROWS_PER_PAIR), label="k2")
        cfg = DenoiseConfig(knn_k=data.draw(st.integers(3, 10), label="knn_k"),
                            k1=data.draw(st.integers(1, k2 - 1), label="k1"), k2=k2)
        perm = rng.permutation(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gfdenoise.denoise, "LANCZOS_MIN_ROWS", 2)
            graphs_and_outputs = []
            for rows in (F, F[perm]):
                block_rows = data.draw(st.integers(1, m), label="block rows")
                mp.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * m * block_rows)
                graphs_and_outputs.append(
                    (graphs.knn_graph_csr(rows, cfg.knn_k).toarray(), denoise_class(rows, cfg))
                )
        (W, out), (Wp, outp) = graphs_and_outputs
        assert np.array_equal(Wp != 0.0, permute_graph(W, perm) != 0.0)
        np.testing.assert_allclose(Wp, permute_graph(W, perm), rtol=0.0, atol=1e-15)
        assume(settled(W, cfg))
        assert np.max(np.abs(outp - out[perm])) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 15))
    def test_restored_edge_ties_between_copies(self, seed, copies, block_rows):
        """The isolated row gets back its edge to every copy of its nearest
        row, in both builders, so the output does not follow the order of
        the copies."""
        rng = np.random.default_rng(seed)
        F, away, tie = restore_case(rng, copies)
        m, cfg = len(F), DenoiseConfig(knn_k=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "GRAPH_BLOCK_BYTES", 8 * m * block_rows)
            streamed = graphs.knn_graph_csr(F, 3).toarray()
        W = class_graph(F, "knn", 3)
        for graph in (W, streamed):
            assert np.array_equal(np.flatnonzero(graph[away]), np.sort(tie))
            assert np.all(graph[away, tie] == graphs.RESTORED_EDGE_WEIGHT)
        perm = rng.permutation(m)
        assert np.array_equal(class_graph(F[perm], "knn", 3) != 0.0, permute_graph(W, perm) != 0.0)
        assume(settled(W, cfg))
        assert np.max(np.abs(denoise_class(F[perm], cfg) - denoise_class(F, cfg)[perm])) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(copied_classes(max_rows=80), st.data())
    def test_builders_give_one_graph(self, case, data):
        """The dense and the streamed builder keep the same edges, at any
        block size, and weigh them alike to a few ulp."""
        F, _ = case
        m = len(F)
        k = data.draw(st.integers(1, m - 1), label="k")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "GRAPH_BLOCK_BYTES",
                       8 * m * data.draw(st.integers(1, m), label="block rows"))
            streamed = graphs.knn_graph_csr(F, k).toarray()
        dense = class_graph(F, "knn", k)
        assert np.array_equal(streamed != 0.0, dense != 0.0)
        np.testing.assert_allclose(streamed, dense, rtol=0.0, atol=1e-15)


class TestDenoiseDataset:
    def test_single_class_matches_denoise_class(self):
        rng = np.random.default_rng(4)
        F = gaussian_class(rng, 7, 3)
        data = LabeledFeatures(F, ["a"] * 7)
        cfg = DenoiseConfig(knn_k=3, k1=1, k2=2)
        out = denoise_dataset(data, cfg)
        np.testing.assert_allclose(out.features, denoise_class(F, cfg))
        assert list(out.labels) == ["a"] * 7

    def test_classes_are_isolated_bit_exactly(self):
        rng = np.random.default_rng(5)
        Fa = gaussian_class(rng, 6, 4)
        Fb = gaussian_class(rng, 6, 4, mu=10.0)
        labels = ["a"] * 6 + ["b"] * 6
        cfg = DenoiseConfig(knn_k=3, k1=1, k2=4)
        baseline = denoise_dataset(LabeledFeatures(np.vstack([Fa, Fb]), labels), cfg)
        perturbed = denoise_dataset(
            LabeledFeatures(np.vstack([Fa, Fb[::-1]]), labels), cfg
        )
        assert np.array_equal(
            baseline.features[:6], perturbed.features[:6]
        ), "class a output must not depend on class b rows"

    def test_identity_config_leaves_dataset_unchanged(self):
        rng = np.random.default_rng(6)
        F = gaussian_class(rng, 10, 3)
        labels = ["a"] * 5 + ["b"] * 5
        out = denoise_dataset(LabeledFeatures(F, labels), DenoiseConfig(k1=5, k2=5))
        np.testing.assert_allclose(out.features, F, atol=1e-10)

    def test_small_class_passes_through_with_warning(self):
        rng = np.random.default_rng(7)
        F = gaussian_class(rng, 4, 3)
        labels = ["solo", "pair", "pair", "pair"]
        with pytest.warns(SmallClassWarning):
            out = denoise_dataset(LabeledFeatures(F, labels), DenoiseConfig(k1=1, k2=2))
        np.testing.assert_allclose(out.features[0], F[0])
        assert not np.allclose(out.features[1:], F[1:])

    def test_labels_and_row_order_unchanged(self):
        rng = np.random.default_rng(8)
        F = gaussian_class(rng, 9, 3)
        labels = ["b", "a", "b", "a", "b", "a", "b", "a", "b"]
        out = denoise_dataset(LabeledFeatures(F, labels), DenoiseConfig(knn_k=2, k1=1, k2=2))
        assert list(out.labels) == labels

    def test_variance_contraction_toward_rank1(self):
        # Complete graph + rank-1 filter: pooled variance of filtered rows
        # across trials approaches sigma^2 * d / m.
        rng = np.random.default_rng(9)
        m, d, trials = 20, 8, 1000
        cfg = DenoiseConfig(k1=1, k2=1, graph_kind="complete")
        raw_rows, filt_rows = [], []
        for _ in range(trials):
            F = gaussian_class(rng, m, d)
            raw_rows.append(F)
            filt_rows.append(denoise_class(F, cfg))
        raw_trace = np.vstack(raw_rows).var(axis=0, ddof=1).sum()
        filt_trace = np.vstack(filt_rows).var(axis=0, ddof=1).sum()
        assert raw_trace == pytest.approx(d, rel=0.10)
        assert filt_trace == pytest.approx(d / m, rel=0.10)


# Labels of 12 rows: contiguous classes (read as views), interleaved ones
# (gathered), and 1-row classes mixed into both.
LAYOUTS = {
    "contiguous": ["a"] * 5 + ["b"] * 4 + ["c"] * 3,
    "interleaved": ["b", "a", "b", "a", "c", "a", "b", "c", "a", "c", "b", "a"],
    "one-row": ["x", "a", "a", "a", "a", "y", "b", "b", "b", "b", "b", "z"],
}


def warning_lines(record):
    return [(w.category, str(w.message)) for w in record]


class TestDenoiseDatasetMemory:
    """denoise_dataset writes each class into `out`: a fresh array by
    default, the loaded matrix itself when that is passed."""

    CFG = DenoiseConfig(knn_k=2, k1=1, k2=2)

    def dataset(self, layout, seed=11):
        labels = LAYOUTS[layout]
        F = gaussian_class(np.random.default_rng(seed), len(labels), 3)
        return LabeledFeatures(F, labels)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_default_leaves_input_untouched(self, layout):
        data = self.dataset(layout)
        before = data.features.copy(), data.labels.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallClassWarning)
            out = denoise_dataset(data, self.CFG)
        assert data.features.tobytes() == before[0].tobytes()
        assert list(data.labels) == list(before[1])
        assert not np.shares_memory(out.features, data.features)
        assert not np.shares_memory(out.labels, data.labels)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_in_place_matches_default_bit_exactly(self, layout):
        data = self.dataset(layout)
        with warnings.catch_warnings(record=True) as fresh_warnings:
            warnings.simplefilter("always")
            fresh = denoise_dataset(data, self.CFG)
        with warnings.catch_warnings(record=True) as in_place_warnings:
            warnings.simplefilter("always")
            in_place = denoise_dataset(data, self.CFG, out=data.features)
        assert in_place.features is data.features
        assert in_place.features.tobytes() == fresh.features.tobytes()
        assert list(in_place.labels) == LAYOUTS[layout]
        assert warning_lines(in_place_warnings) == warning_lines(fresh_warnings)
        if layout == "one-row":
            assert warning_lines(fresh_warnings) == [
                (SmallClassWarning, f"class {c!r} has fewer than 2 samples; passed through unfiltered")
                for c in "xyz"
            ]

    def test_in_place_holds_no_second_copy(self):
        """Many contiguous classes filtered in place allocate far less than
        the dataset; the default allocates one output matrix."""
        labels = np.repeat([f"c{c:03d}" for c in range(100)], 20)
        data = LabeledFeatures(gaussian_class(np.random.default_rng(12), 2000, 64), labels)
        cfg = DenoiseConfig(knn_k=5, k1=2, k2=6)
        denoise_dataset(LabeledFeatures(data.features[:20], labels[:20]), cfg)  # warm caches
        peaks = []
        for out in (None, data.features):
            tracemalloc.start()
            try:
                denoise_dataset(data, cfg, out=out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        fresh, in_place = peaks
        assert data.features.nbytes <= fresh < 1.5 * data.features.nbytes
        assert in_place < 0.25 * data.features.nbytes

    def test_failing_class_leaves_out_partly_written(self):
        """Classes are filtered in label order; the one holding a zero row
        raises, after the classes before it were written."""
        rng = np.random.default_rng(13)
        F = gaussian_class(rng, 12, 3, mu=1.0)
        F[5] = 0.0
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        data = LabeledFeatures(F.copy(), labels)
        expected_a = denoise_class(F[:4], self.CFG)
        with pytest.raises(ZeroVector):
            denoise_dataset(data, self.CFG, out=data.features)
        assert data.features[:4].tobytes() == expected_a.tobytes()
        assert data.features[4:].tobytes() == F[4:].tobytes()


class TestFilteringErrorsNameClassAndRow:
    """A class's typed error is raised again naming the class and, for an
    error at one of its rows, that row."""

    CFG = DenoiseConfig(knn_k=1, k1=1, k2=2)

    def data(self):
        F = gaussian_class(np.random.default_rng(14), 9, 3, mu=1.0)
        F[6] = 0.0
        return LabeledFeatures(F, ["a", "b", "a", "b", "a", "c", "b", "c", "c"])

    def test_zero_row(self):
        with pytest.raises(ZeroVector) as exc:
            denoise_dataset(self.data(), self.CFG)
        assert str(exc.value) == "class 'b', row 6: feature row has zero norm"
        assert (exc.value.index, exc.value.label) == (6, "b")
        assert str(exc.value.__cause__) == "feature row 2 has zero norm"

    def test_row_named_by_the_caller(self):
        with pytest.raises(ZeroVector, match=r"^class 'b', line 17: feature row has zero norm$"):
            denoise_dataset(self.data(), self.CFG, row_name=lambda i: f"line {i + 11}")

    def test_isolated_vertex(self):
        """Mutually orthogonal rows keep only 0.0 edges in a 1-NN graph."""
        F = np.vstack([np.eye(3), np.ones((3, 3)) + np.eye(3)])
        data = LabeledFeatures(F, ["o", "o", "o", "p", "p", "p"])
        with pytest.raises(IsolatedVertex) as exc:
            denoise_dataset(data, self.CFG, out=data.features)
        assert str(exc.value) == "class 'o', row 0: vertex has zero degree"
        back = pickle.loads(pickle.dumps(exc.value))
        assert (type(back), str(back), back.index, back.label) == (
            IsolatedVertex, str(exc.value), 0, "o"
        )

    def test_non_finite_row(self):
        data = self.data()
        data.features[6] = [1.0, np.nan, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                denoise_dataset(data, self.CFG)
        assert str(exc.value) == "class 'b', row 6: non-finite feature value"
        assert (exc.value.row, exc.value.label) == (6, "b")
        assert str(exc.value.__cause__) == "feature row 2: non-finite feature value"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_of_a_one_row_class(self, bad):
        """A class too small to filter is still checked, before it would be
        passed through with a warning."""
        F = self.data().features
        F[6] = [1.0, 2.0, 3.0]
        F[5, 2] = bad
        data = LabeledFeatures(F, ["a", "b", "a", "b", "a", "solo", "b", "c", "c"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                denoise_dataset(data, self.CFG)
        assert str(exc.value) == "class 'solo', row 5: non-finite feature value"
        assert (exc.value.row, exc.value.label) == (5, "solo")

    def test_error_without_a_row_names_the_class(self, monkeypatch):
        def fail(F, cfg):
            raise InvalidRange("no luck")

        monkeypatch.setattr(gfdenoise.denoise, "denoise_class", fail)
        with pytest.raises(InvalidRange, match=r"^class 'a': no luck$"):
            denoise_dataset(self.data(), self.CFG)


def batch_ends_reference(labels, min_rows):
    """batch_ends by its definition: walk the rows, tracking the classes
    still to be completed, and end a batch at the first row that completes
    them all once it holds min_rows rows."""
    remaining = {label: labels.count(label) for label in labels}
    open_classes, ends, start = set(), [], 0
    for i, label in enumerate(labels):
        remaining[label] -= 1
        open_classes.add(label)
        if remaining[label] == 0:
            open_classes.discard(label)
        if not open_classes and i + 1 - start >= min_rows:
            ends.append(i + 1)
            start = i + 1
    if start < len(labels):
        ends.append(len(labels))
    return ends


class TestBatchEnds:
    def test_grouped_classes_split_at_class_boundaries(self, monkeypatch):
        monkeypatch.setattr(gfdenoise.denoise, "DENOISE_BATCH_BYTES", 3 * 8 * 4)
        labels = ["a"] * 2 + ["b"] * 2 + ["c"] * 3 + ["d"]
        assert batch_ends(labels, 4) == [4, 7, 8]

    def test_interleaved_classes_make_one_batch(self, monkeypatch):
        monkeypatch.setattr(gfdenoise.denoise, "DENOISE_BATCH_BYTES", 8)
        assert batch_ends(["a", "b", "a", "c", "b", "c"], 1) == [6]
        assert batch_ends(["a", "b", "b", "a", "c", "c", "d"], 1) == [4, 6, 7]

    def test_no_rows_no_batches(self):
        assert batch_ends([], 3) == []

    def test_default_batch_holds_a_mebibyte(self):
        labels = np.repeat([f"c{c:03d}" for c in range(200)], 50)
        ends = batch_ends(labels, 128)
        rows = np.diff([0, *ends])
        assert ends[-1] == 10000 and (rows[:-1] * 128 * 8 >= 2**20).all()
        assert len(ends) == 10 and set(rows[:-1]) == {1050}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abcdef"), max_size=30), st.integers(1, 5),
           st.integers(0, 4))
    def test_matches_the_definition(self, labels, min_rows, d):
        """Every batch holds whole classes; every batch but the last holds
        at least DENOISE_BATCH_BYTES of features; each ends at the first
        row that allows it."""
        bytes_per_row = max(8 * d, 1)
        original = gfdenoise.denoise.DENOISE_BATCH_BYTES
        gfdenoise.denoise.DENOISE_BATCH_BYTES = min_rows * bytes_per_row
        try:
            ends = batch_ends(labels, d)
        finally:
            gfdenoise.denoise.DENOISE_BATCH_BYTES = original
        assert ends == batch_ends_reference(labels, min_rows)
        starts = [0, *ends[:-1]]
        batches = [set(labels[a:b]) for a, b in zip(starts, ends)]
        assert all(not (x & y) for i, x in enumerate(batches) for y in batches[i + 1:])
