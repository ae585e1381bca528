"""Episode sampling and paired evaluation harness tests."""

import warnings

import numpy as np
import pytest
from reference import outcome, per_episode_accuracies

import gfdenoise.episodes
from gfdenoise.data import LabeledFeatures, class_index_map, make_gaussian_pool
from gfdenoise.denoise import DenoiseConfig, SmallClassWarning, denoise_dataset
from gfdenoise.episodes import (
    ClassifierConfig,
    EpisodeSpec,
    confidence_interval,
    paired_accuracies,
    paired_report,
    per_m_seeds,
    run_fewshot_eval,
    sample_episode,
    sweep_shots,
)
from gfdenoise.errors import (
    InsufficientPool,
    InvalidSize,
    IsolatedVertex,
    NonFiniteValue,
    TooFewSamples,
    ZeroVector,
)


@pytest.fixture(scope="module")
def pool():
    return make_gaussian_pool(n_classes=8, per_class=30, dim=16, separation=4.0, seed=0)


class TestSampleEpisode:
    def test_exhaustive_pool_uses_every_sample(self):
        small = make_gaussian_pool(n_classes=3, per_class=4, dim=8, seed=1)
        spec = EpisodeSpec(n_way=3, m_shot=1, q_query=3)
        ep = sample_episode(small, spec, seed=0)
        assert ep.support.n == 3 and ep.query.n == 9
        combined = np.vstack([ep.support.features, ep.query.features])
        assert np.unique(combined, axis=0).shape[0] == 12

    def test_deterministic_per_seed(self, pool):
        spec = EpisodeSpec(n_way=4, m_shot=3, q_query=5)
        a = sample_episode(pool, spec, seed=9)
        b = sample_episode(pool, spec, seed=9)
        assert np.array_equal(a.support.features, b.support.features)
        assert np.array_equal(a.query.features, b.query.features)
        c = sample_episode(pool, spec, seed=10)
        assert not np.array_equal(a.support.features, c.support.features)

    def test_support_query_disjoint(self, pool):
        spec = EpisodeSpec(n_way=5, m_shot=5, q_query=10)
        ep = sample_episode(pool, spec, seed=3)
        support_rows = {tuple(r) for r in ep.support.features}
        assert not any(tuple(r) in support_rows for r in ep.query.features)

    def test_labels_remapped_and_balanced(self, pool):
        spec = EpisodeSpec(n_way=4, m_shot=2, q_query=3)
        ep = sample_episode(pool, spec, seed=4)
        assert sorted(set(ep.support.labels)) == ["0", "1", "2", "3"]
        for label in "0123":
            assert np.sum(ep.support.labels == label) == 2
            assert np.sum(ep.query.labels == label) == 3

    def test_insufficient_pool(self, pool):
        with pytest.raises(InsufficientPool):
            sample_episode(pool, EpisodeSpec(n_way=9, m_shot=1, q_query=1), seed=0)
        with pytest.raises(InsufficientPool):
            sample_episode(pool, EpisodeSpec(n_way=3, m_shot=20, q_query=20), seed=0)

    def test_draws_follow_the_documented_rng_calls(self, pool):
        # One generator per seed: the classes, then each class's rows in
        # draw order, all without replacement. Seeds give the same episodes
        # as this sequence of calls.
        spec = EpisodeSpec(n_way=4, m_shot=3, q_query=5)
        index = list(class_index_map(pool.labels).values())
        for seed in range(5):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(index), size=4, replace=False)
            picks = [index[c][rng.choice(index[c].size, size=8, replace=False)] for c in chosen]
            ep = sample_episode(pool, spec, seed)
            support = pool.features[np.concatenate([p[:3] for p in picks])]
            query = pool.features[np.concatenate([p[3:] for p in picks])]
            assert np.array_equal(ep.support.features, support)
            assert np.array_equal(ep.query.features, query)

    def test_class_selection_is_uniform(self, pool):
        # Each of the 8 classes should be drawn with frequency n_way/8,
        # within 3 standard errors over 10000 episodes.
        spec = EpisodeSpec(n_way=2, m_shot=1, q_query=1)
        episodes = 10_000
        counts = {}
        for child in np.random.SeedSequence(77).spawn(episodes):
            ep = sample_episode(pool, spec, child)
            # recover original classes via the support rows
            for row in ep.support.features:
                match = np.flatnonzero((pool.features == row).all(axis=1))[0]
                counts[str(pool.labels[match])] = counts.get(str(pool.labels[match]), 0) + 1
        p = spec.n_way / 8
        expected = episodes * p
        se = np.sqrt(episodes * p * (1 - p))
        for label, count in counts.items():
            assert abs(count - expected) <= 3 * se, (label, count, expected)


class TestConfidenceInterval:
    def test_constant_values(self):
        mean, hw = confidence_interval([0.4] * 10)
        assert mean == pytest.approx(0.4)
        assert hw == 0.0

    def test_bernoulli_closed_form(self):
        values = np.array([0.0, 1.0] * 5000)
        mean, hw = confidence_interval(values)
        assert mean == pytest.approx(0.5)
        # 1.96 * sqrt(0.25 * 10000/9999) / 100
        expected = 1.96 * np.sqrt(0.25 * 10000 / 9999) / 100.0
        assert hw == pytest.approx(expected, rel=1e-12)
        assert hw == pytest.approx(0.0098, abs=2e-5)

    def test_single_value_rejected(self):
        with pytest.raises(TooFewSamples):
            confidence_interval([0.5])


class TestPairedReport:
    def test_arms_and_delta_use_confidence_interval(self):
        rng = np.random.default_rng(4)
        raw, filt = rng.random(12), rng.random(12)
        report = paired_report(raw, filt)
        for arm, values in (("without_filter", raw), ("with_filter", filt)):
            mean, hw = confidence_interval(values)
            assert report[arm] == {"mean_accuracy": mean, "ci95_halfwidth": hw, "iterations": 12}
        mean, hw = confidence_interval(filt - raw)
        assert report["paired_delta"] == {"mean": mean, "ci95_halfwidth": hw}

    def test_single_value_has_zero_halfwidth(self):
        report = paired_report(np.array([0.25]), np.array([0.75]))
        assert report["without_filter"] == {
            "mean_accuracy": 0.25, "ci95_halfwidth": 0.0, "iterations": 1,
        }
        assert report["with_filter"]["mean_accuracy"] == 0.75
        assert report["paired_delta"] == {"mean": 0.5, "ci95_halfwidth": 0.0}


class TestPerMSeeds:
    def test_prefix_of_the_master_seed_state(self):
        state = np.random.SeedSequence(11).generate_state(4)
        assert per_m_seeds(11, [5, 20, 100]) == [int(s) for s in state[:3]]
        assert per_m_seeds(11, [7]) == [int(state[0])]

    def test_empty(self):
        assert per_m_seeds(11, []) == []


class TestPairedEvaluation:
    def test_identity_filter_makes_arms_identical(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=4, q_query=5)
        cfg = DenoiseConfig(k1=4, k2=4, graph_kind="knn", knn_k=3)
        without, with_ = run_fewshot_eval(
            pool, spec, cfg, ClassifierConfig("ncm", "cosine"), iterations=50, seed=5
        )
        assert without.mean_accuracy == with_.mean_accuracy
        assert without.ci95_halfwidth == with_.ci95_halfwidth
        assert without.iterations == with_.iterations == 50

    @pytest.mark.filterwarnings("ignore::gfdenoise.denoise.SmallClassWarning")
    def test_one_shot_passes_through(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=1, q_query=4)
        acc_raw, acc_filt = paired_accuracies(
            pool, spec, DenoiseConfig(), ClassifierConfig("nn1", "cosine"),
            iterations=40, seed=6,
        )
        assert np.array_equal(acc_raw, acc_filt)

    def test_accuracies_in_unit_interval(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=3, q_query=4)
        acc_raw, acc_filt = paired_accuracies(
            pool, spec, DenoiseConfig(knn_k=2, k1=1, k2=3),
            ClassifierConfig("ncm", "euclidean"), iterations=30, seed=7,
        )
        for acc in (acc_raw, acc_filt):
            assert acc.min() >= 0.0 and acc.max() <= 1.0

    def test_indistinguishable_classes_score_chance(self):
        # All classes share one distribution: accuracy must sit at 1/n_way.
        rng = np.random.default_rng(8)
        pool = LabeledFeatures(
            rng.standard_normal((200, 8)), [str(i % 4) for i in range(200)]
        )
        spec = EpisodeSpec(n_way=4, m_shot=3, q_query=5)
        acc_raw, _ = paired_accuracies(
            pool, spec, DenoiseConfig(knn_k=2, k1=1, k2=3),
            ClassifierConfig("ncm", "euclidean"), iterations=300, seed=9,
        )
        mean, hw = confidence_interval(acc_raw)
        assert abs(mean - 0.25) <= hw

    def test_reproducible_reports(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=3, q_query=4)
        args = (pool, spec, DenoiseConfig(knn_k=2, k1=1, k2=2),
                ClassifierConfig("nn1", "cosine"), 25, 11)
        first = run_fewshot_eval(*args)
        second = run_fewshot_eval(*args)
        assert first[0].mean_accuracy == second[0].mean_accuracy
        assert first[1].mean_accuracy == second[1].mean_accuracy

    def test_config_echo_contains_effective_clipping(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=2, q_query=3)
        without, with_ = run_fewshot_eval(
            pool, spec, DenoiseConfig(knn_k=10, k1=1, k2=4),
            ClassifierConfig("ncm", "cosine"), iterations=5, seed=12,
        )
        assert without.config_echo["denoise"]["k2"] == 2
        assert without.config_echo["denoise"]["knn_k"] == 1
        assert without.config_echo["arm"] == "without_filter"
        assert with_.config_echo["arm"] == "with_filter"


class TestMatchesPerEpisodeReference:
    """paired_accuracies, which evaluates stacked chunks of episodes, equals
    the one-episode-at-a-time definition exactly, errors included."""

    @staticmethod
    def chunk_of(episodes, spec, pool, monkeypatch):
        """Set the chunk budget so that a chunk holds `episodes` episodes."""
        rows = spec.n_way * (spec.m_shot + spec.q_query) * pool.d * pool.features.itemsize
        monkeypatch.setattr(gfdenoise.episodes, "EPISODE_CHUNK_BYTES", episodes * rows)

    @pytest.mark.filterwarnings("ignore::gfdenoise.denoise.SmallClassWarning")
    @pytest.mark.parametrize("iterations", [1, 11])
    @pytest.mark.parametrize("m_shot", [1, 2, 5])
    @pytest.mark.parametrize("graph", ["knn", "complete"])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("kind", ["ncm", "nn1"])
    def test_accuracies_equal(self, pool, monkeypatch, kind, metric, graph, m_shot, iterations):
        # Chunks of 4 episodes: 11 iterations end in a partial chunk.
        spec = EpisodeSpec(n_way=4, m_shot=m_shot, q_query=3)
        self.chunk_of(4, spec, pool, monkeypatch)
        args = (
            pool, spec, DenoiseConfig(knn_k=2, k1=1, k2=3, graph_kind=graph),
            ClassifierConfig(kind, metric), iterations, 21,
        )
        stacked = paired_accuracies(*args)
        reference = per_episode_accuracies(*args)
        for got, want in zip(stacked, reference, strict=True):
            assert np.array_equal(got, want)

    def test_default_chunk_budget(self, pool):
        spec = EpisodeSpec(n_way=5, m_shot=5, q_query=15)
        rows = spec.n_way * 20 * pool.d * 8
        iterations = gfdenoise.episodes.EPISODE_CHUNK_BYTES // rows + 3
        args = (pool, spec, DenoiseConfig(), ClassifierConfig(), iterations, 4)
        for got, want in zip(paired_accuracies(*args), per_episode_accuracies(*args)):
            assert np.array_equal(got, want)

    def test_zero_support_row_raises_as_one_episode_does(self, pool, monkeypatch):
        bad = LabeledFeatures(pool.features.copy(), pool.labels)
        bad.features[np.flatnonzero(pool.labels == pool.labels[0])[::2]] = 0.0
        spec = EpisodeSpec(n_way=3, m_shot=4, q_query=3)
        self.chunk_of(4, spec, pool, monkeypatch)
        args = (bad, spec, DenoiseConfig(), ClassifierConfig(), 30, 2)
        with pytest.raises(ZeroVector) as exc:
            paired_accuracies(*args)
        assert outcome(lambda: per_episode_accuracies(*args)) == (ZeroVector, str(exc.value))

    def test_non_finite_support_row_names_its_pool_row(self, pool, monkeypatch):
        bad = LabeledFeatures(pool.features.copy(), pool.labels)
        nan_rows = np.flatnonzero(pool.labels == pool.labels[0])[::2]
        bad.features[nan_rows, 3] = np.nan
        spec = EpisodeSpec(n_way=3, m_shot=4, q_query=3)
        self.chunk_of(4, spec, pool, monkeypatch)
        args = (bad, spec, DenoiseConfig(), ClassifierConfig(), 30, 2)
        with pytest.raises(NonFiniteValue) as exc:
            paired_accuracies(*args)
        named = [f"class {str(pool.labels[0])!r}, pool row {row}: non-finite feature value"
                 for row in nan_rows]
        assert str(exc.value) in named
        assert outcome(lambda: per_episode_accuracies(*args)) == (NonFiniteValue, str(exc.value))

    def test_zero_width_pool_raises_as_one_episode_does(self):
        """Rows of 0 features make an episode of 0 bytes, which sizes no
        chunk; its support rows have zero norm."""
        pool = LabeledFeatures(np.zeros((40, 0)), np.repeat(list("abcd"), 10))
        args = (pool, EpisodeSpec(n_way=3, m_shot=2, q_query=3), DenoiseConfig(),
                ClassifierConfig(), 5, 0)
        with pytest.raises(ZeroVector) as exc:
            paired_accuracies(*args)
        assert outcome(lambda: per_episode_accuracies(*args)) == (ZeroVector, str(exc.value))

    def test_failed_draw_after_a_failing_episode_of_its_chunk(self, pool, monkeypatch):
        # One class has a zero row and another too few rows. Within a chunk,
        # an episode that raises ZeroVector before the draw that raises
        # InsufficientPool must win, as it does one episode at a time.
        features, labels = pool.features.copy(), pool.labels.copy()
        features[np.flatnonzero(labels == labels[0])] = 0.0
        keep = np.ones(labels.size, dtype=bool)
        keep[np.flatnonzero(labels == labels[-1])[5:]] = False
        bad = LabeledFeatures(features[keep], labels[keep])
        spec = EpisodeSpec(n_way=2, m_shot=3, q_query=3)
        self.chunk_of(8, spec, pool, monkeypatch)
        seen = set()
        for seed in range(12):
            args = (bad, spec, DenoiseConfig(), ClassifierConfig(), 16, seed)
            got = outcome(lambda: paired_accuracies(*args))
            assert got == outcome(lambda: per_episode_accuracies(*args))
            seen.add(got[0])
        assert seen == {ZeroVector, InsufficientPool}

    ERROR_SPEC = EpisodeSpec(n_way=2, m_shot=3, q_query=2)

    @staticmethod
    def faulty_pool(heal=""):
        """Five classes of d = 8. Every support drawn from o raises
        IsolatedVertex (its rows are mutually orthogonal) and from z
        ZeroVector (zero rows); s has 4 rows, too few for an episode
        (InsufficientPool). The classes named in `heal` are made valid: o
        and z get rows like the others, s two more rows, so only the
        episodes that draw them change."""
        labels = np.repeat(["h0", "h1", "o", "s", "z"], [6, 6, 6, 4, 6])
        features = np.abs(np.random.default_rng(0).standard_normal((labels.size, 8))) + 0.5
        if "o" not in heal:
            features[labels == "o"] = np.eye(8)[:6]
        if "z" not in heal:
            features[labels == "z"] = 0.0
        if "s" in heal:
            features, labels = np.vstack([features, np.ones((2, 8))]), np.append(labels, ["s"] * 2)
        return LabeledFeatures(features, labels)

    @pytest.mark.parametrize("seed, first, heal, second", [
        (3, IsolatedVertex, "o", ZeroVector),  # the stack fails first on the zero rows
        (2, ZeroVector, "z", InsufficientPool),
        (0, InsufficientPool, "s", ZeroVector),
    ])
    def test_first_failing_episode_of_one_chunk_wins(self, monkeypatch, seed, first, heal,
                                                     second):
        # One chunk of 8 episodes. Its first failing episode raises `first`;
        # with that fault healed, a later episode of the chunk raises
        # `second`. paired_accuracies must raise the first, as the episodes
        # do one at a time.
        spec, iterations = self.ERROR_SPEC, 8
        self.chunk_of(iterations, spec, self.faulty_pool(), monkeypatch)

        def oracle(pool):
            return outcome(lambda: per_episode_accuracies(
                pool, spec, DenoiseConfig(), ClassifierConfig(), iterations, seed
            ))

        want = oracle(self.faulty_pool())
        assert want[0] is first
        assert oracle(self.faulty_pool(heal))[0] is second
        assert outcome(lambda: paired_accuracies(
            self.faulty_pool(), spec, DenoiseConfig(), ClassifierConfig(), iterations, seed
        )) == want

    def test_one_shot_warns_once_per_call(self, pool):
        spec = EpisodeSpec(n_way=3, m_shot=1, q_query=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            paired_accuracies(pool, spec, DenoiseConfig(), ClassifierConfig(), 3, 0)
            denoise_dataset(sample_episode(pool, spec, 0).support, DenoiseConfig())
        messages = [str(w.message) for w in caught if w.category is SmallClassWarning]
        assert messages == [
            "every support class has fewer than 2 samples; passed through unfiltered",
            "class '0' has fewer than 2 samples; passed through unfiltered",
            "class '1' has fewer than 2 samples; passed through unfiltered",
            "class '2' has fewer than 2 samples; passed through unfiltered",
        ]


class TestSweep:
    def test_empty_sweep(self, pool):
        assert sweep_shots(
            pool, EpisodeSpec(), [], DenoiseConfig(), ClassifierConfig(), 10, 0
        ) == []

    @pytest.mark.filterwarnings("ignore::gfdenoise.denoise.SmallClassWarning")
    def test_sweep_shapes_and_m_echo(self, pool):
        results = sweep_shots(
            pool, EpisodeSpec(n_way=3, q_query=4), [1, 2, 3],
            DenoiseConfig(knn_k=3, k1=1, k2=3), ClassifierConfig("nn1", "cosine"),
            iterations=20, seed=13,
        )
        assert len(results) == 3
        for m, (without, with_) in zip([1, 2, 3], results):
            assert without.config_echo["episode"]["m_shot"] == m
            assert with_.iterations == 20

    def test_invalid_iterations(self, pool):
        with pytest.raises(InvalidSize):
            paired_accuracies(
                pool, EpisodeSpec(n_way=3), DenoiseConfig(), ClassifierConfig(), 0, 0
            )
