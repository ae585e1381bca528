"""NCM and 1-NN classifier tests."""

import numpy as np
import pytest
from reference import classify_labels

from gfdenoise.classify import ClassifierConfig, ncm_fit, ncm_predict, nn1_predict, predict
from gfdenoise.data import LabeledFeatures, class_index_map
from gfdenoise.episodes import classify_episode
from gfdenoise.errors import DimensionMismatch, EmptyClass


def blobs(rng, centers, per_class, sigma=1.0):
    rows, labels = [], []
    for i, c in enumerate(centers):
        rows.append(np.asarray(c) + sigma * rng.standard_normal((per_class, len(c))))
        labels.extend([str(i)] * per_class)
    return LabeledFeatures(np.vstack(rows), labels)


class TestNcmFit:
    def test_singletons_are_their_own_centroids(self):
        train = LabeledFeatures([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])
        model = ncm_fit(train)
        np.testing.assert_allclose(model.centroids, [[1.0, 2.0], [3.0, 4.0]])
        assert list(model.class_ids) == ["a", "b"]

    def test_midpoint(self):
        train = LabeledFeatures([[0.0, 0.0], [2.0, 2.0]], ["a", "a"])
        np.testing.assert_allclose(ncm_fit(train).centroids, [[1.0, 1.0]])

    def test_centroids_approach_true_means(self):
        rng = np.random.default_rng(0)
        centers = [[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 6.0, 0.0]]
        train = blobs(rng, centers, per_class=100)
        model = ncm_fit(train)
        assert np.all(np.abs(model.centroids - np.asarray(centers)) <= 3.0 / np.sqrt(100))

    def test_empty_training_set(self):
        with pytest.raises(EmptyClass):
            ncm_fit(LabeledFeatures(np.empty((0, 2)), []))


class TestNcmPredict:
    def test_query_at_centroid(self):
        model = ncm_fit(LabeledFeatures([[0.0, 0.0], [5.0, 5.0]], ["a", "b"]))
        assert ncm_predict(model, np.array([[5.0, 5.0]]))[0] == "b"

    def test_equidistant_breaks_to_lowest_class(self):
        model = ncm_fit(LabeledFeatures([[0.0, 0.0], [2.0, 0.0]], ["0", "1"]))
        assert ncm_predict(model, np.array([[1.0, 0.0]]))[0] == "0"

    def test_separable_blobs(self):
        # class means 6 sigma apart
        rng = np.random.default_rng(1)
        train = blobs(rng, [[0.0, 0.0], [6.0, 0.0]], per_class=200)
        query = blobs(rng, [[0.0, 0.0], [6.0, 0.0]], per_class=200)
        model = ncm_fit(train)
        acc = np.mean(ncm_predict(model, query.features) == query.labels)
        assert acc >= 0.95

    def test_dimension_mismatch(self):
        model = ncm_fit(LabeledFeatures([[0.0, 0.0]], ["a"]))
        with pytest.raises(DimensionMismatch):
            ncm_predict(model, np.zeros((1, 3)))


class TestNn1Predict:
    def test_exact_match(self):
        train = LabeledFeatures([[1.0, 1.0], [4.0, 4.0]], ["a", "b"])
        assert nn1_predict(train, np.array([[4.0, 4.0]]))[0] == "b"

    def test_single_training_sample(self):
        train = LabeledFeatures([[0.0, 0.0]], ["only"])
        preds = nn1_predict(train, np.random.default_rng(2).standard_normal((5, 2)))
        assert list(preds) == ["only"] * 5

    def test_tie_breaks_to_lowest_training_index(self):
        train = LabeledFeatures([[1.0, 0.0], [-1.0, 0.0]], ["first", "second"])
        assert nn1_predict(train, np.array([[0.0, 0.0]]))[0] == "first"

    def test_deterministic_self_prediction(self):
        rng = np.random.default_rng(3)
        train = blobs(rng, [[0.0, 0.0], [3.0, 3.0]], per_class=20)
        a = nn1_predict(train, train.features)
        b = nn1_predict(train, train.features)
        assert np.array_equal(a, b)

    def test_empty_training_set(self):
        with pytest.raises(EmptyClass):
            nn1_predict(LabeledFeatures(np.empty((0, 2)), []), np.zeros((1, 2)))


class TestClassifierProperties:
    def test_cosine_metric_is_scale_invariant(self):
        rng = np.random.default_rng(4)
        train = blobs(rng, [[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]], per_class=30)
        query = rng.standard_normal((50, 3)) + 1.0
        model = ncm_fit(train, metric="cosine")
        base_ncm = ncm_predict(model, query)
        base_nn = nn1_predict(train, query, metric="cosine")
        for scale in (0.01, 7.3, 1e4):
            scaled = LabeledFeatures(train.features * scale, train.labels)
            assert np.array_equal(
                ncm_predict(ncm_fit(scaled, metric="cosine"), query * scale), base_ncm
            )
            assert np.array_equal(
                nn1_predict(scaled, query * scale, metric="cosine"), base_nn
            )

    def test_ncm_on_singletons_equals_nn1(self):
        rng = np.random.default_rng(5)
        train = LabeledFeatures(rng.standard_normal((6, 4)), [str(i) for i in range(6)])
        query = rng.standard_normal((40, 4))
        model = ncm_fit(train)
        assert np.array_equal(ncm_predict(model, query), nn1_predict(train, query))

    def test_prediction_invariant_to_training_order(self):
        rng = np.random.default_rng(6)
        train = blobs(rng, [[0.0, 0.0], [5.0, 5.0]], per_class=25)
        query = rng.standard_normal((30, 2)) + 2.5
        perm = rng.permutation(train.n)
        shuffled = LabeledFeatures(train.features[perm], train.labels[perm])
        assert np.array_equal(
            ncm_predict(ncm_fit(train), query), ncm_predict(ncm_fit(shuffled), query)
        )
        assert np.array_equal(
            nn1_predict(train, query), nn1_predict(shuffled, query)
        )


CONFIGS = [
    ClassifierConfig(kind, metric) for kind in ("ncm", "nn1") for metric in ("cosine", "euclidean")
]
CONFIG_IDS = [f"{c.kind}-{c.metric}" for c in CONFIGS]


class TestPredict:
    """classify.predict, the one classifier dispatch, on stacks and on
    labeled sets."""

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_stack_equals_blocks_one_at_a_time(self, cfg):
        rng = np.random.default_rng(7)
        support = rng.standard_normal((2, 6, 12, 5))
        query = rng.standard_normal((6, 9, 5))  # shared by both leading blocks
        class_rows = [slice(0, 3), slice(3, 7), slice(7, 12)]
        stacked = predict(support, class_rows, query, cfg)
        assert stacked.shape == (2, 6, 9)
        for a in range(2):
            for b in range(6):
                one = predict(support[a, b], class_rows, query[b], cfg)
                assert np.array_equal(stacked[a, b], one)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_slices_and_index_arrays_agree(self, cfg):
        rng = np.random.default_rng(8)
        support = rng.standard_normal((4, 15, 3))
        query = rng.standard_normal((4, 20, 3))
        bounds = [(0, 2), (2, 9), (9, 10), (10, 15)]
        by_slice = predict(support, [slice(a, b) for a, b in bounds], query, cfg)
        by_index = predict(support, [np.arange(a, b) for a, b in bounds], query, cfg)
        assert np.array_equal(by_slice, by_index)

    @pytest.mark.parametrize("d", [1, 2, 7])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_ragged_interleaved_classes_match_reference(self, cfg, d):
        rng = np.random.default_rng(9 + d)
        sizes = [1, 4, 11, 2, 9]
        labels = np.repeat([f"c{i}" for i in range(len(sizes))], sizes)
        labels = labels[rng.permutation(labels.size)]
        shift = np.asarray([int(label[1:]) for label in labels], dtype=np.float64)
        support = LabeledFeatures(rng.standard_normal((labels.size, d)) + shift[:, None], labels)
        query = rng.standard_normal((60, d)) * 2.0 + 2.0
        expected = classify_labels(support, query, cfg)
        assert np.array_equal(classify_episode(support, query, cfg), expected)
        index = class_index_map(labels)
        positions = predict(support.features, list(index.values()), query, cfg)
        assert np.array_equal(np.asarray(list(index))[positions], expected)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_nn1_tie_goes_to_lowest_original_row(self, metric):
        # Row 0 belongs to class 1 and row 1 to class 0; the query is equally
        # near both, so row 0 wins and the prediction is class 1.
        support = np.array([[1.0, 1.0], [1.0, -1.0], [-5.0, 0.0]])
        class_rows = [np.array([1, 2]), np.array([0])]
        query = np.array([[1.0, 0.0]])
        assert predict(support, class_rows, query, ClassifierConfig("nn1", metric))[0] == 1
        swapped = [np.array([0]), np.array([1, 2])]
        assert predict(support, swapped, query, ClassifierConfig("nn1", metric))[0] == 0

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_ncm_tie_goes_to_lowest_class(self, metric):
        # Class 1's rows come first; both class means are equally near the query.
        support = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        class_rows = [np.array([2]), np.array([0, 1])]
        query = np.array([[1.0, 0.0]])
        assert predict(support, class_rows, query, ClassifierConfig("ncm", metric))[0] == 0

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_no_class_is_empty_class_error(self, cfg):
        with pytest.raises(EmptyClass):
            predict(np.empty((0, 2)), [], np.zeros((1, 2)), cfg)
        with pytest.raises(EmptyClass):
            classify_episode(LabeledFeatures(np.empty((0, 2)), []), np.zeros((1, 2)), cfg)
