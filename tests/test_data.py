"""class_index_map against a per-class comparison."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdenoise.data import class_index_map


def per_class_reference(labels):
    """One `labels == c` scan per class."""
    labels = np.asarray(labels, dtype=np.str_)
    return {str(c): np.flatnonzero(labels == c) for c in np.unique(labels)}


def assert_same_map(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert np.array_equal(got[key], want[key])


# A handful of labels, so classes repeat; non-ASCII and empty labels too.
LABELS = st.sampled_from(["a", "b", "B", "", "é", "日本", "c10", "c2", "x y", "ß"])


@settings(max_examples=200, deadline=None)
@given(st.lists(LABELS, max_size=60) | st.lists(st.text(max_size=4), max_size=30))
def test_matches_per_class_reference(labels):
    assert_same_map(class_index_map(labels), per_class_reference(labels))


def test_single_class():
    got = class_index_map(["日本"] * 5)
    assert list(got) == ["日本"] and got["日本"].tolist() == [0, 1, 2, 3, 4]


def test_one_row_classes():
    labels = ["é", "b", "a", "c"]
    got = class_index_map(labels)
    assert {k: v.tolist() for k, v in got.items()} == {"a": [2], "b": [1], "c": [3], "é": [0]}
    assert list(got) == sorted(labels)


def test_no_rows():
    assert class_index_map(np.array([], dtype=np.str_)) == {}


def test_interleaved_classes_keep_row_order():
    got = class_index_map(["b", "a", "b", "a", "b"])
    assert got["a"].tolist() == [1, 3] and got["b"].tolist() == [0, 2, 4]
