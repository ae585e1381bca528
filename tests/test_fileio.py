"""Feature file format and report round-trip tests."""

import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from text_reference import load_text_per_line, save_text_per_value

from gfdenoise.data import LabeledFeatures
from gfdenoise.errors import (
    BadMagic,
    GfdError,
    InconsistentDimension,
    NonFiniteValue,
    ParseError,
    TruncatedFile,
)
from gfdenoise.fileio import (
    MAGIC,
    emit_report,
    load_features_binary,
    load_features_text,
    load_report,
    save_features_binary,
    save_features_text,
)


def random_dataset(rng, n=None, d=None):
    n = n or int(rng.integers(1, 40))
    d = d or int(rng.integers(1, 12))
    labels = [f"class{rng.integers(0, 5)}" for _ in range(n)]
    scale = 10.0 ** rng.integers(-8, 9)
    return LabeledFeatures(scale * rng.standard_normal((n, d)), labels)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTextFormat:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# comment\na,1.0,2.0\nb,3.0,4.0\n")
        data = load_features_text(path)
        assert data.n == 2 and data.d == 2
        assert list(data.labels) == ["a", "b"]
        np.testing.assert_allclose(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_line_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,1.0,2.0\nb,3.0\n")
        with pytest.raises(InconsistentDimension) as exc:
            load_features_text(path)
        assert exc.value.line == 2

    def test_comments_only_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# nothing\n# here\n")
        with pytest.raises(ParseError):
            load_features_text(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,1.0,oops\n")
        with pytest.raises(ParseError):
            load_features_text(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"# header\na,1.0,2.0\n\nb,3.0,{token}\nc,5.0,6.0\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_features_text(path)
        assert isinstance(exc.value, GfdError)
        assert exc.value.line == 4 and exc.value.row == 1
        assert "line 4" in str(exc.value)

    def test_round_trip_is_float_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(20):
            data = random_dataset(rng)
            path = tmp_path / f"rt{i}.csv"
            save_features_text(path, data)
            back = load_features_text(path)
            assert np.array_equal(back.features, data.features)
            assert list(back.labels) == list(data.labels)

    @pytest.mark.parametrize("label", ["a,b", "#a", " a", "\ta", "\xa0x", "a\nb", "a\rb", "a\r"])
    def test_unrepresentable_label_rejected_before_writing(self, tmp_path, label):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        data = LabeledFeatures([[1.0], [2.0]], ["ok", label])
        with pytest.raises(ValueError, match="not representable in text format"):
            save_features_text(path, data)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("label", ["", "a ", "a b", "a#", "é\u2028x", "a\tb"])
    def test_representable_labels_round_trip(self, tmp_path, label):
        path = tmp_path / "ok.csv"
        save_features_text(path, LabeledFeatures([[1.0, -0.0]], [label]))
        back = load_features_text(path)
        assert list(back.labels) == [label]
        assert back.features.tobytes() == np.array([[1.0, -0.0]]).tobytes()

    def test_zero_columns_rejected_before_writing(self, tmp_path):
        """A d = 0 row would be written as `label,`, which does not load."""
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="d=0"):
            save_features_text(path, LabeledFeatures(np.zeros((2, 0)), ["a", "b"]))
        assert path.read_text() == "kept\n"
        # The binary format carries the same matrix.
        bpath = tmp_path / "out.bin"
        save_features_binary(bpath, LabeledFeatures(np.zeros((2, 0)), ["a", "b"]))
        back = load_features_binary(bpath)
        assert back.features.shape == (2, 0) and list(back.labels) == ["a", "b"]

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n", " \t\r\n"])
    def test_no_data_raises_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data lines in file"):
                load_features_text(path)

    def test_loader_holds_no_python_float_per_value(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = np.repeat([f"c{c:02d}" for c in range(40)], 100)
        path = tmp_path / "big.csv"
        save_features_text(path, LabeledFeatures(rng.standard_normal((4000, 64)), labels))
        tracemalloc.start()
        try:
            data = load_features_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.features.shape == (4000, 64)
        assert peak < 3 * data.features.nbytes


def text_outcome(load, path):
    """The features' bits and the labels a loader returns, or the type,
    message, line and row of the GfdError it raises."""
    try:
        data = load(path)
    except GfdError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "row", None)
    return data.features.shape, data.features.tobytes(), data.labels.tolist()


def same_outcome_as_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        got = text_outcome(load_features_text, path)
        assert got == text_outcome(load_text_per_line, path)
    return got


EDGE_FLOATS = [
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
LABELS = st.text(alphabet="ab9_.-é #", max_size=5).filter(
    lambda s: not s.startswith("#") and not s[:1].isspace()
)


@st.composite
def tables(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    features = draw(hnp.arrays(np.float64, (n, d), elements=FINITE))
    return LabeledFeatures(features, draw(st.lists(LABELS, min_size=n, max_size=n)))


# Spellings of a value, each parsed by float(); the last two hold an
# underscore or full-width digits, which np.loadtxt does not take.
VALUE_SPELLINGS = [
    lambda v: repr(v),
    lambda v: f"{v:.17g}",
    lambda v: f"{v:.3e}",
    lambda v: f"{v:+.5E}",
    lambda v: f"{round(v)}",
    lambda v: f"{round(v)}.",
    lambda v: f"{round(v)}\u2003",
    lambda v: f"\xa0{v}",
    lambda v: f"{round(v):_}",
    lambda v: str(round(v)).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
]
PADDING = ["", " ", "\t", "  \t"]
NEWLINES = ["\n", "\r\n", "\r"]
FILLER_LINES = ["", "   ", "\t", "# comment", "  #a,1,2", "#"]
# Values the per-line parser rejects, or keeps as non-finite.
BAD_VALUES = ["oops", "", " ", "1.0#x", '"1.0"', "'1'", "1e400", "-1e999", "nan", "-inf",
              "Infinity", "1.0.0", "1e", "0x10", "1d5", "1 2", "1\x1c", "\x1f2", "--1", "1__0"]


@st.composite
def text_files(draw, bad_rows: bool):
    """A feature file in any layout the format allows, its data rows valid
    or, with bad_rows, some of them malformed in one of the ways above."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    newline = draw(st.sampled_from(NEWLINES))
    lines = []
    for _ in range(n):
        lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
        width = d
        if bad_rows and draw(st.integers(0, 3)) == 0:
            width = draw(st.sampled_from([d - 1, d, d + 1]))
        values = []
        for v in draw(st.lists(st.floats(-1e6, 1e6), min_size=width, max_size=width)):
            spell = draw(st.sampled_from(VALUE_SPELLINGS))(v)
            values.append(draw(st.sampled_from(PADDING)) + spell + draw(st.sampled_from(PADDING)))
        if bad_rows and values and draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(BAD_VALUES))
        label = draw(st.sampled_from(["a", "b", "", "x y", "é"]))
        lead, trail = draw(st.sampled_from(PADDING)), draw(st.sampled_from(PADDING))
        lines.append(lead + ",".join([label] + values) + trail)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestMatchesTextReference:
    """The bulk reader and the row-format writer against the per-line parser
    and per-value writer that define the text format."""

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_writer_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            save_features_text(got, data)
            save_text_per_value(want, data)
            assert got.read_bytes() == want.read_bytes()
            back = load_features_text(got)
        assert back.features.tobytes() == data.features.tobytes()
        assert back.labels.tolist() == data.labels.tolist()

    def test_writer_bytes_at_the_float64_edges(self, tmp_path):
        data = LabeledFeatures([EDGE_FLOATS, EDGE_FLOATS[::-1]], ["a", "b"])
        save_features_text(tmp_path / "got.csv", data)
        save_text_per_value(tmp_path / "want.csv", data)
        text = (tmp_path / "got.csv").read_text()
        assert text == (tmp_path / "want.csv").read_text()
        assert text.startswith("a,-0,4.9406564584124654e-324,")
        assert "1.7976931348623157e+308" in text

    @settings(max_examples=200, deadline=None)
    @given(text_files(bad_rows=False))
    def test_valid_layouts_load_identically(self, text):
        got = same_outcome_as_reference(text)
        assert not isinstance(got[0], type), got

    @settings(max_examples=250, deadline=None)
    @given(text_files(bad_rows=True))
    def test_malformed_files_raise_identically(self, text):
        same_outcome_as_reference(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789.,-+eE#anif _\t\r\n\x1c\xa0１", max_size=40))
    def test_arbitrary_text_loads_or_raises_identically(self, text):
        same_outcome_as_reference(text)

    @pytest.mark.parametrize("bad", BAD_VALUES + ["missing", "extra", "label only", "1_0"])
    def test_bad_row_after_a_chunk_of_good_ones(self, bad):
        rng = np.random.default_rng(4)
        good = [f"c{i % 7}," + ",".join(f"{v:.17g}" for v in row)
                for i, row in enumerate(rng.standard_normal((600, 3)))]
        bad_row = {
            "missing": "z,1,2",
            "extra": "z,1,2,3,4",
            "label only": "z",
        }.get(bad, f"z,1,{bad},3")
        text = "\n".join(good[:550] + [bad_row] + good[550:]) + "\n"
        got = same_outcome_as_reference(text)
        if bad == "1_0":
            assert got[0] == (601, 3)
        else:
            assert got[0] in (ParseError, InconsistentDimension, NonFiniteValue)
            assert got[2] == 551

    @pytest.mark.parametrize("text", [
        "a,1.0,2.0\r\nb,3.0,4.0\r\n",
        "\n# head\n\n a , 1.0 ,\t2.0\t\n\n#b,9,9\nb,\t3.0 , 4.0  \n\n",
        "only,5e-324",
        "x,1_0,١٢",
    ])
    def test_layouts(self, text):
        got = same_outcome_as_reference(text)
        assert not isinstance(got[0], type), got


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            data = random_dataset(rng)
            path = tmp_path / f"rt{i}.bin"
            save_features_binary(path, data)
            back = load_features_binary(path)
            assert back.features.tobytes() == data.features.tobytes()
            assert list(back.labels) == list(data.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_features_binary(path, LabeledFeatures([[1.0, 2.0]], ["a"]))
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_features_binary(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.bin"
        save_features_binary(path, LabeledFeatures([[1.0, 2.0], [3.0, 4.0]], ["a", "b"]))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedFile):
            load_features_binary(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(MAGIC + b"\0\0")
        with pytest.raises(TruncatedFile):
            load_features_binary(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        save_features_binary(path, LabeledFeatures([[1.0]], ["a"]))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncatedFile):
            load_features_binary(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, tmp_path, value):
        features = np.arange(12.0).reshape(4, 3)
        features[2, 1] = value
        features[3, 0] = value
        path = tmp_path / "bad.bin"
        save_features_binary(path, LabeledFeatures(features, ["a", "b", "c", "d"]))
        with pytest.raises(NonFiniteValue) as exc:
            load_features_binary(path)
        assert exc.value.row == 2 and exc.value.line is None
        assert "row 2" in str(exc.value)

    @pytest.mark.parametrize(
        "labels", [["é", "a"], ["日本", "ß", "a"], ["x\u2028y", "", "€uro"]]
    )
    def test_utf8_labels_round_trip(self, tmp_path, labels):
        """Labels are UTF-8 and the label width counts bytes, as the text
        format carries them."""
        data = LabeledFeatures(np.arange(len(labels) * 2.0).reshape(-1, 2), labels)
        path = tmp_path / "utf8.bin"
        save_features_binary(path, data)
        back = load_features_binary(path)
        assert list(back.labels) == labels
        assert back.features.tobytes() == data.features.tobytes()
        width = max(len(label.encode("utf-8")) for label in labels)
        assert path.stat().st_size == 28 + len(labels) * width + data.features.nbytes
        tpath = tmp_path / "utf8.csv"
        save_features_text(tpath, data)
        assert list(load_features_text(tpath).labels) == labels

    def test_ascii_layout_unchanged(self, tmp_path):
        """An ASCII file reads and writes the same bytes as before."""
        path = tmp_path / "ascii.bin"
        save_features_binary(path, LabeledFeatures([[1.5], [2.0]], ["ab", "c"]))
        header = MAGIC + (2).to_bytes(8, "little") + (1).to_bytes(8, "little")
        header += (2).to_bytes(4, "little")
        expected = header + b"abc\0" + np.array([1.5, 2.0], dtype="<f8").tobytes()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrices_round_trip(self, tmp_path, shape):
        labels = [f"r{i}" for i in range(shape[0])]
        path = tmp_path / "empty.bin"
        save_features_binary(path, LabeledFeatures(np.zeros(shape), labels))
        back = load_features_binary(path)
        assert back.features.shape == shape and list(back.labels) == labels
        assert path.stat().st_size == 28 + shape[0] * 2

    def test_non_contiguous_features_written_in_row_order(self, tmp_path):
        features = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        path = tmp_path / "fortran.bin"
        save_features_binary(path, LabeledFeatures(features, list("abcd")))
        assert load_features_binary(path).features.tobytes() == np.arange(12.0).tobytes()

    # 4,000 x 128 float64: a 4 MB payload. The labels' Python strings add
    # about 6% on load; a copy of the payload would add 100%.
    N, D = 4000, 128

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "big.bin"
        labels = [f"c{i % 7}" for i in range(self.N)]
        save_features_binary(path, LabeledFeatures(np.ones((self.N, self.D)), labels))
        peak = traced_peak(lambda: load_features_binary(path))
        assert peak < 1.25 * self.N * self.D * 8

    def test_save_holds_one_copy_of_the_payload(self, tmp_path):
        """The peak counts the features array itself, made inside the trace."""
        path = tmp_path / "big.bin"
        labels = [f"c{i % 7}" for i in range(self.N)]
        peak = traced_peak(lambda: save_features_binary(
            path, LabeledFeatures(np.ones((self.N, self.D)), labels)
        ))
        assert peak < 1.25 * self.N * self.D * 8
        assert path.stat().st_size == 28 + self.N * 2 + self.N * self.D * 8

    def test_matches_text_loader_contents(self, tmp_path):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, n=12, d=5)
        tpath, bpath = tmp_path / "x.csv", tmp_path / "x.bin"
        save_features_text(tpath, data)
        save_features_binary(bpath, data)
        t, b = load_features_text(tpath), load_features_binary(bpath)
        assert np.array_equal(t.features, b.features)
        assert list(t.labels) == list(b.labels)


class TestReports:
    def test_round_trip_exact_floats(self, tmp_path):
        report = {
            "mode": "eval-fewshot",
            "without_filter": {"mean_accuracy": 0.9399, "ci95_halfwidth": 0.011},
            "with_filter": {"mean_accuracy": 0.9414, "ci95_halfwidth": 0.009},
            "iterations": 2000,
        }
        path = tmp_path / "r.json"
        emit_report(report, path)
        assert load_report(path) == report

    def test_numpy_values_serialized(self, tmp_path):
        report = {
            "mean": np.float64(0.5),
            "count": np.int64(7),
            "vec": np.arange(3.0),
            "flag": np.bool_(True),
        }
        path = tmp_path / "np.json"
        emit_report(report, path)
        back = load_report(path)
        assert back == {"mean": 0.5, "count": 7, "vec": [0.0, 1.0, 2.0], "flag": True}

    def test_empty_results_array(self, tmp_path):
        path = tmp_path / "empty.json"
        emit_report({"mode": "eval-fewshot", "results": []}, path)
        assert load_report(path)["results"] == []

    def test_valid_json_on_disk(self, tmp_path):
        path = tmp_path / "j.json"
        emit_report({"a": 1}, path)
        json.loads(path.read_text())
