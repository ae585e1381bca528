"""Feature file format and report round-trip tests."""

import contextlib
import json
import os
import struct
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from text_reference import load_text_per_line, save_text_per_value

import gfdenoise.fileio
from gfdenoise.cli import run_cli
from gfdenoise.data import LabeledFeatures, make_gaussian_pool
from gfdenoise.errors import (
    BadLabel,
    BadMagic,
    GfdError,
    InconsistentDimension,
    NonFiniteValue,
    NotRegularFile,
    ParseError,
    TruncatedFile,
)
from gfdenoise.fileio import (
    MAGIC,
    FeatureReader,
    emit_report,
    feature_writer,
    load_features,
    load_features_binary,
    load_features_text,
    load_report,
    save_features,
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


def traced_load_binary(path):
    """What load_features_binary returns or the GfdError it raises, and the
    peak bytes that tracemalloc sees allocated meanwhile."""
    tracemalloc.start()
    try:
        try:
            outcome = load_features_binary(path)
        except GfdError as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def no_op_tracer():
    """A trace function that does nothing, installed as pdb or coverage
    installs theirs: every frame's locals are then also held in a dict."""
    def trace(frame, event, arg):
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(before)


class TestUnderTracer:
    """The text reader grows its array in place, which numpy refuses by
    default while anything else references the array, a tracer's frame
    locals included."""

    def test_text_loads_as_untraced(self, tmp_path):
        path = tmp_path / "pool.csv"
        data = random_dataset(np.random.default_rng(8), n=30, d=3)
        save_features_text(path, data)
        with no_op_tracer():
            back = load_features_text(path)
        assert back.features.tobytes() == data.features.tobytes()
        assert back.labels.tolist() == list(data.labels)

    def test_eval_standard_reads_text(self, tmp_path):
        path = tmp_path / "pool.csv"
        save_features_text(path, make_gaussian_pool(n_classes=2, per_class=12, dim=4, seed=0))
        reports = []
        for name, context in (("untraced", contextlib.nullcontext()), ("traced", no_op_tracer())):
            out = tmp_path / f"{name}.json"
            with context:
                code = run_cli(["eval-standard", "--in", str(path), "--out", str(out)])
            assert code == 0, name
            reports.append(json.loads(out.read_text()))
        for report in reports:
            report["config"]["io"].pop("output")
        assert reports[0] == reports[1]


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
        assert peak < 1.75 * data.features.nbytes


def text_outcome(load, path, *args):
    """The features' bits and the labels a loader returns, or the type,
    message, line and row of the GfdError it raises."""
    try:
        data = load(path, *args)
    except GfdError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "row", None)
    return data.features.shape, data.features.tobytes(), data.labels.tolist()


def same_outcome_as_reference(text):
    """The outcome of loading text (or bytes), which must be the
    reference's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
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
# underscore or full-width digits.
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
        """A non-finite value on an early line is reported only once the
        later lines parse, as the reference checks finiteness after
        parsing every line."""
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

    @settings(max_examples=200, deadline=None)
    @given(text_files(bad_rows=False), st.data())
    def test_a_byte_that_is_not_utf8_raises_as_the_reference(self, text, data):
        """Bytes that are not UTF-8, put anywhere in a valid file (inside a
        label, a value, a comment or a multi-byte character), raise the
        ParseError naming the first line that holds one."""
        raw = text.encode("utf-8")
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xe9", b"\xff", b"\x80", b"\xc3", b"\xed\xb2\x80"]))
        got = same_outcome_as_reference(raw[:at] + bad + raw[at:])
        assert got[0] is ParseError and "is not valid UTF-8" in got[1], got

    @pytest.mark.parametrize("fault", ["b,x,2", "b,1", "b,1,2,3", "b", "b,nan,2"])
    @pytest.mark.parametrize("byte_first", [False, True])
    def test_a_value_fault_and_a_bad_byte_raise_in_line_order(self, fault, byte_first):
        """The first faulty line is reported, whichever fault it holds; a
        non-finite value only once every line is read, so the bad byte is."""
        lines = [b"a,1,2", fault.encode(), b"c,1,\xff2", b"d,3,4"]
        if byte_first:
            lines[1], lines[2] = lines[2], lines[1]
        got = same_outcome_as_reference(b"\n".join(lines) + b"\n")
        if byte_first or fault == "b,nan,2":
            line = 2 if byte_first else 3
            assert got[:3] == (ParseError, f"line {line}: byte 0xff is not valid UTF-8", line)
        else:
            assert got[0] in (ParseError, InconsistentDimension) and got[2] == 2, got

    @pytest.mark.parametrize("text", [
        "a,1.0,2.0\r\nb,3.0,4.0\r\n",
        "\n# head\n\n a , 1.0 ,\t2.0\t\n\n#b,9,9\nb,\t3.0 , 4.0  \n\n",
        "only,5e-324",
        "x,1_0,١٢",
    ])
    def test_layouts(self, text):
        got = same_outcome_as_reference(text)
        assert not isinstance(got[0], type), got


def streamed_outcome(path, fmt, ends):
    """text_outcome of reading path with FeatureReader, batch by batch
    (ends given as shares of the row count), the batches concatenated."""
    try:
        with FeatureReader(path, fmt) as reader:
            n = reader.labels.size
            cuts = sorted({min(n, int(share * n)) for share in ends} - {0, n}) + [n]
            parts = [batch for batch, _ in reader.batches(cuts)]
    except GfdError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "row", None)
    features = np.concatenate([b.features for b in parts])
    return features.shape, features.tobytes(), [x for b in parts for x in b.labels.tolist()]


SHARES = st.lists(st.floats(0.0, 1.0), max_size=4)


class TestFeatureReader:
    """Reading a file a batch at a time gives what loading it whole gives."""

    @settings(max_examples=200, deadline=None)
    @given(text_files(bad_rows=False), SHARES)
    def test_text_batches_concatenate_to_the_loaded_file(self, text, shares):
        """Every layout, values only float() takes included, loads batch
        by batch as it loads whole."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            streamed = streamed_outcome(path, "text", shares)
            assert streamed == text_outcome(load_features_text, path)

    @settings(max_examples=200, deadline=None)
    @given(text_files(bad_rows=True), SHARES)
    def test_text_batches_raise_where_loading_raises(self, text, shares):
        """One batch raises what loading raises; several batches raise a
        typed error too, though with several faults it may be another."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            loaded = text_outcome(load_features_text, path)
            assert streamed_outcome(path, "text", []) == loaded
            streamed = streamed_outcome(path, "text", shares)
            assert isinstance(streamed[0], type) == isinstance(loaded[0], type)
            if not isinstance(loaded[0], type):
                assert streamed == loaded

    def test_binary_batches_concatenate_to_the_loaded_file(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(10):
            data = random_dataset(rng)
            path = tmp_path / f"b{i}.bin"
            save_features_binary(path, data)
            for shares in ([], [0.5], [0.1, 0.3, 0.9]):
                assert streamed_outcome(path, "bin", shares) == text_outcome(
                    load_features_binary, path
                )

    def test_batch_rows_are_named_by_line_or_file_row(self, tmp_path):
        data = LabeledFeatures(np.arange(10.0).reshape(5, 2), list("aabbc"))
        for fmt, names in (("text", ["line 5", "line 6"]), ("bin", ["row 2", "row 3"])):
            path = tmp_path / f"f.{fmt}"
            save_features(path, data, fmt)
            if fmt == "text":
                path.write_text("# head\n\n" + path.read_text())
            with FeatureReader(path, fmt) as reader:
                assert reader.labels.tolist() == list("aabbc") and reader.d == 2
                batches = list(reader.batches([2, 4, 5]))
            batch, row_name = batches[1]
            assert batch.labels.tolist() == ["b", "b"]
            assert [row_name(0), row_name(1)] == names

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    def test_non_finite_value_names_its_file_row(self, tmp_path, fmt):
        features = np.ones((6, 2))
        features[4, 1] = np.nan
        path = tmp_path / "f"
        save_features(path, LabeledFeatures(features, list("aabbcc")), fmt)
        with FeatureReader(path, fmt) as reader:
            batches = reader.batches([2, 4, 6])
            next(batches), next(batches)
            with pytest.raises(NonFiniteValue) as exc:
                next(batches)
        assert exc.value.row == 4
        assert exc.value.line == (5 if fmt == "text" else None)

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    def test_label_pass_names_the_line_or_row_that_is_not_utf8(self, tmp_path, fmt):
        """The labels pass, which reads the whole file before any batch,
        raises the error that loading the file raises."""
        path = tmp_path / "f"
        save_features(path, LabeledFeatures(np.ones((4, 2)), ["a", "b", "é", "d"]), fmt)
        path.write_bytes(path.read_bytes().replace("é".encode("utf-8"), b"\xe9x"))
        with pytest.raises(ParseError if fmt == "text" else BadLabel) as exc:
            FeatureReader(path, fmt)
        assert text_outcome(load_features, path, fmt) == (
            type(exc.value), str(exc.value), getattr(exc.value, "line", None),
            getattr(exc.value, "row", None),
        )
        assert str(exc.value) == (
            "line 3: byte 0xe9 is not valid UTF-8" if fmt == "text"
            else "row 2: label byte 0xe9 is not valid UTF-8"
        )
        assert getattr(exc.value, "line" if fmt == "text" else "row") == (3 if fmt == "text" else 2)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_text_that_is_not_a_regular_file_is_refused(self):
        with pytest.raises(NotRegularFile, match="must be a regular file"):
            FeatureReader("/dev/null", "text")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("tail", ["", "cut", "trailing", "2^61 rows"])
    def test_binary_pipe_loads_as_the_file(self, tmp_path, tail):
        """Binary is read once, so a FIFO loads as the file with its bytes
        does, and a short or long payload, or a header claiming far more
        labels than follow, fails as that file fails."""
        path, fifo = tmp_path / "f.bin", tmp_path / "fifo"
        save_features_binary(path, random_dataset(np.random.default_rng(8), n=9, d=3))
        data = path.read_bytes()
        huge = struct.pack("<8sQQI", MAGIC, 2**61, 1, 1) + data[28:]
        path.write_bytes(
            {"": data, "cut": data[:-5], "trailing": data + b"x", "2^61 rows": huge}[tail]
        )
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            outcome = text_outcome(load_features_binary, fifo)
            assert outcome == text_outcome(load_features_binary, path)
            if tail == "2^61 rows":
                assert outcome[:2] == (TruncatedFile, "label block shorter than header implies")
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("tail", ["", "cut", "trailing", "2^48 rows", "2^61 rows"])
    def test_zero_width_labels_pipe_loads_as_the_file(self, tmp_path, tail):
        """With labels of 0 bytes the payload is read before the labels are
        made, so a FIFO still loads as the file with its bytes does, and a
        header claiming far more rows than follow raises TruncatedFile."""
        path, fifo = tmp_path / "f.bin", tmp_path / "fifo"
        payload = np.arange(1.0, 7.0).tobytes()
        n = {"2^48 rows": 2**48, "2^61 rows": 2**61}.get(tail, 3)
        data = struct.pack("<8sQQI", MAGIC, n, 2, 0) + payload
        path.write_bytes({"cut": data[:-5], "trailing": data + b"x"}.get(tail, data))
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        try:
            outcome = text_outcome(load_features_binary, fifo)
            assert outcome == text_outcome(load_features_binary, path)
            if not tail:
                assert outcome == ((3, 2), payload, ["", "", ""])
            elif tail != "trailing":
                assert outcome[:2] == (TruncatedFile, "feature payload shorter than header implies")
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()


class TestFeatureWriter:
    @pytest.mark.parametrize("fmt", ["text", "bin"])
    def test_batches_write_the_bytes_of_one_save(self, tmp_path, fmt, monkeypatch):
        """Rows written batch by batch, and a text batch written a few rows
        per call, give the file that saving all rows at once gives."""
        monkeypatch.setattr(gfdenoise.fileio, "TEXT_CHUNK_BYTES", 2 * 8 * 3)
        data = random_dataset(np.random.default_rng(6), n=11, d=3)
        save_features(tmp_path / "whole", data, fmt)
        header, write_rows = feature_writer(fmt, data.labels, data.d)
        with open(tmp_path / "batched", "wb") as fh:
            fh.write(header)
            for a, b in ((0, 4), (4, 5), (5, 11)):
                write_rows(fh, LabeledFeatures(data.features[a:b], data.labels[a:b]))
        assert (tmp_path / "batched").read_bytes() == (tmp_path / "whole").read_bytes()


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

    def test_labels_of_zero_bytes_load_empty(self, tmp_path):
        path = tmp_path / "w0.bin"
        path.write_bytes(struct.pack("<8sQQI", MAGIC, 3, 2, 0) + np.arange(6.0).tobytes())
        data = load_features_binary(path)
        assert data.labels.tolist() == ["", "", ""] and data.labels.dtype == np.dtype("<U1")
        assert data.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

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


    def test_header_beyond_the_file_raises_before_allocating(self, tmp_path):
        """A 45-byte file whose header claims 2^21 or 2^33 features raises
        TruncatedFile without allocating what the header implies."""
        for d in (2**21, 2**33):
            path = tmp_path / f"d{d}.bin"
            path.write_bytes(struct.pack("<8sQQI", MAGIC, 1, d, 1) + b"a" + bytes(16))
            assert path.stat().st_size == 45
            error, peak = traced_load_binary(path)
            assert str(error) == "feature payload shorter than header implies"
            assert isinstance(error, TruncatedFile) and peak < 64 * 1024

    @pytest.mark.parametrize("n, d, width, message", [
        (2**60, 0, 0, "rows of 0 bytes"),
        (0, 2**60, 1, "more than an array can hold"),
    ])
    def test_header_sizes_no_file_bounds_raise(self, tmp_path, n, d, width, message):
        path = tmp_path / "h.bin"
        path.write_bytes(struct.pack("<8sQQI", MAGIC, n, d, width))
        with pytest.raises(TruncatedFile, match=message):
            load_features_binary(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([MAGIC, b"GFDENSE2"]),
        st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
        st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
        st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
        st.integers(0, 256),
    )
    def test_any_header_raises_only_typed_errors_within_the_file_size(
        self, magic, n, d, width, body
    ):
        """Whatever n, d and width a header claims, loading the file either
        succeeds or raises a GfdError, and allocates about the file's size
        at most."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.bin"
            path.write_bytes(struct.pack("<8sQQI", magic, n, d, width) + bytes(body))
            outcome, peak = traced_load_binary(path)
            assert isinstance(outcome, (GfdError, LabeledFeatures)), outcome
            if isinstance(outcome, LabeledFeatures):
                assert outcome.features.shape == (n, d)
            assert peak <= path.stat().st_size + 64 * 1024


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
