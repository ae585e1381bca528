"""Feature file format and report round-trip tests."""

import json

import numpy as np
import pytest

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

    def test_unrepresentable_label_rejected(self, tmp_path):
        data = LabeledFeatures([[1.0]], ["a,b"])
        with pytest.raises(ValueError):
            save_features_text(tmp_path / "bad.csv", data)


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
