"""Configuration precedence and CLI behavior tests."""

import contextlib
import io
import json
import os
import re
import stat
import struct
import subprocess
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
from reference import eval_standard_into_a_fresh_array, outcome, per_episode_accuracies

import gfdenoise
import gfdenoise.cli
import gfdenoise.denoise
from gfdenoise.centroids import GaussianClassSpec, monte_carlo_centroid_stats
from gfdenoise.cli import FLAGS, build_parser, load_run_config, run_cli
from gfdenoise.config import (
    CONFIG_KEYS,
    MODES,
    PoolConfig,
    RunConfig,
    build_run_config,
    config_echo,
    parse_config_file,
)
from gfdenoise.data import LabeledFeatures, make_gaussian_pool
from gfdenoise.denoise import DenoiseConfig, SmallClassWarning, denoise_dataset
from gfdenoise.episodes import (
    ClassifierConfig,
    EpisodeSpec,
    per_m_seeds,
    run_fewshot_eval,
    sweep_shots,
)
from gfdenoise.errors import ConfigError, GfdError, InvalidRange, InvalidSize
from gfdenoise.fileio import (
    load_features,
    load_features_binary,
    load_features_text,
    load_report,
    save_features,
    save_features_text,
)


def small_pool():
    return make_gaussian_pool(n_classes=4, per_class=12, dim=8, separation=5.0, seed=3)


class TestConfigFile:
    def test_parse_flat_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run settings\n"
            "seed = 9\n"
            "denoise.k1 = 2   # inline comment\n"
            "denoise.k2 = 3\n"
        )
        settings = parse_config_file(path)
        assert settings == {"seed": "9", "denoise.k1": "2", "denoise.k2": "3"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_byte_not_utf8_is_config_error(self, tmp_path, capsys):
        path, out = tmp_path / "bad.cfg", tmp_path / "r.json"
        path.write_bytes("# café\niterations = 5\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=r"bad.cfg:1: byte 0xe9 is not valid UTF-8$"):
            parse_config_file(path)
        assert run_cli(["eval-fewshot", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"gfdenoise: config error: {path}:1: byte 0xe9 is not valid UTF-8\n"
        )
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("denoise", {"denoise.bogus": "1"}, {})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config("denoise", {"denoise.k1": "two"}, {})
        with pytest.raises(ConfigError):
            build_run_config("denoise", {"denoise.k1": "5", "denoise.k2": "2"}, {})

    @pytest.mark.parametrize(
        "key,default_value,file_value,flag_value,getter",
        [
            ("seed", "0", "22", "11", lambda c: c.seed),
            ("iterations", "2000", "75", "50", lambda c: c.iterations),
            ("denoise.k1", "1", "2", "3", lambda c: c.denoise.k1),
            ("denoise.k2", "4", "8", "9", lambda c: c.denoise.k2),
            ("denoise.mid_gain", "0.6", "0.5", "0.4", lambda c: c.denoise.mid_gain),
            ("denoise.knn_k", "10", "6", "7", lambda c: c.denoise.knn_k),
            ("denoise.graph", "knn", "complete", "knn", lambda c: c.denoise.graph_kind),
            ("episode.m_shot", "5", "3", "4", lambda c: c.episode.m_shot),
            ("episode.n_way", "5", "4", "6", lambda c: c.episode.n_way),
            ("episode.q_query", "15", "7", "9", lambda c: c.episode.q_query),
            ("classifier.metric", "cosine", "euclidean", "cosine", lambda c: c.classifier.metric),
            ("io.input", "None", "file.csv", "flag.csv", lambda c: c.input_path),
            ("io.output", "None", "file.out", "flag.out", lambda c: c.output_path),
            ("io.format", "text", "bin", "text", lambda c: c.fmt),
        ],
    )
    def test_flag_beats_file_beats_default(
        self, key, default_value, file_value, flag_value, getter
    ):
        # file value always differs from the default, and the flag value
        # from the file value, so each precedence step is observable.
        default_cfg = build_run_config("eval-fewshot", {}, {})
        assert str(getter(default_cfg)) == default_value
        file_cfg = build_run_config("eval-fewshot", {key: file_value}, {})
        assert str(getter(file_cfg)) == file_value
        flag_cfg = build_run_config("eval-fewshot", {key: file_value}, {key: flag_value})
        assert str(getter(flag_cfg)) == flag_value

    def test_mode_defaults_differ(self):
        fewshot = build_run_config("eval-fewshot", {}, {})
        standard = build_run_config("eval-standard", {}, {})
        assert fewshot.classifier.kind == "ncm" and fewshot.classifier.metric == "cosine"
        assert standard.classifier.kind == "nn1" and standard.classifier.metric == "euclidean"
        assert (standard.denoise.k1, standard.denoise.k2) == (20, 55)

    @pytest.mark.parametrize(
        "mode,expected",
        [
            ("denoise", RunConfig("denoise")),
            ("eval-fewshot", RunConfig("eval-fewshot")),
            (
                "eval-standard",
                RunConfig(
                    "eval-standard",
                    denoise=DenoiseConfig(k1=20, k2=55),
                    classifier=ClassifierConfig(kind="nn1", metric="euclidean"),
                    pool=PoolConfig(classes=10, per_class=500),
                ),
            ),
            ("verify-theory", RunConfig("verify-theory", denoise=DenoiseConfig(graph_kind="complete"))),
        ],
    )
    def test_defaults_are_the_dataclass_defaults(self, mode, expected):
        assert build_run_config(mode, {}, {}) == expected

    def test_accepted_keys_match_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        assert len(keys) == 27
        assert set(CONFIG_KEYS) == keys

    def test_classifier_kind_from_file(self):
        cfg = build_run_config("eval-fewshot", {"classifier.kind": "nn1"}, {})
        assert cfg.classifier.kind == "nn1"
        with pytest.raises(ConfigError):
            build_run_config("eval-fewshot", {"classifier.kind": "svm"}, {})


# Per flag-table key: a value other than the default, a bad value, and the
# exit code of the bad value. A path is any text to the config layer, so a
# path that cannot be opened fails as a runtime error when the run opens it.
FLAG_CASES = {
    "seed": ("7", "x", 2),
    "iterations": ("3", "0", 2),
    "denoise.k1": ("2", "x", 2),
    "denoise.k2": ("6", "1.5", 2),
    "denoise.mid_gain": ("0.25", "x", 2),
    "denoise.knn_k": ("3", "0", 2),
    "denoise.graph": ("complete", "foo", 2),
    "episode.m_shot": ("2", "0", 2),
    "episode.n_way": ("3", "1", 2),
    "episode.q_query": ("4", "x", 2),
    "classifier.metric": ("euclidean", "foo", 2),
    "io.input": ("in.csv", "{tmp}/missing.csv", 1),
    "io.output": ("out.json", "{tmp}/missing/report.json", 1),
    "io.format": ("bin", "csv", 2),
}


class TestFlagsAreConfigOverrides:
    """A flag sets its config key's raw text, which is parsed and checked
    exactly as the same key in a config file."""

    def test_table_keys_and_parser(self):
        assert set(FLAG_CASES) == set(FLAGS)
        assert set(FLAGS) <= set(CONFIG_KEYS)
        modes = next(a for a in build_parser()._actions if a.dest == "mode").choices
        for mode, sub in modes.items():
            options = {a.dest: a for a in sub._actions if a.dest != "help"}
            assert set(options) == {"config", *FLAGS}, mode
            for key, action in options.items():
                assert (action.type, action.choices) == (None, None), key
                if key in FLAGS:
                    assert action.option_strings == [FLAGS[key]]

    @staticmethod
    def _file(tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        return str(path)

    @pytest.mark.parametrize("key", list(FLAG_CASES))
    def test_flag_and_file_take_one_path(self, tmp_path, capsys, key):
        good, bad, code = FLAG_CASES[key]
        parse = build_parser().parse_args
        by_flag = load_run_config(parse(["eval-fewshot", FLAGS[key], good]))
        config = self._file(tmp_path, key, good)
        by_file = load_run_config(parse(["eval-fewshot", "--config", config]))
        assert by_flag == by_file != build_run_config("eval-fewshot", {}, {})

        bad = bad.format(tmp=tmp_path)
        out = [] if key == "io.output" else ["--out", str(tmp_path / "report.json")]
        fast = [] if key == "iterations" else ["--iterations", "2"]
        outcomes = []
        for setting in ([FLAGS[key], bad], ["--config", self._file(tmp_path, key, bad)]):
            code_seen = run_cli(["eval-fewshot", *setting, *fast, *out])
            outcomes.append((code_seen, capsys.readouterr().err))
            assert not (tmp_path / "report.json").exists()
        assert outcomes[0] == outcomes[1]
        exit_code, err = outcomes[0]
        assert exit_code == code
        if code == 2:
            assert err.startswith("gfdenoise: config error: ")
            assert key.split(".")[-1] in err

    def test_values_parse_as_int_and_float_do(self):
        parse = build_parser().parse_args
        assert load_run_config(parse(["eval-fewshot", "--seed", " 7"])).seed == 7
        assert load_run_config(parse(["denoise", "--seed", "-1"])).seed == -1
        cfg = load_run_config(parse(["denoise", "--mid-gain", "5e-1", "--k2", " 9 "]))
        assert (cfg.denoise.mid_gain, cfg.denoise.k2) == (0.5, 9)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval-fewshot", "--seed", "x"], "seed must be an integer, got 'x'"),
            (["eval-fewshot", "--metric", "foo"], "metric must be euclidean or cosine, got 'foo'"),
            (["eval-fewshot", "--graph", "foo"], "graph_kind must be knn or complete, got 'foo'"),
            (["eval-fewshot", "--format", "csv"], "io.format must be text or bin, got 'csv'"),
            (["eval-fewshot", "--mid-gain", "x"], "denoise.mid_gain must be a number, got 'x'"),
            (
                ["verify-theory", "--iterations", "1"],
                "iterations must be >= 2 for verify-theory, got 1",
            ),
            (
                ["eval-fewshot", "--iterations", "0"],
                "iterations must be >= 1 for eval-fewshot, got 0",
            ),
            (["eval-fewshot", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["eval-standard", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["verify-theory", "--seed", "-1"], "seed must be >= 0, got -1"),
            (
                ["eval-fewshot", "--config", "classifier.kind = svm"],
                "classifier.kind must be ncm or nn1, got 'svm'",
            ),
        ],
        ids=[
            "seed_text", "metric", "graph", "format", "mid_gain_text",
            "theory_iterations", "fewshot_iterations",
            "fewshot_seed", "standard_seed", "theory_seed", "classifier_kind",
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, argv, message):
        if "--config" in argv:  # the argument after --config is the file's text
            at = argv.index("--config") + 1
            config = tmp_path / "run.cfg"
            config.write_text(argv[at] + "\n")
            argv = [*argv[:at], str(config), *argv[at + 1:]]
        out = tmp_path / "report.json"
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"gfdenoise: config error: {message}\n"
        assert not out.exists()

    def test_unused_settings_stay_accepted(self):
        cfg = build_run_config("denoise", {"seed": "-1", "iterations": "-5"}, {})
        assert (cfg.seed, cfg.iterations) == (-1, -5)
        assert build_run_config("eval-standard", {"iterations": "0"}, {}).iterations == 0
        assert build_run_config("eval-fewshot", {"iterations": "1"}, {}).iterations == 1
        assert build_run_config("verify-theory", {"iterations": "2"}, {}).iterations == 2


class TestPoolConfig:
    """pool.* is checked when the configuration is built, so a bad value
    exits 2 and no report is written."""

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("pool.classes = 0", "pool.classes must be >= 1, got 0"),
            ("pool.per_class = 0", "pool.per_class must be >= 1, got 0"),
            ("pool.dim = 3", "pool.dim must be >= pool.classes = {classes}, got 3"),
            ("pool.classes = 5\npool.dim = 4", "pool.dim must be >= pool.classes = 5, got 4"),
            ("pool.sigma = 0", "pool.sigma must be positive and finite, got 0.0"),
            ("pool.sigma = -1", "pool.sigma must be positive and finite, got -1.0"),
            ("pool.sigma = nan", "pool.sigma must be positive and finite, got nan"),
            ("pool.sigma = inf", "pool.sigma must be positive and finite, got inf"),
            ("pool.separation = -1", "pool.separation must be finite and >= 0, got -1.0"),
            ("pool.separation = nan", "pool.separation must be finite and >= 0, got nan"),
            ("pool.separation = inf", "pool.separation must be finite and >= 0, got inf"),
        ],
        ids=[
            "classes", "per_class", "dim", "dim_below_classes", "sigma_zero",
            "sigma_negative", "sigma_nan", "sigma_inf", "separation_negative",
            "separation_nan", "separation_inf",
        ],
    )
    @pytest.mark.parametrize("mode", ["eval-fewshot", "eval-standard"])
    def test_bad_pool_setting_is_config_error(self, tmp_path, capsys, setting, message, mode):
        cfg = tmp_path / "pool.cfg"
        cfg.write_text(setting + "\n")
        out = tmp_path / "report.json"
        code = run_cli([mode, "--config", str(cfg), "--iterations", "2", "--out", str(out)])
        message = message.format(classes={"eval-fewshot": 20, "eval-standard": 10}[mode])
        assert (code, capsys.readouterr().err) == (2, f"gfdenoise: config error: {message}\n")
        assert not out.exists()

    def test_bounds_at_the_edges(self):
        assert PoolConfig(classes=1, per_class=1, dim=1, separation=0.0, sigma=1e-300)
        with pytest.raises(InvalidSize):
            PoolConfig(classes=3, dim=2)
        with pytest.raises(InvalidRange):
            PoolConfig(sigma=-0.0)

    def test_make_gaussian_pool_keeps_its_own_checks(self):
        with pytest.raises(InvalidSize, match="dim=3 cannot host 20 equidistant class means"):
            make_gaussian_pool(n_classes=20, per_class=1, dim=3)
        with pytest.raises(InvalidSize, match="at least one class and one sample per class"):
            make_gaussian_pool(n_classes=2, per_class=0, dim=4)


class TestCliDenoise:
    def test_denoise_round_trip(self, tmp_path):
        pool = small_pool()
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        save_features_text(src, pool)
        code = run_cli([
            "denoise", "--in", str(src), "--out", str(dst),
            "--knn-k", "10", "--k1", "2", "--k2", "5",
        ])
        assert code == 0
        out = load_features_text(dst)
        expected = denoise_dataset(pool, DenoiseConfig(knn_k=10, k1=2, k2=5, mid_gain=0.6))
        np.testing.assert_allclose(out.features, expected.features, atol=1e-12)
        assert list(out.labels) == list(pool.labels)

    def test_binary_format_flag(self, tmp_path):
        from gfdenoise.fileio import save_features_binary

        pool = small_pool()
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        save_features_binary(src, pool)
        code = run_cli([
            "denoise", "--in", str(src), "--out", str(dst),
            "--format", "bin", "--k1", "1", "--k2", "3",
        ])
        assert code == 0
        assert load_features_binary(dst).n == pool.n

    def test_non_finite_input_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("a,1,2\na,2,1\na,1,1\nb,0,1\nb,nan,2\nb,3,3\n")
        code = run_cli(["denoise", "--in", str(src), "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "line 5: non-finite feature value" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    def test_in_place_output_matches_library(self, tmp_path, fmt):
        """The CLI filters the loaded matrix in place; its file is the one
        the library writes from a fresh output, for interleaved classes too."""
        pool = small_pool()
        order = np.random.default_rng(3).permutation(pool.n)
        for name, data in (("contiguous", pool),
                           ("interleaved", LabeledFeatures(pool.features[order], pool.labels[order]))):
            src, dst, ref = (tmp_path / f"{name}-{kind}" for kind in ("in", "out", "ref"))
            save_features(src, data, fmt)
            argv = ["denoise", "--format", fmt, "--in", str(src), "--out", str(dst),
                    "--knn-k", "4", "--k1", "2", "--k2", "5"]
            assert run_cli(argv) == 0
            cfg = DenoiseConfig(knn_k=4, k1=2, k2=5)
            save_features(ref, denoise_dataset(load_features(src, fmt), cfg), fmt)
            assert dst.read_bytes() == ref.read_bytes()

    def test_failing_class_exits_1_without_output(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("a,1,2\na,2,1\na,1,1\nb,0,0\nb,2,2\nb,3,1\n")
        assert run_cli(["denoise", "--in", str(src), "--out", str(dst), "--knn-k", "1"]) == 1
        assert "zero norm" in capsys.readouterr().err
        assert not dst.exists()

    def test_missing_paths_is_config_error(self):
        assert run_cli(["denoise", "--k1", "1"]) == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        code = run_cli([
            "denoise", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    def test_out_in_missing_directory_names_out(self, tmp_path, capsys):
        src, dst = tmp_path / "in.csv", tmp_path / "missing" / "out.csv"
        save_features_text(src, small_pool())
        assert run_cli(["denoise", "--in", str(src), "--out", str(dst)]) == 1
        assert capsys.readouterr().err == (
            f"gfdenoise: error: --out {dst}: No such file or directory\n"
        )
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_directory_out_is_refused_before_reading(self, tmp_path, capsys, monkeypatch):
        """No input is read, and the directory and its parent are left as
        they were."""
        src, dst = tmp_path / "in.csv", tmp_path / "outdir"
        save_features_text(src, small_pool())
        dst.mkdir()
        (dst / "kept").write_text("x")
        opened = []
        monkeypatch.setattr(gfdenoise.cli, "FeatureReader", lambda *args: opened.append(args))
        assert run_cli(["denoise", "--in", str(src), "--out", str(dst)]) == 1
        assert capsys.readouterr().err == f"gfdenoise: error: --out {dst}: Is a directory\n"
        assert opened == []
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "outdir"]
        assert os.listdir(dst) == ["kept"]


class TestCliFilteringErrors:
    """An error raised while a class is filtered names the class and its
    row: the file line (text), the file row (binary) or the train row
    (eval-standard)."""

    ZERO_ROW = "a,1,2\na,2,1\na,1,1\nb,0,0\nb,2,2\nb,3,1\n"
    # Class o's rows are mutually orthogonal, so its 1-NN graph keeps only
    # 0.0 edges.
    ORTHOGONAL = "p,1,1,2\no,0,1,0\no,1,0,0\no,0,0,1\np,2,1,1\n"

    def run(self, tmp_path, capsys, text, fmt, mode="denoise"):
        src, dst = tmp_path / "in", tmp_path / "out"
        (tmp_path / "in.csv").write_text(text)
        save_features(src, load_features_text(tmp_path / "in.csv"), fmt)
        argv = [mode, "--format", fmt, "--in", str(src), "--out", str(dst),
                "--knn-k", "1", "--k1", "1", "--k2", "2"]
        if mode == "eval-standard":
            (tmp_path / "test.cfg").write_text(f"io.test = {src}\n")
            argv += ["--config", str(tmp_path / "test.cfg")]
        code = run_cli(argv)
        assert not dst.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("fmt, mode, where", [
        ("text", "denoise", "line 4"),
        ("bin", "denoise", "row 3"),
        ("text", "eval-standard", "train row 3"),
    ])
    def test_zero_row(self, tmp_path, capsys, fmt, mode, where):
        assert self.run(tmp_path, capsys, self.ZERO_ROW, fmt, mode) == (
            1, f"gfdenoise: error: class 'b', {where}: feature row has zero norm\n"
        )

    @pytest.mark.parametrize("fmt, mode, where", [
        ("text", "denoise", "line 2"),
        ("bin", "denoise", "row 1"),
        ("bin", "eval-standard", "train row 1"),
    ])
    def test_isolated_vertex(self, tmp_path, capsys, fmt, mode, where):
        assert self.run(tmp_path, capsys, self.ORTHOGONAL, fmt, mode) == (
            1, f"gfdenoise: error: class 'o', {where}: vertex has zero degree\n"
        )


class TestCliInputNotUtf8:
    """A byte that is not UTF-8 is a typed error naming its text line or
    binary row, raised by every reader alike; the exit code is 1."""

    TEXT = "a,1,2\na,2,1\nb\xe9,3,4\nb,4,3\n".encode("latin-1")
    TEXT_ERROR = "gfdenoise: error: line 3: byte 0xe9 is not valid UTF-8\n"

    @pytest.mark.parametrize("mode", ["eval-standard", "denoise"])
    def test_text_file(self, tmp_path, capsys, monkeypatch, mode):
        """denoise fails in its labels pass: no batch is read and --out
        never appears."""
        src, dst = tmp_path / "in.csv", tmp_path / "out"
        src.write_bytes(self.TEXT)
        batches = []
        monkeypatch.setattr(gfdenoise.fileio.FeatureReader, "batches", batches.append)
        assert run_cli([mode, "--in", str(src), "--out", str(dst)]) == 1
        assert capsys.readouterr().err == self.TEXT_ERROR
        assert batches == []
        assert os.listdir(tmp_path) == ["in.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_pipe(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gfdenoise.cli", "eval-standard", "--in", "/dev/stdin",
             "--out", str(tmp_path / "r.json")],
            input=self.TEXT, env=env, capture_output=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr.decode()) == (1, self.TEXT_ERROR)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("mode", ["eval-standard", "denoise"])
    def test_binary_label(self, tmp_path, capsys, mode):
        src, dst = tmp_path / "in.bin", tmp_path / "out"
        save_features(src, LabeledFeatures(np.ones((4, 2)), ["a", "a", "bé", "b"]), "bin")
        src.write_bytes(src.read_bytes().replace("é".encode("utf-8"), b"\xe9x"))
        assert run_cli([mode, "--format", "bin", "--in", str(src), "--out", str(dst)]) == 1
        assert capsys.readouterr().err == (
            "gfdenoise: error: row 2: label byte 0xe9 is not valid UTF-8\n"
        )
        assert os.listdir(tmp_path) == ["in.bin"]


class TestCliZeroWidthInput:
    """The binary format allows rows of 0 features; every mode that reads
    --in refuses them before any filtering, naming --in."""

    EXTRA = {
        "denoise": [],
        "eval-fewshot": ["--n-way", "3", "--m-shot", "2", "--q-query", "3", "--iterations", "5"],
        "eval-standard": [],
    }

    @pytest.mark.parametrize("mode", list(EXTRA))
    def test_refused_before_filtering(self, tmp_path, capsys, monkeypatch, mode):
        src, dst = tmp_path / "in.bin", tmp_path / "out"
        save_features(src, LabeledFeatures(np.zeros((40, 0)), np.repeat(list("abcd"), 10)), "bin")
        filtered = []
        for name in ("denoise_dataset", "paired_accuracies"):
            monkeypatch.setattr(gfdenoise.cli, name, lambda *a, **kw: filtered.append(a))
        argv = [mode, "--format", "bin", "--in", str(src), "--out", str(dst), *self.EXTRA[mode]]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"gfdenoise: error: --in {src}: rows have 0 features\n"
        assert filtered == []
        assert os.listdir(tmp_path) == ["in.bin"]



class TestCliPipedBinaryHeader:
    """No file size bounds a pipe: a binary header claiming more label
    bytes than the pipe holds fails as a file with those bytes fails,
    without first asking for the memory it claims."""

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("mode", ["denoise", "eval-standard"])
    def test_is_a_typed_error(self, tmp_path, mode):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gfdenoise.cli", mode, "--format", "bin", "--in", "/dev/stdin",
             "--out", str(tmp_path / "out")],
            input=struct.pack("<8sQQI", b"GFDENSE1", 2**61, 1, 1), env=env, capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr.decode()) == (
            1, "gfdenoise: error: label block shorter than header implies\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("n", [2**48, 2**61])
    @pytest.mark.parametrize("mode", ["denoise", "eval-standard"])
    def test_zero_width_labels_are_a_typed_error(self, tmp_path, mode, n):
        """Labels of 0 bytes are made only once the rows are read, so the
        short payload is the error, not the n labels claimed."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gfdenoise.cli", mode, "--format", "bin", "--in", "/dev/stdin",
             "--out", str(tmp_path / "out")],
            input=struct.pack("<8sQQI", b"GFDENSE1", n, 1, 0), env=env, capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr.decode()) == (
            1, "gfdenoise: error: feature payload shorter than header implies\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("mode", ["denoise", "eval-standard"])
    def test_zero_width_labels_pipe_runs_as_the_file(self, tmp_path, mode):
        src = tmp_path / "in.bin"
        rows = np.array([[1.0, 2.0], [2.0, 1.5], [0.5, 3.0]])
        src.write_bytes(struct.pack("<8sQQI", b"GFDENSE1", 3, 2, 0) + rows.tobytes())
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        outcomes = []
        for path, stdin in ((src, None), ("/dev/stdin", src.read_bytes())):
            out = tmp_path / f"{len(outcomes)}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "gfdenoise.cli", mode, "--format", "bin",
                 "--in", str(path), "--out", str(out)],
                input=stdin, env=env, capture_output=True, timeout=120,
            )
            written = out.read_bytes()
            if mode == "eval-standard":
                written = json.loads(written)
                del written["config"]["io"]
            outcomes.append((proc.returncode, proc.stderr, written))
        assert outcomes[0][:2] == (0, b"")
        assert outcomes[1] == outcomes[0]

# Labels of rows in the layouts the streamed denoise must keep apart.
def _grouped(n_classes, rows):
    return [f"g{c}" for c in range(n_classes) for _ in range(rows)]


STREAM_LAYOUTS = st.one_of(
    st.builds(_grouped, st.integers(1, 6), st.integers(1, 5)),
    st.lists(st.sampled_from(["a", "b", "c", "solo"]), min_size=1, max_size=24),
    st.builds(lambda a, b, c: ["s"] * a + ["t"] * b + ["s"] * c + ["u"],
              st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=6, unique=True),
)


def _cli_outcome(argv):
    """Exit code, stderr lines as a set, in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, set(err.getvalue().splitlines())


class TestCliDenoiseStreamed:
    """denoise reads, filters and writes a batch of whole classes at a time;
    its output is what filtering the loaded file at once gives."""

    CFG = DenoiseConfig(knn_k=2, k1=1, k2=3)
    ARGS = ["--knn-k", "2", "--k1", "1", "--k2", "3"]

    @settings(max_examples=60, deadline=None)
    @given(STREAM_LAYOUTS, st.sampled_from(["text", "bin"]), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_output_and_warnings_match_the_library(self, labels, fmt, batch_rows, seed):
        """DENOISE_BATCH_BYTES is set to a few rows, so most files take
        several batches."""
        d = 3
        data = LabeledFeatures(
            np.random.default_rng(seed).standard_normal((len(labels), d)) + 2.0, labels
        )
        original = gfdenoise.denoise.DENOISE_BATCH_BYTES
        with tempfile.TemporaryDirectory() as tmp:
            src, dst, ref = (os.path.join(tmp, name) for name in ("in", "out", "ref"))
            save_features(src, data, fmt)
            gfdenoise.denoise.DENOISE_BATCH_BYTES = batch_rows * 8 * d
            try:
                code, lines = _cli_outcome(
                    ["denoise", "--format", fmt, "--in", src, "--out", dst, *self.ARGS]
                )
            finally:
                gfdenoise.denoise.DENOISE_BATCH_BYTES = original
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                save_features(ref, denoise_dataset(load_features(src, fmt), self.CFG), fmt)
            assert code == 0
            with open(dst, "rb") as got, open(ref, "rb") as want:
                assert got.read() == want.read()
            assert sorted(os.listdir(tmp)) == ["in", "out", "ref"]
        assert lines == {
            f"gfdenoise: warning: {w.message}" for w in caught if w.category is SmallClassWarning
        }

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    @pytest.mark.parametrize("previous", [None, b"previous contents\n"])
    def test_class_failing_after_written_batches(self, tmp_path, capsys, monkeypatch, fmt,
                                                 previous):
        """The run exits 1, --out keeps what it held, and no temporary file
        is left behind."""
        monkeypatch.setattr(gfdenoise.denoise, "DENOISE_BATCH_BYTES", 2 * 8 * 2)
        features = np.abs(np.random.default_rng(8).standard_normal((12, 2))) + 0.5
        features[10] = 0.0
        src, dst = tmp_path / "in", tmp_path / "out"
        save_features(src, LabeledFeatures(features, np.repeat(list("abcdef"), 2)), fmt)
        if previous is not None:
            dst.write_bytes(previous)
        argv = ["denoise", "--format", fmt, "--in", str(src), "--out", str(dst), "--knn-k", "1"]
        assert run_cli(argv) == 1
        where = "line 11" if fmt == "text" else "row 10"
        assert capsys.readouterr().err == (
            f"gfdenoise: error: class 'f', {where}: feature row has zero norm\n"
        )
        assert sorted(os.listdir(tmp_path)) == (["in"] if previous is None else ["in", "out"])
        if previous is not None:
            assert dst.read_bytes() == previous

    @pytest.mark.parametrize("bad, message", [
        ("nan", "line 9: non-finite feature value"),
        ("x", "line 9: non-numeric feature value"),
        ("1,2", "line 9: 3 values, expected 2"),
    ])
    def test_single_parse_fault_reports_as_loading_does(self, tmp_path, capsys, monkeypatch,
                                                       bad, message):
        monkeypatch.setattr(gfdenoise.denoise, "DENOISE_BATCH_BYTES", 2 * 8 * 2)
        rows = [f"c{i // 2},{i + 1},{2 * i + 1}" for i in range(12)]
        rows[8] = f"c4,1,{bad}"
        src = tmp_path / "in.csv"
        src.write_text("\n".join(rows) + "\n")
        with pytest.raises(GfdError, match=f"^{re.escape(message)}$"):
            load_features_text(src)
        assert run_cli(["denoise", "--in", str(src), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"gfdenoise: error: {message}\n"
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_grouped_file_holds_a_batch_not_the_file(self, tmp_path):
        """A grouped binary file of 40 classes x 200 rows (d = 128) is
        filtered holding well under its payload."""
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        labels = np.repeat([f"c{c:02d}" for c in range(40)], 200)
        features = np.random.default_rng(9).standard_normal((labels.size, 128))
        save_features(src, LabeledFeatures(features, labels), "bin")
        payload = features.nbytes
        del features
        argv = ["denoise", "--format", "bin", "--in", str(src), "--out", str(dst)]
        assert run_cli(argv) == 0  # warm caches
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * payload

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_text_input_that_is_not_a_regular_file_is_refused(self, tmp_path, capsys):
        dst = tmp_path / "out"
        assert run_cli(["denoise", "--in", "/dev/null", "--out", str(dst)]) == 1
        assert capsys.readouterr().err == (
            "gfdenoise: error: /dev/null is read twice, so it must be a regular file\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("tail", ["", "cut", "trailing"])
    def test_binary_pipe_denoises_as_the_file(self, tmp_path, tail):
        """Binary is read once, so a pipe gives the bytes the file gives; a
        pipe whose payload is short or long fails as that file fails."""
        src = tmp_path / "in.bin"
        save_features(src, small_pool(), "bin")
        data = src.read_bytes()
        data = {"": data, "cut": data[:-5], "trailing": data + b"x"}[tail]
        src.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        outcomes = []
        for path, stdin in ((src, None), ("/dev/stdin", data)):
            out = tmp_path / f"{len(outcomes)}.bin"
            proc = subprocess.run(
                [sys.executable, "-m", "gfdenoise.cli", "denoise", "--format", "bin",
                 "--in", str(path), "--out", str(out)],
                input=stdin, env=env, capture_output=True, timeout=120,
            )
            written = out.read_bytes() if out.exists() else None
            outcomes.append((proc.returncode, proc.stderr, written))
        assert outcomes[1] == outcomes[0]
        if tail:
            message = "feature payload shorter" if tail == "cut" else "trailing bytes"
            assert outcomes[0][0] == 1 and message in outcomes[0][1].decode()
            assert sorted(os.listdir(tmp_path)) == ["in.bin"]
        else:
            want = tmp_path / "want.bin"
            save_features(want, denoise_dataset(small_pool(), DenoiseConfig()), "bin")
            assert outcomes[0] == (0, b"", want.read_bytes())


class TestCliEval:
    def test_test_file_width_is_checked_before_filtering(self, tmp_path, capsys, monkeypatch):
        """An io.test file whose rows are narrower than --in's is refused
        right after loading, naming the file and both widths."""
        src, test, cfg = tmp_path / "in.csv", tmp_path / "test.csv", tmp_path / "test.cfg"
        pool = small_pool()
        save_features_text(src, pool)
        save_features_text(test, LabeledFeatures(pool.features[:, :5], pool.labels))
        cfg.write_text(f"io.test = {test}\n")
        filtered = []
        monkeypatch.setattr(gfdenoise.cli, "denoise_dataset", lambda *a, **kw: filtered.append(a))
        out = tmp_path / "out.json"
        assert run_cli(["eval-standard", "--config", str(cfg), "--in", str(src),
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"gfdenoise: error: io.test {test}: 5 features per row, train rows have 8\n"
        )
        assert filtered == []
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("bad", [False, True])
    def test_eval_standard_reads_a_pipe_as_the_file(self, tmp_path, bad):
        """The text reader reads its input once, so a pipe gives what the
        file gives: the report for values only float() takes (`1_0`), and
        for a bad value, the error naming its line."""
        save_features_text(tmp_path / "pool.csv", small_pool())
        rows = (tmp_path / "pool.csv").read_text().splitlines()
        rows[0] = "c0,1_0," + rows[0].split(",", 2)[2]
        if bad:
            rows[1] = rows[1].rsplit(",", 1)[0] + ",x"
        src = tmp_path / "in.csv"
        src.write_text("\n".join(rows) + "\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        outcomes = []
        for path, stdin in ((src, None), ("/dev/stdin", src.read_text())):
            out = tmp_path / f"{len(outcomes)}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "gfdenoise.cli", "eval-standard", "--in", str(path),
                 "--out", str(out)],
                input=stdin, env=env, capture_output=True, text=True, timeout=120,
            )
            report = load_report(out) if out.exists() else {}
            arms = [report.get(arm) for arm in ("without_filter", "with_filter")]
            outcomes.append((proc.returncode, proc.stderr, arms))
        assert outcomes[1] == outcomes[0]
        if bad:
            assert outcomes[0] == (
                1, "gfdenoise: error: line 2: non-numeric feature value\n", [None, None]
            )
        else:
            assert outcomes[0][:2] == (0, "") and None not in outcomes[0][2]

    def test_eval_standard_without_test_rows_fails(self, tmp_path):
        """Classes of at most 2 rows give the 80/20 split no test row."""
        src, out = tmp_path / "pool.csv", tmp_path / "r.json"
        save_features_text(src, LabeledFeatures(np.arange(1.0, 9.0).reshape(4, 2), list("aabb")))
        assert _cli_stderr(["eval-standard", "--in", str(src), "--out", str(out)]) == (
            1, "gfdenoise: error: no test rows: the 80/20 split takes them only from classes "
            "of 3 or more rows\n",
        )
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["eval-fewshot", "--bogus", "1"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_mode_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_fewshot_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "eval-fewshot", "--m-shot", "3", "--n-way", "3", "--q-query", "4",
            "--k1", "1", "--k2", "3", "--iterations", "25", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report["mode"] == "eval-fewshot"
        assert 0.0 <= report["without_filter"]["mean_accuracy"] <= 1.0
        assert report["without_filter"]["iterations"] == 25
        assert report["config"]["episode"]["m_shot"] == 3
        assert "paired_delta" in report

    def test_fewshot_echo_is_clipped_to_support_size(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "eval-fewshot", "--m-shot", "2", "--n-way", "3", "--q-query", "4",
            "--iterations", "5", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        denoise = load_report(out)["config"]["denoise"]
        assert (denoise["knn_k"], denoise["k1"], denoise["k2"]) == (1, 1, 2)

    def test_fewshot_identity_filter_arms_match(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "eval-fewshot", "--m-shot", "4", "--n-way", "3", "--q-query", "4",
            "--k1", "4", "--k2", "4", "--iterations", "20", "--seed", "6",
            "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report["without_filter"] == report["with_filter"]
        assert report["paired_delta"]["mean"] == 0.0

    @pytest.mark.filterwarnings("ignore::gfdenoise.denoise.SmallClassWarning")
    def test_sweep_via_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("episode.m_values = 1,2\niterations = 10\nepisode.n_way = 3\n")
        out = tmp_path / "sweep.json"
        code = run_cli([
            "eval-fewshot", "--config", str(cfg), "--q-query", "3", "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert [r["m_shot"] for r in report["results"]] == [1, 2]

    def test_empty_sweep_emits_empty_results(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("episode.m_values =\n")
        out = tmp_path / "sweep.json"
        assert run_cli(["eval-fewshot", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_report(out)["results"] == []

    def test_sweep_shot_count_from_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("episode.m_values = 0,2\n")
        assert run_cli(["eval-fewshot", "--config", str(cfg)]) == 2
        assert "config error: m_shot and q_query must be >= 1" in capsys.readouterr().err

    def test_eval_standard_on_files(self, tmp_path):
        pool = small_pool()
        src = tmp_path / "train.csv"
        save_features_text(src, pool)
        out = tmp_path / "std.json"
        code = run_cli([
            "eval-standard", "--in", str(src), "--out", str(out),
            "--knn-k", "5", "--k1", "1", "--k2", "4", "--seed", "2",
        ])
        assert code == 0
        report = load_report(out)
        assert set(report) >= {"without_filter", "with_filter", "train_rows", "test_rows"}
        assert report["train_rows"] + report["test_rows"] == pool.n


class TestEvalStandardFiltersInPlace:
    """eval-standard classifies the raw arm first and then filters the train
    rows in place. On classes that take the Lanczos path, its report, or
    its error, is byte for byte that of filtering them into a fresh array
    first (reference.eval_standard_into_a_fresh_array)."""

    @staticmethod
    def outcomes(tmp_path, pool, argv):
        """(exit code, stderr, report bytes or None) of eval-standard on pool
        with argv, in place and then into a fresh array."""
        src, out = tmp_path / "pool.bin", tmp_path / "report.json"
        save_features(src, pool, "bin")
        argv = ["eval-standard", "--format", "bin", "--in", str(src), "--k1", "20",
                "--k2", "35", "--out", str(out), *argv]
        help_text, in_place = gfdenoise.cli._COMMANDS["eval-standard"]
        results = []
        for command in (in_place, eval_standard_into_a_fresh_array):
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(gfdenoise.cli._COMMANDS, "eval-standard", (help_text, command))
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = run_cli(argv)
            results.append((code, stderr.getvalue(), out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        return results

    @pytest.mark.parametrize("test_file", [False, True], ids=["split", "io.test"])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kind", ["nn1", "ncm"])
    def test_report_is_the_fresh_array_report(self, tmp_path, kind, metric, test_file):
        argv = ["--metric", metric, "--config", str(tmp_path / "run.cfg")]
        settings = f"classifier.kind = {kind}\n"
        if test_file:
            test = make_gaussian_pool(n_classes=2, per_class=150, dim=16, seed=1)
            save_features(tmp_path / "test.bin", test, "bin")
            settings += f"io.test = {tmp_path / 'test.bin'}\n"
        (tmp_path / "run.cfg").write_text(settings)
        in_place, fresh = self.outcomes(tmp_path, large_pool(), argv)
        assert in_place == fresh
        assert in_place[:2] == (0, "")
        report = json.loads(in_place[2])
        assert report["train_rows"] == (1400 if test_file else 1120)

    @pytest.mark.parametrize("test_file", [False, True], ids=["split", "io.test"])
    def test_zero_row_in_a_lanczos_size_class(self, tmp_path, test_file):
        """The error is raised after the raw arm's 1-NN, with the message and
        exit code of filtering first, and no report is written."""
        pool = large_pool()
        pool.features[[823, 850, 877, 904, 931]] = 0.0  # class c1; some land in train
        argv = ["--metric", "euclidean"]
        if test_file:
            save_features(tmp_path / "test.bin", pool, "bin")
            (tmp_path / "run.cfg").write_text(
                f"classifier.kind = nn1\nio.test = {tmp_path / 'test.bin'}\n"
            )
            argv += ["--config", str(tmp_path / "run.cfg")]
        in_place, fresh = self.outcomes(tmp_path, pool, argv)
        assert in_place == fresh
        code, err, report = in_place
        assert (code, report) == (1, None)
        assert re.fullmatch(
            r"gfdenoise: error: class 'c1', train row (\d+): feature row has zero norm\n", err
        )
        if test_file:
            assert "train row 823:" in err
        assert not list(tmp_path.glob("*.tmp"))


class TestReportSinks:
    """run_cli writes every report: printed to stdout, it is the document
    --out writes, apart from config.io.output."""

    @pytest.mark.parametrize("argv", [
        ["eval-fewshot", "--n-way", "3", "--m-shot", "2", "--q-query", "3", "--iterations", "5"],
        ["eval-fewshot", "--config", "episode.m_values = 2,3", "--n-way", "3", "--q-query", "3",
         "--iterations", "5"],
        ["eval-standard", "--k1", "1", "--k2", "4"],
        ["verify-theory", "--iterations", "20"],
    ], ids=["fewshot", "sweep", "standard", "theory"])
    def test_stdout_is_the_out_report(self, tmp_path, capsys, argv):
        if "--config" in argv:  # the argument after --config is the file's text
            at = argv.index("--config") + 1
            (tmp_path / "run.cfg").write_text(argv[at] + "\n")
            argv = [*argv[:at], str(tmp_path / "run.cfg"), *argv[at + 1:]]
        if argv[0] != "verify-theory":
            save_features_text(tmp_path / "pool.csv", small_pool())
            argv += ["--in", str(tmp_path / "pool.csv")]
        out = tmp_path / "report.json"
        assert run_cli([*argv, "--seed", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert run_cli([*argv, "--seed", "4"]) == 0
        printed = capsys.readouterr().out
        written = out.read_text()
        assert printed == written.replace(f'"output": {json.dumps(str(out))}', '"output": null')
        assert json.loads(written)["config"]["io"]["output"] == str(out)
        assert json.loads(printed)["config"]["io"]["output"] is None

    def test_denoise_writes_no_report(self, tmp_path, capsys):
        save_features_text(tmp_path / "pool.csv", small_pool())
        argv = ["denoise", "--in", str(tmp_path / "pool.csv"), "--out", str(tmp_path / "f.csv")]
        assert run_cli(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "pool.csv"]

    def test_modes_are_the_config_modes(self):
        """The mode table, the parser's subcommands and the config layer's
        modes list the same modes in the same order."""
        choices = next(a for a in build_parser()._actions if a.dest == "mode").choices
        assert list(gfdenoise.cli._COMMANDS) == list(choices) == list(MODES)


def _mode_argv(mode, tmp_path):
    """A small, quick run of each mode, reading pool.csv under tmp_path."""
    src = tmp_path / "pool.csv"
    if not src.exists():
        save_features_text(src, small_pool())
    return {
        "denoise": ["denoise", "--in", str(src)],
        "eval-fewshot": ["eval-fewshot", "--in", str(src), "--n-way", "3", "--m-shot", "2",
                         "--q-query", "3", "--iterations", "5"],
        "eval-standard": ["eval-standard", "--in", str(src), "--k1", "1", "--k2", "4"],
        "verify-theory": ["verify-theory", "--iterations", "20"],
    }[mode]


class TestCliOut:
    """Every mode takes --out alike: it is checked before any work, replaced
    only when the run succeeds, and its errors name it. A symlink is written
    through and kept; a FIFO or device is written in place."""

    @pytest.fixture(autouse=True)
    def record_work(self, monkeypatch):
        """Record each mode's first step, so a test can tell work started."""
        self.work = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                self.work.append(name)
                return fn(*args, **kwargs)
            return call

        for module, name in [(gfdenoise.cli, "_load_pool"), (gfdenoise.cli, "FeatureReader"),
                             (gfdenoise.cli.centroids, "monte_carlo_centroid_stats")]:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))

    def expected(self, mode, tmp_path):
        """The bytes a run writes to a new regular --out."""
        out = tmp_path / f"expected-{mode}"
        assert run_cli([*_mode_argv(mode, tmp_path), "--seed", "4", "--out", str(out)]) == 0
        data = out.read_bytes()
        out.unlink()
        self.work.clear()
        return data, str(out)

    @pytest.mark.parametrize("mode", MODES)
    def test_missing_directory_fails_before_work(self, tmp_path, capsys, mode):
        argv = _mode_argv(mode, tmp_path)
        before = sorted(os.listdir(tmp_path))
        dst = tmp_path / "missing" / "r.json"
        assert run_cli([*argv, "--out", str(dst)]) == 1
        assert capsys.readouterr().err == (
            f"gfdenoise: error: --out {dst}: No such file or directory\n"
        )
        assert self.work == []
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("mode", MODES)
    def test_directory_is_refused_before_work(self, tmp_path, capsys, mode):
        argv = _mode_argv(mode, tmp_path)
        dst = tmp_path / "outdir"
        dst.mkdir()
        assert run_cli([*argv, "--out", str(dst)]) == 1
        assert capsys.readouterr().err == f"gfdenoise: error: --out {dst}: Is a directory\n"
        assert self.work == []
        assert os.listdir(dst) == []

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("key,flag", [
        ("io.input", "--in"), ("io.output", "--out"), ("io.input", None), ("io.output", None),
        ("io.test", None),
    ])
    def test_empty_path_is_config_error(self, tmp_path, capsys, monkeypatch, mode, key, flag):
        """An empty path, from a flag or a config file, is refused before
        any work; nothing is created in the working directory or its
        parent."""
        argv = _mode_argv(mode, tmp_path)
        if key == "io.input" and "--in" in argv and not flag:  # else the flag wins
            del argv[argv.index("--in"):argv.index("--in") + 2]
        (tmp_path / "empty.cfg").write_text(f"{key} =\n")
        argv += [flag, ""] if flag else ["--config", str(tmp_path / "empty.cfg")]
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        before = sorted(os.listdir(tmp_path))
        assert run_cli([*argv, "--seed", "4"]) == 2
        assert capsys.readouterr().err == (
            f"gfdenoise: config error: {key} must be a path, got an empty value\n"
        )
        assert self.work == []
        assert sorted(os.listdir(tmp_path)) == before and os.listdir(tmp_path / "cwd") == []

    @pytest.mark.parametrize("mode", ["eval-fewshot", "verify-theory"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, mode):
        dst = tmp_path / "r.json"
        dst.write_text("old")
        argv = _mode_argv(mode, tmp_path)

        def fail(*args, **kwargs):
            raise InvalidSize("stop")

        monkeypatch.setattr(gfdenoise.cli, "config_echo", fail)
        assert run_cli([*argv, "--out", str(dst)]) == 1
        assert capsys.readouterr().err == "gfdenoise: error: stop\n"
        assert dst.read_text() == "old"
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "r.json"]

    @pytest.mark.parametrize("mode", ["denoise", "eval-standard", "verify-theory"])
    def test_symlink_is_written_through(self, tmp_path, mode):
        want, expected_out = self.expected(mode, tmp_path)
        (tmp_path / "sub").mkdir()
        target, link = tmp_path / "sub" / "target", tmp_path / "link"
        target.write_text("old")
        link.symlink_to(target)
        assert run_cli([*_mode_argv(mode, tmp_path), "--seed", "4", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want.replace(expected_out.encode(), str(link).encode())
        assert os.listdir(tmp_path / "sub") == ["target"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("mode", ["denoise", "eval-fewshot", "verify-theory"])
    def test_fifo_is_written_in_place(self, tmp_path, mode):
        want, expected_out = self.expected(mode, tmp_path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = run_cli([*_mode_argv(mode, tmp_path), "--seed", "4", "--out", str(fifo)])
        finally:
            # A run that never opened the FIFO leaves the reader waiting for
            # a writer; with no reader left, this open fails at once.
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert got == [want.replace(expected_out.encode(), str(fifo).encode())]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["fifo", "pool.csv"]

    @pytest.mark.parametrize("mode", ["denoise", "verify-theory"])
    @pytest.mark.parametrize("redirect", [">>", ">"])
    @pytest.mark.parametrize("link", ["/dev/stdout", "/dev/fd/1"])
    def test_stdout_link_keeps_the_redirect(self, tmp_path, mode, redirect, link):
        """`--out /dev/stdout >> log` adds the run's bytes after log's
        earlier lines; `> log` holds only them."""
        want, expected_out = self.expected(mode, tmp_path)
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier line\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
        argv = [*_mode_argv(mode, tmp_path), "--seed", "4", "--out", link]
        # Opened as the shell opens a redirect: ">>" appends, ">" truncates.
        with open(log, "ab" if redirect == ">>" else "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "gfdenoise.cli", *argv], env=env,
                                  stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        kept = b"earlier line\n" if redirect == ">>" else b""
        assert log.read_bytes() == kept + want.replace(expected_out.encode(), link.encode())
        assert sorted(os.listdir(tmp_path)) == ["log.txt", "pool.csv"]


class TestCliMatchesLibrary:
    """A report's arms are the numbers the library returns for the same
    arguments."""

    @staticmethod
    def _arm(report):
        return {
            "mean_accuracy": report.mean_accuracy,
            "ci95_halfwidth": report.ci95_halfwidth,
            "iterations": report.iterations,
        }

    def test_single_run(self, tmp_path):
        pool = small_pool()
        src = tmp_path / "pool.csv"
        save_features_text(src, pool)
        out = tmp_path / "report.json"
        code = run_cli([
            "eval-fewshot", "--in", str(src), "--n-way", "3", "--m-shot", "4",
            "--q-query", "5", "--k2", "3", "--iterations", "12", "--seed", "8",
            "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        without, with_ = run_fewshot_eval(
            pool, EpisodeSpec(n_way=3, m_shot=4, q_query=5), DenoiseConfig(k2=3),
            ClassifierConfig(), 12, 8,
        )
        assert report["without_filter"] == self._arm(without)
        assert report["with_filter"] == self._arm(with_)

    @pytest.mark.filterwarnings("ignore::gfdenoise.denoise.SmallClassWarning")
    def test_sweep(self, tmp_path):
        pool = small_pool()
        src = tmp_path / "pool.csv"
        save_features_text(src, pool)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "episode.m_values = 1,3,4\nepisode.n_way = 3\nepisode.q_query = 5\n"
            "iterations = 9\nseed = 2\nclassifier.kind = nn1\n"
        )
        out = tmp_path / "sweep.json"
        assert run_cli(["eval-fewshot", "--config", str(cfg), "--in", str(src), "--out", str(out)]) == 0
        results = load_report(out)["results"]
        expected = sweep_shots(
            pool, EpisodeSpec(n_way=3, q_query=5), [1, 3, 4], DenoiseConfig(),
            ClassifierConfig(kind="nn1"), 9, 2,
        )
        assert [entry["m_shot"] for entry in results] == [1, 3, 4]
        for entry, (without, with_) in zip(results, expected, strict=True):
            assert entry["without_filter"] == self._arm(without)
            assert entry["with_filter"] == self._arm(with_)
            assert entry["paired_delta"]["mean"] == pytest.approx(
                with_.mean_accuracy - without.mean_accuracy, abs=1e-12
            )


class TestCliErrorsMatchPerEpisode:
    """eval-fewshot exits and reports on stderr as evaluating its episodes
    one at a time would."""

    FLAGS = ["--n-way", "3", "--m-shot", "4", "--q-query", "3", "--iterations", "40", "--seed", "3"]

    def _check(self, tmp_path, capsys, pool):
        src = tmp_path / "pool.csv"
        save_features_text(src, pool)
        code = run_cli(["eval-fewshot", "--in", str(src), *self.FLAGS])
        error, message = outcome(lambda: per_episode_accuracies(
            pool, EpisodeSpec(n_way=3, m_shot=4, q_query=3), DenoiseConfig(),
            ClassifierConfig(), 40, 3,
        ))
        assert (code, capsys.readouterr().err) == (1, f"gfdenoise: error: {message}\n")
        return error

    def test_zero_support_row(self, tmp_path, capsys):
        pool = small_pool()
        pool.features[[5, 13]] = 0.0
        assert self._check(tmp_path, capsys, pool).__name__ == "ZeroVector"

    def test_too_small_class(self, tmp_path, capsys):
        pool = small_pool()
        keep = np.flatnonzero(pool.labels != pool.labels[-1]).tolist() + [pool.n - 1]
        small = LabeledFeatures(pool.features[keep], pool.labels[keep])
        assert self._check(tmp_path, capsys, small).__name__ == "InsufficientPool"


class TestCliFewshotFilteringErrors:
    """eval-fewshot names the pool's class and the pool row of a support row
    that fails filtering, as denoise_dataset names them on that episode."""

    SPEC = EpisodeSpec(n_way=3, m_shot=3, q_query=2)
    CFG = DenoiseConfig(knn_k=1, k1=1, k2=2)
    ARGS = ["--n-way", "3", "--m-shot", "3", "--q-query", "2", "--iterations", "20",
            "--knn-k", "1", "--k1", "1", "--k2", "2", "--seed", "0"]

    def run(self, tmp_path, capsys, features):
        """Exit code and stderr of eval-fewshot on 3 classes of 6 rows,
        checked against the per-episode oracle."""
        pool = LabeledFeatures(features, np.repeat(["a", "o", "p"], 6))
        src, out = tmp_path / "pool.csv", tmp_path / "r.json"
        save_features_text(src, pool)
        code = run_cli(["eval-fewshot", "--in", str(src), "--out", str(out), *self.ARGS])
        err = capsys.readouterr().err
        _, message = outcome(lambda: per_episode_accuracies(
            pool, self.SPEC, self.CFG, ClassifierConfig(), 20, 0
        ))
        assert err == f"gfdenoise: error: {message}\n"
        assert not out.exists()
        return code, err

    @staticmethod
    def features():
        return np.abs(np.random.default_rng(0).standard_normal((18, 3))) + 0.5

    def test_zero_row(self, tmp_path, capsys):
        features = self.features()
        features[4] = 0.0
        assert self.run(tmp_path, capsys, features) == (
            1, "gfdenoise: error: class 'a', pool row 4: feature row has zero norm\n"
        )

    def test_isolated_vertex(self, tmp_path, capsys):
        """Row 9 is orthogonal to the rest of class o, which are mutually
        similar, so in a 1-NN graph it alone keeps only a 0.0 edge."""
        features = self.features()
        features[6:12, 2] = 0.0
        features[9] = [0.0, 0.0, 1.0]
        assert self.run(tmp_path, capsys, features) == (
            1, "gfdenoise: error: class 'o', pool row 9: vertex has zero degree\n"
        )


class TestCliVerifyTheory:
    def test_report_contains_both_views(self, tmp_path):
        out = tmp_path / "theory.json"
        code = run_cli([
            "verify-theory", "--iterations", "300", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        by_m = {entry["m"]: entry for entry in report["results"]}
        assert set(by_m) == {5, 20, 100}
        assert by_m[5]["analytic"]["mean_factor"] == pytest.approx(1.25)
        assert by_m[5]["analytic"]["cov_factor"] == pytest.approx(0.3125)
        assert by_m[5]["monte_carlo"]["mean_factor"] == pytest.approx(1.0, abs=0.05)
        assert by_m[5]["monte_carlo"]["cov_trace_ratio"] == pytest.approx(0.2, rel=0.25)
        assert "deviation_note" in report
        assert by_m[5]["mean_factor_agrees"] is False

    def _report(self, tmp_path, knn_k, *flags):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text("theory.m_values = 5,8\ntheory.d = 3\n")
        out = tmp_path / f"theory-{knn_k}{''.join(flags)}.json"
        code = run_cli([
            "verify-theory", "--config", str(cfg), "--graph", "knn", "--knn-k", str(knn_k),
            "--iterations", "40", "--seed", "2", "--out", str(out), *flags,
        ])
        assert code == 0
        return load_report(out)

    def test_knn_k_reaches_the_simulation(self, tmp_path):
        report = self._report(tmp_path, 3)
        assert report["config"]["denoise"]["knn_k"] == 3
        for entry, m_seed in zip(report["results"], per_m_seeds(2, [5, 8])):
            spec = GaussianClassSpec(mu=np.full(3, 1.0), sigma=1.0, m=entry["m"], d=3)
            stats = monte_carlo_centroid_stats(spec, "knn", k=1, trials=40, seed=m_seed, knn_k=3)
            for arm, expected in zip(("raw", "filtered"), stats):
                assert entry["monte_carlo"][arm]["mean_est"] == expected.mean_est.tolist()
                assert entry["monte_carlo"][arm]["cov_trace_est"] == expected.cov_trace_est
        # knn_k = 99 clips to m - 1, the complete cosine graph.
        assert self._report(tmp_path, 99)["results"] != report["results"]

    def test_echo_shows_the_filter_the_trials_apply(self, tmp_path):
        """The trials take the rank-k low-pass, k1 = k2 = theory.k and
        mid_gain 0, whatever the denoise.* filter keys say; knn_k is
        echoed as set."""
        plain, with_k2 = self._report(tmp_path, 3), self._report(tmp_path, 3, "--k2", "3")
        assert with_k2["results"] == plain["results"]
        for report in (plain, with_k2):
            assert report["config"]["denoise"] == {
                "knn_k": 3, "k1": 1, "k2": 1, "mid_gain": 0.0, "graph_kind": "knn",
            }
        cfg = build_run_config(
            "verify-theory", {"theory.k": "2", "denoise.mid_gain": "0.3"}, {"denoise.k2": "3"}
        )
        assert config_echo(cfg)["denoise"] == {
            "knn_k": 10, "k1": 2, "k2": 2, "mid_gain": 0.0, "graph_kind": "complete",
        }

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("theory.d = 0", "theory.d must be >= 1, got 0"),
            ("theory.sigma = 0", "theory.sigma must be positive and finite, got 0.0"),
            ("theory.sigma = inf", "theory.sigma must be positive and finite, got inf"),
            ("theory.mu = nan", "theory.mu must be finite, got nan"),
            ("theory.k = 0", "theory.k must be >= 1, got 0"),
            (
                "theory.k = 7\ntheory.m_values = 5",
                "theory.k must be <= min(theory.m_values) = 5, got 7",
            ),
            ("theory.m_values = 1", "theory.m_values must all be >= 2, got [1]"),
        ],
        ids=["d", "sigma_zero", "sigma_inf", "mu_nan", "k_zero", "k_above_m", "m"],
    )
    def test_bad_theory_setting_is_config_error(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(setting + "\n")
        out = tmp_path / "theory.json"
        code = run_cli([
            "verify-theory", "--config", str(cfg), "--iterations", "5", "--out", str(out),
        ])
        assert (code, capsys.readouterr().err) == (2, f"gfdenoise: config error: {message}\n")
        assert not out.exists()


def _cli_stderr(argv):
    """Exit code and stderr of `python -m gfdenoise.cli ARGV` in a fresh
    interpreter, under Python's default warning filters."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "gfdenoise.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestCliWarnings:
    """A warning raised while a mode runs is one `gfdenoise: warning:` line,
    shown once per distinct message, with no source location."""

    def test_one_shot_fewshot(self, tmp_path):
        src = tmp_path / "pool.csv"
        save_features_text(src, small_pool())
        # 700 one-shot episodes span three chunks; each chunk warns.
        argv = [
            "eval-fewshot", "--in", str(src), "--n-way", "3", "--m-shot", "1",
            "--q-query", "3", "--iterations", "700", "--out", str(tmp_path / "r.json"),
        ]
        assert _cli_stderr(argv) == (
            0,
            "gfdenoise: warning: every support class has fewer than 2 samples; "
            "passed through unfiltered\n",
        )

    def test_one_shot_draw_failure_warns_per_class(self, tmp_path):
        """A chunk whose draw fails is evaluated one episode at a time, so
        each one-shot class drawn before the failing episode warns under its
        pool label, as the per-episode oracle warns."""
        pool = small_pool()
        keep = np.flatnonzero(pool.labels != pool.labels[-1]).tolist() + [pool.n - 1]
        small = LabeledFeatures(pool.features[keep], pool.labels[keep])
        src = tmp_path / "pool.csv"
        save_features_text(src, small)
        argv = ["eval-fewshot", "--in", str(src), "--n-way", "3", "--m-shot", "1",
                "--q-query", "3", "--iterations", "40", "--seed", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = outcome(lambda: per_episode_accuracies(
                small, EpisodeSpec(n_way=3, m_shot=1, q_query=3), DenoiseConfig(),
                ClassifierConfig(), 40, 3,
            ))
        oracle = "".join(dict.fromkeys(f"gfdenoise: warning: {w.message}\n" for w in caught))
        code, err = _cli_stderr(argv)
        assert (code, err) == (
            1,
            "gfdenoise: warning: class 'c0' has fewer than 2 samples; passed through unfiltered\n"
            "gfdenoise: warning: class 'c1' has fewer than 2 samples; passed through unfiltered\n"
            "gfdenoise: warning: class 'c2' has fewer than 2 samples; passed through unfiltered\n"
            "gfdenoise: error: class 'c3' has 1 samples, episode needs 4\n",
        )
        assert err == oracle + f"gfdenoise: error: {error[1]}\n"

    def test_standard_with_one_row_classes(self, tmp_path):
        pool = small_pool()
        src = tmp_path / "pool.csv"
        save_features_text(src, LabeledFeatures(
            np.vstack([pool.features, np.ones((2, pool.d))]), [*pool.labels, "solo", "zz"]
        ))
        argv = ["eval-standard", "--in", str(src), "--out", str(tmp_path / "r.json")]
        assert _cli_stderr(argv) == (
            0,
            "gfdenoise: warning: class 'solo' has fewer than 2 samples; passed through unfiltered\n"
            "gfdenoise: warning: class 'zz' has fewer than 2 samples; passed through unfiltered\n",
        )


def large_pool():
    """Two classes of 700 rows. eval-standard trains on 560 rows of each,
    at least LANCZOS_MIN_ROWS and LANCZOS_ROWS_PER_PAIR x 35, so with
    k2 = 35 it filters every class on the Lanczos path, as denoise does."""
    return make_gaussian_pool(n_classes=2, per_class=700, dim=16, seed=0)


# Makes gfdenoise.denoise record, per call of lowest_eigenpairs, whether
# Lanczos returned a basis.
SPY_ON_LANCZOS = (
    "import gfdenoise.denoise\n"
    "solve, solved = gfdenoise.denoise.lowest_eigenpairs, []\n"
    "def spy(*args):\n"
    "    basis = solve(*args)\n"
    "    solved.append(basis is not None)\n"
    "    return basis\n"
    "gfdenoise.denoise.lowest_eigenpairs = spy\n"
)


def test_runs_import_nothing_beyond_numpy(tmp_path):
    """No mode imports a third-party module other than numpy: small
    classes are solved dense, and large ones by the library's own Lanczos."""
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    save_features_text(small, small_pool())
    save_features_text(large, large_pool())
    script = (
        "import sys\n"
        "import numpy.random  # the seeded modes draw from it\n"
        "ambient = {m.split('.')[0] for m in sys.modules} | {'gfdenoise'}\n"
        + SPY_ON_LANCZOS
        + "from gfdenoise.cli import run_cli\n"
        "out, small, large = sys.argv[1:]\n"
        "codes = [\n"
        "    run_cli(['eval-fewshot', '--iterations', '3', '--out', out]),\n"
        "    run_cli(['denoise', '--in', small, '--out', out]),\n"
        "    run_cli(['verify-theory', '--iterations', '3', '--out', out]),\n"
        "    run_cli(['eval-standard', '--in', large, '--k2', '35', '--out', out]),\n"
        "    run_cli(['denoise', '--in', large, '--out', out]),\n"
        "]\n"
        "new = {m.split('.')[0] for m in sys.modules} - ambient - set(sys.stdlib_module_names)\n"
        "print(codes, solved, sorted(new))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), str(small), str(large)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] [True, True, True, True] []", proc.stderr


@pytest.mark.parametrize("pool,solved", [(small_pool, "[]"), (large_pool, "[True, True]")])
def test_denoise_does_not_import_numpy_random(tmp_path, pool, solved):
    """numpy imports numpy.random lazily, and it adds about 6 MB of resident
    memory; denoise draws nothing, so it must not pay for it, neither on
    small classes nor on large ones, whose Lanczos start vectors are hashed."""
    src = tmp_path / "in.csv"
    save_features_text(src, pool())
    script = SPY_ON_LANCZOS + (
        "import sys\n"
        "from gfdenoise.cli import run_cli\n"
        "code = run_cli(['denoise', '--in', sys.argv[2], '--out', sys.argv[1]])\n"
        "print(code, solved, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv"), str(src)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == f"0 {solved} False", proc.stderr
