"""Configuration precedence and CLI behavior tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gfdenoise
from gfdenoise.cli import run_cli
from gfdenoise.config import build_run_config, parse_config_file
from gfdenoise.data import make_gaussian_pool
from gfdenoise.denoise import DenoiseConfig, denoise_dataset
from gfdenoise.errors import ConfigError
from gfdenoise.fileio import (
    load_features_binary,
    load_features_text,
    load_report,
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
            ("seed", "0", "22", 11, lambda c: c.seed),
            ("iterations", "2000", "75", 50, lambda c: c.iterations),
            ("denoise.k1", "1", "2", 3, lambda c: c.denoise.k1),
            ("denoise.k2", "4", "8", 9, lambda c: c.denoise.k2),
            ("denoise.mid_gain", "0.6", "0.5", 0.4, lambda c: c.denoise.mid_gain),
            ("denoise.knn_k", "10", "6", 7, lambda c: c.denoise.knn_k),
            ("denoise.graph", "knn", "complete", "knn", lambda c: c.denoise.graph_kind),
            ("episode.m_shot", "5", "3", 4, lambda c: c.episode.m_shot),
            ("episode.n_way", "5", "4", 6, lambda c: c.episode.n_way),
            ("episode.q_query", "15", "7", 9, lambda c: c.episode.q_query),
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
        assert str(getter(flag_cfg)) == str(flag_value)

    def test_mode_defaults_differ(self):
        fewshot = build_run_config("eval-fewshot", {}, {})
        standard = build_run_config("eval-standard", {}, {})
        assert fewshot.classifier.kind == "ncm" and fewshot.classifier.metric == "cosine"
        assert standard.classifier.kind == "nn1" and standard.classifier.metric == "euclidean"
        assert (standard.denoise.k1, standard.denoise.k2) == (20, 55)

    def test_classifier_kind_from_file(self):
        cfg = build_run_config("eval-fewshot", {"classifier.kind": "nn1"}, {})
        assert cfg.classifier.kind == "nn1"
        with pytest.raises(ConfigError):
            build_run_config("eval-fewshot", {"classifier.kind": "svm"}, {})


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

    def test_missing_paths_is_config_error(self):
        assert run_cli(["denoise", "--k1", "1"]) == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        code = run_cli([
            "denoise", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 1


class TestCliEval:
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


def test_small_class_runs_do_not_import_scipy(tmp_path):
    """scipy is imported only by the large-class Lanczos path, so runs on
    small classes do not pay for importing it."""
    src = tmp_path / "in.csv"
    save_features_text(src, small_pool())
    script = (
        "import sys\n"
        "from gfdenoise.cli import run_cli\n"
        "codes = [\n"
        "    run_cli(['eval-fewshot', '--iterations', '3', '--out', sys.argv[1]]),\n"
        "    run_cli(['denoise', '--in', sys.argv[2], '--out', sys.argv[1]]),\n"
        "    run_cli(['verify-theory', '--iterations', '3', '--out', sys.argv[1]]),\n"
        "]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gfdenoise.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), str(src)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == "[0, 0, 0] []", proc.stderr
