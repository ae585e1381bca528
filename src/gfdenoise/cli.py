"""Command-line surface: denoise, eval-fewshot, eval-standard, verify-theory.

Exit codes: 0 success, 2 configuration error, 1 runtime error. Diagnostics
go to stderr; reports go to the --out path (or stdout when omitted).
"""

import argparse
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import centroids
# Unused here, but perfbench/layertrace.py traces these names in this module.
from .classify import ncm_fit, ncm_predict, nn1_predict  # noqa: F401
from .config import RunConfig, build_run_config, config_echo, parse_config_file
from .data import LabeledFeatures, make_gaussian_pool, stratified_split
from .denoise import batch_ends, denoise_dataset
from .episodes import classify_episode, paired_accuracies, paired_report, per_m_seeds
from .errors import ConfigError, GfdError
# save_features is unused here, but perfbench/layertrace.py traces it in this module.
from .fileio import (  # noqa: F401
    FeatureReader,
    emit_report,
    feature_writer,
    load_features,
    report_text,
    save_features,
)

# Config key -> the flag that overrides it. A flag's value is the raw text
# of that key, parsed and checked as it would be in a config file.
FLAGS = {
    "seed": "--seed",
    "iterations": "--iterations",
    "denoise.k1": "--k1",
    "denoise.k2": "--k2",
    "denoise.mid_gain": "--mid-gain",
    "denoise.knn_k": "--knn-k",
    "denoise.graph": "--graph",
    "episode.m_shot": "--m-shot",
    "episode.n_way": "--n-way",
    "episode.q_query": "--q-query",
    "classifier.metric": "--metric",
    "io.input": "--in",
    "io.output": "--out",
    "io.format": "--format",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfdenoise",
        description="Per-class graph low-pass filtering of labeled feature vectors",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="mode")
    for mode, help_text in (
        ("denoise", "filter a labeled feature file class by class"),
        ("eval-fewshot", "paired with/without-filter few-shot evaluation"),
        ("eval-standard", "paired evaluation on a train/test split"),
        ("verify-theory", "centroid statistics: analytic factors vs Monte Carlo"),
    ):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for key, flag in FLAGS.items():
            p.add_argument(flag, dest=key, metavar=key)
    return parser


def load_run_config(ns: argparse.Namespace) -> RunConfig:
    file_settings = parse_config_file(ns.config) if ns.config else {}
    overrides = {key: getattr(ns, key) for key in FLAGS}
    return build_run_config(ns.mode, file_settings, overrides)


def _load_pool(cfg: RunConfig) -> LabeledFeatures:
    if cfg.input_path is not None:
        return load_features(cfg.input_path, cfg.fmt)
    return make_gaussian_pool(
        n_classes=cfg.pool.classes,
        per_class=cfg.pool.per_class,
        dim=cfg.pool.dim,
        separation=cfg.pool.separation,
        sigma=cfg.pool.sigma,
        seed=cfg.seed,
    )


def _emit(cfg: RunConfig, report: dict) -> None:
    if cfg.output_path is not None:
        emit_report(report, cfg.output_path)
    else:
        print(report_text(report))


def _cmd_denoise(cfg: RunConfig) -> None:
    if cfg.input_path is None or cfg.output_path is None:
        raise ConfigError("denoise requires --in and --out")
    with FeatureReader(cfg.input_path, cfg.fmt) as reader:
        header, write_rows = feature_writer(cfg.fmt, reader.labels, reader.d)
        # --out is replaced only once every batch is written; the temporary
        # file is removed if any batch fails.
        tmp = f"{cfg.output_path}.{os.getpid()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(header)
                # Each batch of whole classes is filtered in place and
                # written, then dropped before the next one is read.
                for batch, row_name in reader.batches(batch_ends(reader.labels, reader.d)):
                    write_rows(fh, denoise_dataset(
                        batch, cfg.denoise, out=batch.features, row_name=row_name
                    ))
                    del batch
            os.replace(tmp, cfg.output_path)
        except BaseException:
            os.remove(tmp)
            raise


def _cmd_eval_fewshot(cfg: RunConfig) -> None:
    pool = _load_pool(cfg)
    report = {"mode": cfg.mode, "config": config_echo(cfg)}

    def paired(spec, seed):
        return paired_report(
            *paired_accuracies(pool, spec, cfg.denoise, cfg.classifier, cfg.iterations, seed)
        )

    if cfg.m_values is not None:
        report["results"] = [
            {"m_shot": m, **paired(replace(cfg.episode, m_shot=m), m_seed)}
            for m, m_seed in zip(cfg.m_values, per_m_seeds(cfg.seed, cfg.m_values))
        ]
    else:
        report.update(paired(cfg.episode, cfg.seed))
    _emit(cfg, report)


def _cmd_eval_standard(cfg: RunConfig) -> None:
    data = _load_pool(cfg)
    if cfg.test_path is not None:
        train, test = data, load_features(cfg.test_path, cfg.fmt)
    else:
        train, test = stratified_split(data, test_fraction=0.2, seed=cfg.seed)
    del data  # a split copies its rows, so the pool is freed before the 1-NN peak
    filtered_train = denoise_dataset(train, cfg.denoise, row_name="train row {}".format)
    acc_raw, acc_filt = (
        float(np.mean(classify_episode(rows, test.features, cfg.classifier) == test.labels))
        for rows in (train, filtered_train)
    )
    report = {
        "mode": cfg.mode,
        "config": config_echo(cfg),
        "train_rows": train.n,
        "test_rows": test.n,
        "without_filter": {"accuracy": acc_raw},
        "with_filter": {"accuracy": acc_filt},
        "delta": acc_filt - acc_raw,
    }
    _emit(cfg, report)


def _cmd_verify_theory(cfg: RunConfig) -> None:
    """Monte Carlo centroid stats per theory.m_values entry, each from its
    own seed. knn_k is clipped to m - 1 for each m; the echo shows it as set,
    since the clipped value differs per m."""
    results = []
    for m, m_seed in zip(cfg.theory.m_values, per_m_seeds(cfg.seed, cfg.theory.m_values)):
        spec = centroids.GaussianClassSpec(
            mu=np.full(cfg.theory.d, cfg.theory.mu),
            sigma=cfg.theory.sigma,
            m=int(m),
            d=cfg.theory.d,
        )
        raw, filt = centroids.monte_carlo_centroid_stats(
            spec,
            graph_kind=cfg.denoise.graph_kind,
            k=cfg.theory.k,
            trials=cfg.iterations,
            seed=m_seed,
            knn_k=cfg.denoise.for_class_size(int(m)).knn_k,
        )
        mean_factor, cov_factor = centroids.analytic_centroid_factors(int(m))
        raw_norm_sq = float(np.dot(raw.mean_est, raw.mean_est))
        measured_mean_factor = (
            float(np.dot(filt.mean_est, raw.mean_est) / raw_norm_sq)
            if raw_norm_sq > 0.0
            else float("nan")
        )
        measured_cov_ratio = (
            filt.cov_trace_est / raw.cov_trace_est if raw.cov_trace_est > 0.0 else float("nan")
        )
        results.append({
            "m": int(m),
            "analytic": {"mean_factor": mean_factor, "cov_factor": cov_factor},
            "monte_carlo": {
                "mean_factor": measured_mean_factor,
                "cov_trace_ratio": measured_cov_ratio,
                "raw": {
                    "mean_est": raw.mean_est,
                    "cov_trace_est": raw.cov_trace_est,
                    "trials": raw.trials,
                },
                "filtered": {
                    "mean_est": filt.mean_est,
                    "cov_trace_est": filt.cov_trace_est,
                    "trials": filt.trials,
                },
            },
            "mean_factor_agrees": bool(
                abs(measured_mean_factor - mean_factor) <= 0.05 * mean_factor
            ),
            "cov_factor_agrees": bool(
                abs(measured_cov_ratio - cov_factor) <= 0.05 * cov_factor
            ),
        })
    report = {
        "mode": cfg.mode,
        "config": config_echo(cfg),
        "results": results,
        "deviation_note": (
            "analytic factors assume the complete graph's constant eigenvector has "
            "entries 1/sqrt(m-1); with the unit-norm eigenvector (entries 1/sqrt(m)) "
            "the k=1 low-pass preserves the centroid exactly, so the measured mean "
            "factor is 1 and the measured covariance ratio of pooled rows is 1/m. "
            "Both views are reported; disagreement is expected."
        ),
    }
    _emit(cfg, report)


_COMMANDS = {
    "denoise": _cmd_denoise,
    "eval-fewshot": _cmd_eval_fewshot,
    "eval-standard": _cmd_eval_standard,
    "verify-theory": _cmd_verify_theory,
}


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_run_config(ns)
    except (GfdError, OSError) as exc:
        print(f"gfdenoise: config error: {exc}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():  # one line per warning, without a source location
            warnings.showwarning = lambda w, *_: sys.stderr.write(f"gfdenoise: warning: {w}\n")
            _COMMANDS[cfg.mode](cfg)
    except ConfigError as exc:
        print(f"gfdenoise: config error: {exc}", file=sys.stderr)
        return 2
    except (GfdError, OSError, ValueError) as exc:
        print(f"gfdenoise: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
