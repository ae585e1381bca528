"""Command-line surface: denoise, eval-fewshot, eval-standard, verify-theory.

Exit codes: 0 success, 2 configuration error, 1 runtime error. Diagnostics
go to stderr. run_cli writes each mode's report, its body with the mode and
config echo added, to the --out path (or stdout when omitted).
"""

import argparse
import contextlib
import os
import re
import stat
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import centroids
# Unused here, but perfbench/layertrace.py traces these names in this module.
from .classify import ncm_fit, ncm_predict, nn1_predict  # noqa: F401
from .config import RunConfig, build_run_config, config_echo, parse_config_file
from .data import LabeledFeatures, make_gaussian_pool, stratified_split
from .denoise import batch_ends, denoise_dataset
from .episodes import classify_episode, paired_accuracies, paired_report, per_m_seeds
from .errors import ConfigError, DimensionMismatch, GfdError, InsufficientPool, InvalidSize
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
    for mode, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for key, flag in FLAGS.items():
            p.add_argument(flag, dest=key, metavar=key)
    return parser


def load_run_config(ns: argparse.Namespace) -> RunConfig:
    file_settings = parse_config_file(ns.config) if ns.config else {}
    overrides = {key: getattr(ns, key) for key in FLAGS}
    return build_run_config(ns.mode, file_settings, overrides)


def _check_width(cfg: RunConfig, d: int) -> None:
    if d == 0:  # the binary format allows rows of no features; no mode does
        raise InvalidSize(f"--in {cfg.input_path}: rows have 0 features")


def _load_pool(cfg: RunConfig) -> LabeledFeatures:
    if cfg.input_path is not None:
        pool = load_features(cfg.input_path, cfg.fmt)
        _check_width(cfg, pool.d)
        return pool
    return make_gaussian_pool(
        n_classes=cfg.pool.classes,
        per_class=cfg.pool.per_class,
        dim=cfg.pool.dim,
        separation=cfg.pool.separation,
        sigma=cfg.pool.sigma,
        seed=cfg.seed,
    )


@contextlib.contextmanager
def _out_path(out: str | None):
    """The path a mode appends --out's bytes to, or None for stdout. An --out
    that is not a regular file (a FIFO, a device), names an open file
    (/dev/std*, /dev/fd/*) or lies under /proc is written in place, so `--out
    /dev/stdout >> log` adds to log. Otherwise a temporary file is created
    beside --out, symlinks followed, before any work; it replaces that path
    only when the mode succeeds and is removed when it fails. Errors name
    --out."""
    if out is None:
        yield None
        return
    try:
        mode = os.stat(out).st_mode
    except OSError:  # a missing --out is created; other faults show below
        mode = stat.S_IFREG
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(f"--out {out}: Is a directory")
    if not stat.S_ISREG(mode) or re.match("/dev/std|/dev/fd/|/proc/", os.path.abspath(out)):
        yield out
        return
    target = os.path.realpath(out)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise type(exc)(f"--out {out}: {exc.strerror}") from None
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _cmd_denoise(cfg: RunConfig, out: str) -> None:
    with open(out, "ab") as fh, FeatureReader(cfg.input_path, cfg.fmt) as reader:
        _check_width(cfg, reader.d)
        header, write_rows = feature_writer(cfg.fmt, reader.labels, reader.d)
        fh.write(header)
        # Each batch of whole classes is filtered in place and written, then
        # dropped before the next one is read.
        for batch, row_name in reader.batches(batch_ends(reader.labels, reader.d)):
            write_rows(fh, denoise_dataset(
                batch, cfg.denoise, out=batch.features, row_name=row_name
            ))
            del batch


def _cmd_eval_fewshot(cfg: RunConfig, out: str | None) -> dict:
    pool = _load_pool(cfg)

    def paired(spec, seed):
        return paired_report(
            *paired_accuracies(pool, spec, cfg.denoise, cfg.classifier, cfg.iterations, seed)
        )

    if cfg.m_values is None:
        return paired(cfg.episode, cfg.seed)
    return {"results": [
        {"m_shot": m, **paired(replace(cfg.episode, m_shot=m), m_seed)}
        for m, m_seed in zip(cfg.m_values, per_m_seeds(cfg.seed, cfg.m_values))
    ]}


def _cmd_eval_standard(cfg: RunConfig, out: str | None) -> dict:
    data = _load_pool(cfg)
    if cfg.test_path is not None:
        train, test = data, load_features(cfg.test_path, cfg.fmt)
        if test.d != train.d:
            raise DimensionMismatch(
                f"io.test {cfg.test_path}: {test.d} features per row, train rows have {train.d}"
            )
    else:
        train, test = stratified_split(data, test_fraction=0.2, seed=cfg.seed)
    if test.n == 0:
        raise InsufficientPool(
            "no test rows" if cfg.test_path is not None
            else "no test rows: the 80/20 split takes them only from classes of 3 or more rows"
        )
    del data  # a split copies its rows, so the pool is freed before the 1-NN peak

    def accuracy(rows):
        return float(np.mean(classify_episode(rows, test.features, cfg.classifier) == test.labels))

    # The raw arm goes first, so the train rows are then filtered in place.
    acc_raw = accuracy(train)
    acc_filt = accuracy(denoise_dataset(
        train, cfg.denoise, out=train.features, row_name="train row {}".format
    ))
    return {
        "train_rows": train.n,
        "test_rows": test.n,
        "without_filter": {"accuracy": acc_raw},
        "with_filter": {"accuracy": acc_filt},
        "delta": acc_filt - acc_raw,
    }


def _cmd_verify_theory(cfg: RunConfig, out: str | None) -> dict:
    """Monte Carlo centroid stats per theory.m_values entry, each from its
    own seed. denoise_class clips knn_k to m - 1 for each m; the echo shows
    it as set, since the clipped value differs per m."""
    results = []
    for m, m_seed in zip(cfg.theory.m_values, per_m_seeds(cfg.seed, cfg.theory.m_values)):
        spec = centroids.GaussianClassSpec(
            mu=np.full(cfg.theory.d, cfg.theory.mu), sigma=cfg.theory.sigma, m=m, d=cfg.theory.d
        )
        raw, filt = centroids.monte_carlo_centroid_stats(
            spec,
            graph_kind=cfg.denoise.graph_kind,
            k=cfg.theory.k,
            trials=cfg.iterations,
            seed=m_seed,
            knn_k=cfg.denoise.knn_k,
        )
        mean_factor, cov_factor = centroids.analytic_centroid_factors(m)
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
            "m": m,
            "analytic": {"mean_factor": mean_factor, "cov_factor": cov_factor},
            "monte_carlo": {
                "mean_factor": measured_mean_factor,
                "cov_trace_ratio": measured_cov_ratio,
                "raw": asdict(raw),
                "filtered": asdict(filt),
            },
            "mean_factor_agrees": bool(
                abs(measured_mean_factor - mean_factor) <= 0.05 * mean_factor
            ),
            "cov_factor_agrees": bool(abs(measured_cov_ratio - cov_factor) <= 0.05 * cov_factor),
        })
    return {
        "results": results,
        "deviation_note": (
            "analytic factors assume the complete graph's constant eigenvector has "
            "entries 1/sqrt(m-1); with the unit-norm eigenvector (entries 1/sqrt(m)) "
            "the k=1 low-pass preserves the centroid exactly, so the measured mean "
            "factor is 1 and the measured covariance ratio of pooled rows is 1/m. "
            "Both views are reported; disagreement is expected."
        ),
    }


# Mode -> its --help line and its function. The function takes the config
# and the path _out_path gives for --out; denoise writes its output there,
# and the report modes return their report body, which run_cli writes.
_COMMANDS = {
    "denoise": ("filter a labeled feature file class by class", _cmd_denoise),
    "eval-fewshot": ("paired with/without-filter few-shot evaluation", _cmd_eval_fewshot),
    "eval-standard": ("paired evaluation on a train/test split", _cmd_eval_standard),
    "verify-theory": ("centroid statistics: analytic factors vs Monte Carlo", _cmd_verify_theory),
}


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_run_config(ns)
        if cfg.mode == "denoise" and (cfg.input_path is None or cfg.output_path is None):
            raise ConfigError("denoise requires --in and --out")
    except (GfdError, OSError) as exc:
        print(f"gfdenoise: config error: {exc}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings(), _out_path(cfg.output_path) as out:
            # One line per warning, without a source location.
            warnings.showwarning = lambda w, *_: sys.stderr.write(f"gfdenoise: warning: {w}\n")
            body = _COMMANDS[cfg.mode][1](cfg, out)
            if body is not None:
                report = {"mode": cfg.mode, "config": config_echo(cfg), **body}
                if out is not None:
                    emit_report(report, out, append=True)
                else:
                    print(report_text(report))
    except (GfdError, OSError, ValueError) as exc:
        print(f"gfdenoise: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
