"""References the stacked code is compared against: the label-level
classifier dispatch that classify.predict replaced, the distance formulas
and query blocks of its 1-NN as they were before being computed in place,
the per-episode loop that defines paired_accuracies, the per-trial loop
that defines monte_carlo_centroid_stats, eval-standard with its train rows
filtered into a fresh array, and the outcome of a call, errors included."""

import numpy as np

from gfdenoise.centroids import CentroidStats
from gfdenoise.classify import ncm_fit, ncm_predict, nn1_predict
from gfdenoise.cli import _load_pool
from gfdenoise.data import LabeledFeatures, class_index_map, stratified_split
from gfdenoise.denoise import DenoiseConfig, denoise_class, denoise_dataset
from gfdenoise.episodes import _draw_rows, classify_episode, sample_episode
from gfdenoise.errors import GfdError
from gfdenoise.fileio import load_features


def classify_labels(support, query, cfg):
    """The label of each query row, by ncm_fit and ncm_predict or by
    nn1_predict on the LabeledFeatures support: the per-kind dispatch that
    predict replaced, kept as its oracle."""
    if cfg.kind == "ncm":
        return ncm_predict(ncm_fit(support, cfg.metric), query)
    return nn1_predict(support, query, cfg.metric)


def distance_formula(A, B, metric):
    """classify.pairwise_distances as one expression per metric, each
    evaluated into fresh arrays: the formulas that the in-place block
    kernel reproduces bit for bit."""
    if metric == "euclidean":
        sq = (
            np.sum(A * A, axis=-1)[..., :, None]
            + np.sum(B * B, axis=-1)[..., None, :]
            - 2.0 * (A @ B.swapaxes(-1, -2))
        )
        return np.sqrt(np.clip(sq, 0.0, None))
    return 1.0 - _unit_rows(A) @ _unit_rows(B).swapaxes(-1, -2)


def _unit_rows(A):
    norms = np.linalg.norm(A, axis=-1)
    return A / np.where(norms == 0.0, 1.0, norms)[..., None]


def nearest_rows(query, support, metric, step):
    """Each query row's nearest support row, the lowest on ties, by
    distance_formula of each block of step query rows against the whole
    support."""
    return np.concatenate(
        [
            np.argmin(distance_formula(query[..., i:i + step, :], support, metric), axis=-1)
            for i in range(0, max(query.shape[-2], 1), step)
        ],
        axis=-1,
    )


def per_episode_accuracies(pool, spec, denoise_cfg, classifier_cfg, iterations, seed):
    """Per-episode query accuracy without and with support filtering,
    evaluated one episode at a time: sample_episode, classify_labels on the
    raw support, denoise_dataset, classify_labels on the filtered support.
    The support is filtered under its rows' pool labels, with each row
    named by its pool row, so that a filtering error names both."""
    index = class_index_map(pool.labels)
    acc_raw = np.empty(iterations)
    acc_filt = np.empty(iterations)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(iterations)):
        ep = sample_episode(pool, spec, child)
        # The support's pool rows, drawn as sample_episode draws them.
        rows = _draw_rows(np.random.default_rng(child), index, spec)[:, : spec.m_shot].ravel()
        truth = ep.query.labels
        pred_raw = classify_labels(ep.support, ep.query.features, classifier_cfg)
        filtered = denoise_dataset(
            LabeledFeatures(ep.support.features, pool.labels[rows]), denoise_cfg,
            row_name=lambda j: f"pool row {rows[j]}",
        )
        filtered = LabeledFeatures(filtered.features, ep.support.labels)
        pred_filt = classify_labels(filtered, ep.query.features, classifier_cfg)
        acc_raw[i] = np.mean(pred_raw == truth)
        acc_filt[i] = np.mean(pred_filt == truth)
    return acc_raw, acc_filt


def eval_standard_into_a_fresh_array(cfg, out):
    """The eval-standard mode, for a config whose split has test rows, in
    the order that holds a second copy of the train rows: denoise_dataset
    filters them into a fresh array, then both arms are classified. Its
    report, and any filtering error, are those the mode must give."""
    data = _load_pool(cfg)
    if cfg.test_path is not None:
        train, test = data, load_features(cfg.test_path, cfg.fmt)
    else:
        train, test = stratified_split(data, test_fraction=0.2, seed=cfg.seed)
    filtered = denoise_dataset(train, cfg.denoise, row_name="train row {}".format)
    acc_raw, acc_filt = (
        float(np.mean(classify_episode(rows, test.features, cfg.classifier) == test.labels))
        for rows in (train, filtered)
    )
    return {
        "train_rows": train.n,
        "test_rows": test.n,
        "without_filter": {"accuracy": acc_raw},
        "with_filter": {"accuracy": acc_filt},
        "delta": acc_filt - acc_raw,
    }


def draw_gaussian_class(spec, rng):
    """One trial's m x d block, drawn as sample_gaussian_class defines it:
    the next m * d normals of rng, a Generator or a seed of a new one."""
    return spec.mu + spec.sigma * np.random.default_rng(rng).standard_normal((spec.m, spec.d))


def per_trial_centroid_stats(spec, graph_kind, k, trials, seed, knn_k=None):
    """monte_carlo_centroid_stats one trial at a time: the trial's m x d
    block drawn as the next block of the seed's one stream, filtered alone
    by denoise_class with the ideal rank-k low-pass, and its sums and its
    squared deviations from mu added to the totals."""
    if knn_k is None:
        knn_k = spec.m - 1
    cfg = DenoiseConfig(knn_k, k, k, 0.0, graph_kind)
    sums = np.zeros((2, spec.d))
    sqdev = np.zeros((2, spec.d))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        F = draw_gaussian_class(spec, rng)
        F_f = denoise_class(F, cfg)
        sums[0] += F.sum(axis=0)
        sqdev[0] += ((F - spec.mu) ** 2).sum(axis=0)
        sums[1] += F_f.sum(axis=0)
        sqdev[1] += ((F_f - spec.mu) ** 2).sum(axis=0)
    count = trials * spec.m
    means = sums / count
    traces = (sqdev - count * (means - spec.mu) ** 2).sum(axis=1) / (count - 1)
    return tuple(
        CentroidStats(mean_est=means[arm], cov_trace_est=float(traces[arm]), trials=trials)
        for arm in (0, 1)
    )


def outcome(call):
    """call()'s result, or the type and message of the GfdError it raises."""
    try:
        return call()
    except GfdError as exc:
        return type(exc), str(exc)
