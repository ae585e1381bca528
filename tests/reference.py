"""References the stacked code is compared against: the per-episode loop
that defines paired_accuracies, and the outcome of a call, errors included."""

import numpy as np

from gfdenoise.denoise import denoise_dataset
from gfdenoise.episodes import classify_episode, sample_episode
from gfdenoise.errors import GfdError


def per_episode_accuracies(pool, spec, denoise_cfg, classifier_cfg, iterations, seed):
    """Per-episode query accuracy without and with support filtering,
    evaluated one episode at a time: sample_episode, classify_episode on the
    raw support, denoise_dataset, classify_episode on the filtered support."""
    acc_raw = np.empty(iterations)
    acc_filt = np.empty(iterations)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(iterations)):
        ep = sample_episode(pool, spec, child)
        truth = ep.query.labels
        pred_raw = classify_episode(ep.support, ep.query.features, classifier_cfg)
        filtered = denoise_dataset(ep.support, denoise_cfg)
        pred_filt = classify_episode(filtered, ep.query.features, classifier_cfg)
        acc_raw[i] = np.mean(pred_raw == truth)
        acc_filt[i] = np.mean(pred_filt == truth)
    return acc_raw, acc_filt


def outcome(call):
    """call()'s result, or the type and message of the GfdError it raises."""
    try:
        return call()
    except GfdError as exc:
        return type(exc), str(exc)
