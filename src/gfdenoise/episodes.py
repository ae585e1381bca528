"""Few-shot episode sampling and paired with/without-filter evaluation.

Each episode draws n_way classes and, per class, m_shot labeled support
rows plus q_query query rows. Both evaluation arms see bit-identical
episodes from the same seed stream, so the reported delta isolates the
effect of the support-set filter. Query rows are never filtered and never
enter graph construction.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .classify import ncm_fit, ncm_predict, nn1_predict
from .data import LabeledFeatures, class_index_map
from .denoise import DenoiseConfig, denoise_dataset
from .errors import InsufficientPool, InvalidRange, InvalidSize, TooFewSamples

CLASSIFIER_KINDS = ("ncm", "nn1")


@dataclass(frozen=True)
class EpisodeSpec:
    """n_way classes with m_shot support and q_query query rows each."""

    n_way: int = 5
    m_shot: int = 5
    q_query: int = 15

    def __post_init__(self):
        if self.n_way < 2:
            raise InvalidSize(f"n_way must be >= 2, got {self.n_way}")
        if self.m_shot < 1 or self.q_query < 1:
            raise InvalidSize("m_shot and q_query must be >= 1")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "ncm"
    metric: str = "cosine"

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvalidRange(f"classifier kind must be one of {CLASSIFIER_KINDS}")
        if self.metric not in ("euclidean", "cosine"):
            raise InvalidRange(f"metric must be euclidean or cosine, got {self.metric!r}")


@dataclass(frozen=True)
class Episode:
    """Disjoint support and query sets over the same selected classes."""

    support: LabeledFeatures
    query: LabeledFeatures


@dataclass(frozen=True)
class EvalReport:
    mean_accuracy: float
    ci95_halfwidth: float
    iterations: int
    config_echo: dict = field(default_factory=dict)


def confidence_interval(values) -> tuple[float, float]:
    """Mean and normal-approximation 95% halfwidth 1.96 * s / sqrt(n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise TooFewSamples(f"need >= 2 values, got {values.size}")
    return float(values.mean()), float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def sample_episode(pool: LabeledFeatures, spec: EpisodeSpec, seed) -> Episode:
    """Draw one episode uniformly at random, deterministically per seed.

    Selected classes are relabeled 0..n_way-1 (zero-padded strings) in
    draw order; support and query rows are disjoint.
    """
    rng = np.random.default_rng(seed)
    index = class_index_map(pool.labels)
    class_names = list(index)
    if len(class_names) < spec.n_way:
        raise InsufficientPool(
            f"pool has {len(class_names)} classes, episode needs {spec.n_way}"
        )
    need = spec.m_shot + spec.q_query
    chosen = rng.choice(len(class_names), size=spec.n_way, replace=False)
    width = len(str(spec.n_way - 1))
    sup_rows, sup_labels, qry_rows, qry_labels = [], [], [], []
    for new_id, ci in enumerate(chosen):
        idx = index[class_names[ci]]
        if idx.size < need:
            raise InsufficientPool(
                f"class {class_names[ci]!r} has {idx.size} samples, episode needs {need}"
            )
        pick = idx[rng.choice(idx.size, size=need, replace=False)]
        label = f"{new_id:0{width}d}"
        sup_rows.append(pool.features[pick[: spec.m_shot]])
        qry_rows.append(pool.features[pick[spec.m_shot :]])
        sup_labels.extend([label] * spec.m_shot)
        qry_labels.extend([label] * spec.q_query)
    return Episode(
        support=LabeledFeatures(np.concatenate(sup_rows), np.asarray(sup_labels)),
        query=LabeledFeatures(np.concatenate(qry_rows), np.asarray(qry_labels)),
    )


def classify_episode(
    support: LabeledFeatures, query: np.ndarray, cfg: ClassifierConfig
) -> np.ndarray:
    if cfg.kind == "ncm":
        return ncm_predict(ncm_fit(support, cfg.metric), query)
    return nn1_predict(support, query, cfg.metric)


def paired_accuracies(
    pool: LabeledFeatures,
    spec: EpisodeSpec,
    denoise_cfg: DenoiseConfig,
    classifier_cfg: ClassifierConfig,
    iterations: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode query accuracy without and with support filtering.

    Both arms evaluate the identical episode; only the support features
    differ (raw vs denoised). Episode seeds are spawned from the master
    seed, so results do not depend on evaluation order.
    """
    if iterations < 1:
        raise InvalidSize(f"iterations must be >= 1, got {iterations}")
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


def _mean_halfwidth(values: np.ndarray) -> tuple[float, float]:
    """confidence_interval, with a halfwidth of 0 for a single value."""
    if values.size == 1:
        return float(values[0]), 0.0
    return confidence_interval(values)


def paired_report(acc_raw: np.ndarray, acc_filt: np.ndarray) -> dict:
    """Both arms' mean accuracy and the paired with-minus-without delta,
    each with its 95% halfwidth."""
    report = {}
    for arm, accuracies in (("without_filter", acc_raw), ("with_filter", acc_filt)):
        mean, hw = _mean_halfwidth(accuracies)
        report[arm] = {
            "mean_accuracy": mean,
            "ci95_halfwidth": hw,
            "iterations": int(accuracies.size),
        }
    mean, hw = _mean_halfwidth(acc_filt - acc_raw)
    report["paired_delta"] = {"mean": mean, "ci95_halfwidth": hw}
    return report


def per_m_seeds(seed: int, m_values) -> list[int]:
    """One seed per shot count (or per class size), derived from the
    master seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(len(m_values))]


def run_fewshot_eval(
    pool: LabeledFeatures,
    spec: EpisodeSpec,
    denoise_cfg: DenoiseConfig,
    classifier_cfg: ClassifierConfig,
    iterations: int,
    seed: int,
) -> tuple[EvalReport, EvalReport]:
    """Aggregate paired episode accuracies into (without, with) reports."""
    report = paired_report(
        *paired_accuracies(pool, spec, denoise_cfg, classifier_cfg, iterations, seed)
    )
    echo = {
        "episode": asdict(spec),
        "denoise": asdict(denoise_cfg.for_class_size(spec.m_shot)),
        "classifier": asdict(classifier_cfg),
        "iterations": iterations,
        "seed": seed,
    }
    return tuple(
        EvalReport(**report[arm], config_echo={**echo, "arm": arm})
        for arm in ("without_filter", "with_filter")
    )


def sweep_shots(
    pool: LabeledFeatures,
    spec_base: EpisodeSpec,
    m_values,
    denoise_cfg: DenoiseConfig,
    classifier_cfg: ClassifierConfig,
    iterations: int,
    seed: int,
) -> list[tuple[EvalReport, EvalReport]]:
    """run_fewshot_eval per shot count, with per-m seeds derived from the
    master seed."""
    m_values = list(m_values)
    return [
        run_fewshot_eval(
            pool, replace(spec_base, m_shot=int(m)), denoise_cfg, classifier_cfg,
            iterations, m_seed,
        )
        for m, m_seed in zip(m_values, per_m_seeds(seed, m_values))
    ]
