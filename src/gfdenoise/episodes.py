"""Few-shot episode sampling and paired with/without-filter evaluation.

Each episode draws n_way classes and, per class, m_shot labeled support
rows plus q_query query rows. Both evaluation arms see bit-identical
episodes from the same seed stream, so the reported delta isolates the
effect of the support-set filter. Query rows are never filtered and never
enter graph construction.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

# The ncm_ and nn1_ names are unused here, but perfbench/layertrace.py traces them here.
from .classify import ClassifierConfig, ncm_fit, ncm_predict, nn1_predict, predict  # noqa: F401
from .data import LabeledFeatures, class_index_map
from .denoise import DenoiseConfig, denoise_dataset, denoise_or_pass
from .errors import GfdError, InsufficientPool, InvalidSize, TooFewSamples

# paired_accuracies gathers the support and query rows of as many episodes
# at a time as fit in this many bytes (at least one episode): five 5-way
# 5-shot 15-query episodes of d = 64. The working set of a chunk is about
# three times its rows. Measured on a 2-vCPU VM for 1000 such episodes,
# chunks of 1, 5 and 50 episodes took 0.72, 0.38 and 0.24 s, and chunks of
# 20 and 80 raised the CLI's peak RSS by 2.3 and 12 MB over chunks of 5.
# centroids.monte_carlo_centroid_stats sizes its chunks of trials by the
# same budget.
EPISODE_CHUNK_BYTES = 256 * 1024


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


# rng is a numpy Generator. It has no annotation because evaluating
# np.random.Generator imports numpy.random, 6 MB of RSS, into every run.
def _draw_rows(rng, index: dict, spec: EpisodeSpec) -> np.ndarray:
    """Pool row indices of one episode, (n_way, m_shot + q_query): n_way
    classes of the class_index_map `index` drawn by rng without
    replacement, then per class, in draw order, its support rows followed
    by its query rows."""
    class_names = list(index)
    if len(class_names) < spec.n_way:
        raise InsufficientPool(
            f"pool has {len(class_names)} classes, episode needs {spec.n_way}"
        )
    need = spec.m_shot + spec.q_query
    chosen = rng.choice(len(class_names), size=spec.n_way, replace=False)
    rows = np.empty((spec.n_way, need), dtype=np.intp)
    for new_id, ci in enumerate(chosen):
        idx = index[class_names[ci]]
        if idx.size < need:
            raise InsufficientPool(
                f"class {class_names[ci]!r} has {idx.size} samples, episode needs {need}"
            )
        rows[new_id] = idx[rng.choice(idx.size, size=need, replace=False)]
    return rows


def sample_episode(pool: LabeledFeatures, spec: EpisodeSpec, seed) -> Episode:
    """Draw one episode uniformly at random, deterministically per seed.

    Selected classes are relabeled 0..n_way-1 (zero-padded strings) in
    draw order; support and query rows are disjoint.
    """
    rows = _draw_rows(np.random.default_rng(seed), class_index_map(pool.labels), spec)
    width = len(str(spec.n_way - 1))
    labels = np.asarray([f"{new_id:0{width}d}" for new_id in range(spec.n_way)])
    return Episode(
        support=LabeledFeatures(
            pool.features[rows[:, : spec.m_shot].ravel()], labels.repeat(spec.m_shot)
        ),
        query=LabeledFeatures(
            pool.features[rows[:, spec.m_shot :].ravel()], labels.repeat(spec.q_query)
        ),
    )


def classify_episode(
    support: LabeledFeatures, query: np.ndarray, cfg: ClassifierConfig
) -> np.ndarray:
    """predict's label for each query row; support's classes in label order."""
    index = class_index_map(support.labels)
    pred = predict(support.features, list(index.values()), np.asarray(query, np.float64), cfg)
    return np.asarray(list(index), dtype=np.str_)[pred]


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

    Episodes are evaluated a chunk at a time (see EPISODE_CHUNK_BYTES): the
    chunk's rows are drawn as sample_episode draws them, every support class
    of the chunk is filtered in one denoise_class call, and both arms are
    classified in one predict call. Accuracies, and any error raised, are
    those of evaluating the episodes one by one: a chunk that fails is
    drawn and filtered again one episode at a time.

    A filtering error is that of denoise_dataset on the first failing
    episode's support rows under their pool labels: it names the pool's
    class and the pool row, e.g. `class 'c1', pool row 13: feature row has
    zero norm`.
    """
    if iterations < 1:
        raise InvalidSize(f"iterations must be >= 1, got {iterations}")
    index = class_index_map(pool.labels)
    n_way, m, d = spec.n_way, spec.m_shot, pool.d
    episode_bytes = n_way * (m + spec.q_query) * d * pool.features.itemsize
    chunk = max(1, EPISODE_CHUNK_BYTES // max(episode_bytes, 1))
    truth = np.arange(n_way).repeat(spec.q_query)
    class_rows = [slice(c * m, (c + 1) * m) for c in range(n_way)]
    # Spawning a chunk's seeds at a time gives the same seeds as spawning
    # all of them at once, without holding them all.
    master = np.random.SeedSequence(seed)
    acc_raw = np.empty(iterations)
    acc_filt = np.empty(iterations)
    for start in range(0, iterations, chunk):
        children = master.spawn(min(chunk, iterations - start))
        try:
            rows = np.stack([_draw_rows(np.random.default_rng(c), index, spec) for c in children])
            support = pool.features[rows[:, :, :m].reshape(len(children), -1)]
            query = pool.features[rows[:, :, m:].reshape(len(children), -1)]
            filtered = denoise_or_pass(
                support.reshape(len(children) * n_way, m, d), denoise_cfg, "every support class"
            ).reshape(support.shape)
        except GfdError:
            # Draw and filter the chunk's episodes one at a time: a child
            # draws the same rows again, so the first failing episode raises.
            for child in children:
                ep_rows = _draw_rows(np.random.default_rng(child), index, spec)[:, :m].ravel()
                denoise_dataset(
                    LabeledFeatures(pool.features[ep_rows], pool.labels[ep_rows]),
                    denoise_cfg, row_name=lambda i: f"pool row {ep_rows[i]}",
                )
            raise
        pred = predict(np.stack([support, filtered]), class_rows, query, classifier_cfg)
        stop = start + len(children)
        acc_raw[start:stop], acc_filt[start:stop] = np.mean(pred == truth, axis=-1)
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
