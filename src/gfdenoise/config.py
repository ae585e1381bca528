"""Run configuration: defaults, flat `key = value` config files, and CLI
override precedence (flag > config file > built-in default)."""

from dataclasses import dataclass, field

from .denoise import DenoiseConfig
from .episodes import ClassifierConfig, EpisodeSpec
from .errors import ConfigError

MODES = ("denoise", "eval-fewshot", "eval-standard", "verify-theory")

# Built-in defaults, overridden per mode below. Keys mirror the config
# file's section.key form.
_BASE_DEFAULTS = {
    "seed": "0",
    "iterations": "2000",
    "denoise.knn_k": "10",
    "denoise.k1": "1",
    "denoise.k2": "4",
    "denoise.mid_gain": "0.6",
    "denoise.graph": "knn",
    "episode.n_way": "5",
    "episode.m_shot": "5",
    "episode.q_query": "15",
    "episode.m_values": None,
    "classifier.kind": "ncm",
    "classifier.metric": "cosine",
    "io.input": None,
    "io.output": None,
    "io.test": None,
    "io.format": "text",
    "pool.classes": "20",
    "pool.per_class": "100",
    "pool.dim": "64",
    "pool.separation": "4.0",
    "pool.sigma": "1.0",
    "theory.m_values": "5,20,100",
    "theory.d": "8",
    "theory.sigma": "1.0",
    "theory.mu": "1.0",
    "theory.k": "1",
}

_MODE_DEFAULTS = {
    "eval-standard": {
        "classifier.kind": "nn1",
        "classifier.metric": "euclidean",
        "denoise.k1": "20",
        "denoise.k2": "55",
        "pool.classes": "10",
        "pool.per_class": "500",
    },
    "verify-theory": {
        "denoise.graph": "complete",
    },
}


@dataclass(frozen=True)
class TheoryConfig:
    m_values: tuple[int, ...] = (5, 20, 100)
    d: int = 8
    sigma: float = 1.0
    mu: float = 1.0
    k: int = 1


@dataclass(frozen=True)
class PoolConfig:
    classes: int = 20
    per_class: int = 100
    dim: int = 64
    separation: float = 4.0
    sigma: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    mode: str
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)
    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    theory: TheoryConfig = field(default_factory=TheoryConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    seed: int = 0
    iterations: int = 2000
    input_path: str | None = None
    output_path: str | None = None
    test_path: str | None = None
    fmt: str = "text"
    m_values: tuple[int, ...] | None = None  # episode.m_values sweep, if set


def parse_config_file(path) -> dict[str, str]:
    """Flat `section.key = value` lines; `#` starts a comment."""
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            settings[key] = value
    return settings


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _to_int_list(key: str, value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple(_to_int(key, part.strip()) for part in value.split(","))


def effective_settings(mode: str, file_settings: dict, overrides: dict) -> dict:
    """Merge defaults, config-file values, and CLI overrides (highest
    precedence last). Unknown config-file keys are rejected."""
    settings = dict(_BASE_DEFAULTS)
    settings.update(_MODE_DEFAULTS.get(mode, {}))
    for key, value in file_settings.items():
        if key not in settings:
            raise ConfigError(f"unknown config key {key!r}")
        settings[key] = value
    for key, value in overrides.items():
        if value is not None:
            settings[key] = str(value)
    return settings


def build_run_config(mode: str, file_settings: dict, overrides: dict) -> RunConfig:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    s = effective_settings(mode, file_settings, overrides)
    try:
        denoise = DenoiseConfig(
            knn_k=_to_int("denoise.knn_k", s["denoise.knn_k"]),
            k1=_to_int("denoise.k1", s["denoise.k1"]),
            k2=_to_int("denoise.k2", s["denoise.k2"]),
            mid_gain=_to_float("denoise.mid_gain", s["denoise.mid_gain"]),
            graph_kind=s["denoise.graph"],
        )
        episode = EpisodeSpec(
            n_way=_to_int("episode.n_way", s["episode.n_way"]),
            m_shot=_to_int("episode.m_shot", s["episode.m_shot"]),
            q_query=_to_int("episode.q_query", s["episode.q_query"]),
        )
        classifier = ClassifierConfig(kind=s["classifier.kind"], metric=s["classifier.metric"])
        theory = TheoryConfig(
            m_values=_to_int_list("theory.m_values", s["theory.m_values"]),
            d=_to_int("theory.d", s["theory.d"]),
            sigma=_to_float("theory.sigma", s["theory.sigma"]),
            mu=_to_float("theory.mu", s["theory.mu"]),
            k=_to_int("theory.k", s["theory.k"]),
        )
        pool = PoolConfig(
            classes=_to_int("pool.classes", s["pool.classes"]),
            per_class=_to_int("pool.per_class", s["pool.per_class"]),
            dim=_to_int("pool.dim", s["pool.dim"]),
            separation=_to_float("pool.separation", s["pool.separation"]),
            sigma=_to_float("pool.sigma", s["pool.sigma"]),
        )
    except ConfigError:
        raise
    except Exception as exc:  # invalid ranges surfaced by the dataclasses
        raise ConfigError(str(exc)) from exc
    if s["io.format"] not in ("text", "bin"):
        raise ConfigError(f"io.format must be text or bin, got {s['io.format']!r}")
    m_values = None
    if s["episode.m_values"] is not None:
        m_values = _to_int_list("episode.m_values", s["episode.m_values"])
    return RunConfig(
        mode=mode,
        denoise=denoise,
        episode=episode,
        classifier=classifier,
        theory=theory,
        pool=pool,
        seed=_to_int("seed", s["seed"]),
        iterations=_to_int("iterations", s["iterations"]),
        input_path=s["io.input"],
        output_path=s["io.output"],
        test_path=s["io.test"],
        fmt=s["io.format"],
        m_values=m_values,
    )


def config_echo(cfg: RunConfig) -> dict:
    """Exact effective configuration, suitable for byte-identical re-runs.

    A single few-shot run echoes knn_k, k1 and k2 clipped to its support
    class size, as the filter applies them.
    """
    denoise = cfg.denoise
    if cfg.mode == "eval-fewshot" and cfg.m_values is None:
        denoise = denoise.for_class_size(cfg.episode.m_shot)
    echo = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "denoise": {
            "knn_k": denoise.knn_k,
            "k1": denoise.k1,
            "k2": denoise.k2,
            "mid_gain": denoise.mid_gain,
            "graph_kind": denoise.graph_kind,
        },
        "classifier": {"kind": cfg.classifier.kind, "metric": cfg.classifier.metric},
        "io": {
            "input": cfg.input_path,
            "output": cfg.output_path,
            "test": cfg.test_path,
            "format": cfg.fmt,
        },
    }
    if cfg.mode in ("eval-fewshot",):
        echo["episode"] = {
            "n_way": cfg.episode.n_way,
            "m_shot": cfg.episode.m_shot,
            "q_query": cfg.episode.q_query,
            "m_values": list(cfg.m_values) if cfg.m_values is not None else None,
        }
    if cfg.mode in ("eval-fewshot", "eval-standard") and cfg.input_path is None:
        echo["pool"] = {
            "classes": cfg.pool.classes,
            "per_class": cfg.pool.per_class,
            "dim": cfg.pool.dim,
            "separation": cfg.pool.separation,
            "sigma": cfg.pool.sigma,
        }
    if cfg.mode == "verify-theory":
        echo["theory"] = {
            "m_values": list(cfg.theory.m_values),
            "d": cfg.theory.d,
            "sigma": cfg.theory.sigma,
            "mu": cfg.theory.mu,
            "k": cfg.theory.k,
            "graph_kind": cfg.denoise.graph_kind,
        }
    return echo
