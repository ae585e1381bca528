"""Run configuration: defaults, flat `key = value` config files, and CLI
override precedence (flag > config file > built-in default).

Built-in defaults are the field defaults of the config dataclasses, with
the per-mode overrides of `_MODE_DEFAULTS` on top."""

from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args

from .denoise import DenoiseConfig
from .episodes import ClassifierConfig, EpisodeSpec
from .errors import ConfigError, GfdError

MODES = ("denoise", "eval-fewshot", "eval-standard", "verify-theory")

# Per-mode overrides of the dataclass defaults, as config-file values.
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


# Parsers by field type; a `T | None` field parses as T, and a str field
# keeps the text.
_PARSERS = {int: _to_int, float: _to_float, tuple[int, ...]: _to_int_list}


def _parse(key: str, value: str, field_type):
    for option in (field_type, *get_args(field_type)):
        if option in _PARSERS:
            return _PARSERS[option](key, value)
    return value


# Config-file section -> the dataclass of the RunConfig field of that name.
_SECTIONS = {
    "denoise": DenoiseConfig,
    "episode": EpisodeSpec,
    "classifier": ClassifierConfig,
    "theory": TheoryConfig,
    "pool": PoolConfig,
}
# Config keys that are not `section.field` or, for RunConfig's own fields,
# the bare field name.
_RENAMED = {
    "denoise.graph_kind": "denoise.graph",
    "input_path": "io.input",
    "output_path": "io.output",
    "test_path": "io.test",
    "fmt": "io.format",
    "m_values": "episode.m_values",
}


def _config_keys() -> dict:
    own = [(None, f.name, f) for f in fields(RunConfig) if f.name not in ("mode", *_SECTIONS)]
    nested = [
        (section, f"{section}.{f.name}", f)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
    ]
    return {_RENAMED.get(name, name): (section, f) for section, name, f in own + nested}


# Accepted config key -> (section, or None for a RunConfig field; field).
CONFIG_KEYS = _config_keys()


def build_run_config(mode: str, file_settings: dict, overrides: dict) -> RunConfig:
    """Dataclass defaults, then the mode's defaults, the config file and
    the CLI overrides (highest precedence last). Unknown keys are
    rejected."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    settings = {**_MODE_DEFAULTS.get(mode, {}), **file_settings}
    settings.update((key, str(value)) for key, value in overrides.items() if value is not None)
    values = {section: {} for section in (None, *_SECTIONS)}
    for key, value in settings.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, f = CONFIG_KEYS[key]
        values[section][f.name] = _parse(key, value, f.type)
    try:
        sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items()}
        cfg = RunConfig(mode=mode, **sections, **values[None])
        for m in cfg.m_values or ():
            replace(cfg.episode, m_shot=m)  # each sweep spec passes EpisodeSpec's checks
    except GfdError as exc:  # invalid ranges surfaced by the dataclasses
        raise ConfigError(str(exc)) from exc
    if cfg.fmt not in ("text", "bin"):
        raise ConfigError(f"io.format must be text or bin, got {cfg.fmt!r}")
    return cfg


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
        "denoise": asdict(denoise),
        "classifier": asdict(cfg.classifier),
        "io": {
            "input": cfg.input_path,
            "output": cfg.output_path,
            "test": cfg.test_path,
            "format": cfg.fmt,
        },
    }
    if cfg.mode == "eval-fewshot":
        echo["episode"] = {**asdict(cfg.episode), "m_values": cfg.m_values}
    if cfg.mode in ("eval-fewshot", "eval-standard") and cfg.input_path is None:
        echo["pool"] = asdict(cfg.pool)
    if cfg.mode == "verify-theory":
        echo["theory"] = {**asdict(cfg.theory), "graph_kind": cfg.denoise.graph_kind}
    return echo
