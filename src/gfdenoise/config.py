"""Run configuration: defaults, flat `key = value` config files, and CLI
override precedence (flag > config file > built-in default).

Built-in defaults are the field defaults of the config dataclasses, with
the per-mode overrides of `_MODE_DEFAULTS` on top."""

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args

from .denoise import DenoiseConfig
from .episodes import ClassifierConfig, EpisodeSpec
from .errors import ConfigError, GfdError, InvalidRange, InvalidSize
from .fileio import FORMATS, escaped_byte, open_text

MODES = ("denoise", "eval-fewshot", "eval-standard", "verify-theory")
# Modes that draw from the seed, and the fewest iterations of the modes
# that run them: paired_accuracies and monte_carlo_centroid_stats raise
# below these. denoise uses neither setting and eval-standard no iterations.
_SEEDED_MODES = ("eval-fewshot", "eval-standard", "verify-theory")
_MIN_ITERATIONS = {"eval-fewshot": 1, "verify-theory": 2}

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

    def __post_init__(self):
        if self.d < 1:
            raise InvalidSize(f"theory.d must be >= 1, got {self.d}")
        if not 0.0 < self.sigma < math.inf:
            raise InvalidRange(f"theory.sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise InvalidRange(f"theory.mu must be finite, got {self.mu}")
        if self.k < 1:
            raise InvalidRange(f"theory.k must be >= 1, got {self.k}")
        if any(m < 2 for m in self.m_values):
            raise InvalidSize(f"theory.m_values must all be >= 2, got {list(self.m_values)}")
        if self.m_values and self.k > min(self.m_values):
            raise InvalidRange(
                f"theory.k must be <= min(theory.m_values) = {min(self.m_values)}, "
                f"got {self.k}"
            )


@dataclass(frozen=True)
class PoolConfig:
    classes: int = 20
    per_class: int = 100
    dim: int = 64
    separation: float = 4.0
    sigma: float = 1.0

    def __post_init__(self):
        # make_gaussian_pool checks its arguments too; these name the keys.
        if self.classes < 1:
            raise InvalidSize(f"pool.classes must be >= 1, got {self.classes}")
        if self.per_class < 1:
            raise InvalidSize(f"pool.per_class must be >= 1, got {self.per_class}")
        if self.dim < self.classes:
            raise InvalidSize(f"pool.dim must be >= pool.classes = {self.classes}, got {self.dim}")
        if not 0.0 < self.sigma < math.inf:
            raise InvalidRange(f"pool.sigma must be positive and finite, got {self.sigma}")
        if not 0.0 <= self.separation < math.inf:
            raise InvalidRange(f"pool.separation must be finite and >= 0, got {self.separation}")


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

    def __post_init__(self):
        for m in self.m_values or ():
            replace(self.episode, m_shot=m)  # each sweep spec passes EpisodeSpec's checks
        for name in ("input_path", "output_path", "test_path"):
            if getattr(self, name) == "":
                raise ConfigError(f"{_RENAMED[name]} must be a path, got an empty value")
        if self.fmt not in FORMATS:
            raise InvalidRange(f"io.format must be {' or '.join(FORMATS)}, got {self.fmt!r}")
        if self.mode in _SEEDED_MODES and self.seed < 0:
            raise InvalidRange(f"seed must be >= 0, got {self.seed}")
        least = _MIN_ITERATIONS.get(self.mode)
        if least is not None and self.iterations < least:
            raise InvalidSize(
                f"iterations must be >= {least} for {self.mode}, got {self.iterations}"
            )


def parse_config_file(path) -> dict[str, str]:
    """Flat `section.key = value` lines of UTF-8 text; `#` starts a comment."""
    settings = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if (byte := escaped_byte(raw)) is not None:
                raise ConfigError(f"{path}:{lineno}: byte 0x{byte:02x} is not valid UTF-8")
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
    the CLI overrides (highest precedence last). Settings and overrides
    map config keys to their raw text, an override to None when unset;
    every value is parsed by its field's type and checked by the
    dataclass that owns it. Unknown keys are rejected."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    settings = {**_MODE_DEFAULTS.get(mode, {}), **file_settings}
    settings.update((key, value) for key, value in overrides.items() if value is not None)
    values = {section: {} for section in (None, *_SECTIONS)}
    for key, value in settings.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, f = CONFIG_KEYS[key]
        values[section][f.name] = _parse(key, value, f.type)
    try:
        sections = {name: cls(**values[name]) for name, cls in _SECTIONS.items()}
        return RunConfig(mode=mode, **sections, **values[None])
    except GfdError as exc:  # invalid ranges surfaced by the dataclasses
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: RunConfig) -> dict:
    """Exact effective configuration, suitable for byte-identical re-runs.

    A single few-shot run echoes knn_k, k1 and k2 clipped to its support
    class size, as the filter applies them. verify-theory echoes the
    rank-k low-pass its trials apply: k1 = k2 = theory.k, mid_gain 0.
    """
    denoise = cfg.denoise
    if cfg.mode == "eval-fewshot" and cfg.m_values is None:
        denoise = denoise.for_class_size(cfg.episode.m_shot)
    if cfg.mode == "verify-theory":
        denoise = replace(denoise, k1=cfg.theory.k, k2=cfg.theory.k, mid_gain=0.0)
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
