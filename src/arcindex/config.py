"""Pipeline configuration: defaults, file loading, and validation.

Config files are flat ``key = value`` text; ``#`` starts a comment. Keys
match the field names of :class:`PipelineConfig`. Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class PipelineConfig:
    block_size: int = 250          # tokens per logical block
    prime_max: int = 10            # at most this many prime characters
    min_mentions: int = 5          # mention floor for prime selection
    window: int = 50               # co-mention window, in tokens
    edge_threshold: float = 0.25   # normalized edge weight for core membership
    alpha: float = 0.0             # additive sentiment offset
    smoothing_radius: int = 1      # blocks each side in the moving average
    max_pivots: int = 16           # pivot cap per character pair
    dt_mode: str = "fixed"         # "fixed" or "adaptive"
    dt: float = 0.4                # threshold value when dt_mode == "fixed"
    length_ratio_limit: float = 0.3  # alignment switches strategy above this

    def validate(self) -> "PipelineConfig":
        if self.block_size < 50:
            raise ConfigError("block_size must be >= 50 (smaller blocks score sentiment too noisily)")
        if self.prime_max < 1:
            raise ConfigError("prime_max must be >= 1")
        if self.min_mentions < 1:
            raise ConfigError("min_mentions must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not 0.0 <= self.edge_threshold <= 1.0:
            raise ConfigError("edge_threshold must be in [0, 1]")
        if not 0.0 <= self.alpha <= 0.1:
            raise ConfigError("alpha must be in [0, 0.1]")
        if self.smoothing_radius < 0:
            raise ConfigError("smoothing_radius must be >= 0")
        if self.max_pivots < 2:
            raise ConfigError("max_pivots must be >= 2")
        if self.dt_mode not in ("fixed", "adaptive"):
            raise ConfigError("dt_mode must be 'fixed' or 'adaptive'")
        if not 0.0 < self.dt < 1.0:
            raise ConfigError("dt must be in (0, 1)")
        if not 0.0 < self.length_ratio_limit < 1.0:
            raise ConfigError("length_ratio_limit must be in (0, 1)")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs).validate()


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    cfg = base or PipelineConfig()
    return dataclasses.replace(cfg, **values).validate()


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def format_config(cfg: PipelineConfig) -> str:
    lines = [f"{name} = {value}" for name, value in cfg.to_dict().items()]
    return "\n".join(lines) + "\n"
