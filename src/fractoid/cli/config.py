"""Experiment configuration: JSON (or TOML on Python 3.11+) plus
``--set key=value`` overrides; flags win over the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..geometry import chart_from_json, get_chart
from ..persistence import check_fields

try:
    import tomllib
except ModuleNotFoundError:                      # Python < 3.11
    tomllib = None


@dataclass
class ExperimentConfig:
    suite: str = ""
    chart: str = "euclidean:1"
    epsilon: float = 1.0
    drift: str = "zero"
    omega: float = 1.0
    n_paths: int = 0               # 0 = suite default (see suites.DEFAULT_PATHS)
    t_final: float = 1.0
    dt: float = 0.01
    x0: list | None = None         # start point; None = chart default
    seed: int | None = None
    min_count: int = 200
    lag: int = 1
    causal_split: str = "off"
    est_t_bins: int = 4
    est_x_min: float = -2.0
    est_x_max: float = 2.0
    est_x_bins: int = 16
    lattice_t: float = 1.0
    lattice_dt: float = 0.125
    lattice_l: float = 1.0
    lattice_dx: float = 0.25
    lattice_d: int = 2
    out_dir: str = "."

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("config key 'seed' is required (no implicit randomness)")
        try:
            resolve_chart(self.chart)
        except ConfigError as exc:
            raise ConfigError(f"config key 'chart': {exc}") from None
        make_drift(self.drift, self.omega)  # raises ConfigError on bad names
        if self.n_paths < 0:
            raise ConfigError("config key 'n_paths' must be >= 0 (0 = suite default)")


_FLOAT_MAX = float(np.finfo(float).max)   # NaN compares false, inf and huge ints above

# the values each annotated field type accepts (bool is never a number)
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "list | None": ((list, type(None)), "a list or null"),
    "int | None": ((int, type(None)), "an integer or null"),
}


def _is_start(x0: list) -> bool:
    """One point (a list of finite numbers) or one per path (equal-length
    lists of them); a bool is not a number."""
    rows = x0 if x0 and all(isinstance(r, list) for r in x0) else [x0]
    return (len({len(r) for r in rows}) == 1
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= _FLOAT_MAX for r in rows for v in r))


def resolve_chart(name: str):
    """Registry name, or a path to a custom diagonal-metric JSON description."""
    if name.endswith(".json"):
        if not Path(name).exists():
            raise ConfigError(f"custom chart file not found: {name}")
        return chart_from_json(name)
    return get_chart(name)


def make_drift(name: str, omega: float = 1.0):
    """Drift registry: zero, ou (rate omega), const:v0[,v1,...]."""
    name = name.strip()
    if name == "zero":
        return None
    if name == "ou":
        return lambda t, x: -omega * x
    if name.startswith("const:"):
        try:
            vec = np.array([float(v) for v in name.split(":", 1)[1].split(",")])
        except ValueError:
            raise ConfigError(f"bad constant drift '{name}'") from None
        return lambda t, x: np.broadcast_to(vec, x.shape)
    raise ConfigError(f"unknown drift '{name}'; available: zero, ou, const:v0[,v1,..]")


def load_config(path: str | None, overrides: list[str] | None = None,
                **direct) -> ExperimentConfig:
    """Read the config file, then apply --set overrides and direct kwargs."""
    data: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        toml = p.suffix == ".toml"
        if toml and tomllib is None:
            raise ConfigError("TOML configs need Python >= 3.11; use JSON")
        try:
            text = p.read_text(encoding="utf8")
            data = tomllib.loads(text) if toml else json.loads(text)
        except (OSError, ValueError) as exc:
            # bytes that are not UTF-8 and both parsers' errors are ValueErrors
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        check_fields(data, {}, f"config {path}")
    valid = {f.name: f for f in fields(ExperimentConfig)}
    for key in data:
        if key not in valid:
            raise ConfigError(f"unknown config key '{key}'")
    cfg_kwargs = dict(data)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in valid:
            raise ConfigError(f"unknown config key '{key}' in --set")
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = raw
        cfg_kwargs[key] = parsed
    for key, value in direct.items():
        if value is not None:
            cfg_kwargs[key] = value
    # re-coerce numerics that arrived as strings, then check every type
    out = {}
    for key, value in cfg_kwargs.items():
        ftype = valid[key].type
        if isinstance(value, str) and ftype in ("int", "float", "int | None"):
            try:
                value = int(value) if "int" in ftype else float(value)
            except ValueError:
                raise ConfigError(f"config key '{key}' expects a number, got '{value}'")
        types, expected = _FIELD_TYPES[ftype]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"config key '{key}' expects {expected}, got {value!r}")
        if ftype == "float" and not abs(value) <= _FLOAT_MAX:
            raise ConfigError(f"config key '{key}' expects a finite number, got {value!r}")
        if key == "x0" and value is not None and not _is_start(value):
            raise ConfigError("config key 'x0' expects a list of numbers or a list of "
                              f"equal-length lists of numbers, got {value!r}")
        out[key] = value
    return ExperimentConfig(**out)
