"""Reading, checking and writing the YAML config files.

Every subcommand that takes ``--config`` loads it with :func:`load_config`.
The accepted keys and their defaults are the fields of the dataclasses
they build (``SimConfig``, ``UserProfile``, ``BitrateLadder``,
``AdaptationPolicy``, ``ParticipationConfig``); unknown keys are rejected
at every level so typos fail fast. ``trace_stats``/``trace`` sections
parameterize synthetic trace generation for the gen-traces and compare
commands and are checked whenever a config loads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import yaml

from .engine import SimConfig
from .model import BitrateLadder, UserProfile
from .strategy import AdaptationPolicy, ParticipationConfig


def lossless_int(value) -> int:
    """An int from an int or an integral float; bools and the rest fail."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _float(value) -> float:
    """A float from a number or a numeric string (PyYAML reads ``1e-3`` as
    one); bools and the rest fail."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


# coercions by field type; the dataclass modules use postponed annotations,
# so each field.type is a string
_SCALARS = {"bool": _bool, "float": _float, "int": lossless_int, "str": str,
            "Tuple[float, ...]": lambda v: tuple(map(_float, v))}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TraceSpec:
    """Synthetic capacity traces: per-user (mean, std) in Mbps, one draw
    every ``step_s`` seconds up to ``horizon_s``."""

    stats: Dict[str, Tuple[float, float]]
    horizon_s: float
    step_s: float


def read_yaml(path) -> dict:
    """The mapping at the top of a YAML file; anything else is a
    ConfigError."""
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return data


def _mapping(data, where: str) -> Mapping:
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: expected a mapping")
    return data


def _reject_unknown(data: Mapping, allowed, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def coerce(type_name: str, value, where: str):
    """``value`` coerced to the field type ``type_name`` (``"float"``,
    ``"int"``, ...), or a ConfigError naming ``where``."""
    try:
        return _SCALARS.get(type_name, lambda v: v)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build(cls, data, where: str, **built):
    """``cls`` from a mapping keyed by its field names. Scalars are coerced
    to the field's type, absent keys keep the field's default, and ``built``
    holds the fields the caller has converted itself."""
    data = _mapping(data, where)
    _reject_unknown(data, [f.name for f in fields(cls)], where)
    kwargs = dict(built)
    for f in fields(cls):
        if f.name in data and f.name not in built:
            kwargs[f.name] = coerce(f.type, data[f.name], f"{where}.{f.name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _positive(value, where: str, zero_ok: bool = False) -> float:
    """``value`` as a finite float > 0, or >= 0 when ``zero_ok``."""
    try:
        v = _float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (0 < v < math.inf or zero_ok and v == 0):
        bound = ">= 0" if zero_ok else "> 0"
        raise ConfigError(f"{where} must be finite and {bound}, got {value!r}")
    return v


def user_from_dict(data: Mapping) -> UserProfile:
    data = _mapping(data, "user")
    return _build(UserProfile, data, "user",
                  ladder=_build(BitrateLadder, data.get("ladder"), "ladder"))


def sim_config_from_dict(data: Mapping) -> SimConfig:
    data = _mapping(data, "config")
    # the field is written as participation.enabled
    if "participation_enabled" in data:
        raise ConfigError("config: unknown keys ['participation_enabled']")
    users = data.get("users", ())
    if not isinstance(users, (list, tuple)):
        raise ConfigError("config: users must be a list")
    adaptation = data.get("adaptation")
    if isinstance(adaptation, str):
        adaptation = {"kind": adaptation}
    participation = dict(_mapping(data.get("participation"), "participation"))
    enabled = coerce("bool", participation.pop("enabled", False),
                     "participation.enabled")
    return _build(
        SimConfig, data, "config",
        users=tuple(user_from_dict(u) for u in users),
        adaptation=_build(AdaptationPolicy, adaptation, "adaptation"),
        participation=_build(ParticipationConfig, participation,
                             "participation"),
        participation_enabled=enabled)


def sim_config_to_dict(cfg: SimConfig) -> Dict:
    out = asdict(cfg)
    out["participation"]["enabled"] = out.pop("participation_enabled")
    return out


def trace_stats_from_dict(data: Mapping) -> Dict[str, Tuple[float, float]]:
    """Per-user (mean, std) capacity statistics for synthetic traces; each
    mean must be finite and > 0, each std finite and >= 0."""
    out = {}
    for user, entry in _mapping(data, "trace_stats").items():
        where = f"trace_stats.{user}"
        entry = _mapping(entry, where)
        _reject_unknown(entry, {"mean", "std"}, where)
        out[str(user)] = (
            _positive(entry.get("mean"), f"{where}.mean"),
            _positive(entry.get("std", 0.0), f"{where}.std", zero_ok=True))
    return out


def load_config(path) -> Tuple[SimConfig, Optional[TraceSpec]]:
    """The SimConfig in a config file (or a run's config_snapshot.yaml),
    plus its synthetic-trace spec when it has a ``trace_stats`` section.

    The ``trace`` section is checked even without one. Its horizon defaults
    to ``video_length_s * 12 + 400`` and its step to 5 s.
    """
    data = read_yaml(path)
    for key in ("traces_dir", "compare"):  # snapshot bookkeeping
        data.pop(key, None)
    stats = trace_stats_from_dict(data.pop("trace_stats", None))
    trace = _mapping(data.pop("trace", None), "trace")
    cfg = sim_config_from_dict(data)
    _reject_unknown(trace, {"horizon_s", "step_s"}, "trace")
    spec = TraceSpec(
        stats,
        _positive(trace.get("horizon_s", cfg.video_length_s * 12 + 400.0),
                  "trace.horizon_s"),
        _positive(trace.get("step_s", 5.0), "trace.step_s"))
    return cfg, spec if stats else None


def write_snapshot(out_dir: Path, cfg: SimConfig,
                   spec: Optional[TraceSpec] = None, **extra) -> None:
    """Write ``config_snapshot.yaml``: everything :func:`load_config` needs
    to re-run ``cfg`` (and ``spec``), plus the bookkeeping keys in
    ``extra`` (``traces_dir``, ``compare``), which loading ignores."""
    snapshot = sim_config_to_dict(cfg)
    if spec is not None:
        snapshot["trace_stats"] = {u: {"mean": m, "std": s}
                                   for u, (m, s) in spec.stats.items()}
        snapshot["trace"] = {"horizon_s": spec.horizon_s,
                             "step_s": spec.step_s}
    snapshot.update(extra)
    (out_dir / "config_snapshot.yaml").write_text(
        yaml.safe_dump(snapshot, sort_keys=True))
