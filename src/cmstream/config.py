"""SimConfig <-> dict conversion backing the YAML config files.

Every SimConfig field is covered; unknown keys are rejected so typos fail
fast. ``trace_stats``/``trace`` sections parameterize synthetic trace
generation for the gen-traces and compare commands.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .engine import SimConfig
from .model import BitrateLadder, UserProfile
from .strategy import AdaptationPolicy, ParticipationConfig

DEFAULT_LADDER_RATES = (0.2, 0.4, 0.7, 1.3, 2.3)

_TOP_KEYS = {
    "users", "K", "mechanism", "adaptation", "participation",
    "video_length_s", "overhead_energy_per_auction",
    "overhead_time_per_auction_s", "d2d_delay_s", "seed", "idle_retry_s",
    "trace_stats", "trace",
}

_USER_KEYS = {
    "user_id", "ladder", "theta", "cost_per_mbit", "buffer_gain_scale",
    "buffer_gain_decay", "degradation_slope", "link_cost_per_s", "helper",
}


class ConfigError(ValueError):
    pass


def _reject_unknown(data: Mapping, allowed, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def ladder_from_dict(data: Optional[Mapping]) -> BitrateLadder:
    data = dict(data or {})
    _reject_unknown(data, {"rates", "segment_length_s", "max_buffer_s"},
                    "ladder")
    return BitrateLadder(
        rates=tuple(data.get("rates", DEFAULT_LADDER_RATES)),
        segment_length_s=float(data.get("segment_length_s", 10.0)),
        max_buffer_s=float(data.get("max_buffer_s", 40.0)),
    )


def user_from_dict(data: Mapping) -> UserProfile:
    _reject_unknown(data, _USER_KEYS, "user")
    if "user_id" not in data:
        raise ConfigError("user: missing user_id")
    return UserProfile(
        user_id=str(data["user_id"]),
        ladder=ladder_from_dict(data.get("ladder")),
        theta=float(data.get("theta", 1.0)),
        cost_per_mbit=float(data.get("cost_per_mbit", 0.01)),
        buffer_gain_scale=float(data.get("buffer_gain_scale", 6.0)),
        buffer_gain_decay=float(data.get("buffer_gain_decay", 0.7)),
        degradation_slope=float(data.get("degradation_slope", 1.0)),
        link_cost_per_s=float(data.get("link_cost_per_s", 0.0)),
        helper=bool(data.get("helper", True)),
    )


def sim_config_from_dict(data: Mapping) -> SimConfig:
    _reject_unknown(data, _TOP_KEYS, "config")
    try:
        users = tuple(user_from_dict(u) for u in data.get("users", []))
        adaptation = data.get("adaptation") or {}
        if isinstance(adaptation, str):
            adaptation = {"kind": adaptation}
        _reject_unknown(adaptation, {"kind"}, "adaptation")
        participation = dict(data.get("participation") or {})
        _reject_unknown(participation, {"enabled", "alpha_buf", "alpha_link"},
                        "participation")
        enabled = bool(participation.pop("enabled", False))
        return SimConfig(
            users=users,
            K=int(data.get("K", 1)),
            mechanism=str(data.get("mechanism", "momd")),
            adaptation=AdaptationPolicy(
                kind=str(adaptation.get("kind", "optimal"))),
            participation=ParticipationConfig(
                alpha_buf=float(participation.get("alpha_buf", 1.0)),
                alpha_link=float(participation.get("alpha_link", 0.5))),
            participation_enabled=enabled,
            video_length_s=float(data.get("video_length_s", 100.0)),
            overhead_energy_per_auction=float(
                data.get("overhead_energy_per_auction", 0.0)),
            overhead_time_per_auction_s=float(
                data.get("overhead_time_per_auction_s", 0.0)),
            d2d_delay_s=float(data.get("d2d_delay_s", 0.0)),
            seed=int(data.get("seed", 0)),
            idle_retry_s=float(data.get("idle_retry_s", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def sim_config_to_dict(cfg: SimConfig) -> Dict:
    return {
        "users": [
            {
                "user_id": u.user_id,
                "ladder": {
                    "rates": list(u.ladder.rates),
                    "segment_length_s": u.ladder.segment_length_s,
                    "max_buffer_s": u.ladder.max_buffer_s,
                },
                "theta": u.theta,
                "cost_per_mbit": u.cost_per_mbit,
                "buffer_gain_scale": u.buffer_gain_scale,
                "buffer_gain_decay": u.buffer_gain_decay,
                "degradation_slope": u.degradation_slope,
                "link_cost_per_s": u.link_cost_per_s,
                "helper": u.helper,
            }
            for u in cfg.users
        ],
        "K": cfg.K,
        "mechanism": cfg.mechanism,
        "adaptation": {"kind": cfg.adaptation.kind},
        "participation": {"enabled": cfg.participation_enabled,
                          "alpha_buf": cfg.participation.alpha_buf,
                          "alpha_link": cfg.participation.alpha_link},
        "video_length_s": cfg.video_length_s,
        "overhead_energy_per_auction": cfg.overhead_energy_per_auction,
        "overhead_time_per_auction_s": cfg.overhead_time_per_auction_s,
        "d2d_delay_s": cfg.d2d_delay_s,
        "seed": cfg.seed,
        "idle_retry_s": cfg.idle_retry_s,
    }


def trace_stats_from_dict(data: Mapping) -> Dict[str, Tuple[float, float]]:
    """Per-user (mean, std) capacity statistics for synthetic traces."""
    out = {}
    for user, entry in (data or {}).items():
        _reject_unknown(entry, {"mean", "std"}, f"trace_stats.{user}")
        out[str(user)] = (float(entry["mean"]), float(entry.get("std", 0.0)))
    return out
