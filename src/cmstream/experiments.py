"""Reusable experiment scenarios: the two-user participation-filter study
and the heterogeneous three-user scenario behind the cooperation
comparison and the auction-overhead sweep. Each returns a config and a
seeded trace generator for ``run_comparison``.

Trace statistics are illustrative (the original measurement traces are not
public); every scenario is driven by seeded synthetic traces so results are
reproducible.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .engine import SimConfig
from .model import UserProfile
from .strategy import ParticipationConfig
from .traceio import CapacityTrace, EncounterTrace


def standard_profile(user_id: str, **overrides) -> UserProfile:
    """The default profile with the link cost used across the shipped
    experiments."""
    return UserProfile(user_id, **{"link_cost_per_s": 0.45, **overrides})


def phased_capacity(phases: Sequence[Tuple[float, float, float]],
                    step_s: float, rng: np.random.Generator,
                    ) -> Tuple[Tuple[float, float], ...]:
    """Piecewise capacity from (duration_s, mean, std) phases; each step draws
    a normal truncated at zero."""
    points: List[Tuple[float, float]] = []
    t = 0.0
    for duration, mean, std in phases:
        steps = int(round(duration / step_s))
        draws = np.clip(rng.normal(mean, std, size=steps), 0.0, None)
        for h in draws:
            points.append((t, float(h)))
            t += step_s
    return tuple(points)


def two_user_scenario(
    mean_b_phase1: float,
    modified: bool,
    video_length_s: float = 200.0,
) -> Tuple[SimConfig, "TraceGen"]:
    """User A has a steady good link; user B's link is weak for the first
    100 s and recovers afterwards. `modified` switches the participation
    filter on.

    The download cost is set high enough that the per-auction optimum sits
    below the top ladder rate, so one good link can serve both users."""
    rel_std, step_s = 0.1, 5.0
    users = (standard_profile("A", cost_per_mbit=0.25),
             standard_profile("B", cost_per_mbit=0.25))
    cfg = SimConfig(
        users=users,
        K=1,
        mechanism="momd",
        participation=ParticipationConfig(alpha_buf=1.0, alpha_link=0.5),
        participation_enabled=modified,
        video_length_s=video_length_s,
    )

    def gen(seed: int) -> Tuple[CapacityTrace, EncounterTrace]:
        rng = np.random.default_rng(seed)
        horizon = video_length_s * 6 + 200.0
        a = phased_capacity([(horizon, 3.0, 3.0 * rel_std)], step_s, rng)
        b = phased_capacity(
            [(100.0, mean_b_phase1, mean_b_phase1 * rel_std),
             (horizon - 100.0, 3.0, 3.0 * rel_std)], step_s, rng)
        return CapacityTrace({"A": a, "B": b}), EncounterTrace()

    return cfg, gen


def heterogeneous_scenario(
    mechanism: str,
    K: int = 1,
    overhead_energy: float = 0.0,
) -> Tuple[SimConfig, "TraceGen"]:
    """One high-capacity and two low-capacity users watching 100 s videos."""
    video_length_s = 100.0
    high_mean, low_mean, rel_std, step_s = 4.0, 0.18, 0.5, 5.0
    users = (standard_profile("A"), standard_profile("B"),
             standard_profile("C"))
    cfg = SimConfig(
        users=users,
        K=K,
        mechanism=mechanism,
        video_length_s=video_length_s,
        overhead_energy_per_auction=overhead_energy,
    )

    def gen(seed: int) -> Tuple[CapacityTrace, EncounterTrace]:
        rng = np.random.default_rng(seed)
        horizon = video_length_s * 12 + 400.0
        points = {
            "A": phased_capacity([(horizon, high_mean, high_mean * rel_std)],
                                 step_s, rng),
            "B": phased_capacity([(horizon, low_mean, low_mean * rel_std)],
                                 step_s, rng),
            "C": phased_capacity([(horizon, low_mean, low_mean * rel_std)],
                                 step_s, rng),
        }
        return CapacityTrace(points), EncounterTrace()

    return cfg, gen
