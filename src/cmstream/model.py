"""User model: profiles, streaming state, and the utility/cost/welfare functions.

All gains, losses, costs and prices share one dimensionless "utility" unit.
Bitrates are in Mbps, times in playback seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


def lsum(values: Iterable[float]):
    """Builtin ``sum()`` as Python <= 3.11 computes it over floats: one
    left-to-right addition per value, where 3.12+ compensates. Every float
    sum goes through here, so a run is bit-identical on every version."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class BitrateLadder:
    """The finite set of available encodings plus segment/buffer geometry."""

    rates: Tuple[float, ...] = (0.2, 0.4, 0.7, 1.3, 2.3)
    segment_length_s: float = 10.0
    max_buffer_s: float = 40.0

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) < 1:
            raise ValueError("ladder needs at least one rate")
        if not all(math.isfinite(r) and r > 0 for r in self.rates):
            raise ValueError("ladder rates must be finite and positive")
        if any(b >= a for a, b in zip(self.rates[1:], self.rates)):
            raise ValueError("ladder rates must be strictly increasing")
        # NaN fails every comparison, so this also rejects it
        if not 0 < self.segment_length_s <= self.max_buffer_s < math.inf:
            raise ValueError("need 0 < segment_length_s <= max_buffer_s < inf")

    @property
    def top_rate(self) -> float:
        return self.rates[-1]

    @property
    def num_rates(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class UserProfile:
    """Static per-user parameters.

    theta scales the quality gain, cost_per_mbit is the linear downloading
    cost coefficient, and link_cost_per_s (default 0) is an additional cost
    per second of cellular link time used by the simulator, where the
    per-mbit coefficient becomes capacity dependent.
    """

    user_id: str
    ladder: BitrateLadder = BitrateLadder()
    theta: float = 1.0
    cost_per_mbit: float = 0.01
    buffer_gain_scale: float = 6.0
    buffer_gain_decay: float = 0.7
    degradation_slope: float = 1.0
    link_cost_per_s: float = 0.0

    def __post_init__(self):
        for name in ("theta", "cost_per_mbit", "buffer_gain_scale",
                     "degradation_slope", "link_cost_per_s"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not 0.0 < self.buffer_gain_decay < 1.0:
            raise ValueError("buffer_gain_decay must be in (0, 1)")


@dataclass(frozen=True)
class UserState:
    """Dynamic per-user streaming state at a decision instant."""

    buffer_s: float = 0.0
    prev_bitrate: float = 0.0

    def __post_init__(self):
        # NaN fails every comparison, so these also reject it
        if not 0 <= self.buffer_s < math.inf:
            raise ValueError("buffer_s must be finite and >= 0")
        if not 0 <= self.prev_bitrate < math.inf:
            raise ValueError("prev_bitrate must be finite and >= 0")


@dataclass(frozen=True)
class WelfareBreakdown:
    quality_gain: float
    buffer_gain: float
    degradation_loss: float
    cost: float
    welfare: float


def cost_single(profile: UserProfile, rate: float) -> float:
    """Downloading cost of one segment at the given bitrate (linear, c(0)=0)."""
    return profile.cost_per_mbit * rate * profile.ladder.segment_length_s


def cost_total(profile: UserProfile, rates: Sequence[float]) -> float:
    """Downloader's total cost for a sequence of segments; additive across segments."""
    return lsum(cost_single(profile, r) for r in rates)


def quality_gain_single(profile: UserProfile, rate: float) -> float:
    """Quality gain of one segment: theta * beta * ln(1 + r).

    Concave and increasing in r, zero at r = 0, with a marginal gain that
    grows with theta.
    """
    return profile.theta * profile.ladder.segment_length_s * math.log1p(rate)


def quality_gain(profile: UserProfile, rates: Sequence[float]) -> float:
    return lsum(quality_gain_single(profile, r) for r in rates)


def buffer_gain(profile: UserProfile, kappa: int, buffer_s: float) -> float:
    """Buffer filling gain for receiving kappa segments at buffer level buffer_s.

    Geometric form gamma * sum_{j=1..kappa} rho^(B/beta + j - 1): nonincreasing
    in B, with a nonnegative per-segment gap that strictly shrinks in kappa.
    """
    if kappa <= 0:
        return 0.0
    gamma = profile.buffer_gain_scale
    rho = profile.buffer_gain_decay
    base = buffer_s / profile.ladder.segment_length_s
    return gamma * lsum(rho ** (base + j) for j in range(kappa))


def buffer_gain_gap(profile: UserProfile, kappa: int, buffer_s: float) -> float:
    """Gain of the (kappa+1)-th segment: closed form gamma * rho^(B/beta + kappa)."""
    gamma = profile.buffer_gain_scale
    rho = profile.buffer_gain_decay
    return gamma * rho ** (buffer_s / profile.ladder.segment_length_s + kappa)


def degradation_single(profile: UserProfile, prev_rate: float, rate: float) -> float:
    """Loss for one transition: zero on upgrade or no change, else slope * drop."""
    if prev_rate <= rate:
        return 0.0
    return profile.degradation_slope * (prev_rate - rate)


def degradation_loss(profile: UserProfile, prev_bitrate: float,
                     rates: Sequence[float]) -> float:
    """Total degradation loss over the sequence, seeded with the previous bitrate."""
    loss = 0.0
    prev = prev_bitrate
    for r in rates:
        loss += degradation_single(profile, prev, r)
        prev = r
    return loss


def utility_total(profile: UserProfile, state: UserState,
                  rates: Sequence[float]) -> float:
    """Receiver's utility: quality gain + buffer gain - degradation loss."""
    return (quality_gain(profile, rates)
            + buffer_gain(profile, len(rates), state.buffer_s)
            - degradation_loss(profile, state.prev_bitrate, rates))


def welfare(downloader: UserProfile, receiver: UserProfile, state: UserState,
            rates: Sequence[float]) -> WelfareBreakdown:
    """Welfare of one downloading operation: receiver utility minus downloader cost."""
    q = quality_gain(receiver, rates)
    b = buffer_gain(receiver, len(rates), state.buffer_s)
    d = degradation_loss(receiver, state.prev_bitrate, rates)
    c = cost_total(downloader, rates)
    return WelfareBreakdown(
        quality_gain=q,
        buffer_gain=b,
        degradation_loss=d,
        cost=c,
        welfare=q + b - d - c,
    )
