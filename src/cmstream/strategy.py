"""Bidder-side decision logic: optimal bitrate matrices, truthful prices,
baseline bitrate-adaptation policies, and the participation filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .model import (
    BitrateLadder,
    UserProfile,
    UserState,
    degradation_loss,
    degradation_single,
    lsum,
    quality_gain_single,
    utility_total,
)
from .momd import MomdBid, _guard_instance
from .somd import ScoreFunction

CostOfRate = Callable[[float], float]


@dataclass(frozen=True)
class ParticipationConfig:
    """Coefficients steering how eagerly a bidder skips a weak auctioneer."""

    alpha_buf: float = 1.0
    alpha_link: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(a) and a >= 0
                   for a in (self.alpha_buf, self.alpha_link)):
            raise ValueError(
                "participation coefficients must be finite and >= 0")


@dataclass(frozen=True)
class AdaptationPolicy:
    """Baseline bitrate-adaptation rule used by non-auction comparisons."""

    kind: str = "optimal"  # optimal | buffer_based | bandwidth_based | hybrid

    KINDS = ("optimal", "buffer_based", "bandwidth_based", "hybrid")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown adaptation policy {self.kind!r}")


def optimal_row_rate(profile: UserProfile, state: UserState,
                     cost_of_rate: CostOfRate, kappa: int) -> float:
    """Best common bitrate for a row of kappa segments.

    Scalar reduction of the per-row problem: maximize
    kappa * g(r) - loss(prev, r) with g(r) = quality gain - cost.
    Ties go to the lowest rate.
    """
    best_rate = None
    best_obj = None
    for r in profile.ladder.rates:
        g = quality_gain_single(profile, r) - cost_of_rate(r)
        obj = kappa * g - degradation_single(profile, state.prev_bitrate, r)
        if best_obj is None or obj > best_obj:
            best_rate, best_obj = r, obj
    return best_rate


def optimal_bitrate_matrix(profile: UserProfile, state: UserState,
                           cost_of_rate: CostOfRate, K: int,
                           max_segments: int | None = None,
                           ) -> Tuple[Tuple[float, ...], ...]:
    """Optimal K x K lower-triangular bitrate matrix for a bidder.

    Every row uses one common rate (the per-row optimum), and rates are
    non-increasing down the rows. max_segments caps the non-empty rows,
    e.g. to the bidder's remaining buffer headroom.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return _capped_rows(
        K, max_segments,
        lambda kappa: optimal_row_rate(profile, state, cost_of_rate, kappa))


def _capped_rows(K: int, max_segments: int | None,
                 rate_of_row: Callable[[int], float],
                 ) -> Tuple[Tuple[float, ...], ...]:
    """K x K lower-triangular matrix whose row kappa repeats
    rate_of_row(kappa); rows past max_segments are all zero."""
    cap = K if max_segments is None else max(0, min(max_segments, K))
    return tuple((rate_of_row(kappa),) * kappa + (0.0,) * (K - kappa)
                 if kappa <= cap else (0.0,) * K
                 for kappa in range(1, K + 1))


def brute_force_bitrate_rows(profile: UserProfile, state: UserState,
                             cost_of_rate: CostOfRate, K: int,
                             ) -> Tuple[Tuple[float, ...], ...]:
    """Per-row optimum by full enumeration over every ladder vector.

    Oracle for the structure of the fast solver; exponential in K, so it
    refuses instances past the brute-force guard. Ties go to the
    lexicographically smallest vector.
    """
    _guard_instance(1, K, profile.ladder.num_rates)
    rows = []
    for kappa in range(1, K + 1):
        best_vec = None
        best_obj = None
        for vec in itertools.product(profile.ladder.rates, repeat=kappa):
            obj = (lsum(quality_gain_single(profile, r) - cost_of_rate(r)
                        for r in vec)
                   - degradation_loss(profile, state.prev_bitrate, vec))
            if best_obj is None or obj > best_obj:
                best_vec, best_obj = vec, obj
        rows.append(best_vec)
    return tuple(rows)


def truthful_price_vector(profile: UserProfile, state: UserState,
                          matrix: Sequence[Sequence[float]],
                          ) -> Tuple[float, ...]:
    """Per-row true utility: the dominant-strategy price for each segment count."""
    prices = []
    for kappa, row in enumerate(matrix, start=1):
        rates = tuple(r for r in row[:kappa] if r != 0)
        prices.append(utility_total(profile, state, rates) if rates else 0.0)
    return tuple(prices)


def build_momd_bid(profile: UserProfile, state: UserState, sf: ScoreFunction,
                   K: int, max_segments: int | None = None) -> MomdBid:
    """Optimal bitrate matrix plus truthful prices, packaged as a bid.

    Equals ``_priced_bid(profile, state, optimal_bitrate_matrix(...))`` bit
    for bit with no ``utility_total`` call. The per-rate terms are computed
    once; a row repeats one rate, so its degradation loss is a single
    ``degradation_single(prev, r)``, and its quality gain and the buffer
    gain prefix add left to right, as ``lsum`` does.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    cap = K if max_segments is None else max(0, min(max_segments, K))
    per_rate = []  # (rate, quality gain, gain net of sf, degradation loss)
    for r in profile.ladder.rates:
        q = quality_gain_single(profile, r)
        per_rate.append((r, q, q - sf(r),
                         degradation_single(profile, state.prev_bitrate, r)))
    gamma = profile.buffer_gain_scale
    rho = profile.buffer_gain_decay
    base = state.buffer_s / profile.ladder.segment_length_s
    buffer_sum = 0.0
    matrix, prices = [], []
    for kappa in range(1, K + 1):
        if kappa > cap:
            matrix.append((0.0,) * K)
            prices.append(0.0)
            continue
        # optimal_row_rate's argmax; ties go to the lowest rate
        best = best_obj = None
        for term in per_rate:
            obj = kappa * term[2] - term[3]
            if best_obj is None or obj > best_obj:
                best, best_obj = term, obj
        rate, q, _, loss = best
        quality = lsum([q] * kappa)
        buffer_sum += rho ** (base + (kappa - 1))
        price = (quality + gamma * buffer_sum) - loss
        matrix.append((rate,) * kappa + (0.0,) * (K - kappa))
        prices.append(price if price > 0.0 else 0.0)
    return MomdBid(profile.user_id, tuple(matrix), tuple(prices))


def baseline_momd_bid(policy: AdaptationPolicy, profile: UserProfile,
                      state: UserState, est_capacity: float, K: int,
                      max_segments: int | None = None) -> MomdBid:
    """The policy's bitrate on every row, at truthful prices, as a bid."""
    rate = baseline_bitrate(policy, state, est_capacity, profile.ladder)
    return _priced_bid(profile, state,
                       _capped_rows(K, max_segments, lambda kappa: rate))


def _priced_bid(profile: UserProfile, state: UserState,
                matrix: Tuple[Tuple[float, ...], ...]) -> MomdBid:
    """Prices are floored at zero: a row whose true utility is negative is
    never worth winning, and bids carry non-negative willingness-to-pay."""
    prices = truthful_price_vector(profile, state, matrix)
    return MomdBid(
        bidder_id=profile.user_id,
        bitrate_matrix=matrix,
        price_vector=tuple(max(0.0, p) for p in prices),
    )


def should_participate(profile: UserProfile, state: UserState,
                       auctioneer_capacity: float,
                       neighbor_capacity_shares: Sequence[float],
                       cfg: ParticipationConfig) -> bool:
    """Participation filter: refrain only when the auctioneer's link is weak
    on both the buffer test and the alternative-capacity test.

    An empty buffer counts as satisfying the buffer test (its threshold
    diverges), so a starving user still refrains when a better link is
    around and otherwise takes whatever capacity exists.
    """
    if auctioneer_capacity < 0 or any(h < 0 for h in neighbor_capacity_shares):
        raise ValueError("capacities must be >= 0")
    return participates(profile.ladder.segment_length_s, state.buffer_s,
                        state.prev_bitrate, auctioneer_capacity,
                        lsum(neighbor_capacity_shares), cfg)


def participates(beta: float, buffer_s: float, prev_bitrate: float,
                 auctioneer_capacity: float, share_sum: float,
                 cfg: ParticipationConfig) -> bool:
    """The rule of should_participate on plain numbers: beta is the segment
    length and share_sum the sum of the neighbour capacity shares. It checks
    no capacity; callers make sure they are >= 0."""
    if buffer_s == 0:
        buffer_hit = True
    else:
        threshold = cfg.alpha_buf * prev_bitrate * beta / buffer_s
        buffer_hit = auctioneer_capacity < threshold
    link_hit = auctioneer_capacity < cfg.alpha_link * share_sum
    return not (buffer_hit and link_hit)


def baseline_bitrate(policy: AdaptationPolicy, state: UserState,
                     est_capacity: float, ladder: BitrateLadder) -> float:
    """Bitrate choice of the comparison policies.

    bandwidth_based: highest rate within the capacity estimate;
    buffer_based: ladder index proportional to buffer fill;
    hybrid: the more conservative of the two.
    """
    if policy.kind == "bandwidth_based":
        return _bw_rate(est_capacity, ladder)
    if policy.kind == "buffer_based":
        return _buf_rate(state, ladder)
    if policy.kind == "hybrid":
        return min(_bw_rate(est_capacity, ladder), _buf_rate(state, ladder))
    raise ValueError(f"baseline_bitrate does not handle policy {policy.kind!r}")


def _bw_rate(est_capacity: float, ladder: BitrateLadder) -> float:
    fitting = [r for r in ladder.rates if r <= est_capacity]
    return fitting[-1] if fitting else ladder.rates[0]


def _buf_rate(state: UserState, ladder: BitrateLadder) -> float:
    z = ladder.num_rates
    idx = math.floor(z * state.buffer_s / ladder.max_buffer_s)
    idx = max(1, min(z, idx))
    return ladder.rates[idx - 1]
