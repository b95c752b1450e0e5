"""Bidder-side decision logic: optimal bitrate matrices, truthful prices,
baseline bitrate-adaptation policies, and the participation filter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .model import (
    BitrateLadder,
    UserProfile,
    UserState,
    degradation_loss,
    lsum,
    quality_gain_single,
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


def row_objective(profile: UserProfile, state: UserState,
                  cost_of_rate: CostOfRate, vec: Sequence[float]) -> float:
    """A row's quality gain net of cost, minus its degradation loss."""
    return (lsum(quality_gain_single(profile, r) - cost_of_rate(r)
                 for r in vec)
            - degradation_loss(profile, state.prev_bitrate, vec))


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
            obj = row_objective(profile, state, cost_of_rate, vec)
            if best_obj is None or obj > best_obj:
                best_vec, best_obj = vec, obj
        rows.append(best_vec)
    return tuple(rows)


# a score function's row table starts over past this many keys, since a
# caller may keep one score function for good over unbounded previous bitrates
MAX_ROW_KEYS = 256


def build_momd_bid(profile: UserProfile, state: UserState, sf: ScoreFunction,
                   K: int, max_segments: int | None = None) -> MomdBid:
    """The optimal bitrate matrix's rows up to the cap min(max_segments, K),
    plus truthful prices, packaged as a bid.

    Equals the plain reference in ``tests/conftest.py``,
    ``_priced_bid(profile, state, optimal_bitrate_matrix(...))``, bit for
    bit with no ``utility_total`` call. The per-rate terms are computed
    once; a row repeats one rate, so its degradation loss is a single
    ``degradation_single(prev, r)``, and its quality gain and the buffer
    gain prefix add left to right, as ``lsum`` does.

    The rows and their quality gains and losses come from ``sf.bid_rows``,
    shared by the bids under that score function for as long as it lives
    and keyed by (ladder rates, theta * beta, slope, previous bitrate); a
    bid adds only its buffer gains and prices.
    Sharing is exact: every float in an entry is a function of the score
    function and the key alone. A key may hold 0.0 where an equal key holds
    -0.0; that flips only the sign of a zero per-rate gain or loss, which
    the argmax's comparisons, the quality sum from 0 and the price's floor
    at 0 do not see. Rows are built no further than a bid's cap asks.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    cap = K if max_segments is None else max(0, min(max_segments, K))
    table = sf.bid_rows
    rates = profile.ladder.rates
    gain = profile.theta * profile.ladder.segment_length_s
    prev = state.prev_bitrate
    key = (rates, gain, profile.degradation_slope, prev)
    entry = table.get(key)
    if entry is None:
        if len(table) >= MAX_ROW_KEYS:
            table.clear()
        # quality_gain_single, sf and degradation_single of each rate, with
        # the profile's constants bound once; ladder rates are > 0, so
        # sf(r) is sf.s_of_r(r)
        slope = profile.degradation_slope
        penalty = sf.s_of_r
        log1p = math.log1p
        per_rate = []  # (rate, quality gain, gain net of sf, degradation loss)
        for r in rates:
            q = gain * log1p(r)
            per_rate.append((r, q, q - penalty(r),
                             0.0 if prev <= r else slope * (prev - r)))
        entry = table[key] = (per_rate, [], [])
    per_rate, rows, terms = entry
    gamma = profile.buffer_gain_scale
    rho = profile.buffer_gain_decay
    base = state.buffer_s / profile.ladder.segment_length_s
    buffer_sum = 0.0
    prices = []
    built = len(terms)
    for kappa in range(1, cap + 1):
        if kappa <= built:
            quality, loss = terms[kappa - 1]
        else:
            # the reference optimal_row_rate's argmax; ties go to the
            # lowest rate
            best = best_obj = None
            for term in per_rate:
                obj = kappa * term[2] - term[3]
                if best_obj is None or obj > best_obj:
                    best, best_obj = term, obj
            rate, q, _, loss = best
            quality = lsum([q] * kappa)
            rows.append((rate,) * kappa)
            terms.append((quality, loss))
        buffer_sum += rho ** (base + (kappa - 1))
        price = (quality + gamma * buffer_sum) - loss
        prices.append(price if price > 0.0 else 0.0)
    return MomdBid._built(profile.user_id, tuple(rows[:cap]), tuple(prices))


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
    shares = neighbor_capacity_shares
    # any(h < 0 for h in shares), in C: no value is below a min that is
    # >= 0 (a NaN first makes min NaN), else scan; a NaN is not negative
    if auctioneer_capacity < 0 or (
            not min(shares, default=0) >= 0
            and any(map(operator.lt, shares, itertools.repeat(0)))):
        raise ValueError("capacities must be >= 0")
    return participates(profile.ladder.segment_length_s, state.buffer_s,
                        state.prev_bitrate, auctioneer_capacity,
                        lsum(shares), cfg)


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
