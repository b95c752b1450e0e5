"""Single-object multi-dimensional auction: second-score winner and payment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

from .model import UserProfile, UserState, lsum, welfare


class InsufficientBiddersError(ValueError):
    pass


@dataclass(frozen=True)
class SomdBid:
    """Two-dimensional bid: an intended bitrate and a willingness-to-pay."""

    bidder_id: str
    bitrate: float
    price: float


@dataclass(frozen=True)
class ScoreFunction:
    """Maps a bitrate to the score penalty s(r); nondecreasing with s(0) = 0.

    The "efficient" variant binds s to the auctioneer's per-segment
    downloading cost, which makes the second-score auction welfare maximizing.
    """

    s_of_r: Callable[[float], float]

    def __call__(self, rate: float) -> float:
        return 0.0 if rate == 0 else self.s_of_r(rate)

    def of_vector(self, rates: Sequence[float]) -> float:
        return lsum(self(r) for r in rates)

    @staticmethod
    def zero() -> "ScoreFunction":
        return ScoreFunction(lambda r: 0.0)

    @staticmethod
    def efficient(downloader: UserProfile) -> "ScoreFunction":
        return ScoreFunction.per_mbit(downloader.cost_per_mbit,
                                      downloader.ladder.segment_length_s)

    @staticmethod
    def per_mbit(cost_per_mbit: float,
                 segment_length_s: float) -> "ScoreFunction":
        """s(r) = cost_per_mbit * r * segment_length_s, multiplied left to
        right as ``cost_single`` does: one segment's downloading cost."""
        return ScoreFunction(lambda r: cost_per_mbit * r * segment_length_s)


@dataclass(frozen=True)
class SomdOutcome:
    winner_id: str
    winning_bitrate: float
    payment: float


def score(bid: SomdBid, sf: ScoreFunction) -> float:
    """Score of a bid: price minus the bitrate penalty."""
    return bid.price - sf(bid.bitrate)


def resolve_second_score(bids: Sequence[SomdBid], sf: ScoreFunction) -> SomdOutcome:
    """Highest score wins; the payment derives the second-highest score.

    The winner's payment satisfies payment - s(winning_bitrate) =
    max score among the other bidders, or 0 for a lone bid: absent
    competitors do no damage. Score ties go to the lowest bidder_id.
    """
    if not bids:
        raise InsufficientBiddersError("insufficient bidders: no bids")
    scores = [score(b, sf) for b in bids]
    keys = [(-s, b.bidder_id) for s, b in zip(scores, bids)]
    ranked = sorted(range(len(bids)), key=keys.__getitem__)
    winner = bids[ranked[0]]
    second = max((scores[i] for i in ranked[1:]), default=0.0)
    return SomdOutcome(
        winner_id=winner.bidder_id,
        winning_bitrate=winner.bitrate,
        payment=second + sf(winner.bitrate),
    )


def optimal_somd_bid(profile: UserProfile, state: UserState,
                     sf: ScoreFunction) -> SomdBid:
    """Payoff-maximizing bid: the score-optimal ladder bitrate at its true utility.

    The bitrate maximizes U(r) - s(r) over the ladder (ties to the lowest
    rate); the price is exactly the utility at that bitrate.

    Equals ``utility_total(profile, state, (r,))`` bit for bit with no call
    to it: one segment's utility is (quality gain + buffer gain) -
    degradation loss. utility_total's one-term sums start from 0.0, which
    turns a -0.0 quality gain into 0.0; so does the ``0.0 +`` below.
    """
    buffer = profile.buffer_gain_scale * profile.buffer_gain_decay ** (
        state.buffer_s / profile.ladder.segment_length_s)
    # quality_gain_single, sf and degradation_single of each rate, with the
    # profile's constants bound once; ladder rates are > 0, so sf(r) is
    # sf.s_of_r(r)
    gain = profile.theta * profile.ladder.segment_length_s
    slope = profile.degradation_slope
    prev = state.prev_bitrate
    penalty = sf.s_of_r
    log1p = math.log1p
    best = None
    for r in profile.ladder.rates:
        loss = 0.0 if prev <= r else slope * (prev - r)
        u = ((0.0 + gain * log1p(r)) + buffer - loss)
        obj = u - penalty(r)
        if best is None or obj > best[0]:
            best = (obj, r, u)
    return SomdBid(bidder_id=profile.user_id, bitrate=best[1], price=best[2])


def brute_force_somd_optimum(
    bidders: Iterable[Tuple[UserProfile, UserState]],
    downloader: UserProfile,
) -> Tuple[str, float, float]:
    """Exhaustive welfare maximizer over every (bidder, ladder bitrate) pair.

    Independent oracle for the efficiency claim; ties go to the lowest
    bidder_id, then the lowest bitrate.
    """
    bidders = list(bidders)
    if not bidders:
        raise ValueError("need at least one bidder")
    best = None
    for profile, state in bidders:
        for r in profile.ladder.rates:
            w = welfare(downloader, profile, state, (r,)).welfare
            key = (-w, profile.user_id, r)
            if best is None or key < best[0]:
                best = (key, (profile.user_id, r, w))
    return best[1]
