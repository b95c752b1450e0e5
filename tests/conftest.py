"""Shared fixtures and instance generators for the test suite."""

import random
from typing import Sequence, Tuple

import pytest
from hypothesis import strategies as st

from cmstream.model import (
    BitrateLadder,
    UserProfile,
    UserState,
    degradation_single,
    lsum,
    quality_gain_single,
    utility_total,
    welfare,
)
from cmstream.momd import (
    InsufficientMarginalScoresError,
    MomdBid,
    _best_split,
    _guard_instance,
    marginal_scores,
    validate_assumption1,
)
from cmstream.somd import ScoreFunction
from cmstream.strategy import CostOfRate, build_momd_bid
from cmstream.traceio import degradation_volume

LADDER = BitrateLadder(rates=(0.2, 0.4, 0.7, 1.3, 2.3),
                       segment_length_s=10.0, max_buffer_s=40.0)


def make_profile(user_id="u", ladder=LADDER, theta=1.0, cost_per_mbit=0.1,
                 buffer_gain_scale=6.0, buffer_gain_decay=0.7,
                 degradation_slope=1.0, **kw):
    return UserProfile(user_id=user_id, ladder=ladder, theta=theta,
                       cost_per_mbit=cost_per_mbit,
                       buffer_gain_scale=buffer_gain_scale,
                       buffer_gain_decay=buffer_gain_decay,
                       degradation_slope=degradation_slope, **kw)


def random_profile(rng: random.Random, user_id: str,
                   ladder=LADDER) -> UserProfile:
    return UserProfile(
        user_id=user_id,
        ladder=ladder,
        theta=rng.uniform(0.2, 2.0),
        cost_per_mbit=rng.uniform(0.0, 0.4),
        buffer_gain_scale=rng.uniform(0.0, 8.0),
        buffer_gain_decay=rng.uniform(0.3, 0.9),
        degradation_slope=rng.uniform(0.0, 2.0),
    )


def random_state(rng: random.Random, ladder=LADDER) -> UserState:
    return UserState(
        buffer_s=rng.uniform(0.0, ladder.max_buffer_s),
        prev_bitrate=rng.choice((0.0,) + ladder.rates),
    )


def random_momd_instance(rng: random.Random, max_bidders=4, max_k=4):
    """One random small MOMD instance: downloader, bidders, K."""
    downloader = random_profile(rng, "dl")
    m = rng.randint(1, max_bidders)
    bidders = [(random_profile(rng, f"u{j}"), random_state(rng))
               for j in range(m)]
    return downloader, bidders, rng.randint(1, max_k)


def assumption1_momd_instance(rng: random.Random, max_bidders=4, max_k=4):
    """Random MOMD instance whose optimal truthful bids all satisfy the
    non-negative non-increasing marginal-score assumption (rejection
    sampling; the guarantees only hold on such instances)."""
    while True:
        downloader, bidders, k = random_momd_instance(rng, max_bidders, max_k)
        sf = ScoreFunction.efficient(downloader)
        bids = [build_momd_bid(p, s, sf, k) for p, s in bidders]
        if all(validate_assumption1(marginal_scores(b, sf))[0] for b in bids):
            return downloader, bidders, k, sf, bids


def float_bits(x):
    """x with every float replaced by its hex form, so == compares bits:
    0.0 and -0.0 differ, and a NaN equals a NaN."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return [(k, float_bits(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [float_bits(v) for v in x]
    return x


# -- reference forms: the plain statements of the rules that the library's
# fast code is pinned to, and the oracles the acceptance suite compares
# against; nothing outside the tests runs them

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
    """Rows of the optimal lower-triangular bitrate matrix for a bidder,
    row kappa holding kappa rates.

    Every row uses one common rate (the per-row optimum), and rates are
    non-increasing down the rows. max_segments caps the rows at
    min(max_segments, K), e.g. to the bidder's remaining buffer headroom.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    cap = K if max_segments is None else max(0, min(max_segments, K))
    return tuple((optimal_row_rate(profile, state, cost_of_rate, kappa),)
                 * kappa for kappa in range(1, cap + 1))


def truthful_price_vector(profile: UserProfile, state: UserState,
                          matrix: Sequence[Sequence[float]],
                          ) -> Tuple[float, ...]:
    """Per-row true utility: the dominant-strategy price for each segment count."""
    prices = []
    for row in matrix:
        rates = tuple(r for r in row if r != 0)
        prices.append(utility_total(profile, state, rates) if rates else 0.0)
    return tuple(prices)


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


def buffer_gain_gap(profile: UserProfile, kappa: int, buffer_s: float) -> float:
    """Gain of the (kappa+1)-th segment: closed form gamma * rho^(B/beta + kappa)."""
    gamma = profile.buffer_gain_scale
    rho = profile.buffer_gain_decay
    return gamma * rho ** (buffer_s / profile.ladder.segment_length_s + kappa)


def degradation_ratio(bitrates: Sequence[float]) -> float:
    """Bitrate-drop volume over the sum of all received segment bitrates."""
    total = lsum(bitrates)
    if total == 0:
        return 0.0
    return degradation_volume(bitrates) / total


def brute_force_restricted_optimum(
    bids: Sequence[MomdBid],
    bidders: Sequence[Tuple[UserProfile, UserState]],
    downloader: UserProfile,
    K: int,
) -> Tuple[Tuple[int, ...], float]:
    """Welfare maximum when each bidder's bitrates are pinned to its matrix rows.

    Oracle for the conditional-efficiency claim: allocating kappa segments to
    bidder m forces row kappa of its submitted matrix.
    """
    if len(bids) != len(bidders):
        raise ValueError("bids and bidders must align")
    _guard_instance(len(bidders), K,
                    max(p.ladder.num_rates for p, _ in bidders))
    values = []
    for bid, (profile, state) in zip(bids, bidders):
        per_kappa = [0.0]
        for kappa in range(1, K + 1):
            if kappa > bid.max_segments:
                per_kappa.append(None)
            else:
                per_kappa.append(
                    welfare(downloader, profile, state, bid.row(kappa)))
        values.append(per_kappa)

    alloc, w = _best_split(values, K)
    if alloc is None:
        raise InsufficientMarginalScoresError(
            "insufficient marginal scores: bids cannot cover K segments")
    return alloc, w


@st.composite
def bidder_draws(draw, user_id="u"):
    """(profile, state) over ladders of 1-6 rates, with zero degradation
    slope, an empty buffer and a previous bitrate above the top rate among
    the draws."""
    rates = sorted(draw(st.lists(st.floats(0.05, 5.0), min_size=1,
                                 max_size=6, unique=True)))
    segment_s = draw(st.floats(0.5, 20.0))
    ladder = BitrateLadder(rates=tuple(rates), segment_length_s=segment_s,
                           max_buffer_s=segment_s * draw(st.floats(1.0, 8.0)))
    profile = UserProfile(
        user_id=user_id, ladder=ladder,
        theta=draw(st.floats(0.0, 3.0)),
        buffer_gain_scale=draw(st.floats(0.0, 10.0)),
        buffer_gain_decay=draw(st.floats(0.05, 0.95)),
        degradation_slope=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
    state = UserState(
        buffer_s=draw(st.one_of(st.just(0.0),
                                st.floats(0.0, ladder.max_buffer_s))),
        prev_bitrate=draw(st.one_of(
            st.just(0.0), st.sampled_from(ladder.rates),
            st.floats(0.0, ladder.top_rate),
            st.floats(ladder.top_rate, 3 * ladder.top_rate))))
    return profile, state


def score_functions():
    """The zero score function, the efficient one, and a convex one whose
    penalties are not multiples of the rate."""
    return st.one_of(
        st.just(ScoreFunction.zero()),
        st.floats(0.0, 1.0).map(
            lambda c: ScoreFunction.efficient(make_profile("d", cost_per_mbit=c))),
        st.floats(0.0, 1.0).map(lambda c: ScoreFunction(lambda r: c * r * r)))


@pytest.fixture
def ladder():
    return LADDER
