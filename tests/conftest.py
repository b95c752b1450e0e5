"""Shared fixtures and instance generators for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from cmstream.model import BitrateLadder, UserProfile, UserState
from cmstream.momd import marginal_scores, validate_assumption1
from cmstream.somd import ScoreFunction
from cmstream.strategy import build_momd_bid

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
