"""Unit tests for the user model: costs, gains, losses, utility, welfare."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstream.model import (
    BitrateLadder,
    UserProfile,
    UserState,
    buffer_gain,
    buffer_gain_gap,
    cost_single,
    cost_total,
    degradation_loss,
    degradation_single,
    lsum,
    quality_gain,
    quality_gain_single,
    utility_total,
    welfare,
)

from conftest import (
    LADDER,
    bidder_draws,
    float_bits,
    make_profile,
    random_profile,
    random_state,
)


def test_lsum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (3.12+) gives 1.0
    assert lsum([1e16, 1.0, -1e16]) == 0.0


def test_lsum_starts_from_int_zero():
    empty = lsum([])
    assert empty == 0 and type(empty) is int
    assert math.copysign(1.0, lsum([-0.0])) == 1.0


def ref_lsum(values):
    """lsum as one ``+=`` per value from int 0."""
    total = 0
    for v in values:
        total += v
    return total


lsum_values = st.lists(st.one_of(
    st.integers(-10**6, 10**6),
    # past a C long, and past 2**53, where int -> float rounds
    st.integers(2**53 - 2, 2**70), st.integers(-2**70, -2**63 + 2),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 1.0,
                     2**63, -2**63 - 1, 2**64 + 1))))


def sum_outcome(add, values):
    """The type and bits of add(values), or OverflowError, which an int
    too large to convert to float raises."""
    try:
        total = add(values)
    except OverflowError as exc:
        return type(exc)
    return type(total), float_bits(total)


@settings(max_examples=1000, deadline=None)
@given(lsum_values, st.booleans())
def test_lsum_equals_the_plus_equals_loop(values, as_generator):
    """Same value, bits and type as the loop, on lists (the empty one
    included) and on generators, over floats, numpy.float64, bools, ints
    past 2**63 and mixes of them."""
    with np.errstate(all="ignore"):  # numpy warns where a float is NaN or inf
        got = sum_outcome(lsum, (v for v in values) if as_generator
                          else values)
        assert got == sum_outcome(ref_lsum, values)


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="builtin sum() compensates from Python 3.12 on")
def test_lsum_equals_builtin_sum():
    rng = random.Random(11)
    for _ in range(2000):
        values = [rng.choice((-0.0, 1, rng.uniform(-1.0, 1.0)
                              * 10.0 ** rng.randint(-12, 16)))
                  for _ in range(rng.randint(0, 40))]
        # repr tells 0 from 0.0 and -0.0 from 0.0, and round-trips floats
        assert repr(lsum(values)) == repr(sum(values))


def test_ladder_properties():
    assert LADDER.top_rate == 2.3
    assert LADDER.num_rates == 5


def test_ladder_validation():
    with pytest.raises(ValueError):
        BitrateLadder(rates=(), segment_length_s=10.0, max_buffer_s=40.0)
    with pytest.raises(ValueError):
        BitrateLadder(rates=(0.4, 0.2), segment_length_s=10.0,
                      max_buffer_s=40.0)
    with pytest.raises(ValueError):
        BitrateLadder(rates=(0.0, 0.2), segment_length_s=10.0,
                      max_buffer_s=40.0)
    with pytest.raises(ValueError):
        BitrateLadder(rates=(0.2,), segment_length_s=10.0, max_buffer_s=5.0)
    nan, inf = float("nan"), float("inf")
    for rates, beta, buffer in (((0.2, nan), 10.0, 40.0),
                                ((0.2, inf), 10.0, 40.0),
                                ((0.2,), nan, 40.0),
                                ((0.2,), 10.0, nan),
                                ((0.2,), 10.0, inf)):
        with pytest.raises(ValueError):
            BitrateLadder(rates=rates, segment_length_s=beta,
                          max_buffer_s=buffer)


def test_profile_validation():
    with pytest.raises(ValueError):
        make_profile(theta=-1.0)
    with pytest.raises(ValueError):
        make_profile(buffer_gain_decay=1.0)
    with pytest.raises(ValueError):
        make_profile(cost_per_mbit=float("nan"))


def test_state_validation():
    with pytest.raises(ValueError):
        UserState(buffer_s=-1.0)
    with pytest.raises(ValueError):
        UserState(prev_bitrate=-0.1)


def test_cost_zero_coefficient():
    p = make_profile(cost_per_mbit=0.0)
    for r in LADDER.rates:
        assert cost_single(p, r) == 0.0


def test_cost_values():
    p = make_profile(cost_per_mbit=0.1)
    assert cost_single(p, 2.3) == pytest.approx(2.3)
    assert cost_total(p, (0.7, 1.3)) == pytest.approx(2.0)
    assert cost_total(p, ()) == 0.0


def test_quality_gain_values():
    p0 = make_profile(theta=0.0)
    for r in LADDER.rates:
        assert quality_gain_single(p0, r) == 0.0
    p = make_profile(theta=1.0)
    assert quality_gain_single(p, 0.0) == 0.0
    assert quality_gain_single(p, 2.3) == pytest.approx(10 * math.log(3.3))
    assert quality_gain_single(p, 2.3) == pytest.approx(11.939, abs=1e-3)


def test_quality_gain_concave_increasing():
    p = make_profile(theta=1.5)
    gains = [quality_gain_single(p, r) for r in LADDER.rates]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    # concavity: marginal gain per Mbps shrinks up the ladder
    slopes = [(b - a) / (rb - ra) for (a, b), (ra, rb) in
              zip(zip(gains, gains[1:]), zip(LADDER.rates, LADDER.rates[1:]))]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_buffer_gain_values():
    p = make_profile(buffer_gain_scale=10.0, buffer_gain_decay=0.5)
    assert buffer_gain(p, 0, 17.0) == 0.0
    assert buffer_gain(make_profile(buffer_gain_scale=0.0), 3, 5.0) == 0.0
    assert buffer_gain(p, 2, 0.0) == pytest.approx(15.0)


def test_buffer_gain_gap_closed_form():
    rng = random.Random(7)
    for _ in range(50):
        p = random_profile(rng, "u")
        b = rng.uniform(0.0, 40.0)
        for kappa in range(0, 4):
            gap = buffer_gain(p, kappa + 1, b) - buffer_gain(p, kappa, b)
            assert buffer_gain_gap(p, kappa, b) == pytest.approx(gap)
            assert gap >= 0.0
    # the gap strictly shrinks in kappa
    p = make_profile(buffer_gain_scale=10.0, buffer_gain_decay=0.5)
    gaps = [buffer_gain_gap(p, k, 12.0) for k in range(5)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_buffer_gain_nonincreasing_in_buffer():
    p = make_profile(buffer_gain_scale=5.0)
    levels = [0.0, 10.0, 20.0, 40.0]
    vals = [buffer_gain(p, 2, b) for b in levels]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_degradation_values():
    p = make_profile(degradation_slope=1.0)
    assert degradation_loss(p, 0.7, (1.3,)) == 0.0
    assert degradation_loss(p, 1.3, (1.3, 1.3)) == 0.0
    assert degradation_loss(p, 2.3, (0.7, 1.3)) == pytest.approx(1.6)
    assert degradation_single(p, 2.3, 0.7) == pytest.approx(1.6)


def test_utility_total_components():
    p = make_profile(theta=1.0, buffer_gain_scale=10.0, buffer_gain_decay=0.5,
                     degradation_slope=1.0)
    state = UserState(buffer_s=0.0, prev_bitrate=0.0)
    assert utility_total(p, state, ()) == 0.0
    got = utility_total(p, state, (2.3,))
    want = quality_gain_single(p, 2.3) + buffer_gain(p, 1, 0.0)
    assert got == pytest.approx(want)


def test_utility_total_identity_random():
    rng = random.Random(11)
    for _ in range(100):
        p = random_profile(rng, "u")
        state = random_state(rng)
        rates = tuple(rng.choice(LADDER.rates)
                      for _ in range(rng.randint(0, 4)))
        got = utility_total(p, state, rates)
        want = (quality_gain(p, rates)
                + buffer_gain(p, len(rates), state.buffer_s)
                - degradation_loss(p, state.prev_bitrate, rates))
        assert got == pytest.approx(want)


def test_welfare_breakdown():
    recv = make_profile("r", theta=1.0, buffer_gain_scale=10.0,
                        buffer_gain_decay=0.5)
    dl = make_profile("d", cost_per_mbit=0.1)
    state = UserState()
    assert welfare(dl, recv, state, ()) == 0.0

    free = make_profile("d0", cost_per_mbit=0.0)
    w = welfare(free, recv, state, (1.3, 0.7))
    assert w == pytest.approx(utility_total(recv, state, (1.3, 0.7)))

    w = welfare(dl, recv, state, (2.3,))
    assert w == pytest.approx(utility_total(recv, state, (2.3,)) - 2.3)


def ref_welfare(downloader, receiver, state, rates):
    """welfare's total as first written: its four terms, added as
    ``q + b - d - c``."""
    q = quality_gain(receiver, rates)
    b = buffer_gain(receiver, len(rates), state.buffer_s)
    d = degradation_loss(receiver, state.prev_bitrate, rates)
    c = cost_total(downloader, rates)
    return q + b - d - c


@settings(max_examples=500, deadline=None)
@given(bidder_draws("r"), st.floats(0.0, 1.0), st.data())
def test_welfare_matches_frozen_copy(receiver, cost_per_mbit, data):
    """The same float, bit for bit, as the four terms added in their
    first order, over ladder rates, other rates and the empty vector."""
    profile, state = receiver
    downloader = make_profile("d", ladder=profile.ladder,
                              cost_per_mbit=cost_per_mbit)
    rates = tuple(data.draw(st.lists(
        st.one_of(st.sampled_from(profile.ladder.rates),
                  st.floats(0.0, 10.0)), max_size=5)))
    got = welfare(downloader, profile, state, rates)
    assert got.hex() == ref_welfare(downloader, profile, state, rates).hex()
