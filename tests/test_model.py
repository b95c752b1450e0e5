"""Unit tests for the user model: costs, gains, losses, utility, welfare."""

import math
import random
import sys

import pytest

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

from conftest import LADDER, make_profile, random_profile, random_state


def test_lsum_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum (3.12+) gives 1.0
    assert lsum([1e16, 1.0, -1e16]) == 0.0


def test_lsum_starts_from_int_zero():
    empty = lsum([])
    assert empty == 0 and type(empty) is int
    assert math.copysign(1.0, lsum([-0.0])) == 1.0


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
    empty = welfare(dl, recv, state, ())
    assert empty.welfare == 0.0 and empty.cost == 0.0

    free = make_profile("d0", cost_per_mbit=0.0)
    w = welfare(free, recv, state, (1.3, 0.7))
    assert w.welfare == pytest.approx(utility_total(recv, state, (1.3, 0.7)))

    w = welfare(dl, recv, state, (2.3,))
    assert w.cost == pytest.approx(2.3)
    assert w.welfare == pytest.approx(
        utility_total(recv, state, (2.3,)) - 2.3)
    assert w.welfare == pytest.approx(
        w.quality_gain + w.buffer_gain - w.degradation_loss - w.cost)
