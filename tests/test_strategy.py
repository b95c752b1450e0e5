"""Unit tests for bidding strategy, participation, and adaptation policies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstream.model import (
    BitrateLadder,
    UserState,
    lsum,
    quality_gain_single,
    utility_total,
)
from cmstream.somd import ScoreFunction, SomdBid, optimal_somd_bid
from cmstream.strategy import (
    AdaptationPolicy,
    ParticipationConfig,
    baseline_bitrate,
    baseline_momd_bid,
    brute_force_bitrate_rows,
    build_momd_bid,
    optimal_bitrate_matrix,
    optimal_row_rate,
    participates,
    _priced_bid,
    should_participate,
    truthful_price_vector,
)

from conftest import (
    LADDER,
    bidder_draws,
    float_bits,
    make_profile,
    random_profile,
    random_state,
    score_functions,
)


def row_objective(profile, state, cost_of_rate, vec):
    from cmstream.model import degradation_single

    prev = state.prev_bitrate
    obj = 0.0
    for r in vec:
        obj += quality_gain_single(profile, r) - cost_of_rate(r)
        obj -= degradation_single(profile, prev, r)
        prev = r
    return obj


def test_optimal_row_rate_example():
    # theta=1, beta=10, cost 0.45/mbit: argmax 10 ln(1+r) - 4.5r is 1.3
    p = make_profile(theta=1.0, degradation_slope=0.0)
    dl = make_profile("d", cost_per_mbit=0.45)
    sf = ScoreFunction.efficient(dl)
    assert optimal_row_rate(p, UserState(), sf, 1) == pytest.approx(1.3)
    # enumeration cross-check at a different cost level
    sf3 = ScoreFunction.efficient(make_profile("d3", cost_per_mbit=0.3))
    best = max(LADDER.rates,
               key=lambda r: quality_gain_single(p, r) - sf3(r))
    assert optimal_row_rate(p, UserState(), sf3, 1) == best


def test_matrix_no_degradation_pressure():
    # prev bitrate below the unconstrained maximizer: every row uses it
    p = make_profile(theta=1.0, degradation_slope=1.0)
    dl = make_profile("d", cost_per_mbit=0.45)
    sf = ScoreFunction.efficient(dl)
    state = UserState(prev_bitrate=0.4)
    matrix = optimal_bitrate_matrix(p, state, sf, 3)
    for kappa, row in enumerate(matrix, start=1):
        assert row[:kappa] == (1.3,) * kappa
        assert row[kappa:] == (0.0,) * (3 - kappa)


def test_matrix_zero_slope_all_rows_identical():
    p = make_profile(theta=1.0, degradation_slope=0.0)
    dl = make_profile("d", cost_per_mbit=0.45)
    sf = ScoreFunction.efficient(dl)
    state = UserState(prev_bitrate=2.3)
    matrix = optimal_bitrate_matrix(p, state, sf, 3)
    rates = {row[0] for row in matrix}
    assert rates == {1.3}


def test_matrix_rows_nonincreasing_under_degradation():
    p = make_profile(theta=1.0, degradation_slope=2.0)
    dl = make_profile("d", cost_per_mbit=0.45)
    sf = ScoreFunction.efficient(dl)
    state = UserState(prev_bitrate=2.3)
    matrix = optimal_bitrate_matrix(p, state, sf, 3)
    first = [row[0] for row in matrix]
    assert all(b <= a for a, b in zip(first, first[1:]))
    # reduced solver matches brute force on the objective, row by row
    brute = brute_force_bitrate_rows(p, state, sf, 3)
    for kappa in range(1, 4):
        got = row_objective(p, state, sf, matrix[kappa - 1][:kappa])
        want = row_objective(p, state, sf, brute[kappa - 1])
        assert got == pytest.approx(want)


def test_matrix_max_segments_cap():
    p = make_profile()
    sf = ScoreFunction.zero()
    matrix = optimal_bitrate_matrix(p, UserState(), sf, 3, max_segments=1)
    assert all(x == 0.0 for x in matrix[1])
    assert all(x == 0.0 for x in matrix[2])
    assert matrix[0][0] in LADDER.rates


def test_reduced_solver_matches_brute_force_random():
    rng = random.Random(17)
    for _ in range(40):
        p = random_profile(rng, "u")
        state = random_state(rng)
        dl = random_profile(rng, "d")
        sf = ScoreFunction.efficient(dl)
        fast = optimal_bitrate_matrix(p, state, sf, 3)
        brute = brute_force_bitrate_rows(p, state, sf, 3)
        for kappa in range(1, 4):
            got = row_objective(p, state, sf, fast[kappa - 1][:kappa])
            want = row_objective(p, state, sf, brute[kappa - 1])
            assert got == pytest.approx(want)


def test_truthful_prices():
    p = make_profile(theta=0.0, buffer_gain_scale=0.0, degradation_slope=0.0)
    state = UserState()
    matrix = ((1.3, 0.0), (1.3, 1.3))
    assert truthful_price_vector(p, state, matrix) == (0.0, 0.0)

    p = make_profile(theta=1.0, buffer_gain_scale=5.0)
    state = UserState(buffer_s=10.0, prev_bitrate=2.3)
    prices = truthful_price_vector(p, state, matrix)
    assert prices[0] == pytest.approx(utility_total(p, state, (1.3,)))
    assert prices[1] == pytest.approx(utility_total(p, state, (1.3, 1.3)))
    # empty rows carry zero price
    assert truthful_price_vector(p, state, ((0.0,),)) == (0.0,)


def test_build_momd_bid_floors_prices():
    # high degradation pressure drives true utility negative; prices clamp at 0
    p = make_profile(theta=0.0, buffer_gain_scale=0.0, degradation_slope=5.0)
    state = UserState(buffer_s=40.0, prev_bitrate=2.3)
    bid = build_momd_bid(p, state, ScoreFunction.zero(), 2)
    assert all(price >= 0.0 for price in bid.price_vector)


def test_build_momd_bid_consistency():
    rng = random.Random(23)
    for _ in range(20):
        p = random_profile(rng, "u")
        state = random_state(rng)
        sf = ScoreFunction.efficient(random_profile(rng, "d"))
        bid = build_momd_bid(p, state, sf, 3)
        assert bid.bidder_id == "u"
        assert len(bid.bitrate_matrix) == 3
        matrix = optimal_bitrate_matrix(p, state, sf, 3)
        assert bid.bitrate_matrix == matrix
        for kappa in range(1, 4):
            want = max(0.0, utility_total(p, state, matrix[kappa - 1][:kappa]))
            assert bid.price_vector[kappa - 1] == pytest.approx(want)


def segment_caps(K):
    """None, 0, a cap below K or one above it."""
    return st.one_of(st.none(), st.just(0), st.integers(-2, K - 1),
                     st.integers(K + 1, K + 4))


@settings(max_examples=400, deadline=None)
@given(bidder_draws(), score_functions(), st.integers(1, 6), st.data())
def test_build_momd_bid_equals_priced_optimal_matrix(bidder, sf, K, data):
    profile, state = bidder
    cap = data.draw(segment_caps(K))
    fast = build_momd_bid(profile, state, sf, K, max_segments=cap)
    ref = _priced_bid(profile, state, optimal_bitrate_matrix(
        profile, state, sf, K, max_segments=cap))
    assert fast.bidder_id == ref.bidder_id
    assert float_bits(fast.bitrate_matrix) == float_bits(ref.bitrate_matrix)
    assert float_bits(fast.price_vector) == float_bits(ref.price_vector)
    assert fast.max_segments == ref.max_segments


def ref_optimal_somd_bid(profile, state, sf):
    best = None
    for r in profile.ladder.rates:
        u = utility_total(profile, state, (r,))
        obj = u - sf(r)
        if best is None or obj > best[0]:
            best = (obj, r, u)
    return SomdBid(bidder_id=profile.user_id, bitrate=best[1], price=best[2])


@settings(max_examples=400, deadline=None)
@given(bidder_draws(), score_functions())
def test_optimal_somd_bid_equals_utility_total_reference(bidder, sf):
    profile, state = bidder
    fast = optimal_somd_bid(profile, state, sf)
    ref = ref_optimal_somd_bid(profile, state, sf)
    assert fast.bidder_id == ref.bidder_id
    assert float_bits([fast.bitrate, fast.price]) == float_bits(
        [ref.bitrate, ref.price])


def test_optimal_somd_bid_negative_zero_terms():
    # utility_total's sums start from 0.0, so a -0.0 gain prices at 0.0
    p = make_profile(theta=-0.0, buffer_gain_scale=-0.0, degradation_slope=-0.0)
    for sf in (ScoreFunction.zero(), ScoreFunction(lambda r: -0.0)):
        fast = optimal_somd_bid(p, UserState(), sf)
        ref = ref_optimal_somd_bid(p, UserState(), sf)
        assert float_bits([fast.bitrate, fast.price]) == float_bits(
            [ref.bitrate, ref.price])


def test_participation_refrains_on_weak_link():
    p = make_profile()
    cfg = ParticipationConfig(alpha_buf=1.0, alpha_link=0.5)
    state = UserState(buffer_s=20.0, prev_bitrate=2.3)
    # thresholds: 1 * 2.3 * 10 / 20 = 1.15 and 0.5 * 3 = 1.5; both beat 0.2
    assert not should_participate(p, state, 0.2, (1.0, 2.0), cfg)


def test_participation_accepts_strong_link():
    p = make_profile()
    cfg = ParticipationConfig()
    state = UserState(buffer_s=20.0, prev_bitrate=2.3)
    assert should_participate(p, state, 5.0, (1.0, 2.0), cfg)


def test_participation_zero_alphas_always_participate():
    p = make_profile()
    cfg = ParticipationConfig(alpha_buf=0.0, alpha_link=0.0)
    state = UserState(buffer_s=20.0, prev_bitrate=2.3)
    assert should_participate(p, state, 0.0, (1.0, 2.0), cfg)


def test_participation_empty_buffer():
    p = make_profile()
    cfg = ParticipationConfig(alpha_buf=1.0, alpha_link=0.5)
    state = UserState(buffer_s=0.0, prev_bitrate=0.0)
    # empty buffer: the buffer test is satisfied, so a weak link is refused
    # when better shared capacity is around, and accepted otherwise
    assert not should_participate(p, state, 0.2, (1.0, 2.0), cfg)
    assert should_participate(p, state, 2.0, (1.0, 2.0), cfg)


def test_participation_rejects_negative_capacity():
    p = make_profile()
    with pytest.raises(ValueError):
        should_participate(p, UserState(), -1.0, (), ParticipationConfig())


capacities = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(segment_s=st.floats(0.5, 20.0),
       buffer_s=st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
       prev_bitrate=st.one_of(st.sampled_from((0.0,) + LADDER.rates),
                              st.floats(0.0, 5.0)),
       auctioneer=capacities,
       shares=st.lists(capacities, max_size=8),
       alphas=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
def test_participation_rule_matches_should_participate(
        segment_s, buffer_s, prev_bitrate, auctioneer, shares, alphas):
    p = make_profile(ladder=BitrateLadder(segment_length_s=segment_s,
                                          max_buffer_s=4 * segment_s))
    state = UserState(buffer_s=buffer_s, prev_bitrate=prev_bitrate)
    cfg = ParticipationConfig(*alphas)
    assert participates(segment_s, buffer_s, prev_bitrate, auctioneer,
                        lsum(shares), cfg) == should_participate(
        p, state, auctioneer, shares, cfg)


def test_participation_config_validation():
    for alphas in ((-1.0, 0.5), (float("nan"), 0.5), (1.0, float("inf"))):
        with pytest.raises(ValueError):
            ParticipationConfig(*alphas)


def test_baseline_momd_bid_rows_and_prices():
    p = make_profile(degradation_slope=5.0)
    state = UserState(buffer_s=20.0, prev_bitrate=2.3)
    policy = AdaptationPolicy("buffer_based")
    rate = baseline_bitrate(policy, state, 1.0, p.ladder)
    bid = baseline_momd_bid(policy, p, state, 1.0, 3, max_segments=2)
    assert bid.bitrate_matrix == ((rate, 0.0, 0.0), (rate, rate, 0.0),
                                  (0.0, 0.0, 0.0))
    prices = truthful_price_vector(p, state, bid.bitrate_matrix)
    assert bid.price_vector == tuple(max(0.0, x) for x in prices)
    assert prices[0] < 0 < prices[1]  # one segment cannot pay for the drop


def test_adaptation_policy_validation():
    with pytest.raises(ValueError):
        AdaptationPolicy("nonsense")


def test_baseline_bandwidth_based():
    policy = AdaptationPolicy("bandwidth_based")
    assert baseline_bitrate(policy, UserState(), 1.5, LADDER) == 1.3
    assert baseline_bitrate(policy, UserState(), 0.05, LADDER) == 0.2
    assert baseline_bitrate(policy, UserState(), 10.0, LADDER) == 2.3


def test_baseline_buffer_based():
    policy = AdaptationPolicy("buffer_based")
    full = UserState(buffer_s=LADDER.max_buffer_s)
    assert baseline_bitrate(policy, full, 0.0, LADDER) == 2.3
    empty = UserState(buffer_s=0.0)
    assert baseline_bitrate(policy, empty, 0.0, LADDER) == 0.2


def test_baseline_hybrid_is_conservative():
    hybrid = AdaptationPolicy("hybrid")
    state = UserState(buffer_s=LADDER.max_buffer_s)
    assert baseline_bitrate(hybrid, state, 1.5, LADDER) == 1.3
    state = UserState(buffer_s=4.0)
    assert baseline_bitrate(hybrid, state, 10.0, LADDER) == 0.2
