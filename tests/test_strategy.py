"""Unit tests for bidding strategy, participation, and adaptation policies."""

import operator
import random
import tracemalloc
from dataclasses import replace

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
from cmstream import strategy
from cmstream.somd import ScoreFunction, SomdBid, optimal_somd_bid
from cmstream.strategy import (
    AdaptationPolicy,
    ParticipationConfig,
    baseline_bitrate,
    brute_force_bitrate_rows,
    build_momd_bid,
    participates,
    should_participate,
)

from conftest import (
    LADDER,
    _priced_bid,
    bidder_draws,
    float_bits,
    make_profile,
    optimal_bitrate_matrix,
    optimal_row_rate,
    random_profile,
    random_state,
    score_functions,
    truthful_price_vector,
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
    assert matrix == ((1.3,), (1.3,) * 2, (1.3,) * 3)


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
        got = row_objective(p, state, sf, matrix[kappa - 1])
        want = row_objective(p, state, sf, brute[kappa - 1])
        assert got == pytest.approx(want)


def test_matrix_max_segments_cap():
    p = make_profile()
    sf = ScoreFunction.zero()
    matrix = optimal_bitrate_matrix(p, UserState(), sf, 3, max_segments=1)
    assert len(matrix) == 1
    (rate,) = matrix[0]
    assert rate in LADDER.rates


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
            got = row_objective(p, state, sf, fast[kappa - 1])
            want = row_objective(p, state, sf, brute[kappa - 1])
            assert got == pytest.approx(want)


def test_brute_force_rows_take_the_smallest_tied_vector():
    """With no quality gain, no cost and nothing to drop from, every
    vector scores 0, and each row is the lexicographically smallest."""
    rows = brute_force_bitrate_rows(make_profile(theta=0.0), UserState(),
                                    lambda r: 0.0, 2)
    assert rows == ((0.2,), (0.2, 0.2))


def test_truthful_prices():
    p = make_profile(theta=0.0, buffer_gain_scale=0.0, degradation_slope=0.0)
    state = UserState()
    matrix = ((1.3,), (1.3, 1.3))
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
            want = max(0.0, utility_total(p, state, matrix[kappa - 1]))
            assert bid.price_vector[kappa - 1] == pytest.approx(want)


def test_build_momd_bid_holds_rows_up_to_its_cap_only():
    """A bid's size is its cap's, never K's: K = 100_000 under a cap of 2
    builds two rows of 1 and 2 rates and two prices in a few kB."""
    tracemalloc.start()
    try:
        bid = build_momd_bid(make_profile(), UserState(buffer_s=10.0),
                             ScoreFunction.zero(), 100_000, max_segments=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(row) for row in bid.bitrate_matrix] == [1, 2]
    assert len(bid.price_vector) == bid.max_segments == 2
    assert peak < 100_000


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


def _zero_twin(profile):
    """profile with every zero constant given as -0.0, which equals 0.0."""
    return replace(profile, theta=-0.0 if profile.theta == 0 else
                   profile.theta,
                   degradation_slope=-0.0 if profile.degradation_slope == 0
                   else profile.degradation_slope)


@st.composite
def bid_sequences(draw):
    """Bids in the order an engine builds them: bidders that share profile
    constants and previous bitrates but differ in id, buffer and cap,
    beside a one-rate ladder, a profile with another theta, a twin whose
    zero constants are -0.0, and a second score function interleaved with
    the first."""
    K = draw(st.integers(1, 6))
    base, _ = draw(bidder_draws())
    ladder = base.ladder
    kinds = [
        base,
        replace(base, ladder=replace(
            ladder, rates=(draw(st.sampled_from(ladder.rates)),))),
        replace(base, theta=draw(st.floats(0.0, 3.0))),
        _zero_twin(replace(base, theta=draw(st.sampled_from(
            (0.0, base.theta))))),
    ]
    prevs = draw(st.lists(st.one_of(st.sampled_from((0.0, -0.0)),
                                    st.sampled_from(ladder.rates),
                                    st.floats(0.0, 3 * ladder.top_rate)),
                          min_size=1, max_size=3))
    sfs = (draw(score_functions()), draw(score_functions()))
    bids = []
    for j in range(draw(st.integers(1, 14))):
        profile = replace(draw(st.sampled_from(kinds)), user_id=f"u{j}")
        state = UserState(
            buffer_s=draw(st.one_of(st.just(0.0),
                                    st.floats(0.0, ladder.max_buffer_s))),
            prev_bitrate=draw(st.sampled_from(prevs)))
        bids.append((profile, state, draw(st.sampled_from(sfs)),
                     draw(segment_caps(K))))
    return K, bids


@settings(max_examples=200, deadline=None)
@given(bid_sequences())
def test_shared_bid_rows_equal_priced_optimal_matrix(sequence):
    """Every bid of a sequence that shares the row table equals the plain
    reference bit for bit, and bidders of one score function object with
    one key share their row tuples, whatever their caps and whichever
    score function came between them, until that object's table starts
    over."""
    K, bids = sequence
    seen_by_sf = {}
    for profile, state, sf, cap in bids:
        size = len(sf.bid_rows)
        fast = build_momd_bid(profile, state, sf, K, max_segments=cap)
        ref = _priced_bid(profile, state, optimal_bitrate_matrix(
            profile, state, sf, K, max_segments=cap))
        assert fast.bidder_id == ref.bidder_id
        assert float_bits(fast.bitrate_matrix) == float_bits(
            ref.bitrate_matrix)
        assert float_bits(fast.price_vector) == float_bits(ref.price_vector)
        assert fast.max_segments == ref.max_segments
        if len(sf.bid_rows) < size:
            seen_by_sf.pop(id(sf), None)
        seen = seen_by_sf.setdefault(id(sf), {})
        key = (profile.ladder.rates, profile.theta, profile.degradation_slope,
               state.prev_bitrate)
        rows = fast.bitrate_matrix
        shared = seen.setdefault(key, rows)
        assert all(map(operator.is_, rows, shared))
        if len(rows) > len(shared):
            seen[key] = rows


def test_rows_never_cross_score_functions():
    """A return to an earlier score function object hands back that
    object's own rows, another object, equal to it or not, never does, and
    bids of one score function share rows across caps."""
    p = make_profile(degradation_slope=0.0)
    state = UserState(buffer_s=10.0, prev_bitrate=1.3)
    free = ScoreFunction.zero()
    dear = ScoreFunction.efficient(make_profile("d", cost_per_mbit=1.0))
    twin = ScoreFunction(free.s_of_r)
    assert twin == free
    rows = {}
    for sf in (free, dear, free, twin, dear):
        bid = build_momd_bid(p, state, sf, 3)
        capped = build_momd_bid(replace(p, user_id="v"), state, sf, 3,
                                max_segments=2)
        assert capped.bitrate_matrix == bid.bitrate_matrix[:2]
        assert all(map(operator.is_, capped.bitrate_matrix,
                       bid.bitrate_matrix))
        # rows never depend on K, so a bid at another K shares them too
        assert all(map(operator.is_, build_momd_bid(p, state, sf, 2)
                       .bitrate_matrix, bid.bitrate_matrix))
        assert bid.bitrate_matrix == optimal_bitrate_matrix(p, state, sf, 3)
        own = rows.setdefault(id(sf), bid.bitrate_matrix)
        assert all(map(operator.is_, bid.bitrate_matrix, own))
        for other, earlier in rows.items():
            if other != id(sf):
                assert not any(map(operator.is_, bid.bitrate_matrix, earlier))
    # the free score function takes the top rate, the dear one less
    assert rows[id(free)][0] == (2.3,)
    assert rows[id(dear)][0][0] < 2.3


def test_row_table_starts_over_past_max_keys():
    """Under one score function for good, the table fills to
    MAX_ROW_KEYS keys, and the next new key empties it first."""
    sf = ScoreFunction.efficient(make_profile("d"))
    p = make_profile()
    sizes = []
    for k in range(strategy.MAX_ROW_KEYS + 1):
        build_momd_bid(p, UserState(prev_bitrate=0.01 * k), sf, 1)
        sizes.append(len(sf.bid_rows))
    assert sizes[-2:] == [strategy.MAX_ROW_KEYS, 1]


def test_row_table_is_no_part_of_a_score_function():
    """A score function's row table is no constructor argument and is left
    out of its equality, hash and repr."""
    def s_of_r(r):
        return 0.5 * r
    sf, other = ScoreFunction(s_of_r), ScoreFunction(s_of_r)
    build_momd_bid(make_profile(), UserState(buffer_s=10.0, prev_bitrate=1.3),
                   sf, 2)
    assert sf.bid_rows and not other.bid_rows
    assert sf == other and hash(sf) == hash(other)
    assert repr(sf) == repr(other) == f"ScoreFunction(s_of_r={s_of_r!r})"
    with pytest.raises(TypeError):
        ScoreFunction(s_of_r, {})


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


def test_participation_at_each_threshold():
    """A capacity equal to a threshold is not below it: the bidder takes
    part at the buffer threshold on a weak link, and at the link
    threshold on an empty buffer."""
    cfg = ParticipationConfig(alpha_buf=1.0, alpha_link=0.5)
    # buffer threshold 1.0 * 2.0 * 10 / 10 = 2.0, below the link's 0.5 * 8
    assert participates(10.0, 10.0, 2.0, 2.0, 8.0, cfg)
    # link threshold 0.5 * 4.0 = 2.0
    assert participates(10.0, 0.0, 2.0, 2.0, 4.0, cfg)


def test_participation_rejects_negative_capacity():
    p = make_profile()
    with pytest.raises(ValueError):
        should_participate(p, UserState(), -1.0, (), ParticipationConfig())


def test_participation_sees_negative_share_past_nan():
    nan = float("nan")
    for shares in ((nan, -1.0), (1.0, nan, -1.0)):
        with pytest.raises(ValueError):
            should_participate(make_profile(), UserState(), 1.0, shares,
                               ParticipationConfig())


def test_participation_all_nan_shares():
    # NaN shares are not negative; their NaN sum fails the link test, so
    # the bidder takes part on an empty and on a full buffer alike
    nan = float("nan")
    for state in (UserState(), UserState(buffer_s=30.0, prev_bitrate=2.3)):
        for shares in ((nan,), (nan, nan, nan)):
            assert should_participate(make_profile(), state, 0.0, shares,
                                      ParticipationConfig())


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
    # the engine's baseline bid: the optimal bidder on a one-rate ladder
    one_rate = replace(p, ladder=replace(p.ladder, rates=(rate,)))
    bid = build_momd_bid(one_rate, state, ScoreFunction.zero(), 3,
                         max_segments=2)
    assert bid.bitrate_matrix == ((rate,), (rate, rate))
    prices = truthful_price_vector(p, state, bid.bitrate_matrix)
    assert bid.price_vector == tuple(max(0.0, x) for x in prices)
    assert prices[0] < 0 < prices[1]  # one segment cannot pay for the drop


def test_adaptation_policy_validation():
    with pytest.raises(ValueError):
        AdaptationPolicy("nonsense")


def test_baseline_bandwidth_based():
    policy = AdaptationPolicy("bandwidth_based")
    assert baseline_bitrate(policy, UserState(), 1.5, LADDER) == 1.3
    assert baseline_bitrate(policy, UserState(), 1.3, LADDER) == 1.3
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
