"""Unit tests for the single-object second-score auction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstream.model import UserState, utility_total, welfare
from cmstream.somd import (
    InsufficientBiddersError,
    ScoreFunction,
    SomdBid,
    brute_force_somd_optimum,
    optimal_somd_bid,
    resolve_second_score,
    score,
)

from conftest import (
    LADDER,
    float_bits,
    make_profile,
    random_profile,
    random_state,
    score_functions,
)


def test_score_function_zero_at_zero():
    sf = ScoreFunction(lambda r: 1.0 + r)
    assert sf(0.0) == 0.0
    assert sf(1.3) == pytest.approx(2.3)
    assert sf.of_vector((0.0, 1.0, 2.0)) == pytest.approx(5.0)


def test_score_values():
    zero = ScoreFunction.zero()
    assert score(SomdBid("a", 1.0, 5.0), zero) == pytest.approx(5.0)
    sf = ScoreFunction(lambda r: 2.0)
    assert score(SomdBid("a", 1.0, 5.0), sf) == pytest.approx(3.0)
    assert score(SomdBid("a", 0.0, 0.0), sf) == 0.0


def test_efficient_score_is_downloader_cost():
    dl = make_profile("d", cost_per_mbit=0.1)
    sf = ScoreFunction.efficient(dl)
    assert sf(2.3) == pytest.approx(2.3)
    assert sf(0.0) == 0.0


def test_resolve_needs_two_bids():
    with pytest.raises(InsufficientBiddersError):
        resolve_second_score([], ScoreFunction.zero())
    # a lone bid's second score is 0, so it pays s(bitrate)
    sf = ScoreFunction(lambda r: 2.0 * r)
    out = resolve_second_score([SomdBid("a", 1.3, 5.0)], sf)
    assert (out.winner_id, out.winning_bitrate) == ("a", 1.3)
    assert out.payment == sf(1.3)


def test_resolve_second_score_payment():
    zero = ScoreFunction.zero()
    out = resolve_second_score(
        [SomdBid("a", 1.0, 5.0), SomdBid("b", 1.0, 3.0)], zero)
    assert out.winner_id == "a"
    assert out.payment == pytest.approx(3.0)

    # same scores but s(winning bitrate) = 1 lifts the payment to 4
    sf = ScoreFunction(lambda r: r)
    out = resolve_second_score(
        [SomdBid("a", 1.0, 6.0), SomdBid("b", 0.5, 3.5)], sf)
    assert out.winner_id == "a"
    assert out.payment == pytest.approx(4.0)


def test_resolve_tie_breaks_to_lowest_id():
    zero = ScoreFunction.zero()
    out = resolve_second_score(
        [SomdBid("b", 1.0, 7.0), SomdBid("a", 1.0, 7.0),
         SomdBid("c", 1.0, 2.0)], zero)
    assert out.winner_id == "a"
    assert out.payment == pytest.approx(7.0)


def test_optimal_bid_zero_penalty_takes_top_rate():
    p = make_profile(theta=1.0, degradation_slope=0.0)
    state = UserState()
    bid = optimal_somd_bid(p, state, ScoreFunction.zero())
    assert bid.bitrate == LADDER.top_rate
    assert bid.price == pytest.approx(utility_total(p, state, (2.3,)))


def test_optimal_bid_with_cost_penalty():
    # theta=1, beta=10, cost 0.45/mbit: maximize 10 ln(1+r) - 4.5r over the
    # ladder; 1.3 scores 2.479 and beats both 0.7 (2.156) and 2.3 (1.589)
    p = make_profile(theta=1.0, buffer_gain_scale=0.0, degradation_slope=0.0)
    dl = make_profile("d", cost_per_mbit=0.45)
    bid = optimal_somd_bid(p, UserState(), ScoreFunction.efficient(dl))
    assert bid.bitrate == pytest.approx(1.3)


def test_optimal_bid_matches_enumeration():
    rng = random.Random(3)
    for _ in range(100):
        p = random_profile(rng, "u")
        state = random_state(rng)
        dl = random_profile(rng, "d")
        sf = ScoreFunction.efficient(dl)
        bid = optimal_somd_bid(p, state, sf)
        best = max(utility_total(p, state, (r,)) - sf(r)
                   for r in LADDER.rates)
        assert (utility_total(p, state, (bid.bitrate,)) - sf(bid.bitrate)
                == pytest.approx(best))
        assert bid.price == pytest.approx(
            utility_total(p, state, (bid.bitrate,)))


def test_brute_force_single_pair():
    p = make_profile("u")
    dl = make_profile("d")
    state = UserState()
    uid, rate, w = brute_force_somd_optimum([(p, state)], dl)
    assert uid == "u"
    assert w == pytest.approx(
        max(welfare(dl, p, state, (r,)) for r in LADDER.rates))
    assert welfare(dl, p, state, (rate,)) == pytest.approx(w)


def test_brute_force_needs_bidders():
    with pytest.raises(ValueError):
        brute_force_somd_optimum([], make_profile("d"))


def test_second_score_truthfulness_small_suite():
    # truthful price weakly dominates on a deviation grid (small smoke suite;
    # the full property suite lives in the acceptance tests)
    rng = random.Random(5)
    for _ in range(50):
        dl = random_profile(rng, "dl")
        sf = ScoreFunction.efficient(dl)
        focal_p = random_profile(rng, "focal")
        focal_s = random_state(rng)
        others = [optimal_somd_bid(random_profile(rng, f"o{j}"),
                                   random_state(rng), sf)
                  for j in range(rng.randint(1, 4))]
        truthful = optimal_somd_bid(focal_p, focal_s, sf)

        def payoff(bid):
            out = resolve_second_score([bid] + others, sf)
            if out.winner_id != bid.bidder_id:
                return 0.0
            return (utility_total(focal_p, focal_s, (out.winning_bitrate,))
                    - out.payment)

        base = payoff(truthful)
        for i in range(21):
            dev = SomdBid("focal", truthful.bitrate,
                          truthful.price * 2.0 * i / 20.0)
            assert base >= payoff(dev) - 1e-9


def ref_resolve_second_score(bids, sf):
    """resolve_second_score as it scored each bid twice: once in the sort
    key and again for the runner-up."""
    if not bids:
        raise InsufficientBiddersError("insufficient bidders: no bids")
    ranked = sorted(bids, key=lambda b: (-score(b, sf), b.bidder_id))
    winner = ranked[0]
    second = max((score(b, sf) for b in ranked[1:]), default=0.0)
    return (winner.bidder_id, winner.bitrate, second + sf(winner.bitrate))


# few ids, rates and prices, so that scores and ids tie often
somd_bids = st.lists(st.builds(
    SomdBid,
    bidder_id=st.sampled_from("abc"),
    bitrate=st.sampled_from((0.0,) + LADDER.rates),
    price=st.one_of(st.sampled_from((0.0, 1.0, 2.5)),
                    st.floats(0.0, 10.0))), min_size=1, max_size=6)


@settings(max_examples=500, deadline=None)
@given(somd_bids, score_functions())
def test_second_score_equals_reference(bids, sf):
    """Winner, bitrate and payment equal the twice-scoring version bit for
    bit, ties to the lowest id and lone bids included."""
    out = resolve_second_score(bids, sf)
    want = ref_resolve_second_score(bids, sf)
    assert float_bits((out.winner_id, out.winning_bitrate, out.payment)) \
        == float_bits(want)

