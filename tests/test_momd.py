"""Unit tests for the multi-object Vickrey-score auction."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstream.momd import (
    InstanceTooLargeError,
    InsufficientMarginalScoresError,
    MarginalScoreSeq,
    MomdBid,
    MomdOutcome,
    brute_force_momd_optimum,
    brute_force_restricted_optimum,
    check_sufficient_conditions,
    marginal_scores,
    momd_score,
    resolve_from_marginal_scores,
    resolve_vickrey_score,
    row_scores,
    validate_assumption1,
)
from cmstream.model import UserState, lsum, utility_total
from cmstream.somd import ScoreFunction, SomdBid, resolve_second_score
from cmstream.strategy import build_momd_bid

from conftest import (
    LADDER,
    assumption1_momd_instance,
    bidder_draws,
    float_bits,
    make_profile,
    random_momd_instance,
    random_profile,
    random_state,
    score_functions,
)


def unit_bid(bidder_id, prices):
    n = len(prices)
    rows = tuple((1.0,) * k + (0.0,) * (n - k) for k in range(1, n + 1))
    return MomdBid(bidder_id, rows, tuple(prices))


def test_bid_validation():
    with pytest.raises(ValueError):
        MomdBid("a", ((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0))  # upper triangle
    with pytest.raises(ValueError):
        MomdBid("a", ((1.0,),), (1.0, 2.0))  # price length mismatch
    with pytest.raises(ValueError):
        MomdBid("a", ((0.0, 0.0), (1.0, 1.0)), (0.0, 2.0))  # gap row
    with pytest.raises(ValueError):
        MomdBid("a", ((1.0,),), (-1.0,))  # negative price
    with pytest.raises(ValueError):
        MomdBid("a", ((-1.0,),), (1.0,))  # negative bitrate


def test_bid_rows_and_cap():
    bid = MomdBid("a", ((1.3, 0.0, 0.0), (0.7, 0.7, 0.0), (0.0, 0.0, 0.0)),
                  (5.0, 8.0, 0.0))
    assert len(bid.bitrate_matrix) == 3
    assert bid.max_segments == 2
    assert bid.row(1) == (1.3,)
    assert bid.row(2) == (0.7, 0.7)


def test_momd_score_values():
    zero = ScoreFunction.zero()
    assert momd_score((), 7.0, zero) == pytest.approx(7.0)
    sf = ScoreFunction(lambda r: 2.5)
    assert momd_score((1.0, 1.0), 20.0, sf) == pytest.approx(15.0)
    dl = make_profile("d", cost_per_mbit=0.1)
    eff = ScoreFunction.efficient(dl)
    assert momd_score((1.3, 1.3), 30.0, eff) == pytest.approx(27.4)


def test_marginal_scores_telescoping():
    zero = ScoreFunction.zero()
    bid = unit_bid("1", (8.0, 15.0, 20.0, 22.0))
    assert row_scores(bid, zero) == pytest.approx([8.0, 15.0, 20.0, 22.0])
    seq = marginal_scores(bid, zero)
    assert seq.scores == pytest.approx((8.0, 7.0, 5.0, 2.0))

    flat = unit_bid("2", (4.0, 4.0, 4.0))
    assert marginal_scores(flat, zero).scores == pytest.approx((4.0, 0.0, 0.0))

    single = unit_bid("3", (6.0,))
    assert marginal_scores(single, zero).scores == pytest.approx((6.0,))


def test_validate_assumption1():
    assert validate_assumption1(
        MarginalScoreSeq("a", (8.0, 7.0, 5.0, 2.0))) == (True, None)
    assert validate_assumption1(
        MarginalScoreSeq("a", (3.0, 5.0))) == (False, 1)
    assert validate_assumption1(
        MarginalScoreSeq("a", (1.0, -1.0))) == (False, 2)
    assert validate_assumption1(MarginalScoreSeq("a", ())) == (True, None)


def test_worked_allocation_and_payments():
    outcome = resolve_from_marginal_scores(
        {"1": (8.0, 7.0, 5.0, 2.0),
         "2": (9.0, 6.0, 3.0, 2.0),
         "3": (4.0, 4.0, 3.0, 1.0)}, K=4)
    assert outcome.revised_allocation == {"1": 2, "2": 2, "3": 0}
    assert outcome.payments["1"] == pytest.approx(8.0)
    assert outcome.payments["2"] == pytest.approx(9.0)
    assert outcome.payments["3"] == 0.0
    assert sorted(outcome.per_segment_winners) == ["1", "1", "2", "2"]
    assert outcome.assumption_violations == ()


def test_single_bidder_pays_no_damage():
    outcome = resolve_from_marginal_scores({"a": (5.0, 4.0)}, K=2)
    assert outcome.revised_allocation == {"a": 2}
    assert outcome.payments["a"] == pytest.approx(0.0)


def test_identical_sequences_tie_break():
    outcome = resolve_from_marginal_scores(
        {"b": (5.0, 5.0), "a": (5.0, 5.0)}, K=2)
    assert outcome.per_segment_winners[0] == "a"
    assert outcome.revised_allocation == {"a": 2, "b": 0}
    # re-running is deterministic
    again = resolve_from_marginal_scores(
        {"b": (5.0, 5.0), "a": (5.0, 5.0)}, K=2)
    assert again.revised_allocation == outcome.revised_allocation


def test_resolve_insufficient_marginals():
    with pytest.raises(InsufficientMarginalScoresError):
        resolve_vickrey_score([], ScoreFunction.zero(), 1)
    with pytest.raises(InsufficientMarginalScoresError):
        resolve_vickrey_score([unit_bid("a", (5.0,))],
                              ScoreFunction.zero(), 2)


def test_resolve_flags_assumption_violations():
    out = resolve_vickrey_score(
        [unit_bid("a", (3.0, 8.0)), unit_bid("b", (6.0, 7.0))],
        ScoreFunction.zero(), 2)
    assert "a" in out.assumption_violations


def test_payment_includes_score_penalty():
    dl = make_profile("d", cost_per_mbit=0.1)
    sf = ScoreFunction.efficient(dl)
    rows = ((1.3, 0.0), (1.3, 1.3))
    winner = MomdBid("a", rows, (20.0, 30.0))
    loser = MomdBid("b", rows, (3.0, 4.0))
    out = resolve_vickrey_score([winner, loser], sf, 2)
    assert out.revised_allocation == {"a": 2, "b": 0}
    # damage: b's two best marginals; payment adds s of a's winning row
    seq_b = marginal_scores(loser, sf).scores
    assert out.payments["a"] == pytest.approx(
        sf.of_vector((1.3, 1.3)) + seq_b[0] + seq_b[1])


def test_brute_force_guards():
    bidders = [(make_profile(f"u{i}"), UserState()) for i in range(5)]
    with pytest.raises(InstanceTooLargeError):
        brute_force_momd_optimum(bidders, make_profile("d"), 2)
    small = bidders[:2]
    with pytest.raises(InstanceTooLargeError):
        brute_force_momd_optimum(small, make_profile("d"), 5)


def test_brute_force_trivial_cases():
    p = make_profile("u")
    dl = make_profile("d")
    alloc, vectors, w = brute_force_momd_optimum([(p, UserState())], dl, 0)
    assert alloc == (0,) and w == 0.0

    alloc, vectors, w = brute_force_momd_optimum([(p, UserState())], dl, 1)
    assert alloc == (1,)
    assert len(vectors["u"]) == 1


def test_restricted_oracle_respects_caps():
    dl = make_profile("d")
    bidders = [(make_profile("a"), UserState()),
               (make_profile("b"), UserState())]
    bids = [MomdBid("a", ((1.3, 0.0), (0.0, 0.0)), (5.0, 0.0)),
            MomdBid("b", ((1.3, 0.0), (0.0, 0.0)), (5.0, 0.0))]
    alloc, w = brute_force_restricted_optimum(bids, bidders, dl, 2)
    assert alloc == (1, 1)  # each bidder caps at one segment
    with pytest.raises(InsufficientMarginalScoresError):
        brute_force_restricted_optimum(bids[:1], bidders[:1], dl, 2)


def test_sufficient_conditions_trivial():
    dl = make_profile("d", cost_per_mbit=0.0)
    bidder = make_profile("u", degradation_slope=0.0)
    report = check_sufficient_conditions(dl, bidder, 4)
    assert report.nonnegative_ok
    assert report.nonincreasing_lhs == pytest.approx(0.0)
    assert report.all_ok


def test_sufficient_conditions_values():
    dl = make_profile("d", cost_per_mbit=0.3)
    bidder = make_profile("u", theta=1.0)
    report = check_sufficient_conditions(dl, bidder, 1)
    assert report.nonnegative_ok  # 10 ln(3.3) ~ 11.94 >= 6.9 at the top rate
    assert report.delta_bound == float("inf")
    assert report.nonincreasing_ok

    tight = make_profile("u", theta=1.0, buffer_gain_scale=10.0,
                         buffer_gain_decay=0.5)
    report = check_sufficient_conditions(dl, tight, 4)
    assert report.delta_bound == pytest.approx(0.078125)
    assert not report.nonincreasing_ok  # lhs 2*4*6.9 + 2.3 far exceeds it
    assert not report.all_ok


def test_truthfulness_smoke_suite():
    # small smoke version of the acceptance property suite
    from cmstream.model import utility_total
    from conftest import assumption1_momd_instance

    rng = random.Random(9)
    for _ in range(25):
        downloader, bidders, k, sf, bids = assumption1_momd_instance(rng)
        focal = 0
        profile, state = bidders[focal]
        truthful = bids[focal]

        def payoff(bid):
            out = resolve_vickrey_score([bid] + bids[1:], sf, k)
            kappa = out.revised_allocation[bid.bidder_id]
            if kappa == 0:
                return 0.0
            return (utility_total(profile, state,
                                  out.winning_bitrates[bid.bidder_id])
                    - out.payments[bid.bidder_id])

        base = payoff(truthful)
        for comp in range(len(truthful.price_vector)):
            for i in (0, 7, 14, 20):
                prices = list(truthful.price_vector)
                prices[comp] = prices[comp] * 2.0 * i / 20.0
                dev = MomdBid(truthful.bidder_id, truthful.bitrate_matrix,
                              tuple(prices))
                assert base >= payoff(dev) - 1e-9


seeds = st.integers(0, 2**32 - 1)


@st.composite
def truthful_auctions(draw):
    """Truthful bids with random segment caps, resolved over as many
    segments as they offer up to K, as the engine does."""
    rng = random.Random(draw(seeds))
    downloader, bidders, K = random_momd_instance(rng)
    sf = ScoreFunction.efficient(downloader)
    bids = [build_momd_bid(p, s, sf, K, max_segments=rng.randint(1, K))
            for p, s in bidders]
    return bids, sf, min(K, sum(b.max_segments for b in bids))


@settings(max_examples=300, deadline=None)
@given(truthful_auctions())
def test_vickrey_score_allocates_exactly_k(auction):
    bids, sf, K = auction
    out = resolve_vickrey_score(bids, sf, K)
    assert sum(out.revised_allocation.values()) == K
    assert len(out.per_segment_winners) == K
    for bid in bids:
        kappa = out.revised_allocation[bid.bidder_id]
        assert out.winning_bitrates[bid.bidder_id] == (
            bid.row(kappa) if kappa else ())


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_vickrey_score_payment_bounds_under_assumption1(seed):
    """Payments cover the winning row's score penalty and never exceed the
    winner's true utility of it. Both need Assumption 1: a negative
    marginal score among the others makes the score damage negative."""
    _, bidders, K, sf, bids = assumption1_momd_instance(random.Random(seed))
    out = resolve_vickrey_score(bids, sf, K)
    for (profile, state), bid in zip(bidders, bids):
        row = out.winning_bitrates[bid.bidder_id]
        payment = out.payments[bid.bidder_id]
        assert payment >= sf.of_vector(row) - 1e-9
        if row:
            assert utility_total(profile, state, row) - payment >= -1e-9


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(LADDER.rates),
                          st.floats(0.0, 50.0)), min_size=1, max_size=5),
       st.floats(0.0, 0.4), st.data())
def test_vickrey_score_at_k1_is_second_score(offers, cost, data):
    sf = ScoreFunction.efficient(make_profile("dl", cost_per_mbit=cost))
    order = data.draw(st.permutations(range(len(offers))))
    ids = [f"u{k}" for k in order]
    momd_out = resolve_vickrey_score(
        [MomdBid(i, ((r,),), (p,)) for i, (r, p) in zip(ids, offers)], sf, 1)
    somd_out = resolve_second_score(
        [SomdBid(i, r, p) for i, (r, p) in zip(ids, offers)], sf)
    (winner,) = momd_out.per_segment_winners
    assert winner == somd_out.winner_id
    assert momd_out.winning_bitrates[winner] == (somd_out.winning_bitrate,)
    assert momd_out.payments[winner] == somd_out.payment


def ref_resolve_vickrey_score(bids, sf, K):
    """resolve_vickrey_score computed straight from marginal_scores, with
    sf.of_vector for each payment's penalty."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if not bids:
        raise InsufficientMarginalScoresError(
            "insufficient marginal scores: no bids")
    seqs = {bid.bidder_id: marginal_scores(bid, sf) for bid in bids}
    entries = [(s, seq.bidder_id, kappa)
               for seq in seqs.values()
               for kappa, s in enumerate(seq.scores, start=1)]
    if len(entries) < K:
        raise InsufficientMarginalScoresError(
            f"insufficient marginal scores: {len(entries)} < {K}")
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    top = entries[:K]

    counts = {bid.bidder_id: 0 for bid in bids}
    for _, bidder_id, _ in top:
        counts[bidder_id] += 1

    bitrates = {}
    payments = {}
    for bid in bids:
        kappa = counts[bid.bidder_id]
        if kappa == 0:
            bitrates[bid.bidder_id] = ()
            payments[bid.bidder_id] = 0.0
            continue
        row = bid.row(kappa)
        others = [s for s, b, _ in entries if b != bid.bidder_id][:K]
        others += [0.0] * (K - len(others))
        damage = lsum(others[K - kappa:])
        bitrates[bid.bidder_id] = row
        payments[bid.bidder_id] = sf.of_vector(row) + damage

    violations = tuple(b for b in sorted(seqs)
                       if not validate_assumption1(seqs[b])[0])
    return MomdOutcome(
        per_segment_winners=tuple(b for _, b, _ in top),
        revised_allocation=counts,
        winning_bitrates=bitrates,
        payments=payments,
        assumption_violations=violations,
    )


@st.composite
def free_bids(draw, bidder_id, K):
    """A valid K x K bid whose rows mix rates, hold zeros inside and may
    end in all-zero rows; rates repeat across rows and bids."""
    cap = draw(st.integers(0, K))
    rates = st.sampled_from((0.0, 0.2, 0.7, 1.3, 2.3))
    rows = []
    for kappa in range(1, K + 1):
        row = [0.0] * K
        if kappa <= cap:
            row[:kappa] = draw(st.lists(rates, min_size=kappa, max_size=kappa)
                               .filter(any))
        rows.append(tuple(row))
    prices = draw(st.lists(st.floats(0.0, 50.0), min_size=K, max_size=K))
    return MomdBid(bidder_id, tuple(rows), tuple(prices))


@st.composite
def mixed_auctions(draw):
    """Truthful bids, free-form bids and the unit bids of
    resolve_from_marginal_scores in one auction, some with a repeated
    bidder id, over the engine's segment count or any count up to one
    more than the bids offer."""
    K = draw(st.integers(1, 5))
    sf = draw(score_functions())
    repeat_ids = draw(st.booleans())
    bids = []
    for i in range(draw(st.integers(1, 6))):
        bidder_id = draw(st.sampled_from("abc")) if repeat_ids else f"u{i}"
        kind = draw(st.sampled_from(("truthful", "free", "unit")))
        if kind == "truthful":
            profile, state = draw(bidder_draws(bidder_id))
            bids.append(build_momd_bid(profile, state, sf, K,
                                       max_segments=draw(st.integers(0, K))))
        elif kind == "free":
            bids.append(draw(free_bids(bidder_id, K)))
        else:
            bids.append(unit_bid(bidder_id, draw(st.lists(
                st.floats(0.0, 50.0), min_size=K, max_size=K))))
    # a repeated bidder_id offers only its last bid's rows
    offered = sum(b.max_segments for b in {b.bidder_id: b for b in bids}.values())
    return bids, sf, draw(st.one_of(st.just(min(K, offered)),
                                    st.integers(0, offered + 1)))


@settings(max_examples=500, deadline=None)
@given(mixed_auctions())
def test_vickrey_score_equals_reference(auction):
    bids, sf, K = auction
    try:
        want = ref_resolve_vickrey_score(bids, sf, K)
    except InsufficientMarginalScoresError as exc:
        with pytest.raises(InsufficientMarginalScoresError, match=str(exc)):
            resolve_vickrey_score(bids, sf, K)
        return
    got = resolve_vickrey_score(bids, sf, K)
    for f in fields(MomdOutcome):
        assert float_bits(getattr(got, f.name)) == float_bits(
            getattr(want, f.name)), f.name
