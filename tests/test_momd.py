"""Unit tests for the multi-object Vickrey-score auction."""

import itertools
import random
import runpy
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmstream import momd
from cmstream.momd import (
    InstanceTooLargeError,
    InsufficientMarginalScoresError,
    MomdBid,
    MomdOutcome,
    brute_force_momd_optimum,
    check_sufficient_conditions,
    marginal_scores,
    momd_score,
    resolve_from_marginal_scores,
    resolve_vickrey_score,
    row_scores,
    validate_assumption1,
)
from cmstream.model import (
    BitrateLadder,
    UserProfile,
    UserState,
    lsum,
    utility_total,
)
from cmstream.somd import (
    ScoreFunction,
    SomdBid,
    optimal_somd_bid,
    resolve_second_score,
)
from cmstream.strategy import build_momd_bid

from conftest import (
    LADDER,
    assumption1_momd_instance,
    bidder_draws,
    brute_force_restricted_optimum,
    float_bits,
    make_profile,
    random_momd_instance,
    random_profile,
    random_state,
    score_functions,
)


def unit_bid(bidder_id, prices):
    rows = tuple((1.0,) * k for k in range(1, len(prices) + 1))
    return MomdBid(bidder_id, rows, tuple(prices))


def test_bid_validation():
    with pytest.raises(ValueError, match="row 1 must hold 1 bitrates"):
        MomdBid("a", ((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0))  # row too long
    with pytest.raises(ValueError, match="row 2 must hold 2 bitrates"):
        MomdBid("a", ((1.0,), (1.0,)), (1.0, 2.0))  # row too short
    with pytest.raises(ValueError, match="row 3 must hold 3 bitrates"):
        MomdBid("a", ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0, 0.0)),
                (1.0, 2.0, 3.0))  # a padded row
    with pytest.raises(ValueError, match="match the row count"):
        MomdBid("a", ((1.0,),), (1.0, 2.0))  # more prices than rows
    with pytest.raises(ValueError, match="match the row count"):
        MomdBid("a", ((1.0,), (1.0, 1.0)), (1.0,))  # fewer prices than rows
    with pytest.raises(ValueError):
        MomdBid("a", ((1.0,),), (-1.0,))  # negative price
    with pytest.raises(ValueError):
        MomdBid("a", ((-1.0,),), (1.0,))  # negative bitrate


def test_bid_validation_sees_negatives_past_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="bitrates"):
        MomdBid("a", ((1.0,), (nan, -1.0)), (1.0, 2.0))
    with pytest.raises(ValueError, match="prices"):
        MomdBid("a", ((1.0,), (1.0, 1.0)), (nan, -1.0))
    # a NaN is not negative: it passes
    assert MomdBid("a", ((nan,), (1.0, nan)), (nan, nan)).max_segments == 2


def ref_bid_check(matrix, prices):
    """MomdBid's checks in plain form, one scan of every row per bid: the
    bid's max_segments, its row count, or the ValueError it raises."""
    if len(prices) != len(matrix):
        raise ValueError("price vector length must match the row count")
    for kappa, row in enumerate(matrix, start=1):
        if len(row) != kappa:
            raise ValueError(f"row {kappa} must hold {kappa} bitrates")
        if any(x < 0 for x in row):
            raise ValueError("bitrates must be >= 0")
    if any(p < 0 for p in prices):
        raise ValueError("prices must be >= 0")
    return len(matrix)


NAN = float("nan")  # one object, so that equal matrices can hold a NaN
rates = st.sampled_from((0.2, 1.3, 1, True, NAN))
hostile_entries = st.one_of(
    st.sampled_from((0.0, -0.0, 0, 0.2, 1, NAN, -1.0)),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def hostile_matrices(draw):
    """Bitrate matrices of up to 4 rows, as tuples or lists, whose entries
    may be NaN, -0.0, negative or ints, and whose row kappa mostly holds
    kappa entries but may hold one fewer or one more."""
    rows = []
    for kappa in range(1, draw(st.integers(0, 4)) + 1):
        width = draw(st.sampled_from((kappa,) * 12 + (kappa - 1, kappa + 1)))
        # most rows hold rates, some hold only zeros
        entries = draw(st.sampled_from((rates,) * 4 + (hostile_entries,
                                                       st.just(0.0))))
        row = [draw(entries) for _ in range(width)]
        rows.append(tuple(row) if draw(st.integers(0, 3)) else row)
    return tuple(rows) if draw(st.integers(0, 3)) else rows


def hostile_prices(k):
    """Price vectors, mostly of the matrix's row count, that may be
    negative or NaN."""
    return st.one_of(
        st.lists(st.sampled_from((0.0, -0.0, 2.5, 40.0)), min_size=k,
                 max_size=k),
        st.lists(hostile_entries, min_size=k, max_size=k),
        st.lists(hostile_entries, min_size=max(k - 1, 0), max_size=k + 1),
    ).map(tuple)


def zeros_flipped(matrix):
    """An equal matrix of new rows, with 0.0 and -0.0 swapped."""
    return type(matrix)(type(row)(-x if x == 0 else x for x in row)
                        for row in matrix)


def bid_check(matrix, prices):
    return MomdBid("a", matrix, prices).max_segments


def outcome(check, matrix, prices):
    """check's result, or the type and message of its ValueError."""
    try:
        return check(matrix, prices)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_bid_check_equals_the_first_scan(data):
    """Every bid gets the plain scan's max_segments or its error: a
    hostile matrix with two price vectors, then an equal matrix with its
    zeros' signs flipped, with each of them."""
    matrix = data.draw(hostile_matrices())
    k = len(matrix)
    prices, other = data.draw(hostile_prices(k)), data.draw(hostile_prices(k))
    twin = zeros_flipped(matrix)
    for m, p in ((matrix, prices), (matrix, other), (twin, prices),
                 (twin, other)):
        assert outcome(bid_check, m, p) == outcome(ref_bid_check, m, p)


def test_bid_rows_and_cap():
    bid = MomdBid("a", ((1.3,), (0.7, 0.7)), (5.0, 8.0))
    assert bid.max_segments == 2
    assert bid.row(1) == (1.3,)
    assert bid.row(2) == (0.7, 0.7)
    with pytest.raises(AttributeError):
        bid.max_segments = 3  # the cap is the row count, not a field
    assert MomdBid("a", (), ()).max_segments == 0


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
    assert marginal_scores(bid, zero) == pytest.approx((8.0, 7.0, 5.0, 2.0))

    flat = unit_bid("2", (4.0, 4.0, 4.0))
    assert marginal_scores(flat, zero) == pytest.approx((4.0, 0.0, 0.0))

    single = unit_bid("3", (6.0,))
    assert marginal_scores(single, zero) == pytest.approx((6.0,))


def test_validate_assumption1():
    assert validate_assumption1((8.0, 7.0, 5.0, 2.0)) == (True, None)
    assert validate_assumption1((3.0, 5.0)) == (False, 1)
    assert validate_assumption1((1.0, -1.0)) == (False, 2)
    assert validate_assumption1(()) == (True, None)


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


def test_marginal_scores_refused_at_first_negative_running_sum(monkeypatch):
    """A running sum below 0 is refused by name, entry and sum, before
    any bid is built; a later recovery of the sum does not help."""
    monkeypatch.setattr(momd, "MomdBid", None)  # building a bid would fail
    for seqs, named in (
            ({"1": (2.0, -3.0), "2": (2.0,)}, "bidder 1: the running sum "
             "falls below 0 at entry 2, to -1.0"),
            ({"a": (5.0,), "b": (1.0, 1.0, -2.5, 9.0)}, "bidder b: the "
             "running sum falls below 0 at entry 3, to -0.5"),
            ({"x": (-0.25,), "y": (-1.0,)}, "bidder x: the running sum "
             "falls below 0 at entry 1, to -0.25")):
        with pytest.raises(ValueError) as err:
            resolve_from_marginal_scores(seqs, K=1)
        assert named in str(err.value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from("abc"),
                       st.lists(st.integers(-3, 3).map(float), min_size=1,
                                max_size=4),
                       min_size=1),
       st.integers(1, 4))
def test_marginal_scores_refused_as_the_bids_were(seqs, K):
    """The sequences refused are those whose bids a negative price would
    have refused, and no others."""
    negative = any(any(p < 0 for p in itertools.accumulate(scores))
                   for scores in seqs.values())
    try:
        resolve_from_marginal_scores(seqs, K)
    except InsufficientMarginalScoresError:
        assert not negative
    except ValueError as err:
        assert negative and "running sum falls below 0" in str(err)
    else:
        assert not negative


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
    rows = ((1.3,), (1.3, 1.3))
    winner = MomdBid("a", rows, (20.0, 30.0))
    loser = MomdBid("b", rows, (3.0, 4.0))
    out = resolve_vickrey_score([winner, loser], sf, 2)
    assert out.revised_allocation == {"a": 2, "b": 0}
    # damage: b's two best marginals; payment adds s of a's winning row
    seq_b = marginal_scores(loser, sf)
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
    bids = [MomdBid("a", ((1.3,),), (5.0,)),
            MomdBid("b", ((1.3,),), (5.0,))]
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
    # no quality gain: gain equals the free download's cost at every rate
    flat = make_profile("u", theta=0.0)
    assert check_sufficient_conditions(dl, flat, 4).nonnegative_ok


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


def test_sufficient_conditions_by_hand():
    """Condition (b) on an instance whose floats are exact. A segment at
    the top rate costs 1/64 * 2.0 * 10 = 0.3125, so the lhs
    2K * 0.3125 + 0.375 * 2.0 is 1.375 at K = 1, 2.0 at K = 2 and 2.625 at
    K = 3; the bound 64 * (1 - 0.5) * 0.5 ** (40 / 10 + K - 2) is 2.0 at
    K = 2 and 1.0 at K = 3. A lhs on the bound passes."""
    dl = make_profile("d", cost_per_mbit=1 / 64)
    bidder = make_profile(
        "u", ladder=BitrateLadder(rates=(0.5, 1.0, 2.0),
                                  segment_length_s=10.0, max_buffer_s=40.0),
        buffer_gain_scale=64.0, buffer_gain_decay=0.5,
        degradation_slope=0.375)
    got = {K: check_sufficient_conditions(dl, bidder, K) for K in (1, 2, 3)}
    assert {K: (r.nonincreasing_lhs, r.delta_bound, r.nonincreasing_ok)
            for K, r in got.items()} == {1: (1.375, float("inf"), True),
                                         2: (2.0, 2.0, True),
                                         3: (2.625, 1.0, False)}


def test_brute_force_ties_go_to_the_first():
    """Bidders with no quality gain, no cost and nothing to drop from tie
    on every vector, and two such bidders tie on every split of one
    segment: the first best vector per count and the first best split
    win."""
    flat = [(make_profile(uid, theta=0.0), UserState()) for uid in "ab"]
    alloc, vectors, _ = brute_force_momd_optimum(
        flat, make_profile("d", cost_per_mbit=0.0), 1)
    assert alloc == (0, 1)
    assert vectors == {"a": (), "b": (0.2,)}


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    *(bidder_draws(f"u{j}") for j in range(n)))), score_functions())
# a near-tie: the buffer gain 1.0 absorbs both quality gains in
# optimal_somd_bid's sum, which ties and takes 1.0; build_momd_bid's
# objective leaves the buffer gain out and takes 2.0
@example(bidders=((UserProfile(
    "u0", BitrateLadder((1.0, 2.0), 1.0, 1.0), theta=1.2097377016461048e-131,
    buffer_gain_scale=1.0, buffer_gain_decay=0.5, degradation_slope=0.0),
    UserState()),), sf=ScoreFunction.zero())
def test_somd_is_momd_at_k1(bidders, sf):
    """With every truthful price >= 0, the single-object auction on optimal
    SOMD bids and the multi-object one on optimal MOMD bids at K = 1 give
    the same winner, bitrate and payment, bit for bit, whenever each bidder
    bids the same rate in both. Below 0 they may not: build_momd_bid floors
    a price at 0, optimal_somd_bid does not. The two bid builders state one
    argmax in two float orders, so on a near-tie they can pick different
    rates; the rates' objectives then differ only by rounding."""
    somd_bids = [optimal_somd_bid(p, s, sf) for p, s in bidders]
    assume(all(b.price >= 0 for b in somd_bids))
    momd_bids = [build_momd_bid(p, s, sf, 1) for p, s in bidders]
    for (profile, state), somd_bid, momd_bid in zip(bidders, somd_bids,
                                                    momd_bids):
        (rate,) = momd_bid.row(1)
        if rate != somd_bid.bitrate:
            objective = [utility_total(profile, state, (r,)) - sf(r)
                         for r in (somd_bid.bitrate, rate)]
            assert abs(objective[0] - objective[1]) <= 1e-9
    assume(all(m.row(1) == (s.bitrate,)
               for s, m in zip(somd_bids, momd_bids)))
    momd_out = resolve_vickrey_score(momd_bids, sf, 1)
    somd_out = resolve_second_score(somd_bids, sf)
    (winner,) = momd_out.per_segment_winners
    assert winner == somd_out.winner_id
    assert float_bits(momd_out.winning_bitrates[winner]) == float_bits(
        (somd_out.winning_bitrate,))
    assert float_bits(momd_out.payments[winner]) == float_bits(
        somd_out.payment)


def ref_resolve_vickrey_score(bids, sf, K):
    """resolve_vickrey_score computed straight from marginal_scores, with
    sf.of_vector for each payment's penalty."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if not bids:
        raise InsufficientMarginalScoresError(
            "insufficient marginal scores: no bids")
    seqs = {bid.bidder_id: marginal_scores(bid, sf) for bid in bids}
    entries = [(s, bidder_id, kappa)
               for bidder_id, seq in seqs.items()
               for kappa, s in enumerate(seq, start=1)]
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
    # a repeated bidder_id keeps its last bid, whose rows alone it offers
    for bid in {bid.bidder_id: bid for bid in bids}.values():
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
    """A valid bid of up to K rows that mix rates and may hold zeros;
    rates repeat across rows and bids."""
    cap = draw(st.integers(0, K))
    rates = st.sampled_from((0.0, 0.2, 0.7, 1.3, 2.3))
    rows = [tuple(draw(st.lists(rates, min_size=kappa, max_size=kappa)))
            for kappa in range(1, cap + 1)]
    prices = draw(st.lists(st.floats(0.0, 50.0), min_size=cap, max_size=cap))
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


def _signed_zero_twin(row):
    """An equal row, another object, with each zero's sign flipped."""
    return tuple(-x if x == 0 else x for x in row)


@st.composite
def shared_row_auctions(draw):
    """Bids whose rows come from one pool of row objects per kappa, so one
    object serves several bids; each row has a twin whose zeros carry the
    other sign, and prices include 0.0 and -0.0."""
    K = draw(st.integers(1, 5))
    sf = draw(score_functions())
    rates = st.sampled_from((0.0, -0.0, 0.2, 0.7, 1.3, 2.3))
    pools = []  # pools[kappa - 1]: rows of kappa rates
    for kappa in range(1, K + 1):
        pool = []
        for _ in range(draw(st.integers(1, 3))):
            row = tuple(draw(st.lists(rates, min_size=kappa, max_size=kappa)))
            pool += [row, _signed_zero_twin(row)]
        pools.append(pool)
    prices = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 50.0))
    matrices = []
    bids = []
    for i in range(draw(st.integers(1, 6))):
        if matrices and draw(st.booleans()):
            matrix = draw(st.sampled_from(matrices))
        else:
            matrix = tuple(draw(st.sampled_from(pools[kappa - 1]))
                           for kappa in range(1, draw(st.integers(0, K)) + 1))
            matrices.append(matrix)
        bidder_id = draw(st.sampled_from(("a", "b", f"u{i}")))
        bids.append(MomdBid(bidder_id, matrix, tuple(draw(st.lists(
            prices, min_size=len(matrix), max_size=len(matrix))))))
    offered = sum(b.max_segments
                  for b in {b.bidder_id: b for b in bids}.values())
    return bids, sf, draw(st.one_of(st.just(min(K, offered)),
                                    st.integers(0, offered + 1)))


@settings(max_examples=200, deadline=None)
@given(shared_row_auctions())
def test_vickrey_score_on_shared_rows_equals_reference(auction):
    """Rows shared between bids, and rows equal but for the sign of a
    zero, resolve as the reference does, bit for bit."""
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


def ref_marginal_scores(bid, sf):
    """marginal_scores as first written: the differences of the row
    scores, each a row's price less sf.of_vector of its rates."""
    out = []
    prev = 0.0
    for kappa in range(1, bid.max_segments + 1):
        phi = bid.price_vector[kappa - 1] - sf.of_vector(bid.row(kappa))
        out.append(phi - prev)
        prev = phi
    return tuple(out)


def ref_validate_assumption1(s):
    """validate_assumption1 as first written, on the scores themselves."""
    for kappa in range(1, len(s) + 1):
        if s[kappa - 1] < 0:
            return False, kappa
        if kappa < len(s) and s[kappa - 1] < s[kappa]:
            return False, kappa
    return True, None


@settings(max_examples=300, deadline=None)
@given(mixed_auctions(), st.lists(hostile_entries, max_size=6))
def test_marginal_scores_match_frozen_copy(auction, scores):
    """Every bid's marginal scores, bit for bit, and the Assumption 1
    verdict on them; and the verdict on sequences that may hold NaN,
    infinities, -0.0 and negatives."""
    bids, sf, _ = auction
    for bid in bids:
        got = marginal_scores(bid, sf)
        want = ref_marginal_scores(bid, sf)
        assert float_bits(got) == float_bits(want)
        assert validate_assumption1(got) == ref_validate_assumption1(want)
    assert validate_assumption1(scores) == ref_validate_assumption1(scores)


# the worked-example demo's stdout, as printed when it ran the second-score
# auction through somd's own bid and resolver
WORKED_EXAMPLE = """\
=== Second-score auction ===

Three bidders compete for one segment slot. Each bid is a
(bitrate, price) pair; with a zero score penalty the score is
just the price, so this reduces to a second-price auction.

  alice: bitrate 1.3 Mbps, price 5.0
    bob: bitrate 2.3 Mbps, price 3.0
  carol: bitrate 0.7 Mbps, price 2.0

Winner: alice at 1.3 Mbps, paying 3.0 (the second-highest score).

=== Vickrey-score auction, K = 4 segments ===

Each bidder reports a marginal-score sequence: the score increase
from winning one more segment. The four globally highest marginal
scores win; each winner pays the score damage it causes the others.

  bidder 1: marginal scores (8.0, 7.0, 5.0, 2.0)
  bidder 2: marginal scores (9.0, 6.0, 3.0, 2.0)
  bidder 3: marginal scores (4.0, 4.0, 3.0, 1.0)

Sorted marginals: 9, 8, 7, 6 | 5, 4, 4, ... -- the top four come
from bidders 1 and 2 (two each); bidder 3 wins nothing.

Allocation: {'1': 2, '2': 2, '3': 0}
  bidder 1 pays 8 (score damage to the others)
  bidder 2 pays 9 (score damage to the others)

Without bidder 1, bidder 3's marginals 4 and 4 would have won:
damage 4 + 4 = 8. Without bidder 2, bidder 1's 5 and bidder 3's 4
move up: damage 5 + 4 = 9.
"""


def test_worked_example_demo_prints_its_walk_through(capsys):
    """The demo's second-score walk-through runs as the Vickrey-score
    auction at K = 1 under the zero score, and prints what it printed when
    somd's own resolver ran it."""
    demo = (Path(__file__).resolve().parent.parent / "demos"
            / "worked_auction_example.py")
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == WORKED_EXAMPLE
