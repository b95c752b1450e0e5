"""Unit tests for the trace-driven simulation engine."""

import math
import operator
import tracemalloc
from dataclasses import replace
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmstream
from cmstream.engine import (
    SimConfig,
    SimulationHorizonError,
    _Simulation,
    auction_score,
    run_comparison,
    run_simulation,
)
from cmstream.model import BitrateLadder, UserProfile, utility_total
from cmstream.momd import _best_split, momd_score, resolve_vickrey_score
from cmstream.somd import ScoreFunction
from cmstream.strategy import AdaptationPolicy, baseline_bitrate, participates
from cmstream.config import load_config
from cmstream.experiments import (
    heterogeneous_scenario,
    standard_profile,
    two_user_scenario,
)
from cmstream.traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    generate_synthetic_traces,
)

from conftest import (
    _priced_bid,
    bidder_draws,
    float_bits,
    make_profile,
    score_functions,
)


def test_config_validation():
    user = make_profile("A")
    with pytest.raises(ValueError):
        SimConfig(users=())
    with pytest.raises(ValueError):
        SimConfig(users=(user,), K=0)
    with pytest.raises(ValueError):
        SimConfig(users=(user,), mechanism="dutch")
    with pytest.raises(ValueError):
        SimConfig(users=(user,), mechanism="somd", K=2)
    with pytest.raises(ValueError):
        SimConfig(users=(user, make_profile("A")))
    with pytest.raises(ValueError):
        SimConfig(users=(user,), video_length_s=95.0)
    for name, bad in (("video_length_s", math.nan),
                      ("overhead_energy_per_auction", math.nan),
                      ("overhead_energy_per_auction", -1.0)):
        with pytest.raises(ValueError, match=name):
            SimConfig(users=(user,), **{name: bad})


def test_config_refuses_segment_count_past_floats():
    # 1e10 s of 1e-300-s segments is an infinite segment count, which
    # round() cannot turn into an int
    tiny = make_profile("A", ladder=BitrateLadder(segment_length_s=1e-300,
                                                  max_buffer_s=40.0))
    with pytest.raises(ValueError, match="user A: video_length_s"):
        SimConfig(users=(make_profile("B"), tiny), video_length_s=1e10)


def test_config_refuses_horizon_guard_past_floats():
    # a finite video length whose horizon guard overflows: a run would
    # never be refused as never ending
    with pytest.raises(ValueError, match="video_length_s 1e\\+308"):
        SimConfig(users=(make_profile("A"),), video_length_s=1e308)
    assert SimConfig(users=(make_profile("A"),),
                     video_length_s=1e306).video_length_s == 1e306


def test_single_user_noncooperative():
    user = make_profile("A", link_cost_per_s=0.0)
    cfg = SimConfig(users=(user,), mechanism="noncooperative",
                    video_length_s=100.0)
    trace = CapacityTrace({"A": ((0.0, 5.0),)})
    result = run_simulation(cfg, trace)
    a = result.per_user["A"]
    assert a.rebuffer_s == 0.0
    assert a.degradation_volume_mbps == 0.0
    assert result.auction_count == 0
    # constant capacity and state-independent policy: one rate throughout
    rates = {e.payload["bitrate"] for e in result.events
             if e.kind == "segment_delivered"}
    assert len(rates) == 1
    kinds = [e.kind for e in result.events]
    assert kinds.count("segment_delivered") == 10
    assert kinds.count("video_complete") == 1


def test_missing_trace_raises():
    cfg = SimConfig(users=(make_profile("A"),), mechanism="noncooperative")
    with pytest.raises(TraceUnderrunError):
        run_simulation(cfg, CapacityTrace({"B": ((0.0, 1.0),)}))


def test_tiny_capacity_estimate_is_a_trace_fault():
    # 0.45 / 1e-310 overflows, so the cost per Mbit of A's auction is inf
    cfg = SimConfig(users=(make_profile("A", link_cost_per_s=0.45),),
                    mechanism="noncooperative")
    capacity = CapacityTrace({"A": ((0.0, 1e-310), (5.0, 3.0))})
    with pytest.raises(TraceUnderrunError, match=r"auctioneer A at t=0\.0"):
        run_simulation(cfg, capacity)


def test_zero_time_download_is_a_trace_fault():
    # A fills its buffer by t=1e-298; at t=10, 10 + 23 / 1e300 rounds to 10
    cfg = SimConfig(users=(make_profile("A"),), mechanism="noncooperative")
    capacity = CapacityTrace({"A": ((0.0, 1e300),)})
    with pytest.raises(TraceUnderrunError, match=r"auctioneer A at t=10\.0: "
                       r"a download of 23\.0 Mbit from t=10\.0 ends at its "
                       r"start time"):
        run_simulation(cfg, capacity)


@pytest.mark.parametrize("field", ["cost_per_mbit", "link_cost_per_s"])
def test_cost_overflow_is_a_config_fault(field):
    # 1e308 Mbit-units per Mbit: a 2.3-Mbps, 10-s segment costs inf, on
    # a capacity estimate like the 0.31 Mbps of the shipped two-user traces
    with pytest.raises(ValueError, match=f"user A: {field} 1e\\+308 makes"):
        make_profile("A", **{field: 1e308})
    # 7e306 * 2.3 * 10 is still below the largest float
    make_profile("A", **{field: 7e306})


@pytest.mark.parametrize("field,value,users,video_s,message", [
    ("theta", 1e308, "A", 100.0, "user A: welfare inf"),
    ("buffer_gain_scale", 1e308, "A", 100.0, "user A: welfare inf"),
    ("cost_per_mbit", 7e306, "A", 200.0, "user A: welfare -inf"),
    # each user's welfare is finite, their sum is not
    ("theta", 1e306, "AB", 100.0, "social welfare inf"),
], ids=["theta", "buffer-gain", "cost", "sum"])
def test_welfare_overflow_is_a_config_fault(field, value, users, video_s,
                                            message):
    """Every segment's terms are finite, but their sums over the run
    overflow: a ValueError naming whose welfare, not an infinite result."""
    cfg = SimConfig(users=tuple(make_profile(uid, **{field: value})
                                for uid in users),
                    mechanism="noncooperative", video_length_s=video_s)
    capacity = CapacityTrace({uid: ((0.0, 3.0),) for uid in users})
    with pytest.raises(ValueError, match=f"^{message} over the run"):
        run_simulation(cfg, capacity)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e308), st.floats(0.0, 1e308), st.floats(1.0, 1e9),
       st.floats(0.05, 5.0), st.floats(0.5, 20.0))
def test_valid_profile_never_overflows_at_one_mbps_or_more(
        cost, link_cost, h_est, top_rate, segment_s):
    """A profile UserProfile accepts scores every ladder rate finitely at any
    capacity estimate of 1 Mbps or more, so an overflow in auction_score is
    the trace's alone."""
    ladder = BitrateLadder(rates=(top_rate / 2, top_rate),
                           segment_length_s=segment_s,
                           max_buffer_s=4 * segment_s)
    try:
        profile = make_profile("a", ladder=ladder, cost_per_mbit=cost,
                               link_cost_per_s=link_cost)
    except ValueError:
        return
    sf = auction_score(profile, h_est, 0.0)
    assert all(math.isfinite(sf(r)) for r in ladder.rates)


@st.composite
def auctioneers(draw):
    rates = sorted(draw(st.lists(st.floats(0.05, 5.0), min_size=1,
                                 max_size=6, unique=True)))
    segment_s = draw(st.floats(0.5, 20.0))
    return UserProfile(
        user_id="a",
        ladder=BitrateLadder(rates=tuple(rates), segment_length_s=segment_s,
                             max_buffer_s=4 * segment_s),
        cost_per_mbit=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        link_cost_per_s=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))))


@settings(max_examples=400, deadline=None)
@given(auctioneers(),
       st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                 st.floats(5e-324, 1e-300)))
def test_auction_score_equals_efficient_of_the_effective_profile(profile,
                                                                 h_est):
    """The engine's score function is the one the effective-cost profile
    gives, bit for bit, at every ladder rate and at 0; a cost that overflows
    is a trace fault where the profile would be refused."""
    eff_cost = (profile.cost_per_mbit
                + (profile.link_cost_per_s / h_est if h_est > 0 else 0.0))
    try:
        effective = replace(profile, cost_per_mbit=eff_cost)
    except ValueError:  # the cost overflowed
        with pytest.raises(TraceUnderrunError):
            auction_score(profile, h_est, 0.0)
        return
    want = ScoreFunction.efficient(effective)
    got = auction_score(profile, h_est, 0.0)
    for r in (0.0,) + profile.ladder.rates:
        assert float_bits(got(r)) == float_bits(want(r))


def frozen_baseline_bid(cfg, u, h_est):
    """A baseline policy's bid as the engine built it beside the optimal
    bidders: the policy's rate on every row up to the segment cap, at
    floored truthful prices, on at most K rows for momd and at most one
    row for the other mechanisms."""
    profile, state = u.profile, u.state()
    rate = baseline_bitrate(cfg.adaptation, state, h_est, profile.ladder)
    K = cfg.K if cfg.mechanism == "momd" else 1
    cap = max(0, min(u.total_segments - u.next_seq, u.headroom_segments(),
                     K))
    rows = tuple((rate,) * kappa for kappa in range(1, cap + 1))
    return _priced_bid(profile, state, rows)


@settings(max_examples=400, deadline=None)
@given(bidder_draws(), score_functions(),
       st.one_of(st.sampled_from([0.0, 5e-324, 1e9]),
                 st.floats(0.0, 10.0, exclude_min=True, exclude_max=True)),
       st.sampled_from(["buffer_based", "bandwidth_based", "hybrid"]),
       st.one_of(st.tuples(st.sampled_from(["somd", "vickrey_1d"]),
                           st.just(1)),
                 st.tuples(st.sampled_from(["momd", "noncooperative"]),
                           st.integers(1, 6))),
       st.data())
def test_baseline_bid_matches_frozen_construction(bidder, sf, h_est, kind,
                                                  mechanism_k, data):
    """A baseline policy's bid in the engine equals, bit for bit, the
    construction it had as a path of its own."""
    profile, state = bidder
    mechanism, K = mechanism_k
    total = data.draw(st.integers(1, 8))
    cfg = SimConfig(users=(profile,), K=K, mechanism=mechanism,
                    adaptation=AdaptationPolicy(kind),
                    video_length_s=profile.ladder.segment_length_s * total)
    sim = _Simulation(cfg, CapacityTrace({"u": ((0.0, 1.0),)}),
                      EncounterTrace())
    u = sim.users["u"]
    u.buffer_s, u.prev_bitrate = state.buffer_s, state.prev_bitrate
    u.next_seq = data.draw(st.integers(0, total))
    u.pending = data.draw(st.integers(0, u.next_seq))
    got = sim._bid(u, min(u.total_segments - u.next_seq,
                          u.headroom_segments()), sf, h_est)
    want = frozen_baseline_bid(cfg, u, h_est)
    assert type(got) is type(want)
    assert float_bits(vars(got)) == float_bits(vars(want))


@pytest.mark.parametrize("mechanism,K", [("momd", 4), ("somd", 1)])
@pytest.mark.parametrize("kind", ["buffer_based", "bandwidth_based", "hybrid"])
def test_baseline_profile_built_once_per_rate(monkeypatch, mechanism, K,
                                              kind):
    """A user's bids at one baseline rate share one one-rate profile,
    built by one ladder and one profile replace, and each bid still equals
    the frozen construction bit for bit."""
    cfg = SimConfig(users=(make_profile("u"),), K=K, mechanism=mechanism,
                    adaptation=AdaptationPolicy(kind), video_length_s=400.0)
    sim = _Simulation(cfg, CapacityTrace({"u": ((0.0, 1.0),)}),
                      EncounterTrace())
    u = sim.users["u"]
    built = []

    def counting_replace(obj, **changes):
        built.append(obj)
        return replace(obj, **changes)

    monkeypatch.setattr("cmstream.engine.replace", counting_replace)
    sf = ScoreFunction.efficient(make_profile("d"))
    rates = set()
    for _ in range(2):
        for buffer_s in (0.0, 15.0, 25.0, 39.0):
            u.buffer_s = buffer_s
            for h_est in (0.3, 1.0, 5.0):
                got = sim._bid(u, min(u.total_segments - u.next_seq,
                                      u.headroom_segments()), sf, h_est)
                want = frozen_baseline_bid(cfg, u, h_est)
                assert float_bits(vars(got)) == float_bits(vars(want))
                rates.add(baseline_bitrate(cfg.adaptation, u.state(), h_est,
                                           u.profile.ladder))
    assert len(built) == 2 * len(rates) == 2 * len(u.one_rate_profiles)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k_past_every_cap_sizes_nothing(seed):
    """Three users hold at most 4 segments of buffer each, so no auction of
    the three-user scenario allocates more than 12 segments, and K =
    100_000 runs it as K = 12 does, bit for bit, each run under 1 MB of
    traced memory: a bid holds no row past its cap, whatever K is."""
    results = {}
    for K in (12, 100_000):
        cfg, gen = heterogeneous_scenario("momd", K=K)
        traces = gen(seed)
        tracemalloc.start()
        try:
            results[K] = run_simulation(cfg, *traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    small, large = results[12], results[100_000]
    assert max(sum(e.payload["winners"].values()) for e in small.events
               if e.kind == "auction_resolved") <= 12
    assert float_bits(large.aggregate_row()) == float_bits(
        small.aggregate_row())
    assert float_bits(large.per_user_rows()) == float_bits(
        small.per_user_rows())
    assert float_bits([e.as_row() for e in large.events]) == float_bits(
        [e.as_row() for e in small.events])


def test_determinism():
    cfg, gen = two_user_scenario(0.3, modified=False, video_length_s=100.0)
    cap, enc = gen(3)
    one = run_simulation(cfg, cap, enc)
    two = run_simulation(cfg, cap, enc)
    assert one.events == two.events
    assert one.social_welfare == two.social_welfare
    assert one.aggregate_row() == two.aggregate_row()


def test_accounting_identities():
    cfg, gen = two_user_scenario(0.3, modified=False, video_length_s=100.0)
    cfg = SimConfig(**{**cfg.__dict__, "overhead_energy_per_auction": 0.1})
    cap, enc = gen(5)
    result = run_simulation(cfg, cap, enc)
    made = sum(u.payments_made for u in result.per_user.values())
    received = sum(u.payments_received for u in result.per_user.values())
    assert made == pytest.approx(received)
    expected = sum(u.utility - u.cost - u.overhead_energy
                   for u in result.per_user.values())
    assert result.social_welfare == pytest.approx(expected)
    total_overhead = sum(u.overhead_energy for u in result.per_user.values())
    assert total_overhead == pytest.approx(result.auction_count * 0.1)
    for u in result.per_user.values():
        assert u.welfare == pytest.approx(
            u.utility - u.cost - u.overhead_energy
            + u.payments_received - u.payments_made)


def test_encounter_trace_limits_bidders():
    users = (standard_profile("A", cost_per_mbit=0.25),
             standard_profile("B", cost_per_mbit=0.25))
    cfg = SimConfig(users=users, mechanism="momd", video_length_s=50.0)
    cap = CapacityTrace({"A": ((0.0, 5.0),), "B": ((0.0, 5.0),)})
    enc = EncounterTrace({("A", "B"): ()}, default_connected=False)
    result = run_simulation(cfg, cap, enc)
    # disconnected users only ever download for themselves
    for e in result.events:
        if e.kind == "segment_downloaded":
            assert e.payload["downloader"] == e.payload["receiver"]


def test_encounter_pair_outside_the_config_raises():
    cfg = SimConfig(users=(make_profile("A"), make_profile("B")))
    cap = CapacityTrace({"A": ((0.0, 5.0),), "B": ((0.0, 5.0),)})
    enc = EncounterTrace({("A", "b"): ((0.0, 0),)})
    with pytest.raises(TraceParseError, match=r"\('A', 'b'\)"):
        run_simulation(cfg, cap, enc)


def test_stall_and_recovery_events():
    # good start, then the link collapses mid-stream: the buffer must empty
    user = make_profile("A", link_cost_per_s=0.0)
    cfg = SimConfig(users=(user,), mechanism="noncooperative",
                    video_length_s=100.0)
    trace = CapacityTrace({"A": ((0.0, 8.0), (15.0, 0.1))})
    result = run_simulation(cfg, trace)
    kinds = [e.kind for e in result.events]
    assert "playback_stall_start" in kinds
    assert "playback_stall_end" in kinds
    a = result.per_user["A"]
    assert a.rebuffer_s > 0.0
    assert a.rebuffer_ratio == pytest.approx(a.rebuffer_s / 100.0)


def test_buffer_emptied_at_the_advance_starts_no_stall():
    """A buffer that runs dry exactly at the instant a user is advanced to
    has played on without a gap: no stall starts, and a segment delivered
    then ends none."""
    cfg = SimConfig(users=(make_profile("A"),), mechanism="noncooperative",
                    video_length_s=100.0)
    sim = _Simulation(cfg, CapacityTrace({"A": ((0.0, 1.0),)}),
                      EncounterTrace())
    u = sim.users["A"]
    u.received.append((0, 1.3))
    u.buffer_s, u.next_seq, u.pending = 10.0, 2, 1
    sim._advance("A", 10.0)
    assert (u.buffer_s, u.played_s, u.stalling) == (0.0, 10.0, False)
    sim._deliver(10.0, "A", 1.3, 1, "A")
    assert [e.kind for e in sim.events] == ["segment_delivered"]


def test_two_user_unmodified_degrades_user_a():
    cfg, gen = two_user_scenario(0.3, modified=False)
    cap, enc = gen(1)
    result = run_simulation(cfg, cap, enc)
    assert result.per_user["A"].degradation_volume_mbps > 0.0


def test_two_user_modified_protects_user_a():
    cfg, gen = two_user_scenario(0.3, modified=True)
    cap, enc = gen(1)
    result = run_simulation(cfg, cap, enc)
    a = result.per_user["A"]
    assert a.rebuffer_s == 0.0
    assert a.degradation_volume_mbps == 0.0


@pytest.mark.parametrize("mechanism,K", [("momd", 1), ("momd", 4),
                                         ("somd", 1), ("noncooperative", 1)])
def test_heterogeneous_scenario_is_the_three_user_config(mechanism, K):
    """The scenario behind criteria 6 and 7 is configs/three_user.yaml,
    and its traces are the ones `cmstream compare` draws from that file."""
    cfg, spec = load_config(Path(__file__).resolve().parent.parent
                            / "configs" / "three_user.yaml")
    got, gen = heterogeneous_scenario(mechanism, K, 0.2)
    assert got == replace(cfg, mechanism=mechanism, K=K,
                          overhead_energy_per_auction=0.2)
    for seed in (0, 1, 7, 2024):
        capacity, encounters = gen(seed)
        want = generate_synthetic_traces(spec.stats, spec.horizon_s,
                                         spec.step_s, seed)
        assert float_bits(capacity.breakpoints) == float_bits(
            want.breakpoints)
        assert encounters == EncounterTrace()


def test_comparison_common_random_numbers():
    cfg, gen = two_user_scenario(0.3, modified=False, video_length_s=100.0)
    table = run_comparison([("one", cfg), ("two", cfg)], gen, replications=3)
    one, two = table.rows
    for col in table.columns:
        if col == "cell":
            continue
        assert one[col] == two[col]


def test_comparison_rejects_repeated_cell():
    cfg, _ = two_user_scenario(0.3, modified=False, video_length_s=100.0)

    def gen(seed):
        raise AssertionError("a simulation ran")

    with pytest.raises(ValueError, match="'one' is repeated"):
        run_comparison([("one", cfg), ("two", cfg), ("one", cfg)], gen,
                       replications=1)


@pytest.mark.parametrize("replications", [0, -1])
def test_comparison_rejects_no_replication(replications):
    cfg, _ = two_user_scenario(0.3, modified=False, video_length_s=100.0)

    def gen(seed):
        raise AssertionError("a simulation ran")

    with pytest.raises(ValueError, match="replications must be >= 1"):
        run_comparison([("one", cfg)], gen, replications=replications)


def test_buffer_never_exceeds_cap():
    cfg, gen = two_user_scenario(0.3, modified=False, video_length_s=100.0)
    cap, enc = gen(2)
    result = run_simulation(cfg, cap, enc)
    # replay deliveries independently and track each buffer
    beta = cfg.users[0].ladder.segment_length_s
    max_buf = cfg.users[0].ladder.max_buffer_s
    track = {u.user_id: {"buffer": 0.0, "last": 0.0, "started": False,
                         "played": 0.0, "stall": 0.0, "stalling": False}
             for u in cfg.users}
    for e in result.events:
        if e.kind != "segment_delivered":
            continue
        s = track[e.payload["user"]]
        if s["started"]:
            elapsed = e.time_s - s["last"]
            if s["stalling"]:
                s["stall"] += elapsed
            else:
                drain = min(elapsed, s["buffer"],
                            cfg.video_length_s - s["played"])
                s["played"] += drain
                s["buffer"] -= drain
                if (s["buffer"] <= 1e-12 and elapsed - drain > 1e-12
                        and s["played"] < cfg.video_length_s):
                    s["stall"] += elapsed - drain
                    s["buffer"] = 0.0
        s["buffer"] += beta
        s["last"] = e.time_s
        s["started"] = True
        s["stalling"] = False
        assert -1e-9 <= s["buffer"] <= max_buf + 1e-9


def test_horizon_guard_raises_typed_error():
    # the first segment needs 4000 s, past the 2000-s horizon guard
    cfg = SimConfig(users=(standard_profile("A"),), video_length_s=10.0)
    trace = CapacityTrace({"A": ((0.0, 0.0005),)})
    with pytest.raises(SimulationHorizonError, match="horizon exceeded"):
        run_simulation(cfg, trace)
    assert issubclass(SimulationHorizonError, TraceUnderrunError)
    assert cmstream.SimulationHorizonError is SimulationHorizonError


@pytest.mark.parametrize("filtering", [False, True])
@pytest.mark.parametrize("mechanism", ["somd", "momd", "vickrey_1d",
                                       "noncooperative"])
def test_zero_length_video_runs_no_auction(monkeypatch, mechanism,
                                           filtering):
    """A 0-s video has no segment to assign: the run logs no event, holds
    no auction and leaves every per-user figure at 0. A wrapped _ready
    fails the test after 100 polls instead of letting a regression spin at
    t = 0 until the horizon guard."""
    cfg, gen = heterogeneous_scenario(mechanism)
    cfg = replace(cfg, video_length_s=0.0, participation_enabled=filtering)
    ready, polls = _Simulation._ready, []

    def guarded(self, t, auctioneer):
        polls.append(t)
        assert len(polls) <= 100, f"still polling at t={t}"
        ready(self, t, auctioneer)

    monkeypatch.setattr(_Simulation, "_ready", guarded)
    result = run_simulation(cfg, *gen(0))
    assert result.events == ()
    assert result.auction_count == 0
    assert polls == [0.0] * 3
    for row in result.per_user_rows():
        assert row.pop("user_id") in "ABC"
        assert all(type(v) is float and v == 0.0 for v in row.values()), row


def parent_resolve(self, t, auctioneer, bidders, sf, h_est):
    """_Simulation._resolve as it was when it booked every winner's utility
    as utility_total of its rates, not from its bid; frozen here, with
    every mechanism on the momd path."""
    cfg = self.cfg
    auc = self.users[auctioneer]
    cooperative = self._cooperative
    if cooperative:
        auc.auctions_initiated += 1
    self._log(t, "auction_start", auctioneer=auctioneer,
              mechanism=cfg.mechanism,
              **({"bidders": sorted(bidders)} if cooperative else {}))
    bids = [self._bid(self.users[uid], cap, sf, h_est)
            for uid, cap in bidders.items()]

    K = cfg.K if cfg.mechanism == "momd" else 1
    k_eff = min(K, sum(b.max_segments for b in bids))
    if cfg.mechanism == "vickrey_1d":
        sf = ScoreFunction.zero()
    outcome = resolve_vickrey_score(bids, sf, k_eff)
    if cfg.mechanism == "momd":
        self.assumption1_violations += len(outcome.assumption_violations)
    rates_iter = {uid: iter(rates)
                  for uid, rates in outcome.winning_bitrates.items()}
    order = [(uid, next(rates_iter[uid]))
             for uid in outcome.per_segment_winners]
    free = cfg.mechanism != "momd" and list(bidders) == [auctioneer]
    won = {uid: (outcome.winning_bitrates[uid],
                 0.0 if free else outcome.payments[uid])
           for uid, kappa in outcome.revised_allocation.items()
           if kappa}

    for uid, (rates, payment) in won.items():
        u = self.users[uid]
        u.utility += utility_total(u.profile, u.state(), rates)
        u.payments_made += payment
        auc.payments_received += payment
    resolved = {"winners": {uid: len(rates)
                            for uid, (rates, _) in won.items()}}
    if cooperative:
        resolved["payments"] = {uid: p for uid, (_, p) in won.items()}
    self._log(t, "auction_resolved", auctioneer=auctioneer, **resolved)
    return order


def _no_gain_user(uid):
    """A user whose every row is worth at most 0: no quality or buffer
    gain, and a steep loss on each bitrate drop."""
    return standard_profile(uid, theta=0.0, buffer_gain_scale=0.0,
                            degradation_slope=5.0)


BOOKING_CASES = [
    (mechanism, K, policy)
    for mechanism, ks in (("momd", (1, 4)), ("somd", (1,)),
                          ("vickrey_1d", (1,)), ("noncooperative", (1, 4)))
    for K in ks
    for policy in ("optimal", "buffer_based", "bandwidth_based", "hybrid")]


@pytest.mark.parametrize("mechanism, K, policy", BOOKING_CASES)
def test_booking_from_bids_matches_frozen_utility_total(monkeypatch,
                                                        mechanism, K, policy):
    """Booking a winner's utility from its bid leaves every per-user
    figure and the event log as the frozen utility_total booking had them,
    bit for bit. Users A and C gain nothing from a segment, so their rows
    price at 0 (floored, under a baseline policy, from a negative utility)
    and take the utility_total branch."""
    _, gen = heterogeneous_scenario("momd")
    capacity, encounters = gen(0)
    cfg = SimConfig(users=(_no_gain_user("A"), standard_profile("B"),
                           _no_gain_user("C")),
                    K=K, mechanism=mechanism,
                    adaptation=AdaptationPolicy(policy), video_length_s=100.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return utility_total(*args)

    monkeypatch.setattr(cmstream.engine, "utility_total", counted)
    got = run_simulation(cfg, capacity, encounters)
    monkeypatch.undo()
    monkeypatch.setattr(_Simulation, "_resolve", parent_resolve)
    want = run_simulation(cfg, capacity, encounters)
    assert float_bits(got.per_user_rows()) == float_bits(want.per_user_rows())
    assert float_bits(got.aggregate_row()) == float_bits(want.aggregate_row())
    assert got.events == want.events
    # every mechanism bids momd rows: the floored rows of A and C take the
    # utility_total branch, and no row of B does
    assert calls, "no floored row won"
    assert all(p.user_id in "AC" for p, _, _ in calls)
    if policy != "optimal" and mechanism != "noncooperative" and K == 1:
        # a floored price stood for a negative utility
        assert min(r.utility for r in got.per_user.values()) < 0


@pytest.mark.parametrize("policy", AdaptationPolicy.KINDS)
def test_somd_is_momd_at_k1_in_the_engine(policy):
    """At K = 1 somd is the one-segment case of momd: on the same traces
    both download the same segments, and each user's utility, cost,
    average bitrate and rebuffer time are the same bit for bit. Users A
    and C gain nothing from a segment, so under a baseline policy their
    truthful utility is negative and their momd price floored at 0."""
    _, gen = heterogeneous_scenario("momd")
    users = (_no_gain_user("A"), standard_profile("B"), _no_gain_user("C"))
    for seed in range(10):
        capacity, encounters = gen(seed)
        runs = [run_simulation(
            SimConfig(users=users, K=1, mechanism=mechanism,
                      adaptation=AdaptationPolicy(policy),
                      video_length_s=100.0), capacity, encounters)
            for mechanism in ("somd", "momd")]
        somd, momd = ([(e.time_s, e.payload) for e in r.events
                       if e.kind == "segment_downloaded"] for r in runs)
        assert somd == momd
        for uid in "ABC":
            one, other = ([getattr(r.per_user[uid], name) for name in
                           ("utility", "cost", "average_bitrate_mbps",
                            "rebuffer_s")] for r in runs)
            assert float_bits(one) == float_bits(other)


def parent_candidate_bidders(self, auctioneer, t):
    """_Simulation._candidate_bidders as it was when it advanced every
    nearby candidate with segments to assign to t before reading its
    headroom; frozen here as the reference for the scan that skips the
    advances that can change nothing."""
    held = self._held
    held.seek(t)
    nearby = compress(self._members, map(
        operator.and_, held.nbrs[auctioneer], self._open))
    if self._filtering:
        h_n = held.caps[auctioneer]
    out = {}
    for uid, u in nearby:
        self._advance(uid, t)
        room = u.headroom_segments()
        if room <= 0:
            continue
        if self._filtering and not participates(
                u.profile.ladder.segment_length_s, u.buffer_s,
                u.prev_bitrate, h_n, held.share_sum(uid),
                self.cfg.participation):
            continue
        out[uid] = min(u.total_segments - u.next_seq, room)
    return out


# (mechanism, K): any mechanism, at the K each allows
ANY_MECHANISM = st.one_of(
    st.tuples(st.sampled_from(["somd", "vickrey_1d"]), st.just(1)),
    st.tuples(st.sampled_from(["momd", "noncooperative"]), st.integers(1, 4)))


@st.composite
def scan_groups(draw, max_users=6, mechanisms=ANY_MECHANISM):
    """A group of 2 to max_users users on a 0-60-s video: segment lengths
    of 0.5-10 s (each user's a multiple of a base, the video a multiple of
    every one), stepped capacities from weak to strong, a full mesh or
    toggling encounters, and a (mechanism, K) drawn from mechanisms."""
    n = draw(st.integers(2, max_users))
    ids = [f"u{i}" for i in range(n)]
    base = draw(st.floats(0.5, 5.0))
    video_s = 2 * base * draw(st.integers(0, int(30 // base)))
    users = []
    for uid in ids:
        beta = base * draw(st.sampled_from([1, 2]))
        ladder = BitrateLadder(segment_length_s=beta, max_buffer_s=beta
                               * draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])))
        users.append(make_profile(
            uid, ladder=ladder, theta=draw(st.floats(0.0, 2.0)),
            cost_per_mbit=draw(st.floats(0.0, 0.4)),
            link_cost_per_s=draw(st.sampled_from([0.0, 0.45]))))
    steps = st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4)
    capacity = CapacityTrace({
        uid: tuple((7.0 * k, c) for k, c in enumerate(draw(steps)))
        for uid in ids})
    encounters = EncounterTrace()
    if draw(st.booleans()):
        toggles = {}
        for k, a in enumerate(ids):
            for b in ids[k + 1:]:
                gaps = draw(st.lists(st.floats(0.5, 30.0), max_size=4))
                t, state = 0.0, draw(st.integers(0, 1))
                events = [(t, state)]
                for gap in gaps:
                    t, state = t + gap, 1 - state
                    events.append((t, state))
                toggles[(a, b)] = tuple(events)
        encounters = EncounterTrace(toggles)
    mechanism, K = draw(mechanisms)
    cfg = SimConfig(users=tuple(users), K=K, mechanism=mechanism,
                    adaptation=AdaptationPolicy(
                        draw(st.sampled_from(AdaptationPolicy.KINDS))),
                    participation_enabled=draw(st.booleans()),
                    video_length_s=video_s)
    return cfg, capacity, encounters


def _counted_run(cfg, capacity, encounters):
    """The run's rows, floats as bits, and the number of ready events it
    handled."""
    polls = []
    ready = _Simulation._ready

    def counted(self, t, auctioneer):
        polls.append(t)
        ready(self, t, auctioneer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Simulation, "_ready", counted)
        result = run_simulation(cfg, capacity, encounters)
    return (float_bits(result.aggregate_row()),
            float_bits(result.per_user_rows()),
            [float_bits(e.as_row()) for e in result.events]), len(polls)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan_groups())
def test_candidate_scan_equals_the_advance_every_candidate_scan(group):
    """Skipping the candidate advances that can change nothing leaves the
    aggregate row, every per-user row and every event row as the scan
    that advanced each candidate had them, bit for bit, and handles as
    many ready events."""
    got = _counted_run(*group)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Simulation, "_candidate_bidders",
                   parent_candidate_bidders)
        want = _counted_run(*group)
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scan_groups(max_users=4, mechanisms=st.sampled_from(
    ["momd", "somd", "noncooperative"]).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(1, 4 if m == "momd" else 1)))))
def test_engine_auctions_meet_the_paper_claims(group):
    """Every auction a run resolves whose marginal scores meet Assumption 1
    allocates min(K, the bidders' caps) segments in the best split of the
    submitted rows under its score function, and charges each winner at
    least 0 and its won rates' score penalty, and at most its row's price.
    vickrey_1d is left out: its zero score function is not welfare."""
    cfg, capacity, encounters = group
    auctions = []

    def recording_resolve(bids, sf, K):
        outcome = resolve_vickrey_score(bids, sf, K)
        auctions.append((bids, sf, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmstream.engine, "resolve_vickrey_score",
                   recording_resolve)
        run_simulation(cfg, capacity, encounters)
    bid_k = cfg.K if cfg.mechanism == "momd" else 1
    for bids, sf, outcome in auctions:
        if outcome.assumption_violations:
            continue
        won = outcome.revised_allocation
        K = min(bid_k, sum(b.max_segments for b in bids))
        assert sum(won.values()) == len(outcome.per_segment_winners) == K
        rows = [[0.0] + [momd_score(b.row(k), b.price_vector[k - 1], sf)
                         if k <= b.max_segments else None
                         for k in range(1, K + 1)] for b in bids]
        total = 0.0
        for b in bids:
            kappa = won[b.bidder_id]
            if not kappa:
                continue
            rates = outcome.winning_bitrates[b.bidder_id]
            price = b.price_vector[kappa - 1]
            pay = outcome.payments[b.bidder_id]
            total += momd_score(rates, price, sf)
            assert pay >= 0.0
            assert pay >= sf.of_vector(rates) - 1e-9
            assert pay <= price + 1e-9
        assert abs(total - _best_split(rows, K)[1]) <= 1e-9
