"""Unit tests for the trace-driven simulation engine."""

import math

import pytest

import cmstream
from cmstream.engine import (
    SimConfig,
    SimulationHorizonError,
    run_comparison,
    run_simulation,
)
from cmstream.experiments import standard_profile, two_user_scenario
from cmstream.traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
)

from conftest import make_profile


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
