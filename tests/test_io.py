"""Unit tests for trace parsing/emission, synthetic traces, metrics, and
results emission."""

import csv
import json

import pytest

from cmstream.config import (
    ConfigError,
    sim_config_from_dict,
    sim_config_to_dict,
    trace_stats_from_dict,
    user_from_dict,
)
from cmstream.traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    degradation_ratio,
    emit_capacity_trace,
    emit_encounter_trace,
    emit_results,
    generate_synthetic_traces,
    parse_capacity_trace,
    parse_encounter_trace,
)


def test_parse_capacity_single_row():
    trace = parse_capacity_trace("time_s,user_id,capacity_mbps\n0,A,3.0\n")
    assert trace.capacity_at("A", 0.0) == 3.0
    assert trace.capacity_at("A", 500.0) == 3.0


def test_parse_capacity_two_phase():
    trace = parse_capacity_trace(
        "time_s,user_id,capacity_mbps\n0,B,0.3\n100,B,3.0\n")
    assert trace.capacity_at("B", 50.0) == 0.3
    assert trace.capacity_at("B", 100.0) == 3.0
    assert trace.capacity_at("B", 400.0) == 3.0


def test_parse_capacity_errors():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_capacity_trace("not,a,header\n0,A,3.0\n")
    with pytest.raises(TraceParseError, match="time 0"):
        parse_capacity_trace("time_s,user_id,capacity_mbps\n5,A,2.0\n")
    with pytest.raises(TraceParseError, match="negative"):
        parse_capacity_trace("time_s,user_id,capacity_mbps\n0,A,-1\n")
    with pytest.raises(TraceParseError, match="non-monotone"):
        parse_capacity_trace(
            "time_s,user_id,capacity_mbps\n0,A,1\n10,A,2\n10,A,3\n")
    with pytest.raises(TraceParseError, match="malformed"):
        parse_capacity_trace("time_s,user_id,capacity_mbps\n0,A,fast\n")


@pytest.mark.parametrize("point", [(float("nan"), 1.0), (float("inf"), 1.0),
                                   (float("-inf"), 1.0),
                                   (5.0, float("nan")), (5.0, float("inf"))])
def test_capacity_trace_rejects_non_finite(point):
    with pytest.raises(TraceParseError, match="finite"):
        CapacityTrace({"A": ((0.0, 1.0), point)})
    t, h = point
    with pytest.raises(TraceParseError, match="line 3: non-finite"):
        parse_capacity_trace(
            f"time_s,user_id,capacity_mbps\n0,A,1\n{t},A,{h}\n")


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_encounter_trace_rejects_non_finite(t):
    with pytest.raises(TraceParseError, match="finite"):
        EncounterTrace({("A", "B"): ((0.0, 1), (t, 0))})
    with pytest.raises(TraceParseError, match="finite"):
        EncounterTrace({("A", "B"): ((t, 1),)})
    with pytest.raises(TraceParseError, match="line 3: non-finite"):
        parse_encounter_trace(
            f"time_s,user_a,user_b,connected\n0,A,B,1\n{t},A,B,0\n")


def test_capacity_roundtrip():
    trace = CapacityTrace({"A": ((0.0, 3.0), (100.0, 1.5)),
                           "B": ((0.0, 0.25),)})
    again = parse_capacity_trace(emit_capacity_trace(trace))
    assert again.breakpoints == trace.breakpoints


def test_finish_time_constant():
    trace = CapacityTrace({"A": ((0.0, 4.6),)})
    assert trace.finish_time("A", 0.0, 23.0) == pytest.approx(5.0)
    assert trace.finish_time("A", 3.0, 0.0) == 3.0


def test_finish_time_piecewise():
    trace = CapacityTrace({"A": ((0.0, 2.0), (5.0, 4.0))})
    assert trace.finish_time("A", 0.0, 23.0) == pytest.approx(8.25)


def test_finish_time_underrun():
    trace = CapacityTrace({"A": ((0.0, 1.0), (5.0, 0.0))})
    with pytest.raises(TraceUnderrunError, match="unreachable completion"):
        trace.finish_time("A", 0.0, 100.0)
    with pytest.raises(TraceUnderrunError):
        trace.finish_time("B", 0.0, 1.0)


def test_encounter_defaults_and_toggles():
    trace = EncounterTrace()
    assert trace.connected("A", "B", 12.0)
    assert trace.connected("A", "A", 0.0)

    trace = EncounterTrace({("A", "B"): ((5.0, 1), (9.0, 0))},
                           default_connected=False)
    assert not trace.connected("A", "B", 0.0)
    assert trace.connected("B", "A", 6.0)
    assert not trace.connected("A", "B", 9.0)
    assert trace.connected("A", "A", 0.0)


def test_encounter_validation():
    with pytest.raises(TraceParseError, match="alternate"):
        EncounterTrace({("A", "B"): ((1.0, 1), (2.0, 1))})
    with pytest.raises(TraceParseError, match="increase"):
        EncounterTrace({("A", "B"): ((2.0, 1), (2.0, 0))})


def test_encounter_rejects_a_user_with_itself():
    with pytest.raises(TraceParseError, match=r"\('A', 'A'\): a user with"):
        EncounterTrace({("A", "A"): ((0.0, 0),)})
    with pytest.raises(TraceParseError, match="a user with itself"):
        parse_encounter_trace("time_s,user_a,user_b,connected\n0,A,A,0\n")


def test_encounter_rejects_a_pair_given_twice():
    with pytest.raises(TraceParseError, match=r"\('A', 'B'\): given twice"):
        EncounterTrace({("A", "B"): ((0.0, 1),), ("B", "A"): ((5.0, 0),)})


def test_encounter_roundtrip():
    trace = EncounterTrace({("A", "B"): ((5.0, 1), (9.0, 0))})
    again = parse_encounter_trace(emit_encounter_trace(trace))
    assert again.toggles == trace.toggles


def test_synthetic_traces_deterministic():
    stats = {"A": (3.0, 0.5), "B": (0.3, 0.1)}
    one = generate_synthetic_traces(stats, 100.0, 5.0, seed=42)
    two = generate_synthetic_traces(stats, 100.0, 5.0, seed=42)
    assert one.breakpoints == two.breakpoints
    other = generate_synthetic_traces(stats, 100.0, 5.0, seed=43)
    assert one.breakpoints != other.breakpoints


def test_synthetic_traces_zero_std():
    trace = generate_synthetic_traces({"A": (2.0, 0.0)}, 50.0, 10.0, seed=1)
    assert all(h == 2.0 for _, h in trace.breakpoints["A"])
    with pytest.raises(ValueError):
        generate_synthetic_traces({"A": (0.0, 1.0)}, 50.0, 10.0, seed=1)


@pytest.mark.parametrize("mean,std", [
    (float("nan"), 0.1), (float("inf"), 0.1),
    (1.0, float("nan")), (1.0, float("inf")),
])
def test_synthetic_traces_reject_non_finite(mean, std):
    with pytest.raises(ValueError, match="user A: need finite mean"):
        generate_synthetic_traces({"A": (mean, std)}, 50.0, 10.0, seed=1)


def test_degradation_ratio_values():
    assert degradation_ratio(()) == 0.0
    assert degradation_ratio((1.3, 1.3)) == 0.0
    got = degradation_ratio((1.3, 0.7, 1.3))
    assert got == pytest.approx(0.6 / 3.3)
    assert round(100 * got, 1) == 18.2


def test_user_config_roundtrip():
    data = {"user_id": "A", "theta": 1.5, "cost_per_mbit": 0.2,
            "ladder": {"rates": [0.5, 1.0], "segment_length_s": 5.0,
                       "max_buffer_s": 20.0}}
    profile = user_from_dict(data)
    assert profile.user_id == "A"
    assert profile.theta == 1.5
    assert profile.ladder.rates == (0.5, 1.0)
    with pytest.raises(ConfigError, match="unknown keys"):
        user_from_dict({"user_id": "A", "greed": 2})
    with pytest.raises(ConfigError, match="user_id"):
        user_from_dict({"theta": 1.0})
    # scalars are coerced to the field types
    assert user_from_dict({"user_id": 7}).user_id == "7"
    with pytest.raises(ConfigError, match="theta"):
        user_from_dict({"user_id": "A", "theta": [1.0]})


def test_sim_config_roundtrip():
    cfg = sim_config_from_dict({
        "users": [{"user_id": "A"}, {"user_id": "B"}],
        "K": 2,
        "mechanism": "momd",
        "participation": {"enabled": True, "alpha_link": 0.4},
        "video_length_s": 50.0,
        "seed": 7,
    })
    assert cfg.K == 2
    assert cfg.participation_enabled
    assert cfg.participation.alpha_link == 0.4
    again = sim_config_from_dict(sim_config_to_dict(cfg))
    assert again == cfg
    k = sim_config_from_dict({"users": [{"user_id": "A"}], "K": 1.0}).K
    assert k == 1 and type(k) is int
    # PyYAML reads 1e-3 (no dot) as a string; float fields still take it
    theta = user_from_dict({"user_id": "A", "theta": "1e-3"}).theta
    assert theta == 0.001


@pytest.mark.parametrize("data, where", [
    ({"K": 2.5}, "config.K"),
    ({"seed": 3.7}, "config.seed"),
    ({"K": True}, "config.K"),
    ({"participation": {"enabled": "false"}}, "participation.enabled"),
    ({"users": [{"user_id": "A", "theta": True}]}, "user.theta"),
    ({"users": [{"user_id": "A", "cost_per_mbit": True}]},
     "user.cost_per_mbit"),
    ({"overhead_energy_per_auction": True},
     "config.overhead_energy_per_auction"),
    ({"users": [{"user_id": "A", "ladder": {"rates": [True, 2]}}]},
     "ladder.rates"),
], ids=["K=2.5", "seed=3.7", "K=true", "enabled=str", "theta=yes",
        "cost_per_mbit=true", "overhead=on", "rates=[true, 2]"])
def test_sim_config_scalars_are_lossless(data, where):
    with pytest.raises(ConfigError, match=where):
        sim_config_from_dict({"users": [{"user_id": "A"}], **data})


def test_sim_config_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown keys"):
        sim_config_from_dict({"users": [{"user_id": "A"}], "speed": 11})
    with pytest.raises(ConfigError):
        sim_config_from_dict({"users": [{"user_id": "A"}],
                              "mechanism": "somd", "K": 3})
    # the field is spelt participation.enabled in YAML
    with pytest.raises(ConfigError, match="participation_enabled"):
        sim_config_from_dict({"users": [{"user_id": "A"}],
                              "participation_enabled": True})


def test_trace_stats_parsing():
    stats = trace_stats_from_dict({"A": {"mean": 3.0, "std": 0.5},
                                   "B": {"mean": 0.3}})
    assert stats == {"A": (3.0, 0.5), "B": (0.3, 0.0)}
    with pytest.raises(ConfigError, match="unknown keys"):
        trace_stats_from_dict({"A": {"mean": 1.0, "median": 2.0}})
    with pytest.raises(ConfigError, match="trace_stats.A.mean"):
        trace_stats_from_dict({"A": {"std": 2.0}})


def test_emit_results_csv_and_jsonl(tmp_path):
    from cmstream.engine import SimConfig, run_simulation
    from cmstream.model import BitrateLadder, UserProfile

    ladder = BitrateLadder(rates=(0.5, 1.0), segment_length_s=10.0,
                           max_buffer_s=40.0)
    user = UserProfile(user_id="A", ladder=ladder, theta=1.0,
                       cost_per_mbit=0.05, buffer_gain_scale=2.0,
                       buffer_gain_decay=0.5, degradation_slope=1.0)
    cfg = SimConfig(users=(user,), mechanism="noncooperative",
                    video_length_s=30.0)
    trace = CapacityTrace({"A": ((0.0, 5.0),)})
    result = run_simulation(cfg, trace)

    paths = emit_results(result, "csv", tmp_path / "csv", include_events=True)
    names = {p.name for p in paths}
    assert names == {"metrics.csv", "summary.csv", "events.csv"}
    with open(tmp_path / "csv" / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["user_id"] == "A"
    assert float(rows[0]["rebuffer_s"]) == 0.0

    paths = emit_results(result, "json-lines", tmp_path / "jsonl")
    names = {p.name for p in paths}
    assert names == {"metrics.jsonl", "summary.jsonl"}
    line = (tmp_path / "jsonl" / "summary.jsonl").read_text().splitlines()[0]
    summary = json.loads(line)
    assert summary["auction_count"] == 0
