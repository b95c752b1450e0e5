"""Unit tests for trace parsing/emission, synthetic traces, metrics, and
results emission."""

import csv
import dataclasses
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmstream import traceio
from cmstream.cli import main
from cmstream.config import (
    ConfigError,
    sim_config_from_dict,
    sim_config_to_dict,
    trace_stats_from_dict,
    user_from_dict,
)
from cmstream.engine import SimEvent, SimResult, UserResult
from cmstream.traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    degradation_volume,
    emit_capacity_trace,
    emit_encounter_trace,
    emit_results,
    generate_synthetic_traces,
    parse_capacity_trace,
    parse_encounter_trace,
)

from conftest import degradation_ratio


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


@pytest.mark.parametrize("parse, header", [
    (parse_capacity_trace, "time_s,user_id,capacity_mbps"),
    (parse_encounter_trace, "time_s,user_a,user_b,connected"),
], ids=["capacity", "encounter"])
@pytest.mark.parametrize("row, message", [
    ("0,A," + "1" * 200_000, "line 2: field larger than field limit"),
    ("0,A\r,1", "line 2: new-line character seen in unquoted field"),
], ids=["over-long cell", "bare CR"])
def test_csv_module_refusal_is_a_parse_error(parse, header, row, message):
    """Text the csv module refuses is a TraceParseError on its line, not a
    raw csv.Error."""
    with pytest.raises(TraceParseError, match=message):
        parse(f"{header}\n{row}\n")


# ids as a config may give them, CR aside (reading a file translates it);
# times and capacities that read back exactly from 6 significant digits
ids = st.text(alphabet='A1 ,"\n', max_size=4)
six_digits = st.integers(0, 999_999).map(lambda n: n / 1000)


@st.composite
def capacity_traces(draw):
    breakpoints = {}
    for user in draw(st.lists(ids, min_size=1, max_size=3, unique=True)):
        times = sorted(draw(st.lists(six_digits.filter(bool), max_size=3,
                                     unique=True)))
        breakpoints[user] = tuple((t, draw(six_digits))
                                  for t in [0.0] + times)
    return CapacityTrace(breakpoints)


@st.composite
def encounter_traces(draw):
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1]).map(
        lambda p: tuple(sorted(p)))
    toggles = {}
    for pair in draw(st.lists(pairs, max_size=3, unique=True)):
        first = draw(st.integers(0, 1))
        times = sorted(draw(st.lists(six_digits, min_size=1, max_size=4,
                                     unique=True)))
        toggles[pair] = tuple((t, (first + k) % 2)
                              for k, t in enumerate(times))
    return EncounterTrace(toggles)


@settings(max_examples=200, deadline=None)
@given(capacity_traces())
@example(CapacityTrace({"A,1": ((0.0, 3.0),), "B": ((0.0, 0.3),)}))
def test_capacity_trace_round_trips(trace):
    assert parse_capacity_trace(emit_capacity_trace(trace)) == trace


@settings(max_examples=200, deadline=None)
@given(encounter_traces())
@example(EncounterTrace({("A,1", 'B"'): ((0.0, 1), (5.0, 0))}))
def test_encounter_trace_round_trips(trace):
    assert parse_encounter_trace(emit_encounter_trace(trace)) == trace


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e9, exclude_min=True), max_size=6,
                unique=True).map(sorted))
@example([1234.567, 1234.568])
@example([1234.5671])
@example([100000.0, 100000.5])
def test_trace_times_read_back_exactly(times):
    """A time that 6 significant digits would change is written in full,
    so every emitted time reads back as itself."""
    times = [0.0, *times]
    capacity = CapacityTrace({"A": tuple((t, 1.0) for t in times)})
    encounters = EncounterTrace(
        {("A", "B"): tuple((t, k % 2) for k, t in enumerate(times))})
    assert parse_capacity_trace(emit_capacity_trace(capacity)) == capacity
    assert parse_encounter_trace(emit_encounter_trace(encounters)) \
        == encounters


def test_trace_times_keep_six_digits_where_exact():
    trace = CapacityTrace({"A": ((0.0, 1.0), (100000.0, 2.5),
                                 (100000.5, 1.0))})
    assert emit_capacity_trace(trace) == ("time_s,user_id,capacity_mbps\n"
                                         "0,A,1\n100000,A,2.5\n"
                                         "100000.5,A,1\n")


def test_a_plain_file_never_goes_row_by_row(monkeypatch, tmp_path):
    """Valid plain files are read in bulk alone: the capacity traces that
    gen-traces writes for the shipped configs, a 24-user group with
    toggles, and pairs written B,A. (A header-only file is not plain.)"""
    configs = Path(__file__).resolve().parent.parent / "configs"
    written = []
    for name in ("two_user", "three_user"):
        out = tmp_path / name
        assert main(["gen-traces", "--config", str(configs / f"{name}.yaml"),
                     "--out", str(out)]) == 0
        written.append((out / "capacity.csv").read_text())
    rng = random.Random(7)
    users = [f"u{i:02d}" for i in range(24)]
    capacity = generate_synthetic_traces(
        {u: (3.0, 1.0) for u in users}, 1000.0, 5.0, seed=7)
    toggles = {}
    for pair in itertools.combinations(users, 2):
        gaps_ms = [rng.randint(1, 60_000) for _ in range(rng.randint(0, 8))]
        first = rng.randint(0, 1)
        toggles[pair] = tuple(
            (t_ms / 1000, (first + k) % 2)
            for k, t_ms in enumerate(itertools.accumulate([0, *gaps_ms])))
    encounters = EncounterTrace(toggles)

    def row_scan(text):
        raise AssertionError("a plain file went row by row")

    monkeypatch.setattr(traceio, "_scan_capacity_trace", row_scan)
    monkeypatch.setattr(traceio, "_scan_encounter_trace", row_scan)
    for text in [*written, emit_capacity_trace(capacity)]:
        assert emit_capacity_trace(parse_capacity_trace(text)) == text
    assert parse_encounter_trace(emit_encounter_trace(encounters)) \
        == encounters
    assert parse_encounter_trace("time_s,user_a,user_b,connected\n"
                                 "0,B,A,1\n5,B,A,0\n2,c,A,1\n") \
        == EncounterTrace({("A", "B"): ((0.0, 1), (5.0, 0)),
                           ("A", "c"): ((2.0, 1),)})


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


@pytest.mark.parametrize("horizon_s, step_s", [(100.0, 5.0), (10.0, 3.0),
                                               (1.0, 0.1)])
def test_synthetic_traces_are_one_phase_each(horizon_s, step_s):
    """Bit for bit the drawer's points, one phase per user from one
    generator, also where the horizon is no whole number of steps."""
    stats = {"A": (3.0, 0.5), "B": (0.3, 0.1)}
    rng = np.random.default_rng(42)
    want = {user: traceio.phased_capacity([(horizon_s, mean, std)], step_s,
                                          rng)
            for user, (mean, std) in stats.items()}
    got = generate_synthetic_traces(stats, horizon_s, step_s, seed=42)
    assert got.breakpoints == want


def test_phased_capacity_counts_steps_across_phases():
    """ceil(10 / 3) + ceil(5 / 3) points, step k at k * 3.0."""
    points = traceio.phased_capacity([(10.0, 2.0, 0.0), (5.0, 1.0, 0.0)],
                                     3.0, np.random.default_rng(0))
    assert points == tuple((k * 3.0, 2.0 if k < 4 else 1.0)
                           for k in range(6))


class _NoDraws:
    """A generator stand-in that fails any draw."""

    def normal(self, *args, **kwargs):
        raise AssertionError("drew before checking the inputs")


@pytest.mark.parametrize("phase, step_s, match", [
    ((10.0, 2.0, 0.1), 0.0, "^step_s: need finite step_s > 0"),
    ((10.0, 2.0, 0.1), -1.0, "^step_s: need finite step_s > 0"),
    ((10.0, 2.0, 0.1), math.nan, "^step_s: need finite step_s > 0"),
    ((10.0, 2.0, 0.1), math.inf, "^step_s: need finite step_s > 0"),
    ((math.nan, 2.0, 0.1), 5.0, "^phase 1: need finite duration_s >= 0"),
    ((math.inf, 2.0, 0.1), 5.0, "^phase 1: need finite duration_s >= 0"),
    ((-5.0, 2.0, 0.1), 5.0, "^phase 1: need finite duration_s >= 0"),
    ((1e300, 2.0, 0.1), 1e-300, "^phase 1: duration_s 1e\\+300 over step_s"),
    ((10.0, -1.0, 0.1), 5.0, "^phase 1: need finite mean > 0"),
    ((10.0, 0.0, 0.1), 5.0, "^phase 1: need finite mean > 0"),
    ((10.0, math.nan, 0.1), 5.0, "^phase 1: need finite mean > 0"),
    ((10.0, math.inf, 0.1), 5.0, "^phase 1: need finite mean > 0"),
    ((10.0, 2.0, -0.1), 5.0, "^phase 1: need finite std >= 0"),
    ((10.0, 2.0, math.nan), 5.0, "^phase 1: need finite std >= 0"),
    ((10.0, 2.0, math.inf), 5.0, "^phase 1: need finite std >= 0"),
])
def test_phased_capacity_checks_before_drawing(phase, step_s, match):
    """The second phase is bad (or the step); phase 0 is never drawn."""
    with pytest.raises(ValueError, match=match):
        traceio.phased_capacity([(10.0, 2.0, 0.1), phase], step_s, _NoDraws())


def test_phased_capacity_takes_an_empty_phase():
    points = traceio.phased_capacity([(0.0, 2.0, 0.0), (5.0, 1.0, 0.0)],
                                     5.0, np.random.default_rng(0))
    assert points == ((0.0, 1.0),)


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


@pytest.mark.parametrize("horizon_s, step_s, name", [
    (50.0, 0.0, "step_s"), (50.0, math.inf, "step_s"),
    (math.inf, 10.0, "horizon_s"), (-5.0, 10.0, "horizon_s"),
    (math.nan, 10.0, "horizon_s"), (0.0, 10.0, "horizon_s"),
], ids=["step 0", "step inf", "horizon inf", "horizon -5", "horizon nan",
        "horizon 0"])
def test_synthetic_traces_reject_bad_horizon_or_step(horizon_s, step_s,
                                                     name):
    with pytest.raises(ValueError, match=f"^{name}: need finite {name} > 0"):
        generate_synthetic_traces({"A": (1.0, 0.1)}, horizon_s, step_s,
                                  seed=1)


def test_degradation_ratio_values():
    assert degradation_ratio(()) == 0.0
    assert degradation_ratio((1.3, 1.3)) == 0.0
    got = degradation_ratio((1.3, 0.7, 1.3))
    assert got == pytest.approx(0.6 / 3.3)
    assert round(100 * got, 1) == 18.2
    assert degradation_volume(()) == 0
    assert degradation_volume((2.3, 0.7, 1.3, 0.4)) == pytest.approx(2.5)


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

    # one segment: no bitrate can drop, and the volume is still a float;
    # every events line, and the payload it holds, parses as JSON
    cfg = SimConfig(users=(user,), mechanism="noncooperative",
                    video_length_s=10.0)
    emit_results(run_simulation(cfg, trace), "json-lines", tmp_path / "one",
                 include_events=True)
    text = (tmp_path / "one" / "metrics.jsonl").read_text()
    assert '"degradation_volume_mbps": 0.0,' in text
    with open(tmp_path / "one" / "events.jsonl") as f:
        rows = [json.loads(line) for line in f]
    assert rows and all(isinstance(json.loads(row["payload"]), dict)
                        for row in rows)


# -- the parsers against a frozen copy of them ---------------------------------
#
# ref_* are the parsers and trace checks as they stood before the one-pass
# rewrite, kept verbatim (bar names) so that a faster parser must accept the
# same texts, build the same traces and refuse the rest with the same
# exception type and message, line numbers included.


def ref_capacity_checks(breakpoints):
    clean = {}
    inf = math.inf
    for user, points in breakpoints.items():
        points = tuple((float(t), float(h)) for t, h in points)
        if not points or points[0][0] != 0.0:
            raise TraceParseError(
                f"user {user}: capacity trace must start at time 0")
        times = [t for t, _ in points]
        if not (all(a < b for a, b in zip(times, times[1:]))
                and times[-1] < inf):
            raise TraceParseError(f"user {user}: breakpoint times must "
                                  f"be finite and strictly increase")
        if not all(0 <= h < inf for _, h in points):
            raise TraceParseError(
                f"user {user}: negative or non-finite capacity")
        clean[user] = points
    return clean


def ref_encounter_checks(toggles):
    clean = {}
    for pair, events in toggles.items():
        key = tuple(sorted(pair))
        if key[0] == key[1]:
            raise TraceParseError(f"pair {key}: a user with itself")
        if key in clean:
            raise TraceParseError(f"pair {key}: given twice")
        events = tuple((float(t), int(v)) for t, v in events)
        times = [t for t, _ in events]
        if times and not (-math.inf < times[0] and times[-1] < math.inf
                          and all(a < b for a, b in zip(times, times[1:]))):
            raise TraceParseError(
                f"pair {key}: toggle times must be finite and increase")
        for (_, a), (_, b) in zip(events, events[1:]):
            if a == b:
                raise TraceParseError(f"pair {key}: toggles must alternate")
        if any(v not in (0, 1) for _, v in events):
            raise TraceParseError(f"pair {key}: connected must be 0/1")
        clean[key] = events
    return clean


def ref_csv_rows(text, header):
    reader = csv.reader(io.StringIO(text))
    lines = [(i + 1, row) for i, row in enumerate(reader) if row]
    if not lines or tuple(lines[0][1]) != header:
        raise TraceParseError(f"line 1: expected header {','.join(header)}")
    for lineno, row in lines[1:]:
        if len(row) != len(header):
            raise TraceParseError(f"line {lineno}: expected {len(header)} fields")
        yield lineno, row


def ref_parse_capacity(text):
    rows = {}
    for lineno, row in ref_csv_rows(text, ("time_s", "user_id",
                                           "capacity_mbps")):
        try:
            t = float(row[0])
            h = float(row[2])
        except ValueError:
            raise TraceParseError(f"line {lineno}: malformed number")
        if not math.isfinite(t) or math.isnan(h) or h == math.inf:
            raise TraceParseError(f"line {lineno}: non-finite number")
        user = row[1]
        if h < 0:
            raise TraceParseError(f"line {lineno}: negative capacity")
        prev = rows.setdefault(user, [])
        if prev and t <= prev[-1][0]:
            raise TraceParseError(
                f"line {lineno}: non-monotone time for user {user}")
        prev.append((t, h))
    for user, points in rows.items():
        if points[0][0] != 0.0:
            raise TraceParseError(f"user {user}: missing breakpoint at time 0")
    return ref_capacity_checks({u: tuple(p) for u, p in rows.items()})


def ref_parse_encounter(text):
    toggles = {}
    for lineno, row in ref_csv_rows(
            text, ("time_s", "user_a", "user_b", "connected")):
        try:
            t = float(row[0])
            v = int(row[3])
        except ValueError:
            raise TraceParseError(f"line {lineno}: malformed number")
        if not math.isfinite(t):
            raise TraceParseError(f"line {lineno}: non-finite number")
        pair = tuple(sorted((row[1], row[2])))
        toggles.setdefault(pair, []).append((t, v))
    return ref_encounter_checks({p: tuple(e) for p, e in toggles.items()})


def outcome(fn, *args):
    """What fn(*args) gives, comparable across implementations: the repr of
    its value (so -0.0, int/float and key order count), or the type and
    message of what it raised."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc), str(exc)


NUMBERS = ("nan", "inf", "-inf", "-0.0", "0", "-1", "-2.5", "1e-310", "3",
           "1.0", "2", "1e", "fast", "", " 4 ", "0x10", "1_0", "Infinity")
USERS = ("A", "B", "c", "u01")


@st.composite
def mutated_lines(draw, lines, fields, numeric):
    """``lines`` (a header and rows) after a few random edits: a blank line,
    a wrong header, a row with a field dropped or added, a number replaced,
    rows moved (interleaving users, or putting a time out of order), a row
    repeated or deleted, or a user name swapped."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("blank", "header", "fields", "number",
                                     "number", "number", "move", "move",
                                     "repeat", "delete", "name")))
        k = draw(st.integers(0, len(lines) - 1))
        if edit == "blank":
            lines.insert(k, draw(st.sampled_from(("", " "))))
        elif edit == "header":
            lines[0] = draw(st.sampled_from(
                ("time_s,user,capacity", "a,b,c,d", ",".join(fields[::-1]),
                 ",".join(fields[:-1]), ",".join(fields) + ",x")))
        elif edit == "fields":
            row = lines[k].split(",")
            if draw(st.booleans()) and len(row) > 1:
                del row[draw(st.integers(0, len(row) - 1))]
            else:
                row.insert(draw(st.integers(0, len(row))), "1")
            lines[k] = ",".join(row)
        elif edit == "number" and k:
            row = lines[k].split(",")
            i = draw(st.sampled_from(numeric))
            if i < len(row):
                row[i] = draw(st.sampled_from(NUMBERS))
            lines[k] = ",".join(row)
        elif edit == "move" and len(lines) > 2:
            row = lines.pop(draw(st.integers(1, len(lines) - 1)))
            lines.insert(draw(st.integers(1, len(lines))), row)
        elif edit == "repeat" and k:
            lines.insert(draw(st.integers(1, len(lines))), lines[k])
        elif edit == "delete" and k:
            del lines[k]
        elif edit == "name" and k:
            row = lines[k].split(",")
            if len(row) > 2:
                row[draw(st.sampled_from((1, 2)))] = draw(
                    st.sampled_from(USERS))
            lines[k] = ",".join(row)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))


@st.composite
def capacity_texts(draw):
    users = draw(st.lists(st.sampled_from(USERS), min_size=1, max_size=3,
                          unique=True))
    trace = CapacityTrace({
        u: tuple((float(t), draw(st.sampled_from((0.0, 0.3, 2.5, 1e6))))
                 for t in sorted(set(draw(st.lists(
                     st.integers(1, 40), max_size=4))) | {0}))
        for u in users})
    lines = emit_capacity_trace(trace).splitlines()
    if draw(st.booleans()):  # interleave the users' rows
        rows = lines[1:]
        lines = lines[:1] + sorted(rows, key=lambda r: float(r.split(",")[0]))
    return draw(mutated_lines(lines, ("time_s", "user_id", "capacity_mbps"),
                              (0, 2)))


@st.composite
def encounter_texts(draw):
    pairs = draw(st.lists(st.sampled_from([("A", "B"), ("A", "c"),
                                           ("B", "u01"), ("c", "u01")]),
                          max_size=3, unique=True))
    toggles = {}
    for pair in pairs:
        first = draw(st.integers(0, 1))
        times = sorted(set(draw(st.lists(st.integers(0, 40), max_size=4))))
        toggles[pair] = tuple((float(t), (first + k) % 2)
                              for k, t in enumerate(times))
    trace = EncounterTrace(toggles)
    lines = emit_encounter_trace(trace).splitlines()
    rows = lines[1:]
    if draw(st.booleans()):  # write some pairs B,A
        rows = [",".join((t, b, a, v)) if draw(st.booleans()) else r
                for r in rows for t, a, b, v in [r.split(",")]]
    if draw(st.booleans()):  # interleave the pairs' rows
        rows.sort(key=lambda r: float(r.split(",")[0]))
    edits = draw(st.lists(st.sampled_from(("2", "1.0", "-1", " 1", "01",
                                           "true")), max_size=1))
    if edits and rows:  # a connected value that is not a plain 0/1
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k].rsplit(",", 1)[0] + "," + edits[0]
    return draw(mutated_lines(lines[:1] + rows,
                              ("time_s", "user_a", "user_b", "connected"),
                              (0, 3)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity_texts())
@example("time_s,user_id,capacity_mbps\n0,A,-inf\n")
@example("time_s,user_id,capacity_mbps\n\n0,A,1\n5,B,1\n2,A,-0.0\n")
@example("time_s,user_id,capacity_mbps\n0,A,x\n0,A\n")
@example("time_s,user_id,capacity_mbps\n")
@example("\ntime_s,user_id,capacity_mbps\n0,A,1\n")
def test_capacity_parser_matches_frozen_copy(text):
    assert (outcome(lambda s: parse_capacity_trace(s).breakpoints, text)
            == outcome(ref_parse_capacity, text))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encounter_texts())
@example("time_s,user_a,user_b,connected\n0,A,A,1\n")
@example("time_s,user_a,user_b,connected\n0,B,A,1\n3,A,B,0\n1,c,A,1\n")
@example("time_s,user_a,user_b,connected\n0,A,B,1\n0,B,A,0\n")
@example("time_s,user_a,user_b,connected\n0,A,B,x\n1,A,B\n")
@example("time_s,user_a,user_b,connected\n")
@example("\ntime_s,user_a,user_b,connected\n0,A,B,1\n")
def test_encounter_parser_matches_frozen_copy(text):
    assert (outcome(lambda s: parse_encounter_trace(s).toggles, text)
            == outcome(ref_parse_encounter, text))


# the connected-value edits of encounter_texts, put in any one cell below
CELL_EDITS = ("2", "1.0", "-1", " 1", "01", "true")
WHOLE_FORMS = ("plain", "plain", "plain", "no final newline", "quoted field",
               "crlf", "blank line", "cell edit")


@st.composite
def whole_traces(draw, encounters):
    """A whole emitted trace over several users (or pairs), as a writer may
    give it: rows interleaved across users, pairs written B,A, and one of
    WHOLE_FORMS, most often untouched. Unlike the texts above it keeps
    many rows and no random edits, so that most of it is a plain file."""
    users = draw(st.lists(st.sampled_from(USERS + ("u02", "Z9")),
                          min_size=2, max_size=6, unique=True))
    times = st.lists(st.integers(1, 60), max_size=10).map(
        lambda ts: sorted(set(ts)))
    if encounters:
        pairs = draw(st.lists(st.sampled_from(
            [tuple(sorted(p)) for p in itertools.combinations(users, 2)]),
            min_size=1, max_size=6, unique=True))
        toggles = {}
        for pair in pairs:
            first = draw(st.integers(0, 1))
            toggles[pair] = tuple((float(t), (first + k) % 2) for k, t
                                  in enumerate([0] + draw(times)))
        lines = emit_encounter_trace(EncounterTrace(toggles)).splitlines()
    else:
        trace = CapacityTrace({u: tuple(
            (float(t), draw(st.sampled_from((0.0, 0.3, 2.5, 1e6, 1e-310))))
            for t in [0] + draw(times)) for u in users})
        lines = emit_capacity_trace(trace).splitlines()
    rows = lines[1:]
    if encounters and draw(st.booleans()):  # write some pairs B,A
        rows = [",".join((t, b, a, v)) if draw(st.booleans()) else r
                for r in rows for t, a, b, v in [r.split(",")]]
    if draw(st.booleans()):  # interleave the users' (pairs') rows
        rows.sort(key=lambda r: float(r.split(",")[0]))
    lines = lines[:1] + rows
    form = draw(st.sampled_from(WHOLE_FORMS))
    k = draw(st.integers(0, len(lines) - 1))
    end = "\n"
    if form == "no final newline":
        end = ""
    elif form == "quoted field":
        cells = lines[k].split(",")
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = f'"{cells[i]}"'
        lines[k] = ",".join(cells)
    elif form == "crlf":
        lines[k] += "\r"
    elif form == "blank line":
        lines.insert(k, "")
    elif form == "cell edit" and k:
        cells = lines[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(CELL_EDITS))
        lines[k] = ",".join(cells)
    return "\n".join(lines) + end


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(whole_traces(encounters=False))
def test_whole_capacity_traces_match_frozen_copy(text):
    assert (outcome(lambda s: parse_capacity_trace(s).breakpoints, text)
            == outcome(ref_parse_capacity, text))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(whole_traces(encounters=True))
def test_whole_encounter_traces_match_frozen_copy(text):
    assert (outcome(lambda s: parse_encounter_trace(s).toggles, text)
            == outcome(ref_parse_encounter, text))


values = st.one_of(
    st.sampled_from((0, 1, 2, -1, 0.0, -0.0, 1.0, 0.5, True, math.nan,
                     math.inf, -math.inf, "3", 1e-310)),
    st.floats(-5.0, 50.0))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(USERS),
                       st.lists(st.tuples(values, values), max_size=4)
                       .map(tuple), max_size=3))
def test_capacity_checks_match_frozen_copy(breakpoints):
    assert (outcome(lambda b: CapacityTrace(b).breakpoints, breakpoints)
            == outcome(ref_capacity_checks, breakpoints))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.sampled_from(USERS),
                                 st.sampled_from(USERS)),
                       st.lists(st.tuples(values, values), max_size=4)
                       .map(tuple), max_size=3))
def test_encounter_checks_match_frozen_copy(toggles):
    assert (outcome(lambda g: EncounterTrace(g).toggles, toggles)
            == outcome(ref_encounter_checks, toggles))


# -- result emission against the library encoders ------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True))
payloads = st.dictionaries(st.text(max_size=4), st.recursive(
    json_scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8), max_size=5)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_event_payload_is_json_dumps_with_sorted_keys(payload):
    row = SimEvent(time_s=1.5, kind="k", payload=payload).as_row()
    assert row["payload"] == json.dumps(payload, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)]
                         * 11), max_size=4))
def test_per_user_rows_are_asdict(values):
    per_user = {f"u{k}": UserResult(f"u{k}", *v)
                for k, v in enumerate(values)}
    result = SimResult(per_user, 0.0, 0.0, 0.0, 0, 0, ())
    # repr: key order, -0.0 and NaN count
    assert (repr([list(row.items()) for row in result.per_user_rows()])
            == repr([list(dataclasses.asdict(r).items())
                     for r in per_user.values()]))
