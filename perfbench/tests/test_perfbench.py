"""Tests of the benchmark itself: generators, tracing and output checks.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys

import numpy as np

import run
import tracer
import workloads
from cmstream import traceio


def _bindings():
    """Every attribute of every cmstream module and class, by identity."""
    return {(id(owner), attr): id(value)
            for owner in tracer._owners()
            for attr, value in vars(owner).items()}


def test_mobile_traces_are_deterministic_and_parse():
    first = workloads.mobile_trace_csv(7, 6)
    assert workloads.mobile_trace_csv(7, 6) == first
    assert workloads.mobile_trace_csv(8, 6) != first
    encounters = traceio.parse_encounter_trace(first[1])
    assert len(encounters.toggles) == 15
    for events in encounters.toggles.values():
        times = [t for t, _ in events]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
    traceio.parse_capacity_trace(first[0])


def test_toggle_times_strictly_increase_after_rounding():
    # Sub-millisecond mean durations round most gaps to zero; a generator
    # that rounded each time separately would repeat timestamps.
    rng = np.random.default_rng(0)
    trace = workloads.encounter_toggles(rng, ["a", "b", "c"], horizon_ms=500,
                                        mean_on_s=0.0004, mean_off_s=0.0004)
    for events in trace.toggles.values():
        times = [t for t, _ in events]
        assert len(times) > 50
        assert all(b > a for a, b in zip(times, times[1:]))
    text = traceio.emit_encounter_trace(trace)
    assert traceio.parse_encounter_trace(text).toggles == trace.toggles


def test_traced_run_restores_wrappers(small_auction_grid, speed, tmp_path):
    before = _bindings()
    traced, lines = run.run_benchmark("auction_grid", 3, 0.1, 1, speed,
                                      out_dir=tmp_path)
    assert _bindings() == before
    assert traced["correct"], lines
    assert traced["metrics"]["strategy.build_momd_bid.calls"]["value"] > 0
    plain, plain_lines = run.run_benchmark("auction_grid", 3, 0.1, 0, speed,
                                           out_dir=tmp_path)
    assert plain["correct"], plain_lines
    digest = [line for line in lines if line.startswith("digest ")]
    assert digest and digest == [line for line in plain_lines
                                 if line.startswith("digest ")]
    assert (tmp_path / "spans-auction_grid-seed3.jsonl").is_file()


def test_self_times_sum_to_no_more_than_wall_time(tmp_path):
    workload = workloads.CanonicalMix(tmp_path)
    sessions = workload.setup(1)
    spans = tracer.Tracer()
    for op in range(2):
        spans.install()
        try:
            with spans.operation(op):
                workload.run(sessions[op])
        finally:
            spans.uninstall()
    for op in range(2):
        records = [r for r in spans.records if r[5] == op]
        (root,) = [r for r in records if r[1] == "op"]
        listed_self = sum(r[7] for r in records if r[1] != "op")
        assert 0 < listed_self <= root[3] - root[2]
        assert all(r[7] >= 0 for r in records)
    calls, _ = spans.totals()["engine.run_simulation"]
    assert calls == 44
    raw = spans.totals(corrected=False)
    for name, (calls, busy) in spans.totals().items():
        assert calls == raw[name][0]
        assert 0 <= busy <= raw[name][1]
    assert set(spans.cost_ns) == {0, 1}


def test_recorded_auctions_replay_to_the_engines_outcomes():
    profiles = workloads.group_profiles(4)
    ids = [p.user_id for p in profiles]
    cfg = workloads.engine.SimConfig(users=profiles, K=2, mechanism="momd",
                                     video_length_s=workloads.VIDEO_S)
    capacity = workloads.group_capacity(np.random.default_rng(5), ids)
    auctions = workloads.record_auctions(cfg, capacity)
    resolved = [e.payload["winners"]
                for e in workloads.engine.run_simulation(cfg, capacity).events
                if e.kind == "auction_resolved"]
    assert len(auctions) == len(resolved) > 0
    for auction, winners in zip(auctions, resolved):
        assert len(auction.neighbour_shares) == 4
        bids = [workloads.strategy.build_momd_bid(p, s, auction.sf, 2,
                                                  max_segments=cap)
                for p, s, cap in auction.bidders]
        k_eff = min(2, sum(b.max_segments for b in bids))
        outcome = workloads.momd.resolve_vickrey_score(bids, auction.sf,
                                                       k_eff)
        assert {u: k for u, k in outcome.revised_allocation.items()
                if k} == winners


def test_missing_listed_function_is_reported_not_zero():
    listed = dict(tracer.LISTED, **{"traceio.gone": ("cmstream.traceio",
                                                     "no_such_function")})
    spans = tracer.Tracer(listed)
    spans.install()
    spans.uninstall()
    assert spans.missing == ["traceio.gone"]
    assert spans.restored()


def test_corrupted_golden_entry_is_a_failed_operation(small_auction_grid,
                                                      speed, tmp_path):
    golden = copy.deepcopy(run.load_golden())
    golden["digests"]["auction_grid"][1] = "0" * 64
    # At the default seed every operation is checked against the table.
    result, lines = run.run_benchmark("auction_grid", golden["seed"], 0.1, 0,
                                      speed, golden=golden, out_dir=tmp_path)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert any(line.startswith("FAILED op 1") for line in lines)
    # At any other seed the first default-seed operation is checked.
    golden["digests"]["auction_grid"][0] = "0" * 64
    result, _ = run.run_benchmark("auction_grid", 11, 0.1, 0, speed,
                                  golden=golden, out_dir=tmp_path)
    assert result["failed"] == 1 and not result["correct"]


def test_exits_without_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auction_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_match_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_names()
