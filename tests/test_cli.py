"""End-to-end tests for the cmstream command line."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cmstream import cli
from cmstream.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_TRACE,
    main,
)
from cmstream.config import ConfigError, read_yaml
from cmstream.momd import MomdBid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_USER = yaml.safe_load((CONFIGS / "two_user.yaml").read_text())

SIM_CONFIG = {
    "users": [
        {"user_id": "A", "cost_per_mbit": 0.25, "link_cost_per_s": 0.45},
        {"user_id": "B", "cost_per_mbit": 0.25, "link_cost_per_s": 0.45},
    ],
    "K": 1,
    "mechanism": "momd",
    "video_length_s": 50.0,
    "trace_stats": {"A": {"mean": 3.0, "std": 0.3},
                    "B": {"mean": 3.0, "std": 0.3}},
    "trace": {"horizon_s": 800.0, "step_s": 5.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SIM_CONFIG))
    return path


@pytest.fixture
def traces_dir(tmp_path, config_path):
    out = tmp_path / "traces"
    code = main(["gen-traces", "--config", str(config_path),
                 "--out", str(out), "--seed", "3"])
    assert code == EXIT_OK
    return out


def test_gen_traces_writes_files(traces_dir):
    assert (traces_dir / "capacity.csv").exists()
    assert (traces_dir / "encounter.csv").exists()
    header = (traces_dir / "capacity.csv").read_text().splitlines()[0]
    assert header == "time_s,user_id,capacity_mbps"


def test_gen_traces_horizon_follows_video_length(tmp_path):
    # no trace section: horizon video_length_s * 12 + 400 = 1000 s, step 5 s
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump({**SIM_CONFIG, "trace": None}))
    out = tmp_path / "t"
    assert main(["gen-traces", "--config", str(path),
                 "--out", str(out)]) == EXIT_OK
    last = (out / "capacity.csv").read_text().splitlines()[-1]
    assert last.startswith("995,")


def test_gen_traces_negative_seed(tmp_path, config_path, capsys):
    assert main(["gen-traces", "--config", str(config_path), "--out",
                 str(tmp_path / "t"), "--seed", "-1"]) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"


def test_gen_traces_needs_stats(tmp_path):
    path = tmp_path / "bare.yaml"
    path.write_text(yaml.safe_dump({"users": [{"user_id": "A"}]}))
    assert main(["gen-traces", "--config", str(path),
                 "--out", str(tmp_path / "t")]) == EXIT_CONFIG


def test_simulate_writes_outputs(tmp_path, config_path, traces_dir, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(traces_dir), "--out", str(out),
                 "--events"])
    assert code == EXIT_OK
    for name in ("metrics.csv", "summary.csv", "events.csv",
                 "config_snapshot.yaml"):
        assert (out / name).exists()
    assert "social_welfare=" in capsys.readouterr().out


def test_simulate_snapshot_reproduces(tmp_path, config_path, traces_dir):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(config_path),
                 "--traces", str(traces_dir), "--out", str(out1)]) == EXIT_OK
    # rerun from the emitted snapshot: outputs must match byte for byte
    assert main(["simulate", "--config", str(out1 / "config_snapshot.yaml"),
                 "--traces", str(traces_dir), "--out", str(out2)]) == EXIT_OK
    for name in ("metrics.csv", "summary.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_simulate_mechanism_and_k_flags(tmp_path, config_path, traces_dir):
    """--mechanism and --K override the config's values, the run uses
    them, and the snapshot records them."""
    summaries = {}
    for name, flags in (("config", []),
                        ("mechanism", ["--mechanism", "noncooperative"]),
                        ("k", ["--K", "4"])):
        out = tmp_path / name
        assert main(["simulate", "--config", str(config_path), "--traces",
                     str(traces_dir), "--out", str(out)] + flags) == EXIT_OK
        snapshot = yaml.safe_load((out / "config_snapshot.yaml").read_text())
        summaries[name] = (snapshot["mechanism"], snapshot["K"],
                           (out / "summary.csv").read_text())
    assert summaries["config"][:2] == ("momd", 1)
    assert summaries["mechanism"][:2] == ("noncooperative", 1)
    assert summaries["k"][:2] == ("momd", 4)
    assert len({summary for _, _, summary in summaries.values()}) == 3


def test_simulate_adaptation_key(tmp_path, traces_dir, capsys):
    """``adaptation: hybrid`` is shorthand for ``adaptation: {kind:
    hybrid}``; each baseline policy runs and changes the results; an
    unknown one is a config error."""
    outputs = {}
    for name, adaptation in (("optimal", None), ("long", {"kind": "hybrid"}),
                             ("short", "hybrid"), ("bogus", "bogus"),
                             ("buffer", "buffer_based"),
                             ("bandwidth", "bandwidth_based")):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(
            dict(SIM_CONFIG, **({"adaptation": adaptation}
                                if adaptation else {}))))
        out = tmp_path / name
        code = main(["simulate", "--config", str(path),
                     "--traces", str(traces_dir), "--out", str(out)])
        if name == "bogus":
            assert code == EXIT_CONFIG
            assert "'bogus'" in _trace_error(capsys)["message"]
            assert not out.exists()
            continue
        assert code == EXIT_OK
        outputs[name] = [(out / f).read_bytes()
                         for f in ("metrics.csv", "summary.csv")]
    assert outputs["long"] == outputs["short"]
    for name in ("long", "buffer", "bandwidth"):
        for optimal, baseline in zip(outputs["optimal"], outputs[name]):
            assert optimal != baseline


def test_simulate_bad_config(tmp_path, traces_dir):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"users": [{"user_id": "A"}],
                                   "mechanism": "dutch"}))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_verify_invalid_yaml(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("users: [{user_id: A}\nK: 1\n")
    assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG
    line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert line["error"] == "config"
    assert "invalid YAML" in line["message"]


def test_config_key_given_twice(tmp_path, capsys):
    """A second trace section is refused, not used in place of the first."""
    shipped = (CONFIGS / "two_user.yaml").read_text()
    twice = tmp_path / "twice.yaml"
    twice.write_text(shipped + "trace: {horizon_s: 100010.0, step_s: 0.5}\n")
    out = tmp_path / "traces"
    assert main(["gen-traces", "--config", str(twice),
                 "--out", str(out)]) == EXIT_CONFIG
    line = shipped.count("\n") + 1
    assert f"key 'trace' given twice\n  in \"{twice}\", line {line}," \
        in _trace_error(capsys)["message"]
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("overhead_energy_per_auction", float("nan")),
    ("overhead_energy_per_auction", float("inf")),
    ("video_length_s", float("nan")),
    # finite, but the run's horizon guard past it overflows
    ("video_length_s", 1.0e308),
])
def test_simulate_non_finite_config(tmp_path, traces_dir, capsys, key, value):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({**SIM_CONFIG, key: value}))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = json.loads(err.splitlines()[-1])
    assert line["error"] == "config"
    assert key in line["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["idle_retry_s", "d2d_delay_s",
                                 "overhead_time_per_auction_s", "helper"])
def test_simulate_rejects_removed_key(tmp_path, traces_dir, capsys, key):
    # a snapshot written while these were settings carries all four
    config = copy.deepcopy(SIM_CONFIG)
    if key == "helper":
        config["users"][0]["helper"] = True
    else:
        config[key] = 1.0
    bad = tmp_path / "old.yaml"
    bad.write_text(yaml.safe_dump(config))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    line = _trace_error(capsys)
    assert line["error"] == "config"
    assert f"unknown keys ['{key}']" in line["message"]


@pytest.mark.parametrize("row,code", [
    ("0,A,b,0", EXIT_TRACE),
    ("0,A,A,0", EXIT_TRACE),
    ("0,A,B,0", EXIT_OK),
], ids=["unsimulated-user", "user-with-itself", "pair"])
def test_simulate_encounter_users(tmp_path, config_path, traces_dir, capsys,
                                  row, code):
    argv = ["simulate", "--config", str(config_path),
            "--traces", str(traces_dir)]
    assert main(argv + ["--out", str(tmp_path / "mesh")]) == EXIT_OK
    (traces_dir / "encounter.csv").write_text(
        f"time_s,user_a,user_b,connected\n{row}\n")
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == code
    if code == EXIT_TRACE:
        assert _trace_error(capsys)["error"] == "trace"
        assert not out.exists()
    else:  # A and B never meet, so the run is not the full mesh's
        summary = (out / "summary.csv").read_text()
        assert summary != (tmp_path / "mesh" / "summary.csv").read_text()


def test_simulate_missing_traces(tmp_path, config_path):
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE


def test_simulate_malformed_trace(tmp_path, config_path, capsys):
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text("wrong,header,line\n0,A,1\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "trace"


def test_compare_grid(tmp_path, config_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(config_path),
                 "--out", str(out), "--replications", "2",
                 "--mechanisms", "momd,noncooperative"])
    assert code == EXIT_OK
    assert (out / "comparison.csv").exists()
    assert (out / "config_snapshot.yaml").exists()
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("cell,social_welfare")
    assert len(lines) == 3  # header + two cells
    assert "mechanism=momd" in capsys.readouterr().out
    # the single-segment mechanisms, run as momd at K = 1
    single = tmp_path / "single"
    assert main(["compare", "--config", str(CONFIGS / "three_user.yaml"),
                 "--out", str(single), "--replications", "2",
                 "--mechanisms", "somd,vickrey_1d,noncooperative",
                 "--k-values", "1", "--overheads", "0"]) == EXIT_OK
    with open(single / "comparison.csv", newline="") as f:
        cells = [row[0] for row in csv.reader(f)][1:]
    assert cells == [f"mechanism={m},K=1,overhead=0"
                     for m in ("somd", "vickrey_1d", "noncooperative")]


def test_csv_outputs_read_back_through_csv_reader(tmp_path, capsys):
    """events.csv and comparison.csv parse as CSV: every row has the
    header's width, each payload cell holds its event's JSON payload, and
    each cell label, commas and all, is one cell."""
    from cmstream.cli import _read_traces
    from cmstream.config import load_config
    from cmstream.engine import run_simulation

    traces, run, cmp = tmp_path / "traces", tmp_path / "run", tmp_path / "cmp"
    two_user = str(CONFIGS / "two_user.yaml")
    assert main(["gen-traces", "--config", two_user,
                 "--out", str(traces)]) == EXIT_OK
    assert main(["simulate", "--config", two_user, "--traces", str(traces),
                 "--out", str(run), "--events"]) == EXIT_OK
    assert main(["compare", "--config", str(CONFIGS / "three_user.yaml"),
                 "--out", str(cmp), "--replications", "2",
                 "--k-values", "1,2"]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[-4:]

    events = run_simulation(load_config(two_user)[0],
                            *_read_traces(str(traces))).events
    with open(run / "events.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["time_s", "kind", "payload"]
    assert len(rows) == len(events) > 0
    for row, event in zip(rows, events):
        assert len(row) == len(header)
        assert row[1] == event.kind
        # through JSON once, so that tuples compare as lists
        assert json.loads(row[2]) == json.loads(json.dumps(event.payload))

    with open(cmp / "comparison.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header[0] == "cell" and len(rows) == 4
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [
        line.split(": social_welfare=")[0] for line in printed]
    assert rows[0][0] == "mechanism=momd,K=1,overhead=0"


@pytest.mark.parametrize("flag,value", [
    ("--replications", "0"),
    ("--k-values", "x"),
    ("--mechanisms", "bogus"),
    ("--k-values", "1,1"),
    ("--overheads", "0,0.0"),
    ("--mechanisms", "momd,momd"),
])
def test_compare_bad_grid(tmp_path, config_path, capsys, flag, value):
    code = main(["compare", "--config", str(config_path),
                 "--out", str(tmp_path / "cmp"), "--replications", "1",
                 flag, value])
    assert code == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"
    assert not (tmp_path / "cmp").exists()


def test_compare_needs_trace_stats(tmp_path, capsys):
    path = tmp_path / "bare.yaml"
    path.write_text(yaml.safe_dump({"users": [{"user_id": "A"}]}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "trace_stats" in _trace_error(capsys)["message"]
    assert not out.exists()


def test_compare_no_cell_left(tmp_path, capsys):
    config = (Path(__file__).resolve().parent.parent / "configs"
              / "three_user.yaml")
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(config), "--out", str(out),
                 "--replications", "1", "--mechanisms", "somd,vickrey_1d",
                 "--k-values", "2,4"])
    assert code == EXIT_CONFIG
    message = _trace_error(capsys)["message"]
    for pair in ("somd/K=2", "somd/K=4", "vickrey_1d/K=2", "vickrey_1d/K=4"):
        assert pair in message
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True],
                         ids=["existing-file", "below-a-file"])
@pytest.mark.parametrize("command", ["simulate", "gen-traces", "compare"])
def test_unusable_out(tmp_path, config_path, traces_dir, capsys, monkeypatch,
                      command, below):
    def no_run(*args, **kwargs):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr("cmstream.cli.run_comparison", no_run)
    out = tmp_path / "a-file"
    out.write_text("")
    if below:
        out = out / "out"
    argv = [command, "--config", str(config_path), "--out", str(out)]
    if command == "simulate":
        argv += ["--traces", str(traces_dir)]
    capsys.readouterr()  # the traces fixture's output
    assert main(argv) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"
    assert (tmp_path / "a-file").read_text() == ""


def test_compare_snapshot_reruns(tmp_path, config_path, traces_dir):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config_path), "--out", str(out),
                 "--replications", "1"]) == EXIT_OK
    snapshot = str(out / "config_snapshot.yaml")
    again = tmp_path / "cmp2"
    assert main(["compare", "--config", snapshot, "--out", str(again),
                 "--replications", "1"]) == EXIT_OK
    for name in ("comparison.csv", "config_snapshot.yaml"):
        assert (out / name).read_text() == (again / name).read_text()
    assert main(["simulate", "--config", snapshot, "--traces",
                 str(traces_dir), "--out", str(tmp_path / "run")]) == EXIT_OK


def test_verify_reports_pairs(config_path, capsys):
    assert main(["verify", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "downloader=A bidder=B" in out


def test_verify_reports_failing_pairs(tmp_path, capsys):
    """A pair that fails both conditions prints FAIL with both details,
    and the summary counts it; verify still exits 0."""
    path = tmp_path / "weak.yaml"
    path.write_text(yaml.safe_dump({
        "users": [{"user_id": "A", "theta": 0.1, "cost_per_mbit": 1.0}],
        "K": 2}))
    assert main(["verify", "--config", str(path)]) == EXIT_OK
    first, summary = capsys.readouterr().out.splitlines()
    assert first.startswith("downloader=A bidder=A: FAIL quality-vs-cost "
                            "fails at rate 0.2 (gain ")
    assert "; concavity margin fails (" in first
    assert summary == ("summary: 0/1 pairs satisfy the marginal-score "
                       "conditions")


def test_oracle_marginal_scores(tmp_path, capsys):
    inst = tmp_path / "ex.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 4,
        "marginal_scores": {"1": [8, 7, 5, 2], "2": [9, 6, 3, 2],
                            "3": [4, 4, 3, 1]},
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"1": 2' in out and '"2": 2' in out and '"3": 0' in out
    assert "score_damage_payment[1] = 8" in out
    assert "score_damage_payment[2] = 9" in out


def test_oracle_marginal_scores_negative_running_sum(tmp_path, capsys):
    """A running sum below 0 is refused by the bidder, entry and sum it
    names, not by the prices the instance never gave; one that stays at or
    above 0 runs."""
    inst = tmp_path / "neg.yaml"
    inst.write_text('K: 2\nmarginal_scores: {"1": [2, -3], "2": [2]}\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_CONFIG
    message = _trace_error(capsys)["message"]
    assert "bidder 1" in message and "entry 2" in message
    assert "-1.0" in message and "prices" not in message
    inst.write_text('K: 2\nmarginal_scores: {"1": [3, -1], "2": [2]}\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_OK
    assert capsys.readouterr().out == (
        'allocation: {"1": 1, "2": 1}\n'
        "score_damage_payment[1] = 0\n"
        "score_damage_payment[2] = -1\n"
        "assumption 1 violated by: 1\n")


def test_oracle_prints_assumption1_violators(tmp_path, capsys):
    """The oracle still resolves marginal scores that break Assumption 1,
    and names every bidder whose scores do; an instance that meets it
    prints no such line."""
    inst = tmp_path / "violated.yaml"
    inst.write_text('K: 2\nmarginal_scores: {"1": [3, -1], "2": [2], '
                    '"3": [1, 2]}\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == (
        "assumption 1 violated by: 1, 3")
    inst.write_text('K: 2\nmarginal_scores: {"1": [3, 1], "2": [2]}\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_OK
    assert "assumption" not in capsys.readouterr().out


def test_oracle_somd_equality(tmp_path, capsys):
    from cmstream.model import UserState
    from cmstream.config import user_from_dict
    from cmstream.somd import brute_force_somd_optimum

    downloader = {"user_id": "d", "cost_per_mbit": 0.2}
    bidders = [{"profile": {"user_id": "u1", "theta": 1.2}},
               {"profile": {"user_id": "u2", "theta": 0.4}}]
    _, _, w = brute_force_somd_optimum(
        [(user_from_dict(b["profile"]), UserState()) for b in bidders],
        user_from_dict(downloader))
    inst = tmp_path / "somd.yaml"
    inst.write_text(yaml.safe_dump({
        "downloader": downloader,
        "bidders": bidders,
        "mechanism_welfare": float(w),
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "somd"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimum: bidder=" in out
    assert "EQUAL" in out


@pytest.mark.parametrize("offset,verdict", [(0.0, "EQUAL"),
                                            (1.0, "DIFFERENT")])
def test_oracle_momd_profiles(tmp_path, capsys, offset, verdict):
    """The momd oracle on profiles prints the optimal split and each
    winner's bitrates, and compares a claimed mechanism welfare."""
    from cmstream.config import user_from_dict
    from cmstream.model import UserState
    from cmstream.momd import brute_force_momd_optimum

    downloader = {"user_id": "d", "cost_per_mbit": 0.05}
    bidders = [{"profile": {"user_id": "u1", "theta": 1.5}},
               {"profile": {"user_id": "u2", "theta": 0.5},
                "state": {"buffer_s": 20.0, "prev_bitrate": 0.4}}]
    alloc, vectors, w = brute_force_momd_optimum(
        [(user_from_dict(b["profile"]), UserState(**b.get("state", {})))
         for b in bidders], user_from_dict(downloader), 2)
    inst = tmp_path / "momd.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 2, "downloader": downloader, "bidders": bidders,
        "mechanism_welfare": float(w) + offset}))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"optimum: allocation={list(alloc)} welfare={w:.6g}"
    assert out[1:-1] == [f"bitrates[{uid}] = {list(vec)}"
                         for uid, vec in sorted(vectors.items()) if vec]
    assert out[-1].endswith(f": {verdict}")


def test_oracle_size_guard(tmp_path, capsys):
    inst = tmp_path / "big.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 2,
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": f"u{i}"}} for i in range(5)],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_SIZE_GUARD
    assert _trace_error(capsys)["error"] == "size-guard"
    inst.write_text(yaml.safe_dump({
        "K": 5,
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "matrix"]) == EXIT_SIZE_GUARD
    assert _trace_error(capsys)["error"] == "size-guard"


def test_oracle_matrix_kind(tmp_path, capsys):
    inst = tmp_path / "m.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 2,
        "downloader": {"user_id": "d", "cost_per_mbit": 0.45},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"prev_bitrate": 2.3}}],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "matrix"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "brute-force rows:" in out
    assert "reduced-solver rows:" in out


@pytest.mark.parametrize("solver", ["optimal", "lowest-rate"])
def test_oracle_matrix_compares_rows(tmp_path, capsys, monkeypatch, solver):
    """The matrix oracle compares each row's objective and prints a
    verdict, as the somd and momd oracles do; it used to print both row
    lists and leave the comparison to the eye."""
    if solver == "lowest-rate":
        def lowest_rate_bid(profile, state, sf, K):
            low = profile.ladder.rates[0]
            return MomdBid(profile.user_id,
                           tuple((low,) * k + (0.0,) * (K - k)
                                 for k in range(1, K + 1)), (0.0,) * K)
        monkeypatch.setattr(cli, "build_momd_bid", lowest_rate_bid)
    inst = tmp_path / "m.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 2,
        "downloader": {"user_id": "d", "cost_per_mbit": 0.45},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"prev_bitrate": 2.3}}],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "matrix"]) == EXIT_OK
    fast, verdict = {"optimal": ("[[2.3], [1.3, 1.3]]", "EQUAL"),
                     "lowest-rate": ("[[0.2], [0.2, 0.2]]", "DIFFERENT")
                     }[solver]
    assert capsys.readouterr().out.splitlines() == [
        "brute-force rows: [[2.3], [1.3, 1.3]]",
        f"reduced-solver rows: {fast}",
        f"rows: {verdict}"]


# id: (kind, instance with a misspelt key, what the error names)
MISSPELT = {
    "bidder-stat": ("momd", {
        "K": 2, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"},
                     "stat": {"buffer_s": 30, "prev_bitrate": 2.3}}]},
        "bidders[0]: unknown keys ['stat']"),
    "state-prev-bitrat": ("momd", {
        "K": 2, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"prev_bitrat": 2.3}}]},
        "bidders[0].state: unknown keys ['prev_bitrat']"),
    "mechanism-welfre": ("momd", {
        "K": 1, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
        "mechanism_welfre": 1.0},
        "instance: unknown keys ['mechanism_welfre']"),
    "scores-extra": ("momd", {
        "K": 1, "marginal_scores": {"1": [3], "2": [4]}, "extra": 1},
        "instance: unknown keys ['extra']"),
    # the matrix oracle compares no welfare: a claimed one went unchecked
    "matrix-welfare": ("matrix", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
        "mechanism_welfare": 12345},
        "instance: unknown keys ['mechanism_welfare']"),
}


# id: (kind, instance malformed in other ways, what the error names)
MALFORMED = {
    "marginal-scores-list": ("momd", {"K": 2, "marginal_scores": [1, 2]},
                             "marginal_scores: expected a mapping"),
    "bidder-not-mapping": ("somd", {"downloader": {"user_id": "d"},
                                    "bidders": [5]}, "bidders[0]"),
    "matrix-no-bidder": ("matrix", {"K": 2, "downloader": {"user_id": "d"},
                                    "bidders": []}, "needs a bidder"),
    "bidders-fractional-k": ("momd", {
        "K": 2.5, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}]}, "K: expected an integer"),
    "bidders-boolean-k": ("momd", {
        "K": True, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}]}, "K: expected an integer"),
    "scores-fractional-k": ("momd", {
        "K": 2.5, "marginal_scores": {"1": [3, 2], "2": [4, 1]}},
        "K: expected an integer"),
    "scores-boolean-k": ("momd", {
        "K": True, "marginal_scores": {"1": [3, 2], "2": [4, 1]}},
        "K: expected an integer"),
    "scores-boolean-entry": ("momd", {
        "K": 1, "marginal_scores": {"1": [True], "2": [4]}},
        "marginal_scores.1"),
    "state-boolean-buffer": ("matrix", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"buffer_s": True}}]},
        "bidders[0].state.buffer_s"),
    "welfare-boolean": ("somd", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
        "mechanism_welfare": True}, "mechanism_welfare"),
    "scores-nan": ("momd", {
        "K": 1, "marginal_scores": {"1": [math.nan], "2": [3]}},
        "marginal_scores.1"),
    "scores-inf": ("momd", {
        "K": 1, "marginal_scores": {"1": [math.inf], "2": [3]}},
        "marginal_scores.1"),
    "welfare-nan": ("somd", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
        "mechanism_welfare": math.nan}, "mechanism_welfare"),
    "state-nan-buffer": ("somd", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"buffer_s": math.nan}}]},
        "bidders[0].state: buffer_s"),
    "state-inf-prev-bitrate": ("matrix", {
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"},
                     "state": {"prev_bitrate": math.inf}}]},
        "bidders[0].state: prev_bitrate"),
    "repeated-bidder": ("momd", {
        "K": 2, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}},
                    {"profile": {"user_id": "u"}}]}, "bidder 'u' is repeated"),
    "scores-string-entry": ("momd", {
        "K": 1, "marginal_scores": {"1": [5], "2": "34"}},
        "marginal_scores.2"),
    "scores-mapping-entry": ("momd", {
        "K": 1, "marginal_scores": {"1": {5: None}, "2": [3]}},
        "marginal_scores.1"),
}


@pytest.mark.parametrize("kind,instance,named",
                         [*MALFORMED.values(), *MISSPELT.values()],
                         ids=[*MALFORMED, *MISSPELT])
def test_oracle_malformed_instance(tmp_path, capsys, kind, instance, named):
    inst = tmp_path / "bad.yaml"
    inst.write_text(yaml.safe_dump(instance))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", kind]) == EXIT_CONFIG
    err = _trace_error(capsys)
    assert err["error"] == "config"
    assert named in err["message"]
    assert "Error(" not in err["message"]


@pytest.mark.parametrize("bidders", [1, 2])
def test_oracle_negative_k(tmp_path, capsys, bidders):
    inst = tmp_path / "neg.yaml"
    inst.write_text(yaml.safe_dump({
        "K": -1, "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": f"u{i}"}}
                    for i in range(bidders)]}))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_CONFIG
    assert "K must be >= 0" in _trace_error(capsys)["message"]


def test_oracle_colliding_score_keys(tmp_path, capsys):
    inst = tmp_path / "keys.yaml"
    inst.write_text('K: 1\nmarginal_scores: {1: [5], "1": [3], "2": [4]}\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_CONFIG
    assert "key '1' names bidder '1' twice" in _trace_error(capsys)["message"]


def test_yaml_merge_override_and_unhashable_key(tmp_path):
    """A merged key may be given again, as YAML merges allow; an unhashable
    key stays invalid YAML."""
    merged = tmp_path / "merged.yaml"
    merged.write_text("a: &x {b: 1, c: 1}\nd:\n  <<: *x\n  b: 2\n")
    assert read_yaml(merged) == {"a": {"b": 1, "c": 1}, "d": {"b": 2, "c": 1}}
    listed = tmp_path / "listed.yaml"
    listed.write_text("[1, 2]: 3\n")
    with pytest.raises(ConfigError, match="found unhashable key"):
        read_yaml(listed)


def test_oracle_instance_key_given_twice(tmp_path, capsys):
    inst = tmp_path / "twice.yaml"
    inst.write_text('K: 1\nmarginal_scores: {"1": [5], "2": [4]}\nK: 2\n')
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_CONFIG
    assert "key 'K' given twice\n  in" in _trace_error(capsys)["message"]


def _trace_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    return json.loads(err)


@pytest.mark.parametrize("capacity", ["nan", "inf"])
def test_simulate_non_finite_capacity(tmp_path, config_path, capsys,
                                      capacity):
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text(
        f"time_s,user_id,capacity_mbps\n0,A,3.0\n0,B,{capacity}\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    err = _trace_error(capsys)
    assert err["error"] == "trace"
    assert "line 3: non-finite" in err["message"]


def test_simulate_tiny_capacity(tmp_path, config_path, traces_dir, capsys):
    """A subnormal capacity is valid, but its link cost per Mbit overflows:
    a trace fault (exit 3), not a config one."""
    path = traces_dir / "capacity.csv"
    lines = path.read_text().splitlines()
    first_a = next(i for i, row in enumerate(lines) if row.startswith("0,A,"))
    lines[first_a] = "0,A,1e-310"
    path.write_text("\n".join(lines) + "\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(traces_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    err = _trace_error(capsys)
    assert err["error"] == "trace"
    assert "auctioneer A at t=0.0" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["cost_per_mbit", "link_cost_per_s"])
def test_simulate_cost_overflow(tmp_path, traces_dir, capsys, field):
    """A cost per Mbit so large that a segment's cost overflows on an
    ordinary capacity is the config's fault (exit 2), naming the user and
    the field; it used to exit 3 for the link cost and 0, with a NaN
    welfare, for the per-Mbit cost."""
    config = copy.deepcopy(SIM_CONFIG)
    config["users"][0][field] = 1e308
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = _trace_error(capsys)
    assert err["error"] == "config"
    assert f"user A: {field} 1e+308" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field,value", [
    ("theta", 1e308), ("theta", 1e306), ("buffer_gain_scale", 1e308),
    ("cost_per_mbit", 7e306)])
def test_simulate_welfare_overflow(tmp_path, capsys, field, value):
    """Values on A that UserProfile accepts, but whose sums over the
    shipped two-user run overflow: exit 2 naming A, no --out left. They
    used to exit 0 with an infinite or NaN social welfare."""
    shipped = CONFIGS / "two_user.yaml"
    traces = tmp_path / "traces"
    assert main(["gen-traces", "--config", str(shipped),
                 "--out", str(traces)]) == EXIT_OK
    capsys.readouterr()
    config = copy.deepcopy(TWO_USER)
    config["users"][0][field] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = _trace_error(capsys)
    assert err["error"] == "config"
    assert err["message"].startswith("user A: welfare ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("repro", ["capacity", "segment_length"])
def test_simulate_zero_time_download(tmp_path, capsys, repro):
    """A download so small against A's link that it ends at its start time
    on the shipped two-user run: exit 3 naming the auctioneer, t and the
    volume, no --out left. Both used to end in a ZeroDivisionError
    traceback."""
    traces = tmp_path / "traces"
    assert main(["gen-traces", "--config", str(CONFIGS / "two_user.yaml"),
                 "--out", str(traces)]) == EXIT_OK
    capsys.readouterr()
    config = copy.deepcopy(TWO_USER)
    if repro == "capacity":
        path = traces / "capacity.csv"
        rows = [row.rsplit(",", 1)[0] + ",1e300" if ",A," in row else row
                for row in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")
    else:
        config["users"][0]["ladder"]["segment_length_s"] = 1e-300
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(config))
    code = main(["simulate", "--config", str(bad),
                 "--traces", str(traces), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    err = _trace_error(capsys)
    assert err["error"] == "trace"
    assert err["message"].startswith("auctioneer A at t=")
    assert "Mbit from t=" in err["message"]
    assert "ends at its start time" in err["message"]
    assert not (tmp_path / "o").exists()


def test_simulate_non_finite_toggle_time(tmp_path, config_path, capsys):
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text(
        "time_s,user_id,capacity_mbps\n0,A,3.0\n0,B,3.0\n")
    (d / "encounter.csv").write_text(
        "time_s,user_a,user_b,connected\n0,A,B,1\nnan,A,B,0\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    assert _trace_error(capsys)["error"] == "trace"


def test_simulate_over_long_cell(tmp_path, config_path, capsys):
    """A cell past the csv module's field limit is a trace fault on its
    line; it used to end in a raw csv.Error (exit 1)."""
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text(
        "time_s,user_id,capacity_mbps\n0,A," + "1" * 200_000 + "\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    err = _trace_error(capsys)
    assert err["error"] == "trace"
    assert err["message"].startswith("line 2: field larger than field limit")
    assert not (tmp_path / "o").exists()


def _two_user_renaming_a(tmp_path, uid):
    """configs/two_user.yaml with user A renamed uid, and its traces as
    gen-traces writes them."""
    config = copy.deepcopy(TWO_USER)
    config["users"][0]["user_id"] = uid
    config["trace_stats"] = {uid if user == "A" else user: stats
                             for user, stats in config["trace_stats"].items()}
    cfg = tmp_path / "renamed.yaml"
    cfg.write_text(yaml.safe_dump(config, sort_keys=False))
    traces = tmp_path / "traces"
    assert main(["gen-traces", "--config", str(cfg),
                 "--out", str(traces)]) == EXIT_OK
    return cfg, traces


def test_ids_holding_a_comma_read_back(tmp_path, capsys):
    """gen-traces quotes an id holding a comma, so simulate reads back the
    traces it wrote; they used to fail with 'line 2: expected 3 fields'."""
    cfg, traces = _two_user_renaming_a(tmp_path, "A,1")
    assert (traces / "capacity.csv").read_text().splitlines()[1].startswith(
        '0,"A,1",')
    assert main(["simulate", "--config", str(cfg), "--traces", str(traces),
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert "social_welfare=265.663 " in capsys.readouterr().out


def test_ids_holding_a_cr_read_back(tmp_path, capsys):
    """simulate reads the traces with their line endings as written, so a
    quoted CR in an id reads back; read as text, it became LF, and simulate
    failed with 'no capacity trace for user A\\r1'."""
    cfg, traces = _two_user_renaming_a(tmp_path, "A\r1")
    assert (traces / "capacity.csv").read_bytes().split(b"\n")[1].startswith(
        b'0,"A\r1",')
    assert main(["simulate", "--config", str(cfg), "--traces", str(traces),
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert "social_welfare=265.663 " in capsys.readouterr().out


def test_simulate_reads_crlf_traces(tmp_path, config_path, traces_dir):
    """Trace files with CRLF line endings, which simulate now reads as
    written, give the same results as their LF form."""
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    for name in ("capacity.csv", "encounter.csv"):
        (crlf / name).write_bytes(
            (traces_dir / name).read_bytes().replace(b"\n", b"\r\n"))
    for traces, out in ((traces_dir, "lf"), (crlf, "crlf")):
        assert main(["simulate", "--config", str(config_path), "--traces",
                     str(traces), "--out", str(tmp_path / out),
                     "--events"]) == EXIT_OK
    for name in ("metrics.csv", "events.csv"):
        assert ((tmp_path / "lf" / name).read_bytes()
                == (tmp_path / "crlf" / name).read_bytes())


def test_cli_starts_without_numpy():
    """Importing the CLI leaves numpy unloaded: only the synthetic trace
    generator uses it, and its import was most of a run's start-up time."""
    import cmstream

    src = str(Path(cmstream.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cmstream.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_simulate_traces_not_a_directory(tmp_path, config_path, capsys):
    not_dir = tmp_path / "traces.csv"
    not_dir.write_text("time_s,user_id,capacity_mbps\n0,A,3.0\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(not_dir), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    assert _trace_error(capsys)["error"] == "trace"


@pytest.mark.parametrize("name", ["capacity.csv", "encounter.csv"])
def test_simulate_undecodable_trace(tmp_path, config_path, capsys, name):
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text(
        "time_s,user_id,capacity_mbps\n0,A,3.0\n0,B,3.0\n")
    (d / "encounter.csv").write_text("time_s,user_a,user_b,connected\n")
    with open(d / name, "ab") as f:
        f.write(b"0,A,\xff\n")
    code = main(["simulate", "--config", str(config_path),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    assert _trace_error(capsys)["error"] == "trace"


@pytest.mark.parametrize("command",
                         ["simulate", "compare", "verify", "gen-traces"])
def test_config_is_a_directory(tmp_path, traces_dir, capsys, command):
    argv = [command, "--config", str(tmp_path)]
    if command == "simulate":
        argv += ["--traces", str(traces_dir)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "o")]
    capsys.readouterr()  # the traces fixture's output
    assert main(argv) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"


def test_oracle_instance_is_a_directory(tmp_path, capsys):
    assert main(["oracle", "--instance", str(tmp_path),
                 "--kind", "momd"]) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"


# A 10-s video over a 0.0005 Mbps link: the first segment needs 4000 s,
# past the run's 2000-s horizon guard.
STALLED = dict(SIM_CONFIG, video_length_s=10.0,
               trace_stats={"A": {"mean": 0.0005, "std": 0.0},
                            "B": {"mean": 0.0005, "std": 0.0}})


def test_simulate_horizon_exceeded(tmp_path, capsys):
    cfg = tmp_path / "stalled.yaml"
    cfg.write_text(yaml.safe_dump(STALLED))
    d = tmp_path / "traces"
    d.mkdir()
    (d / "capacity.csv").write_text(
        "time_s,user_id,capacity_mbps\n0,A,0.0005\n0,B,0.0005\n")
    code = main(["simulate", "--config", str(cfg),
                 "--traces", str(d), "--out", str(tmp_path / "o")])
    assert code == EXIT_TRACE
    assert "horizon exceeded" in _trace_error(capsys)["message"]
    assert not (tmp_path / "o").exists()


def test_compare_horizon_exceeded(tmp_path, capsys):
    cfg = tmp_path / "stalled.yaml"
    cfg.write_text(yaml.safe_dump(STALLED))
    code = main(["compare", "--config", str(cfg),
                 "--out", str(tmp_path / "cmp"), "--replications", "1"])
    assert code == EXIT_TRACE
    assert "horizon exceeded" in _trace_error(capsys)["message"]
    assert not (tmp_path / "cmp").exists()


def test_compare_mean_overflow(tmp_path, capsys):
    """Two runs whose social welfare (about 1.4e308 each) is finite, but
    whose sum over the replications overflows: exit 2 naming the cell, no
    --out left. It used to print social_welfare=inf and exit 0."""
    config = copy.deepcopy(TWO_USER)
    for user in config["users"]:
        user["theta"] = 3.0e305
    cfg = tmp_path / "big.yaml"
    cfg.write_text(yaml.safe_dump(config))
    code = main(["compare", "--config", str(cfg), "--out",
                 str(tmp_path / "cmp"), "--mechanisms", "noncooperative",
                 "--replications", "2"])
    assert code == EXIT_CONFIG
    err = _trace_error(capsys)
    assert err["error"] == "config"
    assert err["message"].startswith(
        "cell 'mechanism=noncooperative,K=1,overhead=0': mean social_welfare")
    assert not (tmp_path / "cmp").exists()


# (command, {key path into configs/two_user.yaml: value written there},
#  what the error names)
HOSTILE = [
    ("gen-traces", {("trace_stats", "A", "mean"): float("nan")},
     "trace_stats.A.mean"),
    ("gen-traces", {("trace_stats", "A", "mean"): -1}, "trace_stats.A.mean"),
    ("gen-traces", {("trace", "step_s"): 0}, "trace.step_s"),
    ("gen-traces", {("trace", "step_s"): float("nan")}, "trace.step_s"),
    ("gen-traces", {("trace", "horizon_s"): float("inf")}, "trace.horizon_s"),
    ("gen-traces", {("trace",): [1, 2]}, "trace: expected a mapping"),
    # a synthetic-trace step count past the largest float
    ("verify", {("trace",): {"horizon_s": 1.0e308, "step_s": 1.0e-10}},
     "makes inf steps"),
    ("gen-traces", {("trace",): {"horizon_s": 1.0e308, "step_s": 1.0e-10}},
     "makes inf steps"),
    ("compare", {("trace_stats", "A", "mean"): -1}, "trace_stats.A.mean"),
    ("compare", {("trace", "step_s"): 0}, "trace.step_s"),
    ("compare", {("mechansim",): "somd"}, "unknown keys ['mechansim']"),
    ("gen-traces", {("mechansim",): "somd"}, "unknown keys ['mechansim']"),
    ("compare", {("trace", "horizon"): 1600}, "unknown keys ['horizon']"),
    ("gen-traces", {("trace", "horizon"): 1600}, "unknown keys ['horizon']"),
    ("verify", {("trace", "horizon"): 1600}, "unknown keys ['horizon']"),
    ("compare", {("seed",): -1}, "seed must be >= 0"),
    ("gen-traces", {("trace_stats", "A", "mean"): True},
     "trace_stats.A.mean"),
    ("compare", {("trace_stats", "B", "std"): False}, "trace_stats.B.std"),
    ("verify", {("overhead_energy_per_auction",): True},
     "overhead_energy_per_auction"),
    ("verify", {("users", 0, "ladder", "rates"): "123"}, "ladder.rates"),
    ("verify", {("users", 0, "ladder", "rates"): {0.2: 1, 0.4: 2}},
     "ladder.rates"),
    # a segment count past the largest float
    ("verify", {("video_length_s",): 1.0e10,
                ("users", 0, "ladder", "segment_length_s"): 1.0e-300},
     "user A: video_length_s 10000000000.0 over segment_length_s 1e-300"),
    ("gen-traces", {("video_length_s",): 1.0e10,
                    ("users", 0, "ladder", "segment_length_s"): 1.0e-300},
     "user A: video_length_s 10000000000.0 over segment_length_s 1e-300"),
]


@pytest.mark.parametrize(
    "command,edits,named", HOSTILE,
    ids=[f"{c}-" + ",".join(f"{'.'.join(map(str, p))}={v}"
                            for p, v in edits.items())
         for c, edits, _ in HOSTILE])
def test_hostile_config(tmp_path, capsys, command, edits, named):
    data = copy.deepcopy(TWO_USER)
    for path, value in edits.items():
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    cfg = tmp_path / "hostile.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command != "verify":
        argv += ["--out", str(out)]
    if command == "compare":
        argv += ["--replications", "1"]
    assert main(argv) == EXIT_CONFIG
    err = _trace_error(capsys)
    assert err["error"] == "config"
    assert named in err["message"]
    assert not out.exists()
