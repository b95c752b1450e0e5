"""End-to-end tests for the cmstream command line."""

import copy
import json
import math
from pathlib import Path

import pytest
import yaml

from cmstream.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_TRACE,
    main,
)

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


@pytest.mark.parametrize("key,value", [
    ("overhead_energy_per_auction", float("nan")),
    ("overhead_energy_per_auction", float("inf")),
    ("video_length_s", float("nan")),
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


def test_oracle_size_guard(tmp_path):
    inst = tmp_path / "big.yaml"
    inst.write_text(yaml.safe_dump({
        "K": 2,
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": f"u{i}"}} for i in range(5)],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "momd"]) == EXIT_SIZE_GUARD
    inst.write_text(yaml.safe_dump({
        "K": 5,
        "downloader": {"user_id": "d"},
        "bidders": [{"profile": {"user_id": "u"}}],
    }))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", "matrix"]) == EXIT_SIZE_GUARD


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


@pytest.mark.parametrize("kind,instance", [
    ("momd", {"K": 2, "marginal_scores": [1, 2]}),
    ("somd", {"downloader": {"user_id": "d"}, "bidders": [5]}),
    ("matrix", {"K": 2, "downloader": {"user_id": "d"}, "bidders": []}),
    ("momd", {"K": 2.5, "downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"}}]}),
    ("momd", {"K": True, "downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"}}]}),
    ("momd", {"K": 2.5, "marginal_scores": {"1": [3, 2], "2": [4, 1]}}),
    ("momd", {"K": True, "marginal_scores": {"1": [3, 2], "2": [4, 1]}}),
    ("momd", {"K": 1, "marginal_scores": {"1": [True], "2": [4]}}),
    ("matrix", {"downloader": {"user_id": "d"},
                "bidders": [{"profile": {"user_id": "u"},
                             "state": {"buffer_s": True}}]}),
    ("somd", {"downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"}}],
              "mechanism_welfare": True}),
    ("momd", {"K": 1, "marginal_scores": {"1": [math.nan], "2": [3]}}),
    ("momd", {"K": 1, "marginal_scores": {"1": [math.inf], "2": [3]}}),
    ("somd", {"downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"}}],
              "mechanism_welfare": math.nan}),
    ("somd", {"downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"},
                           "state": {"buffer_s": math.nan}}]}),
    ("matrix", {"downloader": {"user_id": "d"},
                "bidders": [{"profile": {"user_id": "u"},
                             "state": {"prev_bitrate": math.inf}}]}),
    ("momd", {"K": 2, "downloader": {"user_id": "d"},
              "bidders": [{"profile": {"user_id": "u"}},
                          {"profile": {"user_id": "u"}}]}),
], ids=["marginal-scores-list", "bidder-not-mapping", "matrix-no-bidder",
        "bidders-fractional-k", "bidders-boolean-k", "scores-fractional-k",
        "scores-boolean-k", "scores-boolean-entry", "state-boolean-buffer",
        "welfare-boolean", "scores-nan", "scores-inf", "welfare-nan",
        "state-nan-buffer", "state-inf-prev-bitrate", "repeated-bidder"])
def test_oracle_malformed_instance(tmp_path, capsys, kind, instance):
    inst = tmp_path / "bad.yaml"
    inst.write_text(yaml.safe_dump(instance))
    assert main(["oracle", "--instance", str(inst),
                 "--kind", kind]) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"


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


def test_verbose_is_read_at_call_time(monkeypatch, tmp_path, config_path,
                                      traces_dir, capsys):
    args = ["simulate", "--config", str(config_path),
            "--traces", str(traces_dir), "--out", str(tmp_path / "o")]
    monkeypatch.delenv("CMSTREAM_VERBOSE", raising=False)
    assert main(args) == EXIT_OK
    assert "simulating" not in capsys.readouterr().err
    monkeypatch.setenv("CMSTREAM_VERBOSE", "1")
    assert main(args) == EXIT_OK
    assert "simulating momd K=1" in capsys.readouterr().err


TWO_USER = yaml.safe_load(
    (Path(__file__).resolve().parent.parent / "configs" / "two_user.yaml")
    .read_text())

# (command, key path into configs/two_user.yaml, value written there)
HOSTILE = [
    ("gen-traces", ("trace_stats", "A", "mean"), float("nan")),
    ("gen-traces", ("trace_stats", "A", "mean"), -1),
    ("gen-traces", ("trace", "step_s"), 0),
    ("gen-traces", ("trace", "step_s"), float("nan")),
    ("gen-traces", ("trace", "horizon_s"), float("inf")),
    ("gen-traces", ("trace",), [1, 2]),
    ("compare", ("trace_stats", "A", "mean"), -1),
    ("compare", ("trace", "step_s"), 0),
    ("compare", ("mechansim",), "somd"),
    ("gen-traces", ("mechansim",), "somd"),
    ("compare", ("trace", "horizon"), 1600),
    ("gen-traces", ("trace", "horizon"), 1600),
    ("verify", ("trace", "horizon"), 1600),
    ("compare", ("seed",), -1),
    ("gen-traces", ("trace_stats", "A", "mean"), True),
    ("compare", ("trace_stats", "B", "std"), False),
    ("verify", ("overhead_energy_per_auction",), True),
]


@pytest.mark.parametrize(
    "command,path,value", HOSTILE,
    ids=[f"{c}-{'.'.join(p)}={v}" for c, p, v in HOSTILE])
def test_hostile_config(tmp_path, capsys, command, path, value):
    data = copy.deepcopy(TWO_USER)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg = tmp_path / "hostile.yaml"
    cfg.write_text(yaml.safe_dump(data))
    argv = [command, "--config", str(cfg)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "out")]
    if command == "compare":
        argv += ["--replications", "1"]
    assert main(argv) == EXIT_CONFIG
    assert _trace_error(capsys)["error"] == "config"
