"""Behaviour lock: SHA-256 digests of canonical simulation outputs.

Each scenario hashes the run's aggregate row and every event row. The
digests were recorded from the code before the trace lookups were indexed
and the participation filter's neighbourhood was shared per instant, the
baseline-policy ones before the four mechanisms shared one bid, resolution
and booking path, and the filter-off mobile and sparse-encounter ones
before the engine held each user's neighbourhood between trace changes; a
speed-up or refactor must reproduce them bit for bit. A change that alters
them on purpose must say why in CHANGES.md.

The per-user digests hash each scenario's ``per_user_rows()``, each row in
field order, so a change in one user's figures shows even where the
aggregate row and the event log stay as they were (a user's degradation
ratio, say). They were recorded before somd, vickrey_1d and
noncooperative became momd at K = 1 in the engine.

The command-line digests hash the files that ``gen-traces``, ``simulate``
and ``compare`` write from the shipped configs; they were recorded before
config loading moved into one module, and the three json-lines ones before
the event payload encoder was built once. The two ``config_snapshot.yaml``
digests were re-recorded when ``idle_retry_s``, ``d2d_delay_s``,
``overhead_time_per_auction_s`` and each user's ``helper`` stopped being
settings: those keys left the snapshots, and nothing else in them moved.

The trace digests hash each scenario's generated traces on their own, so
a change in numpy's random stream can be told apart from one in the
engine.
"""

import functools
import hashlib
import itertools
import json
import operator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmstream.cli import EXIT_OK, main
from cmstream.engine import SimConfig, _HeldTrace, run_simulation
from cmstream.experiments import (
    heterogeneous_scenario,
    phased_capacity,
    standard_profile,
    two_user_scenario,
)
from cmstream.strategy import AdaptationPolicy
from cmstream.traceio import CapacityTrace, EncounterTrace

TRACE_SEED = 7
GROUP_VIDEO_S = 40.0


def sim_digest(result) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(result.aggregate_row(), sort_keys=True).encode())
    for event in result.events:
        h.update(b"\n")
        h.update(json.dumps(event.as_row(), sort_keys=True).encode())
    return h.hexdigest()


def per_user_digest(result) -> str:
    """Hash every per-user row, in user order and each in field order."""
    h = hashlib.sha256()
    for row in result.per_user_rows():
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _scenario(build, policy="optimal"):
    cfg, gen = build()
    cfg = replace(cfg, adaptation=AdaptationPolicy(policy))
    return run_simulation(cfg, *gen(TRACE_SEED))


def group_capacity(rng, ids):
    """Every third user has a strong link, the rest a weak one."""
    return CapacityTrace({
        uid: phased_capacity([(1600.0, 4.0, 2.0) if i % 3 == 0
                              else (1600.0, 0.18, 0.09)], 5.0, rng)
        for i, uid in enumerate(ids)})


def toggling_encounters(rng, ids, horizon_ms=960_000):
    """Pairwise in-range (mean 30 s) / out-of-range (mean 60 s) spells with
    whole-millisecond toggle times, starting in range with probability 1/3."""
    toggles = {}
    for a, b in itertools.combinations(ids, 2):
        state = int(rng.random() < 1 / 3)
        events = [(0.0, state)]
        t_ms = 0
        while True:
            t_ms += max(1, round(float(rng.exponential(
                30.0 if state else 60.0)) * 1000))
            if t_ms >= horizon_ms:
                break
            state ^= 1
            events.append((t_ms / 1000, state))
        toggles[(a, b)] = tuple(events)
    return EncounterTrace(toggles)


def group_traces(n, encounters):
    rng = np.random.default_rng(TRACE_SEED)
    ids = [f"u{i:02d}" for i in range(n)]
    capacity = group_capacity(rng, ids)
    enc = toggling_encounters(rng, ids) if encounters else EncounterTrace()
    return capacity, enc


def sparse_traces(n):
    """Toggling encounters with default_connected=False: every third pair
    has no toggles (never in range) and one pair an empty toggle tuple."""
    capacity, enc = group_traces(n, encounters=True)
    pairs = list(enc.toggles)
    toggles = {pair: events for k, (pair, events) in enumerate(
        enc.toggles.items()) if k % 3}
    toggles[pairs[1]] = ()
    return capacity, EncounterTrace(toggles, default_connected=False)


def group_run(n, K, encounters, filtering=True, traces=None):
    capacity, enc = traces or group_traces(n, encounters)
    cfg = SimConfig(users=tuple(standard_profile(u) for u in capacity.users),
                    K=K, mechanism="momd", participation_enabled=filtering,
                    video_length_s=GROUP_VIDEO_S)
    return run_simulation(cfg, capacity, enc)


SCENARIOS = {}
for _mean_b in (0.15, 0.3, 0.45, 1.5, 3.0):
    for _modified in (False, True):
        SCENARIOS[f"two_user_b{_mean_b:g}_{'on' if _modified else 'off'}"] = (
            lambda m=_mean_b, f=_modified:
            _scenario(lambda: two_user_scenario(m, modified=f)))
for _k in (1, 2, 4):
    SCENARIOS[f"het_momd_k{_k}"] = (
        lambda k=_k: _scenario(lambda: heterogeneous_scenario("momd", K=k)))
for _mech in ("noncooperative", "somd", "vickrey_1d"):
    SCENARIOS[f"het_{_mech}"] = (
        lambda m=_mech: _scenario(lambda: heterogeneous_scenario(m)))
# baseline bitrate policies in place of the optimal bids
for _policy in ("buffer_based", "hybrid"):
    for _k in (1, 4):
        SCENARIOS[f"het_momd_k{_k}_{_policy}"] = (
            lambda k=_k, p=_policy:
            _scenario(lambda: heterogeneous_scenario("momd", K=k), p))
    for _mech in ("noncooperative", "somd", "vickrey_1d"):
        SCENARIOS[f"het_{_mech}_{_policy}"] = (
            lambda m=_mech, p=_policy:
            _scenario(lambda: heterogeneous_scenario(m), p))
SCENARIOS["two_user_b0.3_on_hybrid"] = lambda: _scenario(
    lambda: two_user_scenario(0.3, modified=True), "hybrid")
SCENARIOS["mesh20_momd_k4_on"] = lambda: group_run(20, 4, encounters=False)
SCENARIOS["mobile12_momd_k1_on"] = lambda: group_run(12, 1, encounters=True)
SCENARIOS["mobile12_momd_k4_off"] = lambda: group_run(
    12, 4, encounters=True, filtering=False)
SCENARIOS["sparse12_momd_k1_on"] = lambda: group_run(
    12, 1, encounters=True, traces=sparse_traces(12))

GOLDEN = {
    "het_momd_k1": "c8375decfdbcd5e063bf8916f14a3cac91f5d3d4c082e7090893ec98eb7a7e46",
    "het_momd_k1_buffer_based": "b05ebb880092e5e83aa093865f9dd6b7ff3800aefb6df38d4e777226306e05f4",
    "het_momd_k1_hybrid": "13c4f8eb1dcecfd2cd76b521d1ddca164e018ec9a8591acaf3a8fb7b383ef562",
    "het_momd_k2": "ede514a4387139554c6a7251d109beaa8f8254d9efb85c2462fdc600807b4545",
    "het_momd_k4": "a8ae9350ef40e6890702f6fdcf8804efc720b4326b9ba55b46b5bad50bdc1652",
    "het_momd_k4_buffer_based": "94c223bdac7fbe6a0c6fd620370fbe274453c9a6b1d94639be0344a9579712ba",
    "het_momd_k4_hybrid": "879d9157317b7f664998a8c6bd1d774d0e7dbc1fe761878a938252224f4c62de",
    "het_noncooperative": "eaa8712b83de15151add5bd8619438ebbc85d872697a7ec8fe34621b7626e772",
    "het_noncooperative_buffer_based": "57ba3c9be60636389457f33a6afbd01f0f433050532a855109e419571a7efca1",
    "het_noncooperative_hybrid": "57ba3c9be60636389457f33a6afbd01f0f433050532a855109e419571a7efca1",
    "het_somd": "78f92603bc96c054547823cbdedcd5f307a0c5fa5d46570ee41b48a728116700",
    "het_somd_buffer_based": "e5005a588bb107e1220769af1abc1b7ac28227afc778d32df6a400e9d333128b",
    "het_somd_hybrid": "0da065ff4d083062222da341ab305f2d7513c206b6d44c6ff0cec8365354174a",
    "het_vickrey_1d": "48281f390339594660487638523ffb4f46dd9077783f0b295988f1c69487044c",
    "het_vickrey_1d_buffer_based": "56a24cbfd67158e2a9095953f41b43d15ab1e21edbdcea586c768164fb97c765",
    "het_vickrey_1d_hybrid": "17ef687d96ba9546cfa3cd23ded17d19b43d9cfbb3c15a513d7043a7ef5da377",
    "mesh20_momd_k4_on": "e9200ca63b854b73833ece07522cc5ecf79afe85b5d760242ccb0f7098e92a9d",
    "mobile12_momd_k1_on": "29b8e784d6766fac86c432d6a041f9346e04cefe35aa6dbf3af41dfdb867513c",
    "mobile12_momd_k4_off": "292dc3db7a8766cc310cca72e6994c339be46a10d96a16bf3b1ee824abef9df8",
    "sparse12_momd_k1_on": "ceda48c3b97d1a7af47e1de7e8885e134c12cf555c19be7ba9d6692b47e1af6c",
    "two_user_b0.15_off": "9cdc55f010756cf32faac22cc919cd37ea67c7b375e677e1488d8d9ab815cb5b",
    "two_user_b0.15_on": "b15b4797247ef6839443c97e1e5c76d1b0f116cfd7ffa419dd2b3085d9ab1adb",
    "two_user_b0.3_off": "c248e75cc3575b6771efbfdcabb01fb475688cf63c1fc60d5db48bfe66d57188",
    "two_user_b0.3_on": "af013770db63c693227535704c4af3bc320ed0ef246dc9dfda3705134654bee3",
    "two_user_b0.3_on_hybrid": "80f204a528a20eba9ec34bd63746bf94f014acf340ae783810a520f5da14df9b",
    "two_user_b0.45_off": "ab62582eff485886de607bc30eeaf7ff7d73bb5935c54f17edd85f5e70a47c9f",
    "two_user_b0.45_on": "642b85a94299727e81e124539059e37a96278fadb731e8b8a6a37b2de2b1da96",
    "two_user_b1.5_off": "57518e463b02512e83366af482dc1d4d59bd3d84c985293fe8138179f4f9f8e8",
    "two_user_b1.5_on": "57518e463b02512e83366af482dc1d4d59bd3d84c985293fe8138179f4f9f8e8",
    "two_user_b3_off": "73df5c6938b165fecc28dc2fb5d3108dde54b1467b7c3eb5e7f11d499a6887b0",
    "two_user_b3_on": "73df5c6938b165fecc28dc2fb5d3108dde54b1467b7c3eb5e7f11d499a6887b0",
}


@functools.lru_cache(maxsize=None)
def scenario_result(name):
    """Each scenario runs once for both of its digests."""
    return SCENARIOS[name]()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert sim_digest(scenario_result(name)) == GOLDEN[name]


PER_USER_GOLDEN = {
    "het_momd_k1": "5d7368315be81b8c3932c63fd66045369c40c4c767b2979f2517ea9b2a5c0fe8",
    "het_momd_k1_buffer_based": "c3e1dfd202013f9a9be0f49fb24feef50008ca004a4ed7411ba9a1f4dc63266e",
    "het_momd_k1_hybrid": "8a5c1e955d035f438932255d47d440f15c94f51f2002f6c4f9280b44eb55bdad",
    "het_momd_k2": "0f573890aa6a6e202143552375b0a12396ab106b62e363e0a7c1257c3921636b",
    "het_momd_k4": "e5c7609c744508ecea5e37ed15dbf2022e9b2a87edf7fec85c5e234591921d16",
    "het_momd_k4_buffer_based": "03606d880f4e62964dac0833562fa7ba95b18e4ad0b65179d77bcdb4b08b8b5b",
    "het_momd_k4_hybrid": "0f5bf7ff260ab0ceb83a37b2a39ba2207e26262613b6304b31b56400e2137ced",
    "het_noncooperative": "3cc26b7e361e983c320a3687533162e3929b5a4bfa735786f9ca6c4d9b441cc7",
    "het_noncooperative_buffer_based": "a2c5114ade3540d9697cffcbc82d02062a2d1d18daae5333a98db7d24b4b61d8",
    "het_noncooperative_hybrid": "a2c5114ade3540d9697cffcbc82d02062a2d1d18daae5333a98db7d24b4b61d8",
    "het_somd": "d8db33874bc0ec1eac4df1b20099e46126054a1a6ccad645d5f47c1eebc764a7",
    "het_somd_buffer_based": "5956d96806e91a6f7250f379ee3a8c4906339a14c1b8db389901f7c99cc89b49",
    "het_somd_hybrid": "9712a314ac62900cee30cfad47c4be339449a5cb883d2b0f1b995fa1fe786e53",
    "het_vickrey_1d": "6c29639fb7576a7fdd8fcdc95da0d6467052b816668240afcc6a67766dcd74dc",
    "het_vickrey_1d_buffer_based": "bdfa5029087d6452181716e58863267dbef1f524334b5641d80c521345258caa",
    "het_vickrey_1d_hybrid": "c83b68cd3a92bdfaf6038e90ca76f81a69dacaa44c36d1ec02a81263dcec4c62",
    "mesh20_momd_k4_on": "416d95b4c7f007274e7fb1bb34839c9ca7c3563aa0cb010190c9146ae18d2e75",
    "mobile12_momd_k1_on": "69db32e362363b8582a3dd8bbb5ee38d10b4368da2c25e5ff10cbd65bb49972a",
    "mobile12_momd_k4_off": "a58be0104d42da093b3fb95cc90da1c3727f0fa2170ff19ab999b1b2150033bb",
    "sparse12_momd_k1_on": "f6cb85364aa87119f6629bf747353cb711001cc59101b103886c3436fa13ff14",
    "two_user_b0.15_off": "b800285f4141a852fb13bf63b9ebe559186a3c35d5a19a48f3bfa708928ffbf9",
    "two_user_b0.15_on": "e8eca34b84f8027b2fe09aaabfad92599b5b8d18a9aa3297b6fffd19017e0f5c",
    "two_user_b0.3_off": "608198568a050b6024e85ec28aec3a23e4ccc8a40a423bf680aa069a78d047d5",
    "two_user_b0.3_on": "29fea8aec16eafcfc9cd2444d9925a3bc65cd6231e43e170030dd408090faa89",
    "two_user_b0.3_on_hybrid": "e7cec1b22f78eb0e5d394a716d9c805ebf73bb1677c75ca5ce48d233cf34b963",
    "two_user_b0.45_off": "e09f13ce4c2f7e4956bbc2ac75ef465958b64c7d3ad5b3bbc0c0d656dd22b554",
    "two_user_b0.45_on": "fb4260357bd8317698bc49c5604d35995738c5c7f43b551303fe6397b7b6f83d",
    "two_user_b1.5_off": "dd16931bba5e0ba3fa43956b5b80dbbfdade6b1688f8b1619492f83677adf348",
    "two_user_b1.5_on": "dd16931bba5e0ba3fa43956b5b80dbbfdade6b1688f8b1619492f83677adf348",
    "two_user_b3_off": "272c6cb4d49c4bdd497a6fa395d60e6ab4274c89d579b07f4e2e50f1d04be407",
    "two_user_b3_on": "272c6cb4d49c4bdd497a6fa395d60e6ab4274c89d579b07f4e2e50f1d04be407",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_per_user_digest(name):
    assert per_user_digest(scenario_result(name)) == PER_USER_GOLDEN[name]


@pytest.mark.parametrize("traces", [
    lambda: group_traces(12, encounters=True),
    lambda: sparse_traces(12),
], ids=["mobile12", "sparse12"])
def test_noncooperative_run_ignores_encounters_and_filter(traces):
    """A noncooperative user streams alone over its own link: toggled
    encounters and the participation filter leave the run bit for bit as
    it is in a full mesh with the filter off."""
    capacity, toggled = traces()
    cfg = SimConfig(users=tuple(standard_profile(u) for u in capacity.users),
                    mechanism="noncooperative", video_length_s=GROUP_VIDEO_S)
    alone = run_simulation(cfg, capacity, EncounterTrace())
    assert alone.events  # the users do stream
    filtered = run_simulation(replace(cfg, participation_enabled=True),
                              capacity, toggled)
    assert sim_digest(filtered) == sim_digest(alone)


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("traces", [
    lambda: group_traces(12, encounters=True),
    lambda: sparse_traces(12),
], ids=["mobile12", "sparse12"])
def test_held_trace_only_seeks_forward(monkeypatch, traces, K):
    """Over the group scenarios with toggling encounters and the filter on,
    the engine's held trace is never sought back in time."""
    seen = []
    seek = _HeldTrace.seek

    def recording_seek(held, t):
        seen.append(t)
        seek(held, t)

    monkeypatch.setattr(_HeldTrace, "seek", recording_seek)
    group_run(12, K, encounters=True, traces=traces())
    assert seen[-1] > seen[0]  # the run seeks past its start
    assert all(map(operator.le, seen, seen[1:]))


def trace_digest(capacity, encounters) -> str:
    """Hash every breakpoint and toggle as ``float.hex()``: the 6-digit CSV
    form would hide a change in the last bits."""
    h = hashlib.sha256()
    for user, points in capacity.breakpoints.items():
        h.update(f"capacity {user}\n".encode())
        for t, c in points:
            h.update(f"{t.hex()},{c.hex()}\n".encode())
    for (a, b), events in encounters.toggles.items():
        h.update(f"encounter {a},{b}\n".encode())
        for t, v in events:
            h.update(f"{t.hex()},{v}\n".encode())
    return h.hexdigest()


# The generated traces of the golden scenarios, taken alone: a change in
# numpy's random stream moves these as well as the simulation digests, a
# change in the engine moves only the latter.
TRACE_SETS = {
    f"two_user_b{m:g}": lambda m=m: two_user_scenario(m, modified=False)[1](
        TRACE_SEED)
    for m in (0.15, 0.3, 0.45, 1.5, 3.0)}
TRACE_SETS["het"] = lambda: heterogeneous_scenario("momd")[1](TRACE_SEED)
TRACE_SETS["mesh20"] = lambda: group_traces(20, encounters=False)
TRACE_SETS["mobile12"] = lambda: group_traces(12, encounters=True)

TRACE_GOLDEN = {
    "het": "57b89fc518d68104189e7e45ab10f5585655f4545baaf62bbe459844fff25a9e",
    "mesh20": "007b9bb24dce2d4f7a9e0c12b3db1ce8558adc946f38f050af6e5810a80a5cf6",
    "mobile12": "9267d5de4cb1e3fa501640cdac780466b01d56257c019d5bc0e90d9960cfd470",
    "two_user_b0.15": "5381c28386816696a50883ad1b57a62470586b7a250c79f664b6f349d971b630",
    "two_user_b0.3": "e384daafdaa0d2358a23fce88cc15d16d3fd1572698653ab3c62b0efeef63b5f",
    "two_user_b0.45": "a707e727f42749793439db853ed10ad8d52efe87ec7d3369c8db86ed2b3dcbeb",
    "two_user_b1.5": "dd999aa0416bbc9bd444dd8e9a785a398fca44aceee5860c755dc091918928f3",
    "two_user_b3": "40350c12512dc0fea76d3e11a82e44e21871aef4491ceb736cdb014d55b98d62",
}


@pytest.mark.parametrize("name", sorted(TRACE_SETS))
def test_trace_digest(name):
    assert trace_digest(*TRACE_SETS[name]()) == TRACE_GOLDEN[name]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Run gen-traces, simulate and compare on the shipped configs; paths
    are relative to the output root so the snapshots do not depend on it."""
    root = tmp_path_factory.mktemp("cli")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (
            ["gen-traces", "--config", str(CONFIGS / "two_user.yaml"),
             "--out", "traces", "--seed", "11"],
            ["simulate", "--config", str(CONFIGS / "two_user.yaml"),
             "--traces", "traces", "--out", "run", "--events"],
            ["simulate", "--config", str(CONFIGS / "two_user.yaml"),
             "--traces", "traces", "--out", "jsonl", "--events",
             "--format", "json-lines"],
            ["compare", "--config", str(CONFIGS / "three_user.yaml"),
             "--out", "cmp", "--replications", "2", "--k-values", "1,2"],
        ):
            assert main(argv) == EXIT_OK
    return root


CLI_GOLDEN = {
    "traces/capacity.csv": "83f5ce456a5ae7f6439536a6293de891e536f542054cc09be20edaebaf53af53",
    "traces/encounter.csv": "5fd762ece7f4746aa6048ba35a26a583d87ef005c4f27650586c2ca82aae189f",
    "run/metrics.csv": "6b5e6e2e0057be7a0e4c49f1613b3902a58442efcabb55e5581c685db25b72ba",
    "run/summary.csv": "c7d94cc426c114a028a154fad189545ffbfc25d61d2f8a7f6f77401946ff8f3a",
    "run/events.csv": "9ac9b2669c28915c09ddb03bbf25c9f64b721e12cf41e1cea2893780a05119de",
    "run/config_snapshot.yaml": "225c5258a7484b8a41cd84dcc8877176ed792dd99735c08a6209516eeb2d9a76",
    "jsonl/events.jsonl": "9adb678caf474d93ab3f71bc454e0b3274ccaccff97a2eaba3de5df883ac57cb",
    "jsonl/metrics.jsonl": "3d90b8686fe284670453fd9033d2b8f1317238b24e0adf937ad0716df6597939",
    "jsonl/summary.jsonl": "8dae2886f172ea947e0516d0ec2b101cdc649cfe7ba9424abb4120e5f841470c",
    "cmp/comparison.csv": "2912852e55e1cf5ca0a145c57f1db78b1a3230b3175d93a7178814597f079e70",
    "cmp/config_snapshot.yaml": "82a650ec4b860f305d9bd56b27fc4a95e1e0dd67191f7c83e5dc7afcf28d5c80",
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_digest(cli_outputs, name):
    data = (cli_outputs / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == CLI_GOLDEN[name]
