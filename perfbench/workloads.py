"""The four benchmark workloads: input generators, operations and checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. One operation is one session: every cell of
the workload, run on one session's inputs. ``setup(seed)`` builds the
workload's fixed operation list from the run seed; the library only ever
sees the generated inputs.

Program functions are always reached through their module attribute
(``engine.run_simulation``, not a name imported into this file), so the
traced run's rebinding of those attributes covers every call made here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from cmstream import engine, experiments, momd, somd, strategy, traceio

# Golden digests are committed for this seed (perfbench/golden.json).
DEFAULT_SEED = 0

STRONG = (4.0, 2.0)   # Mbps mean, std of every third user's link
WEAK = (0.18, 0.09)
STEP_S = 5.0
# Group videos are 40 s, not the shipped 100 s, so that a run holds about
# ten dense_group operations; traces keep heterogeneous_scenario's
# 1600-s horizon (320 breakpoints).
VIDEO_S = 40.0
CAPACITY_HORIZON_S = 1600.0
# Toggle times are whole milliseconds below 1000 s, so they survive the
# 6-significant-digit number format of the trace emitters exactly.
TOGGLE_HORIZON_MS = 960_000
MEAN_ON_S = 30.0     # a pair stays in range this long on average
MEAN_OFF_S = 60.0    # and out of range this long


def session_seed(seed: int, index: int) -> int:
    """Input seed of operation ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- output digests and checks ------------------------------------------------

def sim_digest(result) -> str:
    """SHA-256 of a simulation's aggregate row and its event rows."""
    h = hashlib.sha256()
    h.update(json.dumps(result.aggregate_row(), sort_keys=True).encode())
    for event in result.events:
        h.update(b"\n")
        h.update(json.dumps(event.as_row(), sort_keys=True).encode())
    return h.hexdigest()


def combine(digests: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def sim_problems(cell: str, result) -> List[str]:
    """Payment conservation and the welfare identity, with the tolerances of
    the acceptance suite's invariant screen."""
    out = []
    users = result.per_user.values()
    made = sum(u.payments_made for u in users)
    received = sum(u.payments_received for u in users)
    if not math.isclose(made, received, rel_tol=1e-9, abs_tol=1e-9):
        out.append(f"{cell}: payments made {made!r} != received {received!r}")
    expected = sum(u.utility - u.cost - u.overhead_energy for u in users)
    if not math.isclose(result.social_welfare, expected,
                        rel_tol=1e-9, abs_tol=1e-9):
        out.append(f"{cell}: welfare {result.social_welfare!r} != "
                   f"{expected!r}")
    return out


@dataclass
class OpOutput:
    """What one operation produced, before it is checked."""

    sims: List[Tuple[str, object]] = field(default_factory=list)
    auctions: List[Tuple[str, int, object, object]] = field(
        default_factory=list)  # (cell, segments, momd outcome, somd outcome)
    cell_ms: List[Tuple[str, float]] = field(default_factory=list)
    sim_ms: float = 0.0

    def timed(self, cell: str, fn: Callable[[], object]):
        t0 = time.perf_counter()
        value = fn()
        dt = (time.perf_counter() - t0) * 1e3
        self.cell_ms.append((cell, dt))
        return value, dt

    def add_sim(self, cell: str, fn: Callable[[], object]) -> None:
        result, dt = self.timed(cell, fn)
        self.sims.append((cell, result))
        self.sim_ms += dt


@dataclass
class Checked:
    digest: str
    problems: List[str]
    events: int = 0
    auctions: int = 0


def check(out: OpOutput) -> Checked:
    """Digest an operation's outputs and check their invariants."""
    digests, problems = [], []
    events = auctions = 0
    for cell, result in out.sims:
        digests.append(sim_digest(result))
        problems.extend(sim_problems(cell, result))
        events += len(result.events)
        auctions += result.auction_count
    for cell, k, outcome, second in out.auctions:
        digests.append(auction_digest(outcome, second))
        won = sum(outcome.revised_allocation.values())
        if won != k:
            problems.append(f"{cell}: {won} segments allocated of {k}")
    return Checked(combine(digests), problems, events, auctions)


def auction_digest(outcome, second) -> str:
    """SHA-256 of an auction cell's allocation and payments."""
    record = {
        "winners": list(outcome.per_segment_winners),
        "allocation": sorted(outcome.revised_allocation.items()),
        "bitrates": sorted((k, list(v))
                           for k, v in outcome.winning_bitrates.items()),
        "payments": sorted(outcome.payments.items()),
    }
    if second is not None:
        record["somd"] = [second.winner_id, second.winning_bitrate,
                          second.payment]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


# -- shared generators -------------------------------------------------------

def group_profiles(n: int):
    return tuple(experiments.standard_profile(f"u{i:02d}") for i in range(n))


def group_capacity(rng: np.random.Generator, user_ids: Sequence[str]):
    """5-s piecewise capacities: every third user strong, the rest weak."""
    points = {}
    for i, uid in enumerate(user_ids):
        mean, std = STRONG if i % 3 == 0 else WEAK
        points[uid] = experiments.phased_capacity(
            [(CAPACITY_HORIZON_S, mean, std)], STEP_S, rng)
    return traceio.CapacityTrace(points)


def encounter_toggles(rng: np.random.Generator, user_ids: Sequence[str],
                      horizon_ms: int = TOGGLE_HORIZON_MS,
                      mean_on_s: float = MEAN_ON_S,
                      mean_off_s: float = MEAN_OFF_S):
    """Pairwise in-range/out-of-range toggles with exponential durations.

    Gaps are drawn in whole milliseconds and are at least 1 ms, so toggle
    times strictly increase after rounding; a gap rounded separately from
    its predecessor's sum could repeat a timestamp, which EncounterTrace
    rejects. Every pair starts with a toggle at time 0 drawn from the
    stationary in-range probability.
    """
    p_on = mean_on_s / (mean_on_s + mean_off_s)
    toggles = {}
    for a, b in itertools.combinations(user_ids, 2):
        state = int(rng.random() < p_on)
        events = [(0.0, state)]
        t_ms = 0
        while True:
            mean = mean_on_s if state else mean_off_s
            t_ms += max(1, round(float(rng.exponential(mean)) * 1000))
            if t_ms >= horizon_ms:
                break
            state ^= 1
            events.append((t_ms / 1000, state))
        toggles[(a, b)] = tuple(events)
    return traceio.EncounterTrace(toggles)


def mobile_trace_csv(seed: int, n_users: int) -> Tuple[str, str]:
    """Capacity and encounter CSV text for one mobile-group session."""
    rng = np.random.default_rng(seed)
    ids = [f"u{i:02d}" for i in range(n_users)]
    capacity = group_capacity(rng, ids)
    encounters = encounter_toggles(rng, ids)
    return (traceio.emit_capacity_trace(capacity),
            traceio.emit_encounter_trace(encounters))


def group_cells(users) -> List[Tuple[str, object]]:
    """momd with the participation filter on and off, each at K = 1 and 4."""
    return [(f"{'on' if on else 'off'}_k{k}",
             engine.SimConfig(users=users, K=k, mechanism="momd",
                              participation_enabled=on,
                              video_length_s=VIDEO_S))
            for on in (True, False) for k in (1, 4)]


# -- workloads ---------------------------------------------------------------

class Workload:
    """A named closed-loop workload with a fixed operation list.

    ``sessions`` is the length of the operation list, which the timed loop
    cycles through; ``trace_ops`` is the fixed prefix the traced run
    measures, so its counts repeat exactly for a given seed; ``digest_ops``
    is the prefix whose combined digest is printed.
    """

    name = ""
    sessions = 1
    trace_ops = 1
    digest_ops = 1
    cells: Tuple[str, ...] = ()   # per-layer cell names of this workload

    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)   # files an operation writes

    def setup(self, seed: int, count: int = 0) -> list:
        """Build the operation list of a run seeded with ``seed``, or its
        first ``count`` operations; returns one input per operation.
        ``trace_gen_ms`` gets the time of each ``session`` call."""
        self.prepare(seed)
        self.trace_gen_ms: List[float] = []
        inputs = []
        for j in range(count or self.sessions):
            t0 = time.perf_counter()
            inputs.append(self.session(session_seed(seed, j)))
            self.trace_gen_ms.append((time.perf_counter() - t0) * 1e3)
        return inputs

    def prepare(self, seed: int) -> None:
        """Build what every operation of a run shares."""

    def session(self, seed: int):
        raise NotImplementedError

    def run(self, inputs) -> OpOutput:
        raise NotImplementedError

    def family(self, cell: str) -> str:
        """Per-layer cell metric a cell's timing counts toward."""
        return cell


class CanonicalMix(Workload):
    """The 22 scenario cells of ``cmstream compare`` and acceptance suites 5-7."""

    name = "canonical_mix"
    sessions = 60
    trace_ops = 24
    digest_ops = 8
    MEAN_B = (0.15, 0.3, 0.45, 1.5, 3.0)
    cells = ("two_user_off", "two_user_on", "het_momd_k1", "het_momd_k2",
             "het_momd_k4", "het_noncoop", "het_somd", "het_vickrey_1d")

    def prepare(self, seed):
        self.two_user = []
        for mean_b in self.MEAN_B:
            off, gen = experiments.two_user_scenario(mean_b, modified=False)
            on, _ = experiments.two_user_scenario(mean_b, modified=True)
            self.two_user.append((f"{mean_b:g}", off, on, gen))
        self.het = []
        for k in (1, 2, 4):
            for overhead in (0.0, 0.2, 1.0):
                cfg, _ = experiments.heterogeneous_scenario(
                    "momd", K=k, overhead_energy=overhead)
                self.het.append((f"het_momd_k{k}_oh{overhead:g}", cfg))
        for mech, label in (("noncooperative", "het_noncoop"),
                            ("somd", "het_somd"),
                            ("vickrey_1d", "het_vickrey_1d")):
            cfg, _ = experiments.heterogeneous_scenario(mech)
            self.het.append((label, cfg))
        # Every heterogeneous cell uses the same trace statistics.
        _, self.het_gen = experiments.heterogeneous_scenario("momd")

    def session(self, seed):
        two = [gen(seed) for _, _, _, gen in self.two_user]
        return two, self.het_gen(seed)

    def run(self, inputs):
        two, (het_cap, het_enc) = inputs
        out = OpOutput()
        for (label, off, on, _), (cap, enc) in zip(self.two_user, two):
            out.add_sim(f"two_user_off_{label}",
                        lambda: engine.run_simulation(off, cap, enc))
            out.add_sim(f"two_user_on_{label}",
                        lambda: engine.run_simulation(on, cap, enc))
        for label, cfg in self.het:
            out.add_sim(label,
                        lambda: engine.run_simulation(cfg, het_cap, het_enc))
        return out

    def family(self, cell):
        # two_user_on_0.15 -> two_user_on, het_momd_k2_oh0.2 -> het_momd_k2
        if cell.startswith(("two_user_", "het_momd_")):
            return cell.rsplit("_", 1)[0]
        return cell


class _Group(Workload):
    """A group of ``users`` standard profiles running the group cells."""

    users = 0

    def prepare(self, seed):
        self.profiles = group_profiles(self.users)
        self.grid = group_cells(self.profiles)


class DenseGroup(_Group):
    """16 users in a full mesh, where the participation filter's
    neighbourhood and the 1-s idle polling dominate."""

    name = "dense_group"
    users = 16
    sessions = 16
    trace_ops = 2
    digest_ops = 2
    cells = ("dense_on_k1", "dense_on_k4", "dense_off_k1", "dense_off_k4")

    def session(self, seed):
        ids = [p.user_id for p in self.profiles]
        return group_capacity(np.random.default_rng(seed), ids)

    def run(self, capacity):
        out = OpOutput()
        for label, cfg in self.grid:
            # No encounter trace: a full mesh, as in the shipped configs.
            out.add_sim(f"dense_{label}",
                        lambda: engine.run_simulation(cfg, capacity))
        return out


class MobileGroup(_Group):
    """24 users with pairwise encounter toggles, read from and written to
    the trace and result CSV formats on every operation."""

    name = "mobile_group"
    users = 24
    sessions = 36         # about as many as a run completes
    trace_ops = 3
    digest_ops = 2
    cells = ("mobile_on_k1", "mobile_on_k4", "mobile_off_k1", "mobile_off_k4")

    def session(self, seed):
        return mobile_trace_csv(seed, self.users)

    def run(self, inputs):
        capacity_csv, encounter_csv = inputs
        out = OpOutput()
        capacity = traceio.parse_capacity_trace(capacity_csv)
        encounters = traceio.parse_encounter_trace(encounter_csv)
        for label, cfg in self.grid:
            out.add_sim(f"mobile_{label}",
                        lambda: engine.run_simulation(cfg, capacity,
                                                      encounters))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            for cell, result in out.sims:
                traceio.emit_results(result, "csv", Path(tmp) / cell,
                                     include_events=True)
        return out


@dataclass(frozen=True)
class AuctionInputs:
    """One momd auction of a simulation, as its candidate bidders saw it."""

    n: int                       # users in the group
    k: int
    sf: object                   # the auctioneer's score function
    auctioneer_capacity: float
    neighbour_shares: Tuple[float, ...]
    bidders: Tuple[Tuple[object, object, int], ...]  # profile, state, cap


def record_auctions(cfg, capacity) -> List[AuctionInputs]:
    """Run a filter-off momd simulation in a full mesh and return the inputs
    of each of its auctions.

    ``engine.build_momd_bid`` and ``engine.resolve_vickrey_score`` are
    rebound for the run to note each bidder's profile, state and segment
    cap, and each auction's score function; the event log gives each
    auction's time and auctioneer. The filter's inputs are then what the
    engine passes to ``should_participate`` at that time: the auctioneer's
    capacity and, for every candidate, each user's capacity over the group
    size (in a full mesh every user neighbours every user and itself).
    """
    build, resolve = engine.build_momd_bid, engine.resolve_vickrey_score
    bids, auctions = [], []

    def recording_build(profile, state, sf, K, max_segments=None):
        bids.append((profile, state, max_segments))
        return build(profile, state, sf, K, max_segments=max_segments)

    def recording_resolve(bid_list, sf, K):
        auctions.append((sf, tuple(bids)))
        bids.clear()
        return resolve(bid_list, sf, K)

    engine.build_momd_bid = recording_build
    engine.resolve_vickrey_score = recording_resolve
    try:
        result = engine.run_simulation(cfg, capacity)
    finally:
        engine.build_momd_bid, engine.resolve_vickrey_score = build, resolve
    starts = [(e.time_s, e.payload) for e in result.events
              if e.kind == "auction_start"]
    ids = [p.user_id for p in cfg.users]
    if not auctions or len(starts) != len(auctions):
        raise RuntimeError(f"recorded {len(auctions)} auctions, the event "
                           f"log has {len(starts)}")
    out = []
    for (t, start), (sf, bidders) in zip(starts, auctions):
        if sorted(p.user_id for p, _, _ in bidders) != start["bidders"]:
            raise RuntimeError(f"recorded bidders differ from the event "
                               f"log at t={t}")
        out.append(AuctionInputs(
            len(ids), cfg.K, sf, capacity.capacity_at(start["auctioneer"], t),
            tuple(capacity.capacity_at(i, t) / len(ids) for i in ids),
            bidders))
    return out


class AuctionGrid(Workload):
    """Single auctions with no engine and no traces, as the group grows.

    The auctions are recorded in setup from filter-off simulations of the
    ``dense_group`` kind (same profiles, capacity mix and video) at each
    group size and K, ``POOL_SIMS[n]`` simulations per cell. Each cell's
    pool keeps the auctions in which the filter admits a bidder, since with
    the filter on the engine runs no other; each operation replays
    ``PER_CELL`` auctions from each pool with the filter on.
    """

    name = "auction_grid"
    sessions = 1000        # a median over fewer draws moves with the seed
    trace_ops = 100
    digest_ops = 50
    POOL_SIMS = {3: 16, 10: 4, 40: 2}
    PER_CELL = 4
    GRID = tuple((n, k) for n in (3, 10, 40) for k in (1, 4))
    cells = tuple(f"auction_n{n}_k{k}" for n, k in GRID)

    def prepare(self, seed):
        self.filter = strategy.ParticipationConfig()
        self.pool = {}
        for n, k in self.GRID:
            profiles = group_profiles(n)
            ids = [p.user_id for p in profiles]
            cfg = engine.SimConfig(users=profiles, K=k, mechanism="momd",
                                   video_length_s=VIDEO_S)
            pool = self.pool[n, k] = []
            for i in range(self.POOL_SIMS[n]):
                capacity = group_capacity(
                    np.random.default_rng([seed, n, k, i]), ids)
                pool.extend(a for a in record_auctions(cfg, capacity)
                            if self._admitted(a))

    def session(self, seed):
        rng = np.random.default_rng(seed)
        return [self.pool[cell][int(i)]
                for cell in self.GRID
                for i in rng.integers(len(self.pool[cell]),
                                      size=self.PER_CELL)]

    def run(self, cells):
        out = OpOutput()
        for cell in cells:
            label = f"auction_n{cell.n}_k{cell.k}"
            result, _ = out.timed(label, lambda: self._auction(cell))
            out.auctions.append((label,) + result)
        return out

    def _admitted(self, cell):
        return [(p, s, cap) for p, s, cap in cell.bidders
                if strategy.should_participate(
                    p, s, cell.auctioneer_capacity, cell.neighbour_shares,
                    self.filter)]

    def _auction(self, cell):
        """The engine's momd auction on the bidders the filter admits, and
        at K=1 the somd auction on the same bidders; returns (segments to
        allocate, momd outcome, somd outcome or None)."""
        admitted = self._admitted(cell)
        bids = [strategy.build_momd_bid(p, s, cell.sf, cell.k,
                                        max_segments=cap)
                for p, s, cap in admitted]
        k_eff = min(cell.k, sum(b.max_segments for b in bids))
        outcome = momd.resolve_vickrey_score(bids, cell.sf, k_eff)
        second = None
        if cell.k == 1 and len(admitted) > 1:
            second = somd.resolve_second_score(
                [somd.optimal_somd_bid(p, s, cell.sf)
                 for p, s, _ in admitted], cell.sf)
        return k_eff, outcome, second


WORKLOADS = {w.name: w for w in (CanonicalMix, DenseGroup, MobileGroup,
                                 AuctionGrid)}
