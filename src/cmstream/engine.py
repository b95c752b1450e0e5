"""Deterministic trace-driven simulator for cooperative segment downloading.

Each user auctions its cellular link's next K segment-download slots whenever
the link is free; bids, allocations and payments come from the auction
modules, downloads run against the capacity trace, and buffers drain in real
time. A single run is strictly sequential and reproducible: identical
(config, traces, seed) give an identical event log.

Every mechanism runs one path: build the bids, resolve them, then book and
log the outcome. Bids are priced at true utility (floored at 0 in momd), at
the bitrates of the ``optimal`` adaptation policy or of ``baseline_bitrate``:

    mechanism       bid                       resolver               score
    momd            headroom-capped matrix    resolve_vickrey_score  efficient
    somd            one bitrate               resolve_second_score   efficient
    vickrey_1d      one bitrate               resolve_second_score   zero
    noncooperative  one bitrate, auctioneer   resolve_second_score   efficient

The resolvers price every bid, a lone one too (its second score is 0); the
engine keeps one rule: the auctioneer's own lone single-bitrate bid is free.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .model import UserProfile, UserState, lsum, utility_total
from .momd import MomdBid, resolve_vickrey_score
from .somd import (
    ScoreFunction,
    SomdBid,
    optimal_somd_bid,
    resolve_second_score,
)
from .strategy import (
    AdaptationPolicy,
    ParticipationConfig,
    baseline_bitrate,
    baseline_momd_bid,
    build_momd_bid,
    participates,
)
from .traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    degradation_ratio,
)

MECHANISMS = ("somd", "momd", "vickrey_1d", "noncooperative")
SINGLE_SEGMENT = ("somd", "vickrey_1d")  # mechanisms that need K=1

CAPACITY_WINDOW = 3  # completed downloads feeding the capacity estimate
IDLE_RETRY_S = 1.0  # an auctioneer with no bidder polls again after this


class SimulationHorizonError(TraceUnderrunError):
    """The run went past its horizon guard without every video finishing."""


@dataclass(frozen=True)
class SimConfig:
    users: Tuple[UserProfile, ...]
    K: int = 1
    mechanism: str = "momd"
    adaptation: AdaptationPolicy = AdaptationPolicy()
    participation: ParticipationConfig = ParticipationConfig()
    participation_enabled: bool = False
    video_length_s: float = 100.0
    overhead_energy_per_auction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.users:
            raise ValueError("need at least one user")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.mechanism in SINGLE_SEGMENT and self.K != 1:
            raise ValueError(f"{self.mechanism} requires K=1")
        for name in ("video_length_s", "overhead_energy_per_auction"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate user ids")
        for u in self.users:
            beta = u.ladder.segment_length_s
            n = self.video_length_s / beta
            if abs(n - round(n)) > 1e-9:
                raise ValueError(
                    f"video_length_s must be a multiple of user {u.user_id}'s "
                    f"segment length")


@dataclass(frozen=True)
class SimEvent:
    time_s: float
    kind: str
    payload: Dict[str, object]

    def as_row(self) -> Dict[str, object]:
        return {"time_s": self.time_s, "kind": self.kind,
                "payload": json.dumps(self.payload, sort_keys=True)}


@dataclass
class UserResult:
    user_id: str
    welfare: float
    utility: float
    cost: float
    payments_made: float
    payments_received: float
    overhead_energy: float
    average_bitrate_mbps: float
    rebuffer_s: float
    rebuffer_ratio: float
    degradation_volume_mbps: float
    degradation_ratio: float


@dataclass
class SimResult:
    per_user: Dict[str, UserResult]
    social_welfare: float
    rebuffer_ratio: float
    degradation_ratio: float
    auction_count: int
    assumption1_violations: int
    events: Tuple[SimEvent, ...]

    def per_user_rows(self) -> List[Dict[str, object]]:
        return [asdict(r) for r in self.per_user.values()]

    def aggregate_row(self) -> Dict[str, object]:
        return {
            "social_welfare": self.social_welfare,
            "rebuffer_ratio": self.rebuffer_ratio,
            "degradation_ratio": self.degradation_ratio,
            "auction_count": self.auction_count,
            "assumption1_violations": self.assumption1_violations,
        }


class _UserSim:
    """Mutable per-user simulation state."""

    def __init__(self, profile: UserProfile, total_segments: int,
                 initial_capacity: float):
        self.profile = profile
        self.total_segments = total_segments
        self.buffer_s = 0.0
        self.prev_bitrate = 0.0
        self.played_s = 0.0
        self.stall_s = 0.0
        self.stalling = False
        self.started = False
        self.completed = total_segments == 0
        self.last_update = 0.0
        self.next_seq = 0        # segments assigned so far
        self.pending = 0         # assigned but not yet delivered
        self.received: List[Tuple[int, float]] = []
        self.capacity_window = deque([initial_capacity], maxlen=CAPACITY_WINDOW)
        self.utility = 0.0
        self.cost = 0.0
        self.payments_made = 0.0
        self.payments_received = 0.0
        self.auctions_initiated = 0

    @property
    def remaining_to_assign(self) -> int:
        return self.total_segments - self.next_seq

    def capacity_estimate(self) -> float:
        return lsum(self.capacity_window) / len(self.capacity_window)

    def headroom_segments(self) -> int:
        ladder = self.profile.ladder
        return (math.floor((ladder.max_buffer_s - self.buffer_s)
                           / ladder.segment_length_s + 1e-9) - self.pending)

    def state(self) -> UserState:
        return UserState(buffer_s=self.buffer_s,
                         prev_bitrate=self.prev_bitrate)


class _Simulation:
    def __init__(self, cfg: SimConfig, capacity: CapacityTrace,
                 encounters: EncounterTrace):
        self.cfg = cfg
        self.capacity = capacity
        self.encounters = encounters
        self.events: List[SimEvent] = []
        self.queue: List[Tuple[float, int, str, tuple]] = []
        self._seq = 0
        self.auction_count = 0
        self.assumption1_violations = 0
        self.users: Dict[str, _UserSim] = {}
        for profile in cfg.users:
            beta = profile.ladder.segment_length_s
            total = round(cfg.video_length_s / beta)
            self.users[profile.user_id] = _UserSim(
                profile, total, capacity.capacity_at(profile.user_id, 0.0))
        self.unassigned = sum(u.total_segments for u in self.users.values())
        self.horizon_guard = cfg.video_length_s * 100 + 1000.0
        self._rewind()

    # -- event plumbing ----------------------------------------------------

    def _push(self, t: float, kind: str, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (t, self._seq, kind, data))

    def _log(self, t: float, kind: str, **payload) -> None:
        self.events.append(SimEvent(time_s=t, kind=kind, payload=payload))

    # -- playback/buffer dynamics -----------------------------------------

    def _advance(self, uid: str, t: float) -> None:
        u = self.users[uid]
        if t < u.last_update:
            raise AssertionError("time went backwards")
        if not u.started or u.completed:
            u.last_update = t
            return
        elapsed = t - u.last_update
        if u.stalling:
            u.stall_s += elapsed
            u.last_update = t
            return
        remaining_play = self.cfg.video_length_s - u.played_s
        drain = min(elapsed, u.buffer_s, remaining_play)
        u.played_s += drain
        u.buffer_s -= drain
        moment = u.last_update + drain
        if remaining_play - drain <= 1e-12:
            u.completed = True
            self._log(moment, "video_complete", user=uid)
        elif u.buffer_s <= 1e-12 and elapsed - drain > 1e-12:
            u.buffer_s = 0.0
            u.stalling = True
            self._log(moment, "playback_stall_start", user=uid)
            u.stall_s += t - moment
        u.last_update = t

    def _deliver(self, t: float, uid: str, bitrate: float, seq_no: int,
                 downloader: str) -> None:
        self._advance(uid, t)
        u = self.users[uid]
        beta = u.profile.ladder.segment_length_s
        u.buffer_s += beta
        u.prev_bitrate = bitrate
        u.pending -= 1
        u.received.append((seq_no, bitrate))
        u.started = True
        if u.stalling:
            u.stalling = False
            self._log(t, "playback_stall_end", user=uid)
        self._log(t, "segment_delivered", user=uid, downloader=downloader,
                  bitrate=bitrate, seq=seq_no)

    # -- auctions ----------------------------------------------------------

    def _rewind(self) -> None:
        """Hold every user's neighbourhood (the users it encounters, itself
        included) as it stands before any trace change, with a heap of
        cursors over the changes still to come, one per pair over its
        toggles. Capacities join on the first share-sum build."""
        users = self.users
        default = self.encounters.default_connected
        self._now = -math.inf
        self._nbrs = {i: set(users) if default else {i} for i in users}
        self._caps: Optional[Dict[str, float]] = None
        self._sums: Optional[Dict[str, float]] = None
        # (time of the next change, unique tiebreak, the changes, index of
        # the next one, user or pair (a, b)); b is None for a capacity
        cursors = []
        for (a, b), events in self.encounters.toggles.items():
            # a toggled pair is out of range before its first toggle
            self._nbrs[a].discard(b)
            self._nbrs[b].discard(a)
            if events:
                cursors.append((events[0][0], len(cursors), events, 0, a, b))
        heapq.heapify(cursors)
        self._cursors = cursors

    def _hold_capacities(self) -> None:
        """Hold every user's capacity from now on, with one cursor per user
        over its breakpoints. Only the participation filter reads
        capacities, so a run without it never pays for crossing them."""
        self._caps = {}
        for i in self.users:
            points = self.capacity.breakpoints[i]
            self._caps[i] = points[0][1]
            if len(points) > 1:
                # negative tiebreaks stay apart from the pairs' ones
                heapq.heappush(self._cursors, (points[1][0], -len(self._caps),
                                               points, 1, i, None))
        self._seek(self._now)

    def _seek(self, t: float) -> None:
        """Bring the held neighbourhoods and capacities to t: apply every
        trace change at or before t, each in force from its own time on."""
        if t < self._now:
            self._rewind()
        self._now = t
        cursors = self._cursors
        if not cursors or cursors[0][0] > t:
            return
        self._sums = None
        nbrs, caps = self._nbrs, self._caps
        while cursors and cursors[0][0] <= t:
            _, n, events, k, a, b = cursors[0]
            value = events[k][1]
            if b is None:
                caps[a] = value
            elif value:
                nbrs[a].add(b)
                nbrs[b].add(a)
            else:
                nbrs[a].discard(b)
                nbrs[b].discard(a)
            k += 1
            if k < len(events):
                heapq.heapreplace(cursors, (events[k][0], n, events, k, a, b))
            else:
                heapq.heappop(cursors)

    def _share_sums(self, t: float) -> Dict[str, float]:
        """For every user, the sum over the users it encounters, in user
        order, of the capacity each would allot it under an even split
        across that user's own neighborhood.

        Built from the held state, and again only after a trace change."""
        self._seek(t)
        if self._caps is None:
            self._hold_capacities()
        if self._sums is None:
            nbrs = self._nbrs
            share = {i: h / len(nbrs[i]) for i, h in self._caps.items()}
            self._sums = {i: lsum(share[j] for j in share if j in nbrs[i])
                          for i in share}
        return self._sums

    def _candidate_bidders(self, auctioneer: str, t: float) -> List[str]:
        cfg = self.cfg
        filtering = (cfg.participation_enabled
                     and cfg.mechanism != "noncooperative")
        self._seek(t)
        nearby = self._nbrs[auctioneer]
        sums = None
        out = []
        for uid, u in self.users.items():
            if cfg.mechanism == "noncooperative" and uid != auctioneer:
                continue
            if uid not in nearby:
                continue
            if u.remaining_to_assign <= 0:
                continue
            self._advance(uid, t)
            if u.headroom_segments() <= 0:
                continue
            if filtering:
                if sums is None:
                    sums = self._share_sums(t)
                    h_n = self._caps[auctioneer]
                if not participates(u.profile.ladder.segment_length_s,
                                    u.buffer_s, u.prev_bitrate, h_n,
                                    sums[uid], cfg.participation):
                    continue
            out.append(uid)
        return out

    def _ready(self, t: float, auctioneer: str) -> None:
        if t > self.horizon_guard:
            raise SimulationHorizonError(
                f"simulation horizon exceeded at t={t:.1f}; likely a trace "
                f"underrun or permanently refused auctions")
        auc = self.users[auctioneer]
        self._advance(auctioneer, t)
        bidders = self._candidate_bidders(auctioneer, t)
        if not bidders:
            if self.unassigned:
                self._push(t + IDLE_RETRY_S, "ready", (auctioneer,))
            return

        h_est = auc.capacity_estimate()
        eff_cost = (auc.profile.cost_per_mbit
                    + (auc.profile.link_cost_per_s / h_est if h_est > 0
                       else 0.0))
        eff_profile = replace(auc.profile, cost_per_mbit=eff_cost)
        sf = ScoreFunction.efficient(eff_profile)

        allocation = self._resolve(t, auctioneer, bidders, sf, h_est)

        # Sequential downloads on the auctioneer's link, then the next auction.
        cursor = t
        for uid, bitrate in allocation:
            receiver = self.users[uid]
            beta = receiver.profile.ladder.segment_length_s
            start = cursor
            cursor = self.capacity.finish_time(auctioneer, start, bitrate * beta)
            realized_cost = (auc.profile.cost_per_mbit * bitrate * beta
                            + auc.profile.link_cost_per_s * (cursor - start))
            auc.cost += realized_cost
            avg_capacity = bitrate * beta / (cursor - start)
            auc.capacity_window.append(avg_capacity)
            seq_no = receiver.next_seq
            receiver.next_seq += 1
            self.unassigned -= 1
            receiver.pending += 1
            self._push(cursor, "deliver", (uid, bitrate, seq_no, auctioneer))
            self._log(cursor, "segment_downloaded", downloader=auctioneer,
                      receiver=uid, bitrate=bitrate, seq=seq_no)
        self._push(cursor, "ready", (auctioneer,))

    def _resolve(self, t: float, auctioneer: str, bidders: List[str],
                 sf: ScoreFunction, h_est: float,
                 ) -> List[Tuple[str, float]]:
        """Run one auction; returns the download order as (receiver, bitrate)
        pairs and books utilities and payments."""
        cfg = self.cfg
        auc = self.users[auctioneer]
        cooperative = cfg.mechanism != "noncooperative"
        if cooperative:
            self.auction_count += 1
            auc.auctions_initiated += 1
        self._log(t, "auction_start", auctioneer=auctioneer,
                  mechanism=cfg.mechanism,
                  **({"bidders": sorted(bidders)} if cooperative else {}))
        bids = [self._bid(self.users[uid], sf, h_est) for uid in bidders]

        if cfg.mechanism == "momd":
            k_eff = min(cfg.K, sum(b.max_segments for b in bids))
            outcome = resolve_vickrey_score(bids, sf, k_eff)
            self.assumption1_violations += len(outcome.assumption_violations)
            rates_iter = {uid: iter(rates)
                          for uid, rates in outcome.winning_bitrates.items()}
            order = [(uid, next(rates_iter[uid]))
                     for uid in outcome.per_segment_winners]
            won = {uid: (outcome.winning_bitrates[uid], outcome.payments[uid])
                   for uid, kappa in outcome.revised_allocation.items()
                   if kappa}
        else:
            if cfg.mechanism == "vickrey_1d":
                sf = ScoreFunction.zero()
            outcome = resolve_second_score(bids, sf)
            winner, bitrate = outcome.winner_id, outcome.winning_bitrate
            # a lone auctioneer downloads over its own link and pays nothing
            payment = 0.0 if bidders == [auctioneer] else outcome.payment
            order = [(winner, bitrate)]
            won = {winner: ((bitrate,), payment)}

        # bidder order: the float sum into payments_received depends on it
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

    def _bid(self, u: _UserSim, sf: ScoreFunction,
             h_est: float) -> Union[MomdBid, SomdBid]:
        """u's bid: a segment-capped bitrate matrix for momd, one bitrate for
        the single-segment mechanisms; the adaptation policy picks the rates
        and a baseline policy bids at the auctioneer's capacity estimate."""
        cfg = self.cfg
        state = u.state()
        if cfg.mechanism == "momd":
            cap = min(u.remaining_to_assign, u.headroom_segments())
            if cfg.adaptation.kind == "optimal":
                return build_momd_bid(u.profile, state, sf, cfg.K,
                                      max_segments=cap)
            return baseline_momd_bid(cfg.adaptation, u.profile, state, h_est,
                                     cfg.K, max_segments=cap)
        if cfg.adaptation.kind == "optimal":
            return optimal_somd_bid(u.profile, state, sf)
        r = baseline_bitrate(cfg.adaptation, state, h_est, u.profile.ladder)
        return SomdBid(u.profile.user_id, r,
                       utility_total(u.profile, state, (r,)))

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        for uid in self.users:
            self._push(0.0, "ready", (uid,))
        while self.queue:
            t, _, kind, data = heapq.heappop(self.queue)
            if kind == "ready":
                self._ready(t, data[0])
            elif kind == "deliver":
                self._deliver(t, data[0], data[1], data[2], data[3])
        # Flush remaining playback; everything is delivered, so no more stalls.
        for uid, u in self.users.items():
            if u.started and not u.completed:
                end = u.last_update + (self.cfg.video_length_s - u.played_s)
                self._advance(uid, end)
        return self._result()

    def _result(self) -> SimResult:
        cfg = self.cfg
        per_user: Dict[str, UserResult] = {}
        total_stall = 0.0
        total_video = 0.0
        total_drops = 0.0
        total_rate_volume = 0.0
        social = 0.0
        for uid, u in self.users.items():
            rates = [r for _, r in sorted(u.received)]
            volume = lsum(rates)
            overhead = u.auctions_initiated * cfg.overhead_energy_per_auction
            w = (u.utility - u.cost - overhead
                 + u.payments_received - u.payments_made)
            drops = lsum(max(a - b, 0.0) for a, b in zip(rates, rates[1:]))
            per_user[uid] = UserResult(
                user_id=uid,
                welfare=w,
                utility=u.utility,
                cost=u.cost,
                payments_made=u.payments_made,
                payments_received=u.payments_received,
                overhead_energy=overhead,
                average_bitrate_mbps=volume / len(rates) if rates else 0.0,
                rebuffer_s=u.stall_s,
                rebuffer_ratio=(u.stall_s / cfg.video_length_s
                                if u.total_segments else 0.0),
                degradation_volume_mbps=drops,
                degradation_ratio=degradation_ratio(rates),
            )
            social += w
            total_stall += u.stall_s
            total_video += cfg.video_length_s if u.total_segments else 0.0
            total_drops += drops
            total_rate_volume += volume
        return SimResult(
            per_user=per_user,
            social_welfare=social,
            rebuffer_ratio=total_stall / total_video if total_video else 0.0,
            degradation_ratio=(total_drops / total_rate_volume
                               if total_rate_volume else 0.0),
            auction_count=self.auction_count,
            assumption1_violations=self.assumption1_violations,
            events=tuple(self.events),
        )


def run_simulation(cfg: SimConfig, capacity: CapacityTrace,
                   encounters: Optional[EncounterTrace] = None) -> SimResult:
    """Run one deterministic simulation against the given traces, which
    must cover every user and name no other."""
    if encounters is None:
        encounters = EncounterTrace()
    ids = {u.user_id for u in cfg.users}
    for u in cfg.users:
        if u.user_id not in capacity.breakpoints:
            raise TraceUnderrunError(f"no capacity trace for user {u.user_id}")
    for pair in encounters.toggles:
        if not ids.issuperset(pair):
            raise TraceParseError(f"encounter pair {pair} names a user the "
                                  f"config does not simulate")
    return _Simulation(cfg, capacity, encounters).run()


@dataclass
class ComparisonTable:
    columns: Tuple[str, ...]
    rows: List[Dict[str, object]]


def run_comparison(
    cells: Sequence[Tuple[str, SimConfig]],
    trace_generator: Callable[[int], Tuple[CapacityTrace, EncounterTrace]],
    replications: int,
    base_seed: int = 0,
) -> ComparisonTable:
    """Run each labelled config over shared per-replication traces and
    aggregate means (common random numbers across cells). A label given
    twice, or fewer than one replication, is a ValueError, raised before
    any simulation runs."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    labels = [label for label, _ in cells]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"cell {label!r} is repeated in the comparison")
    metrics = ("social_welfare", "rebuffer_ratio", "degradation_ratio",
               "auction_count", "average_bitrate_mbps")
    sums = {label: dict.fromkeys(metrics, 0.0) for label in labels}
    for rep in range(replications):
        capacity, encounters = trace_generator(base_seed + rep)
        for label, cfg in cells:
            res = run_simulation(cfg, capacity, encounters)
            row = res.aggregate_row()
            rates = [r.average_bitrate_mbps for r in res.per_user.values()
                     if r.average_bitrate_mbps > 0]
            row["average_bitrate_mbps"] = (lsum(rates) / len(rates)
                                           if rates else 0.0)
            s = sums[label]
            for k in metrics:
                s[k] += row[k]
    rows = [{"cell": label, **{k: v / replications for k, v in s.items()}}
            for label, s in sums.items()]
    return ComparisonTable(columns=("cell",) + metrics, rows=rows)
