"""Deterministic trace-driven simulator for cooperative segment downloading.

Each user auctions its cellular link's next K segment-download slots whenever
the link is free; bids, allocations and payments come from the auction
modules, downloads run against the capacity trace, and buffers drain in real
time. A single run is strictly sequential and reproducible: identical
(config, traces, seed) give an identical event log. Its held trace state
only moves forward, to the time of each auction.

Every mechanism runs one path: ``build_momd_bid`` bids, capped at the
segments admission allows each bidder and priced at true utility floored at 0;
``resolve_vickrey_score`` resolves; the engine books and logs. somd,
vickrey_1d and noncooperative are momd at K = 1. vickrey_1d resolves with
``ScoreFunction.zero()``, the others with the auctioneer's efficient score
function. Under a baseline adaptation policy a bidder's ladder holds only
the rate ``baseline_bitrate`` picks. noncooperative runs over self-only
neighbourhoods with the filter off, so the auctioneer bids alone. Two rules
stay keyed on the mechanism: only momd counts Assumption-1 violations, and
only momd charges a lone auctioneer for its own download.

A winner's utility is booked from its bid: a row's price above 0 is
``utility_total`` of the won rates bit for bit, so only a row whose price
was floored to 0 is computed again. Each auction makes its own score
function, which keeps the bid rows its bidders share as long as it lives.

An auction's candidate scan advances a user only while it has something to
play, and at most once per instant: a user with nothing received yet, or
one already brought to that instant, is left as it is, because advancing
it would change no figure and log nothing.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from collections import deque
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import UserProfile, UserState, lsum, utility_total
from .momd import MomdBid, resolve_vickrey_score
from .somd import ScoreFunction
from .strategy import (
    AdaptationPolicy,
    ParticipationConfig,
    baseline_bitrate,
    build_momd_bid,
    participates,
)
from .traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    degradation_volume,
)

MECHANISMS = ("somd", "momd", "vickrey_1d", "noncooperative")
SINGLE_SEGMENT = ("somd", "vickrey_1d")  # mechanisms that need K=1

CAPACITY_WINDOW = 3  # completed downloads feeding the capacity estimate
IDLE_RETRY_S = 1.0  # an auctioneer with no bidder polls again after this


def _payload_encoder() -> Callable[[Dict[str, object]], str]:
    """json.dumps(payload, sort_keys=True) with its C encoder built once,
    as JSONEncoder.iterencode builds it on every call. A payload is an
    acyclic dict that _log builds, so leaving out the cycle check
    (markers=None) changes no byte. Without the C accelerator this is
    JSONEncoder.encode."""
    enc = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    chunks = make(None, enc.default, json.encoder.encode_basestring_ascii,
                  None, enc.key_separator, enc.item_separator, enc.sort_keys,
                  enc.skipkeys, enc.allow_nan)
    return lambda payload: "".join(chunks(payload, 0))


_encode_payload = _payload_encoder()


class SimulationHorizonError(TraceUnderrunError):
    """The run went past its horizon guard without every video finishing."""


def auction_score(profile: UserProfile, h_est: float,
                  t: float) -> ScoreFunction:
    """The score function of an auction the user runs at time t: one
    segment's downloading cost at the user's effective per-Mbit cost, which
    adds its link cost per second over its capacity estimate h_est (no link
    term at h_est = 0). UserProfile keeps a top-rate segment's cost finite
    at any estimate of 1 Mbps or more; an estimate so small that it
    overflows is a trace fault, raised as TraceUnderrunError."""
    eff_cost = (profile.cost_per_mbit
                + (profile.link_cost_per_s / h_est if h_est > 0 else 0.0))
    beta = profile.ladder.segment_length_s
    top = eff_cost * profile.ladder.top_rate * beta
    if not math.isfinite(top):
        raise TraceUnderrunError(
            f"auctioneer {profile.user_id} at t={t}: capacity estimate "
            f"{h_est!r} makes the cost of a top-rate segment {top}")
    return ScoreFunction.per_mbit(eff_cost, beta)


def horizon_guard(video_length_s: float) -> float:
    """The simulated time past which a run is refused as never ending."""
    return video_length_s * 100 + 1000.0


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
        guard = horizon_guard(self.video_length_s)
        if not math.isfinite(guard):
            raise ValueError(f"video_length_s {self.video_length_s!r} makes "
                             f"the run's horizon guard {guard}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate user ids")
        for u in self.users:
            beta = u.ladder.segment_length_s
            n = self.video_length_s / beta
            if not math.isfinite(n):
                raise ValueError(
                    f"user {u.user_id}: video_length_s {self.video_length_s!r}"
                    f" over segment_length_s {beta!r} makes {n} segments")
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
                "payload": _encode_payload(self.payload)}


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
        # a UserResult holds only strs and floats: a shallow copy of its
        # fields, in field order, is what dataclasses.asdict gives
        return [vars(r).copy() for r in self.per_user.values()]

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
        self.segment_length_s = profile.ladder.segment_length_s
        self.max_buffer_s = profile.ladder.max_buffer_s
        self.total_segments = total_segments
        self.buffer_s = 0.0
        self.prev_bitrate = 0.0
        self.played_s = 0.0
        self.stall_s = 0.0
        self.stalling = False
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
        # a baseline policy's rate -> the profile on a ladder of it alone
        self.one_rate_profiles: Dict[float, UserProfile] = {}

    def capacity_estimate(self) -> float:
        return lsum(self.capacity_window) / len(self.capacity_window)

    def headroom_segments(self) -> int:
        return (math.floor((self.max_buffer_s - self.buffer_s)
                           / self.segment_length_s + 1e-9) - self.pending)

    def state(self) -> UserState:
        # a fresh snapshot, not self: a bid keeps the state it was built
        # from, and a recorder of the engine's bids replays them with it
        return UserState(buffer_s=self.buffer_s,
                         prev_bitrate=self.prev_bitrate)


class _HeldTrace:
    """The traces as they stand at the instant of the last seek: every
    user's neighbourhood (the users it encounters, itself included) as a
    mask over the users in user order, and every user's capacity. A heap
    of cursors holds the changes still to come, one per pair over its
    toggles and one per user over its breakpoints. No seek goes back: the
    engine's events are pushed at or after the current time, and its heap
    pops them in time order."""

    def __init__(self, place: Dict[str, int], encounters: EncounterTrace,
                 capacity: CapacityTrace):
        if encounters.default_connected:
            nbrs = {i: bytearray(b"\1") * len(place) for i in place}
        else:
            nbrs = {i: bytearray(len(place)) for i in place}
            for i, k in place.items():
                nbrs[i][k] = 1
        # (time of the next change, unique tiebreak, the changes, index of
        # the next one, user or pair (a, b)); b is None for a capacity
        cursors = []
        for (a, b), events in encounters.toggles.items():
            # a toggled pair is out of range before its first toggle
            nbrs[a][place[b]] = nbrs[b][place[a]] = 0
            if events:
                cursors.append((events[0][0], len(cursors), events, 0, a, b))
        self.caps = {}
        for i in place:
            points = capacity.breakpoints[i]
            self.caps[i] = points[0][1]
            if len(points) > 1:
                cursors.append((points[1][0], len(cursors), points, 1, i,
                                None))
        heapq.heapify(cursors)
        self.nbrs, self._cursors, self._place = nbrs, cursors, place
        # the epoch's shares, one per user in user order, and its rows
        self._shares, self._sums = None, {}

    def seek(self, t: float) -> None:
        """Bring the held state forward to t: apply every trace change at
        or before t, each in force from its own time on."""
        cursors = self._cursors
        if not cursors or cursors[0][0] > t:
            return
        self._shares, self._sums = None, {}
        nbrs, caps, place = self.nbrs, self.caps, self._place
        while cursors and cursors[0][0] <= t:
            _, n, events, k, a, b = cursors[0]
            value = events[k][1]
            if b is None:
                caps[a] = value
            else:
                nbrs[a][place[b]] = nbrs[b][place[a]] = value
            k += 1
            if k < len(events):
                heapq.heapreplace(cursors, (events[k][0], n, events, k, a, b))
            else:
                heapq.heappop(cursors)

    def share_sum(self, uid: str) -> float:
        """The sum over the users uid encounters, in user order, of the
        capacity each would allot it under an even split across that
        user's own neighbourhood. The shares are taken once per trace
        epoch, and a user's sum when it is first read."""
        row = self._sums.get(uid)
        if row is None:
            if self._shares is None:
                self._shares = [h / mask.count(1) for h, mask in
                                zip(self.caps.values(), self.nbrs.values())]
            row = self._sums[uid] = lsum(compress(self._shares,
                                                  self.nbrs[uid]))
        return row


class _Simulation:
    def __init__(self, cfg: SimConfig, capacity: CapacityTrace,
                 encounters: EncounterTrace):
        self.cfg = cfg
        self.capacity = capacity
        self.events: List[SimEvent] = []
        self.queue: List[Tuple[float, int, str, tuple]] = []
        self._seq = 0
        self.assumption1_violations = 0
        self.users: Dict[str, _UserSim] = {}
        for profile in cfg.users:
            beta = profile.ladder.segment_length_s
            total = round(cfg.video_length_s / beta)
            self.users[profile.user_id] = _UserSim(
                profile, total, capacity.capacity_at(profile.user_id, 0.0))
        # users in user order, each user's place in it, and a mask over it
        # of the users with segments still to assign
        self._members = list(self.users.items())
        self._place = {uid: k for k, uid in enumerate(self.users)}
        self._open = bytearray(u.total_segments > 0
                               for u in self.users.values())
        self.horizon_guard = horizon_guard(cfg.video_length_s)
        # a noncooperative user bids alone, over a self-only neighbourhood
        self._cooperative = cfg.mechanism != "noncooperative"
        self._momd = cfg.mechanism == "momd"
        self._bid_k = cfg.K if self._momd else 1
        self._filtering = self._cooperative and cfg.participation_enabled
        self._held = _HeldTrace(
            self._place,
            encounters if self._cooperative
            else EncounterTrace(default_connected=False), capacity)

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
        if not u.received or u.completed:
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
        u.buffer_s += u.segment_length_s
        u.prev_bitrate = bitrate
        u.pending -= 1
        u.received.append((seq_no, bitrate))
        if u.stalling:
            u.stalling = False
            self._log(t, "playback_stall_end", user=uid)
        self._log(t, "segment_delivered", user=uid, downloader=downloader,
                  bitrate=bitrate, seq=seq_no)

    # -- auctions ----------------------------------------------------------

    def _candidate_bidders(self, auctioneer: str, t: float) -> Dict[str, int]:
        """The users that bid in an auction the auctioneer runs at t, in
        user order, each to its cap: its segments to assign or its room to
        buffer, the fewer. A user bids if it is encountered, its cap is
        above 0 and it passes the participation filter when that is on.

        A candidate is brought to t first, but only where ``_advance``
        could change its state or the log; each skip is exact:
        - with nothing received, the advance only sets ``last_update``,
          which nothing reads before the first delivery, and ``_deliver``
          advances the user itself;
        - already at t, it would add 0.0 to ``stall_s`` or drain 0.0 with
          more than a segment of video left to play, since a candidate
          still has a segment to assign.
        The other advances run in user order, so events keep their
        places in the log."""
        held = self._held
        held.seek(t)
        nearby = compress(self._members, map(
            operator.and_, held.nbrs[auctioneer], self._open))
        if self._filtering:
            h_n = held.caps[auctioneer]
        out = {}
        for uid, u in nearby:
            if u.received and u.last_update != t:
                self._advance(uid, t)
            room = u.headroom_segments()
            if room <= 0:
                continue
            if self._filtering and not participates(
                    u.segment_length_s, u.buffer_s, u.prev_bitrate, h_n,
                    held.share_sum(uid), self.cfg.participation):
                continue
            out[uid] = min(u.total_segments - u.next_seq, room)
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
            if 1 in self._open:
                self._push(t + IDLE_RETRY_S, "ready", (auctioneer,))
            return

        h_est = auc.capacity_estimate()
        sf = auction_score(auc.profile, h_est, t)
        allocation = self._resolve(t, auctioneer, bidders, sf, h_est)

        # Sequential downloads on the auctioneer's link, then the next auction.
        cursor = t
        for uid, bitrate in allocation:
            receiver = self.users[uid]
            beta = receiver.segment_length_s
            start, volume = cursor, bitrate * beta
            cursor = self.capacity.finish_time(auctioneer, start, volume)
            if cursor == start:
                raise TraceUnderrunError(
                    f"auctioneer {auctioneer} at t={t}: a download of "
                    f"{volume!r} Mbit from t={start} ends at its start time")
            realized_cost = (auc.profile.cost_per_mbit * bitrate * beta
                            + auc.profile.link_cost_per_s * (cursor - start))
            auc.cost += realized_cost
            avg_capacity = volume / (cursor - start)
            auc.capacity_window.append(avg_capacity)
            seq_no = receiver.next_seq
            receiver.next_seq += 1
            if receiver.next_seq == receiver.total_segments:
                self._open[self._place[uid]] = 0
            receiver.pending += 1
            self._push(cursor, "deliver", (uid, bitrate, seq_no, auctioneer))
            self._log(cursor, "segment_downloaded", downloader=auctioneer,
                      receiver=uid, bitrate=bitrate, seq=seq_no)
        self._push(cursor, "ready", (auctioneer,))

    def _resolve(self, t: float, auctioneer: str, bidders: Dict[str, int],
                 sf: ScoreFunction, h_est: float,
                 ) -> List[Tuple[str, float]]:
        """Run one auction among bidder -> cap; returns the download order
        as (receiver, bitrate) pairs and books utilities and payments."""
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
        score = ScoreFunction.zero() if cfg.mechanism == "vickrey_1d" else sf
        outcome = resolve_vickrey_score(
            bids, score, min(self._bid_k, sum(b.max_segments for b in bids)))
        if self._momd:
            self.assumption1_violations += len(outcome.assumption_violations)
        rates_iter = {uid: iter(rates)
                      for uid, rates in outcome.winning_bitrates.items()}
        order = [(uid, next(rates_iter[uid]))
                 for uid in outcome.per_segment_winners]
        # a lone auctioneer of a single-segment mechanism downloads over its
        # own link and pays nothing
        free = not self._momd and list(bidders) == [auctioneer]
        # book in bidder order, which the float sum into payments_received
        # depends on. A bid's price is its true utility, bit for bit, unless
        # it was floored to 0; only then is the utility computed again
        winners, payments = {}, {}
        for uid, bid in zip(bidders, bids):
            kappa = outcome.revised_allocation[uid]
            if not kappa:
                continue
            u = self.users[uid]
            rates = outcome.winning_bitrates[uid]
            utility = bid.price_vector[kappa - 1]
            if not utility > 0.0:
                utility = utility_total(u.profile, u.state(), rates)
            payment = 0.0 if free else outcome.payments[uid]
            u.utility += utility
            u.payments_made += payment
            auc.payments_received += payment
            winners[uid], payments[uid] = len(rates), payment
        resolved = {"winners": winners}
        if cooperative:
            resolved["payments"] = payments
        self._log(t, "auction_resolved", auctioneer=auctioneer, **resolved)
        return order

    def _bid(self, u: _UserSim, cap: int, sf: ScoreFunction,
             h_est: float) -> MomdBid:
        """u's optimal bid: a bitrate matrix of at most K rows for momd and
        one row for the other mechanisms, with no row past cap. Under a
        baseline policy u bids on a ladder that holds only the rate the
        policy picks at the auctioneer's capacity estimate h_est."""
        profile, state = u.profile, u.state()
        if self.cfg.adaptation.kind != "optimal":
            rate = baseline_bitrate(self.cfg.adaptation, state, h_est,
                                    profile.ladder)
            profile = u.one_rate_profiles.get(rate)
            if profile is None:  # built once per user and rate in a run
                profile = u.one_rate_profiles[rate] = replace(
                    u.profile, ladder=replace(u.profile.ladder, rates=(rate,)))
        return build_momd_bid(profile, state, sf, self._bid_k,
                              max_segments=cap)

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
            if u.received and not u.completed:
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
            # each segment's terms are finite; their sums over a run can
            # still overflow
            if not math.isfinite(w):
                raise ValueError(f"user {uid}: welfare {w} over the run is "
                                 "not finite; the config's values overflow")
            drops = degradation_volume(rates)
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
                degradation_ratio=drops / volume if volume else 0.0,
            )
            social += w
            total_stall += u.stall_s
            total_video += cfg.video_length_s if u.total_segments else 0.0
            total_drops += drops
            total_rate_volume += volume
        if not math.isfinite(social):
            raise ValueError(f"social welfare {social} over the run is not "
                             "finite; the config's values overflow")
        return SimResult(
            per_user=per_user,
            social_welfare=social,
            rebuffer_ratio=total_stall / total_video if total_video else 0.0,
            degradation_ratio=(total_drops / total_rate_volume
                               if total_rate_volume else 0.0),
            auction_count=sum(u.auctions_initiated
                              for u in self.users.values()),
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
    any simulation runs. A cell's mean that is not finite, though every
    run's metrics are, is a ValueError raised once all have run."""
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
            rates = [r.average_bitrate_mbps for r in res.per_user.values()]
            row["average_bitrate_mbps"] = lsum(rates) / len(rates)
            s = sums[label]
            for k in metrics:
                s[k] += row[k]
    rows = [{"cell": label, **{k: v / replications for k, v in s.items()}}
            for label, s in sums.items()]
    for row in rows:
        for k in metrics:
            # every run's metrics are finite; their sum can still overflow
            if not math.isfinite(row[k]):
                raise ValueError(f"cell {row['cell']!r}: mean {k} {row[k]} "
                                 f"over {replications} replications is not "
                                 f"finite; the config's values overflow")
    return ComparisonTable(columns=("cell",) + metrics, rows=rows)
