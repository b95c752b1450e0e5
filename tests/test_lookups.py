"""The bisecting trace lookups and the engine's epoch-held neighbourhood
against the linear scans and per-instant builds they replace."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmstream.engine import SimConfig, _Simulation
from cmstream.experiments import standard_profile
from cmstream.model import lsum
from cmstream.traceio import CapacityTrace, EncounterTrace, TraceUnderrunError


# -- linear-scan references ----------------------------------------------------

def ref_capacity_at(points, t):
    h = points[0][1]
    for bt, bh in points:
        if bt <= t:
            h = bh
        else:
            break
    return h


def ref_finish_time(points, start, volume_mbits):
    if volume_mbits <= 0:
        return start
    remaining = volume_mbits
    t = start
    for i, (bt, bh) in enumerate(points):
        seg_start = max(t, bt)
        seg_end = points[i + 1][0] if i + 1 < len(points) else None
        if seg_end is not None and seg_end <= t:
            continue
        h = bh
        if seg_end is None:
            if h <= 0:
                raise TraceUnderrunError("unreachable completion")
            return seg_start + remaining / h
        if h > 0:
            capacity_here = h * (seg_end - seg_start)
            if capacity_here >= remaining:
                return seg_start + remaining / h
            remaining -= capacity_here
    raise AssertionError("unreachable")


def ref_connected(trace, a, b, t):
    if a == b:
        return True
    events = trace.toggles.get(tuple(sorted((a, b))))
    if events is None:
        return trace.default_connected
    state = 0
    for et, ev in events:
        if et <= t:
            state = ev
        else:
            break
    return bool(state)


def ref_neighbor_shares(sim, uid, t):
    """The per-bidder O(N^2) definition, O(N^3) per auction."""
    ids = list(sim.users)
    shares = []
    for i in ids:
        if not sim.encounters.connected(uid, i, t):
            continue
        n_i = sum(1 for j in ids if sim.encounters.connected(i, j, t))
        shares.append(sim.capacity.capacity_at(i, t) / n_i)
    return shares


# -- strategies ----------------------------------------------------------------

gaps = st.lists(st.floats(0.001, 50.0), max_size=8)
capacities = st.one_of(st.just(0.0), st.floats(0.001, 10.0))


@st.composite
def capacity_points(draw):
    times = [0.0] + list(itertools.accumulate(draw(gaps)))
    return tuple((t, draw(capacities)) for t in times)


@st.composite
def probe_times(draw, times):
    """Exactly on a breakpoint or toggle, before 0, or anywhere up to past
    the last one."""
    return draw(st.one_of(st.sampled_from(times),
                          st.floats(-10.0, 0.0),
                          st.floats(0.0, times[-1] + 20.0)))


# -- trace lookups -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(capacity_points(), st.data())
def test_capacity_at_matches_linear_scan(points, data):
    trace = CapacityTrace({"A": points})
    t = data.draw(probe_times([p[0] for p in points]))
    assert trace.capacity_at("A", t) == ref_capacity_at(points, t)


@settings(max_examples=200, deadline=None)
@given(capacity_points(), st.data(), st.floats(0.0, 200.0))
def test_finish_time_matches_linear_scan(points, data, volume):
    trace = CapacityTrace({"A": points})
    start = data.draw(probe_times([p[0] for p in points]))
    try:
        expected = ref_finish_time(points, start, volume)
    except TraceUnderrunError:
        with pytest.raises(TraceUnderrunError):
            trace.finish_time("A", start, volume)
    else:
        assert trace.finish_time("A", start, volume) == expected


@pytest.mark.parametrize("start", [-5.0, 0.0, 3.0, 10.0, 12.5, 20.0, 40.0])
@pytest.mark.parametrize("volume", [0.0, 1.0, 25.0, 400.0])
def test_finish_time_edge_cases(start, volume):
    # zero-capacity segment [10, 20), and the last breakpoint at 20
    points = ((0.0, 2.0), (10.0, 0.0), (20.0, 4.0))
    trace = CapacityTrace({"A": points})
    assert trace.finish_time("A", start, volume) == ref_finish_time(
        points, start, volume)
    assert trace.capacity_at("A", start) == ref_capacity_at(points, start)


def test_finish_time_from_inside_a_zero_capacity_segment():
    trace = CapacityTrace({"A": ((0.0, 2.0), (10.0, 0.0), (20.0, 4.0))})
    assert trace.finish_time("A", 12.5, 8.0) == 22.0
    dead = CapacityTrace({"A": ((0.0, 2.0), (10.0, 0.0))})
    with pytest.raises(TraceUnderrunError, match="unreachable completion"):
        dead.finish_time("A", 12.5, 8.0)


@st.composite
def toggle_events(draw):
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    times = itertools.accumulate(draw(gaps), initial=start)
    first = draw(st.integers(0, 1))
    return tuple((t, (first + k) % 2) for k, t in enumerate(times))


@settings(max_examples=200, deadline=None)
@given(toggle_events(), st.booleans(), st.data())
def test_connected_matches_linear_scan(events, default, data):
    trace = EncounterTrace({("b", "a"): events}, default_connected=default)
    t = data.draw(probe_times([e[0] for e in events]))
    for a, b in (("a", "b"), ("b", "a"), ("a", "a"), ("a", "c"), ("c", "b")):
        assert trace.connected(a, b, t) == ref_connected(trace, a, b, t)


# -- engine neighbourhood ------------------------------------------------------

def random_group(rng, n):
    ids = [f"u{i}" for i in range(n)]
    capacity = CapacityTrace({
        uid: tuple((5.0 * k, float(h)) for k, h in enumerate(
            np.where(rng.random(40) < 0.2, 0.0, rng.uniform(0, 5, 40))))
        for uid in ids})
    toggles = {}
    for a, b in itertools.combinations(ids, 2):
        if rng.random() < 0.2:
            continue  # no toggles: the pair takes default_connected
        times = np.cumsum(rng.integers(1, 30_000, size=8)) / 1000
        state = int(rng.integers(0, 2))
        toggles[(a, b)] = tuple((float(t), (state + k) % 2)
                                for k, t in enumerate(times))
    encounters = EncounterTrace(toggles,
                                default_connected=bool(rng.integers(0, 2)))
    cfg = SimConfig(users=tuple(standard_profile(u) for u in ids),
                    participation_enabled=True)
    return _Simulation(cfg, capacity, encounters), toggles


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_neighbor_shares_match_per_bidder_definition(seed, n):
    rng = np.random.default_rng(seed)
    sim, toggles = random_group(rng, n)
    instants = [float(t) for ev in toggles.values() for t, _ in ev[:3]]
    instants += [-1.0, 0.0, 7.5, 10.0, 250.0]
    rng.shuffle(instants)
    for t in instants + instants[:3]:  # revisits cross the memo
        sums = sim._share_sums(t)
        for uid in sim.users:
            assert sums[uid] == lsum(ref_neighbor_shares(sim, uid, t))


def test_neighbor_shares_full_mesh():
    capacity = CapacityTrace({"a": ((0.0, 3.0),), "b": ((0.0, 1.5),),
                              "c": ((0.0, 0.0), (10.0, 6.0))})
    cfg = SimConfig(users=tuple(standard_profile(u) for u in "abc"))
    sim = _Simulation(cfg, capacity, EncounterTrace())
    for t, uid, shares in ((0.0, "b", [1.0, 0.5, 0.0]),
                           (10.0, "a", [1.0, 0.5, 2.0]),
                           (0.0, "c", [1.0, 0.5, 0.0])):
        assert ref_neighbor_shares(sim, uid, t) == shares
        assert sim._share_sums(t)[uid] == lsum(shares)


@st.composite
def traced_group(draw):
    """A simulation over random capacity breakpoints and encounter toggles,
    and its change times."""
    ids = [f"u{i}" for i in range(draw(st.integers(1, 5)))]
    capacity = CapacityTrace({uid: draw(capacity_points()) for uid in ids})
    toggles = {pair: draw(toggle_events())
               for pair in itertools.combinations(ids, 2)
               if draw(st.booleans())}
    encounters = EncounterTrace(toggles, default_connected=draw(st.booleans()))
    cfg = SimConfig(users=tuple(standard_profile(u) for u in ids),
                    participation_enabled=True)
    changes = sorted({t for points in capacity.breakpoints.values()
                      for t, _ in points}
                     | {t for events in toggles.values() for t, _ in events})
    return _Simulation(cfg, capacity, encounters), changes


@settings(max_examples=150, deadline=None)
@given(traced_group(), st.data())
def test_epoch_held_neighborhood_matches_fresh_build(group, data):
    sim, changes = group
    edges = [e for c in changes for e in (c, math.nextafter(c, -math.inf))]
    inside = data.draw(st.lists(st.floats(-10.0, changes[-1] + 20.0),
                                max_size=6))
    monotone = sorted(edges + inside)
    revisits = data.draw(st.permutations(monotone))
    for t in monotone + monotone[::-1] + revisits:
        sums = sim._share_sums(t)
        for uid in sim.users:
            assert sums[uid] == lsum(ref_neighbor_shares(sim, uid, t))


@settings(max_examples=150, deadline=None)
@given(traced_group(), st.data())
def test_share_sum_rows_read_in_any_order_and_epoch(group, data):
    """Rows read in any order and subset are the per-bidder sums, bit for
    bit. A mapping a later _seek has carried past a trace change raises on
    a row it has not summed; one left behind by a rewind, or with no
    change crossed, still gives its own time's rows."""
    sim, _ = group
    users = list(sim.users)
    # the instants the held state changes at: each toggle, and each
    # capacity breakpoint after a user's first
    changes = [t for points in sim.capacity.breakpoints.values()
               for t, _ in points[1:]]
    changes += [t for events in sim.encounters.toggles.values()
                for t, _ in events]
    instants = st.one_of(st.sampled_from(changes or [0.0]),
                         st.floats(-10.0, max(changes, default=0.0) + 20.0))

    def bits(uid, t):
        return lsum(ref_neighbor_shares(sim, uid, t)).hex()

    t = data.draw(instants)
    sums, summed = sim._share_sums(t), set()
    for _ in range(data.draw(st.integers(1, 4))):
        for uid in data.draw(st.lists(st.sampled_from(users), unique=True)):
            assert sums[uid].hex() == bits(uid, t)
            summed.add(uid)
        later = data.draw(instants)
        sim._seek(later)
        crossed = later >= t and any(t < c <= later for c in changes)
        for uid in data.draw(st.permutations(users)):
            if crossed and uid not in summed:
                with pytest.raises(RuntimeError, match="retired"):
                    sums[uid]
            else:
                assert sums[uid].hex() == bits(uid, t)
                summed.add(uid)
        if sim._share_sums(later) is not sums:
            sums, summed = sim._share_sums(later), set()
        t = later


# -- held neighbourhoods and capacities ----------------------------------------

half_seconds = st.integers(-4, 40).map(lambda k: k / 2)


@st.composite
def held_state_group(draw):
    """Simulated users u0.. with capacity breakpoints and encounter toggles
    on one half-second grid, so that they often fall on the same instant.
    A pair may have toggles (some before 0), an empty toggle tuple, or
    none."""
    ids = [f"u{i}" for i in range(draw(st.integers(1, 5)))]
    capacity = CapacityTrace({
        uid: ((0.0, draw(capacities)),) + tuple(
            (t, draw(capacities)) for t in sorted(set(draw(
                st.lists(half_seconds.filter(lambda t: t > 0), max_size=6)))))
        for uid in ids})
    toggles = {}
    for pair in itertools.combinations(ids, 2):
        kind = draw(st.sampled_from(("none", "empty", "toggles")))
        if kind == "empty":
            toggles[pair] = ()
        elif kind == "toggles":
            first = draw(st.integers(0, 1))
            times = sorted(set(draw(st.lists(half_seconds, min_size=1,
                                             max_size=6))))
            toggles[pair] = tuple((t, (first + k) % 2)
                                  for k, t in enumerate(times))
    encounters = EncounterTrace(toggles, default_connected=draw(st.booleans()))
    cfg = SimConfig(users=tuple(standard_profile(u) for u in ids))
    return _Simulation(cfg, capacity, encounters)


@settings(max_examples=150, deadline=None)
@given(held_state_group(), st.data())
def test_held_state_matches_point_queries(sim, data):
    grid = data.draw(st.lists(half_seconds, min_size=1, max_size=8))
    edges = [math.nextafter(t, -math.inf) for t in grid] + [-10.0, 25.0]
    monotone = sorted(grid + edges)
    rewinds = data.draw(st.permutations(monotone))
    for t in monotone + rewinds:
        sim._seek(t)
        for i in sim.users:
            # a mask over the users in user order
            assert list(sim._nbrs[i]) == [sim.encounters.connected(i, j, t)
                                          for j in sim.users]
        sim._share_sums(t)  # capacities are held from the first build on
        for i in sim.users:
            assert sim._caps[i] == sim.capacity.capacity_at(i, t)
