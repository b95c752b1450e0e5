"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The simulation suites (criteria 5-7) run once inside module-scope fixtures;
every individual simulation they perform is also screened for the accounting
invariants of criterion 8 (payment conservation, buffer bounds, welfare
identity, re-run determinism).
"""

import math
import random
import sys
import time

import pytest

from cmstream.engine import run_simulation
from cmstream.experiments import heterogeneous_scenario, two_user_scenario
from cmstream.model import utility_total, welfare
from cmstream.momd import (
    MomdBid,
    brute_force_momd_optimum,
    marginal_scores,
    resolve_vickrey_score,
    validate_assumption1,
)
from cmstream.somd import (
    ScoreFunction,
    SomdBid,
    brute_force_somd_optimum,
    optimal_somd_bid,
    resolve_second_score,
)
from cmstream.strategy import brute_force_bitrate_rows, build_momd_bid

from conftest import (
    LADDER,
    assumption1_momd_instance,
    brute_force_restricted_optimum,
    degradation_ratio,
    optimal_bitrate_matrix,
    random_profile,
    random_state,
    truthful_price_vector,
)

GRID_POINTS = 21


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line, file=sys.__stdout__)
    assert ok, line


# -- invariant screening shared by the simulation suites ----------------------

INVARIANT_VIOLATIONS = []
SIMULATIONS_CHECKED = [0]


def _replay_buffers(cfg, result):
    """Independent replay of the delivery log; returns violations."""
    out = []
    by_user = {u.user_id: u for u in cfg.users}
    track = {uid: {"buffer": 0.0, "last": 0.0, "started": False,
                   "played": 0.0, "stall": 0.0}
             for uid in by_user}
    for e in result.events:
        if e.kind != "segment_delivered":
            continue
        uid = e.payload["user"]
        s = track[uid]
        if s["started"]:
            elapsed = e.time_s - s["last"]
            drain = min(elapsed, s["buffer"], cfg.video_length_s - s["played"])
            s["played"] += drain
            s["buffer"] -= drain
            if (s["buffer"] <= 1e-12 and elapsed - drain > 1e-12
                    and s["played"] < cfg.video_length_s - 1e-12):
                s["stall"] += elapsed - drain
                s["buffer"] = 0.0
        beta = by_user[uid].ladder.segment_length_s
        s["buffer"] += beta
        s["last"] = e.time_s
        s["started"] = True
        cap = by_user[uid].ladder.max_buffer_s
        if not -1e-9 <= s["buffer"] <= cap + 1e-9:
            out.append(f"buffer bound: {uid} at {s['buffer']:.6f}")
    for uid, s in track.items():
        got = result.per_user[uid].rebuffer_s
        if abs(got - s["stall"]) > 1e-6:
            out.append(f"rebuffer mismatch: {uid} {got} vs replay {s['stall']}")
    return out


def _check_invariants(cfg, result, capacity, encounters):
    out = []
    made = sum(u.payments_made for u in result.per_user.values())
    received = sum(u.payments_received for u in result.per_user.values())
    if not math.isclose(made, received, rel_tol=1e-9, abs_tol=1e-9):
        out.append(f"payment conservation: {made} != {received}")
    expected = sum(u.utility - u.cost - u.overhead_energy
                   for u in result.per_user.values())
    if not math.isclose(result.social_welfare, expected,
                        rel_tol=1e-9, abs_tol=1e-9):
        out.append(f"welfare identity: {result.social_welfare} != {expected}")
    out.extend(_replay_buffers(cfg, result))
    rerun = run_simulation(cfg, capacity, encounters)
    if rerun.events != result.events or rerun.social_welfare != result.social_welfare:
        out.append("determinism: re-run differs")
    return out


def _run_checked(cfg, capacity, encounters):
    result = run_simulation(cfg, capacity, encounters)
    SIMULATIONS_CHECKED[0] += 1
    INVARIANT_VIOLATIONS.extend(
        _check_invariants(cfg, result, capacity, encounters))
    return result


# -- simulation suites --------------------------------------------------------

REPS = 200


@pytest.fixture(scope="module")
def suite5():
    t0 = time.perf_counter()
    data = {}
    for mean_b in (0.15, 0.3, 0.45, 1.5, 3.0):
        cfg_u, gen = two_user_scenario(mean_b, modified=False)
        cfg_m, _ = two_user_scenario(mean_b, modified=True)
        acc = {"uw": 0.0, "mw": 0.0, "ud": 0.0, "md": 0.0}
        for rep in range(REPS):
            cap, enc = gen(rep)
            ru = _run_checked(cfg_u, cap, enc)
            rm = _run_checked(cfg_m, cap, enc)
            acc["uw"] += ru.social_welfare
            acc["mw"] += rm.social_welfare
            acc["ud"] += ru.degradation_ratio
            acc["md"] += rm.degradation_ratio
        data[mean_b] = {k: v / REPS for k, v in acc.items()}
    return data, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite6():
    t0 = time.perf_counter()
    cfg_c, gen = heterogeneous_scenario("momd")
    cfg_n, _ = heterogeneous_scenario("noncooperative")
    acc = {"cw": 0.0, "nw": 0.0, "cr": 0.0, "nr": 0.0}
    for rep in range(REPS):
        cap, enc = gen(rep)
        rc = _run_checked(cfg_c, cap, enc)
        rn = _run_checked(cfg_n, cap, enc)
        acc["cw"] += rc.social_welfare
        acc["nw"] += rn.social_welfare
        acc["cr"] += rc.rebuffer_ratio
        acc["nr"] += rn.rebuffer_ratio
    return {k: v / REPS for k, v in acc.items()}, time.perf_counter() - t0


OVERHEADS = (0.0, 0.2, 1.0)
K_VALUES = (1, 2, 4)


@pytest.fixture(scope="module")
def suite7():
    t0 = time.perf_counter()
    cells = {}
    gen = None
    for oh in OVERHEADS:
        for k in K_VALUES:
            cfg, g = heterogeneous_scenario("momd", K=k, overhead_energy=oh)
            gen = gen or g
            cells[(oh, k)] = cfg
    sums = {key: 0.0 for key in cells}
    for rep in range(REPS):
        cap, enc = gen(rep)
        for key, cfg in cells.items():
            sums[key] += _run_checked(cfg, cap, enc).social_welfare
    return {k: v / REPS for k, v in sums.items()}, time.perf_counter() - t0


# -- criteria -----------------------------------------------------------------

def test_criterion_1_worked_allocation_exact():
    from cmstream.momd import resolve_from_marginal_scores

    seqs = {"1": (8.0, 7.0, 5.0, 2.0),
            "2": (9.0, 6.0, 3.0, 2.0),
            "3": (4.0, 4.0, 3.0, 1.0)}
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        outcome = resolve_from_marginal_scores(seqs, 4)
        best = min(best, time.perf_counter() - t0)
    ok = (outcome.revised_allocation == {"1": 2, "2": 2, "3": 0}
          and outcome.payments["1"] == 8.0
          and outcome.payments["2"] == 9.0
          and best < 1e-3)
    _report("criterion 1 (worked allocation exact)", ok,
            f"allocation={outcome.revised_allocation} "
            f"payments=({outcome.payments['1']:g}, {outcome.payments['2']:g}) "
            f"in {best * 1e6:.0f} us")


def test_criterion_2_truthfulness():
    t0 = time.perf_counter()
    rng = random.Random(202)
    violations = 0
    instances = 0

    for _ in range(600):  # second-score auctions, M <= 5
        downloader = random_profile(rng, "dl")
        sf = ScoreFunction.efficient(downloader)
        focal_p = random_profile(rng, "focal")
        focal_s = random_state(rng)
        others = [optimal_somd_bid(random_profile(rng, f"o{j}"),
                                   random_state(rng), sf)
                  for j in range(rng.randint(1, 4))]
        truthful = optimal_somd_bid(focal_p, focal_s, sf)

        def payoff(bid):
            out = resolve_second_score([bid] + others, sf)
            if out.winner_id != bid.bidder_id:
                return 0.0
            return (utility_total(focal_p, focal_s, (out.winning_bitrate,))
                    - out.payment)

        base = payoff(truthful)
        for i in range(GRID_POINTS):
            dev = SomdBid("focal", truthful.bitrate,
                          truthful.price * 2.0 * i / (GRID_POINTS - 1))
            if payoff(dev) > base + 1e-9:
                violations += 1
        instances += 1

    for _ in range(600):  # Vickrey-score auctions, M <= 4, K <= 4
        downloader, bidders, k, sf, bids = assumption1_momd_instance(rng)
        profile, state = bidders[0]
        truthful = bids[0]

        def payoff(bid):
            out = resolve_vickrey_score([bid] + bids[1:], sf, k)
            if out.revised_allocation[bid.bidder_id] == 0:
                return 0.0
            return (utility_total(profile, state,
                                  out.winning_bitrates[bid.bidder_id])
                    - out.payments[bid.bidder_id])

        base = payoff(truthful)
        for comp in range(len(truthful.price_vector)):
            for i in range(GRID_POINTS):
                prices = list(truthful.price_vector)
                prices[comp] = prices[comp] * 2.0 * i / (GRID_POINTS - 1)
                dev = MomdBid(truthful.bidder_id, truthful.bitrate_matrix,
                              tuple(prices))
                if payoff(dev) > base + 1e-9:
                    violations += 1
        instances += 1

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and instances >= 1000 and elapsed < 60.0
    _report("criterion 2 (truthfulness)", ok,
            f"{instances} instances, {violations} violations, {elapsed:.1f} s")


def test_criterion_3_efficiency():
    t0 = time.perf_counter()
    rng = random.Random(303)
    somd_bad = momd_bad = restricted_bad = 0

    for _ in range(500):  # second-score vs exhaustive oracle
        downloader = random_profile(rng, "dl")
        sf = ScoreFunction.efficient(downloader)
        bidders = [(random_profile(rng, f"u{j}"), random_state(rng))
                   for j in range(rng.randint(2, 5))]
        bids = [optimal_somd_bid(p, s, sf) for p, s in bidders]
        out = resolve_second_score(bids, sf)
        by_id = {p.user_id: (p, s) for p, s in bidders}
        wp, ws = by_id[out.winner_id]
        mech = welfare(downloader, wp, ws, (out.winning_bitrate,))
        _, _, oracle = brute_force_somd_optimum(bidders, downloader)
        if mech != oracle:
            somd_bad += 1

    for _ in range(500):  # Vickrey-score vs exhaustive oracle
        downloader, bidders, k, sf, bids = assumption1_momd_instance(rng)
        out = resolve_vickrey_score(bids, sf, k)
        mech = 0.0
        for (p, s), bid in zip(bidders, bids):
            rates = out.winning_bitrates[bid.bidder_id]
            if rates:
                mech += welfare(downloader, p, s, rates)
        _, _, oracle = brute_force_momd_optimum(bidders, downloader, k)
        if mech != oracle:
            momd_bad += 1

    for _ in range(200):  # restricted-bitrate variant: arbitrary valid rows
        downloader, bidders, k, sf, bids = _restricted_instance(rng)
        out = resolve_vickrey_score(bids, sf, k)
        mech = 0.0
        for (p, s), bid in zip(bidders, bids):
            kappa = out.revised_allocation[bid.bidder_id]
            if kappa:
                mech += welfare(downloader, p, s, bid.row(kappa))
        _, oracle = brute_force_restricted_optimum(
            bids, bidders, downloader, k)
        if mech != oracle:
            restricted_bad += 1

    elapsed = time.perf_counter() - t0
    ok = (somd_bad == momd_bad == restricted_bad == 0) and elapsed < 120.0
    _report("criterion 3 (efficiency oracle equality)", ok,
            f"mismatches somd={somd_bad} momd={momd_bad} "
            f"restricted={restricted_bad}, {elapsed:.1f} s")


def _restricted_instance(rng):
    """Assumption-1-valid instance whose matrices are random (not optimal)
    common-rate rows with truthful prices."""
    while True:
        downloader = random_profile(rng, "dl")
        sf = ScoreFunction.efficient(downloader)
        k = rng.randint(1, 4)
        m = rng.randint(1, 4)
        bidders = []
        bids = []
        for j in range(m):
            p = random_profile(rng, f"u{j}")
            s = random_state(rng)
            rates = sorted((rng.choice(LADDER.rates) for _ in range(k)),
                           reverse=True)
            rows = tuple((rates[i],) * (i + 1) for i in range(k))
            prices = tuple(max(0.0, x)
                           for x in truthful_price_vector(p, s, rows))
            bidders.append((p, s))
            bids.append(MomdBid(p.user_id, rows, prices))
        if all(validate_assumption1(marginal_scores(b, sf))[0] for b in bids):
            return downloader, bidders, k, sf, bids


def test_criterion_4_matrix_structure():
    t0 = time.perf_counter()
    rng = random.Random(404)
    lemma1_bad = lemma2_bad = objective_bad = 0
    for _ in range(500):
        profile = random_profile(rng, "u")
        state = random_state(rng)
        sf = ScoreFunction.efficient(random_profile(rng, "d"))
        brute = brute_force_bitrate_rows(profile, state, sf, 3)
        fast = optimal_bitrate_matrix(profile, state, sf, 3)
        for row in brute:
            if len(set(row)) != 1:
                lemma1_bad += 1
        first = [row[0] for row in brute]
        if any(b > a for a, b in zip(first, first[1:])):
            lemma2_bad += 1
        for kappa in range(1, 4):
            got = _row_objective(profile, state, sf, fast[kappa - 1])
            want = _row_objective(profile, state, sf, brute[kappa - 1])
            if got != want:
                objective_bad += 1
    elapsed = time.perf_counter() - t0
    ok = (lemma1_bad == lemma2_bad == objective_bad == 0) and elapsed < 60.0
    _report("criterion 4 (matrix structure)", ok,
            f"lemma1={lemma1_bad} lemma2={lemma2_bad} "
            f"objective={objective_bad}, {elapsed:.1f} s")


def _row_objective(profile, state, cost_of_rate, vec):
    from cmstream.model import degradation_single, quality_gain_single

    prev = state.prev_bitrate
    obj = 0.0
    for r in vec:
        obj += quality_gain_single(profile, r) - cost_of_rate(r)
        obj -= degradation_single(profile, prev, r)
        prev = r
    return obj


def test_criterion_5_modification_trend(suite5):
    data, elapsed = suite5
    problems = []
    for mean_b in (0.15, 0.3, 0.45):
        d = data[mean_b]
        if not d["mw"] > d["uw"]:
            problems.append(f"welfare not improved at {mean_b}")
        if not d["md"] <= d["ud"] + 1e-12:
            problems.append(f"degradation worse at {mean_b}")
    for mean_b in (1.5, 3.0):
        d = data[mean_b]
        if abs(d["mw"] - d["uw"]) / abs(d["uw"]) >= 0.01:
            problems.append(f"means differ >=1% at {mean_b}")
    ok = not problems and elapsed < 300.0
    gains = ", ".join(
        f"{m:g}: {100 * (data[m]['mw'] / data[m]['uw'] - 1):+.1f}%"
        for m in (0.15, 0.3, 0.45, 1.5, 3.0))
    _report("criterion 5 (modification trend)", ok,
            (f"welfare change {gains}, {elapsed:.1f} s"
             + ("; " + "; ".join(problems) if problems else "")))


def test_criterion_6_cooperation_gain(suite6):
    data, elapsed = suite6
    welfare_gain = data["cw"] / data["nw"] - 1.0
    rebuffer_drop = 1.0 - (data["cr"] / data["nr"] if data["nr"] else 0.0)
    ok = welfare_gain >= 0.20 and rebuffer_drop >= 0.50 and elapsed < 300.0
    _report("criterion 6 (cooperation gain)", ok,
            f"welfare +{100 * welfare_gain:.1f}%, "
            f"rebuffer -{100 * rebuffer_drop:.1f}%, {elapsed:.1f} s")


def test_criterion_7_overhead_monotonicity(suite7):
    data, elapsed = suite7
    problems = []
    for k in K_VALUES:
        series = [data[(oh, k)] for oh in OVERHEADS]
        if any(b > a + 1e-9 for a, b in zip(series, series[1:])):
            problems.append(f"welfare not monotone in overhead for K={k}")
    at_zero = [data[(0.0, k)] for k in K_VALUES]
    if any(b > a + 1e-9 for a, b in zip(at_zero, at_zero[1:])):
        problems.append("welfare not nonincreasing in K at zero overhead")
    high = OVERHEADS[-1]
    if not any(data[(high, k)] > data[(high, 1)] for k in K_VALUES[1:]):
        problems.append("no K>1 beats K=1 at high overhead")
    ok = not problems and elapsed < 300.0
    _report("criterion 7 (overhead monotonicity)", ok,
            (f"zero-overhead welfare by K: "
             + ", ".join(f"K={k}: {data[(0.0, k)]:.2f}" for k in K_VALUES)
             + f"; high overhead K=1 {data[(high, 1)]:.2f} vs best K>1 "
             + f"{max(data[(high, k)] for k in K_VALUES[1:]):.2f}, "
             + f"{elapsed:.1f} s"
             + ("; " + "; ".join(problems) if problems else "")))


def test_criterion_8_accounting_invariants(suite5, suite6, suite7):
    ok = not INVARIANT_VIOLATIONS and SIMULATIONS_CHECKED[0] > 0
    _report("criterion 8 (accounting invariants)", ok,
            f"{SIMULATIONS_CHECKED[0]} simulations screened, "
            f"{len(INVARIANT_VIOLATIONS)} violations"
            + ("; first: " + INVARIANT_VIOLATIONS[0]
               if INVARIANT_VIOLATIONS else ""))


def test_criterion_9_degradation_formula():
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        got = degradation_ratio((1.3, 0.7, 1.3))
        best = min(best, time.perf_counter() - t0)
    ok = round(100 * got, 1) == 18.2 and best < 1e-3
    _report("criterion 9 (degradation formula)", ok,
            f"{100 * got:.1f}% in {best * 1e6:.0f} us")
