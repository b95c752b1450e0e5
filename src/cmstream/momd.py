"""Multi-object multi-dimensional auction: marginal scores, Vickrey-score
allocation and payments, and sufficient-condition checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .model import (
    UserProfile,
    UserState,
    cost_single,
    lsum,
    quality_gain_single,
    welfare,
)
from .somd import ScoreFunction


class InsufficientMarginalScoresError(ValueError):
    pass


class InstanceTooLargeError(ValueError):
    pass


# Brute-force oracles refuse anything bigger than this.
MAX_ORACLE_BIDDERS = 4
MAX_ORACLE_SEGMENTS = 4
MAX_ORACLE_RATES = 5


@dataclass(frozen=True)
class MomdBid:
    """A lower-triangular bitrate matrix plus a per-row total price.

    Row kappa (1-based) holds the bitrates the bidder wants if allocated
    kappa segments; entries beyond the row index are zero. Trailing all-zero
    rows (with zero price) cap the bidder at fewer than K segments. The
    matrix and prices are tuples of floats; they are checked, not converted.
    """

    bidder_id: str
    bitrate_matrix: Tuple[Tuple[float, ...], ...]
    price_vector: Tuple[float, ...]

    # leading rows with actual bitrates (the bidder's cap), set on creation
    max_segments: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix, prices = self.bitrate_matrix, self.price_vector
        k = len(matrix)
        if len(prices) != k:
            raise ValueError("price vector length must match matrix size")
        n = 0
        capped = False
        # a truthy entry is one != 0
        for kappa, row in enumerate(matrix, start=1):
            if len(row) != k:
                raise ValueError("bitrate matrix must be square")
            if any(row[kappa:]):
                raise ValueError(f"row {kappa} must be zero beyond column {kappa}")
            if not any(row[:kappa]):
                capped = True
            elif capped:
                raise ValueError("non-empty row after an all-zero row")
            else:
                n = kappa
            if any(x < 0 for x in row):
                raise ValueError("bitrates must be >= 0")
        if any(p < 0 for p in prices):
            raise ValueError("prices must be >= 0")
        object.__setattr__(self, "max_segments", n)

    def row(self, kappa: int) -> Tuple[float, ...]:
        """Non-zero bitrates of row kappa (1-based)."""
        return self.bitrate_matrix[kappa - 1][:kappa]


@dataclass(frozen=True)
class MarginalScoreSeq:
    """Per-segment score increments; their prefix sums recover the row scores."""

    bidder_id: str
    scores: Tuple[float, ...]


@dataclass(frozen=True)
class MomdOutcome:
    per_segment_winners: Tuple[str, ...]
    revised_allocation: Dict[str, int]
    winning_bitrates: Dict[str, Tuple[float, ...]]
    payments: Dict[str, float]
    assumption_violations: Tuple[str, ...] = ()


def momd_score(rates: Sequence[float], price: float, sf: ScoreFunction) -> float:
    """Row score: price minus the component-wise bitrate penalty."""
    return price - sf.of_vector(rates)


def row_scores(bid: MomdBid, sf: ScoreFunction) -> List[float]:
    return [momd_score(bid.row(kappa), bid.price_vector[kappa - 1], sf)
            for kappa in range(1, bid.max_segments + 1)]


def marginal_scores(bid: MomdBid, sf: ScoreFunction) -> MarginalScoreSeq:
    """Telescoped row-score differences; entry kappa is the score increase
    when the bidder's allocation grows from kappa-1 to kappa segments."""
    phis = row_scores(bid, sf)
    out = []
    prev = 0.0
    for phi in phis:
        out.append(phi - prev)
        prev = phi
    return MarginalScoreSeq(bidder_id=bid.bidder_id, scores=tuple(out))


def validate_assumption1(seq: MarginalScoreSeq) -> Tuple[bool, Optional[int]]:
    """Check that the marginal scores are non-negative and non-increasing.

    Returns (ok, first violating 1-based index or None).
    """
    return _assumption1(seq.scores)


def _assumption1(s: Sequence[float]) -> Tuple[bool, Optional[int]]:
    for kappa in range(1, len(s) + 1):
        if s[kappa - 1] < 0:
            return False, kappa
        if kappa < len(s) and s[kappa - 1] < s[kappa]:
            return False, kappa
    return True, None


def resolve_vickrey_score(bids: Sequence[MomdBid], sf: ScoreFunction,
                          K: int) -> MomdOutcome:
    """Allocate the K segments to the K globally highest marginal scores and
    charge each winner the score damage it causes plus s of its winning row.

    Ties break by (score, lowest bidder_id, lowest row index). Raises
    InsufficientMarginalScoresError when fewer than K marginal entries exist.

    Each bid's marginal scores equal ``marginal_scores(bid, sf)`` and each
    payment's penalty equals ``sf.of_vector(row)`` bit for bit: sf is called
    once per distinct rate, and a row's penalty adds its entries left to
    right, as ``lsum`` does.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if not bids:
        raise InsufficientMarginalScoresError(
            "insufficient marginal scores: no bids")
    s_of: Dict[float, float] = {}
    # bidder_id -> (bid, marginal scores, score penalty of each row); a
    # repeated bidder_id keeps its last bid, as every outcome field does
    seqs: Dict[str, Tuple[MomdBid, List[float], List[float]]] = {}
    for bid in bids:
        scores, penalties = [], []
        prev = 0.0
        for kappa in range(1, bid.max_segments + 1):
            penalty = 0.0
            for r in bid.bitrate_matrix[kappa - 1][:kappa]:
                s = s_of.get(r)
                if s is None:
                    s = s_of[r] = sf(r)
                penalty += s
            phi = bid.price_vector[kappa - 1] - penalty
            scores.append(phi - prev)
            penalties.append(penalty)
            prev = phi
        seqs[bid.bidder_id] = (bid, scores, penalties)
    entries = [(s, bidder_id, kappa)
               for bidder_id, (_, scores, _) in seqs.items()
               for kappa, s in enumerate(scores, start=1)]
    if len(entries) < K:
        raise InsufficientMarginalScoresError(
            f"insufficient marginal scores: {len(entries)} < {K}")
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    top = entries[:K]

    counts = {bid.bidder_id: 0 for bid in bids}
    for _, bidder_id, _ in top:
        counts[bidder_id] += 1

    bitrates: Dict[str, Tuple[float, ...]] = {}
    payments: Dict[str, float] = {}
    for bidder_id, (bid, _, penalties) in seqs.items():
        kappa = counts[bidder_id]
        if kappa == 0:
            bitrates[bidder_id] = ()
            payments[bidder_id] = 0.0
            continue
        # entries is sorted by score, highest first
        others = [s for s, b, _ in entries if b != bidder_id][:K]
        others += [0.0] * (K - len(others))  # absent competitors do no damage
        damage = lsum(others[K - kappa:])
        bitrates[bidder_id] = bid.row(kappa)
        payments[bidder_id] = penalties[kappa - 1] + damage

    violations = tuple(b for b in sorted(seqs)
                       if not _assumption1(seqs[b][1])[0])
    return MomdOutcome(
        per_segment_winners=tuple(b for _, b, _ in top),
        revised_allocation=counts,
        winning_bitrates=bitrates,
        payments=payments,
        assumption_violations=violations,
    )


def resolve_from_marginal_scores(seqs: Mapping[str, Sequence[float]],
                                 K: int) -> MomdOutcome:
    """Run the Vickrey-score allocation directly on marginal-score sequences.

    Reconstructs bids with unit bitrates and a zero score penalty, so the
    payments equal the pure score-damage terms.
    """
    bids = []
    for bidder_id, scores in seqs.items():
        n = len(scores)
        prices = list(itertools.accumulate(scores))
        rows = tuple((1.0,) * kappa + (0.0,) * (n - kappa)
                     for kappa in range(1, n + 1))
        bids.append(MomdBid(bidder_id, rows, tuple(prices)))
    sf = ScoreFunction.zero()
    return resolve_vickrey_score(bids, sf, K)


def _guard_instance(num_bidders: int, K: int, num_rates: int) -> None:
    if (num_bidders > MAX_ORACLE_BIDDERS or K > MAX_ORACLE_SEGMENTS
            or num_rates > MAX_ORACLE_RATES):
        raise InstanceTooLargeError(
            f"brute-force guard: M<={MAX_ORACLE_BIDDERS}, "
            f"K<={MAX_ORACLE_SEGMENTS}, Z<={MAX_ORACLE_RATES}")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _best_split(values: Sequence[Sequence[Optional[float]]], K: int,
                ) -> Tuple[Optional[Tuple[int, ...]], Optional[float]]:
    """The split of K segments with the largest total of values[i][k],
    bidder i's value for k segments, and that total; splits that take a None
    are skipped, the first best split wins ties, and none left is (None, None)."""
    best_alloc = best_w = None
    for alloc in _compositions(K, len(values)):
        if any(values[i][k] is None for i, k in enumerate(alloc)):
            continue
        w = lsum(values[i][k] for i, k in enumerate(alloc))
        if best_w is None or w > best_w:
            best_alloc, best_w = alloc, w
    return best_alloc, best_w


def brute_force_momd_optimum(
    bidders: Sequence[Tuple[UserProfile, UserState]],
    downloader: UserProfile,
    K: int,
) -> Tuple[Tuple[int, ...], Dict[str, Tuple[float, ...]], float]:
    """Welfare-maximizing allocation by exhaustive enumeration.

    Enumerates every split of the K segments over the bidders and, per
    bidder, every ladder-bitrate vector of its segment count. Small
    instances only.
    """
    bidders = list(bidders)
    if not bidders:
        raise ValueError("need at least one bidder")
    if K < 0:
        raise ValueError("K must be >= 0")
    _guard_instance(len(bidders), K,
                    max(p.ladder.num_rates for p, _ in bidders))
    # Best vector and welfare per (bidder, segment count); welfare is additive
    # across bidders, so the joint enumeration splits cleanly.
    best: List[List[Tuple[float, Tuple[float, ...]]]] = []
    for profile, state in bidders:
        per_kappa = [(0.0, ())]
        for kappa in range(1, K + 1):
            top = None
            for vec in itertools.product(profile.ladder.rates, repeat=kappa):
                w = welfare(downloader, profile, state, vec).welfare
                if top is None or w > top[0]:
                    top = (w, vec)
            per_kappa.append(top)
        best.append(per_kappa)

    alloc, w = _best_split([[v for v, _ in per_kappa] for per_kappa in best], K)
    vectors = {bidders[i][0].user_id: best[i][k][1]
               for i, k in enumerate(alloc)}
    return alloc, vectors, w


def brute_force_restricted_optimum(
    bids: Sequence[MomdBid],
    bidders: Sequence[Tuple[UserProfile, UserState]],
    downloader: UserProfile,
    K: int,
) -> Tuple[Tuple[int, ...], float]:
    """Welfare maximum when each bidder's bitrates are pinned to its matrix rows.

    Oracle for the conditional-efficiency claim: allocating kappa segments to
    bidder m forces row kappa of its submitted matrix.
    """
    if len(bids) != len(bidders):
        raise ValueError("bids and bidders must align")
    _guard_instance(len(bidders), K,
                    max(p.ladder.num_rates for p, _ in bidders))
    values = []
    for bid, (profile, state) in zip(bids, bidders):
        per_kappa = [0.0]
        for kappa in range(1, K + 1):
            if kappa > bid.max_segments:
                per_kappa.append(None)
            else:
                per_kappa.append(
                    welfare(downloader, profile, state, bid.row(kappa)).welfare)
        values.append(per_kappa)

    alloc, w = _best_split(values, K)
    if alloc is None:
        raise InsufficientMarginalScoresError(
            "insufficient marginal scores: bids cannot cover K segments")
    return alloc, w


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the sufficient-condition checks for well-behaved marginal scores."""

    nonnegative_ok: bool
    nonnegative_violations: Tuple[Tuple[float, float, float], ...]  # (rate, gain, cost)
    nonincreasing_ok: bool
    nonincreasing_lhs: float
    delta_bound: float  # |Delta~|, tightest negative buffer-gap bound

    @property
    def all_ok(self) -> bool:
        return self.nonnegative_ok and self.nonincreasing_ok


def check_sufficient_conditions(downloader: UserProfile, bidder: UserProfile,
                                K: int) -> ConditionReport:
    """Check the two conditions that guarantee non-negative, non-increasing
    marginal scores under the efficient score function.

    (a) per-segment quality gain covers the downloading cost at every ladder
        rate; (b) 2K * c(top rate) + full-drop degradation loss is within the
        tightest negative buffer-gain-gap bound, evaluated in closed form for
        the geometric buffer gain (largest row index and fullest buffer).
    """
    violations = []
    for r in bidder.ladder.rates:
        gain = quality_gain_single(bidder, r)
        cost = cost_single(downloader, r)
        if gain < cost:
            violations.append((r, gain, cost))

    top = bidder.ladder.top_rate
    lhs = (2 * K * cost_single(downloader, top)
           + bidder.degradation_slope * top)
    if K >= 2:
        # |Delta~| = gamma * (1 - rho) * rho^(Bmax/beta + K - 2): the
        # loosest gap sits at the fullest buffer and the largest row index.
        gamma = bidder.buffer_gain_scale
        rho = bidder.buffer_gain_decay
        exponent = bidder.ladder.max_buffer_s / bidder.ladder.segment_length_s + K - 2
        delta_bound = gamma * (1.0 - rho) * rho ** exponent
        nonincreasing_ok = lhs <= delta_bound
    else:
        delta_bound = float("inf")
        nonincreasing_ok = True
    return ConditionReport(
        nonnegative_ok=not violations,
        nonnegative_violations=tuple(violations),
        nonincreasing_ok=nonincreasing_ok,
        nonincreasing_lhs=lhs,
        delta_bound=delta_bound,
    )
